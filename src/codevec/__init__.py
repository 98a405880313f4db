"""Syntactic path-context extraction and attention-based code embeddings
for semantic labeling of code snippets (method name prediction)."""

from .ast_tree import (Ast, AstBuilder, AstNode, normalize_value,
                       read_sexpr_ast, structurally_equal, write_sexpr_ast)
from .corpus import (ABLATIONS, PAD_ID, UNK_ID, AblationMask, EncodedExample,
                     RawExample, Vocabs, build_vocabs, encode_example,
                     load_dataset, read_dataset, split_subtokens, write_dataset)
from .errors import CodevecError
from .metrics import Metrics, evaluate, score_pair
from .minij import parse_methods, parse_mini
from .model import (AttentionVariant, ForwardTrace, ModelDims, ModelParams,
                    forward, init_params, load_model,
                    predict_topk, save_model)
from .paths import (AstPath, ExtractionLimits, PathContext,
                    extract_path_contexts, path_from_string, path_to_string,
                    reverse_path)
from .pipeline import method_to_example
from .training import TrainConfig, adam_step, backward, loss, train
from .vectors import NameVectorTable, cosine

__all__ = [
    "Ast", "AstBuilder", "AstNode", "normalize_value", "read_sexpr_ast",
    "structurally_equal", "write_sexpr_ast", "ABLATIONS", "PAD_ID", "UNK_ID",
    "AblationMask", "EncodedExample", "RawExample", "Vocabs", "build_vocabs",
    "encode_example", "load_dataset", "read_dataset", "split_subtokens",
    "write_dataset", "CodevecError", "Metrics", "evaluate", "score_pair",
    "parse_methods", "parse_mini", "AttentionVariant", "ForwardTrace",
    "ModelDims", "ModelParams", "forward", "init_params",
    "load_model", "predict_topk", "save_model", "AstPath", "ExtractionLimits",
    "PathContext", "extract_path_contexts", "path_from_string",
    "path_to_string", "reverse_path", "method_to_example", "TrainConfig",
    "adam_step", "backward", "loss", "train", "NameVectorTable", "cosine",
]
