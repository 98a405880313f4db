"""Command-line surface: extract, train, predict, eval, nearest, combine,
analogy. Exit codes: 1 usage, 2 data, 3 numeric failure."""

from __future__ import annotations

import argparse
import sys


from .ast_tree import read_sexpr_asts
from .corpus import (ABLATIONS, RawExample, build_vocabs, encode_example,
                     example_rng, load_dataset, write_dataset)
from .errors import CodevecError, TrainingError
from .metrics import evaluate
from .minij import parse_methods
from .model import AttentionVariant, forward, load_model, predict_topk, save_model
from .paths import ExtractionLimits, path_to_string
from .pipeline import method_to_example
from .training import TrainConfig, train
from .vectors import NameVectorTable

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_methods(path: str):
    """Methods from one input file, auto-detecting MiniJ vs S-expressions."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if text.lstrip().startswith("("):
        return read_sexpr_asts(text)
    return parse_methods(text)


def cmd_extract(args) -> int:
    limits = ExtractionLimits(args.max_length, args.max_width)
    examples: list[RawExample] = []
    failures = 0
    total_contexts = 0
    empty = 0
    for path in args.inputs:
        try:
            methods = _read_methods(path)
        except (CodevecError, OSError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        for ast in methods:
            example = method_to_example(ast, limits)
            examples.append(example)
            total_contexts += len(example.contexts)
            if not example.contexts:
                empty += 1
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        write_dataset(examples, out)
    finally:
        if args.output:
            out.close()
    print(f"extracted {len(examples)} methods, {total_contexts} contexts, "
          f"{empty} without contexts, {failures} failed files", file=sys.stderr)
    if not examples and not failures:
        print("warning: no methods found", file=sys.stderr)
    return EXIT_DATA if failures else 0


def cmd_train(args) -> int:
    train_set = load_dataset(args.train)
    val_set = load_dataset(args.val) if args.val else train_set
    vocabs = build_vocabs(train_set, args.max_values, args.max_paths, args.max_tags)
    config = TrainConfig(
        learning_rate=args.lr, batch_size=args.batch, max_epochs=args.epochs,
        patience=args.patience, dropout_rate=args.dropout, k_max=args.kmax,
        seed=args.seed, variant=AttentionVariant(args.variant),
        ablation=ABLATIONS[args.ablation], dim=args.dim)

    def checkpoint(epoch, params):
        if args.checkpoints:
            save_model(f"{args.output}.ckpt-{epoch}", params, vocabs)

    params, _ = train(train_set, val_set, vocabs, config,
                      log=lambda line: print(line, file=sys.stderr),
                      checkpoint=checkpoint)
    save_model(args.output, params, vocabs)
    return 0


def cmd_predict(args) -> int:
    params, vocabs = load_model(args.model)
    limits = ExtractionLimits(args.max_length, args.max_width)
    status = 0
    for path in args.inputs:
        try:
            methods = _read_methods(path)
        except (CodevecError, OSError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            status = EXIT_DATA
            continue
        for ast in methods:
            example = method_to_example(ast, limits)
            if not example.contexts:
                print(f"{path}: method {example.label!r} has no path-contexts",
                      file=sys.stderr)
                status = EXIT_DATA
                continue
            encoded = encode_example(example, vocabs, params.dims.k_max,
                                     example_rng(args.seed, 0))
            print(f"# {example.label}")
            for tag, prob in predict_topk(params, encoded, args.topk, vocabs):
                print(f"{tag} {prob:.6f}")
            if args.attention:
                _print_attention(params, example, encoded)
    return status


def _print_attention(params, example, encoded) -> None:
    trace = forward(params, encoded, mode="infer")
    alpha = trace.alpha
    if alpha.ndim == 2:  # element-wise: report the per-context mean weight
        alpha = alpha.mean(axis=1)
    weighted = [(float(alpha[i]), ctx) for i, ctx in enumerate(example.contexts)
                if i < len(alpha) and trace.mask[i]]
    for weight, ctx in sorted(weighted, key=lambda pair: -pair[0]):
        print(f"  {weight:.4f} {ctx.source_value},{path_to_string(ctx.path)},"
              f"{ctx.target_value}")


def cmd_eval(args) -> int:
    params, vocabs = load_model(args.model)
    dataset = load_dataset(args.input)
    per_example = [] if args.per_example else None
    metrics = evaluate(params, dataset, vocabs, seed=args.seed,
                       ablation=ABLATIONS[args.ablation], per_example=per_example)
    print(metrics.summary())
    if args.per_example:
        with open(args.per_example, "w", encoding="utf-8") as handle:
            for true, predicted, tp, fp, fn in per_example:
                handle.write(f"{true}\t{predicted}\t{tp}\t{fp}\t{fn}\n")
    return 0


def _print_ranking(ranking) -> None:
    for rank, (tag, score) in enumerate(ranking, start=1):
        print(f"{rank} {tag} {score:.6f}")


def _load_table(path: str) -> NameVectorTable:
    params, vocabs = load_model(path)
    return NameVectorTable.from_params(params, vocabs)


def cmd_nearest(args) -> int:
    _print_ranking(_load_table(args.model).nearest(args.name, args.topk))
    return 0


def cmd_combine(args) -> int:
    _print_ranking(_load_table(args.model).combine(args.name_a, args.name_b,
                                                   args.topk))
    return 0


def cmd_analogy(args) -> int:
    _print_ranking(_load_table(args.model).analogy(args.a, args.b, args.c,
                                                   args.topk))
    return 0


def _add_limits(parser) -> None:
    parser.add_argument("--max-length", type=int, default=8)
    parser.add_argument("--max-width", type=int, default=2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="codevec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract path-contexts from MiniJ or S-expression files")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--output", "-o")
    _add_limits(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a model on a dataset file")
    p.add_argument("--train", required=True)
    p.add_argument("--val")
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--kmax", type=int, default=200)
    p.add_argument("--dropout", type=float, default=0.25)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--patience", type=int, default=3)
    p.add_argument("--variant", choices=[v.value for v in AttentionVariant],
                   default="soft")
    p.add_argument("--ablation", choices=sorted(ABLATIONS), default="full")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--checkpoints", action="store_true",
                   help="also save a .ckpt-<epoch> model after each epoch")
    p.add_argument("--max-values", type=int, default=50_000)
    p.add_argument("--max-paths", type=int, default=50_000)
    p.add_argument("--max-tags", type=int, default=10_000)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict names for methods in input files")
    p.add_argument("--model", required=True)
    p.add_argument("inputs", nargs="+")
    p.add_argument("--topk", type=int, default=5)
    p.add_argument("--attention", action="store_true",
                   help="print per-context attention weights, descending")
    p.add_argument("--seed", type=int, default=0)
    _add_limits(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="evaluate a model over a dataset file")
    p.add_argument("--model", required=True)
    p.add_argument("input")
    p.add_argument("--ablation", choices=sorted(ABLATIONS), default="full")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-example", help="write per-example TSV to this path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("nearest", help="nearest names by cosine similarity")
    p.add_argument("--model", required=True)
    p.add_argument("name")
    p.add_argument("--topk", type=int, default=10)
    p.set_defaults(func=cmd_nearest)

    p = sub.add_parser("combine", help="names most similar to two names combined")
    p.add_argument("--model", required=True)
    p.add_argument("name_a")
    p.add_argument("name_b")
    p.add_argument("--topk", type=int, default=10)
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("analogy", help="a - b + c name analogy")
    p.add_argument("--model", required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    p.add_argument("--topk", type=int, default=10)
    p.set_defaults(func=cmd_analogy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingError as exc:
        print(f"codevec: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FloatingPointError as exc:
        print(f"codevec: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CodevecError, OSError, ValueError) as exc:
        print(f"codevec: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
