"""Command-line surface: extract, train, predict, eval, nearest, combine,
analogy. Exit codes: 1 usage, 2 data, 3 numeric failure."""

from __future__ import annotations

import argparse
import math
import sys

from .ast_tree import read_sexpr_asts
from .corpus import (ABLATIONS, RawExample, build_vocabs, encode_example,
                     example_rng, format_context, load_dataset, sample_contexts,
                     write_dataset)
from .errors import CodevecError, TrainingError
from .metrics import evaluate
from .minij import parse_methods
from .model import (MAX_SLOTS, AttentionVariant, forward, load_model, predict_topk,
                    save_model)
from .paths import ExtractionLimits
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


def _checked(convert, ok, requirement: str):
    """argparse type: `convert(text)`, a usage error unless `ok` holds."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value
    # argparse names the type in "invalid <name> value: ..."
    parse.__name__ = "integer" if convert is int else convert.__name__
    return parse


_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_non_negative_int = _checked(int, lambda v: v >= 0, ">= 0")


def _fail(failures: list[str], message: str) -> None:
    failures.append(message)
    print(message, file=sys.stderr)


def _method_examples(args, failures: list[str]):
    """(path, example) for each method of the input files, in order. A file
    whose first non-blank character is '(' holds S-expression trees, any
    other MiniJ. A file that cannot be read or parsed, or a method that
    cannot be extracted, is reported as `path: message`, added to
    `failures` and skipped."""
    limits = ExtractionLimits(args.max_length, args.max_width)
    for path in args.inputs:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            read = read_sexpr_asts if text.lstrip().startswith("(") else parse_methods
            methods = read(text)
        except (CodevecError, OSError, UnicodeDecodeError) as exc:
            _fail(failures, f"{path}: {exc}")
            continue
        for ast in methods:
            try:
                example = method_to_example(ast, limits)
            except CodevecError as exc:
                _fail(failures, f"{path}: {exc}")
                continue
            yield path, example


def cmd_extract(args) -> int:
    failures: list[str] = []
    methods = contexts = empty = 0
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        for _, example in _method_examples(args, failures):
            write_dataset([example], out)
            methods += 1
            contexts += len(example.contexts)
            if not example.contexts:
                empty += 1
    finally:
        if args.output:
            out.close()
    print(f"extracted {methods} methods, {contexts} contexts, "
          f"{empty} without contexts, {len(failures)} failures", file=sys.stderr)
    if not methods and not failures:
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
    k_max = params.dims.k_max
    failures: list[str] = []
    for path, example in _method_examples(args, failures):
        if not example.contexts:
            _fail(failures, f"{path}: method {example.label!r} has no path-contexts")
            continue
        rng = example_rng(args.seed, 0)  # one draw, shared by top-k and --attention
        example = RawExample(example.label, sample_contexts(example.contexts, k_max, rng))
        encoded = encode_example(example, vocabs, k_max, rng, params.ablation)
        ranking = predict_topk(params, encoded, args.topk, vocabs)
        print(f"# {example.label}")
        for tag, prob in ranking:
            print(f"{tag} {prob:.6f}")
        if args.attention:
            _print_attention(params, example, encoded)
    return EXIT_DATA if failures else 0


def _print_attention(params, example, encoded) -> None:
    alpha = forward(params, encoded, mode="infer").alpha
    if alpha.ndim == 2:  # element-wise: report the per-context mean weight
        alpha = alpha.mean(axis=1)
    # Slot i holds context i: `example` holds only the contexts that fill the slots.
    for weight, ctx in sorted(zip(alpha, example.contexts), key=lambda pair: -pair[0]):
        print(f"  {weight:.4f} {format_context(ctx)}")


def cmd_eval(args) -> int:
    params, vocabs = load_model(args.model)
    dataset = load_dataset(args.input)
    per_example = [] if args.per_example else None
    metrics = evaluate(params, dataset, vocabs, seed=args.seed, per_example=per_example)
    print(metrics.summary())
    if args.per_example:
        with open(args.per_example, "w", encoding="utf-8") as handle:
            for true, predicted, tp, fp, fn in per_example:
                handle.write(f"{true}\t{predicted}\t{tp}\t{fp}\t{fn}\n")
    return 0


def cmd_query(args) -> int:
    """`nearest`, `combine` or `analogy`: the table method of that name."""
    params, vocabs = load_model(args.model)
    query = getattr(NameVectorTable.from_params(params, vocabs), args.command)
    ranking = query(*(getattr(args, name) for name in args.names), args.topk)
    for rank, (tag, score) in enumerate(ranking, start=1):
        print(f"{rank} {tag} {score:.6f}")
    return 0


def _add_limits(parser) -> None:
    parser.add_argument("--max-length", type=_positive_int, default=8)
    parser.add_argument("--max-width", type=_non_negative_int, default=2)


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
    p.add_argument("--dim", type=_positive_int, default=128)
    p.add_argument("--kmax", default=200, type=_checked(
        int, lambda v: 1 <= v <= MAX_SLOTS, f">= 1 and <= {MAX_SLOTS}"))
    p.add_argument("--dropout", type=_checked(float, lambda v: 0 <= v < 1, "in [0, 1)"),
                   default=0.25)
    p.add_argument("--lr", type=_checked(float, lambda v: 0 < v < math.inf,
                                         "finite and > 0"), default=1e-3)
    p.add_argument("--batch", type=_positive_int, default=32)
    p.add_argument("--epochs", type=_positive_int, default=20)
    p.add_argument("--patience", type=_positive_int, default=3)
    p.add_argument("--variant", choices=[v.value for v in AttentionVariant],
                   default="soft")
    p.add_argument("--ablation", choices=sorted(ABLATIONS), default="full")
    p.add_argument("--seed", type=_non_negative_int, default=1)
    p.add_argument("--checkpoints", action="store_true",
                   help="also save a .ckpt-<epoch> model after each epoch")
    p.add_argument("--max-values", type=_positive_int, default=50_000)
    p.add_argument("--max-paths", type=_positive_int, default=50_000)
    p.add_argument("--max-tags", type=_positive_int, default=10_000)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict names for methods in input files")
    p.add_argument("--model", required=True)
    p.add_argument("inputs", nargs="+")
    p.add_argument("--topk", type=_positive_int, default=5)
    p.add_argument("--attention", action="store_true",
                   help="print per-context attention weights, descending")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    _add_limits(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="evaluate a model over a dataset file")
    p.add_argument("--model", required=True)
    p.add_argument("input")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--per-example", help="write per-example TSV to this path")
    p.set_defaults(func=cmd_eval)

    for command, names, summary in (
            ("nearest", ("name",), "nearest names by cosine similarity"),
            ("combine", ("name_a", "name_b"), "names most similar to two names combined"),
            ("analogy", ("a", "b", "c"), "a - b + c name analogy")):
        p = sub.add_parser(command, help=summary)
        p.add_argument("--model", required=True)
        for name in names:  # one positional each: argparse's usage errors stay plain
            p.add_argument(name)
        p.add_argument("--topk", type=_positive_int, default=10)
        p.set_defaults(func=cmd_query, names=names)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingError as exc:
        print(f"codevec: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CodevecError, OSError, ValueError) as exc:
        print(f"codevec: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
