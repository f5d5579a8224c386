"""Command line entry points.

Subcommands: sample, classify, experiment, enumerate, count, rntable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import counting, experiment, reference, terms
from .classical import NOT_TAUTOLOGY
from .sampling import random_canonical, stream_for_sample


def _add_seed(parser, default=experiment.DEFAULT_SEED):
    parser.add_argument("--seed", type=int, default=default,
                        help=f"base seed for the per-sample streams (default {default})")


def _cmd_count(args) -> int:
    n = args.n
    total = counting.count_canonical(n)
    row = (f"{n},{counting.catalan(n - 1)},{counting.bell(n)},{total},"
           f"{repr(counting.log10_count_estimate(n)) if n >= 2 else ''}")
    print("n,catalan,bell,total,log10Estimate")
    print(row)
    return 0


def _check_writable(*paths) -> None:
    """Fail before any sample is drawn when an output file cannot be opened;
    a file the probe creates is removed, so a rejected run leaves none."""
    for path in paths:
        if path:
            existed = os.path.exists(path)
            try:
                open(path, "a", encoding="utf-8").close()
            except OSError as exc:
                raise ValueError(f"cannot write {path}: {exc.strerror}") from None
            if not existed:
                os.remove(path)


def _cmd_sample(args) -> int:
    if args.count < 1:
        raise ValueError("count must be at least 1")
    for index in range(args.count):
        term = random_canonical(stream_for_sample(args.seed, index), args.n)
        if args.format == "json":
            print(json.dumps(terms.to_json_obj(term), separators=(",", ":")))
        else:
            print(terms.render(term))
    return 0


def _cmd_classify(args) -> int:
    try:
        term = terms.parse(args.expr, canonical=not args.canonicalize)
    except terms.CanonicalityError as exc:
        raise ValueError(f"{exc}, or pass --canonicalize") from None
    if args.canonicalize:
        term = terms.canonical_form(term)
    cls = experiment.classify(term)
    payload = {"expr": terms.render(term)}
    payload.update(cls.as_record())
    payload["cleaned"] = terms.render(cls.verdict.cleaned)
    if args.witness and cls.taut.status == NOT_TAUTOLOGY:
        payload["witness"] = {f"a{v}": value
                              for v, value in sorted(cls.taut.witness.items())}
    if args.json:
        print(json.dumps(payload, separators=(",", ":")))
    else:
        for key, value in payload.items():
            if key == "witness":
                print(f"{key}: {json.dumps(value, separators=(',', ':'))}")
            else:
                print(f"{key}: {value}")
    return 0


def _cmd_enumerate(args) -> int:
    for index, term in enumerate(reference.enumerate_canonical(args.n)):
        record = {"index": index, "expr": terms.render(term)}
        if args.classify:
            record.update(experiment.classify(term).as_record())
        print(json.dumps(record, separators=(",", ":")))
    return 0


def _cmd_experiment(args) -> int:
    cfg = experiment.ExperimentConfig(
        n=args.n, count=args.count, seed=args.seed, workers=args.workers,
        dump_jsonl=args.dump_jsonl)
    _check_writable(args.out_csv, args.dump_jsonl)
    report = experiment.run_experiment(cfg)
    text = experiment.emit_report(report, out_csv=args.out_csv,
                                  dump_jsonl=args.dump_jsonl, timing=args.timing)
    print(text, end="")
    return 0


def _cmd_rntable(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    if not sizes:
        raise ValueError("rntable needs at least one size")
    _check_writable(args.out_csv)
    text = experiment.rn_table(sizes, args.count, args.seed, args.workers)
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canex",
        description="Uniform random canonical implicative expressions and "
                    "their intuitionistic/classical classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact and asymptotic counts for one size")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("sample", help="print uniformly sampled expressions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    _add_seed(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("classify", help="classify one expression")
    p.add_argument("--expr", required=True, help="expression text, e.g. 'a1->a0->a0'")
    p.add_argument("--canonicalize", action="store_true",
                   help="renumber foreign variable numberings instead of rejecting them")
    p.add_argument("--witness", action="store_true",
                   help="include a falsifying valuation when there is one")
    p.add_argument("--json", action="store_true", help="emit one JSON object")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="stream every expression of one size as JSONL")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--classify", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("experiment", help="sample, classify, and aggregate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    _add_seed(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--dump-jsonl", default=None)
    p.add_argument("--timing", action="store_true",
                   help="put wall time in the CSV (off keeps bytes reproducible)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("rntable", help="simple rate against log(n)/n over several sizes")
    p.add_argument("--sizes", default="25,50,100,500,1000")
    p.add_argument("--count", type=int, default=10000)
    _add_seed(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=_cmd_rntable)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
