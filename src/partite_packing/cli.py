"""Command-line front end: instance generation, structural detection,
solving, packing verification, and the boundary harness.

All randomness goes through --seed; thresholds are exact rationals written
as "num/den" strings; output JSON is stable-ordered.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

from .graphs import (blow_up, build_gamma, complete_multipartite,
                     graph_from_json, graph_to_json, packing_from_json,
                     packing_to_json)
from .oracle import random_min_degree_graph, verify_theorem_boundary
from .pipeline import PipelineParams, solve
from .structure import (diagnose_barriers, divisibility_barrier_graph,
                        space_barrier_graph)


def _rational(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {e}") from e


def _write_atomic(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text + "\n")
        return
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_graph(path: str):
    with open(path) as fh:
        return graph_from_json(fh.read())


def cmd_gen(args) -> int:
    if args.kind == "gamma":
        gam = build_gamma(args.n, args.r, args.k)
        _write_atomic(args.output, graph_to_json(gam.graph, gam.subparts))
    elif args.kind == "random":
        g = random_min_degree_graph(args.r, args.n, args.k, args.seed,
                                    delete_prob=args.delete_prob)
        _write_atomic(args.output, graph_to_json(g))
    elif args.kind == "complete":
        _write_atomic(args.output,
                      graph_to_json(complete_multipartite([args.n] * args.r)))
    elif args.kind == "blowup":
        if args.input is None:
            raise ValueError("gen blowup needs --input")
        g, labels = _read_graph(args.input)
        _write_atomic(args.output, graph_to_json(blow_up(g, args.factor)))
    elif args.kind == "barrier":
        if args.barrier == "space":
            g, planted = space_barrier_graph(args.r, args.k, args.n, args.j)
            doc = json.loads(graph_to_json(g))
            doc["planted_space_set"] = planted
            _write_atomic(args.output, json.dumps(doc, sort_keys=True))
        else:
            g, labeling = divisibility_barrier_graph(args.r, args.n)
            _write_atomic(args.output, graph_to_json(g, labeling))
    else:
        raise argparse.ArgumentTypeError(f"unknown kind {args.kind}")
    return 0


def cmd_detect(args) -> int:
    g, _ = _read_graph(args.input)
    sizes = set(g.class_sizes)
    if len(sizes) != 1:
        raise ValueError("classes must have equal size")
    size = g.class_sizes[0]
    p = args.p
    if p is None:
        p = 2 if size % 2 == 0 else 1
    if p < 1 or size % p:
        raise ValueError(f"weight {p} is not a positive divisor of the class "
                         f"size {size}")
    report = diagnose_barriers(g, p, d=args.threshold_d,
                               beta=args.threshold_beta, mu_count=args.mu_count,
                               floor=args.floor, seed=args.seed)
    _write_atomic(args.output, json.dumps(report, sort_keys=True))
    return 0


def _solve_result_json(res) -> str:
    doc = {"status": res.status, "stages": res.stages,
           "diagnosis": res.diagnosis}
    if res.packing is not None:
        doc["packing"] = json.loads(packing_to_json(res.packing))
    return json.dumps(doc, sort_keys=True, default=str)


def cmd_solve(args) -> int:
    g, _ = _read_graph(args.input)
    res = solve(g, args.k, PipelineParams(budget=args.budget, seed=args.seed))
    _write_atomic(args.output, _solve_result_json(res))
    return {"packed": 0, "extremal": 2, "diagnosis": 3}[res.status]


def cmd_verify(args) -> int:
    g, _ = _read_graph(args.graph)
    with open(args.packing) as fh:
        packing = packing_from_json(fh.read())
    problems = packing.verify(g, perfect=not args.partial)
    doc = {"ok": not problems, "violations": problems}
    _write_atomic(args.output, json.dumps(doc, sort_keys=True))
    return 0 if not problems else 1


def cmd_harness(args) -> int:
    if args.exhaustive:
        sample = ("exhaustive",)
    else:
        sample = ("random", args.sample, args.seed)
    report = verify_theorem_boundary(args.r, args.k, args.n, sample,
                                     budget=args.budget)
    _write_atomic(args.output, json.dumps(report, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="partite-packing",
        description="perfect clique packings in balanced multipartite graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("kind",
                     choices=["gamma", "random", "complete", "blowup", "barrier"])
    gen.add_argument("--n", type=int, default=3)
    gen.add_argument("--r", type=int, default=3)
    gen.add_argument("--k", type=int, default=3)
    gen.add_argument("--j", type=int, default=1, help="space barrier depth")
    gen.add_argument("--barrier", choices=["space", "divisibility"],
                     default="divisibility")
    gen.add_argument("--factor", type=int, default=2, help="blow-up factor")
    gen.add_argument("--delete-prob", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--input", help="input graph (blowup)")
    gen.add_argument("--output", "-o", default="-")
    gen.set_defaults(func=cmd_gen)

    det = sub.add_parser("detect", help="diagnose structural obstructions")
    det.add_argument("--input", required=True)
    det.add_argument("--p", type=int, default=None, help="row weight")
    det.add_argument("--threshold-d", type=_rational, default=Fraction(1, 4))
    det.add_argument("--threshold-beta", type=_rational, default=Fraction(0),
                     help="allowed fraction of cliques violating a space set")
    det.add_argument("--mu-count", type=int, default=1)
    det.add_argument("--floor", type=int, default=None)
    det.add_argument("--seed", type=int, default=0)
    det.add_argument("--output", "-o", default="-")
    det.set_defaults(func=cmd_detect)

    sol = sub.add_parser("solve", help="find a perfect clique packing")
    sol.add_argument("--input", required=True)
    sol.add_argument("--k", type=int, required=True)
    sol.add_argument("--budget", type=int, default=2_000_000)
    sol.add_argument("--seed", type=int, default=0)
    sol.add_argument("--output", "-o", default="-")
    sol.set_defaults(func=cmd_solve)

    ver = sub.add_parser("verify", help="check a packing against its graph")
    ver.add_argument("--packing", required=True)
    ver.add_argument("--graph", required=True)
    ver.add_argument("--partial", action="store_true",
                     help="do not require the packing to be spanning")
    ver.add_argument("--output", "-o", default="-")
    ver.set_defaults(func=cmd_verify)

    har = sub.add_parser("harness", help="boundary verification sweep")
    har.add_argument("--r", type=int, required=True)
    har.add_argument("--k", type=int, required=True)
    har.add_argument("--n", type=int, required=True)
    har.add_argument("--sample", type=int, default=100)
    har.add_argument("--seed", type=int, default=0)
    har.add_argument("--exhaustive", action="store_true")
    har.add_argument("--budget", type=int, default=2_000_000)
    har.add_argument("--output", "-o", default="-")
    har.set_defaults(func=cmd_harness)
    return ap


# (option, least, greatest or None) for the options whose domain argparse
# does not check; a command without the option skips its entry
_RANGES = (("threshold_d", 0, 1), ("threshold_beta", 0, 1),
           ("delete_prob", 0, 1), ("budget", 1, None), ("sample", 1, None))


def _check_ranges(args) -> None:
    for name, lo, hi in _RANGES:
        value = getattr(args, name, None)
        if value is not None and (value < lo or hi is not None and value > hi):
            domain = f"in [{lo}, {hi}]" if hi is not None else f"at least {lo}"
            raise ValueError(f"--{name.replace('_', '-')} must be {domain}, "
                             f"got {value}")


def main(argv=None) -> int:
    """Run one command.  A file that cannot be read or written, an option
    outside its domain and a value the command rejects end in `error: ...`
    on stderr and exit status 1."""
    args = build_parser().parse_args(argv)
    try:
        _check_ranges(args)
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
