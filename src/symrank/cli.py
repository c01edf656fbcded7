"""Command line interface.

Commands:

  analyze         classify an operator by symbol rank on the unit sphere
  verify          estimate-ratio sweep over seeded random band-limited fields
  counterexample  ratio ladder along a rank-drop direction
  minimality      L2 minimality spot check for the kernel projection
  zoo             list the built-in operators

An operator source is either ``zoo:<name>`` or a path to a JSON operator
document (see the operators module docstring for the format).  Reports are
JSON with sorted keys; repeated invocations with the same inputs produce
byte-identical output.

Exit codes: 0 success, 1 input error, bad path or out of memory, 2 usage
error (an unknown command or option, or an option value argparse rejects,
such as --p 0.5, --N abc or --seed -1), 3 analyze found NonConstantRank, 4
counterexample requested for an operator without rank drops, 5 the
configured check failed (blow-up factor not reached, or a minimality
comparison lost).
"""

import argparse
import json
import math
import sys
from pathlib import Path

from .experiments import (_MAX_RUNGS, CONTEXT_WITNESS_FAMILY, _ladder_ratios, _minimality_trials,
                          _report, build_frequency_ladder, ratio_sweep)
from .operators import Operator, parse_operator
from .pinv import DEFAULT_TOL, _check_int
from .rank import (DegenerateWitnessError, Verdict, _check_samples, daggerbound_check,
                   find_rank_drop_witness, rank_profile)
from .zoo import UnknownOperatorError, zoo_get, zoo_list

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NON_CONSTANT_RANK = 3
EXIT_NO_RANK_DROP = 4
EXIT_CHECK_FAILED = 5

DOMAIN_NOTE = ("ratios are measured on the periodic domain [0, 2*pi)^n "
               "with band-limited fields")
SAMPLING_CAVEAT = ("ConstantRank and Elliptic verdicts are sampling-based; "
                   "only NonConstantRank verdicts carry a certificate")
ENDPOINT_NOTE = ("constant rank does not give the L^p estimate at p = 1 (Ornstein 1962) "
                 "or p = inf (by duality), so a bounded max_ratio at this p is not evidence for it")


def _load_operator(source: str) -> Operator:
    if source.startswith("zoo:"):
        return zoo_get(source[len("zoo:"):])
    try:
        text = Path(source).read_text()
    except OSError as exc:
        raise ValueError(f"{source}: {exc}") from exc
    return parse_operator(text)


def _parse_p(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not value >= 1.0:
        raise argparse.ArgumentTypeError("p must satisfy p >= 1 (use 'inf' for the sup norm)")
    return value


def _parse_seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("seed must be a non-negative integer")
    return int(text)


def _emit(doc: dict, args) -> None:
    """Write doc's records to --csv, then doc to --out, then to stdout.

    The files come first, so a path that cannot be written exits 1 with
    nothing on stdout.  A document without records, such as counterexample's
    "no rank drop", writes no --csv file.
    """
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if "records" in doc and args.csv:
        rows = ["index,grid_size,detail,ratio"] + [
            "{index},{grid_size},{detail},{ratio!r}".format(**r) for r in doc["records"]]
        Path(args.csv).write_text("\n".join(rows) + "\n")
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)


def cmd_analyze(args) -> int:
    op = _load_operator(args.source)
    _check_samples(op.n, args.samples, "--samples")
    profile = rank_profile(op, num_samples=args.samples, tol=args.tol, seed=args.seed)
    doc = profile.to_dict()
    doc.update(n=op.n, k=op.k, dim_v=op.dim_v, dim_w=op.dim_w)
    doc["parameters"] = {"samples": args.samples, "seed": args.seed, "tol": args.tol}
    notes = [SAMPLING_CAVEAT]
    if profile.verdict is Verdict.NON_CONSTANT_RANK:
        notes.append("rank drops on the sphere: the derivative recovery estimate "
                     "fails along witness families near the drop directions")
        try:
            witness = find_rank_drop_witness(op, profile)
            doc.update(witness=witness.to_dict(), daggerbound=daggerbound_check(op, witness))
        except DegenerateWitnessError as exc:
            doc["witness"] = None
            notes.append(f"witness extraction failed: {exc}")
    doc["notes"] = notes
    _emit(doc, args)
    if profile.verdict is Verdict.NON_CONSTANT_RANK:
        return EXIT_NON_CONSTANT_RANK
    return EXIT_OK


def cmd_verify(args) -> int:
    op = _load_operator(args.source)
    doc = ratio_sweep(op, p=args.p, trials=args.trials, size=args.N,
                      max_freq=args.max_freq, seed=args.seed, tol=args.tol)
    profile = rank_profile(op, tol=args.tol, seed=args.seed)
    doc["verdict"] = profile.verdict.value
    notes = [DOMAIN_NOTE, SAMPLING_CAVEAT]
    if profile.verdict is Verdict.NON_CONSTANT_RANK:
        notes.append("random fields rarely concentrate near rank drops; "
                     "use the counterexample command to exhibit unbounded ratios")
    if args.p in (1.0, math.inf):
        notes.append(ENDPOINT_NOTE)
    doc["notes"] = notes
    _emit(doc, args)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    """The ratio ladder along a rank-drop direction, one rung per frequency (_ladder_ratios).

    --factor, --rungs and --window are checked before the sphere sweep, so
    an invalid one exits 1 whatever the operator (past 52 rungs a rung has
    no exact float64 frequency).
    """
    if not (math.isfinite(args.factor) and args.factor > 0):
        raise ValueError("--factor must be a finite number greater than 0")
    _check_int(args.rungs, "--rungs", high=_MAX_RUNGS)
    if args.window is not None and not 0.0 < args.window <= 1.0:
        raise ValueError("--window must lie in (0, 1]")
    op = _load_operator(args.source)
    profile = rank_profile(op, tol=args.tol, seed=args.seed)
    if profile.verdict is not Verdict.NON_CONSTANT_RANK:
        _emit({"operator": op.name, "verdict": profile.verdict.value,
               "message": "no rank drop - no counterexample expected"}, args)
        return EXIT_NO_RANK_DROP
    witness = find_rank_drop_witness(op, profile)
    ladder = build_frequency_ladder(op, witness, rungs=args.rungs)
    ratios = _ladder_ratios(op, ladder, args.N, args.window, args.p, args.tol)
    details = ["xi=[" + " ".join(str(x) for x in freq) + "]" for freq in ladder]
    doc = _report(op.name, CONTEXT_WITNESS_FAMILY, args.p, args.N, args.seed, ratios, details,
                  parameters={"rungs": args.rungs, "factor": args.factor, "tol": args.tol,
                              "window": args.window})
    doc.update(verdict=profile.verdict.value, witness=witness.to_dict(),
               ladder=[list(freq) for freq in ladder], growth=ratios[-1] / ratios[0],
               notes=[DOMAIN_NOTE])
    if args.p in (1.0, math.inf):
        doc["notes"].append(ENDPOINT_NOTE)
    _emit(doc, args)
    if doc["growth"] >= args.factor:
        return EXIT_OK
    return EXIT_CHECK_FAILED


def cmd_minimality(args) -> int:
    """The minimality spot check on random fields (_minimality_trials).

    --trials and --kernel-trials are checked before the operator is loaded,
    so an empty count exits 1 with its own message on any grid.
    """
    _check_int(args.trials, "--trials")
    _check_int(args.kernel_trials, "--kernel-trials")
    op = _load_operator(args.source)
    outcomes = _minimality_trials(op, args.N, args.trials, args.kernel_trials, args.seed, args.tol)
    results = [{"trial": trial, "pass": ok} for trial, ok in enumerate(outcomes)]
    all_pass = all(r["pass"] for r in results)
    _emit({"operator": op.name, "context": "Minimality", "grid_size": args.N,
           "trials": args.trials, "kernel_trials": args.kernel_trials,
           "seed": args.seed, "tol": args.tol, "results": results,
           "all_pass": all_pass, "notes": [DOMAIN_NOTE]}, args)
    if all_pass:
        return EXIT_OK
    return EXIT_CHECK_FAILED


def cmd_zoo(args) -> int:
    rows = []
    for entry in zoo_list():
        op = entry.build()
        rows.append({"name": entry.name, "n": op.n, "k": op.k,
                     "dim_v": op.dim_v, "dim_w": op.dim_w,
                     "expected_verdict": entry.expected_verdict.value,
                     "expected_rank": entry.expected_rank})
    _emit({"operators": rows}, args)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symrank",
        description="classify linear constant-coefficient differential operators by "
                    "symbol rank and check the derivative recovery estimate numerically")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, func, help_text, source=True):
        cmd = sub.add_parser(name, help=help_text,
                             formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        if source:
            cmd.add_argument("source",
                             help="zoo:<name> or path to a JSON operator document")
            cmd.add_argument("--seed", type=_parse_seed, default=0, help="base random seed")
            cmd.add_argument("--tol", type=float, default=DEFAULT_TOL,
                             help="relative singular value cutoff")
        cmd.add_argument("--out", metavar="PATH",
                         help="also write the JSON report to this file")
        cmd.set_defaults(func=func)
        return cmd

    cmd = add("analyze", cmd_analyze, "classify by symbol rank on the sphere")
    cmd.add_argument("--samples", type=int, default=1024,
                     help="random sphere directions (axes and diagonals are always included)")

    cmd = add("verify", cmd_verify, "measure estimate ratios on random fields")
    cmd.add_argument("--p", type=_parse_p, default=2.0, help="Lebesgue exponent (or 'inf')")
    cmd.add_argument("--N", type=int, default=32, help="grid points per axis")
    cmd.add_argument("--trials", type=int, default=20, help="random fields to measure")
    cmd.add_argument("--max-freq", type=int, default=None,
                     help="band limit for the random fields (default: N/4)")
    cmd.add_argument("--csv", metavar="PATH", help="write per-trial rows to this file")

    cmd = add("counterexample", cmd_counterexample,
              "drive the ratio up along a rank-drop frequency ladder")
    cmd.add_argument("--p", type=_parse_p, default=2.0, help="Lebesgue exponent (or 'inf')")
    cmd.add_argument("--N", type=int, default=64, help="grid points per axis")
    cmd.add_argument("--rungs", type=int, default=4, help="ladder length")
    cmd.add_argument("--factor", type=float, default=4.0,
                     help="required growth of last/first ratio")
    cmd.add_argument("--window", type=float, default=None,
                     help="bump window width in (0, 1] (default: exact single modes)")
    cmd.add_argument("--csv", metavar="PATH", help="write per-rung rows to this file")

    cmd = add("minimality", cmd_minimality, "check that the kernel projection "
              "minimizes the L2 derivative distance")
    cmd.add_argument("--N", type=int, default=16, help="grid points per axis")
    cmd.add_argument("--trials", type=int, default=10, help="test fields")
    cmd.add_argument("--kernel-trials", type=int, default=20,
                     help="kernel competitors per test field")

    add("zoo", cmd_zoo, "list built-in operators", source=False)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, UnknownOperatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
