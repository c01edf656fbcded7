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

Exit codes: 0 success, 1 input error, bad path or out of memory, 3 analyze
found NonConstantRank, 4 counterexample requested for an operator without
rank drops, 5 the configured check failed (blow-up factor not reached, or a
minimality comparison lost).
"""

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .experiments import (CONTEXT_WITNESS_FAMILY, TrialRecord, WitnessConfig,
                          assemble_report, build_frequency_ladder, estimate_ratio,
                          l2_minimality_check, ratio_sweep, witness_family)
from .operators import Operator, parse_operator
from .pinv import DEFAULT_TOL
from .rank import (DegenerateWitnessError, Verdict, daggerbound_check,
                   find_rank_drop_witness, rank_profile)
from .spectral import Grid, _kernel_projector_table, _random_coefficients
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


def _emit(doc: dict, args) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text)


def _write_csv(report, args) -> None:
    path = getattr(args, "csv", None)
    if path:
        Path(path).write_text("\n".join(report.csv_rows()) + "\n")


def cmd_analyze(args) -> int:
    op = _load_operator(args.source)
    profile = rank_profile(op, num_samples=args.samples, tol=args.tol, seed=args.seed)
    doc = profile.to_dict()
    doc.update(n=op.n, k=op.k, dim_v=op.dim_v, dim_w=op.dim_w)
    doc["parameters"] = {"samples": args.samples, "seed": args.seed, "tol": args.tol}
    notes = [SAMPLING_CAVEAT]
    if profile.verdict is Verdict.NON_CONSTANT_RANK:
        notes.append("rank drops on the sphere: the derivative recovery estimate "
                     "fails along witness families near the drop directions")
        try:
            witness = find_rank_drop_witness(op, profile, args.tol)
            bound = daggerbound_check(op, witness, args.tol)
            doc["witness"] = witness.to_dict()
            doc["daggerbound"] = {"lhs": bound.lhs, "rhs": bound.rhs, "holds": bound.holds}
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
    report = ratio_sweep(op, p=args.p, trials=args.trials, grid_sizes=[args.N],
                         max_freq=args.max_freq, seed=args.seed, tol=args.tol)
    profile = rank_profile(op, tol=args.tol, seed=args.seed)
    report = dataclasses.replace(report, verdict=profile.verdict.value)
    doc = report.to_dict()
    notes = [DOMAIN_NOTE, SAMPLING_CAVEAT]
    if profile.verdict is Verdict.NON_CONSTANT_RANK:
        notes.append("random fields rarely concentrate near rank drops; "
                     "use the counterexample command to exhibit unbounded ratios")
    if args.p in (1.0, math.inf):
        notes.append(ENDPOINT_NOTE)
    doc["notes"] = notes
    _emit(doc, args)
    _write_csv(report, args)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    if not (math.isfinite(args.factor) and args.factor > 0):
        raise ValueError("--factor must be a finite number greater than 0")
    op = _load_operator(args.source)
    profile = rank_profile(op, tol=args.tol, seed=args.seed)
    if profile.verdict is not Verdict.NON_CONSTANT_RANK:
        _emit({"operator": op.name, "verdict": profile.verdict.value,
               "message": "no rank drop - no counterexample expected"}, args)
        return EXIT_NO_RANK_DROP
    witness = find_rank_drop_witness(op, profile, args.tol)
    ladder = build_frequency_ladder(op, witness.xi_low, rungs=args.rungs)
    cfg = WitnessConfig(frequencies=tuple(ladder), window=args.window)
    grid = Grid(op.n, args.N)
    # the table lookup refuses an oversized grid before any witness is built
    _kernel_projector_table(op, grid, float(args.tol))
    fields = witness_family(op, cfg, grid, tol=args.tol)
    records = []
    for index, (freq, phi) in enumerate(zip(ladder, fields)):
        label = "xi=[" + " ".join(str(x) for x in freq) + "]"
        records.append(TrialRecord(index=index, grid_size=args.N, detail=label,
                                   ratio=estimate_ratio(op, phi, args.p, args.tol)))
    growth = records[-1].ratio / records[0].ratio
    report = assemble_report(
        operator=op.name, context=CONTEXT_WITNESS_FAMILY, p=args.p,
        grid_sizes=[args.N], trials=len(records), seed=args.seed, records=records,
        verdict=profile.verdict.value,
        parameters={"rungs": args.rungs, "factor": args.factor, "tol": args.tol,
                    "window": args.window})
    doc = report.to_dict()
    doc["witness"] = witness.to_dict()
    doc["ladder"] = [list(freq) for freq in ladder]
    doc["growth"] = growth
    doc["notes"] = [DOMAIN_NOTE]
    if args.p in (1.0, math.inf):
        doc["notes"].append(ENDPOINT_NOTE)
    _emit(doc, args)
    _write_csv(report, args)
    if growth >= args.factor:
        return EXIT_OK
    return EXIT_CHECK_FAILED


def cmd_minimality(args) -> int:
    op = _load_operator(args.source)
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    grid = Grid(op.n, args.N)
    # the table lookup refuses an oversized grid before any field is drawn
    _kernel_projector_table(op, grid, float(args.tol))
    results = []
    for trial in range(args.trials):
        phi = _random_coefficients(grid, op.dim_v, grid.size // 4, seed=[args.seed, trial])
        ok = l2_minimality_check(op, phi, kernel_trials=args.kernel_trials,
                                 seed=args.seed, tol=args.tol)
        results.append({"trial": trial, "pass": ok})
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
            cmd.add_argument("--seed", type=int, default=0, help="base random seed")
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
