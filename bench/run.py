"""symrank job benchmark.

    python3 bench/run.py --workload ratio-sweep --seed 0 --seconds 40 --trace 0

Runs the seeded job list of one workload (see bench/workloads.py) as a
closed loop with one client: each job is one fresh `python3 bench/child.py`
process, started after the previous one has ended.  A run makes
--seconds // PASS_S whole passes over the list (at least one), where
PASS_S is the time one pass took on the reference machine, so a run
measures about --seconds there and always the same jobs (fewer passes
only when the machine runs more than 10% slower than that).
Every job's output is checked; the last stdout line is one JSON object with
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics:
  jobs_per_s    jobs attempted / summed job seconds (timed around cli.main
                or the library call inside the child)
  job_s_p50     median job seconds
  job_s_tail    job seconds with exactly ten jobs beyond it, the highest
                percentile that has ten samples beyond it (stated in the log)
  setup_s       median from process spawn to `import symrank.cli` done
  peak_rss_mb   largest peak RSS of any job process
  passed_frac   jobs that passed their check / jobs attempted, i.e.
                1 - failed_frac (a fraction that can be 0 is not a usable metric)

--trace 1 alternates an untraced and a traced pass and reports per-layer
metrics per traced pass from the spans the child records
(bench/tracing.py), plus trace.overhead_s, the traced pass's job seconds
minus the untraced pass's.  Each traced report must equal the untraced
report byte for byte.

The job listing (argv and field seeds) is printed and written, with every
job record, to bench/out/<workload>-seed<seed>-trace<t>/; each job can be
replayed with `python3 bench/child.py '<spec>'`.  On the default seed,
report numbers are also compared with bench/reference.json (regenerate it
with bench/record_reference.py only in a change that edits the benchmark).
All three workloads:

    for w in ratio-sweep checks-n16 rank-ladder; do
        python3 bench/run.py --workload $w --seed 0 --seconds 40 --trace 0; done
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

from tracing import TABLES, TRANSFORMS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_LIMIT_S = 150          # stop starting jobs after this, so a run ends well inside 180 s
OVERRUN = 1.1              # no pass may start that would end past this share of --seconds

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "fraction",
}

FIELD_FUNCTIONS = ("random_band_limited", "apply_A", "apply_PA", "apply_Dk", "lp_norm",
                   "apply_multiplier")


def _layer_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced pass, from the summed child summaries."""
    fn = summary["functions"]

    def calls(*names):
        return sum(fn.get(name, (0, 0.0))[0] for name in names)

    def self_s(*names):
        return sum(fn.get(name, (0, 0.0))[1] for name in names)

    ratio_calls = calls("experiments.estimate_ratio")
    decell_calls = calls("pinv.pinv_decell")
    cli = [name for name in fn if name.startswith("cli.")]
    out = {
        "rank.rank_profile.self_s": (self_s("rank.rank_profile"), "s"),
        "rank.find_rank_drop_witness.self_s": (self_s("rank.find_rank_drop_witness"), "s"),
        "operators.symbol_stack.calls": (calls("operators.symbol_stack"), "count"),
        "operators.symbol_stack.directions": (summary["symbol_stack_directions"], "count"),
        "operators.symbol_stack.self_s": (self_s("operators.symbol_stack"), "s"),
        "pinv.multiplier.calls": (calls("pinv.multiplier"), "count"),
        "pinv.multiplier.self_s": (self_s("pinv.multiplier"), "s"),
        "pinv.pinv_decell.calls": (decell_calls, "count"),
        "pinv.decell_fallback_ratio": (
            summary["decell_raises"] / decell_calls if decell_calls else 0.0, "fraction"),
        "operators.symbol.calls": (calls("operators.symbol"), "count"),
        "spectral.tables.self_s": (self_s(*TABLES), "s"),
        "spectral.tables.misses": (summary["table_misses"], "count"),
        "spectral.tables.hits": (summary["table_hits"], "count"),
        "spectral.tables.bytes": (summary["table_bytes"], "B"),
        "spectral.transform.calls": (calls(*TRANSFORMS), "count"),
        "spectral.transform.self_s": (self_s(*TRANSFORMS), "s"),
        "spectral.transform.points": (summary["transform_points"], "count"),
        "spectral.transform.bytes_computed": (summary["transform_bytes"], "B"),
        "spectral.transforms_per_ratio": (
            summary["transforms_in_ratio"] / ratio_calls if ratio_calls else 0.0, "1/call"),
    }
    for name in FIELD_FUNCTIONS:
        out[f"spectral.{name}.calls"] = (calls(f"spectral.{name}"), "count")
        out[f"spectral.{name}.self_s"] = (self_s(f"spectral.{name}"), "s")
    out.update({
        "experiments.estimate_ratio.calls": (ratio_calls, "count"),
        "experiments.estimate_ratio.self_s": (self_s("experiments.estimate_ratio"), "s"),
        "experiments.l2_minimality_check.self_s": (
            self_s("experiments.l2_minimality_check"), "s"),
        "experiments.witness_family.self_s": (self_s("experiments.witness_family"), "s"),
        # main and the cmd_* handlers: argparse, report assembly and JSON emission
        "cli.main.self_s": (self_s(*cli), "s"),
    })
    return out


def environment() -> dict:
    """Where the numbers come from; timings on a shared machine are noisy."""
    import numpy
    nproc = len(os.sched_getaffinity(0))
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "openblas_threads": _openblas_threads(numpy),
        "cpu": cpu,
        "note": (f"shared, noisy {nproc}-core box: compare medians only. Load is one job "
                 f"process at a time, with at most {nproc} threads (OpenBLAS)."),
    }


def _openblas_threads(numpy):
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def run_job(job, trace: bool = False, spans_path=None, timeout: float = 120.0) -> dict:
    """Run one job in a fresh child process; returns the child's result plus timings."""
    spec = dict(job.spec(), trace=trace, spans=str(spans_path) if spans_path else None)
    spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"result": None, "wall_s": time.monotonic() - spawn, "note": "timed out"}
    wall = time.monotonic() - spawn
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        return {"result": None, "wall_s": wall,
                "note": f"child exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    result["setup_s"] = result["t_ready"] - spawn
    return {"result": result, "wall_s": wall}


def make_record(job, outcome, pass_index, traced, reference) -> dict:
    """Check one job's outcome; reference holds the workload's recorded numbers, or None."""
    from workloads import KNOWN_DEFECTS, check
    result = outcome["result"]
    problems = check(job, result, None if reference is None else reference.get(job.id))
    if result is None:
        problems.append(outcome["note"])
    if reference is not None and job.id not in reference and job.id not in KNOWN_DEFECTS:
        problems.append("no reference numbers recorded for this job")
    record = {"id": job.id, "pass": pass_index, "traced": traced,
              "job_s": result["job_s"] if result else outcome["wall_s"],
              "problems": problems, "known_defect": KNOWN_DEFECTS.get(job.id)}
    if result:
        record.update(exit=result["exit"], setup_s=result["setup_s"],
                      import_s=result["import_s"], rss_mb=result["maxrss_kb"] / 1024.0,
                      report_sha256=sha256(result["report"].encode()).hexdigest(),
                      trace=result.get("trace"))
    return record


def run_pass(jobs, pass_index, deadline, traced=False, reference=None, out_dir=None):
    """One pass over the job list; stops early (returns None) when the run limit is hit."""
    records = []
    for index, job in enumerate(jobs):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return None
        spans = out_dir / "spans" / f"{index:02d}-{job.id}.jsonl" if traced and out_dir else None
        outcome = run_job(job, traced, spans, timeout=remaining)
        records.append(make_record(job, outcome, pass_index, traced, reference))
    return records


def _sum_summaries(records) -> dict:
    keys = ("transform_points", "transform_bytes", "transforms_in_ratio", "table_bytes",
            "symbol_stack_directions", "decell_raises")
    total = {"functions": {}, "table_hits": 0, "table_misses": 0, **dict.fromkeys(keys, 0)}
    for record in records:
        summary = record.get("trace")
        if not summary:
            continue
        for name, (calls, self_time) in summary["functions"].items():
            entry = total["functions"].setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_time
        total["table_hits"] += summary["tables"]["hits"]
        total["table_misses"] += summary["tables"]["misses"]
        for key in keys:
            total[key] += summary[key]
    return total


def end_to_end_metrics(records) -> tuple[dict, dict]:
    times = sorted(r["job_s"] for r in records)
    n = len(times)
    # exactly ten samples beyond the tail value; with fewer than eleven, the max
    tail_index = n - 11 if n >= 11 else n - 1
    setups = [r["setup_s"] for r in records if "setup_s" in r]
    rss = [r["rss_mb"] for r in records if "rss_mb" in r]
    failed = sum(1 for r in records if r["problems"])
    metrics = {
        "jobs_per_s": n / sum(times),
        "job_s_p50": statistics.median(times),
        "job_s_tail": times[tail_index],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss),
        "passed_frac": (n - failed) / n,
    }
    notes = {"jobs": n, "tail_percentile": 100.0 * (tail_index + 1) / n,
             "failed_frac": failed / n}
    return metrics, notes


def per_layer_metrics(pairs) -> dict:
    """Per-layer metrics over (untraced, traced) pass pairs.

    Counts come from the first traced pass (they repeat exactly, which is
    checked); times are medians over traced passes.
    """
    layers = [_layer_metrics(_sum_summaries(traced)) for _, traced in pairs]
    metrics = {}
    for name, (value, unit) in layers[0].items():
        if unit == "s":
            value = statistics.median(layer[name][0] for layer in layers)
        metrics[name] = (value, unit)
    imports = [r["import_s"] for plain, traced in pairs for r in plain + traced if "import_s" in r]
    metrics["process.import_s"] = (statistics.median(imports), "s")
    overhead = [sum(r["job_s"] for r in traced) - sum(r["job_s"] for r in plain)
                for plain, traced in pairs]
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    return metrics


def check_trace_pairs(pairs) -> None:
    """Mark traced jobs whose report bytes differ from the untraced run, and count drift."""
    first = None
    for plain, traced in pairs:
        plain_sha = {r["id"]: r.get("report_sha256") for r in plain}
        for record in traced:
            if record.get("report_sha256") != plain_sha.get(record["id"]):
                record["problems"].append("traced report bytes differ from the untraced run")
        counts = {k: v for k, (v, u) in _layer_metrics(_sum_summaries(traced)).items()
                  if u in ("count", "B")}
        if first is None:
            first = counts
        elif counts != first:
            changed = sorted(k for k in counts if counts[k] != first[k])
            traced[-1]["problems"].append(f"per-layer counts differ between passes: {changed}")


def load_reference(workload: str, seed: int):
    from workloads import DEFAULT_SEED
    if seed != DEFAULT_SEED:
        return None
    path = BENCH / "reference.json"
    return json.loads(path.read_text()).get(workload, {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "symrank" / "__init__.py").is_file():
        print(f"error: no symrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import PASS_S, WORKLOADS, jobs_for
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2

    jobs = jobs_for(args.workload, args.seed)
    reference = load_reference(args.workload, args.seed)
    out_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    (out_dir / "spans").mkdir(parents=True)
    env = environment()
    listing = [{"id": job.id, "command": job.describe(),
                "replay": f"python3 bench/child.py '{json.dumps(job.spec())}'"} for job in jobs]
    (out_dir / "jobs.json").write_text(json.dumps(listing, indent=1) + "\n")
    print("environment: " + json.dumps(env))
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs per pass")
    for entry in listing:
        print(f"  {entry['id']}: {entry['command']}")

    # a fixed pass count per --seconds keeps the job count, and so the tail
    # percentile, the same on every run; on a machine so slow that the next
    # pass would end past OVERRUN * --seconds the run stops early, and
    # RUN_LIMIT_S bounds a very slow program
    passes_wanted = max(1, int(args.seconds // PASS_S[args.workload]))
    if args.trace:
        passes_wanted = max(1, passes_wanted // 2)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes = []
    for index in range(passes_wanted):
        now = time.monotonic()
        if passes and now + (now - start) / len(passes) > start + OVERRUN * args.seconds:
            break
        if args.trace:
            plain = run_pass(jobs, index, deadline, reference=reference)
            traced = run_pass(jobs, index, deadline, True, out_dir=out_dir)
            done = None if plain is None or traced is None else (plain, traced)
        else:
            done = run_pass(jobs, index, deadline, reference=reference)
        if done is None:
            break
        passes.append(done)
    if not passes:
        print("error: not one pass completed within the run limit", file=sys.stderr)
        return 1
    if not any("setup_s" in r for done in passes for r in (done[0] if args.trace else done)):
        print("error: no job process reported a result", file=sys.stderr)
        return 1

    if args.trace:
        check_trace_pairs(passes)
        records = [r for plain, traced in passes for r in plain + traced]
        metrics = per_layer_metrics(passes)
    else:
        records = [r for done in passes for r in done]
        values, notes = end_to_end_metrics(records)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        print(f"{notes['jobs']} jobs in {len(passes)} passes, {time.monotonic() - start:.1f} s;"
              f" job_s_tail is "
              f"p{notes['tail_percentile']:.1f}; failed_frac {notes['failed_frac']:.4f}")
    failed = [r for r in records if r["problems"]]
    unexpected = [r for r in failed if not r["known_defect"]]
    for record in failed:
        label = f"known defect ({record['known_defect']})" if record["known_defect"] else "FAILED"
        print(f"  {label}: {record['id']} pass {record['pass']}: {'; '.join(record['problems'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    (out_dir / "records.json").write_text(json.dumps(
        {"environment": env, "passes": len(passes), "records": records,
         "metrics": {name: {"value": value, "unit": unit}
                     for name, (value, unit) in metrics.items()}}, indent=1) + "\n")
    # known defects count as failed but do not make the run incorrect
    print(json.dumps({"correct": not unexpected, "attempted": len(records), "failed": len(failed),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
