"""Smoke test of the benchmark itself (about 15 s).

    python3 bench/smoke.py

Runs a tiny job list (one job of each kind) untraced and traced and checks:
every end-to-end and per-layer metric of BENCHMARK.json is emitted with
its unit; every job passes its check and the traced reports equal the
untraced ones; a tampered report is caught and raises failed_frac above 0;
and the benchmark refuses to run, without printing a result, in a copy that
holds only BENCHMARK.json and bench/.
"""

import json
import shutil
import subprocess
import sys
import time

import run

sys.path.insert(0, str(run.ROOT / "src"))
from workloads import Job  # noqa: E402

TINY = [
    Job("verify", ("verify", "zoo:divergence", "--N", "8", "--p", "2", "--trials", "2",
                   "--seed", "1")),
    Job("identity", identity=("gradient", 8, 1, 1)),
    Job("minimality", ("minimality", "zoo:divergence", "--N", "8", "--trials", "1",
                       "--kernel-trials", "2", "--seed", "1")),
    Job("analyze", ("analyze", "zoo:d1d2", "--samples", "100", "--seed", "1")),
    Job("counterexample", ("counterexample", "zoo:d1d2", "--N", "32", "--rungs", "3",
                           "--factor", "2", "--seed", "1")),
]


def expect(ok: bool, what: str, failures: list) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def main() -> int:
    failures = []
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + 120

    plain = run.run_pass(TINY, 0, deadline)
    values, _ = run.end_to_end_metrics(plain)
    expect(all(not r["problems"] for r in plain), "every tiny job passes its check", failures)
    emitted = {name: unit for name, unit in run.END_TO_END.items() if name in values}
    wanted = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    expect(emitted == wanted, "end-to-end metrics and units match BENCHMARK.json", failures)
    expect(all(values[name] > 0 for name in wanted), "no end-to-end metric is 0", failures)

    traced = run.run_pass(TINY, 0, deadline, traced=True)
    pairs = [(plain, traced)]
    run.check_trace_pairs(pairs)
    expect(all(not r["problems"] for r in traced),
           "traced jobs pass and their reports equal the untraced ones", failures)
    layers = {name: unit for name, (_, unit) in run.per_layer_metrics(pairs).items()}
    wanted = {m["name"]: m["unit"] for m in declared["per_layer"]}
    expect(layers == wanted, "per-layer metrics and units match BENCHMARK.json", failures)

    outcome = run.run_job(TINY[0])
    doc = json.loads(outcome["result"]["report"])
    doc["records"][0]["ratio"] = doc["max_ratio"] = 1.5
    outcome["result"]["report"] = json.dumps(doc)
    tampered = run.make_record(TINY[0], outcome, 0, False, None)
    values, notes = run.end_to_end_metrics(plain[1:] + [tampered])
    expect(bool(tampered["problems"]) and notes["failed_frac"] > 0 and values["passed_frac"] < 1,
           f"a tampered report fails its check ({'; '.join(tampered['problems'])})", failures)

    bare = run.BENCH / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ratio-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the package sources the benchmark exits non-zero and prints no result",
           failures)

    print(f"{len(failures)} smoke check(s) failed" if failures else "smoke test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
