"""Run one benchmark job in this (fresh) process and print its result as one JSON line.

Usage: python3 bench/child.py '<job spec JSON>'

The spec holds either "argv" (a symrank command line, run through
symrank.cli.main with stdout captured as the report) or "identity" (the
multiplier identity check on one zoo operator).  "trace": true installs the
span tracer before the timed region; "spans" names a file for the spans.
Every job listed by bench/run.py can be replayed with this script.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

_import_start = time.perf_counter()
import symrank.cli  # noqa: E402  (the import is what set-up time measures)
from symrank import spectral, zoo  # noqa: E402

T_READY = time.monotonic()
IMPORT_S = time.perf_counter() - _import_start


def identity_check(operator: str, N: int, fields: int, seed: int) -> str:
    """apply_multiplier(A phi) against D^k(phi - P_A phi) on seeded band-limited fields.

    Names are looked up on the modules at call time so the tracer sees the calls.
    """
    op = zoo.zoo_get(operator)
    grid = spectral.Grid(op.n, N)
    errors = []
    norms = []
    for field in range(fields):
        phi = spectral.random_band_limited(grid, op.dim_v, N // 4, seed=[seed, field])
        lhs = spectral.apply_multiplier(op, spectral.apply_A(op, phi))
        rhs = spectral.apply_Dk(op.k, phi - spectral.apply_PA(op, phi))
        norms.append(spectral.lp_norm(rhs, 2.0))
        errors.append(spectral.lp_norm(lhs - rhs, 2.0) / norms[-1])
    doc = {"operator": operator, "N": N, "fields": fields, "seed": seed,
           "max_rel_error": max(errors), "rhs_norms": norms}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run(spec: dict) -> dict:
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    err = io.StringIO()
    crash = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in spec:
                code = symrank.cli.main(list(spec["argv"]))
            else:
                out.write(identity_check(**spec["identity"]))
                code = 0
    except SystemExit as exc:
        # argparse rejects a command line this way
        code = exc.code
    except Exception:
        # a traceback is a job failure to report, not a reason to lose the timing
        crash = traceback.format_exc()
    job_s = time.perf_counter() - start
    result = {"exit": code, "report": out.getvalue(), "stderr": err.getvalue(),
              "crash": crash, "job_s": job_s, "t_ready": T_READY, "import_s": IMPORT_S,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["trace"] = tracer.summary()
        if spec.get("spans"):
            tracer.write_spans(spec["spans"])
    return result


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.stdout.write(json.dumps(run(json.loads(sys.argv[1]))) + "\n")
