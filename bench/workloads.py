"""The benchmark's workloads: seeded job lists and the output check for each job.

A job is one symrank command line or one library-level check, run in a
fresh process by bench/child.py.  Job argv and field seeds are derived
from the workload seed, so a (workload, seed) pair names one job list.

Why these workloads:

ratio-sweep   verify on curl and divergence at N=32 for p in {2, 3, inf},
              plus one large 2-D grid.  Large arrays, few calls: transforms,
              random_band_limited, apply_Dk, lp_norm and the projector table
              do the work; pinv is idle.
checks-n16    the multiplier identity apply_multiplier(A phi) = D^k(phi - P_A phi)
              on the six constant-rank zoo operators, and minimality on
              divergence and curl, all at N=16.  The same layers through many
              calls on small grids, plus the per-frequency pinv.multiplier loop.
rank-ladder   analyze at 1e5-2.5e5 sphere samples on zoo operators and operator
              documents, and counterexample ladders on d1d2 and wave at N=256,
              exact and windowed.  The batched SVD in rank_profile does the work.

Trial and field counts are chosen so that most jobs of a workload cost about
the same (0.5-1.3 s here): the median and the tail are then central order
statistics of one cluster, not extremes of a small one, and stay steady
from run to run.
"""

import json
import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 0
# wall seconds of one pass over the job list on the reference machine (2-core
# Xeon, numpy 2.4); a run makes seconds // PASS_S passes, at least one, so
# every run of a workload has the same job count and the same tail percentile
PASS_S = {"ratio-sweep": 7.9, "checks-n16": 11.5, "rank-ladder": 9.2}
WORKLOADS = tuple(PASS_S)
DOC_DIR = "bench/operators"

# every identity job evaluates the multiplier at 4096 frequencies: one field
# on a 16^3 grid, sixteen on a 16^2 grid
CONSTANT_RANK = ("gradient", "gradient3", "divergence", "curl", "laplacian",
                 "symmetric_gradient")
IDENTITY_N = 16
IDENTITY_FREQUENCIES = 4096

# operator documents and their known rank behaviour: (verdict, constant rank)
DOCUMENT_TRUTH = {
    # drops rank on xi1 = +-sqrt(2) xi2, a line no lattice direction hits
    "d1sq_minus_2d2sq": ("NonConstantRank", None),
    "rot2": ("ConstantRank", 1),
    "laplacian3": ("Elliptic", 1),
}
KNOWN_DEFECTS = {
    "analyze-doc-d1sq_minus_2d2sq":
        "sampling cannot find rank drops off the lattice directions; reported Elliptic",
}

RATIO_ONE_TOL = 1e-9      # p=2 ratio of divergence and curl is exactly 1
IDENTITY_TOL = 1e-10      # acceptance criterion 8
REF_RTOL = 1e-6           # default-seed report numbers against bench/reference.json
REF_ATOL = 1e-9


@dataclass(frozen=True)
class Job:
    """One job: a symrank argv, or an identity check (operator, N, fields, seed)."""

    id: str
    argv: tuple[str, ...] = ()
    identity: tuple[str, int, int, int] | None = None

    @property
    def kind(self) -> str:
        return "identity" if self.identity else self.argv[0]

    def spec(self) -> dict:
        """The child's job spec without the trace settings."""
        if self.identity:
            operator, N, fields, seed = self.identity
            return {"identity": {"operator": operator, "N": N, "fields": fields, "seed": seed}}
        return {"argv": list(self.argv)}

    def describe(self) -> str:
        if self.identity:
            operator, N, fields, seed = self.identity
            return (f"multiplier identity {operator} N={N} fields={fields} "
                    f"field seeds [{seed}, 0..{fields - 1}]")
        return "symrank " + " ".join(self.argv)


def _seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield str(rng.randrange(2 ** 31))


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The job list of one pass of a workload."""
    seeds = _seeds(workload, seed)
    jobs = []
    if workload == "ratio-sweep":
        for op, trials in (("curl", "5"), ("divergence", "7")):
            for p in ("2", "3", "inf"):
                jobs.append(Job(f"verify-{op}-p{p}", (
                    "verify", f"zoo:{op}", "--N", "32", "--p", p, "--trials", trials,
                    "--seed", next(seeds))))
        jobs.append(Job("verify-symmetric_gradient-N256", (
            "verify", "zoo:symmetric_gradient", "--N", "256", "--p", "3", "--trials", "3",
            "--seed", next(seeds))))
    elif workload == "checks-n16":
        from symrank.zoo import zoo_get
        for op in CONSTANT_RANK:
            fields = IDENTITY_FREQUENCIES // IDENTITY_N ** zoo_get(op).n
            jobs.append(Job(f"identity-{op}",
                            identity=(op, IDENTITY_N, fields, int(next(seeds)))))
        for op in ("divergence", "curl"):
            jobs.append(Job(f"minimality-{op}", (
                "minimality", f"zoo:{op}", "--N", "16", "--trials", "4",
                "--kernel-trials", "20", "--seed", next(seeds))))
    elif workload == "rank-ladder":
        # a 3x3 symbol costs about three times a scalar or 1x2 one per direction
        for op, samples in (("curl", "100000"), ("d1d2", "250000"), ("wave", "250000")):
            jobs.append(Job(f"analyze-{op}", (
                "analyze", f"zoo:{op}", "--samples", samples, "--seed", next(seeds))))
        for name in DOCUMENT_TRUTH:
            jobs.append(Job(f"analyze-doc-{name}", (
                "analyze", f"{DOC_DIR}/{name}.json", "--samples", "250000",
                "--seed", next(seeds))))
        for op in ("d1d2", "wave"):
            jobs.append(Job(f"counterexample-{op}", (
                "counterexample", f"zoo:{op}", "--N", "256", "--rungs", "6",
                "--seed", next(seeds))))
            jobs.append(Job(f"counterexample-{op}-windowed", (
                "counterexample", f"zoo:{op}", "--N", "256", "--rungs", "6",
                "--window", "0.5", "--factor", "2", "--seed", next(seeds))))
    else:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    return jobs


def _option(argv, flag: str, default: str | None = None) -> str | None:
    argv = list(argv)
    return argv[argv.index(flag) + 1] if flag in argv else default


def _truth(source: str) -> tuple[str, int | None]:
    if source.startswith("zoo:"):
        from symrank.zoo import zoo_entry
        entry = zoo_entry(source[4:])
        return entry.expected_verdict.value, entry.expected_rank
    name = source.rsplit("/", 1)[-1].removesuffix(".json")
    return DOCUMENT_TRUTH[name]


def _finite_positive(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def _check_verify(job, doc, code, problems):
    argv = job.argv
    verdict, _ = _truth(argv[1])
    trials = int(_option(argv, "--trials"))
    if code != 0:
        problems.append(f"exit {code}, expected 0")
    if doc.get("verdict") != verdict:
        problems.append(f"verdict {doc.get('verdict')}, expected {verdict}")
    records = doc.get("records", [])
    if len(records) + doc.get("excluded", 0) != trials:
        problems.append(f"{len(records)} records + {doc.get('excluded')} excluded != {trials} trials")
    ratios = [r.get("ratio") for r in records]
    if not ratios or not all(_finite_positive(r) for r in ratios):
        problems.append("ratios missing or not finite positive")
    elif doc.get("max_ratio") != max(ratios):
        problems.append("max_ratio is not the largest record")
    elif _option(argv, "--p") == "2" and argv[1] in ("zoo:divergence", "zoo:curl"):
        worst = max(abs(r - 1.0) for r in ratios)
        if worst > RATIO_ONE_TOL:
            problems.append(f"p=2 ratio off 1 by {worst:.3e} > {RATIO_ONE_TOL}")


def _check_minimality(job, doc, code, problems):
    trials = int(_option(job.argv, "--trials"))
    if code != 0:
        problems.append(f"exit {code}, expected 0")
    results = doc.get("results", [])
    if doc.get("all_pass") is not True or len(results) != trials:
        problems.append(f"all_pass {doc.get('all_pass')} over {len(results)}/{trials} trials")
    elif not all(r.get("pass") is True for r in results):
        problems.append("a trial failed while all_pass is true")


def _check_identity(job, doc, code, problems):
    operator, N, fields, _ = job.identity
    if code != 0:
        problems.append(f"exit {code}, expected 0")
    error = doc.get("max_rel_error")
    if not isinstance(error, float) or not error <= IDENTITY_TOL:
        problems.append(f"identity relative error {error} > {IDENTITY_TOL}")
    if len(doc.get("rhs_norms", [])) != fields or doc.get("operator") != operator:
        problems.append("report does not cover the requested fields")


def _check_analyze(job, doc, code, problems):
    verdict, rank = _truth(job.argv[1])
    expected_code = 3 if verdict == "NonConstantRank" else 0
    if code != expected_code:
        problems.append(f"exit {code}, expected {expected_code}")
    if doc.get("verdict") != verdict:
        problems.append(f"verdict {doc.get('verdict')}, expected {verdict}")
    if doc.get("sample_count", 0) < int(_option(job.argv, "--samples")):
        problems.append(f"sample_count {doc.get('sample_count')} below --samples")
    if verdict == "NonConstantRank":
        if not doc.get("witness") or not doc.get("daggerbound", {}).get("holds"):
            problems.append("no witness, or the pseudoinverse bound does not hold")
    elif (doc.get("min_rank"), doc.get("max_rank")) != (rank, rank):
        problems.append(f"ranks {doc.get('min_rank')}..{doc.get('max_rank')}, expected {rank}")


def _check_counterexample(job, doc, code, problems):
    factor = float(_option(job.argv, "--factor", "4"))
    rungs = int(_option(job.argv, "--rungs"))
    records = doc.get("records", [])
    if doc.get("verdict") != "NonConstantRank":
        problems.append(f"verdict {doc.get('verdict')}, expected NonConstantRank")
    if len(records) != rungs or len(doc.get("ladder", [])) != rungs:
        problems.append(f"{len(records)} rungs reported, expected {rungs}")
        return
    growth = doc.get("growth")
    ratios = [r.get("ratio") for r in records]
    if not all(_finite_positive(r) for r in ratios) or not _finite_positive(growth):
        problems.append("ratios or growth not finite positive")
        return
    if not math.isclose(growth, ratios[-1] / ratios[0], rel_tol=1e-12):
        problems.append("growth is not last/first ratio")
    if code != (0 if growth >= factor else 5):
        problems.append(f"exit {code} disagrees with growth {growth:.4g} against --factor {factor}")
    if growth < factor:
        problems.append(f"growth {growth:.4g} below --factor {factor}")


_CHECKS = {
    "verify": _check_verify,
    "minimality": _check_minimality,
    "identity": _check_identity,
    "analyze": _check_analyze,
    "counterexample": _check_counterexample,
}


def numbers(doc, prefix: str = "") -> dict:
    """Every numeric leaf of a report, keyed by its path (a.b.0)."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        if isinstance(doc, (int, float)) and not isinstance(doc, bool):
            return {prefix: doc}
        return {}
    out = {}
    for key, value in items:
        out.update(numbers(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def _check_reference(doc, reference: dict, problems):
    # keys the report gained after the reference was recorded are ignored
    found = numbers(doc)
    for path, expected in reference.items():
        value = found.get(path)
        if value is None:
            problems.append(f"reference number {path} missing from the report")
        elif not abs(value - expected) <= REF_ATOL + REF_RTOL * abs(expected):
            problems.append(f"{path} = {value!r}, reference {expected!r}")


def check(job: Job, result: dict | None, reference: dict | None = None) -> list[str]:
    """Problems with one job's output; an empty list means the job passed."""
    if result is None:
        return ["no result from the job process"]
    if result.get("crash"):
        return ["crashed: " + result["crash"].strip().splitlines()[-1]]
    try:
        doc = json.loads(result["report"])
    except json.JSONDecodeError:
        return [f"report is not JSON (exit {result.get('exit')}): {result['stderr'].strip()[:200]}"]
    problems = []
    try:
        _CHECKS[job.kind](job, doc, result.get("exit"), problems)
    except (AttributeError, TypeError, KeyError, IndexError, ValueError) as exc:
        problems.append(f"report has an unexpected shape: {exc!r}")
    if reference is not None:
        _check_reference(doc, reference, problems)
    return problems
