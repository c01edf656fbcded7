"""Estimate-ratio experiments, symbol bounds, witness families, and reports.

The central quantity is

    estimate_ratio(op, phi, p) = ||D^k(phi - P_A phi)||_p / ||A phi||_p,

which stays bounded over field families exactly when the symbol has
constant rank on the sphere, and is driven to infinity along witness
families concentrated near rank-drop directions otherwise.  Every piece of
it is a Fourier multiplier, so the ratio and the minimality check work on
coefficients; only a p != 2 norm needs grid values, and at p = 2 both
sides are coefficient sums (Parseval).
"""

from dataclasses import dataclass, field

import numpy as np

from .operators import Operator, symbol, symbol_stack
from .pinv import DEFAULT_TOL, _norm, numerical_rank
from .spectral import (FrequencyField, Grid, GridField, apply_A_adjoint, forward_transform,
                       inverse_transform, lp_norm, periodic_bump, single_mode,
                       _check_field, _coefficient_norm, _coordinate_mesh, _derivatives,
                       _kernel_projector_table, _matvec, _random_coefficients, _symbol_tensor)

CONTEXT_RANDOM_FIELDS = "RandomFields"
CONTEXT_WITNESS_FAMILY = "WitnessFamily"


class KernelInputError(ValueError):
    """estimate_ratio input with ||phi - P_A phi|| <= tol ||phi||; the quotient is meaningless."""


class DegenerateProbeError(ValueError):
    """The probe vector w is annihilated by the adjoint symbol at this frequency."""


class EmptyExperimentError(ValueError):
    """A report was requested for an experiment with no completed trials."""


def estimate_ratio(op: Operator, phi: GridField | FrequencyField, p: float,
                   tol: float = DEFAULT_TOL) -> float:
    """||D^k(phi - P_A phi)||_p / ||A phi||_p on phi's grid.

    phi is a GridField, transformed once, or its FrequencyField.  A phi and
    phi - P_A phi are formed on coefficients.  At p = 2 the ratio is a
    quotient of coefficient l2 norms (Parseval), the derivative side weighted
    by |xi|^2k, and needs no transform; at any other p D^k(phi - P_A phi),
    then A phi, go back to the grid for lp_norm, one at a time.  Raises
    ValueError unless p >= 1 and KernelInputError when
    ||phi - P_A phi||_2 <= tol * ||phi||_2 (P_A uses pinv's relative cutoff,
    so A -> cA scales the ratio by 1/c and rejects the same fields).
    Invariant under rescaling of phi; for p = 2 this is the sharp constant
    of the derivative recovery estimate on the given field.
    """
    if not p >= 1.0:
        raise ValueError("p must be at least 1")
    freq = phi if isinstance(phi, FrequencyField) else forward_transform(phi)
    _check_field(op, freq, op.dim_v, "input")
    projector = _kernel_projector_table(op, freq.grid, float(tol))
    resolved = FrequencyField(freq.grid, freq.coeffs - _matvec(projector, freq).coeffs)
    if _coefficient_norm(resolved) <= tol * _coefficient_norm(freq):
        raise KernelInputError(f"{op.name}: field is in the kernel to tolerance {tol}")
    symbols = _symbol_tensor(op, freq.grid)
    if p == 2.0:
        return _coefficient_norm(resolved, op.k) / _coefficient_norm(_matvec(symbols, freq))
    derivative_norm = lp_norm(inverse_transform(_derivatives(op.k, resolved)), p)
    return derivative_norm / lp_norm(inverse_transform(_matvec(symbols, freq)), p)


def _adjoint_probe(op: Operator, xi, w, tol: float):
    """A(xi), w and A*(xi) w, where w = None means the top left singular vector u_0.

    w and A*(xi) w come back scaled exactly by the power of two that brings
    sigma_max(A(xi)) into [0.5, 1), so no field built from them overflows
    under A.  Raises DegenerateProbeError when |A*(xi) w| <= tol *
    sigma_max(A(xi)) |w|, relative like pinv's cutoff; |A*(xi) u_0| =
    sigma_max, so u_0 fails only where the symbol vanishes.
    """
    mat = symbol(op, np.asarray(xi, dtype=float))
    u, sigma, _ = np.linalg.svd(mat)
    w = u[:, 0] if w is None else np.asarray(w, dtype=complex)
    exponent = np.frexp(sigma[0])[1]
    floor = tol * np.ldexp(sigma[0], -exponent) * np.linalg.norm(w)
    w = w * np.ldexp(1.0, -exponent)
    adjoint_w = mat.conj().T @ w
    if np.linalg.norm(adjoint_w) <= floor:
        raise DegenerateProbeError(f"{op.name}: probe annihilated by the adjoint symbol at {tuple(xi)}")
    return mat, w, adjoint_w


def symbol_bound_ratio(op: Operator, xi, w, tol: float = DEFAULT_TOL) -> float:
    """|xi|^k ||A*(xi) w|| / ||A(xi) A*(xi) w||, the single-mode estimate ratio.

    Scale-invariant in xi; A -> cA scales it by 1/c (every norm is pinv._norm).
    Raises DegenerateProbeError when |A*(xi) w| <= tol * sigma_max(A(xi)) |w|.
    """
    mat, _, adjoint_w = _adjoint_probe(op, xi, w, tol)
    return float(_norm(np.asarray(xi, dtype=float)) ** op.k * _norm(adjoint_w)
                 / _norm(mat @ adjoint_w))


@dataclass(frozen=True)
class WitnessConfig:
    """Recipe for a family of near-kernel-orthogonal test fields.

    frequencies is the integer ladder approaching the target drop
    direction; w is a fixed unit codomain probe, or None to use the top
    left singular vector of the symbol at each rung; window is None for
    exact single modes or a bump width in (0, 1] (fraction of the torus).
    """

    frequencies: tuple[tuple[int, ...], ...]
    w: tuple[complex, ...] | None = None
    window: float | None = None

    def __post_init__(self):
        freqs = tuple(tuple(int(x) for x in f) for f in self.frequencies)
        if not freqs:
            raise ValueError("frequencies must be nonempty")
        if any(not any(f) for f in freqs):
            raise ValueError("frequencies must be nonzero integer vectors")
        object.__setattr__(self, "frequencies", freqs)
        if self.w is not None:
            w = tuple(complex(x) for x in self.w)
            if abs(np.linalg.norm(w) - 1.0) > 1e-8:
                raise ValueError("w must be a unit vector")
            object.__setattr__(self, "w", w)
        if self.window is not None and not 0.0 < self.window <= 1.0:
            raise ValueError("window width must lie in (0, 1]")


def witness_family(op: Operator, cfg: WitnessConfig, grid: Grid,
                   tol: float = DEFAULT_TOL) -> list[GridField]:
    """One field per configured frequency: A* applied spectrally to a probe wave.

    For window = None the field is the exact single mode with coefficient
    A*(xi_m) w at xi_m, so P_A phi_m = 0 exactly and estimate_ratio at any
    p equals symbol_bound_ratio(op, xi_m, w).  With a window, the wave is
    multiplied by a periodized bump before applying A*.  Either field is
    scaled by the power of two that brings sigma_max(A(xi_m)) into [0.5, 1)
    (see _adjoint_probe), which no ratio sees; the measured windowed ratio
    approaches the single-mode value as the window widens.  Raises
    DegenerateProbeError when |A*(xi_m) w| <= tol * sigma_max(A(xi_m)) |w|.
    """
    if grid.n != op.n:
        raise ValueError(f"grid has {grid.n} axes, operator acts on {op.n}")
    if cfg.window is not None:
        bump = periodic_bump(grid, cfg.window)
        mesh = _coordinate_mesh(grid)
    w = None if cfg.w is None else np.array(cfg.w, dtype=complex)
    if w is not None and w.shape != (op.dim_w,):
        raise ValueError(f"w must have length {op.dim_w}")
    fields = []
    for freq in cfg.frequencies:
        if max(abs(x) for x in freq) > grid.size // 4:
            raise ValueError(f"frequency {freq} unresolvable on grid size {grid.size} "
                             f"(|xi|_inf must be <= {grid.size // 4})")
        _, probe, adjoint_w = _adjoint_probe(op, freq, w, tol)
        if cfg.window is None:
            fields.append(single_mode(grid, freq, adjoint_w))
            continue
        phase = np.exp(1j * sum(f * axis for f, axis in zip(freq, mesh)))
        wave = GridField(grid, probe.reshape((-1,) + (1,) * grid.n) * (bump * phase)[None])
        fields.append(apply_A_adjoint(op, wave))
    return fields


def build_frequency_ladder(op: Operator, drop_direction, rungs: int = 4) -> list[tuple[int, ...]]:
    """Integer frequencies approaching a drop direction with doubling magnitude.

    Rung j targets 2^(j+1) * u rounded to integers.  A rung is usable iff
    numerical_rank of the symbol there is positive, the classifier's own
    rank; when the rounded frequency is not (for example exactly on the
    degenerate axis), the first axis offset +-e_i that is usable is added.
    For the mixed second derivative with u = e1 this yields the family
    (m, 1), m = 2^(j+1).
    """
    if rungs < 1:
        raise ValueError("rungs must be positive")
    u = np.asarray(drop_direction, dtype=float)
    u = u / np.linalg.norm(u)
    axes = np.eye(op.n, dtype=int)
    offsets = np.vstack([0 * axes[0]] + [s * e for e in axes for s in (1, -1)])
    ladder = []
    for j in range(rungs):
        scale = 2 ** (j + 1)
        cands = np.rint(scale * u).astype(int) + offsets
        # the zero frequency has the zero symbol, rank 0
        usable = np.flatnonzero(numerical_rank(symbol_stack(op, cands.astype(float))) > 0)
        if not usable.size:
            raise DegenerateProbeError(
                f"{op.name}: no usable frequency near rung {scale} of direction {tuple(u)}")
        ladder.append(tuple(int(x) for x in cands[usable[0]]))
    return ladder


def l2_minimality_check(op: Operator, phi: GridField | FrequencyField, kernel_trials: int = 20,
                        seed: int = 0, tol: float = DEFAULT_TOL,
                        slack: float = 1e-10) -> bool:
    """Check that P_A phi minimizes ||D^k(phi - psi)||_2 over kernel fields psi.

    Competitors are kernel projections of seeded random band-limited
    fields.  Returns True when no competitor beats the canonical
    projection by more than slack.  Raises ValueError for fewer than one
    competitor, which would pass without comparing anything.  Every norm
    here is L2, so the check runs on coefficients: phi is a GridField,
    transformed once, or its FrequencyField, and competitors are drawn as
    coefficients and projected with the cached projector table.
    """
    if kernel_trials < 1:
        raise ValueError("kernel_trials must be at least 1")
    freq = phi if isinstance(phi, FrequencyField) else forward_transform(phi)
    _check_field(op, freq, op.dim_v, "input")
    grid = phi.grid
    projector = _kernel_projector_table(op, grid, float(tol))

    def distance(kernel_field: FrequencyField) -> float:
        return _coefficient_norm(FrequencyField(grid, freq.coeffs - kernel_field.coeffs), op.k)

    base = distance(_matvec(projector, freq))
    for trial in range(kernel_trials):
        # trailing 1 keeps this seed stream disjoint from any [seed, trial]
        # stream a caller used for phi (SeedSequence drops trailing zeros)
        raw = _random_coefficients(grid, op.dim_v, grid.size // 4, seed=[seed, trial, 1])
        if base > distance(_matvec(projector, raw)) + slack:
            return False
    return True


@dataclass(frozen=True)
class TrialRecord:
    """One measured ratio: trial index, grid size, provenance detail, value."""

    index: int
    grid_size: int
    detail: str
    ratio: float


@dataclass(frozen=True)
class EstimateReport:
    """Aggregated, reproducible record of an estimate-ratio experiment."""

    operator: str
    context: str
    p: float
    grid_sizes: tuple[int, ...]
    trials: int
    seed: int | None
    records: tuple[TrialRecord, ...]
    excluded: int = 0
    verdict: str | None = None
    parameters: dict = field(default_factory=dict)

    @property
    def ratios(self) -> list[float]:
        return [r.ratio for r in self.records]

    @property
    def max_ratio(self) -> float:
        return max(self.ratios)

    def to_dict(self) -> dict:
        return {
            "operator": self.operator,
            "context": self.context,
            "p": self.p if np.isfinite(self.p) else "inf",
            "grid_sizes": list(self.grid_sizes),
            "trials": self.trials,
            "seed": self.seed,
            "excluded": self.excluded,
            "verdict": self.verdict,
            "parameters": {k: self.parameters[k] for k in sorted(self.parameters)},
            "max_ratio": self.max_ratio,
            "records": [
                {"index": r.index, "grid_size": r.grid_size, "detail": r.detail, "ratio": r.ratio}
                for r in self.records
            ],
        }

    def csv_rows(self) -> list[str]:
        rows = ["index,grid_size,detail,ratio"]
        rows.extend(f"{r.index},{r.grid_size},{r.detail},{r.ratio!r}" for r in self.records)
        return rows


def assemble_report(operator: str, context: str, p: float, grid_sizes, trials: int,
                    seed: int | None, records, excluded: int = 0,
                    verdict: str | None = None, parameters: dict | None = None) -> EstimateReport:
    """Validate and freeze an experiment into an EstimateReport.

    Serialization of the result is deterministic: the same inputs produce
    byte-identical documents.  Raises EmptyExperimentError when no trial
    completed.
    """
    records = tuple(records)
    if not records:
        raise EmptyExperimentError(f"{operator}: no completed trials to report")
    for record in records:
        if not np.isfinite(record.ratio) or record.ratio < 0:
            raise ValueError(f"trial {record.index}: ratio {record.ratio} is not a finite nonnegative number")
    return EstimateReport(
        operator=operator,
        context=context,
        p=float(p),
        grid_sizes=tuple(int(s) for s in grid_sizes),
        trials=int(trials),
        seed=seed,
        records=records,
        excluded=int(excluded),
        verdict=verdict,
        parameters=dict(parameters or {}),
    )


def ratio_sweep(op: Operator, p: float, trials: int, grid_sizes, max_freq: int | None = None,
                seed: int = 0, tol: float = DEFAULT_TOL) -> EstimateReport:
    """Measure estimate_ratio on seeded random band-limited fields.

    Runs `trials` fields per grid size; each trial derives its randomness
    from (seed, grid size, trial index).  The fields are drawn as
    coefficients (those of random_band_limited) and passed to
    estimate_ratio as FrequencyFields, so a p = 2 sweep makes no transform
    and any other p two inverse transforms per trial.  A grid too large for
    its tables is refused before its first field is drawn.  Kernel inputs
    are excluded and counted rather than reported as ratios.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    grid_sizes = [int(size) for size in grid_sizes]
    if not grid_sizes:
        raise ValueError("grid_sizes must be nonempty")
    records = []
    excluded = 0
    index = 0
    for size in grid_sizes:
        grid = Grid(op.n, size)
        band = max_freq if max_freq is not None else grid.size // 4
        _kernel_projector_table(op, grid, float(tol))
        for trial in range(trials):
            phi = _random_coefficients(grid, op.dim_v, band, seed=[seed, size, trial])
            try:
                ratio = estimate_ratio(op, phi, p, tol)
            except KernelInputError:
                excluded += 1
                continue
            records.append(TrialRecord(index=index, grid_size=grid.size,
                                       detail=f"seed={seed} N={grid.size} trial={trial}",
                                       ratio=ratio))
            index += 1
    return assemble_report(
        operator=op.name, context=CONTEXT_RANDOM_FIELDS, p=p, grid_sizes=grid_sizes,
        trials=trials, seed=seed, records=records, excluded=excluded,
        parameters={"max_freq": "size//4" if max_freq is None else max_freq, "tol": tol},
    )
