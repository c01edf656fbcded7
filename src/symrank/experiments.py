"""Estimate-ratio experiments, witness families, and reports.

The central quantity is

    estimate_ratio(op, phi, p) = ||D^k(phi - P_A phi)||_p / ||A phi||_p,

which stays bounded over field families exactly when the symbol has
constant rank on the sphere, and is driven to infinity along witness
families concentrated near rank-drop directions otherwise.  Every piece of
it is a Fourier multiplier, so the ratio and the minimality check work on
coefficients; only a p != 2 norm needs grid values, and at p = 2 both
sides are coefficient sums (Parseval), taken one slab of the spectrum at
a time.  One private pipeline each, _ratio and _minimality, runs on
whichever spectrum (spectral._Spectrum) its caller hands it: the whole
mesh, as the public functions pass, or the primaries of a band, as
ratio_sweep and the minimality command pass for the random fields they
draw, which never touch the N^n tables.  Each measuring command of the
CLI makes one call here, which picks its route: ratio_sweep (verify),
_ladder_ratios (counterexample) and _minimality_trials (minimality).  An
exact witness rung is one coefficient at one frequency (_rungs), and a
ladder takes its ratio there (_ladder_ratios), with no witness field and
no N^n table: a single mode's ratio is the same at every p, so it is
taken at p = 2.  A windowed rung's builder (_witness_fields) gives its
coefficients on any run of first-axis planes, so a p = 2 ladder builds
and measures it one slab at a time.  A ratio report is its JSON document,
a dict made by one builder (_report): ratio_sweep returns it, and the CLI
adds the verdict and notes and writes --csv from its records.
"""

import math
from functools import partial
from itertools import combinations

import numpy as np

from .operators import Operator, _real_stack
from .pinv import (DEFAULT_TOL, _blockwise, _check_int, _check_tol, _kept, _norm, _projectors,
                   _ranks, _Table, numerical_rank)
from .rank import RankDropWitness
from .spectral import (TWO_PI, FrequencyField, Grid, GridField, forward_transform, _Spectrum,
                       _band_spectrum, _bump_coefficients, _check_field, _derivative_rows,
                       _envelope, _listed_spectrum, _matvec, _mesh_spectrum, _refuse_oversized,
                       _slab_total, _symbol_tensor)

CONTEXT_RANDOM_FIELDS = "RandomFields"
CONTEXT_WITNESS_FAMILY = "WitnessFamily"
# rung j of a ladder targets 2^(j+1) u, and beyond 2^53 a float64 frequency is not exact
_MAX_RUNGS = 52
# how far, in whole-mesh L2 norm, a kernel competitor may beat P_A phi before minimality fails
_SLACK = 1e-10


class KernelInputError(ValueError):
    """estimate_ratio input with ||phi - P_A phi|| <= tol ||phi||; the quotient is meaningless."""


class DegenerateProbeError(ValueError):
    """No probe at a witness frequency.

    The symbol vanishes there (rank 0), or no candidate of a ladder rung
    has the generic rank.
    """


class EmptyExperimentError(ValueError):
    """A report was requested for an experiment with no completed trials."""


def estimate_ratio(op: Operator, phi: GridField | FrequencyField, p: float,
                   tol: float = DEFAULT_TOL) -> float:
    """||D^k(phi - P_A phi)||_p / ||A phi||_p on phi's grid.

    phi is a GridField, transformed once, or its FrequencyField, and the
    ratio is taken by _ratio on the whole mesh of coefficients: at p = 2 as
    a quotient of coefficient l2 norms (Parseval), one slab at a time, with
    no transform; at any other p with two inverse transforms.  phi is
    checked and the tables looked up (_mesh_spectrum) before a GridField
    is transformed, so while a table is built the route has made no field
    and the builder counts its build alone (a FrequencyField phi is the
    caller's, as an apply_* input is); the route's own estimate counts
    the tables, phi's coefficients and one trial.  Raises
    ValueError unless p >= 1, or when an intermediate field is not finite,
    and KernelInputError when ||phi - P_A phi||_2 <= tol * ||phi||_2 (P_A
    uses pinv's relative cutoff, so A -> cA scales the ratio by 1/c and
    rejects the same fields), and MemoryError before any table is built
    when the whole-mesh route does not fit (_mesh_spectrum).  Invariant
    under rescaling of phi; for p = 2 this is the sharp constant of the
    derivative recovery estimate on the given field.
    """
    _check_field(op, phi, op.dim_v, "input")
    # at p = 2 a trial holds one slab, and phi is held whole beside it
    spectrum = _mesh_spectrum(op, phi.grid, tol, p, held=op.dim_v if p == 2.0 else 0)
    freq = phi if isinstance(phi, FrequencyField) else forward_transform(phi)
    return _ratio(op, spectrum, freq.coeffs, p, tol)


def _ratio(op: Operator, spectrum: _Spectrum, coeffs, p: float, tol: float) -> float:
    """estimate_ratio of the field with these coefficients on spectrum.

    spectrum is the whole mesh (_mesh_spectrum), the primaries of a band
    (_band_spectrum) or, at p = 2, an exact rung (_ladder_ratios), and
    coeffs the (dimV, ...) coefficients there, or a function of a slab's
    planes that gives them on those planes alone (_witness_fields), called
    with slice(None) for the whole field.  At p = 2 both sides are weighted
    coefficient norms (the spectrum's weights count a primary's mirror),
    taken one slab at a time (_l2_norms).  At any other p phi - P_A phi is
    formed on the whole spectrum, then D^k(phi - P_A phi) and A phi = i^k M
    phi are measured by spectrum.grid_norm, _grid_norm of their grid values
    (the phase i^k is applied on coefficients, which is exact), one at a
    time, each handed over as a generator of its coefficient rows
    (_derivative_rows, _image_rows): every row is formed once, when the
    grid norm reads it, so a trial holds one row of either field.  Either
    way phi - P_A phi is tested against phi under pinv's cutoff first.
    Nothing on the way is checked for finiteness: a non-finite intermediate
    makes a norm non-finite, which raises ValueError.
    """
    field = coeffs if callable(coeffs) else (lambda planes: coeffs[:, planes])
    with np.errstate(over="ignore", invalid="ignore"):
        if p == 2.0:
            kernel, whole, numerator, denominator = _l2_norms(spectrum, field)
        else:
            coeffs = field(slice(None))
            weights = spectrum.norm_weights
            resolved = _matvec(spectrum.projector, coeffs)
            np.subtract(coeffs, resolved, out=resolved)
            kernel, whole = _norm(resolved, weights=weights), _norm(coeffs, weights=weights)
        if kernel <= tol * whole:
            raise KernelInputError(f"{op.name}: field is in the kernel to tolerance {tol}")
        if p != 2.0:
            numerator = spectrum.grid_norm(_derivative_rows(op.k, resolved, spectrum.xis), p)
            del resolved
            denominator = spectrum.grid_norm(_image_rows(op, spectrum.symbols, coeffs), p)
    if not math.isfinite(numerator) or not math.isfinite(denominator):
        raise ValueError("field has non-finite values")
    return numerator / denominator


def _image_rows(op: Operator, symbols: np.ndarray, coeffs: np.ndarray):
    """The rows of A phi = i^k M phi, a generator: row i is _matvec of M's row i with phi, times i^k.

    Each row is dropped before the next is formed (spectral._derivative_rows).
    """
    for row in range(op.dim_w):
        image = _matvec(symbols[..., row:row + 1, :], coeffs)[0]
        image *= 1j ** op.k
        yield image
        del image


def _l2_norms(spectrum: _Spectrum, field) -> tuple[float, float, float, float]:
    """||phi - P_A phi||, ||phi||, ||D^k(phi - P_A phi)|| and ||A phi|| in L2, a slab at a time.

    field(planes) gives phi's coefficients on a slab's planes
    (spectrum.slabs()), where the tables are read as views; M phi has the
    norms of A phi = i^k M phi.  Each slab holds its projection and image
    only while its four norms are taken, and each norm is _slab_total of
    the slabs' norms.
    """
    weights = spectrum.norm_weights
    parts = []
    for planes, derivative_weights in spectrum.slabs():
        phi = field(planes)
        resolved = _matvec(spectrum.projector[planes], phi)
        np.subtract(phi, resolved, out=resolved)
        parts.append((_norm(resolved, weights=weights), _norm(phi, weights=weights),
                      _norm(resolved, weights=derivative_weights),
                      _norm(_matvec(spectrum.symbols[planes], phi), weights=weights)))
    return tuple(_slab_total(norms) for norms in zip(*parts))


def _probes(dim_w: int, tol: float) -> _Table:
    """_rungs' probe table: u_{r-1} of each matrix of dim_w rows, scaled by a power of two."""
    def fill(out, u, sigma, vh):
        ranks = np.count_nonzero(_kept(sigma, tol), axis=-1)
        scales = np.ldexp(1.0, -np.frexp(sigma[:, 0])[1])
        out[...] = u[np.arange(len(ranks)), :, ranks - 1] * scales[:, None]
    return _Table((dim_w,), None, True, False, fill)


def _rungs(op: Operator, frequencies: list[tuple[int, ...]], grid: Grid, tol: float):
    """The probes, exact coefficients and real M and P_A tables of witness rungs at frequencies.

    A rung's probe is u_{r-1}, the left singular vector of M(xi)'s smallest
    kept singular value, with M read by _real_stack (bitwise the symbol
    table's entry).  Every rung's rank, probe and kernel projector come
    from one decomposition of the rungs' stack (pinv._blockwise).  M is the
    real factor of A = i^k M, so u_{r-1} is real and a left singular vector
    of A(xi) as well.  r is the rank under pinv's one cutoff (_kept), so
    |A*(xi) u_{r-1}| = sigma_r(A(xi)) is the singular value that vanishes at
    a rank drop, and an exact rung's ratio is |xi|^k / sigma_r(A(xi)).  A
    probe comes back scaled exactly by the power of two that brings
    sigma_max(A(xi)) into [0.5, 1), so no field built from it overflows
    under A.  The coefficient is A*(xi) u (2pi)^(n/2) = (-i)^k M(xi)^T u
    (2pi)^(n/2).  frequencies have passed _check_rungs.  Raises
    DegenerateProbeError at the first rung where the symbol vanishes (r =
    0).  Returns (probes, coefficients, M, P_A), probes (rungs, dimW).
    """
    symbols = _real_stack(op, frequencies)
    ranks, probes, projector = _blockwise(symbols, _ranks(tol), _probes(op.dim_w, tol),
                                          _projectors(op.dim_v, tol))
    for freq, rank in zip(frequencies, ranks):
        if not rank:
            raise DegenerateProbeError(f"{op.name}: the symbol vanishes at {freq}")
    coefficients = []
    for symbol, probe in zip(symbols, probes):
        coefficient = (-1j) ** op.k * np.einsum("ij,i->j", symbol, probe)
        coefficient *= TWO_PI ** (grid.n / 2.0)
        coefficients.append(coefficient)
    return probes, coefficients, symbols, projector


def _check_rungs(op: Operator, frequencies, grid: Grid,
                 window: float | None = None) -> list[tuple[int, ...]]:
    """frequencies as tuples of ints, once every argument of a family of rungs on grid is checked.

    Raises ValueError for no frequencies, a window outside (0, 1], a grid
    whose axes are not the operator's, or, at the first such rung, a zero
    frequency, a component that is not an integer value (1.5 is not
    truncated to 1; 2.0 is 2) or |xi|_inf > N/4.  Callers run it before any
    estimate or table is made, so an invalid argument is named on any grid.
    """
    frequencies = [tuple(freq) for freq in frequencies]
    if not frequencies:
        raise ValueError("frequencies must be nonempty")
    if window is not None and not 0.0 < window <= 1.0:
        raise ValueError("window width must lie in (0, 1]")
    if grid.n != op.n:
        raise ValueError(f"grid has {grid.n} axes, operator acts on {op.n}")
    for rung, freq in enumerate(frequencies):
        if not any(freq) or not all(isinstance(x, (int, np.integer)) or float(x).is_integer()
                                    for x in freq):
            raise ValueError("frequencies must be nonzero integer vectors")
        frequencies[rung] = freq = tuple(int(x) for x in freq)
        if max(abs(x) for x in freq) > grid.size // 4:
            raise ValueError(f"frequency {freq} unresolvable on grid size {grid.size} "
                             f"(|xi|_inf must be <= {grid.size // 4})")
    return frequencies


def _ladder_ratios(op: Operator, frequencies, size: int, window: float | None, p: float,
                   tol: float) -> list[float]:
    """estimate_ratio of witness_family's rungs at frequencies on the size^n grid, one at a time.

    The rungs are checked first (_check_rungs), so a rung out of range is
    named on any grid, before any table is sized.  An exact rung (window
    None) is a single mode c exp(i x.xi), with the same modulus at every
    grid point, so its Riemann sums and its grid maximum are exact and each
    of its L^p norms is its L2 norm times (2pi)^(n/p - n/2).  D^k(phi - P_A
    phi) and A phi are single modes at the same xi, so that factor cancels
    and the ratio is the same at every p >= 1 and at inf: it is _ratio at
    p = 2 of the rung's one coefficient on its spectrum, its frequency with
    its rows of the rungs' M and P_A tables (spectral._listed_spectrum),
    bitwise the whole-mesh p = 2 ratio of the witness field, and nothing of
    size N^n is built.  The probes and the tables come from one stack
    (_rungs), so a ladder of any length decomposes once.  A windowed rung
    spreads over the whole mesh, so the whole-mesh spectrum (_mesh_spectrum)
    is built once, before the first witness, and refuses an oversized grid
    up front; the envelope is one factor of N entries per axis.  A table
    that is not cached is built then, sized by its builder, before the
    ladder holds anything else.  At p = 2 each rung's witness is built one
    slab of first-axis planes at a time by its builder (_witness_fields)
    and measured there, so the ladder holds the two tables and one slab,
    and the route's estimate counts just that.  At any other p the norms
    need grid values, so each rung's whole field is built and measured
    before the next one, and the estimate counts what a ratio holds on the
    whole mesh, with that field as its phi.  Either way the
    ratios are bitwise those of estimate_ratio on witness_family's list.
    """
    grid = Grid(op.n, size)
    frequencies = _check_rungs(op, frequencies, grid, window)
    if window is not None:
        spectrum = _mesh_spectrum(op, grid, tol, p)
        return [_ratio(op, spectrum, build, p, tol)
                for build in _witness_fields(op, frequencies, grid, window, tol)]
    _, coefficients, symbols, projector = _rungs(op, frequencies, grid, tol)
    xis = np.array(frequencies, dtype=float).T
    ratios = []
    for rung, coefficient in enumerate(coefficients):
        at = slice(rung, rung + 1)
        spectrum = _listed_spectrum(op, xis[:, at], symbols[at], projector[at])
        ratios.append(_ratio(op, spectrum, coefficient[:, None], 2.0, tol))
    return ratios


def witness_family(op: Operator, frequencies, grid: Grid, window: float | None = None,
                   tol: float = DEFAULT_TOL) -> list[FrequencyField]:
    """One field per integer frequency xi_m, as coefficients: A* applied to a probe wave.

    The probe u is _rungs' real u_{r-1} at xi_m.  The wave envelope(x)
    exp(i x.xi_m) u has, by the discrete shift theorem, the field
    coefficient A*(eta) u * envelope_hat(eta - xi_m) at eta: the envelope's
    coefficients rolled by xi_m times A*(eta) u = (-i)^k M(eta)^T u, the
    real symbol table contracted with u times the phase, so no rung is
    transformed.  For window = None the envelope is 1, one coefficient
    (2pi)^(n/2) at frequency zero, and the rung is the exact single mode
    A*(xi_m) u at xi_m: its one coefficient, _rungs', is written directly
    and no N^n table is read, and P_A phi_m = 0 and estimate_ratio at any p
    equals |xi_m|^k / sigma_r(A(xi_m)).  A window in (0, 1] is the width of
    periodic_bump (a fraction of the torus), whose coefficients are the
    product over the axes of its one-axis profile's, transformed once per
    family (_bump_coefficients), and the N^n symbol table is contracted
    with the probe; the windowed ratio approaches the single-mode value as
    the window widens.  Each field is built whole by _witness_fields'
    builder, the one a windowed counterexample ladder builds slab by slab.
    Raises ValueError for a tol pinv refuses (_check_tol), no frequencies,
    a window outside (0, 1], a grid whose axes are not the operator's, a
    zero frequency or |xi_m|_inf > N/4 (_check_rungs), then MemoryError
    before anything is built when the fields, with the symbol table of a
    windowed family, cannot fit (spectral._refuse_oversized; _symbol_tensor
    sizes its own build, and every symbol build its monomials,
    operators._column_monomials, so the rungs' M of a huge order is refused
    too), and DegenerateProbeError where the symbol vanishes.
    """
    _check_tol(tol)
    frequencies = _check_rungs(op, frequencies, grid, window)
    table = 0 if window is None else op.dim_w * op.dim_v
    _refuse_oversized(op, grid, grid.size ** grid.n, table + 2 * op.dim_v * len(frequencies))
    return [FrequencyField(grid, build()) for build in _witness_fields(op, frequencies, grid,
                                                                        window, tol)]


def _witness_fields(op: Operator, frequencies, grid: Grid, window: float | None, tol: float):
    """witness_family's fields one rung at a time, a generator of builders.

    The arguments have passed _check_rungs, which its callers run first.
    Every rung's probe and coefficient is formed (_rungs, one pinv pass),
    and the envelope's one-axis factor and the symbol table looked up, at
    the first builder.  A rung's builder, called with a slice of first-axis
    planes (all of them by default), returns its (dimV, rows, N, ..., N)
    coefficients on those planes alone (_witness), so a caller can take a
    p = 2 norm slab by slab and hold no N^n field, or build the whole
    field, as witness_family does; either way every entry has the same
    bits.
    """
    probes, coefficients = _rungs(op, frequencies, grid, tol)[:2]
    symbols = factor = None
    if window is not None:
        factor = _bump_coefficients(grid, window)
        symbols = _symbol_tensor(op, grid)
    for freq, probe, coefficient in zip(frequencies, probes, coefficients):
        yield partial(_witness, op, grid, freq, probe, coefficient, symbols, factor)


def _witness(op: Operator, grid: Grid, freq: tuple[int, ...], probe: np.ndarray,
             coefficient: np.ndarray, symbols: np.ndarray | None, factor: np.ndarray | None,
             planes: slice = slice(None)) -> np.ndarray:
    """The witness rung at freq on the first-axis planes planes of the mesh: the one builder.

    An exact rung (factor None) writes its one coefficient if its frequency
    lies on those planes.  A windowed rung contracts the symbol table there
    with its probe into the real parts of its complex coefficients, then
    multiplies them in place by (-i)^k and by the factor rolled to the
    rung, one axis at a time (spectral._envelope), so no real copy, bump,
    envelope or rolled copy the size of the grid is made.
    """
    rows = range(grid.size)[planes]
    coeffs = np.zeros((op.dim_v, len(rows)) + grid.shape[1:], dtype=complex)
    if factor is None:
        at = tuple(x % grid.size for x in freq)
        if at[0] in rows:
            coeffs[(slice(None), at[0] - rows.start) + at[1:]] = coefficient
    else:
        np.einsum("...ij,i->j...", symbols[planes], probe, out=coeffs.real)
        coeffs *= (-1j) ** op.k
        _envelope(coeffs, factor, freq, planes)
    return coeffs


def build_frequency_ladder(op: Operator, witness: RankDropWitness,
                           rungs: int = 4) -> list[tuple[int, ...]]:
    """Integer frequencies approaching the witness's drop direction with doubling magnitude.

    Rung j targets 2^(j+1) * u rounded to integers, u = xi_low / |xi_low|.
    A rung is usable iff numerical_rank of the real symbol M there, at
    witness.tolerance (the cutoff of the profile the witness came from,
    which the counterexample command also hands _rungs to count each
    probe's rank with), is the generic rank witness.rank_high.  On the
    drop set the rank is lower, so the rung's probe (_rungs) would see a
    singular value that does not vanish there and the ratios would not
    grow.  A rung's candidates are, in order, the rounded frequency, its
    axis offsets +-e_i (i = 1..n, + before -) and its pair offsets +-e_i
    +-e_j (i < j, in lexicographic order of (i, j), then of the signs, +
    before -), and the first usable one is taken: the rounded frequency
    can lie exactly on a degenerate axis, and where two drop planes meet,
    as for d1 d2 on R^3 along e3, every axis offset stays on one of them.
    For the mixed second derivative with u = e1 this yields the family
    (m, 1), m = 2^(j+1).  Raises DegenerateProbeError when no candidate of a
    rung is usable, and ValueError unless rungs is an integer (not a bool)
    in [1, _MAX_RUNGS].  Every rung's 2n^2 + 1 candidates are ranked in one
    numerical_rank stack.
    """
    rungs = _check_int(rungs, "rungs", high=_MAX_RUNGS)
    u = np.asarray(witness.xi_low, dtype=float)
    u = u / np.linalg.norm(u)
    axes = np.eye(op.n, dtype=int)
    offsets = np.vstack([0 * axes[0]] + [s * e for e in axes for s in (1, -1)]
                        + [s * axes[i] + t * axes[j] for i, j in combinations(range(op.n), 2)
                           for s in (1, -1) for t in (1, -1)])
    scales = [2 ** (j + 1) for j in range(rungs)]
    cands = np.stack([np.rint(scale * u).astype(int) + offsets for scale in scales])
    # every rung's candidates in one rank stack, one row of candidates per rung
    ranks = numerical_rank(_real_stack(op, cands.reshape(-1, op.n)), witness.tolerance)
    ladder = []
    for scale, rung, rung_ranks in zip(scales, cands, ranks.reshape(rungs, -1)):
        usable = np.flatnonzero(rung_ranks == witness.rank_high)
        if not usable.size:
            raise DegenerateProbeError(
                f"{op.name}: no frequency of rank {witness.rank_high} near rung {scale} "
                f"of direction {tuple(float(x) for x in u)}")
        ladder.append(tuple(int(x) for x in rung[usable[0]]))
    return ladder


def l2_minimality_check(op: Operator, phi: GridField | FrequencyField, kernel_trials: int = 20,
                        seed: int = 0, tol: float = DEFAULT_TOL) -> bool:
    """Check that P_A phi minimizes ||D^k(phi - psi)||_2 over kernel fields psi.

    Competitors are kernel projections of seeded random band-limited
    fields.  Returns True when no competitor beats the canonical
    projection by more than _SLACK (1e-10, the one slack of every caller,
    the minimality command's included).  Raises ValueError, before the
    route is sized, unless kernel_trials is an integer (not a bool) at
    least 1: fewer competitors would compare nothing.
    Every norm here is L2, so the check runs on coefficients (_minimality
    on the whole mesh): phi is a GridField, transformed once, or its
    FrequencyField, and competitors are drawn as coefficients and projected
    with the cached projector table, one slab at a time.  As in
    estimate_ratio, phi is checked and the tables looked up before a
    GridField is transformed, so a table's builder sizes its build alone,
    and the route counts phi's coefficients, one competitor and the larger
    of a slab's trial and a draw's band work (_mesh_spectrum).
    """
    _check_int(kernel_trials, "kernel_trials")
    _check_field(op, phi, op.dim_v, "input")
    # phi and a competitor's draw are held whole beside one slab or the draw's band work
    spectrum = _mesh_spectrum(op, phi.grid, tol, 2.0, held=2 * op.dim_v, draws=True)
    freq = phi if isinstance(phi, FrequencyField) else forward_transform(phi)
    return _minimality(op, spectrum, freq.coeffs, kernel_trials, seed)


def _minimality(op: Operator, spectrum: _Spectrum, coeffs: np.ndarray, kernel_trials: int,
                seed: int) -> bool:
    """l2_minimality_check of the field with these coefficients on spectrum, as for _ratio.

    Each competitor is drawn on the same spectrum (spectrum.draw), and its
    projection and distance are taken one slab at a time; the slabs'
    weights give whole-mesh norms, which _SLACK is measured in.  A draw is
    dropped before the next is drawn, so the check holds one competitor,
    as the route's estimate counts.
    """
    def distance(field: np.ndarray) -> float:
        norms = []
        for planes, derivative_weights in spectrum.slabs():
            # phi minus the slab's projection of field, written over the projection
            kernel = _matvec(spectrum.projector[planes], field[:, planes])
            np.subtract(coeffs[:, planes], kernel, out=kernel)
            norms.append(_norm(kernel, weights=derivative_weights))
        return _slab_total(norms)

    base = distance(coeffs)
    for trial in range(kernel_trials):
        # trailing 1 keeps this seed stream disjoint from any [seed, trial]
        # stream a caller used for phi (SeedSequence drops trailing zeros)
        if base > distance(spectrum.draw(op.dim_v, [seed, trial, 1])) + _SLACK:
            return False
    return True


def _minimality_trials(op: Operator, size: int, trials: int, kernel_trials: int, seed: int,
                       tol: float) -> list[bool]:
    """l2_minimality_check of `trials` random fields, drawn, projected and measured on the band.

    The test fields on the size^n grid, trial t drawn from [seed, t], and
    their competitors are random band-limited fields with band N/4, so the
    check runs on that band's primaries (_band_spectrum): neither the N^n
    projector table nor a grid field is built.  An oversized route is
    refused before any field is drawn.  Returns each trial's outcome, with
    l2_minimality_check's _SLACK.
    """
    spectrum = _band_spectrum(op, Grid(op.n, size), size // 4, tol, 2.0)
    return [_minimality(op, spectrum, spectrum.draw(op.dim_v, [seed, trial]), kernel_trials, seed)
            for trial in range(trials)]


def _report(operator: str, context: str, p: float, size: int, seed: int | None, ratios, details,
            excluded: int = 0, parameters: dict | None = None) -> dict:
    """The JSON document of a ratio experiment on the size^n grid, its records indexed in order.

    ratios is a list, and record i holds ratios[i] with details[i]; trials
    counts the records and the excluded inputs, and verdict is None for the
    caller to set.  p is written as a float, or as "inf" at p = inf, so the
    document is strict JSON; with sorted keys the same inputs give
    byte-identical output.  Raises EmptyExperimentError when there is no
    ratio, and ValueError for a ratio that is not a finite nonnegative
    number.
    """
    if not ratios:
        raise EmptyExperimentError(f"{operator}: no completed trials to report")
    for index, ratio in enumerate(ratios):
        if not np.isfinite(ratio) or ratio < 0:
            raise ValueError(f"trial {index}: ratio {ratio} is not a finite nonnegative number")
    return {
        "operator": operator, "context": context,
        "p": float(p) if np.isfinite(p) else "inf",
        "grid_sizes": [size], "trials": len(ratios) + excluded, "seed": seed,
        "excluded": excluded, "verdict": None,
        "parameters": dict(sorted((parameters or {}).items())),
        "max_ratio": max(ratios),
        "records": [{"index": index, "grid_size": size, "detail": detail, "ratio": ratio}
                    for index, (detail, ratio) in enumerate(zip(details, ratios))],
    }


def ratio_sweep(op: Operator, p: float, trials: int, size: int, max_freq: int | None = None,
                seed: int = 0, tol: float = DEFAULT_TOL) -> dict:
    """Measure estimate_ratio on seeded random band-limited fields on the size^n grid.

    Runs `trials` fields; each trial derives its randomness from (seed,
    size, trial index).  The fields are those of random_band_limited with
    band max_freq (default N/4), drawn as their values at the band's
    primaries, one of each +-xi pair, and every ratio is taken by _ratio on
    those primaries (_band_spectrum): a p = 2 sweep never leaves the band,
    and any other p scatters each of its two grid fields into the half
    spectrum for one real inverse FFT.  Neither the N^n symbol table nor the
    projector table is built.  A trial count that is not an integer (not a
    bool) at least 1, a size Grid refuses, a band outside [1, N/4], p < 1
    or a tol pinv refuses, checked before the route is sized, or a route
    too large for memory is refused before its first field is drawn.
    Returns the report's JSON document (_report), verdict None: kernel
    inputs are excluded and counted, not recorded, so trials is the
    requested count, and grid_sizes is [size].
    """
    trials = _check_int(trials, "trials")
    grid = Grid(op.n, size)
    band = max_freq if max_freq is not None else grid.size // 4
    spectrum = _band_spectrum(op, grid, band, tol, p)
    ratios, details = [], []
    for trial in range(trials):
        phi = spectrum.draw(op.dim_v, [seed, grid.size, trial])
        try:
            ratios.append(_ratio(op, spectrum, phi, p, tol))
        except KernelInputError:
            continue
        details.append(f"seed={seed} N={grid.size} trial={trial}")
    return _report(op.name, CONTEXT_RANDOM_FIELDS, p, grid.size, seed, ratios, details,
                   excluded=trials - len(ratios),
                   parameters={"max_freq": "size//4" if max_freq is None else max_freq,
                               "tol": tol})
