import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrank import experiments, pinv, rank, spectral
from symrank.experiments import (DegenerateProbeError, EmptyExperimentError, KernelInputError,
                                 TrialRecord, assemble_report, build_frequency_ladder,
                                 estimate_ratio, l2_minimality_check, ratio_sweep,
                                 witness_family)
from symrank.operators import Operator, _real_stack, parse_operator, symbol, symbol_stack
from symrank.pinv import kernel_projector
from symrank.rank import Verdict, find_rank_drop_witness, rank_profile
from symrank.spectral import (Grid, GridField, apply_A, apply_Dk, apply_PA, forward_transform,
                              lp_norm, periodic_bump, random_band_limited)
from symrank.zoo import zoo_get, zoo_list

from test_spectral import LINE

TWO_PI = 2.0 * math.pi
CONSTANT_RANK = [entry.name for entry in zoo_list()
                 if entry.expected_verdict is not Verdict.NON_CONSTANT_RANK]
NON_CONSTANT_RANK = [entry.name for entry in zoo_list()
                     if entry.expected_verdict is Verdict.NON_CONSTANT_RANK]
# rank 2 dropping to 1: sigma_max stays near |xi|^k at the drop, only sigma_2 vanishes
VECTOR_DROPS = {
    "lap_plus_d1d2": parse_operator((Path(__file__).parent / "lap_plus_d1d2.json").read_text()),
    "diag_d1_d1_plus_d2": Operator(name="diag_d1_d1_plus_d2", n=2, k=1, dim_v=2, dim_w=2,
                                   terms=(((1, 0), ((1.0, 0.0), (0.0, 1.0))),
                                          ((0, 1), ((0.0, 0.0), (0.0, 1.0))))),
}


def operator(name: str) -> Operator:
    return VECTOR_DROPS[name] if name in VECTOR_DROPS else zoo_get(name)


def symbol_bound(op: Operator, xi) -> float:
    """|xi|^k / sigma_r(A(xi)), r the rank of A(xi): plain numpy, the exact rung's ratio."""
    mat = symbol(op, np.array(xi, dtype=float))
    sigma = np.linalg.svd(mat, compute_uv=False)
    return float(np.linalg.norm(xi) ** op.k / sigma[np.linalg.matrix_rank(mat) - 1])


def raw_divergence_ratio(phi):
    """Independent p = 2 oracle for the divergence operator, plain numpy only.

    In frequency space the resolved part of phi is xi (xi . phi-hat) / |xi|^2,
    its first derivative array has norm |xi . phi-hat|, and A phi has
    coefficients i xi . phi-hat, so both sides can be summed directly.
    """
    grid = phi.grid
    axes = tuple(range(1, grid.n + 1))
    coeffs = np.fft.fftn(phi.data, axes=axes, norm="ortho")
    freqs = np.fft.fftfreq(grid.size, d=1.0 / grid.size)
    mesh = np.meshgrid(*([freqs] * grid.n), indexing="ij")
    dot = sum(mesh[j] * coeffs[j] for j in range(grid.n))
    numerator = math.sqrt(float(np.sum(np.abs(dot) ** 2)))
    denominator = math.sqrt(float(np.sum(np.abs(1j * dot) ** 2)))
    return numerator / denominator


# ------------------------------------------------------------------ estimate ratio

def test_divergence_ratio_is_one_and_matches_raw_oracle():
    op = zoo_get("divergence")
    grid = Grid(3, 16)
    for seed in range(5):
        phi = random_band_limited(grid, 3, 4, seed=seed)
        ratio = estimate_ratio(op, phi, 2.0)
        assert math.isclose(ratio, 1.0, rel_tol=1e-10)
        assert math.isclose(ratio, raw_divergence_ratio(phi), rel_tol=1e-10)


def test_laplacian_ratio_is_one_for_p2():
    op = zoo_get("laplacian")
    grid = Grid(2, 32)
    phi = random_band_limited(grid, 1, 8, seed=3)
    assert math.isclose(estimate_ratio(op, phi, 2.0), 1.0, rel_tol=1e-10)


def test_estimate_ratio_scale_invariance():
    op = zoo_get("curl")
    grid = Grid(3, 8)
    phi = random_band_limited(grid, 3, 2, seed=8)
    base = estimate_ratio(op, phi, 2.0)
    for t in (1e-3, 7.0, 250.0):
        assert math.isclose(estimate_ratio(op, GridField(phi.grid, t * phi.data), 2.0), base,
                            rel_tol=1e-12)


def test_estimate_ratio_rejects_kernel_fields():
    op = zoo_get("divergence")
    grid = Grid(3, 8)
    solenoidal = apply_PA(op, random_band_limited(grid, 3, 2, seed=1))
    with pytest.raises(KernelInputError):
        estimate_ratio(op, solenoidal, 2.0)


@pytest.mark.parametrize("p", [0.5, math.nan])
@pytest.mark.parametrize("as_coefficients", [False, True])
def test_estimate_ratio_rejects_p_below_one_or_nan(p, as_coefficients):
    op = zoo_get("curl")
    phi = random_band_limited(Grid(3, 8), 3, 2, seed=8)
    with pytest.raises(ValueError, match="at least 1"):
        estimate_ratio(op, forward_transform(phi) if as_coefficients else phi, p)


def grid_composition_ratio(op, phi, p):
    """Oracle: the estimate ratio composed from the public grid functions."""
    resolved = phi - apply_PA(op, phi)
    return lp_norm(apply_Dk(op.k, resolved), p) / lp_norm(apply_A(op, phi), p)


@pytest.mark.parametrize("name", CONSTANT_RANK)
@pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
def test_estimate_ratio_coefficient_route_matches_grid_composition(name, p):
    op = zoo_get(name)
    phi = random_band_limited(Grid(op.n, 8), op.dim_v, 2, seed=[21, 1])
    expected = grid_composition_ratio(op, phi, p)
    assert math.isclose(estimate_ratio(op, phi, p), expected, rel_tol=1e-13)
    assert math.isclose(estimate_ratio(op, forward_transform(phi), p), expected, rel_tol=1e-13)


def test_ratio_sweep_transforms_only_for_p_other_than_two(monkeypatch):
    # a ratio_sweep field goes to the grid only for a grid norm at p != 2, by
    # the band's own real inverse FFT; _inverse is the whole-mesh inverse of
    # a public estimate_ratio input, one call per row of D phi and of A phi
    op = zoo_get("curl")
    witness = witness_family(op, [(1, 2, -1)], Grid(3, 8))[0]
    calls = {"forward_transform": 0, "inverse_transform": 0, "_inverse": 0, "_grid_norm": 0}

    def counted(name):
        original = getattr(spectral, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        wrapper = counted(name)
        for module in (spectral, experiments):
            monkeypatch.setattr(module, name, wrapper, raising=False)
    ratio_sweep(op, p=2.0, trials=3, grid_sizes=[8])
    assert calls == {"forward_transform": 0, "inverse_transform": 0, "_inverse": 0,
                     "_grid_norm": 0}
    ratio_sweep(op, p=3.0, trials=3, grid_sizes=[8])
    assert calls == {"forward_transform": 0, "inverse_transform": 0, "_inverse": 0,
                     "_grid_norm": 2 * 3}
    estimate_ratio(op, witness, 3.0)
    assert calls == {"forward_transform": 0, "inverse_transform": 0, "_inverse": 9 + 3,
                     "_grid_norm": 2 * 3 + 2}


# ------------------------------------------------------------------ spectra
# The ratio pipeline runs on the whole mesh or, for the random fields that
# ratio_sweep and the minimality command draw, on the primaries of their band
# (one real inverse FFT of the half spectrum per grid field at p != 2).

def band_field(op: Operator, grid: Grid, seed, p=2.0):
    """The band spectrum with band N/4, a field drawn on it, and that field on the whole mesh."""
    spectrum = spectral._band_spectrum(op, grid, grid.size // 4, pinv.DEFAULT_TOL, p)
    values = spectrum.draw(op.dim_v, seed)
    return spectrum, values, spectral._random_coefficients(grid, op.dim_v, grid.size // 4, seed)


def is_real_band_limited(freq) -> bool:
    """Oracle: every Nyquist plane is zero and c(-xi) == conj(c(xi)) holds exactly."""
    size = freq.grid.size
    axes = tuple(range(1, freq.grid.n + 1))
    if any(freq.coeffs[(slice(None),) * axis + (size // 2,)].any() for axis in axes):
        return False
    negated = np.roll(np.flip(freq.coeffs, axes), 1, axes)
    return np.array_equal(negated.conj(), freq.coeffs)


# every zoo operator and a 1-D one, whose band route has no ifft pass
@pytest.mark.parametrize("name", [entry.name for entry in zoo_list()] + [LINE.name])
@pytest.mark.parametrize("N", [8, 16])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_real_route_matches_public_function_oracle(name, N, p):
    op = LINE if name == LINE.name else zoo_get(name)
    grid = Grid(op.n, N)
    spectrum, values, freq = band_field(op, grid, [N, 7], p)
    assert is_real_band_limited(freq)
    expected = grid_composition_ratio(op, spectral.inverse_transform(freq), p)
    assert math.isclose(experiments._ratio(op, spectrum, values, p, pinv.DEFAULT_TOL), expected,
                        rel_tol=1e-13)


def fields_off_the_real_route(op: Operator, grid: Grid) -> dict:
    """A random field with one Nyquist coefficient, one with a broken Hermitian pair, witnesses."""
    coeffs = spectral._random_coefficients(grid, op.dim_v, grid.size // 4, seed=[3, 1]).coeffs
    nyquist = coeffs.copy()
    # a real coefficient at (0, ..., 0, N/2) keeps the pair condition and the field real
    nyquist[(0,) * grid.n + (grid.size // 2,)] = 0.5
    broken = coeffs.copy()
    broken[(0,) + (1,) * grid.n] += 1e-3
    xi = (1, 2, -1)[:op.n]
    return {"nyquist": spectral.FrequencyField(grid, nyquist),
            "broken_pair": spectral.FrequencyField(grid, broken),
            "exact_witness": witness_family(op, [xi], grid)[0],
            "windowed_witness": witness_family(op, [xi], grid, window=0.5)[0]}


@pytest.mark.parametrize("name", ["curl", "d1d2", "wave"])
@pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
def test_fields_off_the_real_route_keep_the_complex_route(name, p):
    # the public function hands the pipeline the whole mesh, which is exact for
    # fields that the planes 0..N/2 do not fix
    op = zoo_get(name)
    grid = Grid(op.n, 16)
    for kind, freq in fields_off_the_real_route(op, grid).items():
        assert not is_real_band_limited(freq), kind
        ratio = estimate_ratio(op, freq, p)
        whole = experiments._ratio(op, spectral._mesh_spectrum(op, grid, pinv.DEFAULT_TOL, p),
                                   freq.coeffs, p, pinv.DEFAULT_TOL)
        assert ratio.hex() == whole.hex(), kind
        expected = grid_composition_ratio(op, spectral.inverse_transform(freq), p)
        assert math.isclose(ratio, expected, rel_tol=1e-13), kind


@pytest.mark.parametrize("whole", [False, True])
def test_non_finite_intermediate_raises_on_either_route(whole):
    # D^2 of coefficients near 1e307 overflows on the way to the grid
    op = zoo_get("laplacian")
    grid = Grid(2, 16)
    spectrum, values, freq = band_field(op, grid, 5, 3.0)
    if whole:
        spectrum, values = spectral._mesh_spectrum(op, grid, pinv.DEFAULT_TOL, 3.0), freq.coeffs
    assert values.shape[1:] == ((16, 16) if whole else (40,))
    with pytest.raises(ValueError, match="non-finite") as raised:
        experiments._ratio(op, spectrum, 1e307 * values, 3.0, pinv.DEFAULT_TOL)
    assert not isinstance(raised.value, KernelInputError)


# ------------------------------------------------------------------ symbol bound
# The exact single-mode witness at xi has the estimate ratio symbol_bound(op, xi) at every p.

def scaled(op: Operator, c: float) -> Operator:
    terms = tuple((alpha, tuple(tuple(c * x for x in row) for row in matrix))
                  for alpha, matrix in op.terms)
    return dataclasses.replace(op, terms=terms)


@pytest.mark.parametrize("c", [1e-200, 1e-160, 1.0, 1e160, 1e200])
def test_symbol_bound_ratio_frozen_examples(c):
    # A -> cA scales the ratio by exactly 1/c; unscaled norms of A A* u
    # underflow or overflow at these c.  d1d2 at (m, 1) gives (m^2 + 1)/m;
    # lap_plus_d1d2 at (1, m) gives the same through sigma_2 = m, where its
    # top singular value m^2 + 1 would give 1
    for name, xi, expected in (("d1d2", (4, 1), 4.25), ("d1d2", (1, 1), 2.0),
                               ("lap_plus_d1d2", (1, 4), 4.25), ("divergence", (3, -1, 2), 1.0)):
        op = scaled(operator(name), c)
        phi = witness_family(op, [xi], Grid(op.n, 16))[0]
        assert math.isclose(c * estimate_ratio(op, phi, 2.0), expected, rel_tol=1e-12)


def test_symbol_bound_ratio_scale_invariant_in_xi():
    for name, ladder in (("d1d2", [(4, 1), (8, 2)]), ("lap_plus_d1d2", [(1, 4), (2, 8)])):
        op = operator(name)
        a, b = (estimate_ratio(op, phi, 2.0) for phi in witness_family(op, ladder, Grid(2, 32)))
        assert math.isclose(a, b, rel_tol=1e-12)


def test_symbol_bound_equals_estimate_ratio_on_single_modes():
    # every rung of every drop ladder has the generic rank, and its exact
    # witness has the symbol bound as its ratio at every p
    for name in NON_CONSTANT_RANK + list(VECTOR_DROPS):
        op = operator(name)
        profile = rank_profile(op)
        ladder = build_frequency_ladder(op, find_rank_drop_witness(op, profile))
        ranks = [np.linalg.matrix_rank(symbol(op, np.array(xi, float))) for xi in ladder]
        assert ranks == [profile.max_rank] * len(ladder), name
        for xi, phi in zip(ladder, witness_family(op, ladder, Grid(op.n, 64))):
            for p in (1.0, 2.0, 3.0, math.inf):
                assert math.isclose(estimate_ratio(op, phi, p), symbol_bound(op, xi),
                                    rel_tol=1e-12), (name, xi, p)


# ------------------------------------------------------------------ witness families

def single_mode_column(grid, phi, xi):
    """The one nonzero coefficient column of a witness, which must sit at xi's fft index."""
    index = tuple(x % grid.size for x in xi)
    nonzero = np.flatnonzero(np.abs(phi.coeffs).reshape(phi.fiber_dim, -1).max(axis=0))
    assert nonzero.tolist() == [np.ravel_multi_index(index, grid.shape)]
    return phi.coeffs[(slice(None),) + index]


def test_witness_family_single_mode_annihilates_projection():
    # the one coefficient A*(xi) u lies in the range of A*(xi), orthogonal to ker A(xi)
    for name, xi in (("divergence", (1, 0, 2)), ("d1d2", (4, 1)), ("lap_plus_d1d2", (1, 4))):
        op = operator(name)
        grid = Grid(op.n, 16)
        phi = witness_family(op, [xi], grid)[0]
        column = single_mode_column(grid, phi, xi)
        projector = kernel_projector(symbol(op, np.array(xi, float)))
        assert np.linalg.norm(projector @ column) < 1e-10 * np.linalg.norm(column)


def test_witness_family_rejects_unresolvable_frequency():
    op = zoo_get("d1d2")
    grid = Grid(2, 16)
    with pytest.raises(ValueError, match="unresolvable"):
        witness_family(op, [(8, 1)], grid)


def test_witness_family_rejects_degenerate_frequency():
    # the symbol vanishes on the axes, so there is no probe at (4, 0)
    op = zoo_get("d1d2")
    grid = Grid(2, 16)
    with pytest.raises(DegenerateProbeError):
        witness_family(op, [(4, 0)], grid)


def probe(op: Operator, xi) -> np.ndarray:
    """u_{r-1} of M(xi), r its rank, times the power of two bringing sigma_max into [0.5, 1).

    M is the real factor of A = i^k M, decomposed by the package's SVD route,
    so u_{r-1} is the left singular vector of A(xi) the witness uses.
    """
    real = _real_stack(op, [xi])[0]
    u, sigma, _ = pinv._svd(real, want_u=True)
    return u[:, np.linalg.matrix_rank(real) - 1] * 2.0 ** -math.frexp(sigma[0])[1]


@pytest.mark.parametrize("name, xi", [("divergence", (1, 2, 3)), ("curl", (2, 1, -1)),
                                      ("d1d2", (4, 1)), ("symmetric_gradient", (3, 2)),
                                      ("wave", (3, 1)), ("lap_plus_d1d2", (1, 4)),
                                      ("diag_d1_d1_plus_d2", (-3, 1))])
@pytest.mark.parametrize("rescaled", [False, True])
def test_exact_witness_is_the_closed_form_single_mode(name, xi, rescaled):
    # the field's one coefficient is A*(xi) u_{r-1}, so the ratio is the symbol
    # bound; the power-of-two scaling keeps it so where A A* u would
    # underflow or overflow (A -> 1e-200 A and 1e200 A)
    grid = Grid(len(xi), 16)
    for c in (1e-200, 1e200) if rescaled else (1.0,):
        op = scaled(operator(name), c)
        mat = symbol(op, np.array(xi, dtype=float))
        phi = witness_family(op, [xi], grid)[0]
        np.testing.assert_array_equal(single_mode_column(grid, phi, xi),
                                      mat.conj().T @ probe(op, xi) * TWO_PI ** (op.n / 2.0))
        # written directly, the coefficient has the bytes of the whole symbol table
        # contracted with the probe times the unit envelope rolled to xi
        envelope = np.zeros(grid.shape, dtype=complex)
        envelope[(0,) * grid.n] = TWO_PI ** (grid.n / 2.0)
        contracted = (-1j) ** op.k * np.einsum("...ij,i->j...", spectral._symbol_tensor(op, grid),
                                               probe(op, xi), order="C")
        contracted *= np.roll(envelope, xi, axis=tuple(range(grid.n)))
        assert (single_mode_column(grid, phi, xi).tobytes()
                == single_mode_column(grid, spectral.FrequencyField(grid, contracted), xi).tobytes())
        for p in (1.0, 2.0, 3.0, math.inf):
            assert math.isclose(estimate_ratio(op, phi, p), symbol_bound(op, xi), rel_tol=1e-12)


@pytest.mark.parametrize("name, xi", [("d1d2", (-5, 3)), ("d1d2", (4, -6)),
                                      ("curl", (2, -1, -3)), ("curl", (-3, 0, 2)),
                                      ("lap_plus_d1d2", (3, -5)), ("diag_d1_d1_plus_d2", (-2, 7))])
def test_windowed_witness_obeys_the_shift_theorem(name, xi):
    # oracle: the grid construction itself, bump * exp(i x.xi) * probe, forward
    # transformed with plain numpy, then A*(eta) applied at every frequency eta
    op = operator(name)
    grid = Grid(op.n, 32 if op.n == 2 else 16)
    axis = TWO_PI * np.arange(grid.size) / grid.size
    x = np.meshgrid(*([axis] * grid.n), indexing="ij")
    wave = periodic_bump(grid, 0.5) * np.exp(1j * sum(f * c for f, c in zip(xi, x)))
    scale = (TWO_PI / grid.size) ** (grid.n / 2.0)
    wave_hat = np.fft.fftn(wave, norm="ortho") * scale
    eta = np.stack(np.meshgrid(*([np.fft.fftfreq(grid.size, 1.0 / grid.size)] * grid.n),
                               indexing="ij")).reshape(grid.n, -1)
    mats = symbol_stack(op, eta.T.astype(float))
    expected = np.einsum("sij,i,s->js", mats.conj(), probe(op, xi),
                         wave_hat.ravel())
    phi = witness_family(op, [xi], grid, window=0.5)[0]
    got = phi.coeffs.reshape(op.dim_v, -1)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_windowed_witness_is_built_in_its_complex_field():
    # curl's 32^3 rung (1.5 MiB) is contracted into the real parts of its own
    # complex field, then multiplied there by the phase and the envelope, where a
    # real contraction and its complex copy held 1.5 times the field; the
    # envelope's broadcast multiplies take no 128 KiB numpy iteration buffer
    op, grid = zoo_get("curl"), Grid(3, 32)

    def build():
        # the rung's builder, asked for the whole field
        return next(experiments._witness_fields(op, [(3, 1, 1)], grid, 0.5, pinv.DEFAULT_TOL))()

    build()  # the symbol table and first-call caches
    tracemalloc.start()
    try:
        phi = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= phi.nbytes + 2 ** 16


def test_witness_config_validation():
    op = zoo_get("d1d2")
    grid = Grid(2, 16)
    with pytest.raises(ValueError, match="nonempty"):
        witness_family(op, [], grid)
    with pytest.raises(ValueError, match="nonzero"):
        witness_family(op, [(0, 0)], grid)
    with pytest.raises(ValueError, match="width"):
        witness_family(op, [(1, 1)], grid, window=1.5)


def test_windowed_witness_converges_to_single_mode_value():
    # localized version of the witness: ratio approaches the single-mode
    # value as the window widens; at generic frequencies half the torus is
    # already within 10 percent
    op = zoo_get("d1d2")
    grid = Grid(2, 64)
    xi0 = (12, 6)
    target = symbol_bound(op, xi0)
    diffs = []
    for width in (0.5, 0.75, 1.0):
        phi = witness_family(op, [xi0], grid, window=width)[0]
        ratio = estimate_ratio(op, phi, 2.0)
        diffs.append(abs(ratio - target) / target)
    assert all(diff <= 0.10 for diff in diffs)
    assert diffs[-1] < diffs[0]  # widening the window tightens the match


# ------------------------------------------------------------------ ladders

def witness_toward(op: Operator, direction):
    """op's rank-drop witness, with its drop direction replaced by direction."""
    witness = find_rank_drop_witness(op, rank_profile(op))
    return dataclasses.replace(witness, xi_low=np.array(direction, dtype=float))


def test_ladder_d1d2_axis_direction():
    op = zoo_get("d1d2")
    assert build_frequency_ladder(op, witness_toward(op, (1.0, 0.0))) == [
        (2, 1), (4, 1), (8, 1), (16, 1)]
    assert build_frequency_ladder(op, witness_toward(op, (0.0, 1.0)), rungs=2) == [(1, 2), (1, 4)]


def test_ladder_wave_diagonal_direction():
    op = zoo_get("wave")
    assert build_frequency_ladder(op, witness_toward(op, (1.0, 1.0))) == [
        (2, 1), (4, 3), (7, 6), (12, 11)]


def test_ladder_generic_direction_needs_no_offset():
    op = zoo_get("d1d2")
    ladder = build_frequency_ladder(op, witness_toward(op, (0.8, 0.6)), rungs=3)
    assert ladder == [(2, 1), (3, 2), (6, 5)]


def test_ladder_validation():
    op = zoo_get("d1d2")
    for rungs in (0, 53, 1100):
        with pytest.raises(ValueError, match=r"rungs must lie in \[1, 52\]"):
            build_frequency_ladder(op, witness_toward(op, (1.0, 0.0)), rungs=rungs)


def test_d1d2_ladder_ratios_closed_form():
    # single modes at (m, 1) give exactly (m^2 + 1)/m at every p
    op = zoo_get("d1d2")
    grid = Grid(2, 64)
    ladder = [(2, 1), (4, 1), (8, 1), (16, 1)]
    fields = witness_family(op, ladder, grid)
    for p in (1.0, 2.0, math.inf):
        ratios = [estimate_ratio(op, phi, p) for phi in fields]
        for (m, _), ratio in zip(ladder, ratios):
            assert math.isclose(ratio, (m * m + 1) / m, rel_tol=1e-10)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] / ratios[0] >= 4.0


def test_a_ladder_decomposes_its_rungs_once(monkeypatch):
    # six rungs: their candidates are ranked in one stack, and every rung's probe,
    # rank and kernel projector come from one decomposition of the rungs' stack,
    # two _svd calls where one per rung and table took eighteen
    op = zoo_get("d1d2")
    witness = witness_toward(op, (1.0, 0.0))
    calls = []
    svd = pinv._svd

    def counted(mats, want_u=False, want_vh=False):
        calls.append(len(mats))
        return svd(mats, want_u, want_vh)

    # every module's binding of _svd, so a call from outside pinv is counted too
    for module in (pinv, experiments, spectral, rank):
        if hasattr(module, "_svd"):
            monkeypatch.setattr(module, "_svd", counted)
    ladder = build_frequency_ladder(op, witness, rungs=6)
    assert calls == [6 * 5]
    calls.clear()
    ratios = experiments._rung_ratios(op, Grid(2, 256), ladder, pinv.DEFAULT_TOL)
    assert calls == [6]
    assert ratios == [experiments._rung_ratios(op, Grid(2, 256), [xi], pinv.DEFAULT_TOL)[0]
                      for xi in ladder]


@pytest.mark.parametrize("size", [64, 256])
@pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
@pytest.mark.parametrize("name, rungs", [("d1d2", [(2, 1), (16, 1)]),
                                         ("wave", [(4, 3), (12, 11)]),
                                         ("lap_plus_d1d2", [(1, 4), (16, 1)])])
def test_rung_ratio_is_the_whole_mesh_ratio_bitwise(name, rungs, p, size):
    # an exact rung measured on its one frequency equals the whole-mesh p = 2
    # ratio of its witness field bit for bit; a single mode has constant
    # modulus, so its whole-mesh ratio at any other p is the same up to rounding
    op = operator(name)
    grid = Grid(op.n, size)
    for xi, phi in zip(rungs, witness_family(op, rungs, grid)):
        ratio = experiments._rung_ratios(op, grid, [xi], pinv.DEFAULT_TOL)[0]
        assert ratio == estimate_ratio(op, phi, 2.0)
        assert math.isclose(ratio, estimate_ratio(op, phi, p), rel_tol=1e-14)


# ------------------------------------------------------------------ minimality

def test_l2_minimality_holds_on_zoo_samples():
    for name in ("divergence", "curl", "gradient"):
        op = zoo_get(name)
        grid = Grid(op.n, 8)
        phi = random_band_limited(grid, op.dim_v, 2, seed=2)
        assert l2_minimality_check(op, phi, kernel_trials=8, seed=0)


def test_l2_minimality_slack_handles_the_equality_competitor():
    # when a competitor draw reproduces phi itself, its projection equals
    # the canonical one, so the comparison is an exact tie: default slack
    # tolerates it, a doctored negative slack flags it
    op = zoo_get("divergence")
    grid = Grid(3, 8)
    phi = random_band_limited(grid, 3, grid.size // 4, seed=[6, 0, 1])
    assert l2_minimality_check(op, phi, kernel_trials=1, seed=6)
    assert not l2_minimality_check(op, phi, kernel_trials=1, seed=6, slack=-1e-6)


def grid_composition_minimality(op, phi, kernel_trials, seed, slack):
    """Oracle: l2_minimality_check composed from the public grid functions."""
    base = lp_norm(apply_Dk(op.k, phi - apply_PA(op, phi)), 2)
    for trial in range(kernel_trials):
        raw = random_band_limited(phi.grid, op.dim_v, phi.grid.size // 4, seed=[seed, trial, 1])
        if base > lp_norm(apply_Dk(op.k, phi - apply_PA(op, raw)), 2) + slack:
            return False
    return True


@pytest.mark.parametrize("name", CONSTANT_RANK)
@pytest.mark.parametrize("slack", [1e-10, -1e-6])
def test_l2_minimality_coefficient_route_matches_grid_composition(name, slack):
    op = zoo_get(name)
    grid = Grid(op.n, 8)
    # a generic field, and one that competitor 0 reproduces (an exact tie)
    for phi_seed in ([22, 0], [3, 0, 1]):
        phi = random_band_limited(grid, op.dim_v, grid.size // 4, seed=phi_seed)
        expected = grid_composition_minimality(op, phi, 3, 3, slack)
        assert l2_minimality_check(op, phi, kernel_trials=3, seed=3, slack=slack) is expected


@pytest.mark.parametrize("name", CONSTANT_RANK)
@pytest.mark.parametrize("slack", [1e-10, -1e-6])
def test_minimality_on_the_half_spectrum_matches_the_whole_mesh(name, slack):
    # the fields the minimality command draws, and their competitors, are
    # random band-limited fields with band N/4, so the band's primaries give
    # l2_minimality_check's verdicts on the whole mesh
    op = zoo_get(name)
    grid = Grid(op.n, 8)
    verdicts = []
    # a generic field, and one that competitor 0 reproduces (an exact tie)
    for phi_seed in ([22, 0], [3, 0, 1]):
        spectrum, values, freq = band_field(op, grid, phi_seed)
        expected = l2_minimality_check(op, freq, kernel_trials=3, seed=3, slack=slack)
        assert experiments._minimality(op, spectrum, values, 3, 3, slack) is expected
        verdicts.append(expected)
    # the tie passes under the default slack and fails under the negative one
    assert verdicts[1] is (slack > 0)


# ------------------------------------------------------------------ reports

def make_report(p=2.0):
    records = [TrialRecord(index=0, grid_size=16, detail="seed=0 N=16 trial=0", ratio=1.0),
               TrialRecord(index=1, grid_size=16, detail="seed=0 N=16 trial=1", ratio=2.5)]
    return assemble_report(operator="demo", context="RandomFields", p=p, grid_sizes=[16],
                           trials=2, seed=0, records=records, parameters={"tol": 1e-10})


def test_report_round_trip_and_determinism():
    report = make_report()
    doc = report.to_dict()
    assert doc["max_ratio"] == 2.5
    assert doc["p"] == 2.0
    assert json.dumps(doc, sort_keys=True) == json.dumps(make_report().to_dict(), sort_keys=True)


def test_report_inf_p_serializes_as_string():
    doc = make_report(p=math.inf).to_dict()
    assert doc["p"] == "inf"
    json.dumps(doc)  # strict JSON, no Infinity token


def test_report_csv_rows():
    rows = make_report().csv_rows()
    assert rows[0] == "index,grid_size,detail,ratio"
    assert len(rows) == 3
    assert rows[2].startswith("1,16,seed=0 N=16 trial=1,")
    # repr round-trips the float exactly
    assert float(rows[2].rsplit(",", 1)[1]) == 2.5


def test_report_rejects_empty_and_invalid():
    with pytest.raises(EmptyExperimentError):
        assemble_report(operator="demo", context="RandomFields", p=2.0, grid_sizes=[16],
                        trials=0, seed=0, records=[])
    bad = [TrialRecord(index=0, grid_size=16, detail="d", ratio=float("nan"))]
    with pytest.raises(ValueError, match="finite"):
        assemble_report(operator="demo", context="RandomFields", p=2.0, grid_sizes=[16],
                        trials=1, seed=0, records=bad)


# ------------------------------------------------------------------ sweeps

def test_ratio_sweep_divergence_exactness():
    report = ratio_sweep(zoo_get("divergence"), p=2.0, trials=5, grid_sizes=[16], seed=0)
    assert len(report.records) == 5
    assert report.excluded == 0
    assert all(math.isclose(r, 1.0, rel_tol=1e-8) for r in report.ratios)
    assert report.records[0].detail == "seed=0 N=16 trial=0"


def test_ratio_sweep_of_order_6_does_not_wrap():
    # the band N/4 of N = 8192 reaches |xi|^6 = 2^66: the band's derivatives are
    # formed from float64 frequencies, where int64 ones wrapped to a ratio of 0.173
    op = Operator(name="d6", n=1, k=6, dim_v=1, dim_w=1, terms=(((6,), ((1.0,),)),))
    report = ratio_sweep(op, p=3.0, trials=2, grid_sizes=[8192])
    assert len(report.ratios) == 2
    assert all(abs(ratio - 1.0) <= 1e-12 for ratio in report.ratios)


def test_ratio_sweep_multiple_grid_sizes():
    report = ratio_sweep(zoo_get("laplacian"), p=2.0, trials=3, grid_sizes=[8, 16], seed=1)
    assert [r.grid_size for r in report.records] == [8, 8, 8, 16, 16, 16]
    assert report.parameters["max_freq"] == "size//4"
    assert [r.index for r in report.records] == list(range(6))


def test_ratio_sweep_is_deterministic():
    a = ratio_sweep(zoo_get("curl"), p=1.5, trials=3, grid_sizes=[8], seed=4)
    b = ratio_sweep(zoo_get("curl"), p=1.5, trials=3, grid_sizes=[8], seed=4)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_ratio_sweep_seed_stability_for_constant_rank():
    op = zoo_get("divergence")
    a = ratio_sweep(op, p=3.0, trials=10, grid_sizes=[16], seed=0)
    b = ratio_sweep(op, p=3.0, trials=10, grid_sizes=[16], seed=99)
    assert a.max_ratio <= 2.0 * b.max_ratio
    assert b.max_ratio <= 2.0 * a.max_ratio


def test_ratio_sweep_validation():
    with pytest.raises(ValueError, match="trials"):
        ratio_sweep(zoo_get("divergence"), p=2.0, trials=0, grid_sizes=[16])
    with pytest.raises(ValueError, match="nonempty"):
        ratio_sweep(zoo_get("divergence"), p=2.0, trials=1, grid_sizes=[])


@given(st.sampled_from(["divergence", "curl"]), st.sampled_from([1.5, 2.0, 3.0]),
       st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_ratio_sweep_bounded_for_constant_rank(name, p, seed):
    report = ratio_sweep(zoo_get(name), p=p, trials=3, grid_sizes=[8], seed=seed)
    assert report.max_ratio < 10.0
