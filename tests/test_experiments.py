import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrank import experiments, pinv, rank, spectral
from symrank.experiments import (DegenerateProbeError, EmptyExperimentError, KernelInputError,
                                 build_frequency_ladder, estimate_ratio, l2_minimality_check,
                                 ratio_sweep, witness_family)
from symrank.operators import Operator, _real_stack, parse_operator, symbol, symbol_stack
from symrank.pinv import kernel_projector
from symrank.rank import Verdict, find_rank_drop_witness, rank_profile, sphere_samples
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
# d1 d2 on R^3: its drop planes x1 = 0 and x2 = 0 meet along e3
D1D2_3D = parse_operator((Path(__file__).parent / "d1d2_3d.json").read_text())


def operator(name: str) -> Operator:
    if name == D1D2_3D.name:
        return D1D2_3D
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


@pytest.mark.parametrize("name, seed", [("laplacian", 3), ("curl", [0, 1])],
                         ids=["laplacian", "curl"])
def test_ratio_is_one_for_p2(name, seed):
    # |A(xi) c| = |xi|^k |c - P_A(xi) c| at every frequency; curl's 32^3 projector
    # table is built block by block, and a wrong in-band entry would show
    op = zoo_get(name)
    grid = Grid(op.n, 32)
    phi = random_band_limited(grid, op.dim_v, 8, seed=seed)
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
    spectral._symbol_tensor.cache_clear()
    with pytest.raises(ValueError, match="at least 1"):
        estimate_ratio(op, forward_transform(phi) if as_coefficients else phi, p)
    # p is checked before the route is sized, so no table is built
    assert spectral._symbol_tensor.cache_info().currsize == 0


def test_entry_points_check_their_arguments_before_sizing_a_route(monkeypatch):
    # an exponent below 1, a cutoff below pinv's floor or no competitor raises
    # ValueError before any route is sized: no estimate is made and no table built
    op = zoo_get("curl")
    phi = random_band_limited(Grid(3, 8), 3, 2, seed=8)
    estimates = []
    monkeypatch.setattr(spectral, "_refuse_beyond_memory",
                        lambda needed, subject, purpose: estimates.append(needed()))
    spectral._symbol_tensor.cache_clear()
    spectral._kernel_projector_table.cache_clear()
    for call, message in [(lambda: estimate_ratio(op, phi, 2.0, tol=1e-20), "tol must lie in"),
                          (lambda: l2_minimality_check(op, phi, kernel_trials=0), "at least 1"),
                          (lambda: l2_minimality_check(op, phi, tol=1e-20), "tol must lie in"),
                          (lambda: ratio_sweep(op, 0.5, 1, 8), "at least 1"),
                          (lambda: ratio_sweep(op, 3.0, 1, 8, tol=1e-20), "tol must lie in")]:
        with pytest.raises(ValueError, match=message):
            call()
    assert estimates == []
    assert spectral._symbol_tensor.cache_info().currsize == 0
    assert spectral._kernel_projector_table.cache_info().currsize == 0


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
    ratio_sweep(op, p=2.0, trials=3, size=8)
    assert calls == {"forward_transform": 0, "inverse_transform": 0, "_inverse": 0,
                     "_grid_norm": 0}
    ratio_sweep(op, p=3.0, trials=3, size=8)
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
    coeffs = spectral._random_coefficients(grid, op.dim_v, grid.size // 4, seed)
    return spectrum, values, spectral.FrequencyField(grid, coeffs)


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
    coeffs = spectral._random_coefficients(grid, op.dim_v, grid.size // 4, seed=[3, 1])
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


@pytest.mark.parametrize("n, frequencies, window, message", [
    (2, [(2, 1)], 2.0, "width"), (2, [(0, 0)], 0.5, "nonzero"), (3, [(1, 1, 1)], None, "axes")])
def test_witness_family_checks_its_arguments_before_it_sizes_the_route(n, frequencies, window,
                                                                       message):
    # a 2^200 grid cannot fit, yet an invalid argument is named there as on a small
    # grid, not read as out of memory
    op = zoo_get("d1d2")
    for size in (16, 2 ** 200):
        with pytest.raises(ValueError, match=message):
            witness_family(op, frequencies, Grid(n, size), window)


@pytest.mark.parametrize("freq", [(1.5, 2), (1, -2.5), (math.nan, 1), (math.inf, 1)])
def test_a_frequency_that_is_not_an_integer_vector_is_refused_not_truncated(freq):
    # (1.5, 2) was read as (1, 2); the exact and windowed ladders check the same way
    op, grid = zoo_get("d1d2"), Grid(2, 16)
    with pytest.raises(ValueError, match="frequencies must be nonzero integer vectors"):
        witness_family(op, [(2, 1), freq], grid)
    for window in (None, 0.5):
        with pytest.raises(ValueError, match="frequencies must be nonzero integer vectors"):
            experiments._ladder_ratios(op, [freq], 16, window, 2.0, pinv.DEFAULT_TOL)


def test_an_integer_valued_frequency_of_any_type_is_that_integer():
    op, grid = zoo_get("d1d2"), Grid(2, 16)
    want = witness_family(op, [(2, 1)], grid)[0].coeffs
    for freq in [(2.0, 1), (np.int64(2), np.float64(1.0)), np.array([2, 1])]:
        assert np.array_equal(witness_family(op, [freq], grid)[0].coeffs, want)


def test_rungs_are_checked_once_per_family_and_per_ladder(monkeypatch):
    # the callers check the rungs; the builder generator takes them checked
    op, rungs = zoo_get("d1d2"), [(2, 1), (4, 1)]
    calls = []
    check = experiments._check_rungs

    def counted(*args):
        calls.append(args[1])
        return check(*args)
    monkeypatch.setattr(experiments, "_check_rungs", counted)
    witness_family(op, rungs, Grid(2, 16), 0.5)
    for window in (None, 0.5):
        experiments._ladder_ratios(op, rungs, 16, window, 2.0, pinv.DEFAULT_TOL)
    assert calls == [rungs] * 3


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
    # a scalar symbol has rank at most 1, so no candidate has a claimed rank of 2
    witness = dataclasses.replace(witness_toward(op, (1.0, 0.0)), rank_high=2)
    with pytest.raises(DegenerateProbeError, match=r"no frequency of rank 2 near rung 2 "
                                                   r"of direction \(1\.0, 0\.0\)"):
        build_frequency_ladder(op, witness)


@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
def test_a_band_or_rung_count_that_is_not_an_integer_is_named(value):
    # a float or bool band reached numpy (IndexError, TypeError) or was read as 1, and a
    # float rung count raised TypeError; each is refused as a ValueError that names it
    op = zoo_get("d1d2")
    with pytest.raises(ValueError, match="max_freq must be an integer"):
        random_band_limited(Grid(2, 16), 1, value, 0)
    with pytest.raises(ValueError, match="max_freq must be an integer"):
        ratio_sweep(zoo_get("laplacian"), 2.0, 1, 16, max_freq=value)
    with pytest.raises(ValueError, match="rungs must be an integer"):
        build_frequency_ladder(op, witness_toward(op, (1.0, 0.0)), rungs=value)
    # numpy integers are integers
    assert build_frequency_ladder(op, witness_toward(op, (1.0, 0.0)), rungs=np.int64(2)) == [
        (2, 1), (4, 1)]
    assert random_band_limited(Grid(2, 16), 1, np.int32(2), 0).data.shape == (1, 16, 16)


# every count the library takes, each passing pinv._check_int: (call with the count, the
# name its messages use, a value the package misread or lost inside numpy, the message
# for 0, below every range)
COUNTS = {
    "Grid-n": (lambda v: Grid(v, 8), "n", True, "n must be at least 1"),
    "Grid-size": (lambda v: Grid(2, v), "size", np.float64(16.0),
                  "size must be a power of two, at least 4"),
    "apply_Dk-k": (lambda v: apply_Dk(v, random_band_limited(Grid(2, 8), 1, 2, 0)), "k", True,
                   "k must be at least 1"),
    "random_band_limited-fiber_dim": (lambda v: random_band_limited(Grid(2, 16), v, 2, 0),
                                      "fiber_dim", 1.5, "fiber_dim must be at least 1"),
    "random_band_limited-max_freq": (lambda v: random_band_limited(Grid(2, 16), 1, v, 0),
                                     "max_freq", 1.5, "max_freq must lie in [1, 4] on this grid"),
    "ratio_sweep-trials": (lambda v: ratio_sweep(zoo_get("laplacian"), 2.0, v, 16), "trials",
                           2.5, "trials must be at least 1"),
    "ratio_sweep-size": (lambda v: ratio_sweep(zoo_get("laplacian"), 2.0, 2, v), "size", 32.7,
                         "size must be a power of two, at least 4"),
    "ratio_sweep-max_freq": (lambda v: ratio_sweep(zoo_get("laplacian"), 2.0, 1, 16, max_freq=v),
                             "max_freq", 2.5, "max_freq must lie in [1, 4] on this grid"),
    "l2_minimality_check-kernel_trials": (
        lambda v: l2_minimality_check(zoo_get("laplacian"),
                                      random_band_limited(Grid(2, 8), 1, 2, 0), kernel_trials=v),
        "kernel_trials", 2.5, "kernel_trials must be at least 1"),
    "build_frequency_ladder-rungs": (
        lambda v: build_frequency_ladder(zoo_get("d1d2"),
                                         witness_toward(zoo_get("d1d2"), (1.0, 0.0)), rungs=v),
        "rungs", 2.5, "rungs must lie in [1, 52]"),
    "rank_profile-num_samples": (lambda v: rank_profile(zoo_get("d1d2"), num_samples=v),
                                 "num_samples", 100.5, "need num_samples >= n + 1 = 3"),
    "sphere_samples-num_random": (lambda v: sphere_samples(2, v), "num_random", 3.5,
                                  "need num_random >= n + 1 = 3"),
    "sphere_samples-n": (lambda v: sphere_samples(v, 8), "n", 1.5, "n must be at least 1"),
}


@pytest.mark.parametrize("entry", COUNTS)
def test_every_count_is_an_integer_in_its_range(entry):
    # a float count was truncated (ratio_sweep ran 32.7 as N = 32), raised TypeError inside
    # range() or numpy (trials, kernel_trials and fiber_dim at 2.5 or 1.5), or failed inside
    # numpy (num_samples 100.5, num_random 3.5); a bool was read as 1 (Grid(True, 8),
    # apply_Dk(True, phi), ratio_sweep's one trial); each is now a ValueError naming it
    call, name, misread, below = COUNTS[entry]
    for value in (2.0, True, misread):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer$"):
            call(value)
    with pytest.raises(ValueError, match=f"^{re.escape(below)}$"):
        call(0)


def test_a_numpy_integer_grid_is_the_int_grid():
    # Grid(2, np.int64(16)) was refused as "size must be a power of two, at least 4"
    grid = Grid(np.int32(2), np.int64(16))
    assert grid == Grid(2, 16) and hash(grid) == hash(Grid(2, 16))
    assert type(grid.n) is int and type(grid.size) is int
    # a count passes as the int it holds, so the report names the plain size
    assert ratio_sweep(zoo_get("laplacian"), 2.0, np.int64(1), np.int64(16))["grid_sizes"] == [16]


def test_the_witness_ranks_at_its_profiles_cutoff(monkeypatch):
    # the witness keeps the cutoff of the profile it came from, and the ladder and the
    # dagger bound rank at it, where each took its own tol, DEFAULT_TOL unless passed
    op = zoo_get("d1d2")
    tol = 1e-6
    witness = find_rank_drop_witness(op, rank_profile(op, num_samples=64, tol=tol))
    assert witness.tolerance == tol
    seen = []

    def spy(real):
        def spied(mat, tol=pinv.DEFAULT_TOL):
            seen.append((real.__name__, tol))
            return real(mat, tol)
        return spied

    monkeypatch.setattr(experiments, "numerical_rank", spy(pinv.numerical_rank))
    monkeypatch.setattr(rank, "pinv_svd", spy(pinv.pinv_svd))
    assert build_frequency_ladder(op, witness, rungs=2) == [(-2, 1), (-4, 1)]
    assert rank.daggerbound_check(op, witness)["holds"]
    assert seen == [("numerical_rank", tol), ("pinv_svd", tol)]


def test_a_cutoff_is_checked_before_the_route_is_sized_or_built():
    # witness_family sized its 2^200 grid, and apply_PA and apply_multiplier built the
    # symbol table, before pinv's cutoff refused the tol
    with pytest.raises(ValueError, match="tol must lie in"):
        witness_family(zoo_get("d1d2"), [(1, 2)], Grid(2, 2 ** 200), 0.5, tol=2.0)
    op = zoo_get("curl")
    phi = random_band_limited(Grid(3, 8), 3, 2, seed=8)
    image = apply_A(op, phi)
    spectral._symbol_tensor.cache_clear()
    for apply, field in ((apply_PA, phi), (spectral.apply_multiplier, image)):
        with pytest.raises(ValueError, match="tol must lie in"):
            apply(op, field, tol=2.0)
    assert spectral._symbol_tensor.cache_info().misses == 0


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
    assert calls == [6 * 9]
    calls.clear()
    ratios = experiments._ladder_ratios(op, ladder, 256, None, 2.0, pinv.DEFAULT_TOL)
    assert calls == [6]
    assert ratios == [experiments._ladder_ratios(op, [xi], 256, None, 2.0, pinv.DEFAULT_TOL)[0]
                      for xi in ladder]


@pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
@pytest.mark.parametrize("name, rungs, size", [
    (name, rungs, size) for size in (64, 256)
    for name, rungs in [("d1d2", [(2, 1), (16, 1)]), ("wave", [(4, 3), (12, 11)]),
                        ("lap_plus_d1d2", [(1, 4), (16, 1)])]]
    # a 3-D ladder's pair-offset rungs; 256^3 is too large for the whole-mesh reference
    + [("d1d2_3d", [(1, 1, -2), (1, 1, -8)], 32)])
def test_rung_ratio_is_the_whole_mesh_ratio_bitwise(name, rungs, p, size):
    # an exact rung measured on its one frequency equals the whole-mesh p = 2
    # ratio of its witness field bit for bit; a single mode has constant
    # modulus, so its whole-mesh ratio at any other p is the same up to rounding
    op = operator(name)
    grid = Grid(op.n, size)
    for xi, phi in zip(rungs, witness_family(op, rungs, grid)):
        ratio = experiments._ladder_ratios(op, [xi], grid.size, None, 2.0, pinv.DEFAULT_TOL)[0]
        assert ratio == estimate_ratio(op, phi, 2.0)
        assert math.isclose(ratio, estimate_ratio(op, phi, p), rel_tol=1e-14)


# ------------------------------------------------------------------ minimality

def test_l2_minimality_holds_on_zoo_samples():
    for name in ("divergence", "curl", "gradient"):
        op = zoo_get(name)
        grid = Grid(op.n, 8)
        phi = random_band_limited(grid, op.dim_v, 2, seed=2)
        assert l2_minimality_check(op, phi, kernel_trials=8, seed=0)


def test_l2_minimality_slack_handles_the_equality_competitor(monkeypatch):
    # when a competitor draw reproduces phi itself, its projection equals
    # the canonical one, so the comparison is an exact tie: the slack
    # tolerates it, a doctored negative slack flags it
    op = zoo_get("divergence")
    grid = Grid(3, 8)
    phi = random_band_limited(grid, 3, grid.size // 4, seed=[6, 0, 1])
    assert experiments._SLACK == 1e-10
    assert l2_minimality_check(op, phi, kernel_trials=1, seed=6)
    monkeypatch.setattr(experiments, "_SLACK", -1e-6)
    assert not l2_minimality_check(op, phi, kernel_trials=1, seed=6)


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
def test_l2_minimality_coefficient_route_matches_grid_composition(name, slack, monkeypatch):
    monkeypatch.setattr(experiments, "_SLACK", slack)
    op = zoo_get(name)
    grid = Grid(op.n, 8)
    # a generic field, and one that competitor 0 reproduces (an exact tie)
    for phi_seed in ([22, 0], [3, 0, 1]):
        phi = random_band_limited(grid, op.dim_v, grid.size // 4, seed=phi_seed)
        expected = grid_composition_minimality(op, phi, 3, 3, slack)
        assert l2_minimality_check(op, phi, kernel_trials=3, seed=3) is expected


@pytest.mark.parametrize("name", CONSTANT_RANK)
@pytest.mark.parametrize("slack", [1e-10, -1e-6])
def test_minimality_on_the_half_spectrum_matches_the_whole_mesh(name, slack, monkeypatch):
    # the fields the minimality command draws, and their competitors, are
    # random band-limited fields with band N/4, so the band's primaries give
    # l2_minimality_check's verdicts on the whole mesh
    monkeypatch.setattr(experiments, "_SLACK", slack)
    op = zoo_get(name)
    grid = Grid(op.n, 8)
    verdicts = []
    # a generic field, and one that competitor 0 reproduces (an exact tie)
    for phi_seed in ([22, 0], [3, 0, 1]):
        spectrum, values, freq = band_field(op, grid, phi_seed)
        expected = l2_minimality_check(op, freq, kernel_trials=3, seed=3)
        assert experiments._minimality(op, spectrum, values, 3, 3) is expected
        verdicts.append(expected)
    # the tie passes under the 1e-10 slack and fails under the negative one
    assert verdicts[1] is (slack > 0)


# ------------------------------------------------------------------ reports

def make_report(p=2.0):
    return experiments._report("demo", "RandomFields", p, 16, 0, [1.0, 2.5],
                               ["seed=0 N=16 trial=0", "seed=0 N=16 trial=1"],
                               parameters={"tol": 1e-10})


def test_report_round_trip_and_determinism():
    doc = make_report()
    assert doc == {
        "operator": "demo", "context": "RandomFields", "p": 2.0, "grid_sizes": [16],
        "trials": 2, "seed": 0, "excluded": 0, "verdict": None, "parameters": {"tol": 1e-10},
        "max_ratio": 2.5,
        "records": [{"index": 0, "grid_size": 16, "detail": "seed=0 N=16 trial=0", "ratio": 1.0},
                    {"index": 1, "grid_size": 16, "detail": "seed=0 N=16 trial=1", "ratio": 2.5}]}
    assert doc["max_ratio"] == 2.5
    assert doc["p"] == 2.0
    assert json.dumps(doc, sort_keys=True) == json.dumps(make_report(), sort_keys=True)
    # an integer p is written as a float, and excluded inputs count as trials
    other = experiments._report("demo", "RandomFields", 2, 16, 0, [1.0], ["d"], excluded=3)
    assert other["p"] == 2.0 and other["trials"] == 4 and other["excluded"] == 3


def test_report_inf_p_serializes_as_string():
    doc = make_report(p=math.inf)
    assert doc["p"] == "inf"
    json.dumps(doc)  # strict JSON, no Infinity token


def test_report_rejects_empty_and_invalid():
    with pytest.raises(EmptyExperimentError):
        experiments._report("demo", "RandomFields", 2.0, 16, 0, [], [])
    with pytest.raises(ValueError, match="finite"):
        experiments._report("demo", "RandomFields", 2.0, 16, 0, [float("nan")], ["d"])


# ------------------------------------------------------------------ sweeps

def test_ratio_sweep_divergence_exactness():
    report = ratio_sweep(zoo_get("divergence"), p=2.0, trials=5, size=16, seed=0)
    assert len(report["records"]) == 5
    assert report["excluded"] == 0
    assert all(math.isclose(r["ratio"], 1.0, rel_tol=1e-8) for r in report["records"])
    assert report["records"][0]["detail"] == "seed=0 N=16 trial=0"


def test_ratio_sweep_of_order_6_does_not_wrap():
    # the band N/4 of N = 8192 reaches |xi|^6 = 2^66: the band's derivatives are
    # formed from float64 frequencies, where int64 ones wrapped to a ratio of 0.173
    op = Operator(name="d6", n=1, k=6, dim_v=1, dim_w=1, terms=(((6,), ((1.0,),)),))
    ratios = [r["ratio"] for r in ratio_sweep(op, p=3.0, trials=2, size=8192)["records"]]
    assert len(ratios) == 2
    assert all(abs(ratio - 1.0) <= 1e-12 for ratio in ratios)


def test_ratio_sweep_on_one_grid():
    report = ratio_sweep(zoo_get("laplacian"), p=2.0, trials=3, size=16, seed=1)
    assert [r["grid_size"] for r in report["records"]] == [16, 16, 16]
    assert report["grid_sizes"] == [16]
    assert report["parameters"]["max_freq"] == "size//4"
    assert [r["index"] for r in report["records"]] == list(range(3))


def test_ratio_sweep_is_deterministic():
    a = ratio_sweep(zoo_get("curl"), p=1.5, trials=3, size=8, seed=4)
    b = ratio_sweep(zoo_get("curl"), p=1.5, trials=3, size=8, seed=4)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_ratio_sweep_seed_stability_for_constant_rank():
    op = zoo_get("divergence")
    a = ratio_sweep(op, p=3.0, trials=10, size=16, seed=0)
    b = ratio_sweep(op, p=3.0, trials=10, size=16, seed=99)
    assert a["max_ratio"] <= 2.0 * b["max_ratio"]
    assert b["max_ratio"] <= 2.0 * a["max_ratio"]


def test_ratio_sweep_counts_a_kernel_input_as_excluded_not_recorded():
    # at tol 0.81, four of curl's ten fields lie in its kernel to that tolerance
    report = ratio_sweep(zoo_get("curl"), 2.0, 10, 16, tol=0.81)
    assert report["trials"] == 10 and report["excluded"] == 4
    assert [r["index"] for r in report["records"]] == list(range(6))
    assert [r["detail"] for r in report["records"]] == [
        f"seed=0 N=16 trial={trial}" for trial in (2, 3, 4, 6, 7, 9)]


def test_ratio_sweep_validation():
    with pytest.raises(ValueError, match="trials"):
        ratio_sweep(zoo_get("divergence"), p=2.0, trials=0, size=16)


@given(st.sampled_from(["divergence", "curl"]), st.sampled_from([1.5, 2.0, 3.0]),
       st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_ratio_sweep_bounded_for_constant_rank(name, p, seed):
    report = ratio_sweep(zoo_get(name), p=p, trials=3, size=8, seed=seed)
    assert report["max_ratio"] < 10.0
