import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrank import spectral
from symrank.operators import _real_factor, multi_indices, symbol
from symrank.pinv import DEFAULT_TOL, kernel_projector, numerical_rank
from symrank.spectral import (Grid, GridField, FrequencyField, apply_A, apply_A_adjoint,
                              apply_Dk, apply_PA, apply_multiplier, forward_transform,
                              inverse_transform, integer_frequencies, lp_norm, mode_index,
                              periodic_bump, random_band_limited, single_mode,
                              _kernel_projector_table, _symbol_tensor)
from symrank.zoo import zoo_get, zoo_list

from decell import pinv_decell

TWO_PI = 2.0 * math.pi


def grid_inner(a: GridField, b: GridField) -> complex:
    """L2 inner product as a plain Riemann sum."""
    return complex(np.sum(a.data.conj() * b.data) * a.grid.cell_volume)


def raw_coeffs(grid: Grid, data: np.ndarray) -> np.ndarray:
    """Independent transform: plain numpy fft with the package's normalization."""
    axes = tuple(range(1, grid.n + 1))
    return np.fft.fftn(data, axes=axes, norm="ortho") * (TWO_PI / grid.size) ** (grid.n / 2)


# ------------------------------------------------------------------ grids

def test_grid_validation():
    grid = Grid(2, 8)
    assert grid.shape == (8, 8)
    assert math.isclose(grid.cell_volume, (TWO_PI / 8) ** 2)
    assert math.isclose(grid.spacing, TWO_PI / 8)
    for bad in (3, 6, 2, 0, -8):
        with pytest.raises(ValueError, match="power of two"):
            Grid(2, bad)
    with pytest.raises(ValueError, match="positive"):
        Grid(0, 8)


def test_integer_frequencies_layout():
    grid = Grid(1, 8)
    assert list(integer_frequencies(grid)[0]) == [0, 1, 2, 3, -4, -3, -2, -1]


def test_gridfield_validation():
    grid = Grid(2, 4)
    with pytest.raises(ValueError, match="shape"):
        GridField(grid, np.zeros((4, 4)))  # missing fiber axis
    with pytest.raises(ValueError, match="non-finite"):
        GridField(grid, np.full((1, 4, 4), np.nan))
    with pytest.raises(ValueError, match="fiber_weights"):
        GridField(grid, np.zeros((2, 4, 4)), np.array([1.0]))
    a = GridField(grid, np.ones((1, 4, 4)))
    b = GridField(Grid(2, 8), np.ones((1, 8, 8)))
    with pytest.raises(ValueError, match="different grids"):
        a + b


# ------------------------------------------------------------------ transform

def test_parseval_identity():
    grid = Grid(2, 16)
    phi = random_band_limited(grid, 3, 4, seed=0)
    coeffs = forward_transform(phi).coeffs
    assert math.isclose(lp_norm(phi, 2), float(np.linalg.norm(coeffs)), rel_tol=1e-12)


def test_transform_round_trip():
    grid = Grid(3, 8)
    phi = random_band_limited(grid, 2, 2, seed=1)
    back = inverse_transform(forward_transform(phi))
    assert np.abs(back.data - phi.data).max() < 1e-13
    freq = forward_transform(phi)
    again = forward_transform(inverse_transform(freq))
    assert np.abs(again.coeffs - freq.coeffs).max() < 1e-13


def test_forward_transform_matches_raw_numpy():
    grid = Grid(2, 8)
    phi = random_band_limited(grid, 1, 2, seed=4)
    assert np.allclose(forward_transform(phi).coeffs, raw_coeffs(grid, phi.data), atol=1e-14)


def test_single_mode_values_and_norm():
    grid = Grid(2, 8)
    xi = (1, -2)
    phi = single_mode(grid, xi, 1.0)
    x = np.arange(8) * grid.spacing
    xx, yy = np.meshgrid(x, x, indexing="ij")
    expected = np.exp(1j * (xi[0] * xx + xi[1] * yy))
    assert np.abs(phi.data[0] - expected).max() < 1e-12
    # |e^{i x xi}| = 1, so the L2 norm is the measure of the torus squarerooted
    assert math.isclose(lp_norm(phi, 2), TWO_PI ** (2 / 2), rel_tol=1e-12)
    assert math.isclose(lp_norm(phi, math.inf), 1.0, rel_tol=1e-12)


def test_single_mode_coefficient_placement():
    grid = Grid(2, 8)
    coeffs = forward_transform(single_mode(grid, (3, -4), 2.0)).coeffs
    idx = mode_index(grid, (3, -4))
    assert math.isclose(abs(coeffs[(0,) + idx]), 2.0 * TWO_PI ** (2 / 2), rel_tol=1e-12)
    coeffs[(0,) + idx] = 0.0
    assert np.abs(coeffs).max() < 1e-12


def test_mode_index_bounds():
    grid = Grid(2, 8)
    assert mode_index(grid, (-4, 3)) == (4, 3)
    with pytest.raises(ValueError, match="outside"):
        mode_index(grid, (4, 0))
    with pytest.raises(ValueError, match="length"):
        mode_index(grid, (1,))


# ------------------------------------------------------------------ norms

def test_lp_norm_constant_field():
    grid = Grid(2, 4)
    phi = GridField(grid, np.full((1, 4, 4), 3.0, dtype=complex))
    for p in (1.0, 2.0, 3.5):
        assert math.isclose(lp_norm(phi, p), 3.0 * TWO_PI ** (2 / p), rel_tol=1e-12)
    assert math.isclose(lp_norm(phi, math.inf), 3.0, rel_tol=1e-12)
    # |f|^p overflows or underflows at these scales and exponents unless it is normalised first
    for p, scale in itertools.product((400.0, 1e4), (1e-10, 1.0, 1e10)):
        assert math.isclose(lp_norm(phi * scale, p), scale * 3.0 * TWO_PI ** (2 / p), rel_tol=1e-12)
    for p in (0.5, math.nan):
        with pytest.raises(ValueError, match="at least 1"):
            lp_norm(phi, p)


@given(st.floats(-8.0, 8.0), st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
       st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_lp_norm_absolute_homogeneity(t, p, seed):
    grid = Grid(2, 8)
    phi = random_band_limited(grid, 2, 2, seed=seed)
    assert math.isclose(lp_norm(phi * t, p), abs(t) * lp_norm(phi, p),
                        rel_tol=1e-10, abs_tol=1e-12)


def test_pointwise_norm_scales_each_point_by_its_own_max():
    # one scale for the whole field squares 1e-200 and 3e-170 to zero next to 1
    values = [1.0, 1e-200, 3e-170, 0.0]
    norm = GridField(Grid(1, 4), [values]).pointwise_norm()
    assert np.allclose(norm, values, rtol=1e-15, atol=0.0)


def test_fiber_weights_enter_pointwise_norm():
    grid = Grid(1, 4)
    data = np.ones((2, 4), dtype=complex)
    weighted = GridField(grid, data, np.array([4.0, 9.0]))
    assert np.allclose(weighted.pointwise_norm(), math.sqrt(13.0))


# ------------------------------------------------------------------ operators

def test_apply_A_on_single_mode_is_symbol_action():
    for name in ("divergence", "curl", "laplacian", "symmetric_gradient", "wave"):
        op = zoo_get(name)
        grid = Grid(op.n, 8)
        xi = tuple(2 if i == 0 else 1 for i in range(op.n))
        v = np.arange(1, op.dim_v + 1).astype(complex)
        phi = single_mode(grid, xi, v)
        out = apply_A(op, phi)
        expected = single_mode(grid, xi, symbol(op, np.array(xi, float)) @ v)
        assert np.abs(out.data - expected.data).max() < 1e-10


def test_apply_A_gradient_matches_raw_spectral_derivative():
    # independent implementation: differentiate with plain numpy ffts
    grid = Grid(2, 16)
    phi = random_band_limited(grid, 1, 4, seed=9)
    coeffs = raw_coeffs(grid, phi.data)
    freqs = np.fft.fftfreq(grid.size, d=1.0 / grid.size)
    scale = (TWO_PI / grid.size) ** (grid.n / 2)
    dx = np.fft.ifftn(1j * freqs[:, None] * coeffs[0] / scale, norm="ortho")
    dy = np.fft.ifftn(1j * freqs[None, :] * coeffs[0] / scale, norm="ortho")
    out = apply_A(zoo_get("gradient"), phi)
    assert np.abs(out.data[0] - dx).max() < 1e-11
    assert np.abs(out.data[1] - dy).max() < 1e-11


def test_apply_A_adjoint_is_the_adjoint():
    for name in ("divergence", "symmetric_gradient"):
        op = zoo_get(name)
        grid = Grid(op.n, 8)
        phi = random_band_limited(grid, op.dim_v, 2, seed=3)
        psi = random_band_limited(grid, op.dim_w, 2, seed=4)
        lhs = grid_inner(apply_A(op, phi), psi)
        rhs = grid_inner(phi, apply_A_adjoint(op, psi))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_apply_A_fiber_dim_guard():
    op = zoo_get("divergence")
    grid = Grid(3, 4)
    with pytest.raises(ValueError, match="fiber dimension 3"):
        apply_A(op, GridField(grid, np.ones((1, 4, 4, 4), dtype=complex)))


# ------------------------------------------------------------------ tables

@pytest.mark.parametrize("entry", zoo_list(), ids=lambda e: e.name)
def test_tables_are_read_only_stacks_with_matrix_axes_last(entry):
    op = entry.build()
    grid = Grid(op.n, 4)
    symbols = _symbol_tensor(op, grid)
    projectors = _kernel_projector_table(op, grid, DEFAULT_TOL)
    assert not symbols.flags.writeable and not projectors.flags.writeable
    for xi in itertools.product(range(-2, 2), repeat=op.n):
        idx = mode_index(grid, xi)
        mat = symbol(op, np.array(xi, dtype=float))
        np.testing.assert_array_equal(symbols[idx], mat)
        # the table is the projector of the real factor M of A = i^k M, and P_A = P_M
        np.testing.assert_array_equal(projectors[idx], kernel_projector(_real_factor(op, mat)))
        np.testing.assert_allclose(projectors[idx], kernel_projector(mat), rtol=0, atol=1e-15)


def test_memory_estimate_of_a_large_grid(monkeypatch):
    # the estimate alone: _refuse_oversized allocates nothing
    curl = zoo_get("curl")
    symbol_entries = curl.dim_w * curl.dim_v
    monkeypatch.setattr(spectral, "_physical_memory", lambda: 8 * 10 ** 9)
    spectral._refuse_oversized(curl, Grid(3, 128), symbol_entries)
    spectral._refuse_oversized(curl, Grid(3, 256), symbol_entries)
    monkeypatch.setattr(spectral, "_physical_memory", lambda: 4 * 10 ** 9)
    # 2.4 GB of symbol table and 2.4 GB for the nine derivative components
    with pytest.raises(MemoryError, match=r"curl on a 256\^3 grid needs about 4.83 GB"):
        spectral._refuse_oversized(curl, Grid(3, 256), symbol_entries)
    monkeypatch.setattr(spectral, "_physical_memory", lambda: None)
    spectral._refuse_oversized(curl, Grid(3, 256), symbol_entries)


@pytest.mark.parametrize("entry", zoo_list(), ids=lambda e: e.name)
def test_projector_memory_estimate_covers_its_build_growth(monkeypatch, entry):
    # numpy's iteration buffers and Python objects are a cost the estimate
    # leaves out, so the traced build peaks on 8^n and 16^n grids are compared
    # with the estimate through their difference, the part that grows
    op = entry.build()
    entries = []
    refuse = spectral._refuse_oversized
    monkeypatch.setattr(spectral, "_refuse_oversized",
                        lambda op, grid, count: entries.append(count) or refuse(op, grid, count))

    def build(size):
        _symbol_tensor.cache_clear()
        _kernel_projector_table.cache_clear()
        tracemalloc.start()
        try:
            table = _kernel_projector_table(op, Grid(op.n, size), DEFAULT_TOL)
            return table, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for size in (8, 16):
        build(size)  # fills the frequency mesh cache, which the estimate does not count
    table, peak16 = build(16)
    _, peak8 = build(8)
    np.testing.assert_array_equal(table, np.swapaxes(table, -1, -2).conj())
    # the projector's entry count is the largest estimate made; the symbol table's is smaller
    derivative_fibers = op.dim_v * math.comb(op.n + op.k - 1, op.k)
    per_frequency = 16 * (max(entries) + derivative_fibers)
    assert peak16 - peak8 <= per_frequency * (16 ** op.n - 8 ** op.n)


def test_tables_refuse_to_build_beyond_physical_memory(monkeypatch):
    # a 1e5-byte machine refuses even an 8^3 curl table (about 0.15 MB)
    monkeypatch.setattr(spectral, "_physical_memory", lambda: 10 ** 5)
    _symbol_tensor.cache_clear()
    _kernel_projector_table.cache_clear()
    op = zoo_get("curl")
    with pytest.raises(MemoryError, match=r"8\^3 grid"):
        _symbol_tensor(op, Grid(3, 8))
    with pytest.raises(MemoryError, match=r"8\^3 grid"):
        _kernel_projector_table(op, Grid(3, 8), DEFAULT_TOL)


# ------------------------------------------------------------------ projection

def test_projection_is_idempotent_and_orthogonal():
    for name in ("divergence", "curl", "d1d2"):
        op = zoo_get(name)
        grid = Grid(op.n, 8)
        phi = random_band_limited(grid, op.dim_v, 2, seed=11)
        proj = apply_PA(op, phi)
        twice = apply_PA(op, proj)
        assert np.abs(twice.data - proj.data).max() < 1e-11
        # A annihilates the projection
        assert lp_norm(apply_A(op, proj), 2) < 1e-10 * max(1.0, lp_norm(phi, 2))
        # the resolved part is orthogonal to the kernel part
        assert abs(grid_inner(phi - proj, proj)) < 1e-10 * max(1.0, lp_norm(phi, 2) ** 2)


def test_projection_keeps_constants():
    op = zoo_get("divergence")
    grid = Grid(3, 4)
    const = GridField(grid, np.stack([np.full(grid.shape, c, dtype=complex)
                                      for c in (1.0, -2.0, 0.5)]))
    out = apply_PA(op, const)
    assert np.abs(out.data - const.data).max() < 1e-12


def test_gradient_projection_is_the_mean():
    op = zoo_get("gradient")
    grid = Grid(2, 16)
    phi = random_band_limited(grid, 1, 4, seed=2)
    shifted = GridField(grid, phi.data + 0.7)
    out = apply_PA(op, shifted)
    assert np.abs(out.data - 0.7).max() < 1e-11


def test_elliptic_projection_vanishes_on_mean_free_fields():
    op = zoo_get("symmetric_gradient")
    grid = Grid(2, 8)
    phi = random_band_limited(grid, 2, 2, seed=13)  # mean-free by construction
    assert lp_norm(apply_PA(op, phi), 2) < 1e-11


# ------------------------------------------------------------------ derivatives

def test_apply_Dk_single_mode_layout():
    grid = Grid(2, 8)
    xi = (2, 3)
    phi = single_mode(grid, xi, 1.0)
    out = apply_Dk(1, phi)
    # fiber order follows multi_indices(2, 1) = ((0,1), (1,0))
    assert multi_indices(2, 1) == ((0, 1), (1, 0))
    assert np.abs(out.data[0] - 1j * xi[1] * phi.data[0]).max() < 1e-11
    assert np.abs(out.data[1] - 1j * xi[0] * phi.data[0]).max() < 1e-11


def test_apply_Dk_norm_is_xi_power():
    # weighted fiber norm of D^k at a single mode is |xi|^k pointwise
    grid = Grid(2, 16)
    for k in (1, 2, 3):
        for xi in ((1, -2), (3, 4)):
            phi = single_mode(grid, xi, 1.0)
            out = apply_Dk(k, phi)
            expected = np.linalg.norm(xi) ** k
            assert np.allclose(out.pointwise_norm(), expected, rtol=1e-10)


def test_apply_Dk_l2_matches_raw_multiplier_sum():
    # independent check of ||D^k phi||_2 via plain numpy: sum |xi|^{2k} |phi-hat|^2
    grid = Grid(2, 16)
    k = 2
    phi = random_band_limited(grid, 1, 4, seed=21)
    coeffs = raw_coeffs(grid, phi.data)
    freqs = np.fft.fftfreq(grid.size, d=1.0 / grid.size)
    norm2 = freqs[:, None] ** 2 + freqs[None, :] ** 2
    expected = math.sqrt(float(np.sum(norm2 ** k * np.abs(coeffs[0]) ** 2)))
    assert math.isclose(lp_norm(apply_Dk(k, phi), 2), expected, rel_tol=1e-11)


def test_apply_Dk_validation():
    grid = Grid(2, 4)
    phi = GridField(grid, np.ones((1, 4, 4), dtype=complex))
    with pytest.raises(ValueError, match="positive integer"):
        apply_Dk(0, phi)
    weighted = apply_Dk(1, phi)
    with pytest.raises(ValueError, match="weights"):
        apply_Dk(1, weighted)


# ------------------------------------------------------------------ multiplier

@pytest.mark.parametrize("entry", zoo_list(), ids=lambda e: e.name)
def test_multiplier_recovers_derivatives_from_A(entry):
    op = entry.build()
    grid = Grid(op.n, 8)
    phi = random_band_limited(grid, op.dim_v, 2, seed=31)
    via_multiplier = apply_multiplier(op, apply_A(op, phi))
    direct = apply_Dk(op.k, phi - apply_PA(op, phi))
    scale = max(1.0, lp_norm(direct, 2))
    assert lp_norm(via_multiplier - direct, 2) < 1e-10 * scale


def test_multiplier_zero_mode_convention():
    op = zoo_get("laplacian")
    grid = Grid(2, 4)
    const = GridField(grid, np.full((1, 4, 4), 5.0, dtype=complex))
    out = apply_multiplier(op, const)
    assert np.abs(out.data).max() < 1e-13


@pytest.mark.parametrize("entry", zoo_list(), ids=lambda e: e.name)
def test_multiplier_matches_decell_route_at_every_frequency(entry):
    # d1d2 and wave have rank-drop frequencies on this grid (axes, diagonals)
    op = entry.build()
    grid = Grid(op.n, 8)
    rng = np.random.default_rng(17)
    coeffs = (rng.standard_normal((op.dim_w,) + grid.shape)
              + 1j * rng.standard_normal((op.dim_w,) + grid.shape))
    out = apply_multiplier(op, inverse_transform(FrequencyField(grid, coeffs)))
    alphas = multi_indices(op.n, op.k)
    got = forward_transform(out).coeffs.reshape(op.dim_v * len(alphas), -1)
    want = np.zeros_like(got)
    flat = coeffs.reshape(op.dim_w, -1)
    mesh = integer_frequencies(grid).reshape(op.n, -1)
    for idx in range(mesh.shape[1]):
        xi = mesh[:, idx]
        if not xi.any():
            continue
        mat = symbol(op, xi)
        dagger = pinv_decell(mat, numerical_rank(mat))
        powers = np.array([math.prod((1j * x) ** a for x, a in zip(xi, alpha))
                           for alpha in alphas])
        want[:, idx] = np.kron(dagger, powers[:, None]) @ flat[:, idx]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# ------------------------------------------------------------------ random fields

def itertools_band_coeffs(grid: Grid, fiber_dim: int, max_freq: int, seed) -> np.ndarray:
    """Reference construction of the random_band_limited coefficients, one band vector at a time."""
    band = [v for v in itertools.product(range(-max_freq, max_freq + 1), repeat=grid.n) if any(v)]
    primaries = [v for v in band if v > tuple(-c for c in v)]
    draws = np.random.default_rng(seed).standard_normal((fiber_dim, len(primaries), 2))
    values = (draws[..., 0] + 1j * draws[..., 1]) / np.sqrt(2.0)
    coeffs = np.zeros((fiber_dim,) + grid.shape, dtype=complex)
    for j, v in enumerate(primaries):
        coeffs[(slice(None),) + tuple(c % grid.size for c in v)] = values[:, j]
        coeffs[(slice(None),) + tuple(-c % grid.size for c in v)] = values[:, j].conj()
    return coeffs


@pytest.mark.parametrize("n, size, max_freq", [
    (1, 8, 1), (1, 8, 2), (1, 32, 8), (2, 8, 1), (2, 8, 2), (2, 16, 4), (3, 8, 1), (3, 8, 2),
])
def test_random_band_limited_matches_itertools_band(n, size, max_freq):
    grid = Grid(n, size)
    seed = [5, n, max_freq]
    want = inverse_transform(FrequencyField(grid, itertools_band_coeffs(grid, 2, max_freq, seed)))
    assert np.array_equal(random_band_limited(grid, 2, max_freq, seed).data, want.data)



def test_random_band_limited_is_real_and_mean_free():
    grid = Grid(2, 16)
    phi = random_band_limited(grid, 2, 4, seed=7)
    assert np.abs(phi.data.imag).max() < 1e-12
    assert abs(phi.data.mean()) < 1e-13
    coeffs = forward_transform(phi).coeffs
    freqs = integer_frequencies(grid)
    outside = (np.abs(freqs[0]) > 4) | (np.abs(freqs[1]) > 4)
    assert np.abs(coeffs[:, outside]).max() < 1e-13
    inside = ~outside
    inside[tuple([0] * grid.n)] = False
    assert np.abs(coeffs[:, inside]).min() > 0.0


def test_random_band_limited_determinism():
    grid = Grid(2, 8)
    a = random_band_limited(grid, 1, 2, seed=[3, 1])
    b = random_band_limited(grid, 1, 2, seed=[3, 1])
    c = random_band_limited(grid, 1, 2, seed=[3, 2])
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_random_band_limited_validation():
    grid = Grid(2, 8)
    with pytest.raises(ValueError, match="max_freq"):
        random_band_limited(grid, 1, 3, seed=0)
    with pytest.raises(ValueError, match="max_freq"):
        random_band_limited(grid, 1, 0, seed=0)


# ------------------------------------------------------------------ bump window

def test_periodic_bump_profile():
    grid = Grid(1, 64)
    x = np.arange(64) * grid.spacing
    bump = periodic_bump(grid, 0.5)
    assert bump.min() >= 0.0 and bump.max() <= 1.0
    center = np.abs(x - math.pi) <= 0.25 * math.pi
    assert np.allclose(bump[center], 1.0)
    outside = np.abs(x - math.pi) >= 0.5 * math.pi
    assert np.abs(bump[outside]).max() == 0.0
    # symmetric about the center
    assert np.allclose(bump[1:], bump[1:][::-1], atol=1e-12)


def test_periodic_bump_full_width_covers_torus():
    grid = Grid(1, 32)
    bump = periodic_bump(grid, 1.0)
    assert bump[16] == 1.0  # center of the window
    assert bump[0] == 0.0  # seam of the torus
    with pytest.raises(ValueError, match="width"):
        periodic_bump(grid, 0.0)

