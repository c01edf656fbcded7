import functools
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrank import experiments, pinv, rank, spectral
from symrank.operators import (Operator, _real_stack, multi_indices, multinomial_weight,
                               parse_operator, symbol)
from symrank.pinv import DEFAULT_TOL, kernel_projector, numerical_rank, pinv_svd
from symrank.spectral import (Grid, GridField, FrequencyField, apply_A, apply_Dk, apply_PA,
                              apply_multiplier, forward_transform,
                              inverse_transform, lp_norm,
                              periodic_bump, random_band_limited,
                              _kernel_projector_table, _symbol_tensor)
from symrank.zoo import zoo_get, zoo_list

from decell import pinv_decell

TWO_PI = 2.0 * math.pi
# operators of order 3 and 4, so the phases i^k and i^-k of apply_A and
# apply_multiplier are tested at all four values of k mod 4
LINE = Operator(name="line", n=1, k=3, dim_v=2, dim_w=2, terms=(((3,), ((1.0, 2.0), (0.0, 0.0))),))
BILAPLACIAN = Operator(name="bilaplacian", n=2, k=4, dim_v=1, dim_w=1,
                       terms=(((4, 0), ((1.0,),)), ((2, 2), ((2.0,),)), ((0, 4), ((1.0,),))))


def grid_inner(a: GridField, b: GridField) -> complex:
    """L2 inner product as a plain Riemann sum."""
    return complex(np.sum(a.data.conj() * b.data) * a.grid.cell_volume)


def plane_wave(grid: Grid, xi, amplitude) -> GridField:
    """amplitude * exp(i x.xi) on the grid, with plain numpy; amplitude is the fiber vector."""
    axis = np.arange(grid.size) * (TWO_PI / grid.size)
    phase = sum(f * x for f, x in zip(xi, np.meshgrid(*([axis] * grid.n), indexing="ij")))
    return GridField(grid, np.multiply.outer(np.atleast_1d(amplitude), np.exp(1j * phase)))


def frequency_mesh(grid: Grid) -> np.ndarray:
    """The dense integer frequency mesh, shape (n, N, ..., N), broadcast from _frequency_axes."""
    return np.stack(np.broadcast_arrays(*spectral._frequency_axes(grid)))


def raw_coeffs(grid: Grid, data: np.ndarray) -> np.ndarray:
    """Independent transform: plain numpy fft with the package's normalization."""
    axes = tuple(range(1, grid.n + 1))
    return np.fft.fftn(data, axes=axes, norm="ortho") * (TWO_PI / grid.size) ** (grid.n / 2)


# ------------------------------------------------------------------ grids

def test_grid_validation():
    grid = Grid(2, 8)
    assert grid.shape == (8, 8)
    assert math.isclose(grid.cell_volume, (TWO_PI / 8) ** 2)
    for bad in (3, 6, 2, 0, -8):
        with pytest.raises(ValueError, match="power of two"):
            Grid(2, bad)
    with pytest.raises(ValueError, match="n must be at least 1"):
        Grid(0, 8)


def test_frequency_axes_layout():
    # one float64 axis per coordinate in fft layout, each along its own grid axis
    (axis,) = spectral._frequency_axes(Grid(1, 8))
    assert axis.dtype == np.float64
    assert list(axis) == [0, 1, 2, 3, -4, -3, -2, -1]
    axes = spectral._frequency_axes(Grid(3, 4))
    assert [a.shape for a in axes] == [(4, 1, 1), (1, 4, 1), (1, 1, 4)]
    for a in axes:
        assert list(a.reshape(-1)) == [0, 1, -2, -1]
    assert frequency_mesh(Grid(3, 4))[:, 3, 2, 1].tolist() == [-1, -2, 1]


def test_gridfield_validation():
    grid = Grid(2, 4)
    with pytest.raises(ValueError, match="shape"):
        GridField(grid, np.zeros((4, 4)))  # missing fiber axis
    with pytest.raises(ValueError, match="non-finite"):
        GridField(grid, np.full((1, 4, 4), np.nan))
    a = GridField(grid, np.ones((1, 4, 4)))
    b = GridField(Grid(2, 8), np.ones((1, 8, 8)))
    with pytest.raises(ValueError, match="different grids"):
        a - b
    with pytest.raises(ValueError, match="different fiber dimensions"):
        a - GridField(grid, np.ones((2, 4, 4)))


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


def traced_peak(call):
    """call()'s result and traced peak, after one untraced call for first-call caches."""
    call()
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_whole_mesh_transforms_allocate_only_their_output():
    # fftn and ifftn write every axis pass into one output, where numpy would
    # allocate a fresh array per pass, and keep numpy's bits; on a 9-fiber 16^3
    # field (576 KiB) the rest, finiteness masks and Python objects, stays under
    # 64 KiB
    grid = Grid(3, 16)
    rng = np.random.default_rng(4)
    field = GridField(grid, rng.standard_normal((9,) + grid.shape)
                      + 1j * rng.standard_normal((9,) + grid.shape))
    axes = (1, 2, 3)
    scale = (TWO_PI / grid.size) ** (grid.n / 2.0)
    freq, peak = traced_peak(lambda: forward_transform(field))
    assert peak < freq.coeffs.nbytes + 2 ** 16
    expected = np.fft.fftn(field.data, axes=axes, norm="ortho") * scale
    assert freq.coeffs.tobytes() == expected.tobytes()
    kept = freq.coeffs.copy()
    back, peak = traced_peak(lambda: inverse_transform(freq))
    assert peak < back.data.nbytes + 2 ** 16
    assert back.data.tobytes() == (np.fft.ifftn(kept, axes=axes, norm="ortho") / scale).tobytes()
    # the public inverse leaves its coefficients untouched
    assert freq.coeffs.tobytes() == kept.tobytes()
    # apply_Dk transforms its own derivative coefficients in place: the 9-fiber
    # derivative array of a 3-fiber field goes to the grid within 64 KiB of the
    # peak of the coefficient step before it
    phi = GridField(grid, field.data[:3])
    xis = spectral._frequency_axes(grid)
    derivatives, step = traced_peak(
        lambda: spectral._derivatives(1, forward_transform(phi).coeffs, xis))
    grad, peak = traced_peak(lambda: apply_Dk(1, phi))
    assert grad.data.shape == derivatives.shape == (9,) + grid.shape
    assert peak < step + 2 ** 16
    expected = np.fft.ifftn(derivatives, axes=axes, norm="ortho") / scale
    assert grad.data.tobytes() == expected.tobytes()


def test_single_mode_values_and_norm():
    # the lone coefficient (2pi)^(n/2) at xi's fft index is the mode exp(i x.xi)
    grid = Grid(2, 8)
    xi = (1, -2)
    coeffs = np.zeros((1,) + grid.shape, dtype=complex)
    coeffs[0, 1, 6] = TWO_PI ** (2 / 2)
    phi = inverse_transform(FrequencyField(grid, coeffs))
    assert np.abs(phi.data - plane_wave(grid, xi, 1.0).data).max() < 1e-12
    # |e^{i x xi}| = 1, so the L2 norm is the measure of the torus squarerooted
    assert math.isclose(lp_norm(phi, 2), TWO_PI ** (2 / 2), rel_tol=1e-12)
    assert math.isclose(lp_norm(phi, math.inf), 1.0, rel_tol=1e-12)


def test_single_mode_coefficient_placement():
    grid = Grid(2, 8)
    coeffs = forward_transform(plane_wave(grid, (3, -4), 2.0)).coeffs
    assert math.isclose(abs(coeffs[0, 3, 4]), 2.0 * TWO_PI ** (2 / 2), rel_tol=1e-12)
    coeffs[0, 3, 4] = 0.0
    assert np.abs(coeffs).max() < 1e-12


# ------------------------------------------------------------------ norms

def test_lp_norm_constant_field():
    # a 1-D grid's points form one row, which the norm over the points must still scale
    for n in (1, 2):
        grid = Grid(n, 4)
        phi = GridField(grid, np.full((1,) + grid.shape, 3.0, dtype=complex))
        for p in (1.0, 2.0, 3.5):
            assert math.isclose(lp_norm(phi, p), 3.0 * TWO_PI ** (n / p), rel_tol=1e-12)
        assert math.isclose(lp_norm(phi, math.inf), 3.0, rel_tol=1e-12)
        # |f|^p overflows or underflows at these scales and exponents unless it is normalised first
        for p, scale in itertools.product((400.0, 1e4), (1e-10, 1.0, 1e10)):
            assert math.isclose(lp_norm(GridField(grid, scale * phi.data), p),
                                scale * 3.0 * TWO_PI ** (n / p), rel_tol=1e-12)
    for p in (0.5, math.nan):
        with pytest.raises(ValueError, match="at least 1"):
            lp_norm(phi, p)


@given(st.floats(-8.0, 8.0), st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
       st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_lp_norm_absolute_homogeneity(t, p, seed):
    grid = Grid(2, 8)
    phi = random_band_limited(grid, 2, 2, seed=seed)
    assert math.isclose(lp_norm(GridField(grid, t * phi.data), p), abs(t) * lp_norm(phi, p),
                        rel_tol=1e-10, abs_tol=1e-12)


# ------------------------------------------------------------------ operators

def test_apply_A_on_single_mode_is_symbol_action():
    names = ("divergence", "curl", "laplacian", "symmetric_gradient", "wave")
    for op in [zoo_get(name) for name in names] + [LINE, BILAPLACIAN]:
        grid = Grid(op.n, 8)
        xi = tuple(2 if i == 0 else 1 for i in range(op.n))
        v = np.arange(1, op.dim_v + 1).astype(complex)
        phi = plane_wave(grid, xi, v)
        out = apply_A(op, phi)
        expected = plane_wave(grid, xi, symbol(op, np.array(xi, float)) @ v)
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


def test_apply_A_fiber_dim_guard():
    op = zoo_get("divergence")
    grid = Grid(3, 4)
    with pytest.raises(ValueError, match="fiber dimension 3"):
        apply_A(op, GridField(grid, np.ones((1, 4, 4, 4), dtype=complex)))
    with pytest.raises(ValueError, match="field has 2 axes, operator acts on 3"):
        apply_A(op, GridField(Grid(2, 4), np.ones((3, 4, 4), dtype=complex)))


# ------------------------------------------------------------------ tables

@pytest.mark.parametrize("entry", zoo_list(), ids=lambda e: e.name)
def test_tables_are_read_only_stacks_with_matrix_axes_last(entry):
    op = entry.build()
    grid = Grid(op.n, 4)
    symbols = _symbol_tensor(op, grid)
    projectors = _kernel_projector_table(op, grid, DEFAULT_TOL)
    assert not symbols.flags.writeable and not projectors.flags.writeable
    assert not spectral._pseudoinverse_table(op, grid, DEFAULT_TOL).flags.writeable
    # the symbol table holds the real factor M of A = i^k M
    assert symbols.dtype == np.float64
    for xi in itertools.product(range(-2, 2), repeat=op.n):
        idx = tuple(x % grid.size for x in xi)
        mat = symbol(op, np.array(xi, dtype=float))
        assert (1j ** op.k * symbols[idx]).tobytes() == mat.tobytes()
        # the projector table is that of M, built per frequency, and P_A = P_M
        real = _real_stack(op, [xi])[0]
        np.testing.assert_array_equal(projectors[idx], kernel_projector(real))
        np.testing.assert_allclose(projectors[idx], kernel_projector(mat), rtol=0, atol=1e-15)


@pytest.mark.parametrize("name", ["gradient3", "divergence", "symmetric_gradient"])
def test_matvec_multiplies_every_frequency_by_its_table_entry(name):
    # real tables of both shapes, dimW x dimV and dimV x dimW, with dimW != dimV
    op = zoo_get(name)
    grid = Grid(op.n, 8)
    rng = np.random.default_rng(5)
    for table in (_symbol_tensor(op, grid), spectral._pseudoinverse_table(op, grid, DEFAULT_TOL)):
        rows, cols = table.shape[-2:]
        coeffs = (rng.standard_normal((cols,) + grid.shape)
                  + 1j * rng.standard_normal((cols,) + grid.shape))
        out = spectral._matvec(table, coeffs)
        assert out.shape == (rows,) + grid.shape and out.flags.c_contiguous
        for idx in np.ndindex(grid.shape):
            want = sum(table[idx][:, j] * coeffs[(j,) + idx] for j in range(cols))
            np.testing.assert_array_equal(out[(slice(None),) + idx], want)
        # a flat stack of the entries at the band's primaries, as the ratio
        # pipeline runs it on the band
        at = tuple(spectral._primaries(op.n, 2) % grid.size)
        band = spectral._matvec(np.ascontiguousarray(table[at]), coeffs[(slice(None),) + at])
        assert band.tobytes() == np.ascontiguousarray(out[(slice(None),) + at]).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inverse_real_is_the_real_part_of_inverse_transform(n):
    # _inverse is inverse_transform's complex data, written over the whole-mesh
    # coefficients it is given, and of a real field its imaginary part is
    # rounding; the band's real values are irfftn's bits
    # (test_band_grid_route_is_irfftn_on_buffers_allocated_once)
    grid = Grid(n, 8)
    freq = FrequencyField(grid, spectral._random_coefficients(grid, 2, 2, seed=[n, 4]))
    full = inverse_transform(freq).data
    coeffs = freq.coeffs.copy()
    data = spectral._inverse(coeffs, grid)
    assert data is coeffs and data.tobytes() == full.tobytes()
    assert np.abs(full.imag).max() <= 1e-15 * np.abs(full).max()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_spectrum_weights_give_the_whole_mesh_norm_from_either_spectrum(n, k):
    # sqrt(sum |xi|^2k |c(xi)|^2) over the whole mesh, from the whole mesh or
    # from the primaries of a real band-limited field, each counted twice
    grid = Grid(n, 8)
    op = Operator(name="power", n=n, k=max(k, 1), dim_v=1, dim_w=1,
                  terms=(((max(k, 1),) + (0,) * (n - 1), ((1.0,),)),))
    band = spectral._band_spectrum(op, grid, 2, DEFAULT_TOL, 2.0)
    values = band.draw(2, [n, k])
    coeffs = spectral._random_coefficients(grid, 2, 2, seed=[n, k])
    xi2 = (frequency_mesh(grid) ** 2).sum(axis=0)
    expected = math.sqrt(float((xi2 ** k * np.abs(coeffs) ** 2).sum()))
    mesh = spectral._mesh_spectrum(op, grid, DEFAULT_TOL, 2.0)
    assert mesh.norm_weights is None
    # the mesh's weights are formed per slab, and its norm is that of the slabs' norms
    mesh_norm = spectral._slab_total([
        pinv._norm(coeffs[:, planes], weights=derivative_weights if k else None)
        for planes, derivative_weights in mesh.slabs()])
    ((_, band_derivative_weights),) = band.slabs()
    band_weights = band_derivative_weights if k else band.norm_weights
    assert np.isscalar(band_weights) or not band_weights.flags.writeable
    assert math.isclose(mesh_norm, expected, rel_tol=1e-14)
    assert math.isclose(float(pinv._norm(values, weights=band_weights)), expected, rel_tol=1e-14)


def test_mesh_table_caches_hold_one_grid():
    # a process builds the tables of one (operator, grid, tol), so a second grid's
    # tables replace the first's
    op = zoo_get("d1d2")
    caches = (spectral._symbol_tensor, spectral._kernel_projector_table,
              spectral._pseudoinverse_table)
    for size in (16, 32):
        grid = Grid(2, size)
        phi = random_band_limited(grid, 1, 4, seed=size)
        apply_multiplier(op, apply_A(op, phi))
        apply_PA(op, phi)
        for cache in caches:
            assert cache.cache_info().currsize == 1
    # the one entry is the second grid's
    hits = spectral._symbol_tensor.cache_info().hits
    spectral._symbol_tensor(op, Grid(2, 32))
    assert spectral._symbol_tensor.cache_info().hits == hits + 1


@pytest.mark.parametrize("n, size, planes", [(1, 8, 8), (2, 32, 32), (2, 256, 16), (3, 32, 4),
                                             (3, 64, 1)])
def test_mesh_slabs_are_runs_of_first_axis_planes(n, size, planes):
    # about _MATVEC_CHUNK frequencies per slab, at least one plane, derived from N and n;
    # each slab forms its own weights, bitwise those of the whole mesh there
    op = Operator(name="d1", n=n, k=1, dim_v=1, dim_w=1,
                  terms=(((1,) + (0,) * (n - 1), ((1.0,),)),))
    grid = Grid(n, size)
    mesh = spectral._mesh_spectrum(op, grid, DEFAULT_TOL, 2.0)
    weights = spectral._xi_weights(spectral._frequency_axes(grid), op.k)
    slabs = list(mesh.slabs())
    assert [at for at, _ in slabs] == [slice(start, start + planes)
                                      for start in range(0, size, planes)]
    for at, derivative_weights in slabs:
        assert derivative_weights.tobytes() == weights[at].tobytes()


@pytest.mark.parametrize("n, size, max_freq", [(1, 8, 2), (2, 16, 3), (3, 8, 2)])
def test_random_coefficients_scatter_the_band_draw(n, size, max_freq):
    # one draw: the whole-mesh coefficients hold the band draw at the
    # primaries, its conjugates at their mirrors and zero elsewhere
    grid = Grid(n, size)
    primaries = spectral._primaries(n, max_freq)
    assert primaries.shape == (n, ((2 * max_freq + 1) ** n - 1) // 2)
    assert not primaries.flags.writeable
    values = spectral._band_draw(2, primaries.shape[1], [n, 9])
    coeffs = spectral._random_coefficients(grid, 2, max_freq, [n, 9])
    at = (slice(None),) + tuple(primaries % size)
    mirrors = (slice(None),) + tuple(-primaries % size)
    assert coeffs[at].tobytes() == values.tobytes()
    assert coeffs[mirrors].tobytes() == values.conj().tobytes()
    rest = np.ones(grid.shape, dtype=bool)
    rest[at[1:]] = rest[mirrors[1:]] = False
    assert not coeffs[:, rest].any()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("max_freq", [1, 2, 3, 4, 5])
def test_primaries_are_the_band_frequencies_whose_first_nonzero_component_is_positive(n,
                                                                                     max_freq):
    # the band's columns after its centre are, in lexicographic order, those whose
    # first nonzero component is positive: the mask that once selected them is the
    # oracle.  The band's grid route reads its plane-0 primaries as the leading
    # ((2B+1)^(n-1) - 1) / 2 and its radius from the last, (B, ..., B)
    axis = np.arange(-max_freq, max_freq + 1)
    band = np.stack(np.meshgrid(*([axis] * n), indexing="ij")).reshape(n, -1)
    first_nonzero = band[(band != 0).argmax(axis=0), np.arange(band.shape[1])]
    expected = band[:, first_nonzero > 0]
    primaries = spectral._primaries(n, max_freq)
    assert primaries.dtype == expected.dtype and primaries.shape == expected.shape
    assert primaries.tobytes() == expected.tobytes() and primaries.flags.c_contiguous
    assert not primaries.flags.writeable
    on_plane0 = ((2 * max_freq + 1) ** (n - 1) - 1) // 2
    assert not primaries[0, :on_plane0].any() and (primaries[0, on_plane0:] > 0).all()
    assert (primaries[:, -1] == max_freq).all()


def grid_values_spy(each):
    """A stand-in for spectral._grid_norm that hands every part of its fibers to each(values, at).

    The parts are read at exponent 0, so the values are the grid values
    themselves; the stand-in returns nan, not a norm.
    """
    def spy(fibers, grid, p, total):
        for _, parts in fibers:
            for values, at in parts(0):
                each(values, at)
        return math.nan
    return spy


@pytest.mark.parametrize("n, size", [(1, 8), (2, 8), (3, 8), (2, 256), (3, 64)])
def test_band_grid_values_are_those_of_the_whole_mesh(monkeypatch, n, size):
    # the scatter into the half spectrum, with conjugate mirrors in plane 0,
    # then the real inverse FFT of each row gives the real part of
    # inverse_transform; a second call scatters into the same planes, and each
    # chunk of a fiber (two on 256^2, eight on 64^3) is copied out of the one
    # buffer that every chunk is yielded in
    grid = Grid(n, size)
    op = {1: LINE, 2: zoo_get("symmetric_gradient"), 3: zoo_get("curl")}[n]
    band = spectral._band_spectrum(op, grid, 2, DEFAULT_TOL, 3.0)
    grid_norm = spectral._band_grid(grid, spectral._primaries(n, 2))
    for seed in ([n, 1], [n, 2]):
        values = band.draw(op.dim_v, seed)
        coeffs = spectral._random_coefficients(grid, op.dim_v, 2, seed)
        full = inverse_transform(FrequencyField(grid, coeffs)).data
        data = np.full(full.shape, np.nan)
        for fiber, row in zip(data, values):
            def copy(chunk, at, fiber=fiber):
                assert chunk.dtype == np.float64
                fiber.reshape(len(fiber), -1)[at] = chunk
            monkeypatch.setattr(spectral, "_grid_norm", grid_values_spy(copy))
            grid_norm(row[None], 3.0)
        np.testing.assert_allclose(data, full.real, rtol=0, atol=1e-15 * np.abs(full).max())


@pytest.mark.parametrize("n, size, max_freq", [(1, 2 ** 16, 8), (2, 256, 64), (3, 32, 8),
                                                (3, 256, 8), (4, 64, 16)])
def test_band_buffers_follow_one_chunk_rule_in_every_dimension(n, size, max_freq):
    # shapes only, no grid allocated: a chunk of out is a run of lines of N
    # reals, at most max(N, _GRID_CHUNK) of them, and the runs tile the
    # N^(n-1) lines exactly; half has all N/2 + 1 first-axis planes, the
    # band's planes 0..B among them, except in 1-D, where no complex pass
    # runs and it is planes 0..B alone, which irfft pads; total is the N^n
    # accumulator as (N, N^(n-1))
    buffers = spectral._band_buffers(Grid(n, size), max_freq)
    (half, half_type), (out, out_type), (total, total_type) = (
        buffers[name] for name in ("half", "out", "total"))
    lines = size ** (n - 1)
    assert (half_type, out_type, total_type) == (complex, float, float)
    assert out[0] == size and math.prod(out) <= max(size, spectral._GRID_CHUNK)
    assert lines % out[1] == 0 and total == (size, lines)
    planes = max_freq + 1 if n == 1 else size // 2 + 1
    assert half == (planes,) + (size,) * (n - 1) and max_freq < half[0]


@pytest.mark.parametrize("n, size, max_freq", [(1, 16384, 8), (2, 128, 4), (3, 32, 4),
                                                (2, 256, 64), (3, 32, 8), (4, 16, 4),
                                                (3, 64, 16)])
def test_band_grid_route_is_irfftn_on_buffers_allocated_once(monkeypatch, n, size, max_freq):
    # the row-by-row steps on planes 0..B, then chunk by chunk of the N^(n-1)
    # lines (two chunks on 256^2 and 16^4, eight on 64^3), have numpy
    # irfftn's bits on the whole half spectrum, below and at the full band
    # B = N/4, read at exponent 0 through a stand-in for _grid_norm, and
    # grid_norm those of the streamed rule on its values: each fiber's squares
    # added in order, their square roots, pinv._norm over the points (a
    # power-of-two scale moves no bit), the real and complex routes alike;
    # after the first call, no call allocates a chunk (one chunk is at least
    # numpy's 8192-entry iteration buffer on these grids)
    grid = Grid(n, size)
    primaries = spectral._primaries(n, max_freq)
    grid_norm = spectral._band_grid(grid, primaries)
    axes = tuple(range(1, n + 1))
    scale = (TWO_PI / size) ** (n / 2.0)
    chunk = spectral._band_buffers(grid, max_freq)["out"][0]
    chunk_bytes, per_fiber = 8 * math.prod(chunk), size ** n // math.prod(chunk)
    assert per_fiber == {(2, 256): 2, (3, 64): 8, (4, 16): 2}.get((n, size), 1)
    for fibers in range(1, 10):
        seed = [n, fibers]
        values = spectral._band_draw(fibers, primaries.shape[1], seed)
        target = spectral._random_coefficients(grid, fibers, max_freq, seed)
        target = target[:, :size // 2 + 1]
        expected = np.fft.irfftn(target, grid.shape, axes[1:] + axes[:1], norm="ortho") / scale
        grid_norm(values, 3.0)
        parts = []

        def compare(data, at):
            # the peak is read before each chunk's bits are compared, and reset after
            assert tracemalloc.get_traced_memory()[1] < chunk_bytes
            fiber = expected[len(parts) // per_fiber]
            want = fiber.reshape(len(fiber), -1)[at]
            assert data.shape == want.shape and data.tobytes() == want.tobytes()
            parts.append(at)
            tracemalloc.reset_peak()
        tracemalloc.start()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "_grid_norm", grid_values_spy(compare))
                grid_norm(values, 3.0)
            assert len(parts) == fibers * per_fiber
            tracemalloc.reset_peak()
            norm = grid_norm(values, 3.0)
            assert tracemalloc.get_traced_memory()[1] < chunk_bytes
        finally:
            tracemalloc.stop()
        for p, value in ((3.0, norm), (math.inf, grid_norm(values, math.inf))):
            roots = np.sqrt(np.square(expected).sum(axis=0))
            reference = pinv._norm(roots, p) * grid.cell_volume ** (1 / p)
            assert value == float(reference) == lp_norm(GridField(grid, expected), p)


@pytest.mark.parametrize("n, size, max_freq", [(1, 2 ** 16, 8), (3, 32, 8)])
def test_band_grid_norm_holds_one_fiber_whatever_the_fiber_count(n, size, max_freq):
    # building the band's grid route and one grid_norm call allocate less
    # than three grid fibers beside the half spectrum (in 1-D its planes
    # 0..B, which irfft pads), for a field of 1 fiber as of 9: one fiber's
    # values, the accumulator and index arrays, where holding every fiber
    # took ten
    grid = Grid(n, size)
    primaries = spectral._primaries(n, max_freq)
    half = spectral._band_buffers(grid, max_freq)["half"][0]
    limit = 8 * 3 * size ** n + 16 * math.prod(half)
    for fibers in (1, 9):
        values = spectral._band_draw(fibers, primaries.shape[1], [n, fibers])
        spectral._band_grid(grid, primaries)(values, 3.0)  # first-call caches
        tracemalloc.start()
        try:
            spectral._band_grid(grid, primaries)(values, 3.0)
            assert tracemalloc.get_traced_memory()[1] < limit
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
def test_grid_norm_scales_a_field_by_one_power_of_two(p):
    # coefficients times 2^+-600 give exactly 2^+-600 times the norm, on the
    # band and on the whole mesh, where unscaled squares overflow or
    # underflow; fibers at 1e150 and 1e-150 give the large fiber's norm, the
    # small one's squares lying far below its rounding
    grid = Grid(3, 16)
    primaries = spectral._primaries(3, 4)
    grid_norm = spectral._band_grid(grid, primaries)
    values = spectral._band_draw(2, primaries.shape[1], 11)
    coeffs = spectral._random_coefficients(grid, 2, 4, 11)

    def mesh_norm(coeffs):
        return lp_norm(inverse_transform(FrequencyField(grid, coeffs)), p)

    band, mesh = grid_norm(values, p), mesh_norm(coeffs)
    for power in (600, -600):
        factor = 2.0 ** power
        assert grid_norm(values * factor, p) == factor * band
        assert mesh_norm(coeffs * factor) == factor * mesh
    # nine copies of one fiber, each 2^40 times the last: whether the running scale
    # rises with every fiber or is set by the first, each square is the one the
    # largest fiber's exponent gives, so the norm has the bits of the largest fiber's
    # alone, whose squares the others' lie 2^80 and more below
    growth = 2.0 ** (40 * np.arange(9))
    for norm, fibers in ((lambda rows: grid_norm(rows, p), values[:1] * growth[:, None]),
                         (mesh_norm, coeffs[:1] * growth[:, None, None, None])):
        largest = norm(fibers[-1:])
        assert norm(fibers) == norm(fibers[::-1]) == largest
        # a zero fiber ahead of one at 2^-600 sets no scale, at which its squares underflow
        small = fibers[:1] * 2.0 ** -600
        assert norm(np.concatenate([0 * small, small])) == norm(small) > 0
    apart = np.array([1e150, 1e-150])[:, None]
    values *= apart
    coeffs *= apart[..., None, None]
    for norm, large in ((grid_norm(values, p), grid_norm(values[:1], p)),
                        (mesh_norm(coeffs), mesh_norm(coeffs[:1]))):
        assert math.isfinite(norm) and math.isclose(norm, large, rel_tol=1e-15)


# every zoo operator and every operator document of the tests and the benchmark
TESTS = Path(__file__).resolve().parent
DOCUMENTED = [entry.build() for entry in zoo_list()] + [
    parse_operator(path.read_text()) for folder in (TESTS, TESTS.parent / "bench" / "operators")
    for path in sorted(folder.glob("*.json"))]


@pytest.mark.parametrize("size", [4, 8, 16, 32])
@pytest.mark.parametrize("op", DOCUMENTED, ids=lambda op: op.name)
def test_symbol_tensor_is_the_real_stack_of_the_row_mesh(op, size):
    # the table is formed on the n 1-D frequency axes, with the bits of the
    # real stack of the dense mesh's frequencies read as rows
    grid = Grid(op.n, size)
    rows = frequency_mesh(grid).reshape(op.n, -1).T
    want = _real_stack(op, rows).reshape(grid.shape + (op.dim_w, op.dim_v))
    assert _symbol_tensor(op, grid).tobytes() == want.tobytes()


def test_symbol_tensor_holds_the_table_and_its_monomials_only():
    # curl's 32^3 table (2.25 MiB) is formed from the three 1-D axes: beside it
    # the build holds its T = 3 monomials per frequency, and no n x N^n mesh
    op, grid = zoo_get("curl"), Grid(3, 32)
    _symbol_tensor(op, Grid(3, 4))  # first-call caches
    _symbol_tensor.cache_clear()
    tracemalloc.start()
    try:
        table = _symbol_tensor(op, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monomials = 8 * len(op.terms) * grid.size ** grid.n
    assert peak <= table.nbytes + monomials + 2 ** 16


# every zoo operator, a vector-valued drop and a 1-D operator of odd order,
# whose pseudoinverse table is odd in xi
MIRRORED = [entry.build() for entry in zoo_list()] + [
    parse_operator((Path(__file__).parent / "lap_plus_d1d2.json").read_text()), LINE]


@pytest.mark.parametrize("size", [4, 8, 16])
@pytest.mark.parametrize("op", MIRRORED, ids=lambda op: op.name)
def test_half_spectrum_tables_match_per_frequency_builds(op, size):
    # the whole-mesh tables, built block by block, hold at every frequency the
    # bits of the build on that frequency's symbol alone, the Nyquist planes
    # and the negative first-axis frequencies included
    grid = Grid(op.n, size)
    want_projectors = np.empty(grid.shape + (op.dim_v, op.dim_v))
    want_daggers = np.empty(grid.shape + (op.dim_v, op.dim_w))
    for xi in itertools.product(range(-size // 2, size // 2), repeat=op.n):
        idx = tuple(x % size for x in xi)
        real = _real_stack(op, [xi])[0]
        want_projectors[idx] = kernel_projector(real)
        want_daggers[idx] = pinv_svd(real)
    projectors = _kernel_projector_table(op, grid, DEFAULT_TOL)
    daggers = spectral._pseudoinverse_table(op, grid, DEFAULT_TOL)
    assert projectors.tobytes() == want_projectors.tobytes()
    assert daggers.tobytes() == want_daggers.tobytes()


@pytest.mark.parametrize("name, size", [("curl", 32), ("symmetric_gradient", 128), ("wave", 128)])
def test_tables_of_several_blocks_are_one_stack_build(name, size):
    # a mesh beyond pinv._BLOCK frequencies is built block by block, with the
    # bits of one call on the whole symbol stack
    op = zoo_get(name)
    grid = Grid(op.n, size)
    assert size ** op.n > pinv._BLOCK
    symbols = _symbol_tensor(op, grid)
    for table, build in ((_kernel_projector_table, kernel_projector),
                         (spectral._pseudoinverse_table, pinv_svd)):
        assert table(op, grid, DEFAULT_TOL).tobytes() == build(symbols).tobytes()


# every operator on two small bands, and each 2-D one on the band 64 of a 256^2
# grid: 8320 primaries, whose table is built in two blocks of pinv._BLOCK
BAND_CASES = [pytest.param(op, max_freq, size, id=f"{op.name}-{max_freq}-{size}")
              for op in MIRRORED for max_freq, size in ((2, 8), (4, 16))]
BAND_CASES += [pytest.param(op, 64, 256, id=f"{op.name}-64-256") for op in MIRRORED if op.n == 2]


@pytest.mark.parametrize("op, max_freq, size", BAND_CASES)
def test_band_tables_are_the_mesh_tables_at_the_primaries(op, max_freq, size):
    # the band route and the whole mesh project with the same bits
    grid = Grid(op.n, size)
    assert max_freq < 64 or spectral._primaries(op.n, max_freq).shape[1] > pinv._BLOCK
    band = spectral._band_spectrum(op, grid, max_freq, DEFAULT_TOL, 2.0)
    symbols, projector = band.symbols, band.projector
    at = tuple(spectral._primaries(op.n, max_freq) % size)
    assert symbols.tobytes() == np.ascontiguousarray(_symbol_tensor(op, grid)[at]).tobytes()
    mesh_projector = _kernel_projector_table(op, grid, DEFAULT_TOL)[at]
    assert projector.tobytes() == np.ascontiguousarray(mesh_projector).tobytes()


@pytest.mark.parametrize("size", [4, 8])
@pytest.mark.parametrize("first", [1, -1])
def test_projection_of_a_mode_at_the_nyquist_index(first, size):
    # (first, -N/2, 0) has the Nyquist index on its second axis, and its mirror
    # (-first, N/2, 0) is not on the grid
    op = zoo_get("curl")
    grid = Grid(3, size)
    xi = (first, -size // 2, 0)
    amplitude = np.array([1.0, 2.0, -0.5])
    projected = apply_PA(op, plane_wave(grid, xi, amplitude))
    kernel_part = kernel_projector(symbol(op, np.array(xi, dtype=float))) @ amplitude
    np.testing.assert_allclose(projected.data, plane_wave(grid, xi, kernel_part).data,
                               rtol=0, atol=1e-14)


def test_memory_estimate_of_a_large_grid(monkeypatch):
    # the estimate alone: _refuse_oversized allocates nothing.  Per frequency,
    # curl's nine symbol entries and nine derivative components, as complex
    # numbers of two reals each
    curl = zoo_get("curl")
    per_frequency = 2 * (curl.dim_w * curl.dim_v + spectral._derivative_fibers(curl))
    monkeypatch.setattr(pinv, "_physical_memory", lambda: 8 * 10 ** 9)
    spectral._refuse_oversized(curl, Grid(3, 128), 128 ** 3, per_frequency)
    spectral._refuse_oversized(curl, Grid(3, 256), 256 ** 3, per_frequency)
    monkeypatch.setattr(pinv, "_physical_memory", lambda: 4 * 10 ** 9)
    # 2.4 GB of symbol table and 2.4 GB for the nine derivative components
    with pytest.raises(MemoryError, match=r"curl on a 256\^3 grid needs about 4.83 GB"):
        spectral._refuse_oversized(curl, Grid(3, 256), 256 ** 3, per_frequency)
    # a count too large for a float is refused, not an OverflowError
    with pytest.raises(MemoryError, match="more bytes than a float holds"):
        spectral._refuse_oversized(curl, Grid(3, 2 ** 600), 2 ** 1800, per_frequency)
    with pytest.raises(MemoryError, match="more bytes than a float holds"):
        spectral._refuse_oversized(curl, Grid(3, 2 ** 600), 1, per_frequency, 2 ** 1800)
    monkeypatch.setattr(pinv, "_physical_memory", lambda: None)
    spectral._refuse_oversized(curl, Grid(3, 256), 256 ** 3, per_frequency)
    # a platform whose sysconf cannot say gives no bound, so nothing is refused
    monkeypatch.undo()
    for error in (AttributeError, ValueError, OSError):
        def unknown(name, error=error):
            raise error(name)
        monkeypatch.setattr(pinv.os, "sysconf", unknown)
        assert pinv._physical_memory() is None
        spectral._refuse_oversized(curl, Grid(3, 256), 256 ** 3, per_frequency)


def table_build_peak(monkeypatch, table, op, size):
    """The traced peak of a cold whole-mesh table build, and the largest estimate it refused by."""
    estimates = []
    monkeypatch.setattr(spectral, "_refuse_beyond_memory",
                        lambda needed, subject, purpose: estimates.append(needed()))
    _symbol_tensor.cache_clear()
    table.cache_clear()
    tracemalloc.start()
    try:
        built = table(op, Grid(op.n, size), DEFAULT_TOL)
        return built, tracemalloc.get_traced_memory()[1], max(estimates)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("entry", zoo_list(), ids=lambda e: e.name)
def test_projector_memory_estimate_covers_its_build_growth(monkeypatch, entry):
    # numpy's iteration buffers and Python objects are a cost the estimate
    # leaves out, so the traced build peaks on 8^n and 16^n grids are compared
    # with the estimate through their difference, the part that grows
    op = entry.build()
    for size in (8, 16):
        # fills the frequency mesh cache, which the estimate does not count
        table_build_peak(monkeypatch, _kernel_projector_table, op, size)
    table, peak16, estimate = table_build_peak(monkeypatch, _kernel_projector_table, op, 16)
    peak8 = table_build_peak(monkeypatch, _kernel_projector_table, op, 8)[1]
    np.testing.assert_array_equal(table, np.swapaxes(table, -1, -2).conj())
    # the projector's estimate is the largest made; the symbol table's is smaller
    per_frequency = estimate / 16 ** op.n
    assert peak16 - peak8 <= per_frequency * (16 ** op.n - 8 ** op.n)


@pytest.mark.parametrize("entry", zoo_list(), ids=lambda e: e.name)
def test_pseudoinverse_memory_estimate_covers_its_build_growth(monkeypatch, entry):
    # the projector test's measure, for the other table with an SVD build
    op = entry.build()
    for size in (8, 16):
        table_build_peak(monkeypatch, spectral._pseudoinverse_table, op, size)
    _, peak16, estimate = table_build_peak(monkeypatch, spectral._pseudoinverse_table, op, 16)
    growth = peak16 - table_build_peak(monkeypatch, spectral._pseudoinverse_table, op, 8)[1]
    assert growth <= estimate / 16 ** op.n * (16 ** op.n - 8 ** op.n)


@pytest.mark.parametrize("p", [3.0, 2.0])
@pytest.mark.parametrize("entry", zoo_list(), ids=lambda e: e.name)
def test_band_memory_estimate_bounds_a_sweep(monkeypatch, entry, p):
    # one sweep, its primaries built afresh, on grids large enough that numpy's
    # iteration buffers and Python objects, which the estimate leaves out, are
    # small beside the fields: its traced peak stays within the estimate
    op = entry.build()
    estimates = []
    monkeypatch.setattr(spectral, "_refuse_beyond_memory",
                        lambda needed, subject, purpose: estimates.append(needed()))
    size = {2: 256, 3: 32}[op.n]

    def sweep():
        tracemalloc.start()
        try:
            experiments.ratio_sweep(op, p, 1, size)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sweep()  # imports and first-call caches, which the estimate does not count
    assert sweep() <= estimates[-1]


def test_a_finished_sweep_holds_no_band_tables():
    # the band's M and P_A are built per route and freed with it: after a curl
    # 32^3 sweep returns, less than those two tables is still held, the report
    # included
    op = zoo_get("curl")
    experiments.ratio_sweep(op, 2.0, 1, 16)  # imports and first-call caches
    count = spectral._primaries(op.n, 8).shape[1]
    tables = 8 * count * (op.dim_w * op.dim_v + op.dim_v ** 2)
    tracemalloc.start()
    try:
        report = experiments.ratio_sweep(op, 2.0, 1, 32)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(report["records"]) == 1
    assert held < tables


@pytest.mark.parametrize("p", [3.0, math.inf])
@pytest.mark.parametrize("name", ["curl", "symmetric_gradient", "d1d2"])
def test_mesh_memory_estimate_bounds_a_ratio(monkeypatch, name, p):
    # the public estimate_ratio at p != 2 on the whole mesh, from empty mesh-table
    # caches, on grids large enough that numpy's iteration buffers and Python
    # objects, which the estimate leaves out, are small beside the fields: its
    # traced peak stays within the largest estimate it refuses by, which counts
    # what a trial holds, one grid row at a time, so it stays within 1.5 times the peak
    op = zoo_get(name)
    grid = Grid(op.n, {2: 256, 3: 32}[op.n])
    coeffs = spectral._random_coefficients(grid, op.dim_v, grid.size // 4, [0, 1])
    phi = FrequencyField(grid, coeffs)
    estimates = []
    monkeypatch.setattr(spectral, "_refuse_beyond_memory",
                        lambda needed, subject, purpose: estimates.append(needed()))

    def ratio():
        _symbol_tensor.cache_clear()
        _kernel_projector_table.cache_clear()
        tracemalloc.start()
        try:
            experiments.estimate_ratio(op, phi, p)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ratio()  # imports and first-call caches, which the estimate does not count
    estimates.clear()
    peak = ratio()
    assert peak <= max(estimates) <= 1.5 * peak


# the rows of the estimate table: a windowed ladder at p != 2 (1.02), the windowed
# ladders at p = 2 (d1d2 1.15, wave 1.08), the sphere sweep on curl (1.09) and on
# the 1 x 1 d1d2 at 250000 samples (1.10), and the public whole-mesh routes on
# grid fields: estimate_ratio on curl 32^3 at p = 2 (1.07), and
# l2_minimality_check on curl 32^3 (1.03) and on d1d2 256^2 (1.02)
LADDERS = {"d1d2": [(1, -2), (1, -4), (1, -8), (1, -16)],
           "wave": [(2, 1), (4, 3), (7, 6), (12, 11)]}


@functools.cache
def drawn(name, size):
    """A band-limited grid field for zoo operator name on the size^n grid, drawn once and kept."""
    op = zoo_get(name)
    return random_band_limited(Grid(op.n, size), op.dim_v, size // 4, [size, 1])


def windowed_ladder(name, p):
    """counterexample's windowed ladder on the 256^2 grid, window 0.5, at exponent p."""
    return lambda: experiments._ladder_ratios(zoo_get(name), LADDERS[name], 256, 0.5, p,
                                              DEFAULT_TOL)


ESTIMATE_ROWS = {
    "ladder-d1d2-p2": windowed_ladder("d1d2", 2.0),
    "ladder-wave-p2": windowed_ladder("wave", 2.0),
    "ladder-d1d2-p3": windowed_ladder("d1d2", 3.0),
    "ladder-d1d2-pinf": windowed_ladder("d1d2", math.inf),
    "ladder-wave-p3": windowed_ladder("wave", 3.0),
    "ladder-wave-pinf": windowed_ladder("wave", math.inf),
    "sweep-curl": lambda: rank.rank_profile(zoo_get("curl"), num_samples=100000),
    "sweep-d1d2": lambda: rank.rank_profile(zoo_get("d1d2"), num_samples=250000),
    "ratio-curl-p2": lambda: experiments.estimate_ratio(zoo_get("curl"), drawn("curl", 32), 2.0),
    "minimality-curl": lambda: experiments.l2_minimality_check(zoo_get("curl"), drawn("curl", 32),
                                                               kernel_trials=3),
    "minimality-d1d2": lambda: experiments.l2_minimality_check(zoo_get("d1d2"), drawn("d1d2", 256),
                                                               kernel_trials=3),
}


@pytest.mark.parametrize("row", ESTIMATE_ROWS)
def test_memory_estimate_is_within_half_again_of_the_peak(monkeypatch, row):
    # a run's traced peak, after an untraced warm-up for imports and first-call
    # caches and from empty mesh-table caches, stays within the largest estimate
    # it refuses by, which stays within 1.5 times the peak
    estimates = []
    for module in (spectral, rank):
        monkeypatch.setattr(module, "_refuse_beyond_memory",
                            lambda needed, subject, purpose: estimates.append(needed()))

    def peak():
        _symbol_tensor.cache_clear()
        _kernel_projector_table.cache_clear()
        tracemalloc.start()
        try:
            ESTIMATE_ROWS[row]()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak()
    estimates.clear()
    traced = peak()
    assert traced <= max(estimates) <= 1.5 * traced


@pytest.mark.parametrize("given", ["grid", "coefficients"])
@pytest.mark.parametrize("call", ["ratio-p2", "ratio-p3", "minimality"])
@pytest.mark.parametrize("name, size", [("curl", 16), ("symmetric_gradient", 128), ("d1d2", 256)])
def test_warm_mesh_estimate_counts_no_table_build(monkeypatch, name, size, call, given):
    # a second whole-mesh call finds both tables cached and builds nothing, so its
    # largest estimate, the route's own, counts the tables, the fields it makes and
    # one trial: it covers the traced peak with the resident tables, and stays
    # within 1.5 times them.  A GridField's coefficients are made by the route; a
    # FrequencyField is the caller's, and the route does not count it
    op = zoo_get(name)
    grid = Grid(op.n, size)
    phi = random_band_limited(grid, op.dim_v, size // 4, [size, 0])
    if given == "coefficients":
        phi = forward_transform(phi)
    run = {"ratio-p2": lambda: experiments.estimate_ratio(op, phi, 2.0),
           "ratio-p3": lambda: experiments.estimate_ratio(op, phi, 3.0),
           "minimality": lambda: experiments.l2_minimality_check(op, phi, kernel_trials=3)}[call]
    estimates = []
    monkeypatch.setattr(spectral, "_refuse_beyond_memory",
                        lambda needed, subject, purpose: estimates.append(needed()))
    run()
    estimates.clear()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = _symbol_tensor(op, grid).nbytes + _kernel_projector_table(op, grid, DEFAULT_TOL).nbytes
    held = peak + tables
    assert held <= max(estimates) <= 1.5 * held


@pytest.mark.parametrize("op, size, p", [
    (zoo_get("laplacian"), 64, 3.0), (zoo_get("laplacian"), 128, 3.0), (BILAPLACIAN, 64, 3.0),
    (zoo_get("curl"), 32, 2.0), (zoo_get("curl"), 32, 3.0), (zoo_get("curl"), 32, math.inf),
    (zoo_get("curl"), 64, 3.0), (zoo_get("symmetric_gradient"), 256, 3.0),
    (zoo_get("laplacian"), 256, 2.0)],
    ids=lambda value: getattr(value, "name", str(value)))
def test_band_memory_estimate_bounds_three_trials(monkeypatch, op, size, p):
    # the band route, its tables built afresh, then three ratio trials, on fields
    # drawn before tracing: the first draw imports numpy.random, and one untraced
    # trial fills first-call caches, neither of which the estimate counts.  It
    # counts what a trial holds, at p != 2 one grid row at a time, and a _matvec
    # chunk once, so it stays within 1.5 times the peak
    grid = Grid(op.n, size)
    estimates = []
    monkeypatch.setattr(spectral, "_refuse_beyond_memory",
                        lambda needed, subject, purpose: estimates.append(needed()))
    spectrum = spectral._band_spectrum(op, grid, size // 4, DEFAULT_TOL, p)
    fields = [spectrum.draw(op.dim_v, [size, trial]) for trial in range(3)]
    experiments._ratio(op, spectrum, fields[0], p, DEFAULT_TOL)
    del spectrum
    tracemalloc.start()
    try:
        spectrum = spectral._band_spectrum(op, grid, size // 4, DEFAULT_TOL, p)
        for values in fields:
            experiments._ratio(op, spectrum, values, p, DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimates[-1] <= 1.5 * peak


@pytest.mark.parametrize("name, size", [("curl", 32), ("symmetric_gradient", 256)])
def test_band_ratio_holds_one_grid_row_at_a_time(name, size):
    # a warm p = 3 ratio on the band forms D^k(phi - P_A phi) and A phi one row
    # at a time as its grid norm reads them: beside phi it holds phi - P_A phi,
    # a row and numpy's buffer for the row's real factor, and the row's monomial, where
    # holding every row of D phi took curl's nine (559 KB at 32^3)
    op = zoo_get(name)
    grid = Grid(op.n, size)
    spectrum = spectral._band_spectrum(op, grid, size // 4, DEFAULT_TOL, 3.0)
    phi = spectrum.draw(op.dim_v, [size, 0])
    experiments._ratio(op, spectrum, phi, 3.0, DEFAULT_TOL)  # first-call caches
    count = spectrum.xis.shape[1]
    tracemalloc.start()
    try:
        experiments._ratio(op, spectrum, phi, 3.0, DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monomials = 8 * spectral._derivative_columns(op.k, [(count,)] * op.n)
    assert peak <= 2 * phi.nbytes + 2 * 16 * count + monomials + 2 ** 16


@pytest.mark.parametrize("p", [3.0, math.inf])
def test_band_ratio_forms_each_row_of_a_phi_once(monkeypatch, p):
    # one _matvec projects phi, and one more forms each row of A phi as the band's
    # grid norm reads it: the row's bound and its grid values come from that one
    # forming, where taking the bound first formed every row twice
    op = zoo_get("curl")
    spectrum = spectral._band_spectrum(op, Grid(3, 16), 4, DEFAULT_TOL, p)
    phi = spectrum.draw(op.dim_v, [16, 0])
    calls = []
    matvec = experiments._matvec
    monkeypatch.setattr(experiments, "_matvec",
                        lambda table, coeffs: calls.append(table.shape) or matvec(table, coeffs))
    experiments._ratio(op, spectrum, phi, p, DEFAULT_TOL)
    assert len(calls) == 1 + op.dim_w


@pytest.mark.parametrize("p", [3.0, math.inf])
def test_mesh_ratio_holds_one_grid_row_at_a_time(p):
    # a warm estimate_ratio at p != 2 on the whole mesh takes D phi and A phi to the
    # grid one row at a time: beside phi's coefficients and phi - P_A phi it holds the
    # row's monomial, two complex rows and two real N^n buffers (the magnitudes and the
    # accumulator), where forming every row of D phi at once held curl's nine
    op, grid = zoo_get("curl"), Grid(3, 32)
    phi = random_band_limited(grid, op.dim_v, 8, [0, 1])
    _, peak = traced_peak(lambda: experiments.estimate_ratio(op, phi, p))
    count = grid.size ** grid.n
    monomials = 8 * spectral._derivative_columns(op.k, spectral._axis_shapes(grid))
    assert peak <= 2 * 16 * count * op.dim_v + monomials + 2 * 16 * count + 2 * 8 * count + 2 ** 16


@pytest.mark.parametrize("seed", [0, [3, 32, 1], 12345])
def test_band_draw_is_the_complex_formula_in_place(seed):
    # the draw viewed as complex and divided by sqrt(2) in place has the bits of
    # (re + 1j im) / sqrt(2) on a fresh array, for every fiber count
    for fibers in range(1, 10):
        draws = np.random.default_rng(seed).standard_normal((fibers, 41, 2))
        want = (draws[..., 0] + 1j * draws[..., 1]) / np.sqrt(2.0)
        values = spectral._band_draw(fibers, 41, seed)
        assert values.shape == want.shape and values.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [3.0, math.inf])
@pytest.mark.parametrize("entry", zoo_list(), ids=lambda e: e.name)
def test_rung_memory_estimate_bounds_a_rung(monkeypatch, entry, p):
    # an exact rung's ratio at every p is taken on its one frequency, so it asks
    # for no memory estimate and its traced peak stays under 64 KiB, where one
    # field on the grid would take MBs; it is the whole-mesh ratio at p
    op = entry.build()
    estimates = []
    monkeypatch.setattr(spectral, "_refuse_beyond_memory",
                        lambda needed, subject, purpose: estimates.append(needed()))
    grid = Grid(op.n, {2: 256, 3: 32}[op.n])
    xi = (3, 1, 2)[:op.n]

    def rung():
        tracemalloc.start()
        try:
            experiments._ladder_ratios(op, [xi], grid.size, None, 2.0, DEFAULT_TOL)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rung()  # first-call caches
    assert rung() <= 2 ** 16 < 16 * grid.size ** grid.n
    assert estimates == []
    phi = experiments.witness_family(op, [xi], grid)[0]
    assert math.isclose(experiments._ladder_ratios(op, [xi], grid.size, None, 2.0, DEFAULT_TOL)[0],
                        experiments.estimate_ratio(op, phi, p), rel_tol=1e-14)


def test_tables_refuse_to_build_beyond_physical_memory(monkeypatch):
    # a 4e4-byte machine refuses even an 8^3 curl table (about 49 kB with its monomials)
    monkeypatch.setattr(pinv, "_physical_memory", lambda: 4 * 10 ** 4)
    _symbol_tensor.cache_clear()
    _kernel_projector_table.cache_clear()
    spectral._pseudoinverse_table.cache_clear()
    op = zoo_get("curl")
    with pytest.raises(MemoryError, match=r"8\^3 grid"):
        _symbol_tensor(op, Grid(3, 8))
    with pytest.raises(MemoryError, match=r"8\^3 grid"):
        _kernel_projector_table(op, Grid(3, 8), DEFAULT_TOL)
    with pytest.raises(MemoryError, match=r"8\^3 grid"):
        spectral._pseudoinverse_table(op, Grid(3, 8), DEFAULT_TOL)


def apply_calls(op, grid):
    """The four apply_* calls on a band-limited field of grid, drawn before they run."""
    phi = random_band_limited(grid, op.dim_v, grid.size // 4, [grid.size, 0])
    psi = apply_A(op, phi)
    return {"apply_A": lambda: apply_A(op, phi), "apply_PA": lambda: apply_PA(op, phi),
            "apply_Dk": lambda: apply_Dk(op.k, phi),
            "apply_multiplier": lambda: apply_multiplier(op, psi)}


def apply_peak(monkeypatch, op, size, name):
    """The traced peak of one apply_* call from empty table caches, and its largest estimate."""
    call = apply_calls(op, Grid(op.n, size))[name]
    estimates = []
    monkeypatch.setattr(spectral, "_refuse_beyond_memory",
                        lambda needed, subject, purpose: estimates.append(needed()))
    for table in (_symbol_tensor, _kernel_projector_table, spectral._pseudoinverse_table):
        table.cache_clear()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1], max(estimates)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["apply_A", "apply_PA", "apply_Dk", "apply_multiplier"])
@pytest.mark.parametrize("entry", zoo_list(), ids=lambda e: e.name)
def test_apply_memory_estimate_bounds_its_peak(monkeypatch, entry, name):
    # each apply_* call counts the tables it reads and the fields it makes, which
    # the table builders do not count; the estimate leaves out numpy's ufunc
    # buffers (8192 elements) and _matvec's chunk, constants of about 130 kB,
    # hence the 256 kB allowance on grids where the fields take MBs; and it
    # stays within 1.5 times the peak
    op = entry.build()
    size = {2: 256, 3: 32}[op.n]
    apply_peak(monkeypatch, op, size, name)  # first-call caches
    peak, estimate = apply_peak(monkeypatch, op, size, name)
    assert peak <= estimate + 2 ** 18
    assert estimate <= 1.5 * peak


def test_apply_calls_are_refused_before_their_tables(monkeypatch):
    # on a machine that holds curl's 8^3 symbol table but not the fields a call
    # makes beside it, every apply_* call is refused before a table is built, and
    # the symbol table alone still fits
    op, grid = zoo_get("curl"), Grid(3, 8)
    calls = apply_calls(op, grid)
    monkeypatch.setattr(pinv, "_physical_memory", lambda: 5 * 10 ** 4)
    for name, call in calls.items():
        for table in (_symbol_tensor, _kernel_projector_table, spectral._pseudoinverse_table):
            table.cache_clear()
        with pytest.raises(MemoryError, match=r"8\^3 grid"):
            call()
        assert _symbol_tensor.cache_info().currsize == 0, name
    _symbol_tensor(op, grid)
    # a derivative of order 2^62 + 5 on one axis is refused, not a loop of 2^62 powers
    line = random_band_limited(Grid(1, 8), 1, 2, [8, 1])
    with pytest.raises(MemoryError, match="more bytes|GB"):
        apply_Dk(2 ** 62 + 5, line)


def test_witness_family_is_refused_before_it_builds(monkeypatch):
    # d1d2's fields on 32^2 take 16 kB each: six fit a 1e5-byte machine, seven do
    # not, nor do six windowed ones beside the symbol table and its monomials
    op, grid = zoo_get("d1d2"), Grid(2, 32)
    ladder = [(m, 1) for m in range(1, 8)]
    monkeypatch.setattr(pinv, "_physical_memory", lambda: 10 ** 5)
    assert len(experiments.witness_family(op, ladder[:6], grid)) == 6
    with pytest.raises(MemoryError, match=r"32\^2 grid"):
        experiments.witness_family(op, ladder, grid)
    _symbol_tensor.cache_clear()
    with pytest.raises(MemoryError, match=r"32\^2 grid"):
        experiments.witness_family(op, ladder[:6], grid, window=0.5)
    assert _symbol_tensor.cache_info().currsize == 0


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
    phi = plane_wave(grid, xi, 1.0)
    out = apply_Dk(1, phi)
    # fiber order follows multi_indices(2, 1) = ((0,1), (1,0))
    assert multi_indices(2, 1) == ((0, 1), (1, 0))
    assert np.abs(out.data[0] - 1j * xi[1] * phi.data[0]).max() < 1e-11
    assert np.abs(out.data[1] - 1j * xi[0] * phi.data[0]).max() < 1e-11
    # k = 2 on a two-component mode: entry (j, t) is sqrt(2!/alpha_t!) (i xi)^alpha_t phi_j
    amplitude = np.array([1.0, -0.5j])
    two = apply_Dk(2, plane_wave(grid, xi, amplitude))
    assert multi_indices(2, 2) == ((0, 2), (1, 1), (2, 0))
    scaled = (-xi[1] ** 2, -math.sqrt(2.0) * xi[0] * xi[1], -xi[0] ** 2)
    for j, t in itertools.product(range(2), range(3)):
        want = scaled[t] * amplitude[j] * phi.data[0]
        assert np.abs(two.data[3 * j + t] - want).max() < 1e-10


def test_apply_Dk_norm_is_xi_power():
    # fiber norm of D^k at a single mode is |xi|^k pointwise
    grid = Grid(2, 16)
    for k in (1, 2, 3):
        for xi in ((1, -2), (3, 4)):
            phi = plane_wave(grid, xi, 1.0)
            out = apply_Dk(k, phi)
            expected = np.linalg.norm(xi) ** k
            assert np.allclose(np.linalg.norm(out.data, axis=0), expected, rtol=1e-10)


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
    with pytest.raises(ValueError, match="k must be at least 1"):
        apply_Dk(0, phi)


@pytest.mark.parametrize("n, j, p", itertools.product((2, 3), (1, 2), (1.0, 2.0, 3.0, math.inf)))
def test_apply_Dk_composes(n, j, p):
    # orthonormal coordinates: D^1 of the array D^j has the norms of D^(j+1), pointwise
    phi = random_band_limited(Grid(n, 8), 2, 2, seed=[41, n, j])
    assert math.isclose(lp_norm(apply_Dk(1, apply_Dk(j, phi)), p),
                        lp_norm(apply_Dk(j + 1, phi), p), rel_tol=1e-13)


# ------------------------------------------------------------------ multiplier

# every zoo operator on 8^n, and curl on 32^3, whose whole-mesh symbol, projector and
# pseudoinverse tables are formed on the frequency axes and built in blocks
@pytest.mark.parametrize("op, size, seed", [
    pytest.param(entry.build(), 8, 31, id=entry.name) for entry in zoo_list()] + [
    pytest.param(zoo_get("curl"), 32, [0, 2], id="curl-32")])
def test_multiplier_recovers_derivatives_from_A(op, size, seed):
    grid = Grid(op.n, size)
    phi = random_band_limited(grid, op.dim_v, size // 4, seed=seed)
    via_multiplier = apply_multiplier(op, apply_A(op, phi))
    direct = apply_Dk(op.k, phi - apply_PA(op, phi))
    scale = max(1.0, lp_norm(direct, 2))
    assert lp_norm(via_multiplier - direct, 2) < 1e-10 * scale
    assert np.abs(via_multiplier.data - direct.data).max() <= 1e-10 * np.abs(direct.data).max()


def test_multiplier_zero_mode_convention():
    op = zoo_get("laplacian")
    grid = Grid(2, 4)
    const = GridField(grid, np.full((1, 4, 4), 5.0, dtype=complex))
    out = apply_multiplier(op, const)
    assert np.abs(out.data).max() < 1e-13


@pytest.mark.parametrize("op", [entry.build() for entry in zoo_list()] + [LINE, BILAPLACIAN],
                         ids=lambda op: op.name)
def test_multiplier_matches_decell_route_at_every_frequency(op):
    # d1d2 and wave have rank-drop frequencies on this grid (axes, diagonals)
    grid = Grid(op.n, 8)
    rng = np.random.default_rng(17)
    coeffs = (rng.standard_normal((op.dim_w,) + grid.shape)
              + 1j * rng.standard_normal((op.dim_w,) + grid.shape))
    out = apply_multiplier(op, inverse_transform(FrequencyField(grid, coeffs)))
    alphas = multi_indices(op.n, op.k)
    got = forward_transform(out).coeffs.reshape(op.dim_v * len(alphas), -1)
    want = np.zeros_like(got)
    flat = coeffs.reshape(op.dim_w, -1)
    mesh = frequency_mesh(grid).reshape(op.n, -1)
    for idx in range(mesh.shape[1]):
        xi = mesh[:, idx]
        if not xi.any():
            continue
        mat = symbol(op, xi)
        dagger = pinv_decell(mat, numerical_rank(mat))
        powers = np.array([math.sqrt(multinomial_weight(alpha))
                           * math.prod((1j * x) ** a for x, a in zip(xi, alpha))
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
    freqs = frequency_mesh(grid)
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


def test_random_band_limited_is_refused_before_it_draws(monkeypatch):
    # a 64^2 field takes 64 kB: a 40 kB machine refuses it, naming the grid,
    # before the band is drawn, as it refuses apply_A and apply_Dk on that
    # field; a 32^2 field, 16 kB beside its draw, still fits
    drawn = []
    band_draw = spectral._band_draw
    monkeypatch.setattr(spectral, "_band_draw", lambda *args: drawn.append(args) or band_draw(*args))
    monkeypatch.setattr(pinv, "_physical_memory", lambda: 4 * 10 ** 4)
    with pytest.raises(MemoryError, match=r"64\^2 grid"):
        random_band_limited(Grid(2, 64), 1, 16, [64, 1])
    assert drawn == []
    assert random_band_limited(Grid(2, 32), 1, 8, [32, 1]).data.shape == (1, 32, 32)


@pytest.mark.parametrize("n, size, fibers, max_freq", [(2, 256, 1, 64), (3, 32, 3, 8),
                                                       (2, 256, 1, 1)])
def test_random_band_limited_memory_estimate_bounds_its_peak(monkeypatch, n, size, fibers,
                                                             max_freq):
    # the field, with the larger of the draw's band work (8320 primaries at band
    # 64 on 256^2) and the finiteness flags of its values, which exceed the draw
    # at band 1; Python objects are left out, hence the 64 kB allowance, and the
    # estimate stays within 1.5 times the peak
    estimates = []
    monkeypatch.setattr(spectral, "_refuse_beyond_memory",
                        lambda needed, subject, purpose: estimates.append(needed()))
    grid = Grid(n, size)
    random_band_limited(grid, fibers, max_freq, [size, 2])  # imports numpy.random
    estimates.clear()
    tracemalloc.start()
    try:
        random_band_limited(grid, fibers, max_freq, [size, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimates[0] + 2 ** 16
    assert estimates[0] <= 1.5 * peak


# ------------------------------------------------------------------ bump window

def test_periodic_bump_profile():
    grid = Grid(1, 64)
    x = np.arange(64) * (TWO_PI / 64)
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


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("width", [0.25, 0.5, 1.0])
def test_bump_coefficients_are_the_product_of_one_axis_transform(n, width):
    # the bump is an outer product of one profile per axis, so its coefficients
    # are the product of that profile's 1-D coefficients, formed one axis at a
    # time in place; in 1-D they are the transform itself, bit for bit
    grid = Grid(n, 32 if n < 3 else 16)
    expected = forward_transform(GridField(grid, periodic_bump(grid, width)[None])).coeffs
    factor = spectral._bump_coefficients(grid, width)
    if n == 1:
        assert factor.tobytes() == expected[0].tobytes()
    envelope = np.ones((1,) + grid.shape, dtype=complex)
    spectral._envelope(envelope, factor, (0,) * n)
    assert np.abs(envelope - expected).max() <= 1e-15 * np.abs(expected).max()
    # rolled by a shift, the envelope is the transform rolled by it
    shift = (3, -5, 2)[:n]
    shifted = np.ones((2,) + grid.shape, dtype=complex)
    spectral._envelope(shifted, factor, shift)
    rolled = np.roll(expected, shift, axis=tuple(range(1, n + 1)))
    assert np.abs(shifted - rolled).max() <= 1e-15 * np.abs(expected).max()
