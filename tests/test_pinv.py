import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrank import experiments, pinv
from symrank.pinv import DEFAULT_TOL, kernel_projector, numerical_rank, pinv_svd
from symrank.operators import Operator, _real_stack, symbol, symbol_stack
from symrank.rank import rank_profile, sphere_samples
from symrank.spectral import Grid, _kernel_projector_table
from symrank.zoo import zoo_get, zoo_list

from decell import IllConditionedError, char_poly_coeffs, pinv_decell


def random_matrix_with_rank(rows, cols, rank, seed, complex_entries=True):
    """Orthonormal factors times singular values in [0.5, 2]: the rank is
    exact and the conditioning bounded, so route accuracy is not in play."""
    rng = np.random.default_rng(seed)

    def orthonormal(size):
        real = rng.standard_normal((size, rank))
        if complex_entries:
            real = real + 1j * rng.standard_normal((size, rank))
        return np.linalg.qr(real)[0]

    if rank == 0:
        return np.zeros((rows, cols), dtype=complex)
    left, right = orthonormal(rows), orthonormal(cols)
    return (left @ np.diag(rng.uniform(0.5, 2.0, rank)) @ right.conj().T).astype(complex)


def penrose_defect(a, x):
    """Max violation of the four Moore-Penrose identities, scale-normalized."""
    scale = max(np.abs(a).max(), 1.0)
    ax, xa = a @ x, x @ a
    return max(
        np.abs(a @ x @ a - a).max() / scale,
        np.abs(x @ a @ x - x).max() * scale,
        np.abs(ax - ax.conj().T).max(),
        np.abs(xa - xa.conj().T).max(),
    )


# -------------------------------------------------------------- rank

def test_numerical_rank_basics():
    assert numerical_rank(np.zeros((3, 2))) == 0
    assert numerical_rank(np.eye(4)) == 4
    assert numerical_rank(np.diag([1.0, 1e-12])) == 1
    assert numerical_rank(np.diag([1.0, 1e-4])) == 2
    # threshold is relative to sigma_max
    assert numerical_rank(np.diag([1e-13, 1e-25])) == 1


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 5), st.integers(0, 2 ** 31))
@settings(max_examples=60)
def test_numerical_rank_matches_construction(rows, cols, rank, seed):
    rank = min(rank, rows, cols)
    mat = random_matrix_with_rank(rows, cols, rank, seed)
    assert numerical_rank(mat) == rank
    assert numerical_rank(mat) == np.linalg.matrix_rank(mat)


def test_rank_input_validation():
    with pytest.raises(ValueError, match="tol"):
        numerical_rank(np.eye(2), tol=0.0)
    with pytest.raises(ValueError, match="2d"):
        numerical_rank(np.ones(3))
    with pytest.raises(ValueError, match="non-finite"):
        numerical_rank(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("tol", [3e-16, 0.99 * pinv._TOL_FLOOR, float("nan")])
def test_cutoffs_below_the_floor_or_nan_are_refused(tol):
    # below 64 eps of sigma_max a singular value is the SVD's rounding, so a
    # cutoff there decides nothing; every routine refuses it with the one
    # validator's message
    mats = np.eye(3)[None].repeat(2, axis=0)
    for route in (numerical_rank, kernel_projector, pinv_svd):
        with pytest.raises(ValueError, match=r"tol must lie in \[1.42e-14, 1\)"):
            route(mats, tol)
    with pytest.raises(ValueError, match=r"tol must lie in \[1.42e-14, 1\)"):
        pinv._kept(np.ones((2, 3)), tol)


def test_the_cutoff_floor_is_64_eps_and_is_accepted():
    assert pinv._TOL_FLOOR == 64 * np.finfo(float).eps
    assert numerical_rank(np.diag([1.0, 1e-13]), pinv._TOL_FLOOR) == 2
    assert numerical_rank(np.diag([1.0, 1e-14]), pinv._TOL_FLOOR) == 1


# -------------------------------------------------------------- char poly

def test_char_poly_frozen_examples():
    # det(B - lam I) for B = diag(2, 0): lam^2 - 2 lam, so (a0, a1, a2) = (1, -2, 0)
    assert np.allclose(char_poly_coeffs(np.diag([2.0, 0.0])), [1.0, -2.0, 0.0])
    # B = I: (lam - 1)^2 = lam^2 - 2 lam + 1
    assert np.allclose(char_poly_coeffs(np.eye(2)), [1.0, -2.0, 1.0])
    assert np.allclose(char_poly_coeffs(np.array([[3.0]])), [1.0, -3.0])


@given(st.integers(1, 6), st.integers(0, 2 ** 31))
@settings(max_examples=60)
def test_char_poly_roots_are_eigenvalues(d, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    herm = raw + raw.conj().T
    coeffs = char_poly_coeffs(herm)
    assert coeffs[0] == 1.0
    assert np.allclose(np.sort(np.roots(coeffs)), np.sort(np.linalg.eigvalsh(herm)),
                       atol=1e-6 * max(1.0, np.abs(herm).max()) ** d)


def test_char_poly_det_and_trace():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((4, 4))
    herm = raw + raw.T
    coeffs = char_poly_coeffs(herm)
    # a_1 = -tr B, a_d = (-1)^d det B  (from det(B - lam I) = (-1)^d sum a_j lam^{d-j})
    assert np.isclose(coeffs[1], -np.trace(herm))
    assert np.isclose(coeffs[4], np.linalg.det(herm))


def test_char_poly_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        char_poly_coeffs(np.ones((2, 3)))
    with pytest.raises(ValueError, match="Hermitian"):
        char_poly_coeffs(np.array([[0.0, 1.0], [0.0, 0.0]]))


# -------------------------------------------------------------- pseudoinverse

def test_pinv_decell_frozen_examples():
    got = pinv_decell(np.diag([2.0, 0.0]), 1)
    assert np.allclose(got, [[0.5, 0.0], [0.0, 0.0]], atol=1e-14)
    # divergence symbol at e3 is i e3^T; its pseudoinverse is -i e3
    mat = symbol(zoo_get("divergence"), (0.0, 0.0, 1.0))
    assert np.allclose(pinv_decell(mat, 1), [[0.0], [0.0], [-1.0j]], atol=1e-14)


def test_pinv_zero_matrix():
    assert np.allclose(pinv_decell(np.zeros((2, 3)), 0), np.zeros((3, 2)))
    assert np.allclose(pinv_svd(np.zeros((2, 3))), np.zeros((3, 2)))


def test_pinv_inverse_case():
    rng = np.random.default_rng(9)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.allclose(pinv_svd(mat) @ mat, np.eye(4), atol=1e-10)
    assert np.allclose(pinv_decell(mat, 4), np.linalg.inv(mat), atol=1e-8)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 6), st.integers(0, 2 ** 31),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_penrose_identities_both_routes(rows, cols, rank, seed, complex_entries):
    rank = min(rank, rows, cols)
    mat = random_matrix_with_rank(rows, cols, rank, seed, complex_entries)
    for route in (pinv_svd(mat), pinv_decell(mat, rank)):
        assert route.shape == (cols, rows)
        assert penrose_defect(mat, route) < 1e-8


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 5), st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_routes_agree_with_each_other_and_numpy(rows, cols, rank, seed):
    rank = min(rank, rows, cols)
    mat = random_matrix_with_rank(rows, cols, rank, seed)
    svd_route = pinv_svd(mat)
    poly_route = pinv_decell(mat, rank)
    scale = max(1.0, np.abs(svd_route).max())
    assert np.abs(svd_route - poly_route).max() <= 1e-8 * scale
    assert np.abs(svd_route - np.linalg.pinv(mat)).max() <= 1e-8 * scale


def test_pinv_decell_ill_conditioned_fallback_path():
    # a_2 of A A* for A = diag(1, 1e-8) is 1e-16, below the floor
    mat = np.diag([1.0, 1e-8])
    with pytest.raises(IllConditionedError):
        pinv_decell(mat, 2)
    # the svd route has no such restriction
    assert np.allclose(pinv_svd(mat, tol=1e-10), np.diag([1.0, 1e8]))


def test_pinv_decell_rank_validation():
    with pytest.raises(ValueError, match="rank"):
        pinv_decell(np.eye(2), 3)
    with pytest.raises(ValueError, match="rank"):
        pinv_decell(np.eye(2), -1)


# -------------------------------------------------------------- projector

@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 5), st.integers(0, 2 ** 31))
@settings(max_examples=60)
def test_kernel_projector_properties(rows, cols, rank, seed):
    rank = min(rank, rows, cols)
    mat = random_matrix_with_rank(rows, cols, rank, seed)
    proj = kernel_projector(mat)
    assert proj.shape == (cols, cols)
    assert np.abs(proj - proj.conj().T).max() < 1e-12
    assert np.abs(proj @ proj - proj).max() < 1e-10
    scale = max(1.0, np.abs(mat).max())
    assert np.abs(mat @ proj).max() < 1e-9 * scale
    assert np.isclose(np.trace(proj).real, cols - rank, atol=1e-8)


def test_kernel_projector_zero_matrix_is_identity():
    assert np.allclose(kernel_projector(np.zeros((2, 3))), np.eye(3))


# -------------------------------------------------------------- one cutoff rule

@pytest.mark.parametrize("mat, rank", [
    (np.diag([1.0, 1.01 * DEFAULT_TOL]), 2),
    (np.diag([1.0, 0.99 * DEFAULT_TOL]), 1),
    (np.zeros((2, 2)), 0),
], ids=["above-tol", "below-tol", "zero"])
def test_every_route_applies_the_same_cutoff(mat, rank):
    assert numerical_rank(mat) == rank
    assert np.count_nonzero(np.linalg.svd(pinv_svd(mat), compute_uv=False)) == rank
    assert np.isclose(np.trace(kernel_projector(mat)).real, 2 - rank)
    if rank == 0:
        # a zero coefficient is no operator, but every symbol is zero at frequency 0
        op, freqs = Operator("cutoff", 1, 1, 2, 2, (((1,), np.eye(2)),)), [0]
    else:
        # the symbol at xi is i xi mat, so the relative cutoff sees mat at every xi != 0
        op, freqs = Operator("cutoff", 1, 1, 2, 2, (((1,), mat),)), [1, 2, -2, -1]
        assert set(rank_profile(op, num_samples=8).ranks.tolist()) == {rank}
    table = _kernel_projector_table(op, Grid(1, 4), DEFAULT_TOL)
    for xi in freqs:
        assert np.isclose(np.trace(table[xi % 4]).real, 2 - rank)


def test_stack_routes_equal_per_matrix_results():
    mats = np.stack([random_matrix_with_rank(3, 4, rank, seed)
                     for seed, rank in enumerate([0, 1, 2, 3, 3, 1])]).reshape(2, 3, 3, 4)
    dagger = pinv_svd(mats)
    proj = kernel_projector(mats)
    ranks = numerical_rank(mats)
    assert dagger.shape == (2, 3, 4, 3) and proj.shape == (2, 3, 4, 4)
    assert ranks.shape == (2, 3) and ranks.tolist() == [[0, 1, 2], [3, 3, 1]]
    for idx in np.ndindex(2, 3):
        assert ranks[idx] == numerical_rank(mats[idx])
        np.testing.assert_allclose(dagger[idx], pinv_svd(mats[idx]), rtol=0, atol=1e-13)
        np.testing.assert_allclose(proj[idx], kernel_projector(mats[idx]), rtol=0, atol=1e-13)


@pytest.mark.parametrize("route", [pinv_svd, kernel_projector, numerical_rank])
def test_stack_routes_reject_bad_input(route):
    bad = np.ones((2, 2, 2))
    bad[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        route(bad)
    with pytest.raises(ValueError, match="expected a 2d matrix"):
        route(np.ones(3))
    for empty in (np.zeros((2, 0)), np.zeros((0, 2, 2))):
        with pytest.raises(ValueError, match="expected a 2d matrix"):
            route(empty)
    with pytest.raises(ValueError, match="tol"):
        route(np.ones((2, 2, 2)), tol=1.0)


# ------------------------------------------- closed form and real route

def svd_routes(mats, tol=DEFAULT_TOL):
    """Rank, pseudoinverse and kernel projector straight from numpy.linalg.svd."""
    u, sigma, vh = np.linalg.svd(mats, full_matrices=False)
    keep = sigma > tol * sigma[..., :1]
    inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=keep)
    vh_h = np.swapaxes(vh.conj(), -1, -2)
    dagger = vh_h @ (inv[..., :, None] * np.swapaxes(u.conj(), -1, -2))
    proj = np.eye(mats.shape[-1]) - vh_h @ (keep[..., :, None] * vh)
    return np.count_nonzero(keep, axis=-1), dagger, proj


def assert_close_per_matrix(got, expected, rtol):
    """Each matrix within rtol of the largest entry of its expected value."""
    axes = (-2, -1)
    size = np.abs(expected).max(axis=axes)
    assert (np.abs(got - expected).max(axis=axes) <= rtol * size).all()


def vector_stack(kind):
    """Four rows (1 x 3) or columns (3 x 1): random, zero, one nonzero entry, and
    entries 1e-30 apart in size, real or complex."""
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((4, 1, 3))
    if kind.startswith("complex"):
        rows = rows + 1j * rng.standard_normal((4, 1, 3))
    rows[1] = 0.0
    rows[2, 0, :2] = 0.0
    rows[3, 0, 1] *= 1e-30
    return np.swapaxes(rows, -1, -2) if kind.endswith("columns") else rows


@pytest.mark.parametrize("c", [1e-200, 1e-12, 1.0, 1e12, 1e200])
@pytest.mark.parametrize("kind", ["real-rows", "complex-rows", "real-columns", "complex-columns"])
def test_closed_form_matches_lapack_at_every_scale(kind, c):
    # a real row or column is the Jacobi kernel's case without rotations, sigma
    # = |a| after an exact power-of-two prescale (complex ones go to LAPACK):
    # unscaled, |a|^2 underflows to 0 at 1e-200 and overflows at 1e200, and
    # either reads as rank 0
    mats = c * vector_stack(kind)
    ranks, dagger, proj = svd_routes(mats)
    assert ranks.tolist() == [1, 0, 1, 1]
    assert numerical_rank(mats).tolist() == ranks.tolist()
    assert [numerical_rank(mat) for mat in mats] == ranks.tolist()
    assert_close_per_matrix(pinv_svd(mats), dagger, 1e-14)
    assert_close_per_matrix(kernel_projector(mats), proj, 1e-14)
    real = kind.startswith("real")
    assert (pinv_svd(mats).dtype == float) == real
    assert (kernel_projector(mats).dtype == float) == real


@pytest.mark.parametrize("entry", zoo_list(), ids=lambda e: e.name)
def test_real_factor_route_equals_complex_route_on_zoo_symbols(entry):
    # the real factor M of A = i^k M is the package's symbol format
    op = entry.build()
    xis = np.vstack([np.zeros(op.n), sphere_samples(op.n, 64)])
    real = _real_stack(op, xis)
    mats = symbol_stack(op, xis)
    assert real.dtype == np.float64
    # A = i^k M bitwise, so the two routes see the same matrices
    assert (1j ** op.k * real).tobytes() == mats.tobytes()
    assert numerical_rank(real).tolist() == numerical_rank(mats).tolist()
    np.testing.assert_allclose(kernel_projector(real), kernel_projector(mats), rtol=0, atol=1e-14)
    assert_close_per_matrix(1j ** -op.k * pinv_svd(real), pinv_svd(mats), 1e-14)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_real_route_equals_complex_route_on_rank_deficient_stacks(k):
    # shapes with LAPACK on both sides and the closed form on both sides
    for rows, cols in ((3, 4), (4, 3), (1, 4), (4, 1)):
        real = np.stack([random_matrix_with_rank(rows, cols, rank, seed, complex_entries=False).real
                         for seed, rank in enumerate([0, 1, min(rows, cols), 1, 0])])
        if rows > 1 and cols > 1:
            real[3] = random_matrix_with_rank(rows, cols, 2, 7, complex_entries=False).real
        mats = 1j ** k * real
        assert numerical_rank(real).tolist() == numerical_rank(mats).tolist()
        np.testing.assert_allclose(kernel_projector(real), kernel_projector(mats),
                                   rtol=0, atol=1e-14)
        assert_close_per_matrix(1j ** -k * pinv_svd(real), pinv_svd(mats), 1e-14)


# -------------------------------------------------------------- Jacobi kernel

KINDS = ("random", "deficient", "graded", "zero", "skew")


def kernel_input(rows, cols, kind, rank, scale, rng):
    """One real matrix of a kind the symbol tables meet, times scale."""
    if kind == "zero":
        return np.zeros((rows, cols))
    if kind == "skew":
        # the curl symbol at a random xi, cropped to the shape: rank 2 at 3 x 3
        a, b, c = rng.standard_normal(3)
        mat = np.zeros((4, 4))
        mat[:3, :3] = [[0.0, -c, b], [c, 0.0, -a], [-b, a, 0.0]]
        return scale * mat[:rows, :cols]
    if kind == "deficient":
        # rank-deficient by construction: an inner dimension below min(rows, cols)
        inner = rank % min(rows, cols)
        return scale * (rng.standard_normal((rows, inner)) @ rng.standard_normal((inner, cols)))
    mat = rng.standard_normal((rows, cols))
    if kind == "graded":
        # columns graded down to 1e-12
        mat *= np.logspace(0, -12, cols)
    return scale * mat


def orthonormal_columns(q, cols):
    return np.abs(q[:, cols].T @ q[:, cols] - np.eye(np.count_nonzero(cols))).max(initial=0.0)


@given(st.integers(1, 4), st.integers(1, 4),
       st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 3),
                          st.sampled_from([1e-200, 1.0, 1e200])), min_size=1, max_size=6),
       st.integers(0, 2 ** 31))
@settings(max_examples=200, deadline=None)
def test_jacobi_kernel_matches_lapack(rows, cols, specs, seed):
    rng = np.random.default_rng(seed)
    mats = np.stack([kernel_input(rows, cols, kind, rank, scale, rng)
                     for kind, rank, scale in specs])
    u, sigma, vh = pinv._svd(mats, want_u=True, want_vh=True)
    assert pinv._svd(mats)[1].tobytes() == sigma.tobytes()
    want = np.linalg.svd(mats, compute_uv=False)
    for mat, u1, s1, vh1, w1 in zip(mats, u, sigma, vh, want):
        top = w1[0]
        assert np.abs(s1 - w1).max() <= 1e-14 * top
        assert (np.diff(s1) <= 0).all()
        assert np.abs((u1 * s1) @ vh1 - mat).max() <= 1e-14 * top
        # the rotated side is orthonormal throughout; the normalized side on
        # every column above numerical zero (a zero column stays zero)
        visible = s1 > 1e-13 * top
        assert orthonormal_columns(u1, visible) <= 1e-14
        assert orthonormal_columns(vh1.T, visible) <= 1e-14
        exact = vh1.T if rows >= cols else u1
        assert orthonormal_columns(exact, np.ones(len(s1), dtype=bool)) <= 1e-14


@pytest.mark.parametrize("count, block", [(pinv._BLOCK + 40, 4116), (8320, 4160)])
@pytest.mark.parametrize("shape", [(3, 3), (3, 2), (2, 3), (1, 3), (4, 4), (3, 1)])
def test_jacobi_kernel_is_bitwise_independent_of_the_stack(shape, count, block):
    # report bytes must not depend on how many frequencies share a block or on
    # which factors a caller reads, so for every choice of factors a matrix
    # decomposes to the same bits alone and anywhere in a stack longer than
    # one block, signed zeros included, and to the bits it has next to both
    # factors; a factor not asked for is never allocated.  _svd takes such a
    # stack as one block, where _blockwise hands it two equal blocks: 8320
    # matrices, a 256^2 grid's band 64, are two of 4160
    assert pinv._block_size(count) == block
    assert [pinv._block_size(c) for c in (5, pinv._BLOCK, 3 * pinv._BLOCK)] == [5, 8192, 8192]
    rng = np.random.default_rng(3)
    mats = rng.standard_normal((count,) + shape)
    mats[::7] = 0.0
    mats[1::5, 0] = -0.0
    mats[2::9, :, -1] = 0.0
    mats[3::11] *= 1e-200
    mats[4::13] *= 1e200
    mats[6::3] = [kernel_input(*shape, "skew", 0, 1.0, rng) for _ in mats[6::3]]
    mats[8::10] = [kernel_input(*shape, "deficient", 1, 1.0, rng) for _ in mats[8::10]]
    both = pinv._svd(mats, want_u=True, want_vh=True)
    for want_u, want_vh in itertools.product((False, True), repeat=2):
        stacked = pinv._svd(mats, want_u=want_u, want_vh=want_vh)
        wanted = (want_u, True, want_vh)
        for got, full, want in zip(stacked, both, wanted):
            assert (got is not None) == want
            if want:
                assert got.tobytes() == full.tobytes()
        for i in [*range(30), *range(block - 5, block + 5), *range(pinv._BLOCK - 5, len(mats))]:
            alone = pinv._svd(mats[i], want_u=want_u, want_vh=want_vh)
            for got, full, want in zip(alone, both, wanted):
                assert (got is not None) == want
                if want:
                    assert got.tobytes() == full[i].tobytes(), (i, want_u, want_vh)


HADAMARD = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0],
                     [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]]) / 2.0


def tied_stack(rows, cols, rng):
    """Matrices with exactly tied singular values, among random ones: zero
    matrices, duplicated columns and rows, and scaled signed permutations and
    Hadamard blocks, whose columns or rows are orthogonal with equal norms."""
    size = max(rows, cols)
    line = rng.standard_normal(size)
    mats = [np.zeros((rows, cols)), np.repeat(line[:rows, None], cols, axis=1),
            np.repeat(line[None, :cols], rows, axis=0)]
    for scale in (1.0, 3.0, 0.1, 1e-200, 1e200):
        signs = rng.choice([-1.0, 1.0], size)
        mats.append(scale * (np.eye(size)[rng.permutation(size)] * signs)[:rows, :cols])
        if size == 4:
            mats.append(scale * HADAMARD[:rows, :cols])
    mats += list(rng.standard_normal((6, rows, cols)))
    stack = np.stack(mats)
    return stack[rng.permutation(len(stack))]


def argsort_reference(mats, want_u, want_vh):
    """_svd with its Jacobi sort replaced by a stable argsort and take_along_axis.

    The kernel runs with its swaps turned off, so sigma and the factors come
    back in column order, and are then sorted as numpy sorts them.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pinv, "_swap", lambda x, y, swap: None)
        u, sigma, vh = pinv._svd(mats, want_u=want_u, want_vh=want_vh)
    order = np.argsort(-sigma, axis=-1, kind="stable")
    if want_u:
        u = np.take_along_axis(u, order[:, None, :], axis=-1)
    if want_vh:
        vh = np.take_along_axis(vh, order[:, :, None], axis=-2)
    return u, np.take_along_axis(sigma, order, axis=-1), vh, order


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (3, 3), (4, 4), (4, 2), (2, 4), (1, 3),
                                   (3, 1)])
def test_jacobi_sort_keeps_the_stable_argsort_order_on_ties(shape):
    # adjacent swaps on a strict > move exactly what a stable argsort moves,
    # tied singular values included, for every choice of factors
    mats = tied_stack(*shape, np.random.default_rng(7))
    for want_u, want_vh in itertools.product((False, True), repeat=2):
        *want, order = argsort_reference(mats, want_u, want_vh)
        got = pinv._svd(mats, want_u=want_u, want_vh=want_vh)
        for a, b in zip(got, want):
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), (want_u, want_vh)
    if min(shape) > 1:
        # the stack has exact ties and needs the sort
        assert (np.diff(want[1], axis=-1) == 0.0).any()
        assert (order != np.arange(min(shape))).any()


def svd_peak(mats, want_u, want_vh):
    """Traced peak of _svd on mats beyond the arrays it returns, in bytes."""
    pinv._svd(mats[:16], want_u=want_u, want_vh=want_vh)  # first-call allocations
    tracemalloc.start()
    try:
        out = pinv._svd(mats, want_u=want_u, want_vh=want_vh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, peak - sum(a.nbytes for a in out if a is not None)


@pytest.mark.parametrize("want_u, want_vh", list(itertools.product((False, True), repeat=2)))
def test_jacobi_working_set_grows_by_under_25_doubles_per_matrix(want_u, want_vh):
    # the sort moves sigma, columns and rotations by swaps, with no index arrays,
    # and a rotation's scalars are freed before its columns rotate; from 512 to
    # 1024 matrices of one block, what _svd holds beyond its outputs grows by
    # fewer than 25 doubles per matrix, and the whole peak by at most the
    # estimate (_svd_entries)
    mats = np.random.default_rng(2).standard_normal((1024, 3, 2))
    (peak, beyond), (half_peak, half_beyond) = (svd_peak(m, want_u, want_vh)
                                                for m in (mats, mats[:512]))
    assert beyond - half_beyond < 25 * 8 * 512
    assert peak - half_peak <= 8 * 512 * pinv._svd_entries(3, 2, want_u, want_vh)


# the tables each pass fills on (rows, cols) matrices: the three public routines,
# and the joint passes of the drop witness (rank.find_rank_drop_witness) and of an
# exact ladder's rungs (experiments._rungs)
PASSES = {
    "numerical_rank": lambda rows, cols: [pinv._ranks(DEFAULT_TOL)],
    "kernel_projector": lambda rows, cols: [pinv._projectors(cols, DEFAULT_TOL)],
    "pinv_svd": lambda rows, cols: [pinv._pseudoinverses(rows, cols, DEFAULT_TOL)],
    "witness": lambda rows, cols: [pinv._ranks(DEFAULT_TOL), pinv._projectors(cols, DEFAULT_TOL)],
    "rungs": lambda rows, cols: [pinv._ranks(DEFAULT_TOL), experiments._probes(rows, DEFAULT_TOL),
                                 pinv._projectors(cols, DEFAULT_TOL)],
}
ROUTINES = {"numerical_rank": numerical_rank, "kernel_projector": kernel_projector,
            "pinv_svd": pinv_svd}


@pytest.mark.parametrize("count", [1, pinv._BLOCK + 1, 3 * pinv._BLOCK + 1],
                         ids=["1", "block+1", "3block+1"])
@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (3, 1), (1, 3), (12, 5)],
                         ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("routine", list(PASSES))
def test_routines_hold_at_most_their_estimate_beside_the_output(routine, shape, count):
    # each routine takes its stack a block at a time into preallocated outputs, so
    # beside them it holds one block's working set, which pinv's estimate from the
    # tables it fills bounds; Python objects and numpy's iteration buffers, which
    # the estimate leaves out, stay under 64 KiB
    tables = PASSES[routine](*shape)
    run = ROUTINES.get(routine, lambda mats: pinv._blockwise(mats, *tables))
    mats = np.random.default_rng(4).standard_normal((count,) + shape)
    mats[::3, :, 0] = 0.0
    run(mats[:2])  # first-call allocations
    tracemalloc.start()
    try:
        out = run(mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = peak - sum(part.nbytes for part in (out if isinstance(out, list) else [out]))
    assert held <= 8 * pinv._held_entries(*shape, count, *tables) + 2 ** 16


def test_complex_sigma_alone_is_lapacks_values_only_call():
    # complex public input ranks as numpy.linalg.svd(compute_uv=False) ranks it
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((20, 3, 2)) + 1j * rng.standard_normal((20, 3, 2))
    mats[::4, :, 1] = 2.0 * mats[::4, :, 0]
    assert pinv._svd(mats)[1].tobytes() == np.linalg.svd(mats, compute_uv=False).tobytes()
    assert numerical_rank(mats).tolist() == [1, 2, 2, 2] * 5


# -------------------------------------------------------------- homogeneity

@pytest.mark.parametrize("name", ["divergence", "curl", "gradient", "laplacian",
                                  "symmetric_gradient"])
def test_multiplier_degree_zero_homogeneity(name):
    # at constant rank A+(t xi) = t^-k A+(xi), so the recovery multiplier
    # A+(xi) tensor (i xi)^alpha is homogeneous of degree 0
    op = zoo_get(name)
    rng = np.random.default_rng(21)
    for _ in range(5):
        xi = rng.standard_normal(op.n)
        base = pinv_svd(symbol(op, xi))
        for t in (2.0, 10.0):
            scaled = t ** op.k * pinv_svd(symbol(op, t * xi))
            assert np.abs(scaled - base).max() < 1e-8 * max(1.0, np.abs(base).max())
