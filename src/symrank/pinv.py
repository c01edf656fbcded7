"""Moore-Penrose calculus on symbol matrices.

Numerical rank, the pseudoinverse (pinv_svd) and the kernel projector
I - A+ A all come from one SVD helper (_svd) with one rank cutoff (_kept,
its tol bounded by _check_tol), on single matrices or stacks, real input
staying real and complex complex.  _blockwise is the one loop over a
stack: it takes any stack in equal blocks of at most _BLOCK matrices,
decomposes each block once with the factors its tables read, and fills
every table (_Table: ranks, projectors, pseudoinverses, norms or a
caller's own) from that one decomposition, so no module outside pinv
calls _svd; _held_entries sizes a pass from the tables it fills.
Every symbol matrix the package decomposes is the real M of A = i^k M
(see operators._real_stack).
Real input takes a one-sided (Hestenes) Jacobi kernel, vectorized over
blocks of the stack, so the Python loop runs over column pairs and sweeps
where LAPACK's gesdd costs one call per matrix; one-sided Jacobi computes
small singular values at least as accurately as QR-based SVD (Demmel &
Veselic, 1992).
Complex input comes only from public-API callers and goes to LAPACK
(numpy.linalg.svd).  _norm is the overflow-free norm of values that carry
the operator's scale: it scales by the largest magnitude, while an L^p
grid norm (spectral._grid_norm) scales a whole field by a running power
of two and takes _norm of its fiber norms.  _refuse_beyond_memory is the
one physical-memory check behind the refusals of oversized tables
(spectral) and sphere sweeps (rank); it evaluates their estimates, so one
too large for a float is refused too.  _check_int is the one check of
every count argument the package takes.
"""

import itertools
import math
import os
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-10
_TOL_FLOOR = 64 * np.finfo(float).eps


def _as_matrices(mat) -> np.ndarray:
    """A nonempty (..., m, n) float or complex stack; _blockwise checks finiteness per block."""
    mat = np.asarray(mat)
    mat = mat.astype(complex if np.iscomplexobj(mat) else float, copy=False)
    if mat.ndim < 2 or mat.size == 0:
        raise ValueError(f"expected a 2d matrix or a stack of them, got shape {mat.shape}")
    return mat


def _norm(values, p: float = 2.0, weights=None, overwrite: bool = False) -> np.float64:
    """(sum weights * |values|^p)^(1/p) over all entries, or max |values| at p = inf.

    |values| is first divided by its largest entry, so the largest term is
    exactly 1 at every finite scale and p >= 1; an all-zero array has norm
    0.  weights broadcast against one row values[i] (values itself when it
    is 1-d).  With overwrite, values is a float64 array that is not read
    again and takes its own magnitudes, so nothing its size is allocated.
    """
    mags = np.abs(values, out=values if overwrite else None, order="C")
    top = mags.max()
    if math.isinf(p):
        return top
    # an all-zero array is divided by the smallest subnormal instead and stays zero
    top = np.maximum(top, np.finfo(float).smallest_subnormal)
    mags /= top
    if p == 2.0:
        np.square(mags, out=mags)
    else:
        mags **= p
    if weights is not None:
        # one row at a time: over several short rows numpy allocates a 64 KB buffer
        for row in np.atleast_2d(mags):
            row *= weights
    total = mags.sum()
    return (np.sqrt(total) if p == 2.0 else np.power(total, 1.0 / p)) * top


# matrices per block of the Jacobi kernel, at most: the working set is bounded for
# any stack length, and blocks of this size also run faster than one whole stack
_BLOCK = 8192
# small matrices converge in a few sweeps; a block still rotating after this
# many has met a case the kernel does not handle
_MAX_SWEEPS = 60


def _block_size(count: int) -> int:
    """Matrices per block of a stack of count: ceil(count / _BLOCK) blocks, as equal as they go."""
    return -(-count // -(-count // _BLOCK))


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_r x[r] * y[r] for two (rows, B) column blocks, added in row order.

    Explicit per-row products round the same at every stack length and
    position, which a strided einsum or sum reduction does not promise.
    """
    acc = x[0] * y[0]
    for row in range(1, len(x)):
        acc += x[row] * y[row]
    return acc


def _rotation(x: np.ndarray, y: np.ndarray, tol: float, floor: np.ndarray):
    """(c, s) of the Jacobi rotation that orthogonalizes the column pair (x, y), or None.

    One (c, s) per matrix of the block; a matrix whose pair is already
    orthogonal to tol of its norms, or has a column whose squared norm is at
    or below floor, gets (1, 0).  None when no matrix needs a rotation.  The pair's inner
    products and tangent are freed on return, before the columns rotate.
    """
    alpha, beta, gamma = _dot(x, x), _dot(y, y), _dot(x, y)
    rotate = np.abs(gamma) > tol * np.sqrt(alpha * beta)
    rotate &= np.minimum(alpha, beta) > floor
    if not rotate.any():
        return None
    # t = tan of the rotation angle, the smaller root of t^2 + 2 zeta t - 1 with
    # zeta = (beta - alpha) / 2 gamma, multiplied through by |2 gamma| so that
    # nothing overflows; prescaled entries keep the sqrt argument in range
    diff = beta - alpha
    gamma *= 2.0
    t = np.divide(np.copysign(1.0, diff) * gamma,
                  np.abs(diff) + np.sqrt(diff * diff + gamma * gamma),
                  out=np.zeros(x.shape[-1]), where=rotate)
    c = 1.0 / np.sqrt(1.0 + t * t)
    return c, c * t


def _rotate(x: np.ndarray, y: np.ndarray, c: np.ndarray, s: np.ndarray) -> None:
    """(x, y) <- (c x - s y, s x + c y) in place, one (c, s) per matrix of the block."""
    new_x = c * x
    new_x -= s * y
    y *= c
    y += s * x
    x[...] = new_x


def _swap(x: np.ndarray, y: np.ndarray, swap: np.ndarray) -> None:
    """Exchange x and y in place where swap holds, one flag per matrix of the block."""
    held = np.where(swap, y, x)
    np.copyto(y, x, where=swap)
    x[...] = held


def _jacobi_block(work: np.ndarray, normalize: bool, accumulate: bool):
    """One-sided (Hestenes) Jacobi SVD of a block of matrices, in place.

    work is (r, rows, B), r <= rows: work[c] is column c of each of the B
    matrices, prescaled so that the largest entry has magnitude in [0.5, 1).
    Column pairs are rotated until every pair is orthogonal to rows * eps of
    its norms; a column whose squared norm is below (rows eps)^2 ||A||_F^2 is
    numerical zero and never rotated, which keeps rank-deficient matrices
    from cycling at rounding level.  sigma is then sorted in place by
    adjacent compare-and-swap (_swap), the normalized columns and the
    rotations moving with it; a swap needs a strictly larger sigma, so ties
    keep their column order, the permutation of a stable argsort(-sigma),
    and no index array is made.  Returns (sigma, unit, v) with sigma (r,
    B) descending per matrix, unit the columns divided by sigma (a zero
    column stays zero), or None without normalize, and v (r, r, B) the
    accumulated rotations, v[c] column c of V, or None without accumulate.
    A matrix that needs no more rotations is left unchanged but for the sign
    of zero entries, which the final + 0.0 canonicalizes, so every output is
    bitwise independent of the other matrices in the block and of which
    factors were asked for.
    """
    rank, rows, size = work.shape
    tol = rows * np.finfo(float).eps
    floor = tol * tol * sum(_dot(col, col) for col in work)
    v = None
    if accumulate:
        v = np.zeros((rank, rank, size))
        for c in range(rank):
            v[c, c] = 1.0
    pairs = list(itertools.combinations(range(rank), 2))
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for i, j in pairs:
            x, y = work[i], work[j]
            rotation = _rotation(x, y, tol, floor)
            if rotation is None:
                continue
            rotated = True
            _rotate(x, y, *rotation)
            if accumulate:
                _rotate(v[i], v[j], *rotation)
        if not rotated:
            break
    else:
        raise np.linalg.LinAlgError(f"Jacobi SVD did not converge in {_MAX_SWEEPS} sweeps")
    sigma = np.sqrt([_dot(col, col) for col in work])
    # bubble sort: a strict > leaves ties in column order
    for end in range(rank - 1, 0, -1):
        for c in range(end):
            swap = sigma[c + 1] > sigma[c]
            _swap(sigma[c], sigma[c + 1], swap)
            if normalize:
                _swap(work[c], work[c + 1], swap)
            if accumulate:
                _swap(v[c], v[c + 1], swap)
    if normalize:
        work /= np.where(sigma > 0.0, sigma, 1.0)[:, None]
        work += 0.0
    if accumulate:
        v += 0.0
    return sigma, (work if normalize else None), v


def _svd_entries(rows: int, cols: int, want_u: bool, want_vh: bool) -> int:
    """Real entries per matrix that _svd holds at its peak on a real block.

    sigma and the factors asked for, plus the Jacobi working set: per
    matrix, the columns, the rotations when they are accumulated, the rank
    cutoff's floor and the prescaling exponent, and beside them the largest
    of |A| while prescaling; where the matrices have a column pair
    (min(rows, cols) >= 2), a rotation's inner products, tangent and their
    temporaries (_rotation), or its two column temporaries (_rotate); and
    sigma while it is built, sorted, with one swapped column's temporary
    (_swap), and divided out.
    """
    rank, length = min(rows, cols), max(rows, cols)
    wide = rows < cols
    normalize, accumulate = (want_vh, want_u) if wide else (want_u, want_vh)
    swapped = max(length * normalize, rank * accumulate, 1)
    rotation = max(12, 2 * length + 2) if rank >= 2 else 0
    working = (rank * length + rank * rank * accumulate + 2
               + max(rank * length + 2, rotation, 3 * rank + swapped))
    return rank * (1 + rows * want_u + cols * want_vh) + working


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _refuse_beyond_memory(needed: Callable[[], float], subject: str, purpose: str) -> None:
    """Raise MemoryError, naming subject and purpose, when needed() bytes exceed physical memory.

    needed is evaluated here, so an estimate too large for a float counts as
    too large for the machine.
    """
    available = _physical_memory()
    if available is None:
        return
    try:
        size = float(needed())
    except OverflowError:
        size = math.inf
    if size > available:
        amount = (f"about {size / 1e9:.3g} GB" if size < math.inf
                  else "more bytes than a float holds")
        raise MemoryError(f"{subject} needs {amount} {purpose}; "
                          f"physical memory is {available / 1e9:.3g} GB")


def _svd(mats: np.ndarray, want_u: bool = False, want_vh: bool = False):
    """numpy.linalg.svd(mats, full_matrices=False) of one block, a stack from _as_matrices.

    Returns (u, sigma, vh) in the dtype of mats, C-contiguous, with u and
    vh None unless asked for, so a caller pays only for the factors it
    reads.  Complex stacks go to LAPACK, which computes values only when no
    factor is asked for.  Real stacks take the Jacobi kernel
    (_jacobi_block) as one block, rotating the min(m, n) columns of A, or
    of A^T when A is wide, so a row or column needs no rotation: sigma =
    |a|.  The normalized columns give u (vh for a wide A) and the
    accumulated rotations vh (u).  Each matrix is first scaled exactly by a
    power of two, so operators scaled by 1e+-200 neither overflow nor
    underflow.  Singular vectors of a zero singular value are zero, which
    the strict cutoff of _kept never keeps.  A matrix decomposes to the
    same bits alone and anywhere in a stack.
    Raises LinAlgError (a ValueError) if the block does not converge.
    """
    if np.iscomplexobj(mats):
        if not (want_u or want_vh):
            return None, np.linalg.svd(mats, compute_uv=False), None
        u, sigma, vh = np.linalg.svd(mats, full_matrices=False)
        return (u if want_u else None), sigma, (vh if want_vh else None)
    rows, cols = mats.shape[-2:]
    rank = min(rows, cols)
    wide = rows < cols
    normalize, accumulate = (want_vh, want_u) if wide else (want_u, want_vh)
    stack = mats.reshape((-1, rows, cols))
    # the columns of A, or of A^T for a wide A, each a (rows, B) slab
    work = np.empty((rank, max(rows, cols), len(stack)))
    np.copyto(work, stack.transpose((1, 2, 0) if wide else (2, 1, 0)))
    exponent = np.frexp(np.abs(work).max(axis=(0, 1)))[1]
    np.ldexp(work, -exponent, out=work)
    sigma, unit, v = _jacobi_block(work, normalize, accumulate)
    # A = unit diag(sigma) v^T, or its transpose for a wide A
    left, right = (v, unit) if wide else (unit, v)
    lead = mats.shape[:-2]
    u = vh = None
    if want_u:
        u = np.ascontiguousarray(left.transpose(2, 1, 0)).reshape(lead + (rows, rank))
    if want_vh:
        vh = np.ascontiguousarray(right.transpose(2, 0, 1)).reshape(lead + (rank, cols))
    return u, np.ascontiguousarray(np.ldexp(sigma, exponent).T).reshape(lead + (rank,)), vh


def _check_int(value, name: str, low: int | None = 1, high: int | None = None) -> int:
    """value as an int: ValueError naming it unless it is an integer (a bool is not) in [low, high].

    The one count check of the package.  high None leaves the range open
    above, and low None checks the type only.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}]")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}")
    return int(value)


def _check_tol(tol: float) -> None:
    """Raise ValueError unless 64 eps <= tol < 1: below that a cutoff reads the SVD's rounding."""
    if not _TOL_FLOOR <= tol < 1.0:
        raise ValueError(f"tol must lie in [{_TOL_FLOOR:.3g}, 1)")


def _kept(sigma: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the singular values that count: sigma > tol * sigma_max.

    sigma is (..., r) in numpy.linalg.svd order.  The comparison is strict,
    so a zero matrix keeps none and has rank 0.  tol is checked (_check_tol).
    """
    _check_tol(tol)
    return sigma > tol * sigma[..., :1]


class _Table(NamedTuple):
    """One output of a _blockwise pass: shape and dtype per matrix, factors read, and its fill.

    dtype None is the stack's; fill(out, u, sigma, vh) writes a block's part from its factors.
    """

    shape: tuple[int, ...]
    dtype: type | None
    want_u: bool
    want_vh: bool
    fill: Callable


def _factors(tables) -> tuple[bool, bool]:
    """(want_u, want_vh) of a pass that fills tables: every factor some table reads."""
    return any(table.want_u for table in tables), any(table.want_vh for table in tables)


def _blockwise(mat: np.ndarray, *tables: _Table) -> list[np.ndarray]:
    """Each table's (..., *shape) output on mat (from _as_matrices), from one decomposition.

    The one loop over a stack: every output is allocated once and filled
    one block (_block_size) at a time, so 8320 matrices are two of 4160.
    Each block is checked for finiteness and decomposed by one _svd call
    with every factor some table reads, and each table's fill writes its
    part from those factors.  So the pass holds beside its outputs one
    block's working set, which its tables size (_held_entries), and no bit
    depends on the blocks or on the other tables in the pass (_jacobi_block).
    """
    stack = mat.reshape((-1,) + mat.shape[-2:])
    outs = [np.empty((len(stack),) + table.shape, dtype=table.dtype or mat.dtype)
            for table in tables]
    want_u, want_vh = _factors(tables)
    size = _block_size(len(stack))
    for start in range(0, len(stack), size):
        block = stack[start:start + size]
        if not np.isfinite(block).all():
            raise ValueError("matrix has non-finite entries")
        factors = _svd(block, want_u, want_vh)
        for table, out in zip(tables, outs):
            table.fill(out[start:start + len(block)], *factors)
        del factors  # before the next block is decomposed
    return [out.reshape(mat.shape[:-2] + table.shape) for table, out in zip(tables, outs)]


def _ranks(tol: float) -> _Table:
    """numerical_rank's table: the count of kept singular values (_kept) of each matrix."""
    def count(out, u, sigma, vh):
        out[...] = np.count_nonzero(_kept(sigma, tol), axis=-1)
    return _Table((), np.intp, False, False, count)


def _projectors(dim_v: int, tol: float) -> _Table:
    """kernel_projector's table for matrices of dim_v columns."""
    def project(out, u, sigma, vh):
        kept_rows = np.conjugate(vh)
        np.copyto(kept_rows, 0.0, where=~_kept(sigma, tol)[..., None])
        np.einsum("miv,miw->mvw", kept_rows, vh, out=out)
        np.subtract(np.eye(dim_v, dtype=out.dtype), out, out=out)
    return _Table((dim_v, dim_v), None, False, True, project)


def _pseudoinverses(rows: int, cols: int, tol: float) -> _Table:
    """pinv_svd's table for (rows, cols) matrices: V diag(1 / sigma) U^H over the kept values."""
    def invert(out, u, sigma, vh):
        inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=_kept(sigma, tol))
        np.matmul(np.swapaxes(vh.conj(), -1, -2),
                  inv[..., :, None] * np.swapaxes(u.conj(), -1, -2), out=out)
    return _Table((cols, rows), None, True, True, invert)


def _held_entries(rows: int, cols: int, count: int, *tables: _Table) -> int:
    """Real entries that a _blockwise pass filling tables holds beside their outputs.

    _svd's peak with the factors the tables read (_svd_entries; no table
    for a values-only pass) on one block of a real stack of count (rows,
    cols) matrices (_block_size), an exact integer whatever count is.  A
    block's finiteness flags, and what a fill makes from the factors, come
    without the Jacobi working set (over rank * length = rows * cols
    entries) and take less than it.
    """
    return _svd_entries(rows, cols, *_factors(tables)) * _block_size(count)


def _spectral_norms(mat: np.ndarray) -> np.ndarray:
    """|A|_2, the largest singular value, of every matrix of mat (from _as_matrices)."""
    def largest(out, u, sigma, vh):
        out[...] = sigma[..., 0]
    return _blockwise(mat, _Table((), float, False, False, largest))[0]


def numerical_rank(mat, tol: float = DEFAULT_TOL) -> int | np.ndarray:
    """Count of singular values above tol * sigma_max; 0 for the zero matrix.

    An int for one matrix (m, n); an int array of shape (...) for a stack
    (..., m, n), each matrix measured against its own sigma_max.  Real
    input is decomposed in real arithmetic by the Jacobi kernel (see _svd),
    a block at a time (_blockwise).
    """
    ranks = _blockwise(_as_matrices(mat), _ranks(tol))[0]
    return int(ranks) if ranks.ndim == 0 else ranks


def pinv_svd(mat, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Pseudoinverse via SVD of a matrix (m, n) or a stack (..., m, n).

    Singular values at or below tol * sigma_max of their own matrix are
    treated as zero, so the zero matrix maps to the zero matrix.  Satisfies
    the four Penrose identities to rounding for well-separated spectra.
    Real input gives a real pseudoinverse (see _svd); a nonzero row or
    column a gives a* / |a|^2.
    """
    mat = _as_matrices(mat)
    return _blockwise(mat, _pseudoinverses(*mat.shape[-2:], tol))[0]


def kernel_projector(mat, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector I - A+ A onto ker A, for a matrix or a stack (..., m, n).

    Exactly Hermitian (entry (w, v) of the kept rows' product vh_r^H vh_r
    multiplies the conjugates of entry (v, w)'s factors) and idempotent to
    rounding; the zero matrix yields the identity (everything is kernel).
    Real input gives a real, exactly symmetric projector (see _svd).  A
    nonzero row a gives I - a* a / |a|^2, a nonzero column the 1 x 1 zero.
    """
    mat = _as_matrices(mat)
    return _blockwise(mat, _projectors(mat.shape[-1], tol))[0]
