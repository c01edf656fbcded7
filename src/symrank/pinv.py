"""Moore-Penrose calculus on symbol matrices.

Numerical rank, the pseudoinverse (pinv_svd) and the kernel projector
I - A+ A all come from one SVD helper with one rank cutoff, on single
matrices or stacks.  Real input stays real, so LAPACK works in real
arithmetic and the pseudoinverse and projector come back real; complex
input stays complex.  Stacks of rows or columns (min(m, n) = 1) skip
LAPACK: their SVD is the closed form sigma = |a| with singular vector
a / |a|.  The derivative recovery multiplier maps Aphi-coefficients to
D^k(phi - P_A phi)-coefficients at a frequency.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .operators import Operator, MultiIndex, multi_indices, multinomial_weight, symbol

DEFAULT_TOL = 1e-10


class ZeroFrequencyError(ValueError):
    """The derivative recovery multiplier is undefined at frequency zero."""


def _as_matrices(mat) -> np.ndarray:
    """A nonempty, finite matrix or stack of matrices, shape (..., m, n).

    Float when the input is real, complex when it is complex.
    """
    mat = np.asarray(mat)
    mat = mat.astype(complex if np.iscomplexobj(mat) else float, copy=False)
    if mat.ndim < 2 or mat.size == 0:
        raise ValueError(f"expected a 2d matrix or a stack of them, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix has non-finite entries")
    return mat


def _svd(mats: np.ndarray, compute_uv: bool = True):
    """numpy.linalg.svd(mats, full_matrices=False) of a stack from _as_matrices.

    Returns (u, sigma, vh), or sigma alone without compute_uv, in the dtype
    of mats.  A stack of rows or columns (min(m, n) = 1) takes the
    closed-form rank-one SVD of each row or column a: sigma = |a|, the
    singular vector on a's side is a / |a| and the one on the other side
    is [[1]].  |a| is taken after dividing a by max_i |a_i|, so it neither
    underflows nor overflows at any finite scale.  A zero a gets sigma = 0
    and a zero singular vector, which the strict cutoff of _kept never keeps.
    """
    rows, cols = mats.shape[-2:]
    if min(rows, cols) > 1:
        return np.linalg.svd(mats, full_matrices=False, compute_uv=compute_uv)
    vec = mats[..., 0, :] if rows == 1 else mats[..., :, 0]
    scale = np.abs(vec).max(axis=-1, keepdims=True)
    scale[scale == 0.0] = 1.0
    unit = vec / scale
    squares = np.einsum("...i,...i->...", unit.real, unit.real)
    if np.iscomplexobj(unit):
        squares += np.einsum("...i,...i->...", unit.imag, unit.imag)
    length = np.sqrt(squares)[..., None]
    sigma = scale * length
    if not compute_uv:
        return sigma
    length[length == 0.0] = 1.0
    unit /= length
    one = np.ones(mats.shape[:-2] + (1, 1), dtype=mats.dtype)
    if rows == 1:
        return one, sigma, unit[..., None, :]
    return unit[..., :, None], sigma, one


def _kept(sigma: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the singular values that count: sigma > tol * sigma_max.

    sigma is (..., r) in numpy.linalg.svd order.  The comparison is strict,
    so a zero matrix keeps none and has rank 0.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    return sigma > tol * sigma[..., :1]


def numerical_rank(mat, tol: float = DEFAULT_TOL) -> int | np.ndarray:
    """Count of singular values above tol * sigma_max; 0 for the zero matrix.

    An int for one matrix (m, n); an int array of shape (...) for a stack
    (..., m, n), each matrix measured against its own sigma_max.  Real
    input is decomposed in real arithmetic, and rows and columns by the
    closed form sigma = |a| (see _svd).
    """
    sigma = _svd(_as_matrices(mat), compute_uv=False)
    ranks = np.count_nonzero(_kept(sigma, tol), axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def pinv_svd(mat, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Pseudoinverse via SVD of a matrix (m, n) or a stack (..., m, n).

    Singular values at or below tol * sigma_max of their own matrix are
    treated as zero, so the zero matrix maps to the zero matrix.  Satisfies
    the four Penrose identities to rounding for well-separated spectra.
    Real input gives a real pseudoinverse; rows and columns use the closed
    form a+ = a* / |a|^2 in SVD shape (see _svd).
    """
    u, sigma, vh = _svd(_as_matrices(mat))
    keep = _kept(sigma, tol)
    inv = np.zeros_like(sigma)
    inv[keep] = 1.0 / sigma[keep]
    return np.swapaxes(vh.conj(), -1, -2) @ (inv[..., :, None] * np.swapaxes(u.conj(), -1, -2))


def kernel_projector(mat, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector I - A+ A onto ker A, for a matrix or a stack (..., m, n).

    Exactly Hermitian (entry (w, v) of the kept rows' product vh_r^H vh_r
    multiplies the conjugates of entry (v, w)'s factors) and idempotent to
    rounding; the zero matrix yields the identity (everything is kernel).
    Real input gives a real, exactly symmetric projector.  Rows and columns
    use the closed form (see _svd): a nonzero row a gives I - a* a / |a|^2,
    a nonzero column the 1 x 1 zero.
    """
    mat = _as_matrices(mat)
    dim_v = mat.shape[-1]
    mats = mat.reshape((-1,) + mat.shape[-2:])
    sigma, vh = _svd(mats)[1:]
    kept_rows = np.conjugate(vh)
    kept_rows[~_kept(sigma, tol)] = 0.0
    proj = np.einsum("miv,miw->mvw", kept_rows, vh)
    np.subtract(np.eye(dim_v, dtype=proj.dtype), proj, out=proj)
    return proj.reshape(mat.shape[:-2] + (dim_v, dim_v))


@dataclass(frozen=True)
class MultiplierValue:
    """Frequency-domain value of the derivative recovery map.

    Sends a codomain vector w to A+(xi) w tensored with the array of
    (i xi)^alpha over |alpha| = k.  Flattened row index is j * T + t for
    domain component j and multi-index slot t, with the T multi-indices in
    lexicographic order.  Row weights k!/alpha! turn the Euclidean row
    norm into the derivative-array norm in which |D^k phi-hat| equals
    |xi|^k |phi-hat|.
    """

    matrix: np.ndarray
    alphas: tuple[MultiIndex, ...]
    dim_v: int
    dim_w: int

    @cached_property
    def row_weights(self) -> np.ndarray:
        weights = np.array([multinomial_weight(a) for a in self.alphas], dtype=float)
        return np.tile(weights, self.dim_v)

    def operator_norm(self) -> float:
        """Largest amplification from |w| to the weighted derivative-array norm."""
        scaled = np.sqrt(self.row_weights)[:, None] * self.matrix
        return float(np.linalg.norm(scaled, 2))


def multiplier(op: Operator, xi, tol: float = DEFAULT_TOL) -> MultiplierValue:
    """Derivative recovery multiplier at a nonzero frequency.

    The pseudoinverse is pinv_svd of the symbol.  Degree-0 homogeneous
    wherever the rank is locally constant; at rank-drop frequencies the
    value is still returned pointwise (this is exactly where its norm
    blows up nearby).  spectral.apply_multiplier applies the same map to
    a whole field at once.
    """
    xi = np.asarray(xi, dtype=float)
    mat = symbol(op, xi)
    if not xi.any():
        raise ZeroFrequencyError("multiplier undefined at frequency zero")
    alphas = multi_indices(op.n, op.k)
    powers = np.array([math.prod((1j * x) ** a for x, a in zip(xi, alpha)) for alpha in alphas])
    return MultiplierValue(
        matrix=np.kron(pinv_svd(mat, tol), powers[:, None]),
        alphas=alphas,
        dim_v=op.dim_v,
        dim_w=op.dim_w,
    )
