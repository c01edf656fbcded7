"""Periodic grid fields and frequency-wise application of operator symbols.

The computational domain is the torus [0, 2pi)^n sampled at N points per
axis (N a power of two, at least 4); frequencies are the integer vectors
in [-N/2, N/2)^n.  The forward transform is scaled so that the l2 norm of
the coefficient array equals the grid L2 norm of the field (Riemann sums
with cell volume (2pi/N)^n), which keeps Parseval identities exact to
rounding: a single mode c * exp(i x.xi) has the lone coefficient
c * (2pi)^(n/2).

Differentiation, operator application, and kernel projection are all
frequency multipliers here, hence exact on resolved modes.  Each is one
private coefficient-level step (_matvec with a symbol table, _derivatives);
the public apply_* functions wrap a step between forward_transform and
inverse_transform.  Code that chains several steps, such as the estimate
ratio, stays on FrequencyField coefficients and transforms back only the
fields whose grid values an L^p norm with p != 2 needs: at p = 2 the grid
norm is a coefficient sum (_coefficient_norm).  Band-limited random fields
keep |xi|_inf <= N/4 so products of symbols and fields stay well inside the
grid.
"""

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import (Operator, _monomials, _real_factor, multi_indices,
                        multinomial_weight, symbol_stack)
from .pinv import DEFAULT_TOL, _norm, kernel_projector, pinv_svd

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: n axes, size points per axis."""

    n: int
    size: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("n must be a positive integer")
        if (not isinstance(self.size, int) or self.size < 4
                or self.size & (self.size - 1) != 0):
            raise ValueError("size must be a power of two, at least 4")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.size,) * self.n

    @property
    def cell_volume(self) -> float:
        return (TWO_PI / self.size) ** self.n

    @property
    def spacing(self) -> float:
        return TWO_PI / self.size


@lru_cache(maxsize=64)
def _coordinate_mesh(grid: Grid) -> np.ndarray:
    axis = TWO_PI * np.arange(grid.size) / grid.size
    mesh = np.stack(np.meshgrid(*([axis] * grid.n), indexing="ij"))
    mesh.setflags(write=False)
    return mesh


@lru_cache(maxsize=64)
def integer_frequencies(grid: Grid) -> np.ndarray:
    """Integer frequency mesh, shape (n, size, ..., size), fft layout."""
    axis = np.fft.fftfreq(grid.size, d=1.0 / grid.size)
    mesh = np.stack(np.meshgrid(*([axis] * grid.n), indexing="ij"))
    mesh.setflags(write=False)
    return mesh


def _check_weights(weights, fiber_dim: int):
    if weights is None:
        return None
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (fiber_dim,) or (weights <= 0).any():
        raise ValueError("fiber_weights must be positive with one entry per fiber component")
    return weights


@dataclass(frozen=True)
class GridField:
    """Complex field sampled on a Grid; data has shape (fiber_dim, size, ..., size).

    fiber_weights, when present, weight the squared fiber components in
    every pointwise norm (used for derivative arrays).  Treat instances as
    immutable values.
    """

    grid: Grid
    data: np.ndarray
    fiber_weights: np.ndarray | None = None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        if data.ndim != self.grid.n + 1 or data.shape[1:] != self.grid.shape:
            raise ValueError(f"data must have shape (fiber, {', '.join(map(str, self.grid.shape))})")
        if not np.isfinite(data).all():
            raise ValueError("field has non-finite values")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "fiber_weights", _check_weights(self.fiber_weights, data.shape[0]))

    @property
    def fiber_dim(self) -> int:
        return self.data.shape[0]

    def _merge_weights(self, other: "GridField") -> np.ndarray | None:
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")
        a, b = self.fiber_weights, other.fiber_weights
        if (a is None) != (b is None) or (a is not None and not np.array_equal(a, b)):
            raise ValueError("fields have incompatible fiber weights")
        if self.data.shape != other.data.shape:
            raise ValueError("fields have different fiber dimensions")
        return a

    def __add__(self, other: "GridField") -> "GridField":
        weights = self._merge_weights(other)
        return GridField(self.grid, self.data + other.data, weights)

    def __sub__(self, other: "GridField") -> "GridField":
        weights = self._merge_weights(other)
        return GridField(self.grid, self.data - other.data, weights)

    def __mul__(self, scalar) -> "GridField":
        return GridField(self.grid, self.data * complex(scalar), self.fiber_weights)

    __rmul__ = __mul__

    def pointwise_norm(self) -> np.ndarray:
        """sqrt(sum_c w_c |f_c(x)|^2) at every grid point x, by pinv._norm (scaled per point)."""
        weights = self.fiber_weights
        if weights is not None:
            weights = weights.reshape((-1,) + (1,) * self.grid.n)
        return _norm(self.data, axis=0, weights=weights)


@dataclass(frozen=True)
class FrequencyField:
    """Coefficient-side twin of GridField; same layout, fft frequency order."""

    grid: Grid
    coeffs: np.ndarray
    fiber_weights: np.ndarray | None = None

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.ndim != self.grid.n + 1 or coeffs.shape[1:] != self.grid.shape:
            raise ValueError(f"coeffs must have shape (fiber, {', '.join(map(str, self.grid.shape))})")
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients have non-finite values")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "fiber_weights", _check_weights(self.fiber_weights, coeffs.shape[0]))

    @property
    def fiber_dim(self) -> int:
        return self.coeffs.shape[0]


def _spatial_axes(grid: Grid) -> tuple[int, ...]:
    return tuple(range(1, grid.n + 1))


def forward_transform(field: GridField) -> FrequencyField:
    """Grid values to coefficients; unitary between grid L2 and coefficient l2."""
    scale = (TWO_PI / field.grid.size) ** (field.grid.n / 2.0)
    coeffs = np.fft.fftn(field.data, axes=_spatial_axes(field.grid), norm="ortho") * scale
    return FrequencyField(field.grid, coeffs, field.fiber_weights)


def inverse_transform(freq: FrequencyField) -> GridField:
    """Coefficients back to grid values; exact inverse of forward_transform."""
    scale = (TWO_PI / freq.grid.size) ** (freq.grid.n / 2.0)
    data = np.fft.ifftn(freq.coeffs / scale, axes=_spatial_axes(freq.grid), norm="ortho")
    return GridField(freq.grid, data, freq.fiber_weights)


def mode_index(grid: Grid, xi) -> tuple[int, ...]:
    """Array index of integer frequency xi in fft layout; xi in [-N/2, N/2)^n."""
    xi = [int(x) for x in xi]
    if len(xi) != grid.n:
        raise ValueError(f"frequency must have length {grid.n}")
    half = grid.size // 2
    for x in xi:
        if not -half <= x < half:
            raise ValueError(f"frequency component {x} outside [-{half}, {half})")
    return tuple(x % grid.size for x in xi)


def single_mode(grid: Grid, xi, amplitude) -> GridField:
    """The field amplitude * exp(i x.xi) for an integer frequency xi."""
    amplitude = np.atleast_1d(np.asarray(amplitude, dtype=complex))
    coeffs = np.zeros((amplitude.shape[0],) + grid.shape, dtype=complex)
    coeffs[(slice(None),) + mode_index(grid, xi)] = amplitude * (TWO_PI ** (grid.n / 2.0))
    return inverse_transform(FrequencyField(grid, coeffs))


def lp_norm(field: GridField, p: float) -> float:
    """Grid L^p norm: Riemann sum of the pointwise fiber norm; p = inf gives the max."""
    if not p >= 1.0:
        raise ValueError("p must be at least 1")
    return float(_norm(field.pointwise_norm(), p) * field.grid.cell_volume ** (1.0 / p))


def _coefficient_norm(freq: FrequencyField, k: int = 0) -> float:
    """sqrt(sum_xi |xi|^2k |freq(xi)|^2) for a field without fiber weights.

    By Parseval, k = 0 gives lp_norm(inverse_transform(freq), 2) and k >= 1
    gives lp_norm(inverse_transform(_derivatives(k, freq)), 2), without the
    transform or the dimV * T derivative array: the weights k!/alpha! of
    apply_Dk sum |xi^alpha|^2 to |xi|^2k (multinomial theorem).
    """
    mesh = integer_frequencies(freq.grid).reshape(freq.grid.n, -1)
    weights = np.einsum("ij,ij->j", mesh, mesh) ** k if k else None
    return float(_norm(freq.coeffs.reshape(freq.fiber_dim, -1), weights=weights))


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _refuse_oversized(op: Operator, grid: Grid, matrix_entries: float) -> None:
    """Raise MemoryError when a table build on this grid cannot fit in memory.

    The estimate counts matrix_entries complex numbers per frequency (a
    real number counts as half of one) for what the table build holds at
    its peak, plus the largest field the calculus makes: all order-k
    derivatives, dimV * T fiber components.  It runs before anything is
    allocated, so an oversized grid is refused instead of being killed
    part way.
    """
    derivative_fibers = op.dim_v * math.comb(op.n + op.k - 1, op.k)
    needed = 16 * grid.size ** grid.n * (matrix_entries + derivative_fibers)
    available = _physical_memory()
    if available is not None and needed > available:
        raise MemoryError(
            f"{op.name} on a {grid.size}^{grid.n} grid needs about {needed / 1e9:.3g} GB "
            f"for its tables and largest field; physical memory is {available / 1e9:.3g} GB")


@lru_cache(maxsize=32)
def _symbol_tensor(op: Operator, grid: Grid) -> np.ndarray:
    """A(xi) over the whole frequency mesh, shape (size, ..., size, dimW, dimV).

    Frequency axes in fft layout come first and the matrix axes last: the
    (..., m, n) stack layout of the pinv routines.  Raises MemoryError
    before building when the grid is too large (see _refuse_oversized).
    """
    _refuse_oversized(op, grid, op.dim_w * op.dim_v)
    xis = integer_frequencies(grid).reshape(grid.n, -1).T
    stack = symbol_stack(op, xis).reshape(grid.shape + (op.dim_w, op.dim_v))
    stack.setflags(write=False)
    return stack


def _matvec(table: np.ndarray, freq: FrequencyField) -> FrequencyField:
    """table[xi] @ freq(xi) at every frequency xi: the one symbol-multiplier step.

    table is a (size, ..., size, m, n) stack in _symbol_tensor's layout.  The
    einsum asks for order="C" output, which keeps the field axes contiguous
    for the FFTs instead of following the table's strides.
    """
    out = np.einsum("...ij,j...->i...", table, freq.coeffs, order="C")
    return FrequencyField(freq.grid, out)


def _check_field(op: Operator, field: GridField | FrequencyField, fiber_dim: int, role: str):
    if field.grid.n != op.n:
        raise ValueError(f"field has {field.grid.n} axes, operator acts on {op.n}")
    if field.fiber_dim != fiber_dim:
        raise ValueError(f"{role} field must have fiber dimension {fiber_dim}")
    if field.fiber_weights is not None:
        raise ValueError(f"{role} field must not carry fiber weights")


def apply_A(op: Operator, field: GridField) -> GridField:
    """Apply the operator spectrally: multiply coefficients by A(xi)."""
    _check_field(op, field, op.dim_v, "input")
    return inverse_transform(_matvec(_symbol_tensor(op, field.grid), forward_transform(field)))


def apply_A_adjoint(op: Operator, field: GridField) -> GridField:
    """Apply the adjoint spectrally: multiply coefficients by A*(xi)."""
    _check_field(op, field, op.dim_w, "input")
    adjoint = np.swapaxes(_symbol_tensor(op, field.grid), -1, -2).conj()
    return inverse_transform(_matvec(adjoint, forward_transform(field)))


@lru_cache(maxsize=32)
def _kernel_projector_table(op: Operator, grid: Grid, tol: float) -> np.ndarray:
    """Projector onto ker A(xi) per frequency, shape (size, ..., size, dimV, dimV).

    Same layout as _symbol_tensor, but real: A = i^k M with M real, and
    P_A = P_M, so the table is kernel_projector of the real view of the
    symbol table (_real_factor).  Frequency zero (and any exact rank-0
    frequency) gets the identity: everything there is kernel, so the
    projection keeps constants intact.  Raises MemoryError before building
    when the grid is too large (see _refuse_oversized).
    """
    # kernel_projector holds the complex symbol table and the singular values
    # throughout, u and vh during the SVD, then vh, its conjugate and the
    # table; all but the symbol table are real, half a complex entry each
    rank = min(op.dim_w, op.dim_v)
    peak = max((op.dim_w + op.dim_v) * rank, 2 * op.dim_v * rank + op.dim_v ** 2)
    _refuse_oversized(op, grid, op.dim_w * op.dim_v + (rank + peak) / 2)
    table = kernel_projector(_real_factor(op, _symbol_tensor(op, grid)), tol)
    table.setflags(write=False)
    return table


def apply_PA(op: Operator, field: GridField, tol: float = DEFAULT_TOL) -> GridField:
    """Project every coefficient onto ker A(xi) (the canonical kernel part of the field)."""
    _check_field(op, field, op.dim_v, "input")
    table = _kernel_projector_table(op, field.grid, float(tol))
    return inverse_transform(_matvec(table, forward_transform(field)))


def _derivatives(k: int, freq: FrequencyField) -> FrequencyField:
    """Coefficients of all order-k derivatives of freq.

    Fiber layout and weights are those documented on apply_Dk.
    """
    grid = freq.grid
    alphas = multi_indices(grid.n, k)
    powers = (1j ** k) * _monomials(integer_frequencies(grid).reshape(grid.n, -1).T, alphas)
    out = np.einsum("st,vs->vts", powers, freq.coeffs.reshape(freq.fiber_dim, -1), order="C")
    out = out.reshape((freq.fiber_dim * len(alphas),) + grid.shape)
    weights = np.array([multinomial_weight(a) for a in alphas], dtype=float)
    return FrequencyField(grid, out, np.tile(weights, freq.fiber_dim))


def apply_Dk(k: int, field: GridField) -> GridField:
    """All order-k derivatives as one field.

    Output fiber index is j * T + t for input component j and the t-th
    multi-index of degree k in lexicographic order; entry (j, t) holds
    (i xi)^alpha_t phi_j.  The attached fiber weights k!/alpha! make the
    pointwise norm satisfy |D^k phi-hat(xi)| = |xi|^k |phi-hat(xi)|.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    if field.fiber_weights is not None:
        raise ValueError("input field must not carry fiber weights")
    return inverse_transform(_derivatives(k, forward_transform(field)))


def apply_multiplier(op: Operator, field: GridField, tol: float = DEFAULT_TOL) -> GridField:
    """Apply the derivative recovery multiplier: A+(xi), then the derivatives.

    One batched pinv_svd over the frequency mesh, then the derivative step
    of apply_Dk.  The pseudoinverse is taken in real arithmetic: A = i^k M
    with M real gives A+ = i^-k M+, and with the real view R of the symbol
    table (_real_factor) that is A+ = i^-(k mod 2) R+.  Input is a
    codomain-valued field (fiber dimW, typically apply_A(phi)); output is a
    derivative array (fiber dimV * T) equal to apply_Dk(k, phi -
    apply_PA(phi)) when the input is apply_A(phi).  The multiplier vanishes
    at frequency zero, where the symbol is zero.
    """
    _check_field(op, field, op.dim_w, "input")
    dagger = pinv_svd(_real_factor(op, _symbol_tensor(op, field.grid)), tol)
    if op.k % 2:
        dagger = -1j * dagger
    return inverse_transform(_derivatives(op.k, _matvec(dagger, forward_transform(field))))


def _random_coefficients(grid: Grid, fiber_dim: int, max_freq: int, seed) -> FrequencyField:
    """Coefficients of random_band_limited(grid, fiber_dim, max_freq, seed)."""
    if fiber_dim < 1:
        raise ValueError("fiber_dim must be positive")
    if not 1 <= max_freq <= grid.size // 4:
        raise ValueError(f"max_freq must lie in [1, {grid.size // 4}] on this grid")
    axis = np.arange(-max_freq, max_freq + 1)
    band = np.stack(np.meshgrid(*([axis] * grid.n), indexing="ij")).reshape(grid.n, -1)
    # one of each pair {v, -v}: the v whose first nonzero component is positive
    # (v > -v as tuples), which also drops v = 0
    first_nonzero = band[(band != 0).argmax(axis=0), np.arange(band.shape[1])]
    primaries = band[:, first_nonzero > 0]
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((fiber_dim, primaries.shape[1], 2))
    values = (draws[..., 0] + 1j * draws[..., 1]) / np.sqrt(2.0)
    coeffs = np.zeros((fiber_dim,) + grid.shape, dtype=complex)
    coeffs[(slice(None), *(primaries % grid.size))] = values
    coeffs[(slice(None), *(-primaries % grid.size))] = values.conj()
    return FrequencyField(grid, coeffs)


def random_band_limited(grid: Grid, fiber_dim: int, max_freq: int, seed) -> GridField:
    """Real-valued random field with independent unit-variance coefficients.

    Every integer frequency with 0 < |xi|_inf <= max_freq (max_freq at most
    size/4) carries a complex gaussian coefficient, Hermitian-paired so the
    field is real up to rounding; the mean (frequency zero) is exactly zero.
    Deterministic for a given seed (an int or sequence of ints).
    """
    return inverse_transform(_random_coefficients(grid, fiber_dim, max_freq, seed))


def periodic_bump(grid: Grid, width: float) -> np.ndarray:
    """Smooth periodized window, centered at pi per axis, shape grid.shape.

    width in (0, 1] is the support diameter as a fraction of the torus:
    per axis the profile is 1 for |x - pi| <= width*pi/2, 0 for
    |x - pi| >= width*pi, with a smooth exponential step between.
    """
    if not 0.0 < width <= 1.0:
        raise ValueError("width must lie in (0, 1]")
    mesh = _coordinate_mesh(grid)
    out = np.ones(grid.shape)
    for axis_mesh in mesh:
        t = np.abs(axis_mesh - math.pi) / (width * math.pi)
        s = np.clip(2.0 * (1.0 - t), 0.0, 1.0)
        inner = (s > 0.0) & (s < 1.0)
        profile = np.where(s >= 1.0, 1.0, 0.0)
        a = np.exp(-1.0 / np.where(inner, s, 1.0))
        b = np.exp(-1.0 / np.where(inner, 1.0 - s, 1.0))
        profile[inner] = (a / (a + b))[inner]
        out = out * profile
    return out

