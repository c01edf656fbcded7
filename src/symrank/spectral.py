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
private coefficient-level step (_matvec with a symbol table, _derivatives
with the frequencies) on a coefficient array; the step runs on whatever
frequencies its table and array cover.  The public apply_* functions wrap
a step between the forward and the inverse transform.  A whole-mesh FFT
writes every axis pass into one output (out=): forward_transform into a
fresh array, and the whole-mesh inverse (_inverse) into the coefficients
it is given, those that the apply_* functions, random_band_limited and the
mesh spectrum's grid norm made themselves, or inverse_transform's copy.
The symbol table holds the real M of A = i^k M (operators._column_stack
of the mesh's n 1-D axes), so the symbol and pseudoinverse tables are
real like the projector table (P_A = P_M, A+ = i^-k M+), and only apply_A
and apply_multiplier multiply by a phase, i^k and i^-k.  Code that chains
several steps, such as the estimate ratio, stays on coefficients and
transforms back only the fields whose grid values an L^p norm with
p != 2 needs: at p = 2 the grid norm is a weighted coefficient sum
(pinv._norm), and otherwise _grid_norm, lp_norm's own, of the grid values.
_grid_norm is the one loop behind every such norm: it reads a field one
fiber at a time, adds its squares into one N^n accumulator under a running
power-of-two scale, and takes pinv._norm of their square roots.

A _Spectrum names the frequencies such a chain runs on, with the one
copy of each table, the weights, grid norm and random draw there; a p = 2
norm reads it one slab at a time, a run of first-axis planes with its
weights, on which the tables are read as views.  The whole mesh
(_mesh_spectrum) has the N^n tables, cached for one (operator, grid,
tol), and goes back by a complex inverse FFT; its slabs are runs of
first-axis planes (_mesh_slabs), so a p = 2 norm there holds nothing of
size N^n.  A spectrum on an explicit frequency list (_listed_spectrum) is
one slab: the primaries of a band, or one exact witness rung.  Band-limited
random fields keep 0 < |xi|_inf <= B <= N/4, so products of symbols and
fields stay well inside the grid, and are real: c(-xi) = conj(c(xi)).
Such a field is its values at the band's primaries, one of each pair
{xi, -xi}, (2B+1)^n / 2 frequencies whatever N is, drawn by one
generator call (_band_draw); random_band_limited scatters them onto the
whole mesh.  The band spectrum (_band_spectrum) holds M and P_A at the
primaries only (built per spectrum and freed with it), and
weights that count each primary twice, for its mirror, so at p = 2 it
holds nothing of the grid.  At any other p a coefficient row
is formed once, as _grid_norm reads it, and taken to the grid: on the
whole mesh in place by a complex inverse FFT, on a band by the band's own
irfftn steps (_band_grid), the same for every n: an ifft along each axis
after the first on the half spectrum's first-axis planes 0..B only, then
irfft along the first axis, the grid read as N^(n-1) lines of N values
(one line in 1-D), one chunk of lines at a time into one buffer, with
irfftn's bits.  The band's buffers (_band_buffers) are allocated when the
spectrum is built, so its trial allocates no array the size of the grid.
An exact witness rung is one coefficient at one frequency, and its
spectrum (experiments._ladder_ratios, on the M and P_A tables that
experiments._rungs fills in the same pinv pass as the probes) holds M and
P_A there alone and no grid route: a single mode has the same modulus at
every grid point, so its ratio is the same at every p, taken at p = 2,
and nothing of size N^n is built.

Every SVD table comes from one pass of pinv._blockwise, which owns the
blocking and gives a matrix the same bits anywhere in a stack and
whichever tables share the pass, so the band and rung tables are the
mesh tables at their frequencies.  One estimate (_refuse_oversized)
sizes the mesh and band routes before anything is allocated: their tables
with what the pass that fills one holds, read from its _Table
(pinv._held_entries), a trial's fields (one slab's on the mesh at p = 2,
one grid row's at p != 2) and a band's grid buffers; an estimate too
large for a float is refused too.  Each estimate counts the arrays its
own code makes: a table builder its table and build, an apply_* call the
tables it reads and the fields it makes, so no call is sized by a field
it never holds or a build that does not run.
"""

import math
from collections.abc import Callable, Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product

import numpy as np

from .operators import (Operator, _column_count, _column_monomials, _column_stack, multi_indices,
                        multinomial_weight)
from .pinv import (DEFAULT_TOL, _blockwise, _check_int, _check_tol, _held_entries, _norm,
                   _projectors, _pseudoinverses, _refuse_beyond_memory, _Table)

TWO_PI = 2.0 * math.pi
# frequencies per pass of _matvec: a chunk of a 3 x 3 table with its input, output
# and temporary takes about 0.75 MB, which stays in a core's L2 cache
_MATVEC_CHUNK = 4096
# reals per chunk of the band's grid values (_band_buffers): 256 KB stays in L2
_GRID_CHUNK = 32768
# numpy's iteration buffer in entries for operations that cast nothing (_uncast)
_UNCAST_BUFFER = 256


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: n axes, size points per axis, both stored as ints (_check_int)."""

    n: int
    size: int

    def __post_init__(self):
        object.__setattr__(self, "n", _check_int(self.n, "n"))
        object.__setattr__(self, "size", _check_int(self.size, "size", None))
        if self.size < 4 or self.size & (self.size - 1) != 0:
            raise ValueError("size must be a power of two, at least 4")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.size,) * self.n

    @property
    def cell_volume(self) -> float:
        return (TWO_PI / self.size) ** self.n


@contextmanager
def _uncast():
    """Run numpy ufuncs in the block with an iteration buffer of _UNCAST_BUFFER entries.

    For operands of one dtype, which never fill it: numpy still allocates
    np.getbufsize() entries (128 KiB of complex) per operand of a strided
    loop whose inner run is shorter than that.  np.errstate restores it.
    """
    with np.errstate():
        np.setbufsize(_UNCAST_BUFFER)
        yield


def _frequency_axes(grid: Grid) -> list[np.ndarray]:
    """The integer frequency mesh as n float64 axes, fft layout: axis j has shape (1, .., N, .., 1).

    They broadcast to the mesh's n coordinates, so its symbol table,
    derivatives and weights read n * size numbers, not n * size^n.
    """
    axis = np.fft.fftfreq(grid.size, d=1.0 / grid.size)
    return np.meshgrid(*([axis] * grid.n), indexing="ij", sparse=True)


def _checked(grid: Grid, values, name: str, holder: str) -> np.ndarray:
    """values as a complex array, which must have shape (fiber, N, ..., N) on grid and be finite."""
    values = np.asarray(values, dtype=complex)
    if values.ndim != grid.n + 1 or values.shape[1:] != grid.shape:
        raise ValueError(f"{name} must have shape (fiber, {', '.join(map(str, grid.shape))})")
    if not np.isfinite(values).all():
        raise ValueError(f"{holder} non-finite values")
    return values


@dataclass(frozen=True)
class GridField:
    """Complex field sampled on a Grid; data has shape (fiber_dim, size, ..., size).

    The pointwise norm is the Euclidean norm of the fiber vector; apply_Dk
    stores derivative arrays in coordinates where that is the right norm.
    Treat instances as immutable values.
    """

    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _checked(self.grid, self.data, "data", "field has"))

    @property
    def fiber_dim(self) -> int:
        return self.data.shape[0]

    def __sub__(self, other: "GridField") -> "GridField":
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")
        if self.data.shape != other.data.shape:
            raise ValueError("fields have different fiber dimensions")
        return GridField(self.grid, self.data - other.data)


@dataclass(frozen=True)
class FrequencyField:
    """Coefficient-side twin of GridField; same layout, fft frequency order."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           _checked(self.grid, self.coeffs, "coeffs", "coefficients have"))

    @property
    def fiber_dim(self) -> int:
        return self.coeffs.shape[0]


def _spatial_axes(grid: Grid) -> tuple[int, ...]:
    return tuple(range(1, grid.n + 1))


def forward_transform(field: GridField) -> FrequencyField:
    """Grid values to coefficients; unitary between grid L2 and coefficient l2.

    fftn writes every axis pass into one fresh complex array (out=), so the
    transform allocates nothing beside its output.
    """
    coeffs = np.fft.fftn(field.data, axes=_spatial_axes(field.grid), norm="ortho",
                         out=np.empty(field.data.shape, dtype=complex))
    coeffs *= (TWO_PI / field.grid.size) ** (field.grid.n / 2.0)
    return FrequencyField(field.grid, coeffs)


def inverse_transform(freq: FrequencyField) -> GridField:
    """Coefficients back to grid values; exact inverse of forward_transform."""
    return GridField(freq.grid, _inverse(freq.coeffs.copy(), freq.grid))


def _inverse(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Grid values of a (fiber, N, ..., N) coefficient array on the whole mesh, in place.

    inverse_transform's complex data, by ifftn, whose axis passes all write
    into coeffs, to the bits of a fresh output, so a caller that reads its
    coefficients again hands over a copy.
    """
    data = np.fft.ifftn(coeffs, axes=_spatial_axes(grid), norm="ortho", out=coeffs)
    data /= (TWO_PI / grid.size) ** (grid.n / 2.0)
    return data


def lp_norm(field: GridField, p: float) -> float:
    """Grid L^p norm: Riemann sum of the pointwise fiber norm; p = inf gives the max.

    _grid_norm of one fiber's magnitudes at a time (_mesh_norm): the field
    is scaled by a running power of two.  field.data is not written.
    """
    if not p >= 1.0:
        raise ValueError("p must be at least 1")
    return _mesh_norm(field.data, field.grid, p)


def _exponent(bound) -> int:
    """e with bound * 2^-e in [0.5, 1), within [-1021, 1021] so that 2^-e and 2^e are floats.

    -1021 for a zero bound, so that it raises no running scale (_grid_norm);
    0 for a non-finite one, which comes from non-finite values, whose norm
    is then non-finite too.
    """
    return min(max(math.frexp(bound)[1], -1021), 1021) if bound else -1021


def _grid_norm(fibers: Iterable[tuple[float, Callable[[int], Iterable]]], grid: Grid, p: float,
               total: np.ndarray) -> float:
    """lp_norm of a field read one fiber at a time, under a running power-of-two scale.

    fibers are (bound, parts) pairs, each point's fibers in order: bound is
    at least the fiber's max |value|, that maximum itself on the whole mesh
    (_mesh_norm), at most sqrt(2P) times it on a band (_band_grid).
    parts(exponent) yields the fiber's values times 2^-exponent, float64
    and not read again, as (values, at) pairs for the points total[at].
    exponent is that of the largest bound so far, so no square added into
    the accumulator total overflows; when a fiber raises it, the squares in
    total are scaled down by that power of four, which is exact, as in
    LAPACK's scaled sum of squares xLASSQ (Blue 1978).  A square loses bits
    only for a value 2^-511 below the largest bound, far below rounding.
    pinv._norm of the square roots, scaled back by 2^exponent, is the norm,
    with the same bits in whatever order the bounds rise, wherever nothing
    underflows.
    """
    total[...] = 0.0
    exponent = None
    for bound, parts in fibers:
        raised = _exponent(bound)
        if exponent is None:
            exponent = raised
        elif raised > exponent:
            np.ldexp(total, 2 * (exponent - raised), out=total)
            exponent = raised
        for values, at in parts(exponent):
            np.square(values, out=values)
            with _uncast():
                part = total[at]
                part += values
    np.sqrt(total, out=total)
    norm = np.ldexp(_norm(total, p, overwrite=True), exponent)
    return float(norm * grid.cell_volume ** (1.0 / p))


def _mesh_norm(fibers: Iterable[np.ndarray], grid: Grid, p: float) -> float:
    """_grid_norm of whole-mesh grid values, complex fibers of shape grid.shape, not written.

    A fiber's magnitudes go once into one real N^n buffer, whose maximum is
    its bound, and are scaled there; the fiber is dropped before the next.
    """
    magnitudes = np.empty(grid.shape)

    def each():
        for fiber in fibers:
            np.abs(fiber, out=magnitudes)
            del fiber
            yield magnitudes.max(), lambda exponent: (
                (np.multiply(magnitudes, math.ldexp(1.0, -exponent), out=magnitudes), ...),)
    return _grid_norm(each(), grid, p, np.empty(grid.shape))


def _xi_weights(xis: Sequence[np.ndarray], k: int) -> np.ndarray:
    """|xi|^2k at the integer frequencies xis, exact, so every spectrum's weights agree.

    xis are n coordinate arrays that broadcast together (_derivatives).
    With the weights, pinv._norm of a coefficient array is the L2 norm of
    its order-k derivative array (apply_Dk), whose fiber norm at xi is
    |xi|^k times the coefficient's (multinomial theorem).
    """
    return sum(np.multiply(x, x, dtype=float) for x in xis) ** k


def _derivative_fibers(op: Operator) -> int:
    """Fibers of D^k phi (apply_Dk): dimV C(n + k - 1, k), one per component and multi-index."""
    return op.dim_v * math.comb(op.n + op.k - 1, op.k)


def _derivative_columns(k: int) -> int:
    """Reals per frequency of the monomial a row of _derivative_rows is formed with, at order k.

    operators._column_count of one multi-index of order k: its monomial
    and at most k - 1 power columns, in Python ints.
    """
    return max(k, 1)


def _refuse_oversized(op: Operator, grid: Grid, count: int, per_frequency: float,
                      grid_entries: int = 0) -> None:
    """Raise MemoryError, before anything is allocated, when a route on this grid cannot fit.

    spectral's one estimate, in float64 entries (a complex number is two):
    per_frequency at each of count frequencies (the mesh or a band's
    primaries), plus grid_entries.  count and grid_entries are exact
    integers, multiplied inside the estimate _refuse_beyond_memory
    evaluates, so one too large for a float is refused too.
    """
    _refuse_beyond_memory(lambda: 8 * (count * per_frequency + grid_entries),
                          f"{op.name} on a {grid.size}^{grid.n} grid", "for its tables and fields")


@lru_cache(maxsize=1)
def _symbol_tensor(op: Operator, grid: Grid) -> np.ndarray:
    """M(xi) over the whole frequency mesh, shape (size, ..., size, dimW, dimV), float64.

    The real factor of A = i^k M, operators._column_stack of the n axes of
    _frequency_axes, which holds T monomials per frequency and no mesh: i^k
    times an entry is symbol(op, xi) exactly.  Frequency axes in fft layout
    come first and the matrix axes last: the (..., m, n) stack layout of the
    pinv routines.  Raises MemoryError before building when the grid is too
    large (_refuse_oversized), counting the table and the monomials it is
    formed from (operators._column_count); the fields a route makes are
    counted by the route.  Like the projector and pseudoinverse tables, it
    caches one grid's table: a process measures one (operator, grid).
    """
    count = grid.size ** grid.n
    _refuse_oversized(op, grid, count, op.dim_w * op.dim_v + _column_count(op.alpha_array))
    stack = _column_stack(op, _frequency_axes(grid))
    stack.setflags(write=False)
    return stack


def _matvec(table: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """table[xi] @ coeffs[:, xi] at every frequency xi: the one symbol-multiplier step.

    table is a real (..., m, n) stack in _symbol_tensor's layout, or a flat
    (P, m, n) stack at the primaries of a band or at a rung, and
    coeffs a complex (n, ...) coefficient array on the same frequencies.
    Row i of the output is sum_j table[..., i, j] * coeffs[j], m x n
    broadcast multiply-adds in order j = 0, 1, ..., run on _MATVEC_CHUNK
    frequencies at a time so that the strided table entries are read from
    cache; the frequency axes of the (m, ...) output are contiguous for the
    FFTs.
    """
    rows, cols = table.shape[-2:]
    shape = coeffs.shape[1:]
    size = math.prod(shape)
    flat_table = table.reshape(size, rows, cols)
    flat_in = coeffs.reshape(cols, size)
    out = np.empty((rows,) + shape, dtype=complex)
    flat_out = out.reshape(rows, size)
    term = np.empty(min(size, _MATVEC_CHUNK), dtype=complex)
    for start in range(0, size, _MATVEC_CHUNK):
        chunk = slice(start, start + _MATVEC_CHUNK)
        entries, chunk_in = flat_table[chunk], flat_in[:, chunk]
        part = term[:len(entries)]
        for i in range(rows):
            row = flat_out[i, chunk]
            np.multiply(entries[:, i, 0], chunk_in[0], out=row)
            for j in range(1, cols):
                np.multiply(entries[:, i, j], chunk_in[j], out=part)
                row += part
    return out


def _check_field(op: Operator, field: GridField | FrequencyField, fiber_dim: int, role: str):
    if field.grid.n != op.n:
        raise ValueError(f"field has {field.grid.n} axes, operator acts on {op.n}")
    if field.fiber_dim != fiber_dim:
        raise ValueError(f"{role} field must have fiber dimension {fiber_dim}")


def apply_A(op: Operator, field: GridField) -> GridField:
    """Apply the operator spectrally: multiply coefficients by A(xi) = i^k M(xi)."""
    _check_field(op, field, op.dim_v, "input")
    _refuse_oversized(op, field.grid, field.grid.size ** field.grid.n,
                      op.dim_w * op.dim_v + 2 * (op.dim_v + op.dim_w))
    out = _matvec(_symbol_tensor(op, field.grid), forward_transform(field).coeffs)
    out *= 1j ** op.k
    return GridField(field.grid, _inverse(out, field.grid))


def _mesh_table(op: Operator, grid: Grid, table: _Table) -> np.ndarray:
    """table (pinv._projectors or _pseudoinverses) of _symbol_tensor, in its layout; read-only.

    One pinv._blockwise pass, refused when too large (_refuse_oversized):
    per frequency the symbol table, this one (table.shape) and what the
    pass holds beside them (pinv._held_entries).  _symbol_tensor sizes its
    own build, and a route the fields it makes.
    """
    count = grid.size ** grid.n
    _refuse_oversized(op, grid, count, op.dim_w * op.dim_v + math.prod(table.shape)
                      + _held_entries(op.dim_w, op.dim_v, count, table))
    out = _blockwise(_symbol_tensor(op, grid), table)[0]
    out.setflags(write=False)
    return out


@lru_cache(maxsize=1)
def _kernel_projector_table(op: Operator, grid: Grid, tol: float) -> np.ndarray:
    """Projector onto ker A(xi) per frequency, shape (size, ..., size, dimV, dimV).

    Same layout as _symbol_tensor and real like it: P_A = P_M, so the table
    is pinv's kernel projector of the real symbol table (_mesh_table).  Frequency
    zero (and any exact rank-0 frequency) gets the identity: everything
    there is kernel, so the projection keeps constants intact.
    """
    return _mesh_table(op, grid, _projectors(op.dim_v, tol))


@lru_cache(maxsize=1)
def _pseudoinverse_table(op: Operator, grid: Grid, tol: float) -> np.ndarray:
    """M+ per frequency for the real symbol table M, shape (size, ..., size, dimV, dimW).

    A+ = i^-k M+.  pinv's pseudoinverse of the real symbol table
    (_mesh_table), cached like _kernel_projector_table.
    """
    return _mesh_table(op, grid, _pseudoinverses(op.dim_w, op.dim_v, tol))


def apply_PA(op: Operator, field: GridField, tol: float = DEFAULT_TOL) -> GridField:
    """Project every coefficient onto ker A(xi) (the canonical kernel part of the field).

    Raises ValueError for a tol pinv refuses (_check_tol) before any table is looked up.
    """
    _check_tol(tol)
    _check_field(op, field, op.dim_v, "input")
    _refuse_oversized(op, field.grid, field.grid.size ** field.grid.n,
                      op.dim_w * op.dim_v + op.dim_v ** 2 + 4 * op.dim_v)
    table = _kernel_projector_table(op, field.grid, float(tol))
    coeffs = _matvec(table, forward_transform(field).coeffs)
    return GridField(field.grid, _inverse(coeffs, field.grid))


def _derivative_rows(k: int, coeffs: np.ndarray, xis: Sequence[np.ndarray], out=None):
    """The rows of _derivatives, a generator: row j T + t is monomial t times coeffs[j], times i^k.

    Each row is formed when read, in out[j T + t] if out, a (rows,
    frequencies) array, is given; otherwise it is dropped before the next
    is formed, so a reader that drops it too holds one row.  Its monomial
    is formed with it, by operators._column_monomials of its one
    multi-index, whose products are those of all T at once, and dropped
    before the row is read, so no row holds more than one monomial.
    """
    alphas = multi_indices(len(xis), k)
    weights = np.sqrt([multinomial_weight(a) for a in alphas])
    fibers = coeffs.reshape(len(coeffs), -1)
    for index, (fiber, (alpha, weight)) in enumerate(product(fibers, zip(alphas, weights))):
        monomial = _column_monomials(xis, [alpha]).reshape(-1)
        monomial *= weight
        row = np.multiply(monomial, fiber, out=None if out is None else out[index])
        del monomial
        row *= 1j ** k
        yield row.reshape(coeffs.shape[1:])
        del row


def _derivatives(k: int, coeffs: np.ndarray, xis: Sequence[np.ndarray]) -> np.ndarray:
    """Coefficients of all order-k derivatives of coeffs, in apply_Dk's coordinates.

    coeffs is a (fiber, ...) coefficient array at the integer frequencies
    xis, n float64 coordinate arrays that broadcast to its frequency shape:
    the sparse whole mesh (_frequency_axes), or the rows of an (n, P) array
    of a band's primaries or a rung; the output covers the same
    frequencies.  The monomial table is real, with the scales
    sqrt(k!/alpha!) of apply_Dk's layout in it, so they cost no pass over
    the field; _derivative_rows forms each output row from it and applies
    the exact phase i^k.
    """
    shape = coeffs.shape[1:]
    out = np.empty((len(coeffs) * math.comb(len(xis) + k - 1, k), math.prod(shape)), dtype=complex)
    for _ in _derivative_rows(k, coeffs, xis, out):
        pass
    return out.reshape((len(out),) + shape)


def apply_Dk(k: int, field: GridField) -> GridField:
    """All order-k derivatives as one field, in orthonormal coordinates.

    Output fiber index is j * T + t for input component j and the t-th
    multi-index of degree k in lexicographic order; entry (j, t) holds
    sqrt(k!/alpha_t!) (i xi)^alpha_t phi_j, which is (i xi)^alpha_t phi_j
    for k = 1.  These are the coordinates of the symmetric k-tensor D^k phi
    in an orthonormal basis, so the plain fiber norm is the tensor's
    Frobenius norm: |D^k phi-hat(xi)| = |xi|^k |phi-hat(xi)| (multinomial
    theorem).  Any field is accepted, so apply_Dk(1, apply_Dk(j, phi)) has
    the norms of apply_Dk(j + 1, phi).  Raises ValueError unless k is an
    integer (not a bool) at least 1, and MemoryError before the
    transform when the coefficients, a row's monomial (_derivative_columns)
    and the derivatives cannot fit.
    """
    k = _check_int(k, "k")
    grid, fibers = field.grid, field.fiber_dim
    entries = 2 * fibers * (1 + math.comb(grid.n + k - 1, k)) + _derivative_columns(k)
    _refuse_beyond_memory(lambda: 8 * grid.size ** grid.n * entries,
                          f"D^{k} on a {grid.size}^{grid.n} grid", "for its fields")
    coeffs = _derivatives(k, forward_transform(field).coeffs, _frequency_axes(field.grid))
    return GridField(field.grid, _inverse(coeffs, field.grid))


def apply_multiplier(op: Operator, field: GridField, tol: float = DEFAULT_TOL) -> GridField:
    """Apply the derivative recovery multiplier: A+(xi), then the derivatives.

    One batched pseudoinverse table of the real symbol table M
    (_pseudoinverse_table, cached like the projector table), the phase
    i^-k on its output (A = i^k M gives A+ = i^-k M+), then the derivative
    step of apply_Dk.  Input is a codomain-valued field (fiber dimW,
    typically apply_A(phi)); output is a derivative array (fiber dimV * T)
    in apply_Dk's orthonormal coordinates, so entry (j, t) is
    sqrt(k!/alpha_t!) (i xi)^alpha_t (A+ psi)_j for input psi, and it
    equals apply_Dk(k, phi - apply_PA(phi)) when the input is
    apply_A(phi).  The multiplier vanishes at frequency zero, where the
    symbol is zero.  A tol pinv refuses (_check_tol) raises ValueError
    first; then the call is refused before the table is looked up when the
    two tables, with the fields and a derivative row's monomial, cannot fit.
    """
    _check_tol(tol)
    _check_field(op, field, op.dim_w, "input")
    fields = (2 * (op.dim_w + op.dim_v + _derivative_fibers(op))
              + _derivative_columns(op.k))
    _refuse_oversized(op, field.grid, field.grid.size ** field.grid.n,
                      2 * op.dim_w * op.dim_v + fields)
    dagger = _pseudoinverse_table(op, field.grid, float(tol))
    out = _matvec(dagger, forward_transform(field).coeffs)
    out *= (-1j) ** op.k
    coeffs = _derivatives(op.k, out, _frequency_axes(field.grid))
    return GridField(field.grid, _inverse(coeffs, field.grid))


def _check_band(grid: Grid, max_freq: int) -> None:
    _check_int(max_freq, "max_freq", None)
    if not 1 <= max_freq <= grid.size // 4:
        raise ValueError(f"max_freq must lie in [1, {grid.size // 4}] on this grid")


def _check_route(p: float, tol: float) -> None:
    """A spectrum's first check: ValueError unless p >= 1 (nan is not) and pinv accepts tol."""
    if not p >= 1.0:
        raise ValueError("p must be at least 1")
    _check_tol(tol)


@lru_cache(maxsize=1)
def _primaries(n: int, max_freq: int) -> np.ndarray:
    """One frequency of each pair {xi, -xi} with 0 < |xi|_inf <= max_freq, shape (n, P); read-only.

    The band's columns after its centre, zero, in lexicographic order: the
    xi whose first nonzero component is positive (xi > -xi as tuples), P =
    ((2 max_freq + 1)^n - 1) / 2.  Their first components lie in
    0..max_freq: the first ((2 max_freq + 1)^(n-1) - 1) / 2 are those on
    plane 0, and the last is (max_freq, ..., max_freq).
    """
    axis = np.arange(-max_freq, max_freq + 1)
    band = np.stack(np.meshgrid(*([axis] * n), indexing="ij")).reshape(n, -1)
    primaries = band[:, band.shape[1] // 2 + 1:].copy()
    primaries.setflags(write=False)
    return primaries


def _band_draw(fiber_dim: int, count: int, seed) -> np.ndarray:
    """The random coefficients at count primaries: (fiber_dim, count) complex gaussians.

    Unit variance, real and imaginary parts from one standard_normal call of
    the seeded generator; random_band_limited's field has them at the
    primaries and their conjugates at the mirrors.  Viewed as complex and
    divided by sqrt(2) in place: the bits of (re + 1j im) / sqrt(2).
    """
    draws = np.random.default_rng(seed).standard_normal((fiber_dim, count, 2))
    values = draws.view(complex)[..., 0]
    values /= np.sqrt(2.0)
    return values


def _random_coefficients(grid: Grid, fiber_dim: int, max_freq: int, seed) -> FrequencyField:
    """Coefficients of random_band_limited(grid, fiber_dim, max_freq, seed).

    The band draw (_band_draw at _primaries) scattered onto the whole mesh,
    each primary's conjugate at its mirror.
    """
    fiber_dim = _check_int(fiber_dim, "fiber_dim")
    _check_band(grid, max_freq)
    primaries = _primaries(grid.n, max_freq)
    values = _band_draw(fiber_dim, primaries.shape[1], seed)
    coeffs = np.zeros((fiber_dim,) + grid.shape, dtype=complex)
    coeffs[(slice(None), *(primaries % grid.size))] = values
    coeffs[(slice(None), *(-primaries % grid.size))] = values.conj()
    return FrequencyField(grid, coeffs)


def random_band_limited(grid: Grid, fiber_dim: int, max_freq: int, seed) -> GridField:
    """Real-valued random field with independent unit-variance coefficients.

    Every integer frequency with 0 < |xi|_inf <= max_freq (max_freq at most
    size/4) carries a complex gaussian coefficient, Hermitian-paired so the
    field is real up to rounding; the mean (frequency zero) is exactly zero.
    Deterministic for a given seed (an int or sequence of ints).  Raises
    ValueError unless fiber_dim is an integer (not a bool) at least 1 and
    max_freq one in [1, size/4].
    """
    coeffs = _random_coefficients(grid, fiber_dim, max_freq, seed).coeffs
    return GridField(grid, _inverse(coeffs, grid))


@dataclass(frozen=True)
class _Spectrum:
    """The frequencies a coefficient array covers, and what the ratio and minimality read there.

    The whole mesh (_mesh_spectrum), or an explicit frequency list
    (_listed_spectrum): the primaries of a band (_band_spectrum) or one
    exact witness rung (experiments._ladder_ratios).  xis are the integer
    frequencies of the coefficient arrays (fiber, ...) on this spectrum, n
    float64 coordinate arrays that broadcast to their layout (on the whole
    mesh the sparse mesh of _frequency_axes); symbols (..., dimW, dimV) and
    projector (..., dimV, dimV) are the real tables of M and P_A there, the
    one copy of each.  slabs() yields its slabs as (planes,
    derivative_weights) pairs: planes is a slice of the first frequency
    axis, whose tables are symbols[planes] and projector[planes] (views),
    runs of about _MATVEC_CHUNK frequencies on the mesh (_mesh_slabs) and
    slice(None) on a frequency list, which is one slab.  With norm_weights
    and a slab's derivative_weights, |xi|^2k there times norm_weights,
    pinv._norm of coefficients there is the whole-mesh L2 norm of the
    field, and of its order-k derivatives, on the slab (_slab_total joins
    the slabs).
    grid_norm(rows, p) gives _grid_norm of the grid values of the field
    whose coefficient rows the iterable rows yields (None on a band built
    for p = 2 and on a rung, whose norms read no grid value).  Each row is
    taken to the grid as it is read and dropped before the next: on the
    whole mesh in place (_inverse), so a caller hands over rows it does not
    read again, with its magnitudes in one buffer (_mesh_norm); on a band
    by the band's own real inverse FFT into its buffers (_band_grid).
    draw(fiber_dim, seed) gives the coefficients of random_band_limited on
    this spectrum (band N/4 on the whole mesh; a rung has no draw).
    """

    xis: Sequence[np.ndarray]
    symbols: np.ndarray
    projector: np.ndarray
    norm_weights: float | None
    slabs: Callable[[], Iterable[tuple[slice, np.ndarray]]]
    grid_norm: Callable[[Iterable[np.ndarray], float], float] | None
    draw: Callable[[int, object], np.ndarray] | None


def _slab_total(norms: Sequence[float]) -> float:
    """The norm of a field from its slabs' norms: pinv._norm of them, or the one slab's own."""
    return float(norms[0] if len(norms) == 1 else _norm(np.array(norms)))


def _slab_planes(grid: Grid) -> int:
    """First-axis planes per slab of the mesh: about _MATVEC_CHUNK frequencies, at least one."""
    return max(1, min(grid.size, _MATVEC_CHUNK // grid.size ** (grid.n - 1)))


def _mesh_slabs(op: Operator, grid: Grid):
    """The mesh's slabs of _slab_planes planes, a generator: each forms its |xi|^2k as it is reached."""
    xis = _frequency_axes(grid)
    rows = _slab_planes(grid)
    for start in range(0, grid.size, rows):
        planes = slice(start, start + rows)
        yield planes, _xi_weights([xis[0][planes], *xis[1:]], op.k)


def _trial_entries(op: Operator, p: float) -> int:
    """Real entries per frequency of a ratio or minimality trial, beside its tables and buffers.

    phi and, at p = 2, the larger of a ratio's phi - P_A phi, M phi and its
    magnitudes and a minimality trial's draw, projection and its
    magnitudes, with a _matvec chunk and numpy's cast buffer (two rows).
    At any other p phi - P_A phi, and the larger of the magnitudes _norm
    takes of either field and what a grid norm holds: the monomial of a
    row of D^k phi (_derivative_columns) and that complex row with, on a
    band, numpy's cast buffer, or on the whole mesh its magnitudes and the
    accumulator.
    """
    if p == 2.0:
        return 2 * op.dim_v + max(2 * op.dim_v + 3 * op.dim_w, 5 * op.dim_v) + 4
    return 4 * op.dim_v + max(op.dim_v, _derivative_columns(op.k) + 4)


def _mesh_spectrum(op: Operator, grid: Grid, tol: float, p: float, held: int = 0) -> _Spectrum:
    """The whole frequency mesh at exponent p: N^n tables (_symbol_tensor, _kernel_projector_table).

    Raises ValueError unless _check_route passes, then MemoryError before a
    table is looked up when the route does not fit (_refuse_oversized),
    counting per frequency the tables (M, P_A), the largest of the symbol's
    monomials (operators._column_count) and the projector build, held
    complex fibers of whole-mesh fields the caller keeps, and a trial
    (_trial_entries): on one slab with its weights at p = 2, where every
    norm is taken slab by slab (_mesh_slabs), or on the whole mesh at any
    other p, where the grid norm takes one coefficient row at a time to the
    grid in place (_inverse) and measures its magnitudes (_mesh_norm).
    """
    _check_route(p, tol)
    count = grid.size ** grid.n
    kept = op.dim_w * op.dim_v + op.dim_v ** 2 + 2 * held
    build = max(_column_count(op.alpha_array),
                _held_entries(op.dim_w, op.dim_v, count, _projectors(op.dim_v, tol)))
    if p == 2.0:
        slab = _slab_planes(grid) * grid.size ** (grid.n - 1)
        _refuse_oversized(op, grid, count, kept + build, slab * (_trial_entries(op, p) + 1))
    else:
        _refuse_oversized(op, grid, count, kept + max(build, _trial_entries(op, p)))
    symbols = _symbol_tensor(op, grid)
    projector = _kernel_projector_table(op, grid, float(tol))

    def grid_values(rows):
        for row in rows:
            values = _inverse(row[None], grid)[0]
            del row
            yield values
            del values
    return _Spectrum(
        _frequency_axes(grid), symbols, projector, None,
        lambda: _mesh_slabs(op, grid),
        lambda rows, p: _mesh_norm(grid_values(rows), grid, p),
        lambda fiber_dim, seed: _random_coefficients(grid, fiber_dim, grid.size // 4, seed).coeffs)


def _band_buffers(grid: Grid, max_freq: int) -> dict[str, tuple[tuple, type]]:
    """The arrays of the band's grid route (_band_grid) as (shape, dtype), in exact integers.

    The grid is read as N first-axis values times N^(n-1) lines, one line
    in 1-D.  half: one fiber's half spectrum, N/2 + 1 first-axis planes,
    whose planes 0..B every complex pass writes; in 1-D no pass runs, so
    it is planes 0..B alone, which irfft pads with zeros as it reads them,
    making no padded copy.  out: one chunk of a fiber's real grid values,
    a run of w lines of N reals, w = max(1, min(N^(n-1), _GRID_CHUNK / N)),
    so at most max(N, _GRID_CHUNK) reals; N and _GRID_CHUNK are powers of
    two, so the chunks tile the lines.  total: the N^n accumulator of
    _grid_norm, as (N, N^(n-1)).
    """
    lines = grid.size ** (grid.n - 1)
    width = max(1, min(lines, _GRID_CHUNK // grid.size))
    planes = max_freq + 1 if grid.n == 1 else grid.size // 2 + 1
    return {"half": ((planes,) + grid.shape[1:], complex),
            "out": ((grid.size, width), float), "total": ((grid.size, lines), float)}


def _band_grid(grid: Grid, primaries: np.ndarray):
    """The band's grid_norm, by numpy's irfftn steps on buffers allocated once.

    A band field's first components lie in 0..B (_primaries, int64), B
    the last primary's first component, so its half spectrum is zero
    beyond first-axis plane B.  A field's (fiber, P) rows, any iterable of
    them, are _grid_norm's fibers: a row's bound is 2 sum |c| / (2pi)^(n/2)
    over its primaries, and the row is scattered into planes 0..B of the
    half spectrum, the primaries and the mirrors of the leading ((2B+1)^(n-1)
    - 1) / 2, those in plane 0, which take the conjugates so that the plane
    is Hermitian as irfft reads it, then dropped.  An ifft along each axis
    1..n-1 in turn, the order of irfftn's passes, runs on those planes in
    place (out=), none in 1-D, and planes B+1..N/2 stay zero (in 1-D irfft
    pads them).  The passes fill the planes, so they are zeroed before each
    scatter.  The row's parts are irfft along the first axis of the half
    spectrum read as planes of N^(n-1) lines, one chunk of lines at a time
    into the one out buffer (_band_buffers), divided by irfftn's scale
    times 2^exponent, which is exact, so each value has irfftn's bits times
    2^-exponent; a part's at indexes the (N, N^(n-1)) accumulator.
    grid_norm(rows, p) allocates no array the size of the grid.
    """
    max_freq = int(primaries[0, -1])
    half, out, total = (np.zeros(shape, dtype)
                        for shape, dtype in _band_buffers(grid, max_freq).values())
    lines = half.reshape(len(half), -1)
    target = half[:max_freq + 1]
    flat = target.reshape(-1)
    # mode="wrap" takes the other axes' indices modulo N; first components lie in 0..B
    scatter = np.ravel_multi_index(tuple(primaries), target.shape, mode="wrap")
    on_plane0 = ((2 * max_freq + 1) ** (grid.n - 1) - 1) // 2
    mirrors = np.ravel_multi_index(tuple(-primaries[:, :on_plane0]), target.shape, mode="wrap")
    scale = (TWO_PI / grid.size) ** (grid.n / 2.0)
    width = out.shape[1]
    chunks = [(slice(None), slice(start, start + width))
              for start in range(0, lines.shape[1], width)]

    def parts(exponent: int):
        divisor = math.ldexp(scale, exponent)
        for at in chunks:
            np.fft.irfft(lines[at], grid.size, axis=0, norm="ortho", out=out)
            np.divide(out, divisor, out=out)
            yield out, at

    def fibers(rows):
        for row in rows:
            bound = 2.0 * np.abs(row).sum() / TWO_PI ** (grid.n / 2.0)
            target.fill(0.0)
            flat[scatter] = row
            flat[mirrors] = row[:on_plane0].conj()
            del row
            for axis in range(1, grid.n):
                np.fft.ifft(target, axis=axis, norm="ortho", out=target)
            yield bound, parts

    return lambda rows, p: _grid_norm(fibers(rows), grid, p, total)


def _band_spectrum(op: Operator, grid: Grid, max_freq: int, tol: float, p: float) -> _Spectrum:
    """The primaries of the band max_freq on grid, for the route at exponent p.

    Raises ValueError unless 1 <= max_freq <= N/4 and _check_route accepts
    p and tol, and MemoryError when the route does not fit
    (_refuse_oversized), all before any table is built or field drawn.  The
    tables are M, operators._column_stack of the n float64 rows of xis, and
    its kernel projector P_A (one pinv._projectors pass), bitwise the entries
    of _symbol_tensor and _kernel_projector_table at the primaries, so they
    do not depend on N; built per spectrum, not cached, they are freed with
    the route.  The estimate counts per primary those tables and 2 |xi|^2k
    with the int64 primaries, their float64 coordinates xis, cast once here
    so that no trial casts them, and the scatter positions (dimW dimV +
    dimV^2 + 2n + 3 reals), and the largest of the symbol's monomials
    (operators._column_count), the projector build and a trial
    (_trial_entries); at p != 2 it adds the grid route's buffers
    (_band_buffers), whatever the field's fiber count.  The spectrum is
    the primaries' list (_listed_spectrum) with norm_weights 2, for each
    primary's mirror.
    A field here is its (fiber, P) values at the primaries (_band_draw),
    the field of random_band_limited with the same seed.  Only p != 2
    builds the grid route (_band_grid): a p = 2 norm reads no grid value,
    so there N only names the grid.
    """
    _check_band(grid, max_freq)
    _check_route(p, tol)
    count = ((2 * max_freq + 1) ** op.n - 1) // 2
    grid_entries = 0
    if p != 2.0:
        grid_entries = sum(math.prod(shape) * np.dtype(dtype).itemsize // 8
                           for shape, dtype in _band_buffers(grid, max_freq).values())
    tables = op.dim_w * op.dim_v + op.dim_v ** 2 + 2 * op.n + 3
    projection = _projectors(op.dim_v, float(tol))
    build = _held_entries(op.dim_w, op.dim_v, count, projection)
    _refuse_oversized(op, grid, count,
                      tables + max(_column_count(op.alpha_array), build,
                                   _trial_entries(op, p)),
                      grid_entries)
    primaries = _primaries(op.n, max_freq)
    xis = primaries.astype(float)
    symbols = _column_stack(op, xis)
    return _listed_spectrum(op, xis, symbols, _blockwise(symbols, projection)[0], 2.0,
                            _band_grid(grid, primaries) if p != 2.0 else None,
                            lambda fiber_dim, seed: _band_draw(fiber_dim, count, seed))


def _listed_spectrum(op: Operator, xis: np.ndarray, symbols: np.ndarray, projector: np.ndarray,
                     norm_weights: float | None = None, grid_norm=None, draw=None) -> _Spectrum:
    """The spectrum on an explicit frequency list: a band's primaries or one exact rung.

    xis is the (n, P) float64 list, and symbols and projector M and P_A
    there, bitwise the mesh tables' entries.  It is one slab, whose |xi|^2k
    are formed once, times norm_weights where a frequency stands for its
    mirror too (2 on a band); xis, the tables and the weights are made
    read-only.  grid_norm and draw are those of _Spectrum, None on a rung,
    whose ratio is read at p = 2 for every p (experiments._ladder_ratios).
    """
    weights = _xi_weights(xis, op.k)
    if norm_weights is not None:
        weights *= norm_weights
    for table in (xis, symbols, projector, weights):
        table.setflags(write=False)
    slabs = ((slice(None), weights),)
    return _Spectrum(xis, symbols, projector, norm_weights, lambda: slabs, grid_norm, draw)


def periodic_bump(grid: Grid, width: float) -> np.ndarray:
    """Smooth periodized window, centered at pi per axis, shape grid.shape.

    width in (0, 1] is the support diameter as a fraction of the torus:
    per axis the profile is 1 for |x - pi| <= width*pi/2, 0 for
    |x - pi| >= width*pi, with a smooth exponential step between.  The
    window is separable: the outer product of one profile per axis
    (_bump_profile).
    """
    return reduce(np.multiply.outer, [_bump_profile(grid, width)] * grid.n)


def _bump_profile(grid: Grid, width: float) -> np.ndarray:
    """periodic_bump's profile along one axis, shape (size,); ValueError unless 0 < width <= 1."""
    if not 0.0 < width <= 1.0:
        raise ValueError("width must lie in (0, 1]")
    t = np.abs(TWO_PI * np.arange(grid.size) / grid.size - math.pi) / (width * math.pi)
    s = np.clip(2.0 * (1.0 - t), 0.0, 1.0)
    inner = (s > 0.0) & (s < 1.0)
    profile = np.where(s >= 1.0, 1.0, 0.0)
    a = np.exp(-1.0 / np.where(inner, s, 1.0))
    b = np.exp(-1.0 / np.where(inner, 1.0 - s, 1.0))
    profile[inner] = (a / (a + b))[inner]
    return profile


def _bump_coefficients(grid: Grid, width: float) -> np.ndarray:
    """The coefficients of periodic_bump's one-axis profile, shape (size,), complex.

    The bump is an outer product of this profile, so forward_transform of
    the bump is the product over the axes of the profile's 1-D unitary FFT
    times (2pi/N)^(1/2) (_envelope multiplies by it): to rounding for n >= 2,
    and bitwise for n = 1.
    """
    return np.fft.fft(_bump_profile(grid, width), norm="ortho") * (TWO_PI / grid.size) ** 0.5


def _envelope(coeffs: np.ndarray, factor: np.ndarray, shift, planes: slice = slice(None)) -> None:
    """Multiply coeffs (fiber, rows, N, ..., N) in place by the separable envelope rolled by shift.

    At eta the envelope is the product over axes j of factor[eta_j -
    shift_j]; coeffs, the first-axis planes planes of the mesh, is
    multiplied by one rolled factor per axis, so nothing the size of the
    grid is made and each entry has its whole-mesh bits.  The factor is
    complex like coeffs, so the multiplies run _uncast.
    """
    with _uncast():
        for axis, step in enumerate(shift):
            rolled = np.roll(factor, step)
            if axis == 0:
                rolled = rolled[planes]
            coeffs *= rolled.reshape((-1,) + (1,) * (coeffs.ndim - 2 - axis))
