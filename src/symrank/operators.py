"""Constant-coefficient homogeneous differential operators and their symbols.

An operator is a finite sum of terms A_alpha d^alpha, all of the same total
order k, mapping fields with values in R^dimV to fields with values in
R^dimW.  Its symbol at a real frequency xi is the complex dimW x dimV matrix

    A(xi) = sum_{|alpha|=k} (i xi)^alpha A_alpha = i^k M(xi),  M(xi) = sum_alpha xi^alpha A_alpha,

homogeneous of degree k.  The coefficients are real, so M is real, and it
is the package's one symbol format (_column_stack): A has the rank, kernel
and kernel projector of M, and A+ = i^-k M+.  symbol and symbol_stack
return i^k M for callers that want A itself.  Operators are immutable,
hashable values, checked by Operator.  parse_operator reads the command
line tools' JSON documents, which hold these fields and terms, each once:

    {"name": "divergence", "n": 3, "k": 1, "dimV": 3, "dimW": 1,
     "terms": [{"alpha": [1, 0, 0], "matrix": [[1, 0, 0]]}, ...]}
"""

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MultiIndex = tuple[int, ...]

_DOCUMENT_FIELDS = ("name", "n", "k", "dimV", "dimW", "terms")
_DOCUMENT_SPELLING = {"dim_v": "dimV", "dim_w": "dimW"}


class OperatorSpecError(ValueError):
    """Invalid operator document; the message names the offending field."""


def multi_indices(n: int, k: int) -> tuple[MultiIndex, ...]:
    """All multi-indices with n entries and total degree k, lexicographically sorted."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    if n == 1:
        return ((k,),)
    out = []
    for head in range(k + 1):
        out.extend((head,) + tail for tail in multi_indices(n - 1, k - head))
    return tuple(out)


def multinomial_weight(alpha: MultiIndex) -> int:
    """k!/alpha!, the multiplicity of alpha in the expansion of (x_1+..+x_n)^k."""
    w = math.factorial(sum(alpha))
    for a in alpha:
        w //= math.factorial(a)
    return w


def _items(value) -> tuple | None:
    """The items of value as a tuple, or None when value is not iterable."""
    try:
        return tuple(value)
    except TypeError:
        return None


@dataclass(frozen=True)
class Operator:
    """A homogeneous constant-coefficient differential operator.

    terms holds (alpha, matrix) pairs sorted by multi-index, where each matrix
    is a real dimW x dimV coefficient stored as nested tuples.  This is the
    one check of an operator's fields, and nothing is rounded: n, k, dim_v and
    dim_w are positive ints; each term's alpha holds n nonnegative integers
    (Python or numpy, not bool or float) that int64 holds, summing to k, none
    repeated; each matrix holds dimW rows (any iterable, so np.eye(2) is one)
    of dimV finite reals (not bool or string), not all zero.  Invalid input
    raises OperatorSpecError naming the offending field.
    """

    name: str
    n: int
    k: int
    dim_v: int
    dim_w: int
    terms: tuple[tuple[MultiIndex, tuple[tuple[float, ...], ...]], ...]

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise OperatorSpecError("name: must be a nonempty string")
        for field_name in ("n", "k", "dim_v", "dim_w"):
            value = getattr(self, field_name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise OperatorSpecError(f"{field_name}: must be an integer of at least 1")
        items = _items(self.terms)
        if items is None:
            raise OperatorSpecError("terms: expected an iterable of (alpha, matrix) pairs")
        canonical = {}
        for i, pair in enumerate(items):
            pair = _items(pair)
            if pair is None or len(pair) != 2:
                raise OperatorSpecError(f"terms[{i}]: expected an (alpha, matrix) pair")
            alpha, rows = map(_items, pair)
            if alpha is None or not all(
                    isinstance(a, numbers.Integral) and not isinstance(a, bool) for a in alpha):
                raise OperatorSpecError(
                    f"terms[{i}].alpha: expected a list of integers (integer exponents)")
            alpha = tuple(int(a) for a in alpha)
            if any(abs(a) >= 2 ** 63 for a in alpha):
                raise OperatorSpecError(f"terms[{i}].alpha: exponent beyond the int64 range")
            if len(alpha) != self.n or any(a < 0 for a in alpha):
                raise OperatorSpecError(
                    f"terms[{i}].alpha: expected {self.n} nonnegative exponents, got {alpha}")
            if sum(alpha) != self.k:
                raise OperatorSpecError(
                    f"terms[{i}].alpha: inhomogeneous term (degree {sum(alpha)}, operator order {self.k})")
            if alpha in canonical:
                raise OperatorSpecError(f"terms[{i}].alpha: duplicate multi-index {alpha}")
            rows = None if rows is None else [_items(row) for row in rows]
            if rows is None or None in rows:
                raise OperatorSpecError(f"terms[{i}].matrix: expected a list of rows")
            for x in (x for row in rows for x in row):
                if isinstance(x, bool) or not isinstance(x, numbers.Real):
                    raise OperatorSpecError(f"terms[{i}].matrix: non-numeric entry {x!r}")
            try:
                matrix = tuple(tuple(float(x) for x in row) for row in rows)
            except OverflowError:
                raise OperatorSpecError(f"terms[{i}].matrix: entry beyond the float range") from None
            if len(matrix) != self.dim_w or any(len(row) != self.dim_v for row in matrix):
                raise OperatorSpecError(
                    f"terms[{i}].matrix: expected {self.dim_w} rows of {self.dim_v} entries")
            if not all(math.isfinite(x) for row in matrix for x in row):
                raise OperatorSpecError(f"terms[{i}].matrix: non-finite entry")
            canonical[alpha] = matrix
        if not canonical:
            raise OperatorSpecError("terms: empty term list")
        if all(x == 0.0 for matrix in canonical.values() for row in matrix for x in row):
            raise OperatorSpecError("terms: all coefficient matrices are zero")
        object.__setattr__(self, "terms", tuple(sorted(canonical.items())))

    @cached_property
    def alpha_array(self) -> np.ndarray:
        """Exponent rows, shape (num_terms, n)."""
        arr = np.array([alpha for alpha, _ in self.terms], dtype=np.int64)
        arr.setflags(write=False)
        return arr

    @cached_property
    def matrix_array(self) -> np.ndarray:
        """Coefficient stack, shape (num_terms, dim_w, dim_v)."""
        arr = np.array([matrix for _, matrix in self.terms], dtype=float)
        arr.setflags(write=False)
        return arr


def symbol(op: Operator, xi) -> np.ndarray:
    """Evaluate A(xi) = i^k sum_alpha xi^alpha A_alpha as a dimW x dimV complex matrix."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (op.n,):
        raise ValueError(f"frequency must have length {op.n}, got shape {xi.shape}")
    return symbol_stack(op, xi[None, :])[0]


def _column_monomials(columns, alphas) -> np.ndarray:
    """xi^alpha for every multi-index alpha at the frequencies whose coordinates are columns.

    columns are n arrays that broadcast together, coordinate j of every
    frequency in columns[j]: the n rows of an (n, m) array, or a sparse
    mesh of one 1-D axis per coordinate; the output has their broadcast
    shape and a last axis of T.  They are cast to float64 once, so integer
    coordinates cannot wrap: products of per-axis powers x_j, x_j * x_j, ...
    by repeated multiplication, exact on integers while below 2^53.
    """
    columns = [np.asarray(column, dtype=float) for column in columns]
    axis_powers = []
    for column, top in zip(columns, np.max(alphas, axis=0)):
        axis_powers.append([column])
        for _ in range(1, top):
            axis_powers[-1].append(axis_powers[-1][-1] * column)
    powers = np.ones(np.broadcast_shapes(*(column.shape for column in columns)) + (len(alphas),))
    for t, alpha in enumerate(alphas):
        for j, exponent in enumerate(alpha):
            if exponent:
                powers[..., t] *= axis_powers[j][exponent - 1]
    return powers


def _column_count(alphas) -> int:
    """Reals per frequency, at most, that _column_monomials holds for the (T, n) alphas.

    Its T monomials and a power column per exponent above 1 of each axis's
    largest exponent (one axis of a sparse mesh holds its powers along that
    axis only), counted in Python ints: an int64 sum of exponents near 2^62
    wraps negative.
    """
    return len(alphas) + sum(max(int(top) - 1, 0) for top in np.max(alphas, axis=0))


def _column_stack(op: Operator, columns) -> np.ndarray:
    """M(xi) = sum_alpha xi^alpha A_alpha at columns as in _column_monomials; (..., dimW, dimV)."""
    powers = _column_monomials(columns, op.alpha_array)
    return np.einsum("...t,twv->...wv", powers, op.matrix_array)


def _real_stack(op: Operator, xis) -> np.ndarray:
    """M(xi) = sum_alpha xi^alpha A_alpha at every row of xis, shape (len(xis), dimW, dimV).

    The real factor of the symbol A = i^k M, in float64: every rank, kernel
    projector, pseudoinverse and symbol table of the package is taken of M.
    The rows are checked, then evaluated as n columns (_column_stack).
    """
    xis = np.asarray(xis, dtype=float)
    if xis.ndim != 2 or xis.shape[1] != op.n:
        raise ValueError(f"expected an array of shape (m, {op.n})")
    if not np.isfinite(xis).all():
        raise ValueError("frequencies have non-finite entries")
    return _column_stack(op, xis.T)


def symbol_stack(op: Operator, xis) -> np.ndarray:
    """The symbol at every row of xis, shape (len(xis), dimW, dimV): exactly i^k _real_stack."""
    return (1j ** op.k) * _real_stack(op, xis)


def _reject_nonfinite(token):
    raise OperatorSpecError(f"document: non-finite number {token!r}")


def _unique_keys(pairs) -> dict:
    """A decoded JSON object; json.loads would keep only the last of a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise OperatorSpecError(f"document: duplicate field {key!r}")
        obj[key] = value
    return obj


def parse_operator(text: str) -> Operator:
    """Parse an operator document (JSON, see module docstring); no object may repeat a key.

    Every validation failure raises OperatorSpecError whose message starts
    with the path of the offending field as the document spells it.
    """
    try:
        doc = json.loads(text, parse_constant=_reject_nonfinite, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise OperatorSpecError(
            f"document: invalid JSON ({exc.msg} at line {exc.lineno})") from None
    except OperatorSpecError:
        raise
    except (ValueError, RecursionError) as exc:
        # an integer beyond Python's digit limit, or nesting beyond the recursion limit
        raise OperatorSpecError(f"document: invalid JSON ({exc})") from None
    return operator_from_document(doc)


def _fields(obj, path: str, keys) -> list:
    """obj's values at keys, in order, when obj is a dict with exactly those keys."""
    if not isinstance(obj, dict):
        raise OperatorSpecError(f"{path}: expected a JSON object")
    wrong = [f"missing field {key!r}" for key in keys if key not in obj]
    wrong += [f"unknown field {key!r}" for key in obj if key not in keys]
    if wrong:
        raise OperatorSpecError(f"{path}: {wrong[0]}")
    return [obj[key] for key in keys]


def operator_from_document(doc) -> Operator:
    """Build an Operator from an already-decoded document object.

    Only the document is checked here: an object of the six fields, whose
    terms is a list of objects of alpha and matrix.  Operator gets their
    values as they are and checks them; its messages' dim_v and dim_w are
    spelled dimV and dimW.
    """
    name, n, k, dim_v, dim_w, terms = _fields(doc, "document", _DOCUMENT_FIELDS)
    if not isinstance(terms, list):
        raise OperatorSpecError("terms: must be a list")
    pairs = [_fields(term, f"terms[{i}]", ("alpha", "matrix")) for i, term in enumerate(terms)]
    try:
        return Operator(name, n, k, dim_v, dim_w, pairs)
    except OperatorSpecError as exc:
        field, colon, rest = str(exc).partition(":")
        raise OperatorSpecError(_DOCUMENT_SPELLING.get(field, field) + colon + rest) from None


def serialize_operator(op: Operator) -> str:
    """Canonical document for op: terms sorted by multi-index, stable formatting.

    The output is byte-deterministic and reparses to an equal Operator;
    serializing that reparse reproduces the same bytes.
    """
    terms = [{"alpha": list(alpha), "matrix": [list(row) for row in matrix]}
             for alpha, matrix in op.terms]
    doc = dict(zip(_DOCUMENT_FIELDS, (op.name, op.n, op.k, op.dim_v, op.dim_w, terms)))
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
