"""Constant-coefficient homogeneous differential operators and their symbols.

An operator is a finite sum of terms A_alpha d^alpha, all of the same total
order k, mapping fields with values in R^dimV to fields with values in
R^dimW.  Its symbol at a real frequency xi is the complex dimW x dimV matrix

    A(xi) = sum_{|alpha|=k} (i xi)^alpha A_alpha = i^k sum_alpha xi^alpha A_alpha,

homogeneous of degree k.  Operators are immutable, hashable values.  The
JSON document format accepted by parse_operator is the interchange format
used by the command line tools:

    {"name": "divergence", "n": 3, "k": 1, "dimV": 3, "dimW": 1,
     "terms": [{"alpha": [1, 0, 0], "matrix": [[1, 0, 0]]}, ...]}
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MultiIndex = tuple[int, ...]

_DOCUMENT_FIELDS = ("name", "n", "k", "dimV", "dimW", "terms")


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


@dataclass(frozen=True)
class Operator:
    """A homogeneous constant-coefficient differential operator.

    terms holds (alpha, matrix) pairs sorted by multi-index, where each
    matrix is a real dimW x dimV coefficient stored as nested tuples.
    Construction validates homogeneity, shapes, and finiteness; invalid
    input raises OperatorSpecError naming the offending field.
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
                raise OperatorSpecError(f"{field_name}: must be a positive integer")
        canonical = []
        seen = set()
        for i, item in enumerate(self.terms):
            try:
                alpha_raw, matrix_raw = item
            except (TypeError, ValueError):
                raise OperatorSpecError(f"terms[{i}]: expected an (alpha, matrix) pair") from None
            try:
                alpha = tuple(int(a) for a in alpha_raw)
            except (TypeError, ValueError):
                raise OperatorSpecError(f"terms[{i}].alpha: expected integer exponents") from None
            if len(alpha) != self.n or any(a < 0 for a in alpha):
                raise OperatorSpecError(
                    f"terms[{i}].alpha: expected {self.n} nonnegative exponents, got {alpha}")
            if sum(alpha) != self.k:
                raise OperatorSpecError(
                    f"terms[{i}].alpha: inhomogeneous term (degree {sum(alpha)}, operator order {self.k})")
            if alpha in seen:
                raise OperatorSpecError(f"terms[{i}].alpha: duplicate multi-index {alpha}")
            seen.add(alpha)
            try:
                matrix = tuple(tuple(float(x) for x in row) for row in matrix_raw)
            except (TypeError, ValueError):
                raise OperatorSpecError(f"terms[{i}].matrix: expected a numeric matrix") from None
            if len(matrix) != self.dim_w or any(len(row) != self.dim_v for row in matrix):
                raise OperatorSpecError(
                    f"terms[{i}].matrix: expected {self.dim_w} rows of {self.dim_v} entries")
            if not all(math.isfinite(x) for row in matrix for x in row):
                raise OperatorSpecError(f"terms[{i}].matrix: non-finite entry")
            canonical.append((alpha, matrix))
        if not canonical:
            raise OperatorSpecError("terms: empty term list")
        if all(x == 0.0 for _, matrix in canonical for row in matrix for x in row):
            raise OperatorSpecError("terms: all coefficient matrices are zero")
        canonical.sort(key=lambda term: term[0])
        object.__setattr__(self, "terms", tuple(canonical))

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


def _monomials(xis: np.ndarray, alphas) -> np.ndarray:
    """xi^alpha for every row xi of xis (m, n) and every multi-index alpha; shape (m, T).

    Products of per-axis powers x_j, x_j * x_j, ... built by repeated
    multiplication: exact on integer frequencies.
    """
    axis_powers = []
    for j, top in enumerate(np.max(alphas, axis=0)):
        columns = [xis[:, j]]
        for _ in range(1, top):
            columns.append(columns[-1] * xis[:, j])
        axis_powers.append(columns)
    powers = np.ones((len(xis), len(alphas)))
    for t, alpha in enumerate(alphas):
        for j, exponent in enumerate(alpha):
            if exponent:
                powers[:, t] *= axis_powers[j][exponent - 1]
    return powers


def symbol_stack(op: Operator, xis) -> np.ndarray:
    """Evaluate the symbol at every row of xis; returns shape (len(xis), dimW, dimV).

    The coefficients are real, so A(xi) = i^k M(xi) with M(xi) = sum_alpha
    xi^alpha A_alpha real, and the stack is i^k times the real stack of M
    exactly: its real part for even k, its imaginary part for odd k, is M up
    to sign (see _real_factor).  The monomials xi^alpha come from _monomials.
    """
    xis = np.asarray(xis, dtype=float)
    if xis.ndim != 2 or xis.shape[1] != op.n:
        raise ValueError(f"expected an array of shape (m, {op.n})")
    if not np.isfinite(xis).all():
        raise ValueError("frequencies have non-finite entries")
    powers = _monomials(xis, op.alpha_array)
    return (1j ** op.k) * np.einsum("st,twv->swv", powers, op.matrix_array)


def _real_factor(op: Operator, stack: np.ndarray) -> np.ndarray:
    """Zero-copy real view R of a symbol stack, with stack = i^(k mod 2) R exactly.

    R is (-1)^(k // 2) M for the real M of A = i^k M (see symbol_stack):
    the real part of the stack for even k, its imaginary part for odd k.
    R has the rank, kernel and kernel projector of A (P_A = P_M), and
    A+ = i^-(k mod 2) R+.
    """
    return stack.imag if op.k % 2 else stack.real


def _reject_nonfinite(token):
    raise OperatorSpecError(f"document: non-finite number {token!r}")


def parse_operator(text: str) -> Operator:
    """Parse an operator document (JSON, see module docstring).

    Every validation failure raises OperatorSpecError whose message starts
    with the path of the offending field.
    """
    try:
        doc = json.loads(text, parse_constant=_reject_nonfinite)
    except json.JSONDecodeError as exc:
        raise OperatorSpecError(
            f"document: invalid JSON ({exc.msg} at line {exc.lineno})") from None
    return operator_from_document(doc)


def _expect_int(doc: dict, key: str) -> int:
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise OperatorSpecError(f"{key}: must be an integer")
    return value


def operator_from_document(doc) -> Operator:
    """Build an Operator from an already-decoded document object."""
    if not isinstance(doc, dict):
        raise OperatorSpecError("document: expected a JSON object")
    for key in _DOCUMENT_FIELDS:
        if key not in doc:
            raise OperatorSpecError(f"document: missing field {key!r}")
    unknown = sorted(set(doc) - set(_DOCUMENT_FIELDS))
    if unknown:
        raise OperatorSpecError(f"document: unknown field {unknown[0]!r}")
    name = doc["name"]
    if not isinstance(name, str):
        raise OperatorSpecError("name: must be a string")
    terms_raw = doc["terms"]
    if not isinstance(terms_raw, list):
        raise OperatorSpecError("terms: must be a list")
    terms = []
    for i, item in enumerate(terms_raw):
        if not isinstance(item, dict):
            raise OperatorSpecError(f"terms[{i}]: expected an object")
        for key in ("alpha", "matrix"):
            if key not in item:
                raise OperatorSpecError(f"terms[{i}]: missing field {key!r}")
        alpha = item["alpha"]
        if not isinstance(alpha, list) or not all(
                isinstance(a, int) and not isinstance(a, bool) for a in alpha):
            raise OperatorSpecError(f"terms[{i}].alpha: expected a list of integers")
        matrix = item["matrix"]
        if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
            raise OperatorSpecError(f"terms[{i}].matrix: expected a list of rows")
        for row in matrix:
            for x in row:
                if isinstance(x, bool) or not isinstance(x, (int, float)):
                    raise OperatorSpecError(f"terms[{i}].matrix: non-numeric entry {x!r}")
        terms.append((tuple(alpha), tuple(tuple(float(x) for x in row) for row in matrix)))
    return Operator(
        name=name,
        n=_expect_int(doc, "n"),
        k=_expect_int(doc, "k"),
        dim_v=_expect_int(doc, "dimV"),
        dim_w=_expect_int(doc, "dimW"),
        terms=tuple(terms),
    )


def serialize_operator(op: Operator) -> str:
    """Canonical document for op: terms sorted by multi-index, stable formatting.

    The output is byte-deterministic and reparses to an equal Operator;
    serializing that reparse reproduces the same bytes.
    """
    doc = {
        "name": op.name,
        "n": op.n,
        "k": op.k,
        "dimV": op.dim_v,
        "dimW": op.dim_w,
        "terms": [
            {"alpha": list(alpha), "matrix": [list(row) for row in matrix]}
            for alpha, matrix in op.terms
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
