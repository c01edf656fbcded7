"""Characteristic-polynomial (Decell) pseudoinverse: the tests' independent oracle.

pinv_decell builds A+ from the coefficients of det(A A* - lam I), which
char_poly_coeffs computes by the Faddeev-LeVerrier trace recursion.  It
shares no arithmetic with the SVD route of symrank.pinv, so agreement
between the two (acceptance criteria 1-2) checks the package's only
pseudoinverse against an independent construction.  Not a test module:
pytest collects only test_*.py files.
"""

import numpy as np

from symrank.pinv import _as_matrices

# pinv_decell refuses to divide by a trailing coefficient this small
# relative to the largest one.
DECELL_COEFF_FLOOR = 1e-12


class IllConditionedError(ArithmeticError):
    """Polynomial pseudoinverse route rejected: trailing coefficient is numerically zero."""


def _as_matrix(mat) -> np.ndarray:
    """One complex matrix (m, n), for the characteristic-polynomial route."""
    mat = _as_matrices(mat)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2d matrix, got shape {mat.shape}")
    return mat.astype(complex, copy=False)


def char_poly_coeffs(mat, hermitian_tol: float = 1e-10) -> np.ndarray:
    """Characteristic polynomial coefficients a_0..a_d of a Hermitian matrix B.

    Convention: det(B - lam I) = (-1)^d sum_{j=0..d} a_j lam^(d-j) with
    a_0 = 1, computed by the Faddeev-LeVerrier trace recursion.  Hermitian
    input keeps every coefficient real; non-Hermitian input is rejected.
    """
    mat = _as_matrix(mat)
    d = mat.shape[0]
    if mat.shape[1] != d:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.abs(mat).max()))
    if float(np.abs(mat - mat.conj().T).max()) > hermitian_tol * scale:
        raise ValueError("matrix is not Hermitian to the requested tolerance")
    coeffs = [1.0]
    aux = np.zeros_like(mat)
    eye = np.eye(d, dtype=complex)
    for m in range(1, d + 1):
        aux = mat @ aux + coeffs[-1] * eye
        coeffs.append(float((-np.trace(mat @ aux) / m).real))
    return np.array(coeffs)


def pinv_decell(mat, rank: int) -> np.ndarray:
    """Pseudoinverse from the characteristic polynomial of A A*.

    With a_0..a_d the coefficients of det(A A* - lam I) in the convention of
    char_poly_coeffs and r = rank(A):

        A+ = -(1/a_r) A* (a_0 (A A*)^(r-1) + a_1 (A A*)^(r-2) + .. + a_(r-1) I)

    The zero matrix (rank 0) maps to the zero matrix by convention.  Raises
    IllConditionedError when |a_r| is negligible next to max_j |a_j|;
    pinv_svd has no such restriction.
    """
    mat = _as_matrix(mat)
    rows, cols = mat.shape
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0 or rank > min(rows, cols):
        raise ValueError(f"rank must be an integer in [0, {min(rows, cols)}]")
    if rank == 0:
        return np.zeros((cols, rows), dtype=complex)
    gram = mat @ mat.conj().T
    coeffs = char_poly_coeffs(gram)
    if abs(coeffs[rank]) < DECELL_COEFF_FLOOR * float(np.abs(coeffs).max()):
        raise IllConditionedError(
            f"trailing coefficient a_{rank} = {coeffs[rank]:.3e} is numerically zero")
    eye = np.eye(rows, dtype=complex)
    acc = coeffs[0] * eye
    for i in range(1, rank):
        acc = acc @ gram + coeffs[i] * eye
    return (-1.0 / coeffs[rank]) * (mat.conj().T @ acc)
