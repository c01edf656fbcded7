"""A known-answer set of scalar second-order operators, each labelled by its numerical truth.

known_answers builds 88 operators sum_ij q_ij d_i d_j from symmetric form
matrices q:
- d1^2 - c d2^2 for c = 2, 4, 1/4 and 16, and the 2+1 wave d0^2 - d1^2 -
  d2^2 in three dimensions
- zoo laplacian, d1d2 and wave
- 20 rotations R^T q R each of wave, d1d2, the Laplacian and d1^2, with
  angles uniform in [0, pi) from a generator seeded with 1

The symbol of such an operator is -xi^T q xi, a 1 x 1 matrix whose one
singular value is |xi^T q xi|, so its rank drops on the sphere at tol
exactly when min |xi^T q xi| <= tol max |xi^T q xi| there.  For these
forms, none negative definite, that is: the smallest signed eigenvalue of
q is at most tol times its largest absolute eigenvalue.  The label is
taken of the q the operator holds, its coefficients as stored in floats,
not of the form it was built from: a rotated d1^2 can come out definite in
floats, with a margin of about 1e-16, and it is still labelled as a drop.
Not a test module: pytest collects only test_*.py files.
"""

import math
from typing import NamedTuple

import numpy as np

from symrank.operators import Operator
from symrank.pinv import DEFAULT_TOL
from symrank.zoo import zoo_get

ROTATIONS = 20
ROTATION_SEED = 1


class KnownAnswer(NamedTuple):
    """An operator, whether its rank drops at tol, and the margin lambda_min / max |lambda| of q."""

    operator: Operator
    drops: bool
    margin: float


def form_operator(name: str, q: np.ndarray) -> Operator:
    """sum_ij q_ij d_i d_j for a symmetric n x n matrix q, read from its upper triangle."""
    n = len(q)
    terms = []
    for i in range(n):
        for j in range(i, n):
            coefficient = float(q[i, i] if i == j else 2.0 * q[i, j])
            if coefficient:
                alpha = [0] * n
                alpha[i] += 1
                alpha[j] += 1
                terms.append((tuple(alpha), ((coefficient,),)))
    return Operator(name=name, n=n, k=2, dim_v=1, dim_w=1, terms=tuple(terms))


def form_matrix(op: Operator) -> np.ndarray:
    """The symmetric matrix q of a scalar second-order operator, as its coefficients hold it."""
    q = np.zeros((op.n, op.n))
    for alpha, ((coefficient,),) in op.terms:
        i, j = np.repeat(np.arange(op.n), alpha)
        q[i, j] = q[j, i] = coefficient if i == j else coefficient / 2.0
    return q


def known_answer(op: Operator, tol: float = DEFAULT_TOL) -> KnownAnswer:
    """op with its label: its rank drops iff lambda_min(q) <= tol * max |lambda(q)|."""
    eigenvalues = np.linalg.eigvalsh(form_matrix(op))
    margin = float(eigenvalues[0] / np.abs(eigenvalues).max())
    return KnownAnswer(op, margin <= tol, margin)


def known_answers(tol: float = DEFAULT_TOL) -> list[KnownAnswer]:
    """The 88 operators of the set, in a fixed order, each labelled at tol."""
    forms = [(f"d1^2-{c:g}d2^2", np.diag([1.0, -c])) for c in (2.0, 4.0, 0.25, 16.0)]
    forms.append(("wave2+1", np.diag([1.0, -1.0, -1.0])))
    bases = [(name, form_matrix(zoo_get(name))) for name in ("wave", "d1d2", "laplacian")]
    angles = np.random.default_rng(ROTATION_SEED).uniform(0.0, math.pi, ROTATIONS)
    operators = [form_operator(name, q) for name, q in forms]
    operators += [zoo_get(name) for name in ("laplacian", "d1d2", "wave")]
    for name, q in bases + [("d1^2", np.diag([1.0, 0.0]))]:
        for index, angle in enumerate(angles):
            rotation = np.array([[math.cos(angle), -math.sin(angle)],
                                 [math.sin(angle), math.cos(angle)]])
            operators.append(form_operator(f"{name}@{index}", rotation.T @ q @ rotation))
    return [known_answer(op, tol) for op in operators]
