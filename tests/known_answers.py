"""Known-answer sets of operators, each labelled by its numerical truth.

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

known_systems builds 200 first-order systems A1 d1 + A2 d2 of 2 x 2 real
matrices with gaussian entries from a generator seeded with 11, A1 then A2
for each system.  det(A1 xi1 + A2 xi2) = a xi1^2 + b xi1 xi2 + c xi2^2,
so the symbol is singular at a real direction exactly when the
discriminant b^2 - 4ac is at least 0; a system is labelled by its sign,
with the relative margin (b^2 - 4ac) / (b^2 + |4ac|), and none at seed 11
lies within 1e-6 of zero.
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
SYSTEMS = 200
SYSTEM_SEED = 11
# the relative discriminant margin within which a system's label is not trusted
SYSTEM_MARGIN = 1e-6


class KnownAnswer(NamedTuple):
    """An operator, whether its rank drops, and the relative margin of that label.

    For a form, lambda_min / max |lambda| of q, a drop at tol; for a system,
    (b^2 - 4ac) / (b^2 + |4ac|), a drop above zero.
    """

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


def system_operator(name: str, a1: np.ndarray, a2: np.ndarray) -> Operator:
    """The first-order system A1 d1 + A2 d2 of two 2 x 2 matrices."""
    terms = tuple((alpha, tuple(map(tuple, matrix.tolist())))
                  for alpha, matrix in (((1, 0), a1), ((0, 1), a2)))
    return Operator(name=name, n=2, k=1, dim_v=2, dim_w=2, terms=terms)


def system_margin(a1: np.ndarray, a2: np.ndarray) -> float:
    """(b^2 - 4ac) / (b^2 + |4ac|) of det(A1 xi1 + A2 xi2) = a xi1^2 + b xi1 xi2 + c xi2^2.

    0 where the determinant vanishes identically (a = b = c = 0).
    """
    a, c = float(np.linalg.det(a1)), float(np.linalg.det(a2))
    b = float(a1[0, 0] * a2[1, 1] + a2[0, 0] * a1[1, 1] - a1[0, 1] * a2[1, 0] - a2[0, 1] * a1[1, 0])
    scale = b * b + abs(4 * a * c)
    return (b * b - 4 * a * c) / scale if scale else 0.0


def known_systems() -> list[KnownAnswer]:
    """The 200 systems of the set, in a fixed order, each labelled by its discriminant's sign."""
    rng = np.random.default_rng(SYSTEM_SEED)
    answers = []
    for index in range(SYSTEMS):
        a1, a2 = rng.standard_normal((2, 2, 2))
        margin = system_margin(a1, a2)
        answers.append(KnownAnswer(system_operator(f"system@{index}", a1, a2), margin > 0, margin))
    return answers
