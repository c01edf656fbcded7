"""Rank behavior of operator symbols over the unit sphere.

rank_profile sweeps a deterministic sample set of directions, classifies
the operator as Elliptic, ConstantRank, or NonConstantRank, and for the
last case localizes rank-drop directions by bisection and extracts a
certificate witness: a unit vector killed by the symbol at the drop
direction but visible to the adjoint at a nearby full-rank direction,
together with a lower bound forcing the pseudoinverse norm to blow up.
Every decomposition here is of the real M of A = i^k M (see
operators._real_stack) through pinv: M has the rank, kernel projector and
spectral norms of A, and |A+| = |M+|.
"""

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .operators import Operator, _real_stack
from .pinv import (_BLOCK, DEFAULT_TOL, _check_tol, _held_entries, _refuse_beyond_memory, _svd,
                   kernel_projector, numerical_rank, pinv_svd)

# refinement target for drop directions, radians
ANGULAR_RESOLUTION = 1e-3
# a witness pairs a drop direction with a full-rank direction this close
WITNESS_MAX_ANGLE = 0.1
_MAX_BISECTIONS = 64


class Verdict(str, Enum):
    ELLIPTIC = "Elliptic"
    CONSTANT_RANK = "ConstantRank"
    NON_CONSTANT_RANK = "NonConstantRank"


class NoRankDropError(ValueError):
    """Witness extraction requested for an operator without rank drops."""


class DegenerateWitnessError(ValueError):
    """No kernel vector at the drop direction survives projection off the nearby kernel."""


def angular_distance(a, b) -> float:
    """Angle in radians between two unit vectors."""
    return float(np.arccos(np.clip(np.dot(a, b), -1.0, 1.0)))


def slerp(a, b, t: float) -> np.ndarray:
    """Point at parameter t on the unit-sphere arc from a to b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    theta = angular_distance(a, b)
    if theta < 1e-14:
        return a.copy()
    out = (np.sin((1.0 - t) * theta) * a + np.sin(t * theta) * b) / np.sin(theta)
    return out / np.linalg.norm(out)


def sphere_samples(n: int, num_random: int, seed: int = 0) -> np.ndarray:
    """Deterministic unit-sphere sample set, shape (m, n).

    Contains the +-coordinate axes and every normalized +-1 sign vector
    first (axis-aligned and diagonal degeneracies live there), then
    num_random seeded gaussian directions.  For n = 1 the sign vectors are
    the two axes again, so they are left out.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if num_random < n + 1:
        raise ValueError("need num_random >= n + 1")
    structured = 2 * n + (2 ** n if n >= 2 else 0)
    out = np.zeros((structured + num_random, n))
    index = np.arange(n)
    out[2 * index, index] = 1.0
    out[2 * index + 1, index] = -1.0
    if n >= 2:
        # sign vector t has -1 where t, written in n binary digits, has a 1: the order
        # of itertools.product((1.0, -1.0), repeat=n), filled a column at a time into
        # the output so that no temporary grows with n 2^n
        signs = out[2 * n:structured]
        rows = np.arange(2 ** n)
        for j in range(n):
            signs[:, j] = 1.0 - 2.0 * ((rows >> (n - 1 - j)) & 1)
        signs /= np.sqrt(n)
    # the gaussians are drawn straight into the output, then normalised there in
    # blocks, so only the norms are held beside the directions
    randoms = out[structured:]
    rng = np.random.default_rng(seed)
    rng.standard_normal(out=randoms)
    norms = np.empty(num_random)
    for start in range(0, num_random, _BLOCK):
        norms[start:start + _BLOCK] = _row_norms(randoms[start:start + _BLOCK])
    while norms.min() < 1e-8:  # essentially never; keeps normalization safe
        bad = np.flatnonzero(norms < 1e-8)
        randoms[bad] = rng.standard_normal((len(bad), n))
        norms[bad] = _row_norms(randoms[bad])
    for start in range(0, num_random, _BLOCK):
        randoms[start:start + _BLOCK] /= norms[start:start + _BLOCK, None]
    return out


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a (m, n) array, one pass per column.

    The squares are added in column order, which is np.linalg.norm(x,
    axis=1) bit for bit for n < 8, where numpy sums the short rows in order;
    a reduction over the length-n inner axis is several times slower.
    """
    acc = x[:, 0] ** 2
    for j in range(1, x.shape[1]):
        acc += x[:, j] ** 2
    return np.sqrt(acc, out=acc)


def _refuse_oversized_sweep(op: Operator, num_samples: int) -> None:
    """Raise MemoryError when a rank_profile sweep cannot fit in physical memory.

    The sweep runs over sphere_samples' directions: 2n axes, 2^n sign
    vectors for n >= 2 and num_samples random ones, n doubles each.  While
    they are drawn it holds a norm per random direction and, one block of
    pinv._BLOCK rows at a time, two columns of squares; before that, three
    columns of 2^n sign bits.  Then it holds a rank per direction, and for a
    moment a flag per direction, so n + 2 doubles per direction in all, a
    flag counted as a whole double.  The rest is one block's working set,
    the most of three phases: building the real symbol M (_monomials' T
    monomials, a power column per exponent above 1, and M); ranking M (M,
    the ranks and what numerical_rank holds beside them, as pinv says); and
    pairing a low-rank sample with its nearest full-rank one (the scores,
    their clipped copy and a mask).  The check runs before anything is
    allocated, so a sweep too large for the machine is refused instead of
    being killed part way.
    """
    signs = 2 ** op.n if op.n >= 2 else 0
    count = 2 * op.n + signs + num_samples
    block = min(count, _BLOCK)
    entries = op.dim_w * op.dim_v
    powers = len(op.alpha_array) + int(np.maximum(op.alpha_array.max(axis=0) - 1, 0).sum())
    build = powers + entries
    ranking = entries + 1 + _held_entries(numerical_rank, op.dim_w, op.dim_v, block)
    pairing = 3
    sampling = max(3 * signs, num_samples + 2 * min(num_samples, _BLOCK))
    _refuse_beyond_memory(
        lambda: 8 * (count * op.n + max(sampling, 2 * count,
                                        count + block * max(build, ranking, pairing))),
        f"{op.name}: a sphere sweep of {count} directions in {op.n} dimensions",
        "for the directions and their symbols")


@dataclass(frozen=True)
class RankProfile:
    """Sampled rank landscape of a symbol on the unit sphere."""

    operator: str
    directions: np.ndarray
    ranks: np.ndarray
    tolerance: float
    min_rank: int
    max_rank: int
    verdict: Verdict
    drop_directions: tuple[np.ndarray, ...]
    # per drop direction: nearby full-rank directions seen during bisection
    drop_neighbors: tuple[tuple[np.ndarray, ...], ...]

    def to_dict(self) -> dict:
        return {
            "operator": self.operator,
            "verdict": self.verdict.value,
            "min_rank": self.min_rank,
            "max_rank": self.max_rank,
            "tolerance": self.tolerance,
            "sample_count": int(len(self.ranks)),
            "drop_directions": [[float(x) for x in d] for d in self.drop_directions],
        }


def rank_profile(op: Operator, num_samples: int = 1024, tol: float = DEFAULT_TOL,
                 seed: int = 0) -> RankProfile:
    """Classify the symbol's rank behavior over the sphere.

    num_samples seeded random directions are swept on top of the built-in
    structured directions.  When ranks differ, each low-rank sample is
    refined by bisection toward its nearest full-rank sample until the
    drop direction is localized to ANGULAR_RESOLUTION radians.  The
    verdict for equal ranks is sampling-based, not a certificate; the
    NonConstantRank verdict is certified by the returned drop directions.
    Ranks are taken of the real M of A = i^k M, which has the rank of A.
    The sweep runs in blocks of pinv._BLOCK directions: M is built and
    ranked one block at a time into one ranks array, and a low-rank sample
    finds its nearest full-rank sample block by block (_nearest_full_rank),
    so besides one block's working set only the directions, the ranks and a
    flag per direction are held; every output is bitwise that of one block
    spanning the whole sweep.  Raises MemoryError before sampling when that
    would exceed physical memory (2^n sign vectors make that so for large
    n).
    """
    _check_tol(tol)
    _refuse_oversized_sweep(op, num_samples)
    directions = sphere_samples(op.n, num_samples, seed)
    ranks = np.empty(len(directions), dtype=np.intp)
    for start in range(0, len(directions), _BLOCK):
        block = directions[start:start + _BLOCK]
        ranks[start:start + len(block)] = numerical_rank(_real_stack(op, block), tol)
    min_rank = int(ranks.min())
    max_rank = int(ranks.max())
    drops: list[np.ndarray] = []
    neighbors: list[tuple[np.ndarray, ...]] = []
    if min_rank == max_rank:
        verdict = Verdict.ELLIPTIC if max_rank == op.dim_v else Verdict.CONSTANT_RANK
    else:
        verdict = Verdict.NON_CONSTANT_RANK
        for i in np.flatnonzero(ranks < max_rank):
            lo = directions[i]
            hi = _nearest_full_rank(directions, ranks, max_rank, lo)
            seen_high = [hi]
            for _ in range(_MAX_BISECTIONS):
                if angular_distance(lo, hi) <= ANGULAR_RESOLUTION:
                    break
                mid = slerp(lo, hi, 0.5)
                if numerical_rank(_real_stack(op, [mid])[0], tol) < max_rank:
                    lo = mid
                else:
                    hi = mid
                    seen_high.append(hi)
            if any(angular_distance(lo, d) <= ANGULAR_RESOLUTION for d in drops):
                continue
            drops.append(lo)
            neighbors.append(tuple(seen_high))
    order = sorted(range(len(drops)), key=lambda i: tuple(drops[i]))
    return RankProfile(
        operator=op.name,
        directions=directions,
        ranks=ranks,
        tolerance=tol,
        min_rank=min_rank,
        max_rank=max_rank,
        verdict=verdict,
        drop_directions=tuple(drops[i] for i in order),
        drop_neighbors=tuple(neighbors[i] for i in order),
    )


def _nearest_full_rank(directions: np.ndarray, ranks: np.ndarray, max_rank: int,
                       low: np.ndarray) -> np.ndarray:
    """The direction of rank max_rank with the largest dot product with low, the first of ties.

    A dot product rounded past 1 ties at 1.  The directions are scored one
    block at a time, so no copy of the full-rank directions is made.
    """
    best, best_score = 0, -np.inf
    for start in range(0, len(directions), _BLOCK):
        scores = np.minimum(directions[start:start + _BLOCK] @ low, 1.0)
        scores[ranks[start:start + _BLOCK] < max_rank] = -np.inf
        index = int(np.argmax(scores))
        if scores[index] > best_score:
            best, best_score = start + index, scores[index]
    return directions[best]


@dataclass(frozen=True)
class RankDropWitness:
    """Certificate that the symbol rank drops at xi_low.

    v is unit, lies in ker A(xi_low), and is orthogonal to ker A(xi_high);
    for rank(A(xi_high)) > rank(A(xi_low)) this forces

        |A+(xi_high)| >= 1 / |A(xi_high) - A(xi_low)| = dagger_lower_bound,

    which grows without bound as xi_high approaches xi_low.
    """

    xi_high: np.ndarray
    xi_low: np.ndarray
    v: np.ndarray
    dagger_lower_bound: float
    rank_high: int
    rank_low: int

    def to_dict(self) -> dict:
        return {
            "xi_high": [float(x) for x in self.xi_high],
            "xi_low": [float(x) for x in self.xi_low],
            "v": [[float(z.real), float(z.imag)] for z in self.v],
            "dagger_lower_bound": float(self.dagger_lower_bound),
            "rank_high": self.rank_high,
            "rank_low": self.rank_low,
        }


def find_rank_drop_witness(op: Operator, profile: RankProfile,
                           tol: float = DEFAULT_TOL) -> RankDropWitness:
    """Extract a rank-drop certificate from a NonConstantRank profile.

    xi_low is a refined drop direction; xi_high is the nearby full-rank
    direction (within WITNESS_MAX_ANGLE) minimizing |A(xi_high) - A(xi_low)|
    among the refinement samples, ties broken by angular distance and then
    lexicographic order; the gaps of all candidate pairs are the largest
    singular values of one stack of real differences M(xi_high) - M(xi_low).
    The columns of the kernel projector of M(xi_low) span its kernel; v is
    the column with the largest part off ker A(xi_high), that part
    normalized.
    """
    if profile.operator != op.name:
        raise ValueError(f"profile was built for {profile.operator!r}, not {op.name!r}")
    if profile.verdict is not Verdict.NON_CONSTANT_RANK:
        raise NoRankDropError(f"{op.name}: verdict is {profile.verdict.value}, no rank drop")
    pairs = [(low, high) for low, highs in zip(profile.drop_directions, profile.drop_neighbors)
             for high in highs if angular_distance(low, high) <= WITNESS_MAX_ANGLE]
    if not pairs:
        raise DegenerateWitnessError(f"{op.name}: no full-rank direction near any drop direction")
    lows, highs = (np.array(side) for side in zip(*pairs))
    gaps = _svd(_real_stack(op, highs) - _real_stack(op, lows))[1][:, 0]
    best = min(range(len(pairs)), key=lambda c: (gaps[c], angular_distance(*pairs[c]),
                                                 tuple(pairs[c][0]), tuple(pairs[c][1])))
    low, high = pairs[best]
    mats = _real_stack(op, [low, high])
    rank_low, rank_high = numerical_rank(mats, tol).tolist()
    proj_low, proj_high = kernel_projector(mats, tol)
    visible = proj_low - proj_high @ proj_low
    norms = np.linalg.norm(visible, axis=0)
    column = int(np.argmax(norms))
    if norms[column] <= tol:
        raise DegenerateWitnessError(
            f"{op.name}: kernel of A(xi_low) is invisible to the adjoint at xi_high")
    return RankDropWitness(
        xi_high=high,
        xi_low=low,
        v=visible[:, column] / norms[column],
        dagger_lower_bound=1.0 / float(gaps[best]),
        rank_high=rank_high,
        rank_low=rank_low,
    )


class DaggerBound(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def daggerbound_check(op: Operator, witness: RankDropWitness,
                      tol: float = DEFAULT_TOL) -> DaggerBound:
    """Check |A+(xi_high)| >= dagger_lower_bound on a witness.

    The inequality is only claimed when rank_high > rank_low; a witness
    with equal ranks makes the check vacuous (holds is returned True
    without asserting anything).
    """
    dagger = pinv_svd(_real_stack(op, [witness.xi_high])[0], tol)
    lhs = float(_svd(dagger)[1][0])  # |A+| = |M+|, its largest singular value
    rhs = witness.dagger_lower_bound
    applies = witness.rank_high > witness.rank_low
    return DaggerBound(lhs=lhs, rhs=rhs, holds=(not applies) or lhs >= rhs * (1.0 - 1e-8))
