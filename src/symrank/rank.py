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

import numpy as np

from .operators import Operator, _column_count, _real_stack
from .pinv import (_BLOCK, DEFAULT_TOL, _blockwise, _check_int, _check_tol, _held_entries,
                   _projectors, _ranks, _refuse_beyond_memory, _spectral_norms, numerical_rank,
                   pinv_svd)

# refinement target for drop directions, radians
ANGULAR_RESOLUTION = 1e-3
# a witness pairs a drop direction with a full-rank direction this close
WITNESS_MAX_ANGLE = 0.1
_MAX_BISECTIONS = 64
# a random row shorter than this is drawn again before it is normalised
_MIN_NORM = 1e-8


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
    the two axes again, so they are left out.  The rows are those of the
    stream rank_profile sweeps (_sample_blocks), each block copied into the
    output as it is drawn, so only the output and one block are held.
    """
    stream = _sample_blocks(n, num_random, seed)
    structured = next(stream)
    out = np.empty((len(structured) + num_random, n))
    out[:len(structured)] = structured
    for start, block in _offsets(stream, len(structured)):
        out[start:start + len(block)] = block
    return out


def _check_samples(n: int, count: int, name: str = "num_random") -> None:
    """Raise ValueError, naming count as name, unless count is an integer (_check_int) >= n + 1.

    A sweep in n variables draws at least n + 1 random directions; every
    caller that takes such a count, the CLI included, checks it here.
    """
    if _check_int(count, name, None) < n + 1:
        raise ValueError(f"need {name} >= n + 1 = {n + 1}")


def _sample_blocks(n: int, num_random: int, seed: int):
    """sphere_samples' rows as a stream: the structured rows, then blocks of pinv._BLOCK random rows.

    Every block is a fresh array, drawn from one generator seeded with seed
    (so the blocks are the stream of one draw of all the rows), divided by
    its row norms and yielded before the next is drawn.  A row of norm below
    _MIN_NORM, which essentially never occurs, is redrawn within its block,
    right after the block's draw, in index order, so only a sweep with such
    a row differs from one draw of every row.  Raises ValueError unless n
    and num_random are integers (_check_int), n >= 1 and num_random >= n +
    1, at the first row.
    """
    _check_int(n, "n")
    _check_samples(n, num_random)
    structured = np.zeros((2 * n + (2 ** n if n >= 2 else 0), n))
    index = np.arange(n)
    structured[2 * index, index] = 1.0
    structured[2 * index + 1, index] = -1.0
    if n >= 2:
        # sign vector t has -1 where t, written in n binary digits, has a 1: the order
        # of itertools.product((1.0, -1.0), repeat=n), filled a column at a time so
        # that no temporary grows with n 2^n
        signs = structured[2 * n:]
        rows = np.arange(2 ** n)
        for j in range(n):
            signs[:, j] = 1.0 - 2.0 * ((rows >> (n - 1 - j)) & 1)
        signs /= np.sqrt(n)
    yield structured
    rng = np.random.default_rng(seed)
    for start in range(0, num_random, _BLOCK):
        block = rng.standard_normal((min(_BLOCK, num_random - start), n))
        norms = _row_norms(block)
        while norms.min() < _MIN_NORM:  # essentially never; keeps normalization safe
            bad = np.flatnonzero(norms < _MIN_NORM)
            block[bad] = rng.standard_normal((len(bad), n))
            norms[bad] = _row_norms(block[bad])
        block /= norms[:, None]
        yield block


def _offsets(stream, start: int = 0):
    """(start, rows) for every array of rows in stream, start the index of its first row."""
    for rows in stream:
        yield start, rows
        start += len(rows)


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


def _rank_dtype(op: Operator) -> np.dtype:
    """The smallest unsigned integer type that holds every rank of op's symbol."""
    return np.min_scalar_type(min(op.dim_v, op.dim_w))


def _refuse_oversized_sweep(op: Operator, num_samples: int, lows: int | None = None) -> None:
    """Raise MemoryError when a rank_profile sweep cannot fit in physical memory.

    The sweep streams sphere_samples' rows (_sample_blocks): 2n axes and
    2^n sign vectors for n >= 2, held throughout, then num_samples random
    ones, one block of pinv._BLOCK rows at a time.  It holds a rank per
    direction, one byte for every symbol with at most 255 columns or rows
    (_rank_dtype), and lows low-rank rows, each with its nearest full-rank
    row and score, 2n + 1 doubles (the structured rows when lows is None,
    which is what a sweep that is not replayed pairs).  The rest is the
    most of two phases.  The stream holds one block's rows, or all the
    structured rows, which are ranked and scored as one block, and the most
    of four steps per row: drawing (the block before, the norms and a
    column of squares); building the real symbol M (its monomials,
    operators._column_count, and M); ranking M (M, the ranks and what a
    values-only pinv pass holds, pinv._held_entries); and pairing (scores,
    a clipped copy, masks: at most drawing's n + 2).  Bisection steps up to
    pinv._BLOCK low-rank rows together, their ends shrunk in place: each
    row's midpoint, the drop and neighbour it may leave, its index and a
    flag, and the larger of building and ranking the midpoints.  Before the
    stream, three columns of 2^n sign bits are held.  The check runs before
    anything is allocated, so a sweep too large for the machine is refused
    instead of being killed part way; a replayed sweep (rank_profile) runs
    it again with its count of low-rank rows before it gathers them.
    """
    signs = 2 ** op.n if op.n >= 2 else 0
    structured = 2 * op.n + signs
    count = structured + num_samples
    lows = structured if lows is None else lows
    entries = op.dim_w * op.dim_v
    build = _column_count(op.alpha_array) + entries

    def ranking(rows):
        return entries + 1 + _held_entries(op.dim_w, op.dim_v, rows)

    # the structured rows are ranked and scored in one stack, each random block in another
    block, steps = max(structured, min(num_samples, _BLOCK)), min(lows, _BLOCK)
    stream = block * (op.n + max(op.n + 2, build, ranking(block)))
    bisection = steps * (3 * op.n + 2 + max(build, ranking(steps))) if steps else 0
    _refuse_beyond_memory(
        lambda: _rank_dtype(op).itemsize * count + 8 * (
            structured * op.n + lows * (2 * op.n + 1) + max(3 * signs, stream, bisection)),
        f"{op.name}: a sphere sweep of {count} directions in {op.n} dimensions",
        "for the directions and their symbols")


@dataclass(frozen=True)
class RankProfile:
    """Sampled rank landscape of a symbol on the unit sphere.

    ranks holds the rank at every row of sphere_samples(n, num_samples,
    seed), in the smallest unsigned type that holds them (one byte for every
    symbol with at most 255 rows or columns); the rows themselves are not
    kept, since sphere_samples gives them again.  drop_neighbors holds, for
    each drop direction, the full-rank end of that drop's final bisection
    bracket.
    """

    operator: str
    ranks: np.ndarray
    tolerance: float
    min_rank: int
    max_rank: int
    verdict: Verdict
    drop_directions: tuple[np.ndarray, ...]
    drop_neighbors: tuple[np.ndarray, ...]

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
    The sweep streams sphere_samples' rows (_sample_blocks): the structured
    rows are ranked first, then each block of pinv._BLOCK random rows is
    drawn, ranked into one byte-sized ranks array and dropped, so besides
    one block's working set only the ranks and the structured rows are
    held.  The structured rows below their own maximum rank are paired with
    their nearest full-rank rows as the blocks stream past (_Nearest).
    When a random row ranks below the maximum, or the maximum is first
    reached by a random row, the pairs are taken on a replay of the draw
    from the seed (_replayed_pairs), which gives the same rows.  All
    bisections advance in lockstep (_bisect).  Every output is bitwise that
    of one block spanning the whole sweep and of one bisection at a time.
    Raises ValueError for num_samples < n + 1 before the sweep is sized,
    and MemoryError before sampling when that would exceed physical
    memory (2^n sign vectors make that so for large n), and again before a
    replay when its low-rank rows would (_refuse_oversized_sweep).
    """
    _check_tol(tol)
    _check_samples(op.n, num_samples, "num_samples")
    _refuse_oversized_sweep(op, num_samples)
    stream = _sample_blocks(op.n, num_samples, seed)
    structured = next(stream)
    head = len(structured)
    ranks = np.empty(head + num_samples, dtype=_rank_dtype(op))
    ranks[:head] = numerical_rank(_real_stack(op, structured), tol)
    top = ranks[:head].max()
    low = ranks[:head] < top
    nearest = _Nearest(structured[low])
    nearest.score(structured, low)
    streamed = True
    for start, block in _offsets(stream, head):
        block_ranks = ranks[start:start + len(block)]
        block_ranks[...] = numerical_rank(_real_stack(op, block), tol)
        streamed = streamed and bool((block_ranks == top).all())
        if streamed:
            nearest.score(block, block_ranks < top)
    min_rank = int(ranks.min())
    max_rank = int(ranks.max())
    drops: list[np.ndarray] = []
    neighbors: list[np.ndarray] = []
    if min_rank == max_rank:
        verdict = Verdict.ELLIPTIC if max_rank == op.dim_v else Verdict.CONSTANT_RANK
    else:
        verdict = Verdict.NON_CONSTANT_RANK
        if not streamed:
            nearest = _replayed_pairs(op, num_samples, seed, ranks, max_rank)
        drops, neighbors = _bisect(op, nearest, max_rank, tol)
    order = sorted(range(len(drops)), key=lambda i: tuple(drops[i]))
    return RankProfile(
        operator=op.name,
        ranks=ranks,
        tolerance=tol,
        min_rank=min_rank,
        max_rank=max_rank,
        verdict=verdict,
        drop_directions=tuple(drops[i] for i in order),
        drop_neighbors=tuple(neighbors[i] for i in order),
    )


class _Nearest:
    """Low-rank rows, each with its nearest full-rank row among the rows scored so far.

    score takes the rows of the sweep in their order, one block of the
    stream (or the structured rows) at a time, a mask of those that are
    not full-rank beside them.  Each low-rank row's dot products with them
    are clipped at 1, so a product rounded past 1 ties at 1; the largest is
    kept, the first of ties.
    """

    def __init__(self, lows: np.ndarray):
        self.lows = lows
        self.highs = np.empty_like(lows)
        self.scores = np.full(len(lows), -np.inf)

    def score(self, rows: np.ndarray, rest: np.ndarray) -> None:
        for i, low in enumerate(self.lows):
            dots = np.minimum(rows @ low, 1.0)
            dots[rest] = -np.inf
            index = int(np.argmax(dots))
            if dots[index] > self.scores[i]:
                self.scores[i], self.highs[i] = dots[index], rows[index]


def _replayed_pairs(op: Operator, num_samples: int, seed: int, ranks: np.ndarray,
                    max_rank: int) -> _Nearest:
    """Every row of rank below max_rank, paired with its nearest row of rank max_rank.

    The rows are drawn again from the seed (_sample_blocks), the same bits
    as the sweep's: once to gather the low-rank rows, after
    _refuse_oversized_sweep has counted them, and once to score them.
    """
    low = ranks < max_rank
    count = int(np.count_nonzero(low))
    _refuse_oversized_sweep(op, num_samples, count)
    lows = np.empty((count, op.n))
    filled = 0
    for start, rows in _offsets(_sample_blocks(op.n, num_samples, seed)):
        picked = rows[low[start:start + len(rows)]]
        lows[filled:filled + len(picked)] = picked
        filled += len(picked)
    nearest = _Nearest(lows)
    for start, rows in _offsets(_sample_blocks(op.n, num_samples, seed)):
        nearest.score(rows, low[start:start + len(rows)])
    return nearest


def _bisect(op: Operator, nearest: _Nearest, max_rank: int,
            tol: float) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Every low-rank row bisected toward its nearest full-rank row: the distinct drops, neighbours.

    Up to pinv._BLOCK bisections advance together, shrinking nearest's
    pairs in place, their midpoints in one (rows, n) array: every step
    ranks the midpoints of the pairs still further apart than
    ANGULAR_RESOLUTION in one numerical_rank stack (a matrix ranks the same
    anywhere in a stack), for at most _MAX_BISECTIONS steps, and each
    midpoint replaces the end whose side of max_rank it ranks on.  The low
    end becomes a drop unless it lies within ANGULAR_RESOLUTION of a drop
    found before it, in the order of the rows; its neighbour is the
    full-rank end of its final bracket.
    """
    drops: list[np.ndarray] = []
    neighbors: list[np.ndarray] = []
    mids = np.empty((min(len(nearest.lows), _BLOCK), op.n))
    for start in range(0, len(nearest.lows), _BLOCK):
        lows = nearest.lows[start:start + _BLOCK]
        highs = nearest.highs[start:start + _BLOCK]
        active = np.arange(len(lows))
        for _ in range(_MAX_BISECTIONS):
            active = active[np.fromiter(
                (angular_distance(lows[i], highs[i]) > ANGULAR_RESOLUTION for i in active),
                dtype=bool, count=len(active))]
            if not len(active):
                break
            for mid, i in zip(mids, active):
                mid[...] = slerp(lows[i], highs[i], 0.5)
            ranks = numerical_rank(_real_stack(op, mids[:len(active)]), tol)
            for mid, i, rank in zip(mids, active, ranks):
                if rank < max_rank:
                    lows[i] = mid
                else:
                    highs[i] = mid
        for low, high in zip(lows, highs):
            if any(angular_distance(low, d) <= ANGULAR_RESOLUTION for d in drops):
                continue
            drops.append(low.copy())
            neighbors.append(high.copy())
    return drops, neighbors


@dataclass(frozen=True)
class RankDropWitness:
    """Certificate that the symbol rank drops at xi_low.

    v is unit, lies in ker A(xi_low), and is orthogonal to ker A(xi_high);
    for rank(A(xi_high)) > rank(A(xi_low)) this forces

        |A+(xi_high)| >= 1 / |A(xi_high) - A(xi_low)| = dagger_lower_bound,

    which grows without bound as xi_high approaches xi_low.  tolerance is
    the rank cutoff of the profile it came from (find_rank_drop_witness),
    which daggerbound_check and build_frequency_ladder rank at; to_dict
    leaves it out, since the analyze report holds the profile's.
    """

    xi_high: np.ndarray
    xi_low: np.ndarray
    v: np.ndarray
    dagger_lower_bound: float
    rank_high: int
    rank_low: int
    tolerance: float = DEFAULT_TOL

    def to_dict(self) -> dict:
        return {
            "xi_high": [float(x) for x in self.xi_high],
            "xi_low": [float(x) for x in self.xi_low],
            "v": [[float(z.real), float(z.imag)] for z in self.v],
            "dagger_lower_bound": float(self.dagger_lower_bound),
            "rank_high": self.rank_high,
            "rank_low": self.rank_low,
        }


def find_rank_drop_witness(op: Operator, profile: RankProfile) -> RankDropWitness:
    """Extract a rank-drop certificate from a NonConstantRank profile.

    Each drop direction is paired with the full-rank end of its bracket
    (drop_neighbors) when that lies within WITNESS_MAX_ANGLE of it; xi_low
    and xi_high are the pair minimizing |A(xi_high) - A(xi_low)|, ties
    broken by angular distance and then lexicographic order.  The gaps of
    all pairs are the largest singular values of one stack of real
    differences M(xi_high) - M(xi_low).  The ranks and kernel projectors of
    M(xi_low) and M(xi_high) come from one decomposition of the pair
    (pinv._blockwise).  The columns of the kernel projector of M(xi_low)
    span its kernel; v is the column with the largest part off ker
    A(xi_high), that part normalized.  Every rank here is at
    profile.tolerance, which the witness keeps.
    """
    if profile.operator != op.name:
        raise ValueError(f"profile was built for {profile.operator!r}, not {op.name!r}")
    if profile.verdict is not Verdict.NON_CONSTANT_RANK:
        raise NoRankDropError(f"{op.name}: verdict is {profile.verdict.value}, no rank drop")
    pairs = [(low, high) for low, high in zip(profile.drop_directions, profile.drop_neighbors)
             if angular_distance(low, high) <= WITNESS_MAX_ANGLE]
    if not pairs:
        raise DegenerateWitnessError(f"{op.name}: no full-rank direction near any drop direction")
    lows, highs = (np.array(side) for side in zip(*pairs))
    gaps = _spectral_norms(_real_stack(op, highs) - _real_stack(op, lows))
    best = min(range(len(pairs)), key=lambda c: (gaps[c], angular_distance(*pairs[c]),
                                                 tuple(pairs[c][0]), tuple(pairs[c][1])))
    low, high = pairs[best]
    tol = profile.tolerance
    ranks, (proj_low, proj_high) = _blockwise(_real_stack(op, [low, high]), _ranks(tol),
                                              _projectors(op.dim_v, tol))
    rank_low, rank_high = ranks.tolist()
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
        tolerance=tol,
    )


def daggerbound_check(op: Operator, witness: RankDropWitness) -> dict:
    """Check |A+(xi_high)| >= dagger_lower_bound on a witness: the report's {"lhs", "rhs", "holds"}.

    The pseudoinverse is taken at witness.tolerance.  The inequality is
    only claimed when rank_high > rank_low; a witness with equal ranks
    makes the check vacuous (holds is returned True without asserting
    anything).
    """
    dagger = pinv_svd(_real_stack(op, [witness.xi_high])[0], witness.tolerance)
    lhs = float(_spectral_norms(dagger))  # |A+| = |M+|, its largest singular value
    rhs = witness.dagger_lower_bound
    applies = witness.rank_high > witness.rank_low
    return {"lhs": lhs, "rhs": rhs, "holds": (not applies) or lhs >= rhs * (1.0 - 1e-8)}
