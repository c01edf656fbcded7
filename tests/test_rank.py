import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symrank import pinv, rank
from symrank.operators import Operator, _real_stack, multi_indices, parse_operator, symbol
from symrank.pinv import kernel_projector, numerical_rank, pinv_svd
from symrank.rank import (ANGULAR_RESOLUTION, DegenerateWitnessError, NoRankDropError,
                          RankDropWitness, Verdict, angular_distance, daggerbound_check,
                          find_rank_drop_witness, rank_profile, slerp, sphere_samples)
from symrank.zoo import zoo_get, zoo_list

from known_answers import (SYSTEM_MARGIN, known_answers, known_systems, system_margin,
                           system_operator)


def operator_norm(mat):
    return float(np.linalg.svd(mat, compute_uv=False)[0])


# ------------------------------------------------------------------ geometry

def test_angular_distance_oracle():
    e1, e2 = np.eye(2)
    assert math.isclose(angular_distance(e1, e2), math.pi / 2)
    assert angular_distance(e1, e1) == 0.0
    assert math.isclose(angular_distance(e1, -e1), math.pi)


def test_slerp_endpoints_and_midpoint():
    e1, e2 = np.eye(2)
    assert np.allclose(slerp(e1, e2, 0.0), e1)
    assert np.allclose(slerp(e1, e2, 1.0), e2)
    assert np.allclose(slerp(e1, e2, 0.5), [1 / math.sqrt(2), 1 / math.sqrt(2)])
    # an arc of no length is its start point, whatever t, and a copy of it
    for t in (0.0, 0.5, 1.0):
        point = slerp(e1, e1, t)
        assert point.tobytes() == e1.tobytes() and point is not e1


@given(st.integers(2, 4), st.floats(0.0, 1.0), st.integers(0, 2 ** 31))
@settings(max_examples=40)
def test_slerp_stays_on_sphere_and_between(n, t, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    a /= np.linalg.norm(a)
    b = rng.standard_normal(n)
    b /= np.linalg.norm(b)
    p = slerp(a, b, t)
    assert math.isclose(float(np.linalg.norm(p)), 1.0, abs_tol=1e-12)
    theta = angular_distance(a, b)
    # interpolation splits the arc proportionally
    assert math.isclose(angular_distance(a, p), t * theta, abs_tol=1e-6)


def test_sphere_samples_structure():
    pts = sphere_samples(3, 16, seed=0)
    norms = np.linalg.norm(pts, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    # +-axes and +-1 diagonals always present
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1.0
        assert any(np.allclose(p, e) for p in pts)
        assert any(np.allclose(p, -e) for p in pts)
    diag = np.ones(3) / math.sqrt(3)
    assert any(np.allclose(p, diag) for p in pts)
    assert len(pts) == 6 + 8 + 16
    assert np.array_equal(pts, sphere_samples(3, 16, seed=0))
    assert not np.array_equal(pts[-16:], sphere_samples(3, 16, seed=1)[-16:])


def test_sphere_samples_n1_dedupes():
    pts = sphere_samples(1, 4, seed=0)
    assert set(np.sign(pts[:, 0])) == {1.0, -1.0}
    assert np.allclose(np.abs(pts), 1.0)


@pytest.mark.parametrize("n", range(2, 7))
def test_sphere_samples_lead_with_axes_then_sign_vectors(n):
    structured = sphere_samples(n, n + 1, seed=0)[:2 * n + 2 ** n]
    axes = np.zeros((2 * n, n))
    for j in range(n):
        axes[2 * j, j], axes[2 * j + 1, j] = 1.0, -1.0
    # row i of the sign block has -1 where i, written in n binary digits, has a 1
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    signs = (1.0 - 2.0 * bits) / np.sqrt(n)
    np.testing.assert_array_equal(structured, np.vstack([axes, signs]))
    assert len(np.unique(structured, axis=0)) == len(structured)
    # byte for byte the directions of one array per itertools.product sign vector
    reference = [np.array(v) / np.sqrt(n) for v in itertools.product((1.0, -1.0), repeat=n)]
    assert structured.tobytes() == np.vstack([axes] + reference).tobytes()


def test_sphere_samples_validation():
    with pytest.raises(ValueError, match="num_random"):
        sphere_samples(3, 2)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), extra=st.integers(0, 300), seed=st.integers(0, 2 ** 32 - 1))
def test_sphere_samples_divide_the_draw_by_its_numpy_norms(n, extra, seed):
    # the norms are summed one column at a time, which for rows shorter than 8
    # is numpy's own order, so every direction keeps np.linalg.norm's bits
    num_random = n + 1 + extra
    draw = np.random.default_rng(seed).standard_normal((num_random, n))
    expected = draw / np.linalg.norm(draw, axis=1)[:, None]
    assert sphere_samples(n, num_random, seed)[-num_random:].tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("count", [pinv._BLOCK - 1, pinv._BLOCK, 3 * pinv._BLOCK + 5],
                         ids=["block-1", "block", "3block+5"])
def test_sphere_samples_are_the_stream_of_one_draw(n, count):
    # the sweep's stream, a block of random rows at a time, concatenates to
    # sphere_samples, whose random rows are one draw divided by its numpy norms
    blocks = list(rank._sample_blocks(n, count, 7))
    assert [len(b) for b in blocks[1:]] == [min(pinv._BLOCK, count - start)
                                            for start in range(0, count, pinv._BLOCK)]
    samples = sphere_samples(n, count, 7)
    assert np.concatenate(blocks).tobytes() == samples.tobytes()
    draw = np.random.default_rng(7).standard_normal((count, n))
    expected = draw / np.linalg.norm(draw, axis=1)[:, None]
    assert samples[len(blocks[0]):].tobytes() == expected.tobytes()


def test_a_short_row_is_redrawn_within_its_block(monkeypatch):
    # with the threshold raised to 1, about 4 in 10 gaussian rows in 2-D are too
    # short; each is drawn again right after its block, in index order, so
    # the next block's draw starts after the redraws
    monkeypatch.setattr(rank, "_MIN_NORM", 1.0)
    n, sizes, seed = 2, (pinv._BLOCK, pinv._BLOCK, 5), 11
    rng = np.random.default_rng(seed)
    expected = []
    for size in sizes:
        rows = rng.standard_normal((size, n))
        while (np.linalg.norm(rows, axis=1) < 1.0).any():
            bad = np.flatnonzero(np.linalg.norm(rows, axis=1) < 1.0)
            rows[bad] = rng.standard_normal((len(bad), n))
        expected.append(rows / np.linalg.norm(rows, axis=1)[:, None])
    samples = sphere_samples(n, sum(sizes), seed)[2 * n + 2 ** n:]
    assert samples.tobytes() == np.concatenate(expected).tobytes()
    assert np.linalg.norm(samples, axis=1).min() > 1.0 - 1e-12
    monkeypatch.undo()
    # the first block's rows that were long enough keep their bits
    unpatched = sphere_samples(n, sum(sizes), seed)[2 * n + 2 ** n:]
    kept = np.linalg.norm(np.random.default_rng(seed).standard_normal((sizes[0], n)), axis=1) >= 1
    assert unpatched[:sizes[0]][kept].tobytes() == samples[:sizes[0]][kept].tobytes()
    assert not np.array_equal(unpatched, samples)


def sweep_estimate(monkeypatch, op, num_samples, lows=None):
    """The bytes _refuse_oversized_sweep asks physical memory for."""
    estimates = []
    with monkeypatch.context() as patch:
        patch.setattr(rank, "_refuse_beyond_memory", lambda needed, *_: estimates.append(needed()))
        rank._refuse_oversized_sweep(op, num_samples, lows)
    return estimates[0]


def test_sweep_beyond_physical_memory_is_refused(monkeypatch):
    # 2^40 sign vectors are refused before a direction is drawn
    op = Operator("x40", 40, 1, 1, 1, (((1,) + (0,) * 39, ((1.0,),)),))
    with pytest.raises(MemoryError, match="sphere sweep of 1099511628880 directions"):
        rank_profile(op)
    # too few random directions is an argument error, raised before the sweep is sized
    with pytest.raises(ValueError, match=r"need num_samples >= n \+ 1 = 41"):
        rank_profile(op, num_samples=1)
    # a machine with exactly the estimate runs the sweep; one byte less refuses it
    curl = zoo_get("curl")
    needed = sweep_estimate(monkeypatch, curl, 64)
    monkeypatch.setattr(pinv, "_physical_memory", lambda: needed)
    assert rank_profile(curl, num_samples=64).verdict is Verdict.CONSTANT_RANK
    monkeypatch.setattr(pinv, "_physical_memory", lambda: needed - 1)
    with pytest.raises(MemoryError, match="sphere sweep of 78 directions"):
        rank_profile(curl, num_samples=64)


def test_sweep_estimate_counts_powers_beyond_int64_sums(monkeypatch):
    # two axes of powers up to 2^62 + 5 sum past int64: that sum wrapped negative, the
    # sweep was not refused, and _column_monomials began a loop of about 2^62 steps
    k = 2 ** 62 + 5
    op = Operator("huge", 3, k, 1, 1, (((k, 0, 0), ((1.0,),)), ((0, k, 0), ((1.0,),))))
    # at least a power column per exponent above 1, on each axis, for one block of rows
    assert sweep_estimate(monkeypatch, op, 1024) >= 8 * 1024 * 2 * (k - 1)


# many terms with high powers, where building the symbols is the peak, and
# many variables, where drawing the directions is
HEXIC = Operator("hexic", 2, 6, 1, 1, tuple((alpha, ((1.0,),)) for alpha in multi_indices(2, 6)))
SQUARES = Operator("squares", 8, 2, 1, 1,
                   tuple((tuple(2 * (i == j) for i in range(8)), ((1.0,),)) for j in range(8)))


@pytest.mark.parametrize("op", [entry.build() for entry in zoo_list()] + [HEXIC, SQUARES],
                         ids=lambda op: op.name)
def test_sweep_memory_estimate_covers_its_peak(monkeypatch, op):
    # on 60000 random directions, the fixed costs the estimate leaves out (Python
    # objects, numpy's iteration buffers) stay under 64 KiB, less than a byte
    # per direction, so a double the estimate misses per direction shows
    num_samples = 60000
    rank_profile(op, num_samples=num_samples)
    tracemalloc.start()
    try:
        rank_profile(op, num_samples=num_samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sweep_estimate(monkeypatch, op, num_samples) + 2 ** 16


BENCH_OPERATORS = Path(__file__).resolve().parent.parent / "bench" / "operators"


def named_operator(name):
    """A zoo operator, or the operator document of that name in bench/operators."""
    path = BENCH_OPERATORS / f"{name}.json"
    return parse_operator(path.read_text()) if path.exists() else zoo_get(name)


def sweep_peak(op, num_samples):
    rank_profile(op, num_samples=num_samples)
    tracemalloc.start()
    try:
        rank_profile(op, num_samples=num_samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["curl", "d1d2", "wave", "laplacian3"])
def test_sweep_holds_one_byte_per_direction(name):
    # the sweep keeps a one-byte rank per direction; the directions, their
    # symbols, singular values and pairing scores live one block at a time
    op = named_operator(name)
    growth = sweep_peak(op, 120000) - sweep_peak(op, 60000)
    assert growth <= 60000 * 1 + 2 ** 14


@pytest.mark.parametrize("name", ["d1d2", "laplacian3"])
def test_sweep_memory_estimate_covers_its_peak_at_the_bench_size(monkeypatch, name):
    op = named_operator(name)
    assert sweep_peak(op, 250000) <= sweep_estimate(monkeypatch, op, 250000)


def one_shot_profile(op, num_samples, seed):
    """rank_profile with every phase over the whole sweep at once, as one block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rank, "_BLOCK", 2 ** 62)
        return rank_profile(op, num_samples=num_samples, seed=seed)


@pytest.mark.parametrize("name", ["curl", "d1d2", "wave", "rot2"])
@pytest.mark.parametrize("count", [pinv._BLOCK - 1, pinv._BLOCK, 3 * pinv._BLOCK + 5],
                         ids=["block-1", "block", "3block+5"])
def test_sweep_in_blocks_matches_the_one_shot_sweep(name, count):
    op = named_operator(name)
    num_samples = count - 2 * op.n - 2 ** op.n
    blocks, whole = rank_profile(op, num_samples, seed=5), one_shot_profile(op, num_samples, 5)
    directions = sphere_samples(op.n, num_samples, 5)
    assert len(directions) == count
    # the ranks of the whole stack, ranked in one call, in one byte each
    ranks = numerical_rank(_real_stack(op, directions))
    for profile in (blocks, whole):
        assert profile.ranks.dtype == np.uint8 and np.array_equal(profile.ranks, ranks)
    assert [d.tobytes() for d in blocks.drop_directions] == \
        [d.tobytes() for d in whole.drop_directions]
    assert [h.tobytes() for h in blocks.drop_neighbors] == \
        [h.tobytes() for h in whole.drop_neighbors]
    # the full-rank direction a low-rank sample is bisected toward: the nearest of
    # a gathered copy of the full-rank directions, the first of ties
    full = np.compress(ranks == blocks.max_rank, directions, axis=0)
    low = np.flatnonzero(ranks < blocks.max_rank)
    if len(low):
        pairs = rank._replayed_pairs(op, num_samples, 5, blocks.ranks, blocks.max_rank)
        assert pairs.lows.tobytes() == directions[low].tobytes()
        for i, paired in zip(low, pairs.highs):
            nearest = full[int(np.argmax(np.minimum(full @ directions[i], 1.0)))]
            assert paired.tobytes() == nearest.tobytes()


def one_at_a_time(op, num_samples, tol):
    """Drops and neighbours of the loop that bisects one low-rank sample at a time.

    Each low-rank sample, in index order, is paired with the nearest of a
    gathered copy of the full-rank samples (the first of ties) and bisected
    with one single-matrix rank per step; a drop within ANGULAR_RESOLUTION
    of one found before it is dropped, and a kept one's neighbour is the
    full-rank end of its final bracket.
    """
    directions = sphere_samples(op.n, num_samples, 0)
    ranks = numerical_rank(_real_stack(op, directions), tol)
    top = ranks.max()
    full = np.compress(ranks == top, directions, axis=0)
    drops, neighbors = [], []
    for i in np.flatnonzero(ranks < top):
        lo = directions[i]
        hi = full[int(np.argmax(np.minimum(full @ lo, 1.0)))]
        for _ in range(rank._MAX_BISECTIONS):
            if angular_distance(lo, hi) <= ANGULAR_RESOLUTION:
                break
            mid = slerp(lo, hi, 0.5)
            if numerical_rank(_real_stack(op, [mid])[0], tol) < top:
                lo = mid
            else:
                hi = mid
        if any(angular_distance(lo, d) <= ANGULAR_RESOLUTION for d in drops):
            continue
        drops.append(lo)
        neighbors.append(hi)
    order = sorted(range(len(drops)), key=lambda i: tuple(drops[i]))
    return [drops[i] for i in order], [neighbors[i] for i in order]


# d1^3 d2 - d1 d2^3 vanishes on the axes and the diagonals, so every structured
# direction ranks below the maximum, which a random one reaches first
CROSS = Operator("cross", 2, 4, 1, 1, (((3, 1), ((1.0,),)), ((1, 3), ((-1.0,),))))


LAP_PLUS_D1D2 = parse_operator((Path(__file__).parent / "lap_plus_d1d2.json").read_text())


@pytest.mark.parametrize("op, num_samples, tol", [
    (LAP_PLUS_D1D2, 2000, 0.3), (LAP_PLUS_D1D2, 2000, 0.05),
    (zoo_get("d1d2"), 3 * pinv._BLOCK + 5, pinv.DEFAULT_TOL),
    (zoo_get("wave"), 3 * pinv._BLOCK + 5, pinv.DEFAULT_TOL), (CROSS, 2000, pinv.DEFAULT_TOL)],
    ids=["lap_plus_d1d2-0.3", "lap_plus_d1d2-0.05", "d1d2", "wave", "cross"])
def test_lockstep_bisection_matches_one_bisection_at_a_time(op, num_samples, tol):
    # lap_plus_d1d2 has low-rank random samples and cross a maximum first reached
    # by a random sample, so both pair on a replay of the draw; d1d2 and wave
    # pair their structured drops as the blocks stream past
    profile = rank_profile(op, num_samples, tol=tol)
    drops, neighbors = one_at_a_time(op, num_samples, tol)
    assert profile.verdict is Verdict.NON_CONSTANT_RANK and drops
    assert [d.tobytes() for d in profile.drop_directions] == [d.tobytes() for d in drops]
    assert [h.tobytes() for h in profile.drop_neighbors] == [h.tobytes() for h in neighbors]


@pytest.mark.parametrize("op, tol", [(LAP_PLUS_D1D2, 0.3), (CROSS, pinv.DEFAULT_TOL)],
                         ids=["lap_plus_d1d2-0.3", "cross"])
def test_replayed_sweep_memory_estimate_covers_its_peak(monkeypatch, op, tol):
    # both pair on a replay of the draw: lap_plus_d1d2 at tol 0.3 bisects 791
    # low-rank rows in one lockstep chunk, and cross its 8 structured rows, all
    # low; the replay's estimate, which counts them, covers the peak within the
    # 64 KiB of fixed costs
    num_samples = 2000
    profile = rank_profile(op, num_samples, tol=tol)
    tracemalloc.start()
    try:
        rank_profile(op, num_samples, tol=tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lows = int(np.count_nonzero(profile.ranks < profile.max_rank))
    assert peak <= max(sweep_estimate(monkeypatch, op, num_samples),
                       sweep_estimate(monkeypatch, op, num_samples, lows)) + 2 ** 16


def test_replay_is_refused_before_it_gathers_its_low_rank_rows(monkeypatch):
    # lap_plus_d1d2 at tol 0.3 ranks 791 rows low, so it pairs them on a replay;
    # a machine with exactly the sweep's first estimate runs the stream, and the
    # replay's estimate, which counts those rows, refuses it before their
    # (791, 2) array is allocated
    num_samples = 2000
    needed = sweep_estimate(monkeypatch, LAP_PLUS_D1D2, num_samples)
    assert sweep_estimate(monkeypatch, LAP_PLUS_D1D2, num_samples, 791) > needed
    monkeypatch.setattr(pinv, "_physical_memory", lambda: needed)
    replay, peaks = rank._replayed_pairs, []

    def traced_replay(*args):
        tracemalloc.start()
        try:
            return replay(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(rank, "_replayed_pairs", traced_replay)
    with pytest.raises(MemoryError, match="sphere sweep of 2008 directions"):
        rank_profile(LAP_PLUS_D1D2, num_samples, tol=0.3)
    assert len(peaks) == 1 and peaks[0] < 791 * 2 * 8


# ------------------------------------------------------------------ profiles

@pytest.mark.parametrize("tol", [3e-16, 0.99 * pinv._TOL_FLOOR, 1.0])
def test_sweep_refuses_a_cutoff_below_the_floor_before_sampling(monkeypatch, tol):
    # at 3e-16 the rounding of curl's SVD crossed the cutoff, and curl was
    # reported NonConstantRank with a certified witness
    monkeypatch.setattr(rank, "_sample_blocks", None)
    with pytest.raises(ValueError, match=r"tol must lie in \[1.42e-14, 1\)"):
        rank_profile(zoo_get("curl"), num_samples=20000, tol=tol)


FLOOR_OPERATORS = [entry.build() for entry in zoo_list()] + [
    named_operator(path.stem) for path in sorted(BENCH_OPERATORS.glob("*.json"))] + [
    parse_operator(path.read_text()) for path in sorted(Path(__file__).parent.glob("*.json"))]


@pytest.mark.parametrize("op", FLOOR_OPERATORS, ids=lambda op: op.name)
def test_every_operator_keeps_its_verdict_and_ranks_at_the_cutoff_floor(op):
    # the smallest cutoff accepted, 64 eps, stays above every operator's rounding
    # on 20000 directions, where 3e-16 turned curl NonConstantRank
    floor = rank_profile(op, num_samples=20000, tol=pinv._TOL_FLOOR)
    default = rank_profile(op, num_samples=20000)
    assert (floor.verdict, floor.min_rank, floor.max_rank) == \
        (default.verdict, default.min_rank, default.max_rank)


@pytest.mark.parametrize("entry", zoo_list(), ids=lambda e: e.name)
def test_zoo_verdicts_and_ranks(entry):
    op = entry.build()
    profile = rank_profile(op, num_samples=256)
    assert profile.verdict is entry.expected_verdict
    if entry.expected_rank is not None:
        assert profile.min_rank == profile.max_rank == entry.expected_rank
    else:
        assert profile.min_rank < profile.max_rank


def test_profile_is_deterministic():
    op = zoo_get("wave")
    a = rank_profile(op, num_samples=128, seed=3)
    b = rank_profile(op, num_samples=128, seed=3)
    assert a.ranks.tobytes() == b.ranks.tobytes()
    assert [tuple(d) for d in a.drop_directions] == [tuple(d) for d in b.drop_directions]


def test_unitary_change_of_basis_preserves_profile():
    # replacing A_alpha by U A_alpha V^T rotates domain and codomain and
    # cannot change any symbol rank
    op = zoo_get("symmetric_gradient")
    rng = np.random.default_rng(17)
    u, _ = np.linalg.qr(rng.standard_normal((op.dim_w, op.dim_w)))
    v, _ = np.linalg.qr(rng.standard_normal((op.dim_v, op.dim_v)))
    terms = tuple(
        (alpha, tuple(tuple(float(x) for x in row) for row in u @ np.array(mat) @ v.T))
        for alpha, mat in op.terms)
    rotated = Operator("rotated", op.n, op.k, op.dim_v, op.dim_w, terms)
    a = rank_profile(op, num_samples=128)
    b = rank_profile(rotated, num_samples=128)
    assert (a.min_rank, a.max_rank, a.verdict) == (b.min_rank, b.max_rank, b.verdict)


def test_d1d2_drop_directions_are_axes():
    profile = rank_profile(zoo_get("d1d2"), num_samples=128)
    assert profile.verdict is Verdict.NON_CONSTANT_RANK
    assert profile.min_rank == 0 and profile.max_rank == 1
    assert len(profile.drop_directions) == 4
    for d in profile.drop_directions:
        assert min(abs(d[0]), abs(d[1])) < 1e-3  # on a coordinate axis
    # drops are sorted lexicographically and deduplicated
    keys = [tuple(d) for d in profile.drop_directions]
    assert keys == sorted(keys)


def test_wave_drop_directions_are_diagonals():
    profile = rank_profile(zoo_get("wave"), num_samples=128)
    assert len(profile.drop_directions) == 4
    for d in profile.drop_directions:
        assert abs(abs(d[0]) - abs(d[1])) < 2e-3  # |xi1| = |xi2|


def test_drop_neighbors_are_close_and_full_rank():
    profile = rank_profile(zoo_get("d1d2"), num_samples=128)
    op = zoo_get("d1d2")
    assert len(profile.drop_neighbors) == len(profile.drop_directions)
    for low, high in zip(profile.drop_directions, profile.drop_neighbors):
        assert angular_distance(low, high) <= ANGULAR_RESOLUTION
        assert abs(symbol(op, high)[0, 0]) > 0.0


@given(st.sampled_from([(a, b) for a in range(1, 4) for b in range(1, 4) if a + b <= 4]),
       st.integers(3, 400), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_each_drop_keeps_the_full_rank_end_of_its_bracket(powers, num_samples, seed):
    # d1^a d2^b vanishes on the axes: every drop's neighbour is the full-rank end of
    # its final bracket, and the witness is one of those pairs
    op = Operator("d1^a d2^b", 2, sum(powers), 1, 1, ((powers, ((1.0,),)),))
    profile = rank_profile(op, num_samples=num_samples, seed=seed)
    assert profile.verdict is Verdict.NON_CONSTANT_RANK
    assert len(profile.drop_neighbors) == len(profile.drop_directions)
    for low, high in zip(profile.drop_directions, profile.drop_neighbors):
        assert high.shape == (2,)
        assert angular_distance(low, high) <= ANGULAR_RESOLUTION
    ranks = numerical_rank(_real_stack(op, np.array(profile.drop_neighbors)))
    assert (ranks == profile.max_rank).all()
    witness = find_rank_drop_witness(op, profile)
    assert any(np.array_equal(witness.xi_low, low) and np.array_equal(witness.xi_high, high)
               for low, high in zip(profile.drop_directions, profile.drop_neighbors))


def test_profile_to_dict_serializes():
    profile = rank_profile(zoo_get("curl"), num_samples=64)
    doc = profile.to_dict()
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text)["verdict"] == "ConstantRank"
    assert doc["sample_count"] == len(profile.ranks)


def test_elliptic_symbols_are_coercive_on_samples():
    # smallest singular value stays bounded away from zero over the sweep
    for name in ("gradient", "gradient3", "laplacian", "symmetric_gradient"):
        op = zoo_get(name)
        profile = rank_profile(op, num_samples=256)
        sigma_min = min(
            np.linalg.svd(symbol(op, d), compute_uv=False)[-1]
            for d in sphere_samples(op.n, 256))
        assert profile.verdict is Verdict.ELLIPTIC
        assert sigma_min > 0.4  # symmetric_gradient attains exactly 0.5 on the axes


def test_constant_rank_pinv_norm_stable_under_sample_doubling():
    for name in ("divergence", "curl"):
        op = zoo_get(name)
        sups = []
        for num in (256, 512):
            profile = rank_profile(op, num_samples=num)
            assert profile.verdict is Verdict.CONSTANT_RANK
            sups.append(max(operator_norm(pinv_svd(symbol(op, d)))
                            for d in sphere_samples(op.n, num)))
        assert abs(sups[1] - sups[0]) <= 0.1 * sups[0]


# ------------------------------------------------------------- known answers

# wrong verdicts of the known-answer set at 1024 samples, at most: the sweep finds a
# scalar symbol's drop only where it lies on an axis or a sign vector.  The bound
# only ever falls, as a search learns to find the drops the sweep misses
KNOWN_ANSWERS_WRONG = 65


def test_known_answer_verdicts_at_1024_samples():
    # no definite form with a margin above 1e3 tol is given a drop it does not have,
    # and the wrong verdicts, every one a missed drop today, stay within the bound
    answers = known_answers()
    assert len(answers) == 88
    wrong = []
    for answer in answers:
        found = rank_profile(answer.operator, num_samples=1024).verdict is Verdict.NON_CONSTANT_RANK
        if not answer.drops and answer.margin > 1e3 * pinv.DEFAULT_TOL:
            assert not found, answer
        if found != answer.drops:
            wrong.append(answer.operator.name)
    assert len(wrong) <= KNOWN_ANSWERS_WRONG, wrong


# wrong verdicts of the 2 x 2 systems at 1024 samples, at most: every system whose
# determinant has a real root is reported Elliptic today.  The bound only ever falls
SYSTEMS_WRONG = 163


def test_known_system_verdicts_at_1024_samples():
    # every label clears its margin, 163 of the 200 systems drop rank, no definite
    # system is given a drop, and the wrong verdicts stay within the bound
    systems = known_systems()
    assert len(systems) == 200 and sum(answer.drops for answer in systems) == 163
    wrong = []
    for answer in systems:
        assert abs(answer.margin) > SYSTEM_MARGIN, answer
        found = rank_profile(answer.operator, num_samples=1024).verdict is Verdict.NON_CONSTANT_RANK
        if not answer.drops:
            assert not found, answer
        if found != answer.drops:
            wrong.append(answer.operator.name)
    assert len(wrong) <= SYSTEMS_WRONG, wrong


@given(st.lists(st.integers(-9, 9), min_size=8, max_size=8))
@settings(deadline=None)
def test_a_definite_system_is_never_given_a_drop(entries):
    # a 2 x 2 system A1 d1 + A2 d2 whose determinant form is definite, its
    # discriminant below -margin, is invertible at every direction.  Small integer
    # entries keep sigma_min / sigma_max above 1e-6 there, far above the cutoff:
    # with float entries a definite form whose coefficients are small beside the
    # entries (A1 = diag(1, 1e-11)) does drop rank at tol
    a1, a2 = np.array(entries, dtype=float).reshape(2, 2, 2)
    assume(system_margin(a1, a2) < -SYSTEM_MARGIN)
    profile = rank_profile(system_operator("system", a1, a2), num_samples=1024)
    assert profile.verdict is not Verdict.NON_CONSTANT_RANK


# ------------------------------------------------------------------ witnesses

def test_witness_requires_rank_drop():
    op = zoo_get("divergence")
    with pytest.raises(NoRankDropError):
        find_rank_drop_witness(op, rank_profile(op, num_samples=64))


def test_witness_profile_name_guard():
    with pytest.raises(ValueError, match="profile was built for"):
        find_rank_drop_witness(zoo_get("wave"), rank_profile(zoo_get("d1d2"), num_samples=64))


def hand_built_profile(op, low, high):
    return rank.RankProfile(operator=op.name, ranks=np.array([0, 1], dtype=np.uint8),
                            tolerance=pinv.DEFAULT_TOL, min_rank=0, max_rank=1,
                            verdict=Verdict.NON_CONSTANT_RANK,
                            drop_directions=(low,), drop_neighbors=(high,))


def test_witness_refuses_a_neighbour_beyond_its_angle():
    # a profile built by hand need not hold its neighbours within reach of its drops
    op, low = zoo_get("d1d2"), np.array([1.0, 0.0])
    for angle in (rank.WITNESS_MAX_ANGLE * 1.01, 1.0):
        high = np.array([math.cos(angle), math.sin(angle)])
        with pytest.raises(DegenerateWitnessError, match="no full-rank direction near"):
            find_rank_drop_witness(op, hand_built_profile(op, low, high))
    high = np.array([math.cos(0.05), math.sin(0.05)])
    witness = find_rank_drop_witness(op, hand_built_profile(op, low, high))
    assert np.array_equal(witness.xi_low, low) and np.array_equal(witness.xi_high, high)


def test_witness_refuses_a_neighbour_at_its_drop():
    # a neighbour equal to its drop has the drop's kernel, so no kernel vector is visible
    op, low = zoo_get("d1d2"), np.array([1.0, 0.0])
    with pytest.raises(DegenerateWitnessError, match="invisible to the adjoint"):
        find_rank_drop_witness(op, hand_built_profile(op, low, low.copy()))


@pytest.mark.parametrize("name", ["d1d2", "wave"])
def test_witness_certificate_properties(name):
    op = zoo_get(name)
    profile = rank_profile(op, num_samples=256)
    witness = find_rank_drop_witness(op, profile)
    assert witness.rank_low < witness.rank_high
    assert math.isclose(float(np.linalg.norm(witness.v)), 1.0, abs_tol=1e-12)
    # v is killed at the drop direction
    assert np.linalg.norm(symbol(op, witness.xi_low) @ witness.v) < 1e-8
    # the witness pair is tight, so the certified bound is large
    assert angular_distance(witness.xi_low, witness.xi_high) <= ANGULAR_RESOLUTION
    assert witness.dagger_lower_bound > 1e2
    gap = operator_norm(symbol(op, witness.xi_high) - symbol(op, witness.xi_low))
    assert math.isclose(witness.dagger_lower_bound, 1.0 / gap, rel_tol=1e-12)
    doc = witness.to_dict()
    json.dumps(doc)
    assert doc["rank_low"] == witness.rank_low


def test_witness_decomposes_its_pair_once(monkeypatch):
    # the gaps of every drop's pair are one stack, and the chosen pair's ranks and
    # kernel projectors come from one more decomposition, with vh alone: two _svd
    # calls where separate rank and projector routines took three; the witness
    # keeps the bits that numerical_rank and kernel_projector give the pair
    op = zoo_get("d1d2")
    profile = rank_profile(op, num_samples=256)
    calls = []
    svd = pinv._svd

    def counted(mats, want_u=False, want_vh=False):
        calls.append((len(mats), want_u, want_vh))
        return svd(mats, want_u, want_vh)

    # every module's binding of _svd, so a call from outside pinv is counted too
    for module in (pinv, rank):
        if hasattr(module, "_svd"):
            monkeypatch.setattr(module, "_svd", counted)
    witness = find_rank_drop_witness(op, profile)
    pairs = sum(angular_distance(low, high) <= rank.WITNESS_MAX_ANGLE
                for low, high in zip(profile.drop_directions, profile.drop_neighbors))
    assert pairs > 1
    assert calls == [(pairs, False, False), (2, False, True)]
    mats = _real_stack(op, [witness.xi_low, witness.xi_high])
    assert [witness.rank_low, witness.rank_high] == numerical_rank(mats).tolist()
    proj_low, proj_high = kernel_projector(mats)
    visible = proj_low - proj_high @ proj_low
    norms = np.linalg.norm(visible, axis=0)
    column = int(np.argmax(norms))
    assert witness.v.tobytes() == (visible[:, column] / norms[column]).tobytes()


def test_wave_witness_closed_form():
    # wave symbol on the circle at angle t is -cos(2t): near the pi/4 drop
    # the certified bound 1/|A(high) - A(low)| equals 1/|sin(2 delta)|
    op = zoo_get("wave")
    lo = np.array([1.0, 1.0]) / math.sqrt(2)
    delta = 0.01
    hi = np.array([math.cos(math.pi / 4 - delta), math.sin(math.pi / 4 - delta)])
    gap = operator_norm(symbol(op, hi) - symbol(op, lo))
    assert math.isclose(gap, abs(math.sin(2 * delta)), rel_tol=1e-10)
    witness = RankDropWitness(xi_high=hi, xi_low=lo, v=np.array([1.0 + 0j]),
                              dagger_lower_bound=1.0 / gap, rank_high=1, rank_low=0,
                              tolerance=pinv.DEFAULT_TOL)
    check = daggerbound_check(op, witness)
    assert check["holds"]
    # scalar case: |A+| = 1/|A(high)| and A(low) = 0, so lhs equals rhs exactly
    assert math.isclose(check["lhs"], check["rhs"], rel_tol=1e-10)


@pytest.mark.parametrize("name", ["d1d2", "wave"])
def test_daggerbound_holds_on_extracted_witness(name):
    op = zoo_get(name)
    witness = find_rank_drop_witness(op, rank_profile(op, num_samples=256))
    check = daggerbound_check(op, witness)
    assert check["holds"]
    assert check["lhs"] >= check["rhs"] * (1.0 - 1e-8)


def test_daggerbound_vacuous_without_rank_gap():
    op = zoo_get("wave")
    xi = np.array([1.0, 0.0])
    witness = RankDropWitness(xi_high=xi, xi_low=xi, v=np.array([1.0 + 0j]),
                              dagger_lower_bound=1e9, rank_high=1, rank_low=1,
                              tolerance=pinv.DEFAULT_TOL)
    assert daggerbound_check(op, witness)["holds"]


@pytest.mark.parametrize("name", ["d1d2", "wave"])
def test_pinv_norm_blows_up_along_path(name):
    # walking from the witness full-rank direction into the drop direction
    # sends |A+| past 1e3 within 1e-4 radians of the drop
    op = zoo_get(name)
    witness = find_rank_drop_witness(op, rank_profile(op, num_samples=256))
    theta = angular_distance(witness.xi_low, witness.xi_high)
    t = 1.0 - 1e-4 / theta  # angular distance 1e-4 from xi_low
    xi = slerp(witness.xi_high, witness.xi_low, t)
    assert operator_norm(pinv_svd(symbol(op, xi))) > 1e3
