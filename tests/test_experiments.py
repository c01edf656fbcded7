import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrank import experiments, spectral
from symrank.experiments import (DegenerateProbeError, EmptyExperimentError, KernelInputError,
                                 TrialRecord, WitnessConfig, assemble_report,
                                 build_frequency_ladder, estimate_ratio, l2_minimality_check,
                                 ratio_sweep, symbol_bound_ratio, witness_family)
from symrank.operators import Operator, symbol
from symrank.rank import Verdict
from symrank.spectral import (Grid, apply_A, apply_Dk, apply_PA, forward_transform, lp_norm,
                              random_band_limited, single_mode)
from symrank.zoo import zoo_get, zoo_list

TWO_PI = 2.0 * math.pi
CONSTANT_RANK = [entry.name for entry in zoo_list()
                 if entry.expected_verdict is not Verdict.NON_CONSTANT_RANK]


def raw_divergence_ratio(phi):
    """Independent p = 2 oracle for the divergence operator, plain numpy only.

    In frequency space the resolved part of phi is xi (xi . phi-hat) / |xi|^2,
    its first derivative array has norm |xi . phi-hat|, and A phi has
    coefficients i xi . phi-hat, so both sides can be summed directly.
    """
    grid = phi.grid
    axes = tuple(range(1, grid.n + 1))
    coeffs = np.fft.fftn(phi.data, axes=axes, norm="ortho")
    freqs = np.fft.fftfreq(grid.size, d=1.0 / grid.size)
    mesh = np.meshgrid(*([freqs] * grid.n), indexing="ij")
    dot = sum(mesh[j] * coeffs[j] for j in range(grid.n))
    numerator = math.sqrt(float(np.sum(np.abs(dot) ** 2)))
    denominator = math.sqrt(float(np.sum(np.abs(1j * dot) ** 2)))
    return numerator / denominator


# ------------------------------------------------------------------ estimate ratio

def test_divergence_ratio_is_one_and_matches_raw_oracle():
    op = zoo_get("divergence")
    grid = Grid(3, 16)
    for seed in range(5):
        phi = random_band_limited(grid, 3, 4, seed=seed)
        ratio = estimate_ratio(op, phi, 2.0)
        assert math.isclose(ratio, 1.0, rel_tol=1e-10)
        assert math.isclose(ratio, raw_divergence_ratio(phi), rel_tol=1e-10)


def test_laplacian_ratio_is_one_for_p2():
    op = zoo_get("laplacian")
    grid = Grid(2, 32)
    phi = random_band_limited(grid, 1, 8, seed=3)
    assert math.isclose(estimate_ratio(op, phi, 2.0), 1.0, rel_tol=1e-10)


def test_estimate_ratio_scale_invariance():
    op = zoo_get("curl")
    grid = Grid(3, 8)
    phi = random_band_limited(grid, 3, 2, seed=8)
    base = estimate_ratio(op, phi, 2.0)
    for t in (1e-3, 7.0, 250.0):
        assert math.isclose(estimate_ratio(op, phi * t, 2.0), base, rel_tol=1e-12)


def test_estimate_ratio_rejects_kernel_fields():
    op = zoo_get("divergence")
    grid = Grid(3, 8)
    solenoidal = apply_PA(op, random_band_limited(grid, 3, 2, seed=1))
    with pytest.raises(KernelInputError):
        estimate_ratio(op, solenoidal, 2.0)


@pytest.mark.parametrize("p", [0.5, math.nan])
@pytest.mark.parametrize("as_coefficients", [False, True])
def test_estimate_ratio_rejects_p_below_one_or_nan(p, as_coefficients):
    op = zoo_get("curl")
    phi = random_band_limited(Grid(3, 8), 3, 2, seed=8)
    with pytest.raises(ValueError, match="at least 1"):
        estimate_ratio(op, forward_transform(phi) if as_coefficients else phi, p)


def grid_composition_ratio(op, phi, p):
    """Oracle: the estimate ratio composed from the public grid functions."""
    resolved = phi - apply_PA(op, phi)
    return lp_norm(apply_Dk(op.k, resolved), p) / lp_norm(apply_A(op, phi), p)


@pytest.mark.parametrize("name", CONSTANT_RANK)
@pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
def test_estimate_ratio_coefficient_route_matches_grid_composition(name, p):
    op = zoo_get(name)
    phi = random_band_limited(Grid(op.n, 8), op.dim_v, 2, seed=[21, 1])
    expected = grid_composition_ratio(op, phi, p)
    assert math.isclose(estimate_ratio(op, phi, p), expected, rel_tol=1e-13)
    assert math.isclose(estimate_ratio(op, forward_transform(phi), p), expected, rel_tol=1e-13)


def test_ratio_sweep_transforms_only_for_p_other_than_two(monkeypatch):
    calls = {"forward_transform": 0, "inverse_transform": 0}

    def counted(name):
        original = getattr(spectral, name)

        def wrapper(field):
            calls[name] += 1
            return original(field)
        return wrapper

    for name in calls:
        wrapper = counted(name)
        for module in (spectral, experiments):
            monkeypatch.setattr(module, name, wrapper, raising=False)
    op = zoo_get("curl")
    ratio_sweep(op, p=2.0, trials=3, grid_sizes=[8])
    assert calls == {"forward_transform": 0, "inverse_transform": 0}
    ratio_sweep(op, p=3.0, trials=3, grid_sizes=[8])
    assert calls == {"forward_transform": 0, "inverse_transform": 2 * 3}


# ------------------------------------------------------------------ symbol bound

def scaled(op: Operator, c: float) -> Operator:
    terms = tuple((alpha, tuple(tuple(c * x for x in row) for row in matrix))
                  for alpha, matrix in op.terms)
    return dataclasses.replace(op, terms=terms)


@pytest.mark.parametrize("c", [1e-200, 1e-160, 1.0, 1e160, 1e200])
def test_symbol_bound_ratio_frozen_examples(c):
    # A -> cA scales the ratio by exactly 1/c; unscaled norms of A A* w
    # underflow or overflow at these c
    op = scaled(zoo_get("d1d2"), c)
    w = np.array([1.0 + 0j])
    # |xi|^2 |A* w| / |A A* w| at xi = (1, delta) is (1 + delta^2)/delta
    assert math.isclose(c * symbol_bound_ratio(op, (1.0, 0.25), w), 4.25, rel_tol=1e-12)
    assert math.isclose(c * symbol_bound_ratio(op, (4.0, 1.0), [1]), 4.25, rel_tol=1e-12)
    assert math.isclose(c * symbol_bound_ratio(op, (1.0, 1.0), w), 2.0, rel_tol=1e-12)
    # divergence and curl have ratio 1 everywhere the probe survives
    div = scaled(zoo_get("divergence"), c)
    assert math.isclose(c * symbol_bound_ratio(div, (3.0, -1.0, 2.0), np.array([1.0 + 0j])),
                        1.0, rel_tol=1e-12)


def test_symbol_bound_ratio_scale_invariant_in_xi():
    op = zoo_get("d1d2")
    w = np.array([1.0 + 0j])
    a = symbol_bound_ratio(op, (1.0, 0.25), w)
    b = symbol_bound_ratio(op, (8.0, 2.0), w)
    assert math.isclose(a, b, rel_tol=1e-12)


def test_symbol_bound_ratio_degenerate_probe():
    op = zoo_get("d1d2")
    with pytest.raises(DegenerateProbeError):
        symbol_bound_ratio(op, (1.0, 0.0), np.array([1.0 + 0j]))


def test_symbol_bound_equals_estimate_ratio_on_single_modes():
    # the defining identity of the witness construction, exact at every p
    cases = (("divergence", (1, 2, 3)), ("curl", (2, 1, -1)), ("d1d2", (4, 1)),
             ("symmetric_gradient", (3, 2)), ("wave", (3, 1)))
    rng = np.random.default_rng(12)
    for name, xi in cases:
        op = zoo_get(name)
        grid = Grid(op.n, 16)
        w = rng.standard_normal(op.dim_w) + 1j * rng.standard_normal(op.dim_w)
        w /= np.linalg.norm(w)
        phi = witness_family(op, WitnessConfig(frequencies=(xi,), w=tuple(w)), grid)[0]
        bound = symbol_bound_ratio(op, np.array(xi, float), w)
        for p in (1.0, 2.0, 3.5, math.inf):
            assert math.isclose(estimate_ratio(op, phi, p), bound, rel_tol=1e-10)


# ------------------------------------------------------------------ witness families

def test_witness_family_single_mode_annihilates_projection():
    for name, xi in (("divergence", (1, 0, 2)), ("d1d2", (4, 1))):
        op = zoo_get(name)
        grid = Grid(op.n, 16)
        phi = witness_family(op, WitnessConfig(frequencies=(xi,)), grid)[0]
        assert lp_norm(apply_PA(op, phi), 2) < 1e-10 * lp_norm(phi, 2)


def test_witness_family_default_probe_is_top_singular_vector():
    op = zoo_get("d1d2")
    grid = Grid(2, 16)
    explicit = witness_family(op, WitnessConfig(frequencies=((4, 1),), w=(1.0 + 0j,)), grid)[0]
    default = witness_family(op, WitnessConfig(frequencies=((4, 1),)), grid)[0]
    # scalar codomain: the two probes agree up to a unit phase
    ratio = default.data[np.abs(default.data) > 1e-12] / explicit.data[np.abs(explicit.data) > 1e-12]
    assert np.allclose(np.abs(ratio), 1.0)


def test_witness_family_rejects_unresolvable_frequency():
    op = zoo_get("d1d2")
    grid = Grid(2, 16)
    with pytest.raises(ValueError, match="unresolvable"):
        witness_family(op, WitnessConfig(frequencies=((8, 1),)), grid)


def test_witness_family_rejects_degenerate_frequency():
    op = zoo_get("d1d2")
    grid = Grid(2, 16)
    with pytest.raises(DegenerateProbeError):
        witness_family(op, WitnessConfig(frequencies=((4, 0),)), grid)


@pytest.mark.parametrize("name, xi", [("divergence", (1, 2, 3)), ("curl", (2, 1, -1)),
                                      ("d1d2", (4, 1)), ("symmetric_gradient", (3, 2)),
                                      ("wave", (3, 1))])
@pytest.mark.parametrize("default_probe", [False, True])
def test_exact_witness_is_the_closed_form_single_mode(name, xi, default_probe):
    # the field's one coefficient is A*(xi) w, scaled by the power of two that
    # brings sigma_max into [0.5, 1), so the ratio is the symbol bound
    op = zoo_get(name)
    grid = Grid(op.n, 16)
    mat = symbol(op, np.array(xi, dtype=float))
    u, sigma, _ = np.linalg.svd(mat)
    if default_probe:
        w = u[:, 0]
        cfg = WitnessConfig(frequencies=(xi,))
    else:
        w = np.array([1.0, 1j]) @ np.random.default_rng(12).standard_normal((2, op.dim_w))
        w /= np.linalg.norm(w)
        cfg = WitnessConfig(frequencies=(xi,), w=tuple(w))
    phi = witness_family(op, cfg, grid)[0]
    amplitude = mat.conj().T @ w * 2.0 ** -math.frexp(sigma[0])[1]
    np.testing.assert_array_equal(phi.data, single_mode(grid, xi, amplitude).data)
    bound = symbol_bound_ratio(op, np.array(xi, float), w)
    for p in (1.0, 2.0, math.inf):
        assert math.isclose(estimate_ratio(op, phi, p), bound, rel_tol=1e-14)


def test_witness_config_validation():
    with pytest.raises(ValueError, match="nonempty"):
        WitnessConfig(frequencies=())
    with pytest.raises(ValueError, match="nonzero"):
        WitnessConfig(frequencies=((0, 0),))
    with pytest.raises(ValueError, match="unit"):
        WitnessConfig(frequencies=((1, 1),), w=(2.0,))
    with pytest.raises(ValueError, match="width"):
        WitnessConfig(frequencies=((1, 1),), window=1.5)


def test_windowed_witness_converges_to_single_mode_value():
    # localized version of the witness: ratio approaches the single-mode
    # value as the window widens; at generic frequencies half the torus is
    # already within 10 percent
    op = zoo_get("d1d2")
    grid = Grid(2, 64)
    xi0 = (12, 6)
    target = symbol_bound_ratio(op, np.array(xi0, float), np.array([1.0 + 0j]))
    diffs = []
    for width in (0.5, 0.75, 1.0):
        phi = witness_family(op, WitnessConfig(frequencies=(xi0,), window=width), grid)[0]
        ratio = estimate_ratio(op, phi, 2.0)
        diffs.append(abs(ratio - target) / target)
    assert all(diff <= 0.10 for diff in diffs)
    assert diffs[-1] < diffs[0]  # widening the window tightens the match


# ------------------------------------------------------------------ ladders

def test_ladder_d1d2_axis_direction():
    op = zoo_get("d1d2")
    assert build_frequency_ladder(op, (1.0, 0.0)) == [(2, 1), (4, 1), (8, 1), (16, 1)]
    assert build_frequency_ladder(op, (0.0, 1.0), rungs=2) == [(1, 2), (1, 4)]


def test_ladder_wave_diagonal_direction():
    op = zoo_get("wave")
    assert build_frequency_ladder(op, (1.0, 1.0)) == [(2, 1), (4, 3), (7, 6), (12, 11)]


def test_ladder_generic_direction_needs_no_offset():
    op = zoo_get("d1d2")
    u = np.array([0.8, 0.6])
    assert build_frequency_ladder(op, u, rungs=3) == [(2, 1), (3, 2), (6, 5)]


def test_ladder_validation():
    with pytest.raises(ValueError, match="rungs"):
        build_frequency_ladder(zoo_get("d1d2"), (1.0, 0.0), rungs=0)


def test_d1d2_ladder_ratios_closed_form():
    # single modes at (m, 1) give exactly (m^2 + 1)/m at every p
    op = zoo_get("d1d2")
    grid = Grid(2, 64)
    ladder = [(2, 1), (4, 1), (8, 1), (16, 1)]
    fields = witness_family(op, WitnessConfig(frequencies=tuple(ladder)), grid)
    for p in (1.0, 2.0, math.inf):
        ratios = [estimate_ratio(op, phi, p) for phi in fields]
        for (m, _), ratio in zip(ladder, ratios):
            assert math.isclose(ratio, (m * m + 1) / m, rel_tol=1e-10)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] / ratios[0] >= 4.0


# ------------------------------------------------------------------ minimality

def test_l2_minimality_holds_on_zoo_samples():
    for name in ("divergence", "curl", "gradient"):
        op = zoo_get(name)
        grid = Grid(op.n, 8)
        phi = random_band_limited(grid, op.dim_v, 2, seed=2)
        assert l2_minimality_check(op, phi, kernel_trials=8, seed=0)


def test_l2_minimality_slack_handles_the_equality_competitor():
    # when a competitor draw reproduces phi itself, its projection equals
    # the canonical one, so the comparison is an exact tie: default slack
    # tolerates it, a doctored negative slack flags it
    op = zoo_get("divergence")
    grid = Grid(3, 8)
    phi = random_band_limited(grid, 3, grid.size // 4, seed=[6, 0, 1])
    assert l2_minimality_check(op, phi, kernel_trials=1, seed=6)
    assert not l2_minimality_check(op, phi, kernel_trials=1, seed=6, slack=-1e-6)


def grid_composition_minimality(op, phi, kernel_trials, seed, slack):
    """Oracle: l2_minimality_check composed from the public grid functions."""
    base = lp_norm(apply_Dk(op.k, phi - apply_PA(op, phi)), 2)
    for trial in range(kernel_trials):
        raw = random_band_limited(phi.grid, op.dim_v, phi.grid.size // 4, seed=[seed, trial, 1])
        if base > lp_norm(apply_Dk(op.k, phi - apply_PA(op, raw)), 2) + slack:
            return False
    return True


@pytest.mark.parametrize("name", CONSTANT_RANK)
@pytest.mark.parametrize("slack", [1e-10, -1e-6])
def test_l2_minimality_coefficient_route_matches_grid_composition(name, slack):
    op = zoo_get(name)
    grid = Grid(op.n, 8)
    # a generic field, and one that competitor 0 reproduces (an exact tie)
    for phi_seed in ([22, 0], [3, 0, 1]):
        phi = random_band_limited(grid, op.dim_v, grid.size // 4, seed=phi_seed)
        expected = grid_composition_minimality(op, phi, 3, 3, slack)
        assert l2_minimality_check(op, phi, kernel_trials=3, seed=3, slack=slack) is expected


# ------------------------------------------------------------------ reports

def make_report(p=2.0):
    records = [TrialRecord(index=0, grid_size=16, detail="seed=0 N=16 trial=0", ratio=1.0),
               TrialRecord(index=1, grid_size=16, detail="seed=0 N=16 trial=1", ratio=2.5)]
    return assemble_report(operator="demo", context="RandomFields", p=p, grid_sizes=[16],
                           trials=2, seed=0, records=records, parameters={"tol": 1e-10})


def test_report_round_trip_and_determinism():
    report = make_report()
    doc = report.to_dict()
    assert doc["max_ratio"] == 2.5
    assert doc["p"] == 2.0
    assert json.dumps(doc, sort_keys=True) == json.dumps(make_report().to_dict(), sort_keys=True)


def test_report_inf_p_serializes_as_string():
    doc = make_report(p=math.inf).to_dict()
    assert doc["p"] == "inf"
    json.dumps(doc)  # strict JSON, no Infinity token


def test_report_csv_rows():
    rows = make_report().csv_rows()
    assert rows[0] == "index,grid_size,detail,ratio"
    assert len(rows) == 3
    assert rows[2].startswith("1,16,seed=0 N=16 trial=1,")
    # repr round-trips the float exactly
    assert float(rows[2].rsplit(",", 1)[1]) == 2.5


def test_report_rejects_empty_and_invalid():
    with pytest.raises(EmptyExperimentError):
        assemble_report(operator="demo", context="RandomFields", p=2.0, grid_sizes=[16],
                        trials=0, seed=0, records=[])
    bad = [TrialRecord(index=0, grid_size=16, detail="d", ratio=float("nan"))]
    with pytest.raises(ValueError, match="finite"):
        assemble_report(operator="demo", context="RandomFields", p=2.0, grid_sizes=[16],
                        trials=1, seed=0, records=bad)


# ------------------------------------------------------------------ sweeps

def test_ratio_sweep_divergence_exactness():
    report = ratio_sweep(zoo_get("divergence"), p=2.0, trials=5, grid_sizes=[16], seed=0)
    assert len(report.records) == 5
    assert report.excluded == 0
    assert all(math.isclose(r, 1.0, rel_tol=1e-8) for r in report.ratios)
    assert report.records[0].detail == "seed=0 N=16 trial=0"


def test_ratio_sweep_multiple_grid_sizes():
    report = ratio_sweep(zoo_get("laplacian"), p=2.0, trials=3, grid_sizes=[8, 16], seed=1)
    assert [r.grid_size for r in report.records] == [8, 8, 8, 16, 16, 16]
    assert report.parameters["max_freq"] == "size//4"
    assert [r.index for r in report.records] == list(range(6))


def test_ratio_sweep_is_deterministic():
    a = ratio_sweep(zoo_get("curl"), p=1.5, trials=3, grid_sizes=[8], seed=4)
    b = ratio_sweep(zoo_get("curl"), p=1.5, trials=3, grid_sizes=[8], seed=4)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_ratio_sweep_seed_stability_for_constant_rank():
    op = zoo_get("divergence")
    a = ratio_sweep(op, p=3.0, trials=10, grid_sizes=[16], seed=0)
    b = ratio_sweep(op, p=3.0, trials=10, grid_sizes=[16], seed=99)
    assert a.max_ratio <= 2.0 * b.max_ratio
    assert b.max_ratio <= 2.0 * a.max_ratio


def test_ratio_sweep_validation():
    with pytest.raises(ValueError, match="trials"):
        ratio_sweep(zoo_get("divergence"), p=2.0, trials=0, grid_sizes=[16])
    with pytest.raises(ValueError, match="nonempty"):
        ratio_sweep(zoo_get("divergence"), p=2.0, trials=1, grid_sizes=[])


@given(st.sampled_from(["divergence", "curl"]), st.sampled_from([1.5, 2.0, 3.0]),
       st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_ratio_sweep_bounded_for_constant_rank(name, p, seed):
    report = ratio_sweep(zoo_get(name), p=p, trials=3, grid_sizes=[8], seed=seed)
    assert report.max_ratio < 10.0
