"""Acceptance checks for the whole package.

One test per criterion; each prints a single PASS/FAIL summary line with
the measured worst case next to its tolerance.  Everything is seeded, so
reruns produce identical numbers.
"""

import time

import numpy as np
from numpy.random import default_rng

from symrank.experiments import (build_frequency_ladder, estimate_ratio, l2_minimality_check,
                                 ratio_sweep, witness_family)
from symrank.operators import _column_monomials, multi_indices, symbol
from symrank.pinv import numerical_rank, pinv_svd
from symrank.rank import (angular_distance, daggerbound_check,
                          find_rank_drop_witness, rank_profile, slerp)
from symrank.spectral import (Grid, GridField, apply_A, apply_Dk, apply_PA,
                              apply_multiplier, lp_norm, random_band_limited)
from symrank.zoo import zoo_get, zoo_list

from decell import pinv_decell

CONSTANT_RANK_NAMES = ("gradient", "gradient3", "divergence", "curl",
                       "laplacian", "symmetric_gradient")


def report(capsys, index: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        # suspend capture so the summary always reaches the terminal
        print(f"criterion {index:2d}: {status} - {detail}", flush=True)


def penrose_defect(mat: np.ndarray, dagger: np.ndarray) -> float:
    ad = mat @ dagger
    da = dagger @ mat
    defects = (
        np.linalg.norm(mat @ da - mat) / np.linalg.norm(mat),
        np.linalg.norm(dagger @ ad - dagger) / np.linalg.norm(dagger),
        np.linalg.norm(ad.conj().T - ad) / np.linalg.norm(ad),
        np.linalg.norm(da.conj().T - da) / np.linalg.norm(da),
    )
    return max(defects)


def random_rank_r_matrix(rng, rows: int, cols: int, rank: int) -> np.ndarray:
    # orthonormal factors and singular values in [0.5, 2] keep the rank
    # unambiguous at double precision
    left = np.linalg.qr(rng.standard_normal((rows, rank))
                        + 1j * rng.standard_normal((rows, rank)))[0]
    right = np.linalg.qr(rng.standard_normal((cols, rank))
                         + 1j * rng.standard_normal((cols, rank)))[0]
    singulars = rng.uniform(0.5, 2.0, rank)
    return left @ np.diag(singulars) @ right.conj().T


def test_criterion_01_penrose_identities_both_routes(capsys):
    worst = 0.0
    for trial in range(200):
        rng = default_rng([101, trial])
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        mat = random_rank_r_matrix(rng, rows, cols, rank)
        for dagger in (pinv_svd(mat), pinv_decell(mat, rank)):
            worst = max(worst, penrose_defect(mat, dagger))
    ok = worst <= 1e-9
    report(capsys, 1, ok, f"penrose identities, 200 matrices x 2 routes, "
                  f"max defect {worst:.2e} (tol 1e-09)")
    assert ok


def test_criterion_02_decell_svd_agreement_on_zoo_symbols(capsys):
    worst = 0.0
    for index, name in enumerate(CONSTANT_RANK_NAMES):
        op = zoo_get(name)
        rng = default_rng([102, index])
        for _ in range(100):
            xi = rng.standard_normal(op.n)
            xi /= np.linalg.norm(xi)
            mat = symbol(op, xi)
            svd = pinv_svd(mat)
            dec = pinv_decell(mat, numerical_rank(mat))
            worst = max(worst, np.linalg.norm(dec - svd) / np.linalg.norm(svd))
    ok = worst <= 1e-8
    report(capsys, 2, ok, f"decell vs svd pseudoinverse, 6 operators x 100 unit "
                  f"frequencies, max rel diff {worst:.2e} (tol 1e-08)")
    assert ok


def test_criterion_03_classifier_regression(capsys):
    start = time.perf_counter()
    mismatches = []
    for entry in zoo_list():
        profile = rank_profile(entry.build(), num_samples=1024, seed=7)
        if profile.verdict is not entry.expected_verdict:
            mismatches.append(f"{entry.name}: {profile.verdict.value}")
        if entry.expected_rank is not None and not (
                profile.min_rank == profile.max_rank == entry.expected_rank):
            mismatches.append(f"{entry.name}: rank {profile.min_rank}..{profile.max_rank}")
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 10.0
    report(capsys, 3, ok, f"zoo verdicts, 8 operators at 1024 samples, "
                  f"{len(mismatches)} mismatches, {elapsed:.2f} s (limit 10 s)")
    assert ok, mismatches


def test_criterion_04_divergence_ratio_exact_with_oracle(capsys):
    op = zoo_get("divergence")
    grid = Grid(3, 32)
    freqs = np.fft.fftfreq(32, d=1.0 / 32)
    kx, ky, kz = np.meshgrid(freqs, freqs, freqs, indexing="ij")
    norm_sq = kx ** 2 + ky ** 2 + kz ** 2
    worst_dev = worst_gap = 0.0
    for trial in range(20):
        phi = random_band_limited(grid, 3, 8, seed=[104, trial])
        measured = estimate_ratio(op, phi, 2.0)
        coeffs = np.fft.fftn(phi.data, axes=(1, 2, 3))
        dot = kx * coeffs[0] + ky * coeffs[1] + kz * coeffs[2]
        # remove the kernel component, then weight by |xi| for the gradient
        with np.errstate(invalid="ignore", divide="ignore"):
            residual = np.where(norm_sq > 0, dot / np.sqrt(norm_sq), 0.0)
        numerator = np.sqrt((norm_sq * np.abs(residual) ** 2).sum())
        denominator = np.sqrt((np.abs(dot) ** 2).sum())
        oracle = numerator / denominator
        worst_dev = max(worst_dev, abs(measured - 1.0))
        worst_gap = max(worst_gap, abs(measured - oracle))
    ok = worst_dev <= 1e-8 and worst_gap <= 1e-8
    report(capsys, 4, ok, f"divergence ratio over 20 fields, max |ratio-1| {worst_dev:.2e}, "
                  f"max |ratio-oracle| {worst_gap:.2e} (tol 1e-08)")
    assert ok


def test_criterion_05_elliptic_projection_is_the_mean(capsys):
    op = zoo_get("gradient")
    grid = Grid(2, 32)
    worst = 0.0
    for trial in range(20):
        base = random_band_limited(grid, 1, 8, seed=[105, trial])
        shift = 0.7 + 0.05 * trial
        phi = GridField(grid, base.data + shift)
        mean = phi.data.mean(axis=(1, 2), keepdims=True)
        projected = apply_PA(op, phi)
        worst = max(worst, np.abs(projected.data - mean).max())
    ok = worst <= 1e-10
    report(capsys, 5, ok, f"gradient projection equals the mean, 20 fields, "
                  f"max sup deviation {worst:.2e} (tol 1e-10)")
    assert ok


def test_criterion_06_blowup_ladders(capsys):
    grid = Grid(2, 64)
    d1d2 = zoo_get("d1d2")
    modes = (2, 4, 8, 16)
    ratios = [estimate_ratio(d1d2, phi, 2.0)
              for phi in witness_family(d1d2, [(m, 1) for m in modes], grid)]
    expected = [(m * m + 1) / m for m in modes]
    closed_form_dev = max(abs(r - e) / e for r, e in zip(ratios, expected))
    d1d2_increasing = all(a < b for a, b in zip(ratios, ratios[1:]))

    wave = zoo_get("wave")
    witness = find_rank_drop_witness(wave, rank_profile(wave, seed=0))
    ladder = build_frequency_ladder(wave, witness)
    wave_ratios = [estimate_ratio(wave, phi, 2.0) for phi in witness_family(wave, ladder, grid)]
    wave_increasing = all(a < b for a, b in zip(wave_ratios, wave_ratios[1:]))
    growth = wave_ratios[-1] / wave_ratios[0]

    ok = (closed_form_dev <= 1e-8 and d1d2_increasing
          and wave_increasing and growth >= 4.0)
    report(capsys, 6, ok, f"blow-up ladders: d1d2 closed form dev {closed_form_dev:.2e} "
                  f"(tol 1e-08), wave growth {growth:.3f} (need >= 4)")
    assert ok


def test_criterion_07_constant_rank_ratio_stability(capsys):
    worst = 0.0
    for name in ("divergence", "curl"):
        op = zoo_get(name)
        for p in (1.5, 2.0, 3.0):
            coarse = ratio_sweep(op, p=p, trials=50, size=16, seed=0)
            fine = ratio_sweep(op, p=p, trials=50, size=32, seed=0)
            reseeded = ratio_sweep(op, p=p, trials=50, size=16, seed=1)
            for other in (fine["max_ratio"], reseeded["max_ratio"]):
                pair = (coarse["max_ratio"], other)
                worst = max(worst, max(pair) / min(pair))
    ok = worst < 2.0
    report(capsys, 7, ok, f"divergence/curl max ratios at p in (1.5, 2, 3), worst "
                  f"grid/seed factor {worst:.3f} (limit 2)")
    assert ok


def test_criterion_08_multiplier_identity(capsys):
    worst = 0.0
    for index, name in enumerate(CONSTANT_RANK_NAMES):
        op = zoo_get(name)
        grid = Grid(op.n, 16)
        for trial in range(5):
            phi = random_band_limited(grid, op.dim_v, 4, seed=[108, index, trial])
            lhs = apply_multiplier(op, apply_A(op, phi))
            rhs = apply_Dk(op.k, phi - apply_PA(op, phi))
            worst = max(worst, lp_norm(lhs - rhs, 2.0) / lp_norm(rhs, 2.0))
    ok = worst <= 1e-10
    report(capsys, 8, ok, f"multiplier identity, 6 operators x 5 fields at N=16, "
                  f"max rel error {worst:.2e} (tol 1e-10)")
    assert ok


def test_criterion_09_homogeneity(capsys):
    worst_symbol = worst_mult = 0.0

    def multiplier(op, xi):
        # the recovery multiplier: A+(xi) tensor (i xi)^alpha, row j * T + t for component j
        # and the t-th multi-index of degree k
        powers = (1j ** op.k) * _column_monomials(xi, multi_indices(op.n, op.k))
        return np.kron(pinv_svd(symbol(op, xi)), powers[:, None])

    for index, entry in enumerate(zoo_list()):
        op = entry.build()
        rng = default_rng([109, index])
        for _ in range(100):
            xi = rng.standard_normal(op.n)
            base_symbol = symbol(op, xi)
            base_mult = multiplier(op, xi)
            for t in (2.0, 10.0):
                scaled = symbol(op, t * xi)
                dev = (np.linalg.norm(scaled - t ** op.k * base_symbol)
                       / np.linalg.norm(scaled))
                worst_symbol = max(worst_symbol, dev)
                mult_scaled = multiplier(op, t * xi)
                dev = (np.linalg.norm(mult_scaled - base_mult)
                       / np.linalg.norm(mult_scaled))
                worst_mult = max(worst_mult, dev)
    ok = worst_symbol <= 1e-8 and worst_mult <= 1e-8
    report(capsys, 9, ok, f"homogeneity over 8 operators x 100 frequencies x t in (2, 10): "
                  f"symbol {worst_symbol:.2e}, multiplier {worst_mult:.2e} (tol 1e-08)")
    assert ok


def test_criterion_10_daggerbound_and_blowup_along_path(capsys):
    results = []
    for name in ("d1d2", "wave"):
        op = zoo_get(name)
        witness = find_rank_drop_witness(op, rank_profile(op, seed=0))
        bound = daggerbound_check(op, witness)
        slack_ok = bound["holds"] and bound["lhs"] >= bound["rhs"] * (1 - 1e-8)
        # step along the great circle to 1e-4 radians from the drop direction
        span = angular_distance(witness.xi_low, witness.xi_high)
        point = slerp(witness.xi_low, witness.xi_high, 1e-4 / span)
        path_norm = np.linalg.norm(pinv_svd(symbol(op, point)), 2)
        results.append((name, slack_ok, path_norm))
    ok = all(s and n > 1e3 for _, s, n in results)
    detail = ", ".join(f"{name} |dagger| {n:.1f}" for name, _, n in results)
    report(capsys, 10, ok, f"dagger lower bound holds; near-drop {detail} (need > 1e3)")
    assert ok


def test_criterion_11_l2_minimality(capsys):
    failures = 0
    worst_eq = 0.0
    for index, entry in enumerate(zoo_list()):
        op = entry.build()
        grid = Grid(op.n, 16)
        for trial in range(20):
            phi = random_band_limited(grid, op.dim_v, 4, seed=[111, index, trial + 1])
            if not l2_minimality_check(op, phi, kernel_trials=20,
                                       seed=7000 + 100 * index + trial):
                failures += 1
        # the bound is attained by the projection itself
        psi = apply_PA(op, phi)
        base = lp_norm(apply_Dk(op.k, phi - apply_PA(op, phi)), 2.0)
        attained = lp_norm(apply_Dk(op.k, phi - psi), 2.0)
        worst_eq = max(worst_eq, abs(base - attained))
    ok = failures == 0 and worst_eq <= 1e-10
    report(capsys, 11, ok, f"projection minimality, 8 operators x 20 fields x 20 "
                   f"competitors, {failures} losses, equality gap {worst_eq:.2e} "
                   f"(tol 1e-10)")
    assert ok
