import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symrank
from symrank import cli, experiments, pinv, spectral
from symrank.cli import (EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_NO_RANK_DROP,
                         EXIT_NON_CONSTANT_RANK, EXIT_OK, main)
from symrank.operators import Operator, parse_operator, serialize_operator, symbol
from symrank.pinv import numerical_rank
from symrank.zoo import zoo_get, zoo_list


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ------------------------------------------------------------------ analyze

def test_analyze_constant_rank_exits_zero(capsys):
    code, doc, _ = run_json(capsys, "analyze", "zoo:divergence")
    assert code == EXIT_OK
    assert doc["verdict"] == "ConstantRank"
    assert doc["min_rank"] == doc["max_rank"] == 1
    assert doc["parameters"]["samples"] == 1024
    assert any("sampling-based" in note for note in doc["notes"])


@pytest.mark.parametrize("source, samples, bound", [("zoo:d1d2", "2", 3), ("zoo:d1d2", "-5", 3),
                                                   ("zoo:curl", "3", 4)])
def test_analyze_names_samples_below_n_plus_one(capsys, source, samples, bound):
    # the sweep needs n + 1 random directions; the error names the option, not the
    # library's num_random, and is raised before the sweep is sized or drawn
    code, out, err = run(capsys, "analyze", source, "--samples", samples)
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err == f"error: need --samples >= n + 1 = {bound}\n"


def test_analyze_elliptic(capsys):
    code, doc, _ = run_json(capsys, "analyze", "zoo:laplacian")
    assert code == EXIT_OK
    assert doc["verdict"] == "Elliptic"


def test_analyze_non_constant_rank_exits_three_with_witness(capsys):
    code, doc, _ = run_json(capsys, "analyze", "zoo:d1d2")
    assert code == EXIT_NON_CONSTANT_RANK
    assert doc["verdict"] == "NonConstantRank"
    assert len(doc["drop_directions"]) == 4
    witness = doc["witness"]
    assert witness["rank_low"] == 0 and witness["rank_high"] == 1
    assert witness["dagger_lower_bound"] > 1e2
    assert doc["daggerbound"]["holds"] is True


def test_analyze_output_is_byte_identical(capsys):
    _, first, _ = run(capsys, "analyze", "zoo:wave")
    _, second, _ = run(capsys, "analyze", "zoo:wave")
    assert first == second


def test_analyze_accepts_operator_documents(tmp_path, capsys):
    path = tmp_path / "div.json"
    path.write_text(serialize_operator(zoo_get("divergence")))
    code, doc, _ = run_json(capsys, "analyze", str(path))
    assert code == EXIT_OK
    assert doc["operator"] == "divergence"


def test_out_flag_mirrors_stdout(tmp_path, capsys):
    out = tmp_path / "report.json"
    _, stdout, _ = run(capsys, "analyze", "zoo:curl", "--out", str(out))
    assert out.read_text() == stdout


# ------------------------------------------------------------------ input errors

def test_unknown_zoo_name_exits_one(capsys):
    code, out, err = run(capsys, "analyze", "zoo:nope")
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert "unknown operator" in err


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/op.json")
    assert code == EXIT_INPUT_ERROR
    assert "error:" in err


def test_malformed_document_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x"}')
    code, _, err = run(capsys, "analyze", str(path))
    assert code == EXIT_INPUT_ERROR
    assert "missing field" in err


@pytest.mark.parametrize("argv", [
    ("zoo", "--out", "{dir}"),
    ("verify", "zoo:gradient", "--N", "8", "--trials", "1", "--csv", "{dir}/missing/x.csv"),
    # the command would otherwise exit 3
    ("analyze", "zoo:d1d2", "--samples", "64", "--out", "{dir}"),
], ids=["out-is-a-directory", "csv-in-missing-directory", "analyze-out-is-a-directory"])
def test_unwritable_output_path_is_a_one_line_error(tmp_path, capsys, argv):
    # the files are written before stdout, so a failed one leaves no report there
    code, out, err = run(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_integer_beyond_float_range_exits_one(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"name": "big", "n": 2, "k": 1, "dimV": 1, "dimW": 1, "terms": '
                    '[{"alpha": [1, 0], "matrix": [[1' + "0" * 400 + ']]}]}')
    code, out, err = run(capsys, "analyze", str(path))
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err == "error: terms[0].matrix: entry beyond the float range\n"


def one_term_document(alpha, **term) -> str:
    return json.dumps({"name": "x", "n": len(alpha), "k": sum(alpha), "dimV": 1, "dimW": 1,
                       "terms": [{"alpha": alpha, "matrix": [[1.0]], **term}]})


@pytest.mark.parametrize("text, message", [
    # json.loads kept the last "terms", so this Laplacian read as d1d2 with exit 3
    ('{"name": "x", "n": 2, "k": 2, "dimV": 1, "dimW": 1, "terms": '
     '[{"alpha": [2, 0], "matrix": [[1.0]]}, {"alpha": [0, 2], "matrix": [[1.0]]}], '
     '"terms": [{"alpha": [1, 1], "matrix": [[1.0]]}]}', "document: duplicate field 'terms'"),
    (one_term_document([1, 1], scale=2), "terms[0]: unknown field 'scale'"),
    # exponents int64 cannot hold ended in an OverflowError traceback
    (one_term_document([2 ** 63, 0]), "terms[0].alpha: exponent beyond the int64 range"),
    (one_term_document([10 ** 400, 0]), "terms[0].alpha: exponent beyond the int64 range"),
], ids=["repeated-key", "unknown-term-key", "2^63", "10^400"])
@pytest.mark.parametrize("command", ["analyze", "counterexample"])
def test_refused_documents_exit_one(tmp_path, capsys, text, message, command):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run(capsys, command, str(path))
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err == f"error: {message}\n"


def test_invalid_p_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "zoo:divergence", "--p", "0.5"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("command", ["analyze", "verify", "counterexample", "minimality"])
def test_negative_seed_is_an_argparse_error(capsys, command):
    # numpy would refuse it later with a message that names no option
    with pytest.raises(SystemExit) as excinfo:
        main([command, "zoo:curl", "--seed", "-1"])
    assert excinfo.value.code == 2
    assert "argument --seed: seed must be a non-negative integer" in capsys.readouterr().err


# ------------------------------------------------------------------ verify

def test_verify_divergence_defaults(capsys):
    code, doc, _ = run_json(capsys, "verify", "zoo:divergence")
    assert code == EXIT_OK
    assert doc["verdict"] == "ConstantRank"
    assert doc["trials"] == 20
    assert doc["grid_sizes"] == [32]
    assert abs(doc["max_ratio"] - 1.0) < 1e-8
    assert len(doc["records"]) == 20


def test_verify_gradient_ratio_is_trivially_one(capsys):
    code, doc, _ = run_json(capsys, "verify", "zoo:gradient", "--N", "16", "--trials", "5")
    assert code == EXIT_OK
    assert abs(doc["max_ratio"] - 1.0) < 1e-10


@pytest.mark.parametrize("p", ["1", "3", "inf"])
def test_verify_hessian_ratio_is_one_at_every_p(capsys, p):
    # rows d11, sqrt(2) d12, d22: |A phi| is the pointwise Frobenius norm of D^2 phi,
    # which is the fiber norm of apply_Dk's derivative array, so the ratio is 1
    source = Path(__file__).parent / "hessian2.json"
    code, doc, _ = run_json(capsys, "verify", str(source), "--N", "16", "--trials", "2",
                            "--p", p)
    assert code == EXIT_OK
    assert all(abs(record["ratio"] - 1.0) <= 1e-12 for record in doc["records"])


def test_verify_inf_p_and_csv(tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    code, doc, _ = run_json(capsys, "verify", "zoo:laplacian", "--p", "inf", "--N", "8",
                            "--trials", "3", "--csv", str(csv))
    assert code == EXIT_OK
    assert doc["p"] == "inf"
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "index,grid_size,detail,ratio"
    assert len(lines) == 4


@pytest.mark.parametrize("argv", [
    ("verify", "zoo:curl", "--N", "8", "--trials", "3", "--p", "3"),
    ("counterexample", "zoo:d1d2", "--N", "32", "--rungs", "3", "--factor", "3"),
], ids=["verify", "counterexample"])
def test_report_csv_rows(tmp_path, capsys, argv):
    # the header, then one row per JSON record; repr round-trips each ratio exactly
    csv = tmp_path / "rows.csv"
    code, doc, _ = run_json(capsys, *argv, "--csv", str(csv))
    assert code == EXIT_OK
    rows = csv.read_text().split("\n")
    assert rows[0] == "index,grid_size,detail,ratio" and rows[-1] == ""
    assert rows[1:-1] == [f"{r['index']},{r['grid_size']},{r['detail']},{r['ratio']!r}"
                          for r in doc["records"]]
    assert [float(row.rsplit(",", 1)[1]) for row in rows[1:-1]] == [
        r["ratio"] for r in doc["records"]]
    assert len(rows) == 2 + 3


def test_counterexample_without_a_rank_drop_writes_no_csv(tmp_path, capsys):
    # the exit-4 document has no records, so there is no row to write
    csv = tmp_path / "rows.csv"
    code, doc, err = run_json(capsys, "counterexample", "zoo:laplacian", "--csv", str(csv))
    assert code == EXIT_NO_RANK_DROP and err == ""
    assert "records" not in doc
    assert not csv.exists()


def test_verify_runs_on_non_constant_rank_with_caveat(capsys):
    code, doc, _ = run_json(capsys, "verify", "zoo:wave", "--N", "16", "--trials", "3")
    assert code == EXIT_OK
    assert doc["verdict"] == "NonConstantRank"
    assert any("counterexample" in note for note in doc["notes"])


# ------------------------------------------------------------------ counterexample

@pytest.mark.parametrize("p, endpoint", [("1", True), ("1.5", False), ("2", False), ("inf", True)])
def test_endpoint_exponents_add_one_note_and_keep_exit_codes(capsys, p, endpoint):
    # constant rank gives the estimate only for 1 < p < inf
    code, doc, _ = run_json(capsys, "verify", "zoo:laplacian", "--N", "8", "--trials", "2",
                            "--p", p)
    assert code == EXIT_OK
    assert doc["notes"].count(cli.ENDPOINT_NOTE) == endpoint
    code, doc, _ = run_json(capsys, "counterexample", "zoo:d1d2", "--N", "32", "--rungs", "3",
                            "--factor", "3", "--p", p)
    assert code == EXIT_OK
    assert doc["notes"].count(cli.ENDPOINT_NOTE) == endpoint


def test_counterexample_d1d2_default_blowup(capsys):
    code, doc, _ = run_json(capsys, "counterexample", "zoo:d1d2")
    assert code == EXIT_OK
    ratios = [r["ratio"] for r in doc["records"]]
    # rungs (m, 1)-type single modes: closed form (m^2+1)/m
    assert ratios == pytest.approx([2.5, 4.25, 8.125, 16.0625], rel=1e-10)
    assert doc["growth"] == pytest.approx(6.425, rel=1e-10)
    assert doc["witness"]["rank_low"] == 0


def test_counterexample_wave_default_blowup(capsys):
    code, doc, _ = run_json(capsys, "counterexample", "zoo:wave")
    assert code == EXIT_OK
    assert doc["ladder"] == [[2, 1], [4, 3], [7, 6], [12, 11]]
    assert doc["growth"] == pytest.approx(265 / 23 / (5 / 3), rel=1e-10)


@pytest.mark.parametrize("name", ["lap_plus_d1d2", "diag_d1_d1_plus_d2"])
def test_counterexample_vector_valued_drop_blowup(tmp_path, capsys, name):
    # rank 2 drops to 1 and sigma_max stays near |xi|^k, so only a probe on
    # sigma_2 sees the drop: rungs (1, -m), ratios |xi|^k / sigma_2
    source = tmp_path / f"{name}.json"
    if name == "lap_plus_d1d2":
        source = Path(__file__).parent / "lap_plus_d1d2.json"
        expected = [(m * m + 1) / m for m in (2, 4, 8, 16)]
    else:
        diag = Operator(name=name, n=2, k=1, dim_v=2, dim_w=2,
                        terms=(((1, 0), ((1.0, 0.0), (0.0, 1.0))),
                               ((0, 1), ((0.0, 0.0), (0.0, 1.0)))))
        source.write_text(serialize_operator(diag))
        expected = [math.sqrt(m * m + 1) for m in (2, 4, 8, 16)]
    code, doc, _ = run_json(capsys, "analyze", str(source))
    assert code == EXIT_NON_CONSTANT_RANK
    code, doc, _ = run_json(capsys, "counterexample", str(source))
    assert code == EXIT_OK
    assert doc["ladder"] == [[1, -2], [1, -4], [1, -8], [1, -16]]
    assert [r["ratio"] for r in doc["records"]] == pytest.approx(expected, rel=1e-12)
    assert doc["growth"] >= 4


def test_counterexample_finds_a_ladder_where_two_drop_planes_meet(capsys):
    # d1 d2 on R^3 drops on the planes x1 = 0 and x2 = 0, which meet along e3; every
    # axis offset of (0, 0, -m) stays on one of them, so the pair offset e1 + e2 is
    # taken: rungs (1, 1, -m), ratios |xi|^2 / |x1 x2| = m^2 + 2
    source = str(Path(__file__).parent / "d1d2_3d.json")
    code, doc, _ = run_json(capsys, "analyze", source, "--samples", "64")
    assert code == EXIT_NON_CONSTANT_RANK
    assert doc["witness"]["xi_low"] == [0.0, 0.0, -1.0]
    code, doc, _ = run_json(capsys, "counterexample", source, "--N", "32", "--rungs", "3")
    assert code == EXIT_OK
    assert doc["ladder"] == [[1, 1, -2], [1, 1, -4], [1, 1, -8]]
    assert [r["ratio"] for r in doc["records"]] == [6.0, 18.0, 66.0]
    assert doc["growth"] == 11.0
    code, doc, _ = run_json(capsys, "counterexample", source)
    assert code == EXIT_OK
    assert doc["growth"] == 43.0


def test_counterexample_ladder_counts_ranks_at_the_probe_tol(capsys):
    # at a coarse --tol, a rung of full rank under the default cutoff can have
    # rank 1 under tol, where the probe would see sigma_1 and the ratio stay 1
    source = Path(__file__).parent / "lap_plus_d1d2.json"
    op = parse_operator(source.read_text())
    code, doc, _ = run_json(capsys, "counterexample", str(source), "--tol", "0.3")
    assert code == EXIT_CHECK_FAILED
    rank_high = doc["witness"]["rank_high"]
    for rung in doc["ladder"]:
        assert numerical_rank(symbol(op, np.array(rung, dtype=float)), 0.3) == rank_high
    ratios = [r["ratio"] for r in doc["records"]]
    assert ratios == pytest.approx([2.5, 2.5, 73 / 24, 221 / 70], rel=1e-12)


def test_counterexample_constant_rank_exits_four(capsys):
    for name in ("divergence", "curl", "gradient", "laplacian"):
        code, doc, _ = run_json(capsys, "counterexample", f"zoo:{name}")
        assert code == EXIT_NO_RANK_DROP
        assert "no counterexample expected" in doc["message"]


def test_counterexample_unreached_factor_exits_five(capsys):
    code, doc, _ = run_json(capsys, "counterexample", "zoo:d1d2", "--factor", "100")
    assert code == EXIT_CHECK_FAILED
    assert doc["growth"] < 100


@pytest.mark.parametrize("factor", ["nan", "inf", "0", "-2"])
def test_counterexample_rejects_unusable_factor(capsys, factor):
    code, out, err = run(capsys, "counterexample", "zoo:d1d2", "--factor", factor)
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith("error: --factor") and err.count("\n") == 1


@pytest.mark.parametrize("option, value", [("--window", "2"), ("--window", "0"),
                                           ("--window", "nan"), ("--rungs", "0"),
                                           ("--rungs", "53"), ("--rungs", "1100")])
@pytest.mark.parametrize("source", [f"zoo:{entry.name}" for entry in zoo_list()]
                         + ["lap_plus_d1d2.json"])
def test_counterexample_rejects_unusable_ladder_options_before_the_sweep(capsys, monkeypatch,
                                                                         source, option, value):
    # the options are checked before the sphere sweep, so every operator, with or
    # without rank drops, exits 1 with the option's own message
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sphere sweep ran")
    monkeypatch.setattr(cli, "rank_profile", no_sweep)
    if not source.startswith("zoo:"):
        source = str(Path(__file__).parent / source)
    code, out, err = run(capsys, "counterexample", source, option, value)
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err.startswith(f"error: {option}") and err.count("\n") == 1


def test_counterexample_ladder_stops_where_float64_frequencies_do(capsys):
    # rung j targets 2^(j+1) u: rung 52 is the last with an exact float64
    # frequency, and 64 rungs once came back as [1, -2^63] repeated, exit 0
    huge = str(2 ** 600)
    code, doc, _ = run_json(capsys, "counterexample", "zoo:d1d2", "--N", huge, "--rungs", "52")
    assert code == EXIT_OK
    assert [abs(x) for x in doc["ladder"][-1]] == [1, 2 ** 52]
    assert doc["records"][-1]["ratio"] == 2.0 ** 52
    code, out, err = run(capsys, "counterexample", "zoo:d1d2", "--N", huge, "--rungs", "64")
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err == "error: --rungs must lie in [1, 52]\n"


def test_analyze_refuses_a_cutoff_below_the_svd_rounding(capsys):
    # at 3e-16 curl was reported NonConstantRank, exit 3, with a witness whose
    # pseudoinverse bound "held"
    code, out, err = run(capsys, "analyze", "zoo:curl", "--tol", "3e-16", "--samples", "20000")
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err == "error: tol must lie in [1.42e-14, 1)\n"


def test_counterexample_windowed_reports_smaller_growth(capsys):
    # localized witnesses measure below the single-mode closed form at this
    # width, so the default factor is not reached
    code, doc, _ = run_json(capsys, "counterexample", "zoo:wave", "--window", "0.9")
    assert code == EXIT_CHECK_FAILED
    assert 0 < doc["growth"] < 4
    assert doc["parameters"]["window"] == 0.9


# at N = 256 and p = 3 the three rungs grow by 1.196, so that grid asks for less
@pytest.mark.parametrize("size, factor", [(32, "1.25"), (256, "1.1")])
@pytest.mark.parametrize("p", ["2", "3"])
def test_windowed_counterexample_ratios_are_those_of_the_witness_family(capsys, p, size,
                                                                        factor):
    # the command builds and measures one rung at a time, at p = 2 one slab of it at a
    # time (one slab at N = 32, sixteen at 256); the ratios are bitwise those of
    # witness_family's whole list
    code, doc, _ = run_json(capsys, "counterexample", "zoo:wave", "--N", str(size), "--rungs",
                            "3", "--window", "0.5", "--factor", factor, "--p", p)
    assert code == EXIT_OK
    op = zoo_get("wave")
    ladder = [tuple(freq) for freq in doc["ladder"]]
    fields = experiments.witness_family(op, ladder, spectral.Grid(2, size), 0.5)
    expected = [experiments.estimate_ratio(op, phi, float(p)) for phi in fields]
    assert [record["ratio"] for record in doc["records"]] == expected


def windowed_ladder_peak(capsys, rungs):
    argv = ("counterexample", "zoo:d1d2", "--N", "256", "--rungs", str(rungs), "--window", "0.5",
            "--factor", "0.5")
    assert main(list(argv)) == EXIT_OK
    tracemalloc.start()
    try:
        assert main(list(argv)) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        capsys.readouterr()


def test_windowed_ladder_holds_one_witness_field(capsys):
    # each rung's field is measured before the next is built, so six rungs peak
    # within one field of one rung (d1d2 has one complex fiber)
    field_bytes = 16 * 256 ** 2
    assert windowed_ladder_peak(capsys, 6) <= windowed_ladder_peak(capsys, 1) + field_bytes


def test_windowed_ladder_at_p2_holds_no_field_of_the_grid(capsys):
    # at p = 2 each rung's witness is built and measured one slab at a time beside the
    # cached tables, so six rungs from warm tables peak below one complex N^n field
    # (d1d2 has one fiber), where a whole witness and its weights took three of them
    assert windowed_ladder_peak(capsys, 6) < 16 * 256 ** 2


@pytest.mark.parametrize("p", ["2", "3"])
@pytest.mark.parametrize("name", ["d1d2", "wave"])
def test_windowed_ladder_memory_estimate_bounds_its_peak(capsys, monkeypatch, name, p):
    # a windowed ladder from empty mesh-table caches, on a grid large enough that
    # numpy's iteration buffers and Python objects, which the estimate leaves out,
    # are small beside the fields: its traced peak stays within the estimate its
    # whole-mesh spectrum refuses by, and the largest estimate made on the way, the
    # one that would refuse it, stays within three times that peak
    estimates = []
    monkeypatch.setattr(spectral, "_refuse_beyond_memory",
                        lambda needed, subject, purpose: estimates.append(needed()))
    argv = ["counterexample", f"zoo:{name}", "--N", "256", "--rungs", "4", "--window", "0.5",
            "--factor", "0.5", "--p", p]

    def ladder():
        spectral._symbol_tensor.cache_clear()
        spectral._kernel_projector_table.cache_clear()
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    ladder()  # imports and first-call caches, which the estimate does not count
    estimates.clear()
    peak = ladder()
    assert peak <= max(estimates) <= 3 * peak


def test_counterexample_unresolvable_rungs_exit_one(capsys):
    # 4 rungs reach frequency 16, which needs N >= 64
    code, _, err = run(capsys, "counterexample", "zoo:d1d2", "--N", "16")
    assert code == EXIT_INPUT_ERROR
    assert "unresolvable" in err


def test_counterexample_is_deterministic(capsys):
    _, first, _ = run(capsys, "counterexample", "zoo:wave")
    _, second, _ = run(capsys, "counterexample", "zoo:wave")
    assert first == second


# ------------------------------------------------------------------ minimality

def test_minimality_divergence_passes(capsys):
    code, doc, _ = run_json(capsys, "minimality", "zoo:divergence")
    assert code == EXIT_OK
    assert doc["all_pass"] is True
    assert len(doc["results"]) == 10
    assert doc["grid_size"] == 16


def test_minimality_gradient_trivial_kernel(capsys):
    code, doc, _ = run_json(capsys, "minimality", "zoo:gradient", "--trials", "3",
                            "--N", "8", "--kernel-trials", "4")
    assert code == EXIT_OK
    assert doc["all_pass"] is True


@pytest.mark.parametrize("counts", [("--trials", "0"), ("--trials", "1", "--kernel-trials", "0"),
                                    # the counts are checked before the band route is sized
                                    ("--N", str(2 ** 600), "--kernel-trials", "0")])
def test_minimality_rejects_empty_work(capsys, counts):
    code, out, err = run(capsys, "minimality", "zoo:divergence", "--N", "8", *counts)
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith("error:") and "trials" in err
    assert err == f"error: {counts[-2]} must be at least 1\n"


def test_out_of_memory_is_a_one_line_error(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError("Unable to allocate 2.40 GiB for an array with shape (3, 3, 256, 256, 256)")

    monkeypatch.setattr(cli, "cmd_zoo", exhausted)
    code, out, err = run(capsys, "zoo")
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1


def test_svd_without_convergence_is_an_input_error(capsys, monkeypatch):
    # the Jacobi kernel raises LinAlgError, a ValueError, at its sweep cap
    monkeypatch.setattr(pinv, "_MAX_SWEEPS", 1)
    code, out, err = run(capsys, "analyze", "zoo:curl", "--samples", "16")
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith("error: Jacobi SVD did not converge") and err.count("\n") == 1


def test_grid_beyond_physical_memory_is_refused(capsys, monkeypatch):
    # the band route of verify at p = 2 needs about 36 kB for curl on 8^3
    monkeypatch.setattr(pinv, "_physical_memory", lambda: 10 ** 4)
    code, out, err = run(capsys, "verify", "zoo:curl", "--N", "8", "--trials", "1")
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith("error: out of memory: curl on a 8^3 grid needs about")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["analyze", "counterexample"])
def test_sphere_sweep_beyond_physical_memory_is_refused(capsys, tmp_path, command):
    # 2^40 sign vectors of a 40-variable operator: refused up front, not killed
    doc = {"name": "x40", "n": 40, "k": 1, "dimV": 1, "dimW": 1,
           "terms": [{"alpha": [1] + [0] * 39, "matrix": [[1.0]]}]}
    path = tmp_path / "x40.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err.startswith("error: out of memory: x40: a sphere sweep of") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("verify", "zoo:curl", "--N", str(2 ** 400), "--trials", "1"),
    ("minimality", "zoo:curl", "--N", str(2 ** 400), "--trials", "1"),
    # an exact rung needs nothing of size N^n at any p; a windowed one needs the mesh
    ("counterexample", "zoo:d1d2", "--N", str(2 ** 600), "--rungs", "3", "--window", "0.5"),
    ("analyze", "zoo:curl", "--samples", str(2 ** 1100))], ids=lambda argv: argv[0])
def test_estimate_beyond_a_float_is_refused(capsys, argv):
    # sizes argparse accepts whose byte counts overflow a float are too large, not a traceback
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err.startswith("error: out of memory:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "minimality"])
def test_huge_order_in_one_dimension_is_refused(tmp_path, command):
    # d^(2^62 + 5) has one derivative fiber, but forming its monomials took a loop of
    # about 2^62 powers: run in a child, so that a hang fails the test at its timeout
    path = tmp_path / "huge.json"
    path.write_text(one_term_document([2 ** 62 + 5]))
    env = dict(os.environ, PYTHONPATH=str(Path(symrank.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "symrank", command, str(path), "--N", "8"],
                          capture_output=True, text=True, env=env, timeout=30)
    assert done.returncode == EXIT_INPUT_ERROR and done.stdout == ""
    assert done.stderr.startswith("error: out of memory:") and done.stderr.count("\n") == 1


def test_grid_route_beyond_a_float_is_refused(capsys):
    # at p != 2 the band route's grid buffers join the estimate, whose count of
    # N^n points then overflows a float
    code, out, err = run(capsys, "verify", "zoo:curl", "--N", str(2 ** 400), "--trials", "1",
                         "--p", "3")
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err.startswith("error: out of memory:") and err.count("\n") == 1


@pytest.mark.parametrize("p", ["2", "3", "inf"])
def test_exact_counterexample_runs_on_a_grid_beyond_a_float(capsys, p):
    # each exact rung is one coefficient at one frequency, whose ratio is the
    # same at every p, so the grid size and p only label the records
    ladder = ("counterexample", "zoo:d1d2", "--rungs", "3", "--factor", "3")
    code, huge, _ = run_json(capsys, *ladder, "--N", str(2 ** 600), "--p", p)
    assert code == EXIT_OK
    _, small, _ = run_json(capsys, *ladder, "--N", "256")
    assert huge["grid_sizes"] == [2 ** 600] and small["grid_sizes"] == [256]
    assert all(r["grid_size"] == 2 ** 600 for r in huge["records"])
    assert huge["p"] == (float(p) if p != "inf" else "inf") and small["p"] == 2.0
    for doc in (huge, small):
        del doc["grid_sizes"], doc["p"], doc["notes"]
        for record in doc["records"]:
            del record["grid_size"]
    assert huge == small


@pytest.mark.parametrize("window", [(), ("--window", "0.5")], ids=["exact", "windowed"])
def test_a_rung_beyond_the_band_is_named_before_the_grid_is_sized(capsys, window):
    # d1d2's rung (1, -2^39) lies beyond N/4 = 2^38: a windowed ladder sized its
    # 2^40-point mesh first and read as out of memory, where the exact one named it
    code, out, err = run(capsys, "counterexample", "zoo:d1d2", "--N", str(2 ** 40),
                         "--rungs", "52", *window)
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err == (f"error: frequency (1, {-2 ** 39}) unresolvable on grid size {2 ** 40} "
                   f"(|xi|_inf must be <= {2 ** 38})\n")


@pytest.mark.parametrize("size", [2 ** 600, 2 ** 40])
def test_verify_at_p2_runs_on_a_grid_beyond_memory(capsys, size):
    # a p = 2 ratio reads only the band's primaries, so a band of one on a grid
    # that could not be held, or whose index count overflows a C long, still runs:
    # curl recovers |xi| |phi - P_A phi| exactly, so every ratio is 1
    code, doc, err = run_json(capsys, "verify", "zoo:curl", "--N", str(size), "--trials", "2",
                              "--max-freq", "1")
    assert code == EXIT_OK and err == ""
    assert doc["grid_sizes"] == [size] and len(doc["records"]) == 2
    assert all(abs(record["ratio"] - 1) <= 1e-9 for record in doc["records"])
    # at p = 3 the same band needs the grid's values, and the grid is refused
    code, out, err = run(capsys, "verify", "zoo:curl", "--N", str(size), "--trials", "1",
                         "--max-freq", "1", "--p", "3")
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err.startswith("error: out of memory:") and err.count("\n") == 1


def test_tables_are_looked_up_before_any_field_is_allocated(capsys, monkeypatch):
    # an oversized grid is refused before the first random draw or witness family
    monkeypatch.setattr(pinv, "_physical_memory", lambda: 10 ** 4)
    allocations = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            allocations.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((spectral, "_band_draw"), (spectral, "_random_coefficients"),
                         (experiments, "_witness_fields")):
        counted(module, name)
    for argv in (("verify", "zoo:curl", "--N", "8", "--trials", "1"),
                 ("verify", "zoo:curl", "--N", "8", "--trials", "1", "--p", "3"),
                 ("minimality", "zoo:curl", "--N", "8", "--trials", "1"),
                 ("counterexample", "zoo:d1d2")):
        spectral._symbol_tensor.cache_clear()
        spectral._kernel_projector_table.cache_clear()
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err.startswith("error: out of memory:")
        assert allocations == [], argv


@pytest.mark.parametrize("argv", [
    ("verify", "zoo:curl", "--N", "16", "--trials", "2"),
    ("verify", "zoo:curl", "--N", "16", "--trials", "2", "--p", "3"),
    ("verify", "zoo:symmetric_gradient", "--N", "32", "--trials", "2", "--p", "inf"),
    ("minimality", "zoo:curl", "--N", "8", "--trials", "2", "--kernel-trials", "2"),
    ("counterexample", "zoo:d1d2", "--N", "64"),
    ("counterexample", "zoo:wave", "--N", "64", "--p", "3")])
def test_verify_and_minimality_build_no_mesh_table(capsys, monkeypatch, argv):
    # random fields are drawn, projected and measured on the band, and an exact
    # witness rung on its one frequency: neither the N^n symbol table nor the
    # N^n projector table is built or looked up
    calls = []
    for name in ("_symbol_tensor", "_kernel_projector_table"):
        original = getattr(spectral, name)

        def wrapper(*args, name=name, original=original):
            calls.append(name)
            return original(*args)
        for module in (spectral, experiments, cli):
            monkeypatch.setattr(module, name, wrapper, raising=False)
    code, _, _ = run_json(capsys, *argv)
    assert code == EXIT_OK
    assert calls == []


def test_verify_band_below_n_over_4_gives_ratio_one(capsys):
    # the band's tables do not depend on the grid: a band of 2 on a
    # 32^3 grid measures curl's p = 2 ratio of exactly 1
    code, doc, _ = run_json(capsys, "verify", "zoo:curl", "--N", "32", "--max-freq", "2",
                            "--trials", "4")
    assert code == EXIT_OK and doc["parameters"]["max_freq"] == 2
    assert len(doc["records"]) == 4
    assert all(abs(r["ratio"] - 1.0) <= 1e-9 for r in doc["records"])


@pytest.mark.parametrize("max_freq", ["5", "0", "-1"])
def test_verify_band_outside_one_to_n_over_4_exits_one_before_any_draw(capsys, monkeypatch,
                                                                         max_freq):
    draws = []
    original = spectral._band_draw
    monkeypatch.setattr(spectral, "_band_draw", lambda *args: draws.append(args) or original(*args))
    code, out, err = run(capsys, "verify", "zoo:curl", "--N", "16", "--max-freq", max_freq)
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err == "error: max_freq must lie in [1, 4] on this grid\n"
    assert draws == []


def test_minimality_makes_no_transforms(capsys, monkeypatch):
    calls = []
    for name in ("forward_transform", "inverse_transform", "_inverse"):
        original = getattr(spectral, name)

        def wrapper(*args, name=name, original=original):
            calls.append(name)
            return original(*args)
        for module in (spectral, experiments):
            monkeypatch.setattr(module, name, wrapper, raising=False)
    code, doc, _ = run_json(capsys, "minimality", "zoo:curl", "--N", "8", "--trials", "3",
                            "--kernel-trials", "2")
    assert code == EXIT_OK and doc["all_pass"] is True
    assert calls == []


@pytest.mark.parametrize("window, exit_code, expected", [
    ((), EXIT_CHECK_FAILED, []),
    (("--window", "0.5", "--factor", "1.25"), EXIT_OK, ["_bump_coefficients"]),
    (("--p", "3"), EXIT_CHECK_FAILED, [])])
def test_counterexample_transforms_only_the_window(capsys, monkeypatch, window, exit_code,
                                                   expected):
    # witnesses are built as coefficients: an exact ladder makes no transform at
    # any p, and a windowed one transforms its bump's one-axis profile once per
    # family and no field of the grid (the exact ladder grows 3.92 over three
    # rungs, short of the default factor 4)
    calls = []
    for name in ("forward_transform", "inverse_transform", "_inverse", "_bump_coefficients"):
        original = getattr(spectral, name)

        def wrapper(*args, name=name, original=original):
            calls.append(name)
            return original(*args)
        for module in (spectral, experiments):
            monkeypatch.setattr(module, name, wrapper, raising=False)
    code, _, _ = run_json(capsys, "counterexample", "zoo:wave", "--N", "32", "--rungs", "3",
                          *window)
    assert code == exit_code
    assert calls == expected


def scaled_document(tmp_path, name: str, c: float):
    doc = json.loads(serialize_operator(zoo_get(name)))
    for term in doc["terms"]:
        term["matrix"] = [[c * x for x in row] for row in term["matrix"]]
    path = tmp_path / f"{name}-{c:g}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("c", [1e-200, 1e-12, 1.0, 1e12, 1e200])
def test_rescaling_the_operator_changes_no_verdict_growth_or_exit_code(tmp_path, capsys, c):
    # every zero decision is relative to the symbol's own scale: c * A gives
    # ratios / c and the same exclusions, verdicts, growth and exit codes
    verify = ("--N", "8", "--trials", "3", "--p", "3")
    _, unscaled, _ = run_json(capsys, "verify", "zoo:divergence", *verify)
    code, doc, _ = run_json(capsys, "verify", scaled_document(tmp_path, "divergence", c), *verify)
    assert code == EXIT_OK and doc["excluded"] == 0
    assert doc["max_ratio"] * c == pytest.approx(unscaled["max_ratio"], rel=1e-12)
    d1d2 = scaled_document(tmp_path, "d1d2", c)
    code, doc, _ = run_json(capsys, "analyze", d1d2)
    assert code == EXIT_NON_CONSTANT_RANK and doc["verdict"] == "NonConstantRank"
    _, unscaled, _ = run_json(capsys, "counterexample", "zoo:d1d2")
    code, doc, _ = run_json(capsys, "counterexample", d1d2)
    assert code == EXIT_OK
    assert doc["ladder"] == unscaled["ladder"]
    assert doc["growth"] == pytest.approx(unscaled["growth"], rel=1e-12)


@pytest.mark.parametrize("c", [1e-200, 1e200])
def test_analyze_finds_the_rank_drop_at_extreme_scales(tmp_path, capsys, c):
    # the scalar symbol's |a| must neither underflow nor overflow into rank 0
    code, doc, _ = run_json(capsys, "analyze", scaled_document(tmp_path, "d1d2", c))
    assert code == EXIT_NON_CONSTANT_RANK and doc["verdict"] == "NonConstantRank"
    assert (doc["min_rank"], doc["max_rank"]) == (0, 1)


# ------------------------------------------------------------------ zoo

def test_zoo_lists_all_operators(capsys):
    code, doc, _ = run_json(capsys, "zoo")
    assert code == EXIT_OK
    names = [row["name"] for row in doc["operators"]]
    assert names == [entry.name for entry in zoo_list()]
    assert len(names) == 8
    verdicts = {row["name"]: row["expected_verdict"] for row in doc["operators"]}
    assert verdicts["curl"] == "ConstantRank"
    assert verdicts["wave"] == "NonConstantRank"


# ------------------------------------------------------------------ argv, generated
# Every command with generated option values, valid and invalid, and stray
# tokens: main returns a documented exit code or argparse exits with 2, never
# anything else.  Sizes stay small (N <= 16, trials <= 3, rungs <= 4, samples
# <= 256) or are refused up front by the memory checks (samples >= 2^62, up to
# 2^1100, whose byte counts overflow a float), so no example starts a long run;
# size options are always given, since the defaults are larger.  N = 2^600 is
# refused wherever the grid must be held: by a windowed counterexample, by a
# p != 2 verify, and by minimality and by verify at its default band N/4.  A
# p = 2 verify with --max-freq, and an exact counterexample at any p, read no
# grid value, so there N only names the grid.

TESTS = Path(__file__).parent
SOURCES = ["zoo:curl", "zoo:d1d2", "zoo:gradient", "zoo:wave", "zoo:laplacian", "zoo:nope",
           "zoo:", str(TESTS / "lap_plus_d1d2.json"), str(TESTS / "missing.json"), str(TESTS)]
SIZES = {
    "--N": ["4", "8", "16", "0", "-8", "6", "abc", "1e1", str(2 ** 600)],
    "--trials": ["1", "3", "0", "-1", "x"],
    "--kernel-trials": ["1", "3", "0", "-2"],
    "--rungs": ["1", "2", "4", "0", "-1", "1100"],
    "--samples": ["0", "1", "64", "256", str(2 ** 62), str(2 ** 63), "-5", "1.5",
                  str(2 ** 1100)],
}
VALUES = {
    "--p": ["1", "2", "3", "inf", "1e400", "0.5", "nan", "-inf", "p"],
    # 5 lies beyond N/4 on every small N drawn, and is a band of 665 primaries in 3-D
    "--max-freq": ["1", "2", "4", "0", "-1", "5"],
    "--factor": ["0", "1", "2", "inf", "nan", "-1", "1e-300"],
    "--window": ["0.5", "1", "0", "1.5", "nan", "-0.5", "1e-300"],
    "--seed": ["0", "7", "-1", str(2 ** 70), "s"],
    "--tol": ["1e-10", "0.5", "0", "1", "-1", "nan", "inf", "1e-300"],
}
OPTIONS = {
    "analyze": ["--samples", "--seed", "--tol"],
    "verify": ["--N", "--trials", "--p", "--max-freq", "--seed", "--tol"],
    "counterexample": ["--N", "--rungs", "--p", "--factor", "--window", "--seed", "--tol"],
    "minimality": ["--N", "--trials", "--kernel-trials", "--seed", "--tol"],
}
DOCUMENTED_EXITS = {EXIT_OK, EXIT_INPUT_ERROR, EXIT_NON_CONSTANT_RANK, EXIT_NO_RANK_DROP,
                    EXIT_CHECK_FAILED}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(OPTIONS) + ["zoo", "nope"]))
    argv = [command]
    if command in OPTIONS:
        if draw(st.integers(0, 9)):
            argv.append(draw(st.sampled_from(SOURCES)))
        for option in OPTIONS[command]:
            if option in SIZES:
                argv += [option, draw(st.sampled_from(SIZES[option]))]
            elif draw(st.booleans()):
                argv += [option, draw(st.sampled_from(VALUES[option]))]
    if not draw(st.integers(0, 9)):
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(["--bogus", "extra", "--N", "-h"])))
    return argv


@given(command_lines())
# a draw that once ended in a traceback: the p = 2 band route built grid indices
@example(["verify", "zoo:curl", "--N", str(2 ** 600), "--trials", "1", "--max-freq", "1"])
# and one whose ladder overflowed int64 on the way to float frequencies
@example(["counterexample", "zoo:d1d2", "--rungs", "1100"])
@settings(max_examples=150, deadline=None)
def test_generated_command_lines_exit_with_documented_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse: a usage error, or -h printing the help
            assert exc.code in (0, 2), argv
            return
    assert code in DOCUMENTED_EXITS, argv
    if code == EXIT_INPUT_ERROR:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
