import json

import pytest

from symrank import cli, experiments, spectral
from symrank.cli import (EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_NO_RANK_DROP,
                         EXIT_NON_CONSTANT_RANK, EXIT_OK, main)
from symrank.operators import serialize_operator
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
], ids=["out-is-a-directory", "csv-in-missing-directory"])
def test_unwritable_output_path_is_a_one_line_error(tmp_path, capsys, argv):
    code, _, err = run(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("error: ") and err.count("\n") == 1


def test_invalid_p_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "zoo:divergence", "--p", "0.5"])
    assert excinfo.value.code == 2


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


def test_verify_inf_p_and_csv(tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    code, doc, _ = run_json(capsys, "verify", "zoo:laplacian", "--p", "inf", "--N", "8",
                            "--trials", "3", "--csv", str(csv))
    assert code == EXIT_OK
    assert doc["p"] == "inf"
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "index,grid_size,detail,ratio"
    assert len(lines) == 4


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


def test_counterexample_windowed_reports_smaller_growth(capsys):
    # localized witnesses measure below the single-mode closed form at this
    # width, so the default factor is not reached
    code, doc, _ = run_json(capsys, "counterexample", "zoo:wave", "--window", "0.9")
    assert code == EXIT_CHECK_FAILED
    assert 0 < doc["growth"] < 4
    assert doc["parameters"]["window"] == 0.9


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


@pytest.mark.parametrize("counts", [("--trials", "0"), ("--trials", "1", "--kernel-trials", "0")])
def test_minimality_rejects_empty_work(capsys, counts):
    code, out, err = run(capsys, "minimality", "zoo:divergence", "--N", "8", *counts)
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith("error:") and "trials" in err


def test_out_of_memory_is_a_one_line_error(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError("Unable to allocate 2.40 GiB for an array with shape (3, 3, 256, 256, 256)")

    monkeypatch.setattr(cli, "cmd_zoo", exhausted)
    code, out, err = run(capsys, "zoo")
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1


def test_grid_beyond_physical_memory_is_refused(capsys, monkeypatch):
    monkeypatch.setattr(spectral, "_physical_memory", lambda: 10 ** 5)
    spectral._symbol_tensor.cache_clear()
    spectral._kernel_projector_table.cache_clear()
    code, out, err = run(capsys, "verify", "zoo:curl", "--N", "8", "--trials", "1")
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith("error: out of memory: curl on a 8^3 grid needs about")
    assert err.count("\n") == 1


def test_tables_are_looked_up_before_any_field_is_allocated(capsys, monkeypatch):
    # an oversized grid is refused before the first random draw or witness mode
    monkeypatch.setattr(spectral, "_physical_memory", lambda: 10 ** 5)
    allocations = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            allocations.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((experiments, "_random_coefficients"), (experiments, "single_mode"),
                         (cli, "_random_coefficients")):
        counted(module, name)
    for argv in (("verify", "zoo:curl", "--N", "8", "--trials", "1"),
                 ("minimality", "zoo:curl", "--N", "8", "--trials", "1"),
                 ("counterexample", "zoo:d1d2")):
        spectral._symbol_tensor.cache_clear()
        spectral._kernel_projector_table.cache_clear()
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err.startswith("error: out of memory:")
        assert allocations == [], argv


def test_minimality_makes_no_transforms(capsys, monkeypatch):
    calls = []
    for name in ("forward_transform", "inverse_transform"):
        original = getattr(spectral, name)

        def wrapper(field, name=name, original=original):
            calls.append(name)
            return original(field)
        for module in (spectral, experiments):
            monkeypatch.setattr(module, name, wrapper)
    code, doc, _ = run_json(capsys, "minimality", "zoo:curl", "--N", "8", "--trials", "3",
                            "--kernel-trials", "2")
    assert code == EXIT_OK and doc["all_pass"] is True
    assert calls == []


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
