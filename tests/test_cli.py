"""Command-line interface: flows, exit codes, formats, config files."""

from __future__ import annotations

import json

import pytest

from rsstest import NullDistribution, PowerTable
from rsstest import TestResult as RankingTestResult
from rsstest.cli import EXIT_DATA, EXIT_OK, EXIT_REJECT, EXIT_USAGE, main


@pytest.fixture
def nested_csv(tmp_path):
    # slot rows strictly separated once read cycles-as-rows: nothing to reject
    path = tmp_path / "nested.csv"
    path.write_text("1,4\n2,3\n")
    return path


@pytest.fixture
def inverted_csv(tmp_path):
    # fully inverted 2x2 sample: PA = 8
    path = tmp_path / "inverted.csv"
    path.write_text("5,1\n6,2\n")
    return path


@pytest.fixture
def tied_csv(tmp_path):
    path = tmp_path / "tied.csv"
    path.write_text("1,4\n2,4\n")
    return path


# ---------------------------------------------------------------------------
# test subcommand
# ---------------------------------------------------------------------------


def test_cmd_test_accepts_nested(nested_csv, capsys):
    code = main(["test", "--stat", "PA", "--alpha", "0.05",
                 "--layout", "cycles-as-rows", str(nested_csv)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "p-value: 1.00000" in out
    assert "decision: acceptNull" in out


def test_cmd_test_rejects_inverted(inverted_csv, capsys):
    code = main(["test", "--stat", "PA", "--alpha", "0.05",
                 "--layout", "cycles-as-rows", str(inverted_csv)])
    out = capsys.readouterr().out
    assert code == EXIT_REJECT
    assert "critical value: 6" in out
    assert "0.04127" in out
    assert "decision: reject" in out


def test_cmd_test_wstar_lower_tail(nested_csv, capsys):
    code = main(["test", "--stat", "Wstar", "--layout", "cycles-as-rows", str(nested_csv)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "tail: lower" in out


def test_cmd_test_json_round_trips(inverted_csv, tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code = main(["test", "--stat", "PA", "--layout", "cycles-as-rows",
                 "--format", "json", "--output", str(out_path), str(inverted_csv)])
    assert code == EXIT_REJECT
    doc = json.loads(out_path.read_text())
    result = RankingTestResult.from_json_dict(doc)
    assert result.observed == 8
    assert doc["cli"]["layout"] == "cycles-as-rows"
    assert doc["null"]["method"] == "exact"  # no seed needed to reproduce


def test_cmd_test_generated_seed_embedded_when_needed(inverted_csv, tmp_path):
    out_path = tmp_path / "result.json"
    code = main(["test", "--stat", "PA", "--layout", "cycles-as-rows",
                 "--randomized", "--format", "json", "--output", str(out_path),
                 str(inverted_csv)])
    assert code == EXIT_REJECT
    doc = json.loads(out_path.read_text())
    assert doc["cli"]["seed"] is not None and doc["cli"]["seed_generated"]


def test_cmd_test_tie_is_data_error(tied_csv, capsys):
    code = main(["test", "--stat", "PA", "--layout", "cycles-as-rows", str(tied_csv)])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert "tied value" in err


def test_cmd_test_missing_layout_is_usage_error(nested_csv, capsys):
    code = main(["test", "--stat", "PA", str(nested_csv)])
    assert code == EXIT_USAGE
    assert "--layout" in capsys.readouterr().err


def test_cmd_test_bad_stat_is_usage_error(nested_csv, capsys):
    code = main(["test", "--stat", "PB", "--layout", "cycles-as-rows", str(nested_csv)])
    assert code == EXIT_USAGE


def test_cmd_test_exact_cap_refusal(tmp_path, capsys):
    rows = "\n".join(",".join(str(100 * l + i) for i in range(5)) for l in range(3))
    path = tmp_path / "big.csv"
    path.write_text(rows)
    code = main(["test", "--stat", "PA", "--layout", "cycles-as-rows",
                 "--null", "exact", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert "exact" in err and "cap" in err


def test_cmd_test_exact_cap_refusal_names_the_mc_flag(tmp_path, capsys):
    # a 3x3 sample above the default cap of 8
    path = tmp_path / "three_by_three.csv"
    path.write_text("0.3,1.1,2.7\n1.5,0.9,2.2\n0.8,2.6,1.4\n")
    code = main(["test", "--layout", "cycles-as-rows", "--null", "exact",
                 "--exact-cap", "8", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert "--null mc" in err
    assert "--exact-cap 9" in err


def test_cmd_test_randomized_runs(inverted_csv, capsys):
    code = main(["test", "--stat", "PA", "--layout", "cycles-as-rows",
                 "--randomized", "--seed", "7", str(inverted_csv)])
    assert code == EXIT_REJECT
    assert "seed: 7" in capsys.readouterr().out


def test_cmd_test_mc_null(inverted_csv, capsys):
    code = main(["test", "--stat", "PA", "--layout", "cycles-as-rows",
                 "--null", "mc", "--null-reps", "3000", "--seed", "9", str(inverted_csv)])
    out = capsys.readouterr().out
    assert code == EXIT_REJECT
    assert "monte-carlo" in out


def test_cmd_test_mc_null_seed_falls_back_to_master_seed(inverted_csv, capsys):
    argv = ["test", "--stat", "PA", "--layout", "cycles-as-rows", "--null", "mc",
            "--null-reps", "2000", "--seed", "9", "--format", "json", str(inverted_csv)]
    main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert doc["null"]["method"] == "monte-carlo"
    assert doc["null"]["seed"] == 9
    main(argv + ["--null-seed", "4"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["null"]["seed"] == 4
    assert doc["cli"]["seed"] == 9


# ---------------------------------------------------------------------------
# null-table subcommand
# ---------------------------------------------------------------------------


def test_cmd_null_table_matches_published_pairs(capsys):
    code = main(["null-table", "--stat", "PA", "--k", "2..3", "--n", "2..3",
                 "--alphas", "0.05,0.10", "--exact-cap", "9"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    # the selected (CV, level) pairs from the published table
    for line in [
        "k=2 n=2 alpha=0.05: CV 6 level 0.04127",
        "k=2 n=2 alpha=0.10: CV 6 level 0.04127",
        "k=3 n=2 alpha=0.05: CV 20 level 0.03995",
        "k=3 n=2 alpha=0.10: CV 18 level 0.05101",
        "k=2 n=3 alpha=0.05: CV 12 level 0.02587",
        "k=2 n=3 alpha=0.10: CV 10 level 0.05527",
        "k=3 n=3 alpha=0.05: CV 54 level 0.04707",
        "k=3 n=3 alpha=0.10: CV 46 level 0.09855",
    ]:
        assert line in out, line


def test_cmd_null_table_downgrades_with_warning(capsys):
    code = main(["null-table", "--stat", "PA", "--k", "5", "--n", "2",
                 "--alphas", "0.05", "--reps", "5000", "--seed", "4"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "exceeds the exact cap" in captured.err
    assert "*" in captured.out  # Monte Carlo rows are starred


def test_cmd_null_table_large_grid_mc_level(capsys):
    # at k=n=5 and 1e5 reps the chosen cv carries a level close to 0.05
    # (published: CV 11394, level .04994)
    code = main(["null-table", "--stat", "PA", "--k", "5", "--n", "5",
                 "--alphas", "0.05", "--reps", "100000", "--seed", "20260808",
                 "--threads", "2", "--format", "json"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    row = json.loads(captured.out)["rows"][0]
    assert row["provenance"] == "monte-carlo"
    assert abs(row["cv"] - 11394) <= 40  # support near the tail is spaced by ~2
    assert abs(float(row["attained_level"]) - 0.04994) <= 4 * (0.05 * 0.95 / 100000) ** 0.5


def test_cmd_null_table_alpha_one(capsys):
    code = main(["null-table", "--stat", "PA", "--k", "2", "--n", "2", "--alphas", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "CV 0 level 1.00000" in out


def test_cmd_null_table_csv_and_json(tmp_path, capsys):
    out_path = tmp_path / "table.json"
    code = main(["null-table", "--stat", "PA", "--k", "2", "--n", "2",
                 "--alphas", "0.05", "--format", "json", "--output", str(out_path)])
    assert code == EXIT_OK
    doc = json.loads(out_path.read_text())
    assert doc["rows"][0]["cv"] == 6
    capsys.readouterr()
    code = main(["null-table", "--stat", "PA", "--k", "2", "--n", "2",
                 "--alphas", "0.05", "--format", "csv"])
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "kind,k,n,alpha,cv,attained_level,gamma,boundary,provenance"


def test_cmd_null_table_exact_grids_need_no_seed(capsys):
    code = main(["null-table", "--stat", "PA", "--k", "2", "--n", "2..3",
                 "--alphas", "0.05", "--format", "json"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    config = json.loads(captured.out)["config"]
    assert config["seed"] is None and config["seed_generated"] is False
    assert "exceeds the exact cap" not in captured.err


def test_cmd_null_table_requires_grids(capsys):
    assert main(["null-table", "--stat", "PA"]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# power subcommand
# ---------------------------------------------------------------------------


def test_cmd_power_runs_and_emits_csv(tmp_path, capsys):
    out_path = tmp_path / "power.csv"
    code = main(["power", "--k", "2", "--n", "3", "--model", "random:0.5",
                 "--lambdas", "0,0.5", "--stats", "PA,N_sum", "--reps", "2000",
                 "--seed", "5", "--format", "csv", "--output", str(out_path)])
    assert code == EXIT_OK
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "kind,0,0.5"
    assert len(lines) == 3


def test_cmd_power_json_round_trips(tmp_path):
    out_path = tmp_path / "power.json"
    code = main(["power", "--k", "2", "--n", "2", "--model", "neighbor:1",
                 "--reps", "1000", "--seed", "5", "--format", "json",
                 "--output", str(out_path)])
    assert code == EXIT_OK
    doc = json.loads(out_path.read_text())
    table = PowerTable.from_json_dict(doc)
    assert table.study.seed == 5
    assert table.study.reps == 1000
    assert [c.lam for c in table.cells] == [1.0]


def test_cmd_power_model_parameter_is_default_grid(capsys):
    code = main(["power", "--k", "2", "--n", "2", "--model", "inverse:0.4",
                 "--reps", "500", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "lambda=0.4" in out


def test_cmd_power_empty_grid_usage_error(capsys):
    code = main(["power", "--k", "2", "--n", "2", "--model", "inverse",
                 "--reps", "500", "--seed", "2"])
    assert code == EXIT_USAGE
    assert "grid" in capsys.readouterr().err


def test_cmd_power_size_at_perfect_boundary(capsys):
    # concomitant at full correlation is perfect ranking: power ~ alpha
    code = main(["power", "--k", "2", "--n", "3", "--model", "concomitant:1.0",
                 "--reps", "20000", "--seed", "6", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    power = float(out.strip().splitlines()[1].split(",")[1])
    assert abs(power - 0.05) <= 4 * (0.05 * 0.95 / 20000) ** 0.5


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------


def test_cmd_verify_ok(capsys):
    code = main(["verify", "--seed", "1", "--instances", "20"])
    assert code == EXIT_OK
    assert "all checks passed" in capsys.readouterr().out


def test_cmd_verify_corrupt_fails(off_by_one_pa, capsys):
    code = main(["verify", "--seed", "1", "--instances", "10"])
    assert code == EXIT_REJECT
    assert "FAIL" in capsys.readouterr().out


def test_cmd_verify_seeded_rerun_identical(capsys):
    main(["verify", "--seed", "2", "--instances", "15"])
    first = capsys.readouterr().out
    main(["verify", "--seed", "2", "--instances", "15"])
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# config file and help
# ---------------------------------------------------------------------------


def test_config_file_supplies_defaults(nested_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("stat=PA\nalpha=0.05\nlayout=cycles-as-rows\n")
    code = main(["test", "--config", str(cfg), str(nested_csv)])
    assert code == EXIT_OK


def test_config_file_cli_overrides(inverted_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("stat=N_sum\nlayout=cycles-as-rows\n")
    code = main(["test", "--config", str(cfg), "--stat", "PA", str(inverted_csv)])
    out = capsys.readouterr().out
    assert "statistic PA" in out
    assert code == EXIT_REJECT


def test_config_file_unknown_key(nested_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("statistic=PA\n")
    code = main(["test", "--config", str(cfg), "--layout", "cycles-as-rows", str(nested_csv)])
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "--alpha", "1.5"],
        ["test", "--alpha", "abc"],
        ["test", "--alpha", "0"],
        ["null-table", "--k", "2", "--n", "2", "--alphas", "0.05,0"],
        ["null-table", "--k", "0..2", "--n", "2"],
        ["power", "--k", "2", "--n", "2", "--model", "neighbor:1", "--seed", "1", "--alpha", "0"],
        ["test", "--null-reps", "0", "--null", "mc"],
        ["test", "--threads", "0"],
        ["verify", "--instances", "0"],
        ["verify", "--instances", "-4"],
        ["verify", "--threads", "0"],
        ["power", "--k", "0", "--n", "2", "--model", "neighbor:1", "--seed", "1"],
        ["power", "--k", "2", "--n", "0", "--model", "neighbor:1", "--seed", "1"],
        # a bad grid value is refused wherever it sits in the grid
        ["power", "--k", "2", "--n", "2", "--model", "neighbor", "--lambdas", "2,0", "--seed", "1"],
        ["power", "--k", "2", "--n", "2", "--model", "neighbor", "--lambdas", "0,2", "--seed", "1"],
        ["power", "--k", "2", "--n", "2", "--model", "neighbor:0.5", "--lambdas", "0,2", "--seed", "1"],
    ],
)
def test_bad_flag_value_is_one_line_usage_error(argv, nested_csv, capsys):
    if argv[0] == "test":
        argv = argv + ["--layout", "cycles-as-rows", str(nested_csv)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("line", ["stat=PB", "null=bogus", "alpha=abc", "format=xml"])
def test_bad_config_value_meets_flag_choices(line, nested_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"layout=cycles-as-rows\n{line}\n")
    code = main(["test", "--config", str(cfg), str(nested_csv)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_flag_value_and_boolean(inverted_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("layout=cycles-as-rows\nrandomized=yes\nseed=-5\nnull-reps=2000\nnull=mc\n")
    code = main(["test", "--config", str(cfg), "--format", "json", str(inverted_csv)])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_REJECT
    assert doc["cli"]["randomized"] and doc["cli"]["seed"] == -5
    assert doc["null"] == {"method": "monte-carlo", "seed": -5, "reps": 2000}


def test_missing_data_file_is_data_error(tmp_path, capsys):
    code = main(["test", "--layout", "cycles-as-rows", str(tmp_path / "absent.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("error: cannot read") and err.count("\n") == 1


def test_exact_cap_above_opt_in_ceiling_is_refused(tmp_path, capsys):
    path = tmp_path / "three_by_four.csv"
    path.write_text("\n".join(",".join(str(10 * l + i) for i in range(3)) for l in range(4)))
    code = main(["test", "--layout", "cycles-as-rows", "--exact-cap", "12", str(path)])
    assert code == EXIT_DATA
    assert "cap of 10" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["11", "-1", "10"])
def test_exact_null_refusal_never_offers_an_impossible_cap(tmp_path, cap, capsys):
    # a cap outside 0..10 is refused when the null policy is built; at the
    # ceiling, a 5x4 grid is refused without advice to raise the cap
    path = tmp_path / "five_by_four.csv"
    path.write_text("\n".join(",".join(str(10 * l + i) for i in range(5)) for l in range(4)))
    code = main(["test", "--layout", "cycles-as-rows", "--null", "exact",
                 "--exact-cap", cap, str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert "cap of 10" in err and "raise the cap" not in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["test", "--help"]) == 0


def test_nulldist_json_reload_round_trip(tmp_path):
    # saved table reloads bit-exactly through the public schema
    from rsstest import exact_null_distribution, StatisticKind

    dist = exact_null_distribution(StatisticKind.PA, 2, 2)
    path = tmp_path / "dist.json"
    path.write_text(dist.to_json())
    assert NullDistribution.from_json(path.read_text()) == dist
