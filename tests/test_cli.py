import csv
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import discountcast as dc
from discountcast.cascade import load_realization
from discountcast.cli import main


runner = CliRunner()


def _report(stdout: str) -> dict:
    return json.loads(stdout)


def _invoke(args):
    res = runner.invoke(main, args, catch_exceptions=False)
    assert res.exit_code == 0, res.output
    return res


@pytest.fixture(scope="module")
def fig1_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    res = _invoke(["generate", "--name", "fig1", "--out", str(out)])
    return _report(res.stdout)["files"]


@pytest.fixture(scope="module")
def fig2_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2")
    res = _invoke(["generate", "--name", "fig2", "--out", str(out)])
    return _report(res.stdout)["files"]


def _instance_args(files, budget="2"):
    return [
        "--graph", files["graph"],
        "--adoption", files["adoption"],
        "--discounts", "1,2",
        "--budget", budget,
    ]


def test_generate_fig1_roundtrip(fig1_dir):
    inst = dc.Instance.from_files(fig1_dir["graph"], fig1_dir["adoption"], (1.0, 2.0))
    assert inst.graph.node_count == 5
    assert inst.graph.labels == ("a", "b", "c", "d", "e")
    assert len(inst.graph.edges) == 5


def test_generate_fig2_ships_a_replayable_realization(fig2_dir):
    inst = dc.Instance.from_files(fig2_dir["graph"], fig2_dir["adoption"], (1.0, 2.0))
    real = load_realization(fig2_dir["realization"], inst)
    assert real.seeding.min_rate_idx == (0, 1, 1, 0, 1)
    assert real.diffusion.live == (True, False, False, False, True)


def test_generate_worstcase_and_random(tmp_path):
    res = _invoke(["generate", "--name", "worstcase", "--nodes", "6", "--out", str(tmp_path / "w")])
    rep = _report(res.stdout)
    assert (rep["nodes"], rep["edges"]) == (6, 20)
    res = _invoke([
        "generate", "--name", "random", "--nodes", "30", "--edge-prob", "0.1",
        "--seed", "3", "--out", str(tmp_path / "r"),
    ])
    rep = _report(res.stdout)
    inst = dc.Instance.from_files(rep["files"]["graph"], rep["files"]["adoption"], rep["discounts"])
    assert inst.graph.node_count == 30
    assert len(inst.graph.edges) == rep["edges"]


def test_generate_random_rejects_zero_nodes(tmp_path):
    res = runner.invoke(main, [
        "generate", "--name", "random", "--nodes", "0", "--edge-prob", "0.1",
        "--out", str(tmp_path),
    ])
    assert res.exit_code != 0
    assert "node" in res.output


def test_nonadaptive_greedy_exact(fig1_dir, tmp_path):
    out = tmp_path / "report.json"
    res = _invoke(["nonadaptive", *_instance_args(fig1_dir), "--out", str(out)])
    rep = _report(res.stdout)
    assert rep["allocation"] == [["a", 2.0]]
    assert rep["value"] == pytest.approx(1.609, abs=1e-9)
    assert rep["cost"] == pytest.approx(2.0, abs=0)
    assert rep["radius"] == 0.0
    assert json.loads(out.read_text()) == rep


def test_nonadaptive_brute_agrees_with_greedy(fig1_dir):
    res = _invoke(["nonadaptive", *_instance_args(fig1_dir), "--algorithm", "brute-config"])
    rep = _report(res.stdout)
    assert rep["allocation"] == [["a", 2.0]]
    assert rep["value"] == pytest.approx(1.609, abs=1e-9)


def test_nonadaptive_brute_rejects_mc_evaluator(fig1_dir):
    res = runner.invoke(main, [
        "nonadaptive", *_instance_args(fig1_dir),
        "--algorithm", "brute-config", "--evaluator", "mc",
    ])
    assert res.exit_code != 0
    assert "exact" in res.output


def test_nonadaptive_mc_estimate_is_close(fig1_dir):
    res = _invoke([
        "nonadaptive", *_instance_args(fig1_dir),
        "--evaluator", "mc", "--samples", "20000", "--seed", "7",
    ])
    rep = _report(res.stdout)
    assert rep["value"] == pytest.approx(1.609, abs=0.1)
    assert rep["radius"] > 0


def test_adaptive_replays_stored_realization(fig2_dir, tmp_path):
    csv_path = tmp_path / "trajectory.csv"
    res = _invoke([
        "adaptive", *_instance_args(fig2_dir),
        "--realization", fig2_dir["realization"],
        "--trajectory-csv", str(csv_path),
    ])
    assert res.stderr.splitlines()[0] == "probe a 1 accept a->b:live a->c:blocked b->d:blocked"
    rep = _report(res.stdout)
    assert [(p["node"], p["accepted"]) for p in rep["probes"]] == [
        ("a", True), ("c", False), ("d", True),
    ]
    assert rep["cascade_size"] == 4
    assert rep["delivered_cost"] == pytest.approx(2.0, abs=0)
    assert rep["influenced"] == ["a", "b", "d", "e"]
    rows = list(csv.reader(csv_path.open()))
    assert rows[0] == ["probe", "node", "rate", "accepted", "newly_influenced", "revealed_edges"]
    assert rows[1] == ["1", "a", "1.0", "1", "a;b", "a->b:live;a->c:blocked;b->d:blocked"]
    assert rows[2] == ["2", "c", "1.0", "0", "", ""]
    assert rows[3] == ["3", "d", "1.0", "1", "d;e", "d->e:live"]


def test_adaptive_sampled_run_is_reproducible(fig1_dir):
    reports = []
    for _ in range(2):
        res = _invoke(["adaptive", *_instance_args(fig1_dir), "--seed", "21"])
        rep = _report(res.stdout)
        rep.pop("wall_time_s")
        reports.append(rep)
    assert reports[0] == reports[1]


def test_evaluate_exhaustive_matches_library(fig1_dir):
    res = _invoke(["evaluate", *_instance_args(fig1_dir), "--exhaustive"])
    rep = _report(res.stdout)
    inst = dc.fig1_instance()
    spec = dc.BudgetSpec(budget=2.0, mode="hard")
    want, _ = dc.evaluate_policy(dc.GreedyFactory(inst, spec), inst, spec, "exhaustive")
    assert rep["value"] == want
    assert rep["radius"] == 0.0
    assert rep["trials"] == "exhaustive"


def test_evaluate_default_estimator_failure_names_the_fix(tmp_path):
    res = _invoke([
        "generate", "--name", "random", "--nodes", "60", "--edge-prob", str(3 / 59),
        "--seed", "7", "--out", str(tmp_path),
    ])
    rep = _report(res.stdout)
    res = runner.invoke(main, [
        "evaluate", "--graph", rep["files"]["graph"], "--adoption", rep["files"]["adoption"],
        "--discounts", ",".join(str(r) for r in rep["discounts"]), "--budget", "1", "--trials", "4",
    ])
    assert res.exit_code != 0
    assert "--estimator mc" in res.output


def test_evaluate_report_ignores_worker_count(fig1_dir):
    reports = []
    for workers in ("1", "8"):
        res = _invoke([
            "evaluate", *_instance_args(fig1_dir),
            "--trials", "256", "--seed", "9", "--workers", workers,
        ])
        rep = _report(res.stdout)
        rep.pop("wall_time_s")
        reports.append(rep)
    assert reports[0] == reports[1]


def test_oracle_command(fig1_dir):
    res = _invoke(["oracle", *_instance_args(fig1_dir)])
    rep = _report(res.stdout)
    assert rep["value"] == pytest.approx(2.50125, abs=1e-9)
    assert rep["radius"] == 0.0


def test_config_file_fills_options_but_flags_win(fig1_dir, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "graph": fig1_dir["graph"],
        "adoption": fig1_dir["adoption"],
        "discounts": "1,2",
        "budget": 2,
        "algorithm": "brute-config",
    }))
    res = _invoke([
        "nonadaptive", "--config", str(cfg),
        "--algorithm", "nonadaptive-greedy",
    ])
    rep = _report(res.stdout)
    assert rep["algorithm"] == "nonadaptive-greedy"  # the flag beat the file
    assert rep["budget"] == 2.0
    assert rep["value"] == pytest.approx(1.609, abs=1e-9)


def test_config_values_are_validated_like_flags(fig1_dir, tmp_path):
    # config values are the command's defaults, so click checks their
    # choices exactly as it checks a typed flag, naming the option
    cfg = tmp_path / "bad_algo.json"
    cfg.write_text(json.dumps({"algorithm": "simulated-annealing"}))
    res = runner.invoke(main, ["nonadaptive", *_instance_args(fig1_dir), "--config", str(cfg)])
    assert res.exit_code != 0
    assert "'--algorithm': 'simulated-annealing' is not one of" in res.output
    cfg.write_text(json.dumps({"evaluator": "psychic"}))
    res = runner.invoke(main, ["nonadaptive", *_instance_args(fig1_dir), "--config", str(cfg)])
    assert res.exit_code != 0
    assert "'--evaluator': 'psychic' is not one of" in res.output


def test_config_values_are_typed_like_flags(fig1_dir, tmp_path):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({"samples": "10", "trials": "20", "estimator": "mc"}))
    by_file = _invoke(["evaluate", *_instance_args(fig1_dir), "--config", str(cfg)])
    by_flag = _invoke(["evaluate", *_instance_args(fig1_dir), "--samples", "10", "--trials", "20",
                       "--estimator", "mc"])
    reports = [_report(res.stdout) for res in (by_file, by_flag)]
    for rep in reports:
        rep.pop("wall_time_s")
    assert reports[0] == reports[1]
    assert reports[0]["samples"] == 10
    cfg.write_text(json.dumps({"samples": "ten", "estimator": "mc"}))
    res = runner.invoke(main, ["evaluate", *_instance_args(fig1_dir), "--config", str(cfg)])
    assert res.exit_code != 0
    assert isinstance(res.exception, SystemExit)  # a click error, not an uncaught exception
    assert res.exit_code == 2
    last = res.output.splitlines()[-1]
    assert last.startswith("Error: Invalid value for '--samples': 'ten' is not a valid integer")


def test_config_null_means_unset_and_discounts_may_be_a_list(fig1_dir, tmp_path):
    cfg = tmp_path / "run.json"
    files = {"graph": fig1_dir["graph"], "adoption": fig1_dir["adoption"]}
    cfg.write_text(json.dumps({**files, "discounts": "1,2", "budget": None}))
    res = runner.invoke(main, ["oracle", "--config", str(cfg)])
    assert res.exit_code == 2
    assert res.output.splitlines()[-1] == "Error: Missing option '--budget'."
    cfg.write_text(json.dumps({**files, "discounts": [1, 2], "budget": 2}))
    by_file = _invoke(["oracle", "--config", str(cfg)])
    by_flag = _invoke(["oracle", *_instance_args(fig1_dir)])
    reports = [_report(res.stdout) for res in (by_file, by_flag)]
    for rep in reports:
        rep.pop("wall_time_s")
    assert reports[0] == reports[1]
    assert reports[0]["discounts"] == [1.0, 2.0]


def test_help_shows_the_real_defaults():
    out = _invoke(["evaluate", "--help"]).output
    for option, default in [("--trials", "1000"), ("--workers", "1"), ("--estimator", "exact"),
                            ("--branch", "exhaustive"), ("--mode", "hard"), ("--seed", "0")]:
        entry = out[out.index(f"  {option} "):]
        entry = entry[:entry.index("\n  -")]
        assert f"default: {default}" in " ".join(entry.split()), entry


def test_malformed_menu_is_a_usage_error_naming_the_option(fig1_dir):
    res = runner.invoke(main, ["nonadaptive", *_instance_args(fig1_dir)[:4], "--discounts", "1,x", "--budget", "2"])
    assert res.exit_code == 2
    assert res.output.splitlines()[-1] == (
        "Error: Invalid value for '--discounts': '1,x' is not a comma-separated list of rates."
    )


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    res = runner.invoke(main, ["nonadaptive", "--config", str(cfg)])
    assert res.exit_code != 0
    assert "unknown config key: bogus" in res.output


def test_missing_input_file_is_reported_by_path(fig1_dir):
    res = runner.invoke(main, [
        "nonadaptive",
        "--graph", fig1_dir["graph"],
        "--adoption", "/nope/adoption.txt",
        "--discounts", "1,2",
        "--budget", "2",
    ])
    assert res.exit_code != 0
    assert "missing file: /nope/adoption.txt" in res.output


def test_missing_required_option_names_the_flag(fig1_dir):
    res = runner.invoke(main, [
        "nonadaptive",
        "--graph", fig1_dir["graph"],
        "--adoption", fig1_dir["adoption"],
        "--discounts", "1,2",
    ])
    assert res.exit_code != 0
    assert "--budget" in res.output


def test_version_flag():
    res = _invoke(["--version"])
    assert "discountcast" in res.output
