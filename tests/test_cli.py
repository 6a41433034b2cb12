"""The ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.world.network import ScenarioConfig


def test_protocols_lists_registry(capsys):
    assert main(["protocols"]) == 0
    out = capsys.readouterr().out.split()
    for name in ("rmac", "bmmm", "bmw", "lbp", "mx"):
        assert name in out


def test_run_prints_summary(capsys):
    code = main(["run", "--nodes", "12", "--width", "200", "--height", "140",
                 "--packets", "10", "--rate", "5", "--seed", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "delivery ratio" in out
    assert "rmac" in out


def test_run_mobile_flag(capsys):
    code = main(["run", "--nodes", "10", "--width", "180", "--height", "130",
                 "--packets", "5", "--speed", "8", "--pause", "2",
                 "--seed", "3"])
    assert code == 0


def test_fig4_prints_trace(capsys):
    assert main(["fig4"]) == 0
    out = capsys.readouterr().out
    assert "MRTS" in out and "rbt-on" in out and "abt-on" in out


def test_topology_reports_means(capsys):
    assert main(["topology", "--nodes", "40", "--placements", "2"]) == 0
    out = capsys.readouterr().out
    assert "avg_hops" in out and "paper 3.87" in out


def test_figure_small_scale(capsys, tmp_path, monkeypatch):
    import repro.cli as cli

    monkeypatch.setitem(cli.FIGURE_SCALES, "small", (12, 8, (10,), (1,)))
    csv_path = tmp_path / "fig12.csv"
    code = main(["figure", "fig12", "--scale", "small", "--csv", str(csv_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Length of MRTS" in out
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert "scenario" in header


def test_run_prints_event_count_and_wall_time(capsys):
    from repro.world.network import ScenarioConfig, build_network

    code = main(["run", "--nodes", "10", "--width", "180", "--height", "130",
                 "--packets", "5", "--rate", "5", "--seed", "2"])
    assert code == 0
    line = capsys.readouterr().out.splitlines()[0]
    network = build_network(ScenarioConfig(
        n_nodes=10, width=180, height=130, n_packets=5, rate_pps=5, seed=2))
    network.run()
    words = line.split()
    assert words[:3] == ["run:", str(network.sim.events_processed), "events"]
    assert words[3] == "in" and float(words[4]) > 0 and words[5] == "s"


def test_run_trace_jsonl_flag_streams_trace(capsys, tmp_path):
    import json

    out = tmp_path / "trace.jsonl"
    code = main(["run", "--nodes", "10", "--width", "180", "--height", "130",
                 "--packets", "5", "--rate", "5", "--seed", "2",
                 "--trace-jsonl", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines
    record = json.loads(lines[0])
    assert {"time", "node", "kind"} <= set(record)


def test_figure_reports_failed_points_without_failing(capsys, monkeypatch,
                                                      tmp_path):
    import repro.cli as cli
    import repro.experiments.scenarios as scenarios

    monkeypatch.setitem(cli.FIGURE_SCALES, "small", (10, 4, (10,), (1, 2)))
    real = scenarios.scaled_scenario

    def sabotaged(protocol, scenario, rate, seed, **kw):
        config = real(protocol, scenario, rate, seed, **kw)
        return config.variant(protocol="boom") if seed == 2 else config

    monkeypatch.setattr(scenarios, "scaled_scenario", sabotaged)
    code = main(["figure", "fig12", "--scale", "small", "--progress"])
    captured = capsys.readouterr()
    assert code == 0  # partial results, exit zero unless asked
    assert "sweep failure" in captured.err
    assert "FAILED" in captured.out  # the --progress line

    code = main(["figure", "fig12", "--scale", "small", "--fail-on-error"])
    assert code == 1


def test_parser_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "fig99"])


def test_figure_and_validate_accept_every_scale():
    from repro.cli import FIGURE_SCALES

    for scale in FIGURE_SCALES:
        for command in (["figure", "fig7"], ["validate"]):
            args = build_parser().parse_args(command + ["--scale", scale])
            assert args.scale == scale


def test_validate_fails_when_a_sweep_leaves_claims_unjudged(capsys,
                                                            monkeypatch):
    import repro.cli as cli

    monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: [])
    assert main(["validate", "--scale", "smoke"]) == 1
    out = capsys.readouterr().out
    assert "n/a" in out and "FAIL" not in out


def test_campaign_run_status_and_figure_from(capsys, tmp_path, monkeypatch):
    import repro.cli as cli
    import repro.experiments.runner as runner_module

    monkeypatch.setitem(cli.FIGURE_SCALES, "small", (10, 4, (10,), (1,)))
    store = tmp_path / "campaign"
    code = main(["campaign", "run", "--out", str(store), "--scale", "small",
                 "--protocols", "rmac"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fig7" in out and "campaign store" in out
    assert (store / "results.jsonl").exists()

    # status: the manifest records the matrix, so totals are known.
    code = main(["campaign", "status", "--out", str(store)])
    assert code == 0
    out = capsys.readouterr().out
    assert "3/3 points done (100%)" in out
    assert "stationary" in out and "speed2" in out

    # Resume: same figures, zero re-simulation.
    def exploding_run_point(config):
        raise AssertionError("resume must not simulate completed points")

    monkeypatch.setattr(runner_module, "run_point", exploding_run_point)
    code = main(["campaign", "run", "--out", str(store), "--scale", "small",
                 "--protocols", "rmac"])
    assert code == 0
    assert "(cached)" in capsys.readouterr().out

    # figure --from regenerates a figure from the store, no simulation.
    code = main(["figure", "fig7", "--from", str(store)])
    assert code == 0
    assert "Packet Delivery Ratio" in capsys.readouterr().out

    # validate --from reads the same store (rmac-only: paired claims n/a).
    code = main(["validate", "--from", str(store)])
    assert code in (0, 1)
    assert "Paper-claim validation" in capsys.readouterr().out


def test_campaign_status_and_serve_count_the_same_matrix(capsys, tmp_path,
                                                         monkeypatch):
    """A store that keeps points of an earlier, larger run: ``campaign
    status`` and ``campaign serve`` both count the manifest's matrix
    only, and both see a config change as stale, not done."""
    import json

    import repro.cli as cli
    from repro.experiments.farm import CampaignFarm, render_farm_status
    from repro.experiments.scenarios import scaled_scenario

    def tiny(protocol, scenario, rate, seed):
        return scaled_scenario(protocol, scenario, rate, seed,
                               n_packets=4, n_nodes=10)

    # "small" rebuilt from the manifest is exactly ``tiny``.
    monkeypatch.setitem(cli.FIGURE_SCALES, "small", (10, 4, (10,), (1,)))
    store = str(tmp_path / "campaign")
    for seeds in ([1, 2, 3], [1]):
        CampaignFarm(store).run(["rmac"], ["stationary"], [10], seeds, tiny,
                                manifest_extra={"scale": "small"})

    def status_and_serve():
        assert main(["campaign", "status", "--out", store]) == 0
        text = capsys.readouterr().out
        assert main(["campaign", "serve", "--out", store, "--once"]) == 0
        served = json.loads(capsys.readouterr().out)
        row = next(line.split() for line in text.splitlines()
                   if line.startswith("rmac"))
        return text, row, served

    text, row, served = status_and_serve()
    assert "1/1 points done (100%), 0 failed, 0 stale, 0 missing" in text
    assert row == ["rmac", "stationary", "1", "0", "0", "1"]
    assert (served["done"], served["total"], served.get("stale")) == (1, 1, 0)
    assert "1/1 points done, 0 failed, 0 stale, 0 missing" in (
        render_farm_status(served))

    monkeypatch.setitem(cli.FIGURE_SCALES, "small", (10, 6, (10,), (1,)))
    text, row, served = status_and_serve()
    assert "0/1 points done (0%), 0 failed, 1 stale, 0 missing" in text
    assert row == ["rmac", "stationary", "0", "0", "1", "1"]
    assert (served["done"], served["total"], served.get("stale")) == (0, 1, 1)
    assert "0/1 points done, 0 failed, 1 stale, 0 missing" in (
        render_farm_status(served))


def test_campaign_status_requires_existing_store(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["campaign", "status", "--out", str(tmp_path / "nope")])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ["campaign", "status", "--out"],
    ["campaign", "serve", "--once", "--out"],
    ["figure", "fig7", "--from"],
    ["validate", "--from"],
])
def test_bad_store_path_is_a_one_line_usage_error(command, capsys, tmp_path):
    """A store path that is missing or is a file exits 2 with one line
    on stderr naming the path, not a traceback."""
    afile = tmp_path / "afile.json"
    afile.write_text("{}")
    for path, problem in ((tmp_path / "missing", "does not exist"),
                          (afile, "is not a directory")):
        with pytest.raises(SystemExit) as exc:
            main(command + [str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro: error: result store {str(path)!r} {problem}\n")


def test_campaign_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["campaign"])


def test_run_oracle_flag_clean_run(capsys):
    code = main(["run", "--nodes", "10", "--width", "180", "--height", "130",
                 "--packets", "4", "--rate", "5", "--oracle"])
    assert code == 0
    out = capsys.readouterr().out
    assert "oracle: 0 violation(s)" in out


def test_run_oracle_report_writes_json(capsys, tmp_path):
    import json

    report_path = tmp_path / "oracle.json"
    code = main(["run", "--nodes", "10", "--width", "180", "--height", "130",
                 "--packets", "4", "--rate", "5",
                 "--oracle-report", str(report_path)])
    assert code == 0
    assert "oracle report ->" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["total"] == 0
    assert report["violations"] == []


def test_run_faults_plan(capsys, tmp_path):
    import json

    from repro.faults import FaultPlan, NodeCrash

    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(
        FaultPlan(crashes=(NodeCrash(node=2, at_s=0.6),)).to_dict()))
    code = main(["run", "--nodes", "10", "--width", "180", "--height", "130",
                 "--packets", "4", "--rate", "5",
                 "--faults", str(plan_path), "--oracle"])
    # The crash may or may not produce an invariant violation depending
    # on what node 2 was doing; both exits are legal, but the oracle
    # line must be printed either way.
    assert code in (0, 1)
    assert "oracle:" in capsys.readouterr().out


def test_campaign_run_with_faults_and_oracle(capsys, tmp_path, monkeypatch):
    import json

    import repro.cli as cli
    import repro.experiments.runner as runner_module
    from repro.experiments.store import ResultStore
    from repro.faults import FaultPlan, NodeCrash

    monkeypatch.setitem(cli.FIGURE_SCALES, "small", (10, 4, (10,), (1,)))
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(
        FaultPlan(crashes=(NodeCrash(node=3, at_s=0.6),)).to_dict()))
    store = tmp_path / "campaign"
    code = main(["campaign", "run", "--out", str(store), "--scale", "small",
                 "--protocols", "rmac",
                 "--faults", str(plan_path), "--oracle"])
    assert code == 0
    capsys.readouterr()

    # The plan and oracle flag land in the manifest, and every persisted
    # point carries its oracle report.
    manifest = ResultStore(str(store), create=False).manifest()
    assert manifest["oracle"] is True
    assert manifest["faults"]["crashes"] == [
        {"node": 3, "at_s": 0.6, "recover_s": None}]
    for _key, summary in ResultStore(str(store)).completed().items():
        assert summary.oracle_violations is not None

    # status reconstructs the faulted matrix: nothing missing or stale.
    code = main(["campaign", "status", "--out", str(store)])
    assert code == 0
    assert "3/3 points done (100%)" in capsys.readouterr().out

    # Resume with the same flags: fully cached.
    def exploding_run_point(config):
        raise AssertionError("resume must not simulate completed points")

    monkeypatch.setattr(runner_module, "run_point", exploding_run_point)
    code = main(["campaign", "run", "--out", str(store), "--scale", "small",
                 "--protocols", "rmac",
                 "--faults", str(plan_path), "--oracle"])
    assert code == 0
    assert "(cached)" in capsys.readouterr().out


def test_run_sinr_flag_prints_interference_stats(capsys):
    code = main(["run", "--nodes", "10", "--width", "180", "--height", "130",
                 "--packets", "4", "--rate", "5", "--sinr", "shadowing"])
    assert code == 0
    out = capsys.readouterr().out
    assert "sinr:" in out and "interference drop(s)" in out


def test_run_sinr_overrides_forwarded(capsys):
    code = main(["run", "--nodes", "10", "--width", "180", "--height", "130",
                 "--packets", "4", "--rate", "5", "--sinr", "shadowing",
                 "--sinr-threshold", "6", "--sinr-sigma", "4",
                 "--sinr-fading", "rician", "--tx-jitter", "2"])
    assert code == 0
    assert "sinr:" in capsys.readouterr().out


def test_run_sinr_flag_a_profile_does_not_read_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--nodes", "10", "--sinr", "unitdisk",
              "--sinr-sigma", "4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error: --sinr unitdisk: shadowing_sigma_db")
    assert err.count("\n") == 1


def test_run_pause_without_speed_builds_a_stationary_config(capsys,
                                                            monkeypatch):
    import repro.cli as cli

    built = []
    real = cli.build_network

    def recording(config, tracer=None):
        built.append(config)
        return real(config, tracer=tracer)

    monkeypatch.setattr(cli, "build_network", recording)
    code = main(["run", "--nodes", "10", "--width", "180", "--height", "130",
                 "--packets", "4", "--rate", "5", "--pause", "5"])
    assert code == 0
    [config] = built
    assert not config.mobile
    assert config.pause_s == ScenarioConfig.pause_s


def test_sinr_flags_without_profile_are_ignored(capsys):
    # --sinr-threshold alone (no --sinr) keeps the threshold path.
    code = main(["run", "--nodes", "10", "--width", "180", "--height", "130",
                 "--packets", "4", "--rate", "5", "--sinr-threshold", "6"])
    assert code == 0
    assert "sinr:" not in capsys.readouterr().out


def test_campaign_run_sinr_manifest_and_resume(capsys, tmp_path, monkeypatch):
    import repro.cli as cli
    import repro.experiments.runner as runner_module
    from repro.experiments.store import ResultStore

    monkeypatch.setitem(cli.FIGURE_SCALES, "small", (10, 4, (10,), (1,)))
    store = tmp_path / "campaign"
    code = main(["campaign", "run", "--out", str(store), "--scale", "small",
                 "--protocols", "rmac", "--sinr", "shadowing"])
    assert code == 0
    capsys.readouterr()

    # The SinrConfig lands in the manifest, and status reconstructs the
    # shadowed matrix: nothing missing or stale.
    manifest = ResultStore(str(store), create=False).manifest()
    assert manifest["sinr"]["propagation"] == "shadowing"
    code = main(["campaign", "status", "--out", str(store)])
    assert code == 0
    assert "3/3 points done (100%)" in capsys.readouterr().out

    # Resume with the same flag: fully cached.
    def exploding_run_point(config):
        raise AssertionError("resume must not simulate completed points")

    monkeypatch.setattr(runner_module, "run_point", exploding_run_point)
    code = main(["campaign", "run", "--out", str(store), "--scale", "small",
                 "--protocols", "rmac", "--sinr", "shadowing"])
    assert code == 0
    assert "(cached)" in capsys.readouterr().out
