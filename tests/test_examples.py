"""Smoke tests: every example's main() runs and prints what it claims."""

import sys

import pytest

sys.path.insert(0, "examples")


def test_timeline_fig4_example(capsys):
    import timeline_fig4

    timeline_fig4.main()
    out = capsys.readouterr().out
    assert "Fig. 4" in out
    assert "MRTS" in out and "abt-on" in out
    assert "acked=(1, 2)" in out


def test_sensor_fanout_example(capsys):
    import sensor_fanout

    sensor_fanout.main()
    out = capsys.readouterr().out
    assert "sensors configured: 30/30" in out
    assert "132" in out  # the 20-receiver chunk appears in the split


def test_quickstart_example(capsys):
    import quickstart

    quickstart.main()
    out = capsys.readouterr().out
    assert "R_deliv (Fig. 7)" in out
    assert "BLESS tree" in out


def test_custom_protocol_example_registers_and_compares(capsys):
    import custom_protocol

    custom_protocol.main()
    out = capsys.readouterr().out
    assert "rmac-norbt" in out
    assert "Ablating the Receiver Busy Tone" in out


def test_ring_trace_example(capsys):
    import ring_trace

    ring_trace.main(n_nodes=10, n_packets=5)
    out = capsys.readouterr().out
    assert "ring kept 200" in out
    assert "event kinds in the kept tail" in out
    assert "last 10 traced events" in out


def test_figure_sweep_example_cli(capsys, tmp_path):
    import figure_sweep

    figure_sweep.SCALES["small"] = (10, 5, (10,), (1,))
    csv = tmp_path / "out.csv"
    code = figure_sweep.main(["fig13", "--scale", "small", "--csv", str(csv)])
    assert code == 0
    assert csv.exists()
    out = capsys.readouterr().out
    assert "MRTS Abortion" in out
