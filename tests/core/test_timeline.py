"""The Fig. 4 timeline as an executable integration test.

Node A (0) runs a Reliable Send to nodes B (1) and C (2): the trace must
contain exactly the paper's sequence -- MRTS, both RBTs, the data frame,
then B's ABT followed by C's ABT in MRTS order -- with the paper's
timer spacings.
"""

from repro.sim.trace import Tracer
from repro.sim.units import US

from tests.conftest import TRIANGLE, make_rmac_testbed


def run_fig4():
    tb = make_rmac_testbed(TRIANGLE, seed=5, tracer=Tracer(enabled=True))
    tb.macs[0].send_reliable((1, 2), "fig4", 500)
    tb.run(50_000_000)
    return tb


def test_fig4_event_sequence():
    tb = run_fig4()
    interesting = [
        (e.node, e.kind)
        for e in tb.tracer.events
        if e.kind in ("tx-start", "rbt-on", "rbt-off", "abt-on", "abt-off")
    ]
    assert interesting == [
        (0, "tx-start"),   # MRTS
        (1, "rbt-on"),
        (2, "rbt-on"),
        (0, "tx-start"),   # reliable data
        (1, "abt-on"),     # B answers first (index 0) and drops RBT
        (1, "rbt-off"),
        (2, "rbt-off"),
        (1, "abt-off"),
        (2, "abt-on"),     # C answers in the second window
        (2, "abt-off"),
    ]


def test_fig4_spacings():
    tb = run_fig4()
    by = {}
    for e in tb.tracer.events:
        by.setdefault((e.node, e.kind), []).append(e.time)
    mrts_start = by[(0, "tx-start")][0]
    data_start = by[(0, "tx-start")][1]
    # MRTS airtime (24 B at 2 Mb/s + 96 us PHY = 192 us) then Twf_rbt.
    assert data_start - mrts_start == (192 + 17) * US
    # RBT rises at the receivers one propagation delay after the MRTS ends.
    assert by[(1, "rbt-on")][0] - (mrts_start + 192 * US) < 1 * US
    # ABTs last exactly l_abt = 17 us and B's precedes C's by one window.
    b_on, b_off = by[(1, "abt-on")][0], by[(1, "abt-off")][0]
    c_on, c_off = by[(2, "abt-on")][0], by[(2, "abt-off")][0]
    assert b_off - b_on == 17 * US
    assert c_off - c_on == 17 * US
    assert c_on - b_on == 17 * US


def test_fig4_sender_checks_windows_after_data():
    tb = run_fig4()
    heard = [e for e in tb.tracer.events if e.kind == "abt-heard"]
    assert [e.detail["receiver"] for e in heard] == [1, 2]
    data_end = [e for e in tb.tracer.events if e.kind == "tx-end"][1].time
    # Both windows are evaluated at the end of the n * l_abt checking span.
    assert all(e.time == data_end + 2 * 17 * US for e in heard)
