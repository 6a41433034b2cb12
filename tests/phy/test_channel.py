"""The data channel: delivery, carrier sense, collisions, aborts."""

import math
from dataclasses import dataclass

import pytest

from repro.phy.channel import DataChannel
from repro.phy.error import UniformBitErrors
from repro.phy.neighbors import NeighborService, StaticPositions
from repro.phy.params import DEFAULT_PHY
from repro.phy.propagation import LogDistanceModel
from repro.sim.engine import Simulator
from repro.sim.units import US
from tests.phy.link_oracle import threshold_spec, unit_disk_service


@dataclass(frozen=True)
class Frame:
    size_bytes: int
    tag: str = ""


class Recorder:
    def __init__(self):
        self.received = []
        self.errors = []
        self.tx_done = []
        self.rx_starts = []

    def on_frame_received(self, frame, sender):
        self.received.append((frame, sender))

    def on_frame_error(self, sender):
        self.errors.append(sender)

    def on_tx_complete(self, frame, aborted):
        self.tx_done.append((frame, aborted))

    def on_rx_start(self, sender):
        self.rx_starts.append(sender)


def make_channel(coords, error_model=None):
    sim = Simulator()
    svc = unit_disk_service(StaticPositions(coords))
    channel = DataChannel(sim, svc, DEFAULT_PHY, error_model=error_model)
    recorders = []
    for node in range(len(coords)):
        rec = Recorder()
        channel.attach(node, rec)
        recorders.append(rec)
    return sim, channel, recorders


def test_clean_delivery_to_all_in_range():
    sim, ch, recs = make_channel([(0, 0), (50, 0), (200, 0)])
    frame = Frame(100)
    ch.transmit(0, frame)
    sim.run()
    assert recs[1].received == [(frame, 0)]
    assert recs[1].rx_starts == [0]
    assert recs[2].received == [] and recs[2].rx_starts == []
    assert recs[0].tx_done == [(frame, False)]


def test_airtime_and_propagation_timing():
    sim, ch, recs = make_channel([(0, 0), (50, 0)])
    frame = Frame(14)  # 152 us airtime
    ch.transmit(0, frame)
    done_at = {}
    sim.run()
    # delivery occurs at tx end + propagation (~167 ns for 50 m)
    assert sim.now == 152 * US + 167


def test_carrier_sense_during_transmission():
    sim, ch, recs = make_channel([(0, 0), (50, 0), (200, 0)])
    ch.transmit(0, Frame(100))
    states = {}
    sim.at(50 * US, lambda: states.update(
        tx=ch.busy(0), near=ch.busy(1), far=ch.busy(2)))
    sim.run()
    assert states == {"tx": True, "near": True, "far": False}
    assert not ch.busy(0) and not ch.busy(1)


def test_idle_duration_tracks_last_busy():
    sim, ch, recs = make_channel([(0, 0), (50, 0)])
    ch.transmit(0, Frame(14))  # 152 us
    sim.run()
    end_at_receiver = 152 * US + 167
    sim_now = sim.now
    assert ch.idle_duration(1) == sim_now - end_at_receiver
    assert ch.idle_duration(0) == sim_now - 152 * US


def test_overlapping_transmissions_collide_at_common_receiver():
    # 0 and 2 are hidden from each other; 1 hears both.
    sim, ch, recs = make_channel([(0, 0), (60, 0), (120, 0)])
    ch.transmit(0, Frame(100, "a"))
    sim.at(10 * US, lambda: ch.transmit(2, Frame(100, "b")))
    sim.run()
    assert recs[1].received == []
    assert len(recs[1].errors) == 2


def test_second_frame_corrupts_even_if_first_nearly_done():
    sim, ch, recs = make_channel([(0, 0), (60, 0), (120, 0)])
    ch.transmit(0, Frame(100, "a"))  # ends at 496 us
    sim.at(495 * US, lambda: ch.transmit(2, Frame(100, "b")))
    sim.run()
    assert recs[1].received == []


def test_non_overlapping_frames_both_delivered():
    sim, ch, recs = make_channel([(0, 0), (60, 0), (120, 0)])
    ch.transmit(0, Frame(100, "a"))
    sim.at(600 * US, lambda: ch.transmit(2, Frame(100, "b")))
    sim.run()
    tags = [f.tag for f, _ in recs[1].received]
    assert tags == ["a", "b"]


def test_receiver_transmitting_cannot_receive():
    sim, ch, recs = make_channel([(0, 0), (50, 0)])
    ch.transmit(0, Frame(100, "a"))
    sim.at(10 * US, lambda: ch.transmit(1, Frame(14, "b")))
    sim.run()
    # node 1 was transmitting during part of frame a's arrival
    assert recs[1].received == []
    assert recs[1].errors == [0]
    # node 0 was transmitting while b arrived: also corrupted
    assert recs[0].received == []


def test_abort_truncates_and_never_delivers():
    sim, ch, recs = make_channel([(0, 0), (50, 0)])
    tx = ch.transmit(0, Frame(100, "a"))
    sim.at(30 * US, lambda: ch.abort(tx))
    sim.run()
    assert recs[0].tx_done == [(tx.frame, True)]
    assert recs[1].received == []
    assert recs[1].errors == [0]
    assert tx.aborted and tx.end == 30 * US
    # channel is idle again right after the truncated frame propagates
    assert not ch.busy(1)


def test_abort_shortens_busy_interval():
    sim, ch, recs = make_channel([(0, 0), (50, 0)])
    tx = ch.transmit(0, Frame(500))
    sim.at(20 * US, lambda: ch.abort(tx))
    busy_mid = {}
    sim.at(100 * US, lambda: busy_mid.update(b=ch.busy(1)))
    sim.run()
    assert busy_mid == {"b": False}


def test_cannot_transmit_twice_concurrently():
    sim, ch, recs = make_channel([(0, 0), (50, 0)])
    ch.transmit(0, Frame(100))
    with pytest.raises(RuntimeError):
        ch.transmit(0, Frame(100))


def test_abort_after_completion_rejected():
    sim, ch, recs = make_channel([(0, 0), (50, 0)])
    tx = ch.transmit(0, Frame(14))
    sim.run()
    with pytest.raises(RuntimeError):
        ch.abort(tx)
    assert recs[1].received  # the clean delivery already happened


def test_sensed_undecodable_link_collides_but_never_calls_back():
    """A link with cs <= power < rx on the overlap path: its arrival
    raises carrier sense and corrupts an overlapping reception at that
    node, but begins no reception there, so the node's listener never
    hears of it. LogDistanceModel defaults give -61.4 dBm from 20 m
    (decodable) and -72.6 dBm from 50 m (sensed only); the two senders,
    70 m apart, do not sense each other."""
    model = LogDistanceModel()
    svc = NeighborService(StaticPositions([(0, 0), (20, 0), (-50, 0)]),
                          model, threshold_spec(model))
    assert [(l.node, l.in_rx_range, l.sensed)
            for l in svc.links_from(2, 0)] == [(0, False, True)]
    sim = Simulator()
    ch = DataChannel(sim, svc, DEFAULT_PHY)
    recs = [Recorder() for _ in range(3)]
    for node, rec in enumerate(recs):
        ch.attach(node, rec)

    # Alone: busy at the receiver while it lasts, and no callback.
    ch.transmit(2, Frame(100, "sensed"))
    busy = []
    sim.at(50 * US, lambda: busy.append(ch.busy(0)))
    sim.run()
    assert busy == [True] and not ch.busy(0)
    assert (recs[0].rx_starts, recs[0].received, recs[0].errors) == ([], [], [])

    # Overlapping a decodable frame: that frame is corrupted, and the
    # only callbacks at the receiver are the decodable frame's.
    frame = Frame(100, "data")
    ch.transmit(1, frame)
    sim.at(sim.now + 10 * US, lambda: ch.transmit(2, Frame(100, "sensed")))
    sim.run()
    assert recs[0].rx_starts == [1]
    assert recs[0].received == [] and recs[0].errors == [1]
    assert not ch.busy(0)


def test_bit_errors_drop_frames():
    sim, ch, recs = make_channel([(0, 0), (50, 0)], error_model=UniformBitErrors(0.99))
    ch.transmit(0, Frame(100))
    sim.run()
    assert recs[1].received == []
    assert recs[1].errors == [0]


def test_arrival_end_without_start_raises_underflow():
    """Regression: a lost/duplicated arrival event used to be silently
    absorbed (`busy.get(node, 1) - 1` invented a count); it must fail
    loudly and leave a ``channel-underflow`` trace event behind."""
    from repro.sim.engine import SimulationError
    from repro.sim.trace import Tracer

    sim = Simulator()
    svc = unit_disk_service(StaticPositions([(0, 0), (50, 0)]))
    tracer = Tracer(enabled=True)
    ch = DataChannel(sim, svc, DEFAULT_PHY, tracer=tracer)
    rec = Recorder()
    ch.attach(1, rec)
    tx = ch.transmit(0, Frame(100))
    link = tx.links[0]
    sim.run()  # the real start/end pair fires and balances out
    assert rec.errors == [] and len(rec.received) == 1
    with pytest.raises(SimulationError):
        ch._arrival_end(tx, link)  # a second end with no matching start
    assert [e.node for e in tracer.events if e.kind == "channel-underflow"] == [1]
    # The failed end changed nothing: the channel still reads idle.
    assert not ch.busy(1)


def test_unattached_and_unseen_nodes_get_records_on_demand():
    """A receiver that was never attached gets its channel record on its
    first arrival: it senses the frame and drains, with no listener to
    call. A stray arrival end at such a node, or at a node the channel
    has never seen, is a busy-counter underflow, never a KeyError."""
    from repro.phy.neighbors import Link
    from repro.sim.engine import SimulationError
    from repro.sim.trace import Tracer

    sim = Simulator()
    svc = unit_disk_service(StaticPositions([(0, 0), (50, 0)]))
    tracer = Tracer(enabled=True)
    ch = DataChannel(sim, svc, DEFAULT_PHY, tracer=tracer)
    sender = Recorder()
    ch.attach(0, sender)  # node 1 is never attached
    tx = ch.transmit(0, Frame(100))
    sensed = []
    sim.at(50 * US, lambda: sensed.append(ch.busy(1)))
    sim.run()
    assert sensed == [True]
    assert sender.tx_done == [(tx.frame, False)]
    assert not ch.busy(1) and ch.idle_duration(1) == 0
    unseen = Link(7, 100, True)
    for link in (tx.links[0], unseen):
        with pytest.raises(SimulationError, match=f"underflow at node {link.node}"):
            ch._arrival_end(tx, link)
        assert not ch.busy(link.node)
    assert [e.node for e in tracer.events if e.kind == "channel-underflow"] == [1, 7]


def test_underflow_mid_fan_out_counts_the_members_that_ran():
    """A busy-counter underflow raised by one member of an arrival-end
    fan-out still raises, counts exactly the members that completed
    before it (the raising one is not counted, as with any raising
    event), and leaves the rest queued for a later run."""
    from repro.sim.engine import SimulationError

    sim, ch, recs = make_channel([(0, 0), (10, 0), (20, 0), (30, 0)])
    tx = ch.transmit(0, Frame(100))
    sim.run(until=tx.start + tx.airtime)
    # Three arrival starts and the tx-end; the three ends are queued.
    assert sim.events_processed == 4 and sim.pending_count() == 3
    ch._nodes[2].busy = 0  # node 2 loses its arrival-start bookkeeping
    with pytest.raises(SimulationError, match="underflow at node 2"):
        sim.run()
    assert sim.events_processed == 5  # node 1's end ran; node 2's raised
    assert [len(r.received) for r in recs] == [0, 1, 0, 0]
    assert sim.pending_count() == 1
    sim.run()
    assert sim.events_processed == 6
    assert [len(r.received) for r in recs] == [0, 1, 0, 1]


def _sensed_and_hidden_setup(sensed_sender):
    """SINR channel where ``sensed_sender``'s links are ordinary decodable
    links at -40 dBm and the other sender's are interference-only
    (``sensed=False``, -80 dBm): energy the receiver's radio never sees."""
    from repro.phy.neighbors import Link, LinkView
    from repro.phy.sinr import SinrReceptionModel, SinrState

    sim = Simulator()
    svc = unit_disk_service(StaticPositions([(0, 0), (60, 0), (120, 0)]))
    state = SinrState(SinrReceptionModel(10.0, noise_floor_dbm=-90.0))
    ch = DataChannel(sim, svc, DEFAULT_PHY, sinr=state)
    recs = []
    for node in range(3):
        rec = Recorder()
        ch.attach(node, rec)
        recs.append(rec)

    compute = svc.table_from

    def mixed(sender, time_ns):
        links = compute(sender, time_ns).links
        if sender == sensed_sender:
            return LinkView(tuple(
                Link(l.node, l.delay_ns, l.in_rx_range, -40.0) for l in links))
        return LinkView(tuple(
            Link(l.node, l.delay_ns, False, -80.0, sensed=False) for l in links))

    svc.table_from = mixed
    return sim, ch, recs, state


@pytest.mark.parametrize("sensed_sender", [0, 2])
def test_sensed_and_interference_only_overlap_in_either_order(sensed_sender):
    """One arrival pipeline serves both link kinds: an interference-only
    arrival adds power but never carrier sense or a reception, in either
    arrival order, and every counter drains afterwards."""
    sim, ch, recs, state = _sensed_and_hidden_setup(sensed_sender)
    ch.transmit(0, Frame(100, "a"))
    sim.at(10 * US, lambda: ch.transmit(2, Frame(100, "b")))
    busy_early = []
    sim.at(5 * US, lambda: busy_early.append(ch.busy(1)))
    sim.run()
    assert busy_early == [sensed_sender == 0]
    # -40 dBm over -80 dBm of interference plus the noise floor: ~39.6 dB.
    assert [sender for _, sender in recs[1].received] == [sensed_sender]
    assert recs[1].errors == [] and recs[1].rx_starts == [sensed_sender]
    # Both signals were in the air at node 1 together, and the decode
    # saw the interference-only one: -40 dBm over -80 dBm plus the
    # -90 dBm noise floor.
    assert state.stats()["concurrent_high_water"] == 2
    expected = 10 * math.log10(1e-4 / (1e-8 + 1e-9))
    assert state.counters.min_sinr_db == pytest.approx(expected, abs=1e-9)
    assert not ch.busy(1)


def test_abort_before_arrival_start_still_pairs_events():
    """Abort at t=100 ns, before the start has propagated (167 ns): the
    receiver must still see a well-formed start/end pair, one rx-error,
    and a busy counter that returns to zero."""
    sim, ch, recs = make_channel([(0, 0), (50, 0)])
    tx = ch.transmit(0, Frame(100))
    sim.at(100, lambda: ch.abort(tx))
    sim.run()
    assert recs[0].tx_done == [(tx.frame, True)]
    assert recs[1].rx_starts == [0]       # the start still fired
    assert recs[1].errors == [0]          # exactly one error at the end
    assert recs[1].received == []
    assert not ch.busy(1)
    assert all(state.busy == 0 for state in ch._nodes.values())  # drained


def test_notify_idle_reregister_during_fire_waits_for_next_idle():
    """A callback that makes the node busy again and re-registers must
    land in the *next* waiter list, not re-fire in the same pass."""
    sim, ch, recs = make_channel([(0, 0), (50, 0)])
    airtime = 152 * US  # Frame(14)
    calls = []

    def second():
        calls.append(("second", sim.now))

    def first():
        calls.append(("first", sim.now))
        ch.transmit(0, Frame(14, "again"))
        ch.notify_idle(0, second)

    ch.transmit(0, Frame(14, "first"))
    ch.notify_idle(0, first)
    sim.run()
    assert calls == [("first", airtime), ("second", 2 * airtime)]
