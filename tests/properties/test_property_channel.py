"""Property tests: data-channel bookkeeping and the reception rule.

Whatever mix of transmissions and aborts runs, after everything
propagates: busy counters are zero everywhere, nobody is mid-reception,
idle notifications fired, and every (sender, receiver) pair saw exactly
one terminal event (delivery or error) per decodable transmission.

The one arrival pipeline must also decide every reception the way a
plain reference model of the paper's overlap rule does -- with no
reception stage, and with the unit-disk SINR stage that reproduces the
rule (accumulated interference against 10 dB).
"""

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.phy.channel import DataChannel
from repro.phy.neighbors import StaticPositions
from repro.phy.params import DEFAULT_PHY
from repro.phy.sinr import SinrReceptionModel, SinrState
from repro.sim.engine import Simulator
from repro.sim.units import US
from tests.phy.link_oracle import unit_disk_service

COORDS = [(0.0, 0.0), (50.0, 0.0), (100.0, 0.0), (150.0, 0.0)]


@dataclass(frozen=True)
class Frame:
    size_bytes: int
    uid: int = 0


class Recorder:
    def __init__(self):
        self.received = 0
        self.errors = 0
        self.tx_done = 0
        self.rx_starts = 0

    def on_frame_received(self, frame, sender):
        self.received += 1

    def on_frame_error(self, sender):
        self.errors += 1

    def on_tx_complete(self, frame, aborted):
        self.tx_done += 1

    def on_rx_start(self, sender):
        self.rx_starts += 1


@st.composite
def schedules(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    items = []
    for uid in range(n):
        sender = draw(st.integers(min_value=0, max_value=3))
        start = draw(st.integers(min_value=0, max_value=2000 * US))
        size = draw(st.integers(min_value=10, max_value=400))
        abort_frac = draw(st.one_of(st.none(), st.floats(min_value=0.05, max_value=0.95)))
        items.append((uid, sender, start, size, abort_frac))
    return items


@settings(max_examples=50, deadline=None)
@given(schedule=schedules())
def test_channel_conservation(schedule):
    sim = Simulator()
    svc = unit_disk_service(StaticPositions(COORDS))
    channel = DataChannel(sim, svc, DEFAULT_PHY)
    recorders = [Recorder() for _ in COORDS]
    for node, rec in enumerate(recorders):
        channel.attach(node, rec)

    launched = []

    def launch(uid, sender, size, abort_frac):
        if channel.is_transmitting(sender):
            return  # half-duplex: a node cannot start a second tx
        tx = channel.transmit(sender, Frame(size, uid))
        launched.append(tx)
        if abort_frac is not None:
            abort_at = sim.now + int(tx.airtime * abort_frac)
            sim.at(abort_at, lambda tx=tx: channel.abort(tx) if not tx.aborted
                   and channel.current_tx(tx.sender) is tx else None)

    for uid, sender, start, size, abort_frac in schedule:
        sim.at(start, lambda u=uid, s=sender, z=size, a=abort_frac: launch(u, s, z, a))
    sim.run()
    sim.run(until=sim.now + 10 * US)

    # Conservation: all busy counters drained, nobody stuck receiving.
    for node in range(len(COORDS)):
        assert not channel.busy(node)
        assert not channel.is_transmitting(node)
        assert not channel._nodes[node].receiving

    # Every launched transmission completed exactly once at the sender.
    assert sum(r.tx_done for r in recorders) == len(launched)

    # Every decodable (in-range) arrival terminated in exactly one of
    # delivery or error.
    expected_terminals = sum(
        sum(1 for link in tx.links if link.in_rx_range) for tx in launched
    )
    terminals = sum(r.received + r.errors for r in recorders)
    assert terminals == expected_terminals

    # rx_start fires once per decodable arrival.
    assert sum(r.rx_starts for r in recorders) == expected_terminals


class OutcomeLog:
    """Terminal receptions at one node as ``(time, sender, ok)``."""

    def __init__(self, sim, node, log):
        self.sim, self.node, self.log = sim, node, log

    def on_frame_received(self, frame, sender):
        self.log.append((self.node, sender, self.sim.now, True))

    def on_frame_error(self, sender):
        self.log.append((self.node, sender, self.sim.now, False))

    def on_tx_complete(self, frame, aborted):
        pass

    def on_rx_start(self, sender):
        pass


def reference_outcomes(launched):
    """The paper's rule, stated directly over the finished transmissions:
    a decodable arrival at ``r`` succeeds iff its sender did not abort,
    no other sensed arrival at ``r`` overlaps its window, and ``r`` does
    not transmit during it."""
    outcomes = []
    for tx in launched:
        for link in tx.links:
            if not link.in_rx_range:
                continue
            node, lo, hi = link.node, tx.start + link.delay_ns, tx.end + link.delay_ns
            overlapped = any(
                other is not tx and other.start + o.delay_ns < hi
                and lo < other.end + o.delay_ns
                for other in launched for o in other.links if o.node == node)
            transmitting = any(
                other.sender == node and other.start < hi and lo < other.end
                for other in launched)
            ok = not (tx.aborted or overlapped or transmitting)
            outcomes.append((node, tx.sender, hi, ok))
    return sorted(outcomes)


#: The reception configurations that must realise the overlap rule.
RECEPTION_MODES = {
    "threshold": lambda: None,
    "sinr-derived": lambda: SinrState(SinrReceptionModel(10.0, -90.0)),
}


def run_schedule(schedule, sinr):
    sim = Simulator()
    svc = unit_disk_service(StaticPositions(COORDS))
    channel = DataChannel(sim, svc, DEFAULT_PHY, sinr=sinr)
    log = []
    for node in range(len(COORDS)):
        channel.attach(node, OutcomeLog(sim, node, log))
    launched = []

    def launch(sender, size, abort_frac):
        if channel.is_transmitting(sender):
            return
        tx = channel.transmit(sender, Frame(size))
        launched.append(tx)
        if abort_frac is not None:
            # Whole microseconds after the start, like every other edge.
            cut = max(1, int(tx.airtime * abort_frac) // US) * US
            sim.at(sim.now + cut, lambda: channel.abort(tx))

    for _, sender, start, size, abort_frac in schedule:
        # Each sender transmits on its own 100 ns phase within the
        # microsecond (airtimes are whole microseconds), so no two edges
        # at a receiver coincide and event tie-breaking never decides an
        # outcome the reference model cannot see.
        at = (start // US) * US + 100 * sender
        sim.at(at, lambda s=sender, z=size, a=abort_frac: launch(s, z, a))
    sim.run()
    return sorted(log), launched


@settings(max_examples=50, deadline=None)
@given(schedule=schedules())
def test_every_reception_mode_matches_the_reference_overlap_rule(schedule):
    results = {name: run_schedule(schedule, make())
               for name, make in RECEPTION_MODES.items()}
    for name, (log, launched) in results.items():
        assert log == reference_outcomes(launched), name
