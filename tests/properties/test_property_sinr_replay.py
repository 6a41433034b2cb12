"""Property: SINR decodes replayed from the transmissions are the
per-arrival tracker's, float for float.

The data channel decides a SINR reception when it ends, by replaying
its window from the recent transmissions
(:meth:`repro.phy.sinr.SinrState.replay`), and gives interference-only
links no arrival events. The path it replaced -- one event per link and
a per-node interference tracker updated on each -- survives as the
oracle in ``tests/phy/sinr_tracker_oracle.py``. Random SINR-wired
layouts run through both, with interference-only links, log-distance
or shadowing propagation, heterogeneous radios, no fading or Rayleigh
or Rician fading, aborts (at the start, before the first arrival,
within a microsecond and mid-frame), same-nanosecond edges, and
``run(until=...)`` cuts and ``step()``.
Both must deliver and drop the same frames at the same times, see the
same ``(signal_mw, peak_itf_mw)`` at every decode, and report the same
``stats()`` at every ``run(until=...)`` cut and at the end (after a
``step()``, stats lying between the oracle's just before and just
after that nanosecond).
"""

import random
from dataclasses import dataclass

from hypothesis import example, given, settings, strategies as st

from repro.phy.channel import DataChannel
from repro.phy.neighbors import NeighborService, StaticPositions
from repro.phy.params import DEFAULT_PHY
from repro.phy.sinr import SinrConfig, SinrState, wire_sinr
from repro.sim.engine import Simulator
from repro.sim.units import US
from tests.phy.sinr_tracker_oracle import TrackerChannel, TrackerSinr


@dataclass(frozen=True)
class Frame:
    size_bytes: int
    uid: int = 0


class ReplaySinr(SinrState):
    """The SINR stage under test, logging every decode's floats."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.decodes = []

    def replay(self, air, node):
        signal, peak = super().replay(air, node)
        self.decodes.append((self.clock.now, node, signal, peak))
        return signal, peak


class OutcomeLog:
    def __init__(self, sim, node, log):
        self.sim, self.node, self.log = sim, node, log

    def on_frame_received(self, frame, sender):
        self.log.append((self.sim.now, self.node, sender, frame.uid, True))

    def on_frame_error(self, sender):
        self.log.append((self.sim.now, self.node, sender, None, False))

    def on_tx_complete(self, frame, aborted):
        self.log.append((self.sim.now, self.node, "done", frame.uid, aborted))

    def on_rx_start(self, sender):
        self.log.append((self.sim.now, self.node, "rx-start", sender, None))


@st.composite
def layouts(draw):
    """Nodes on a coarse grid, some mirrored across the x axis, so one
    sender on the axis often reaches two nodes after the same delay
    with different powers (shadowing, radio jitter): ties between
    decodable, sensed-only and interference-only arrivals."""
    points = draw(st.lists(
        st.tuples(st.integers(0, 30), st.integers(-6, 6)),
        min_size=3, max_size=7, unique=True))
    coords = [(10.0 * x, 10.0 * y) for x, y in points]
    for x, y in points:
        if y and (x, -y) not in points and draw(st.booleans()):
            coords.append((10.0 * x, -10.0 * y))
    return coords


@st.composite
def aborts(draw):
    """None for most frames; else an offset after the start (ns): at the
    start itself, before the first arrival, within a microsecond, or a
    fraction of the frame."""
    kind = draw(st.integers(0, 4))
    if kind < 3:
        return None
    if kind == 3:
        return draw(st.sampled_from([0, 1, 17, 999]))
    return draw(st.floats(0.05, 0.95))


@st.composite
def scenarios(draw):
    coords = draw(layouts())
    config = SinrConfig(
        propagation=draw(st.sampled_from(["logdistance", "shadowing"])),
        fading=draw(st.sampled_from([None, "rayleigh", "rician"])),
        sinr_threshold_db=draw(st.sampled_from([10.0, 3.0, None])),
        tx_power_jitter_db=draw(st.sampled_from([0.0, 3.0])),
        # Decodable to ~75 m, sensed to ~170 m, interference beyond.
        tx_power_dbm=27.5,
    )
    schedule = []
    for uid in range(draw(st.integers(1, 14))):
        sender = draw(st.integers(0, len(coords) - 1))
        # Starts on a 10 us grid (airtimes are whole microseconds), so
        # starts and ends often share a nanosecond.
        start = draw(st.integers(0, 150)) * 10 * US
        size = draw(st.integers(10, 120))
        schedule.append((uid, sender, start, size, draw(aborts())))
    # Cut plan: ("until", t) runs both to ``t`` and compares stats();
    # ("step", n) steps the channel under test n events alone. Cuts
    # land while frames are in the air: up to 300 us after a start.
    starts = [item[2] for item in schedule]
    cuts = draw(st.lists(st.one_of(
        st.tuples(st.just("until"), st.builds(
            lambda start, offset: start + offset,
            st.sampled_from(starts), st.integers(1, 300 * US))),
        st.tuples(st.just("step"), st.integers(1, 40))), max_size=5))
    seed = draw(st.integers(0, 2 ** 16))
    return coords, config, schedule, cuts, seed


def build(coords, config, seed, channel_cls, state_cls):
    sim = Simulator()
    wiring = wire_sinr(config, DEFAULT_PHY, len(coords), seed)
    svc = NeighborService(StaticPositions(coords), wiring.model,
                          wiring.power_spec)
    base = wiring.build_state(random.Random(seed))
    state = state_cls(base.reception, fading=base.fading, rng=base.rng)
    state.clock = sim
    channel = channel_cls(sim, svc, DEFAULT_PHY, sinr=state)
    log = []
    for node in range(len(coords)):
        channel.attach(node, OutcomeLog(sim, node, log))

    def launch(uid, sender, size, abort):
        if channel.is_transmitting(sender):
            return
        tx = channel.transmit(sender, Frame(size, uid))
        if abort is None:
            return
        cut = abort if isinstance(abort, int) else int(tx.airtime * abort)
        sim.at(sim.now + cut, lambda: channel.abort(tx)
               if channel.current_tx(sender) is tx else None)

    return sim, state, log, launch


def run_both(coords, config, schedule, cuts, seed):
    worlds = {}
    for name, channel_cls, state_cls in (
            ("replay", DataChannel, ReplaySinr),
            ("oracle", TrackerChannel, TrackerSinr)):
        sim, state, log, launch = build(coords, config, seed, channel_cls,
                                        state_cls)
        for uid, sender, start, size, abort in schedule:
            sim.at(start, lambda u=uid, s=sender, z=size, a=abort,
                   launch=launch: launch(u, s, z, a))
        worlds[name] = (sim, state, log)
    sim, state, _ = worlds["replay"]
    oracle_sim, oracle, _ = worlds["oracle"]
    for kind, arg in cuts:
        if kind == "step":
            for _ in range(arg):
                if not sim.step():
                    break
            now = sim.now
            if oracle_sim.now < now:
                # Part way through nanosecond ``now``: every count lies
                # between the oracle's before it and after it.
                oracle_sim.run(until=now - 1)
                low = oracle.stats()
                oracle_sim.run(until=now)
                high = oracle.stats()
                mid = state.stats()
                for field in MONOTONE:
                    assert low[field] <= mid[field] <= high[field], field
        elif arg >= sim.now:
            sim.run(until=arg)
            oracle_sim.run(until=arg)
            assert state.stats() == oracle.stats()
    sim.run()
    oracle_sim.run()
    return worlds


#: Stats that only grow as a run goes on.
MONOTONE = ("delivered", "sinr_dropped", "concurrent_high_water")


#: Three long interferers (2-4) are in the air at node 0 when a short
#: one (5) ends there; node 6 starts after 5 has fully propagated, and
#: then node 1's frame reaches node 0. The running sum at that start is
#: the fsum at 5's removal plus 6's power: a replay must still see 5's
#: removal, so 5 is kept while 2-4 are live, not only while it is on
#: the air.
RETENTION = (
    [(0.0, 0.0), (30.0, 0.0), (90.0, 70.0), (-60.0, 60.0), (210.0, 50.0),
     (180.0, 130.0), (50.0, 200.0)],
    SinrConfig(propagation="logdistance", sinr_threshold_db=None,
               tx_power_dbm=27.5),
    [(0, 2, 0, 120, None), (1, 3, 1 * US, 120, None),
     (2, 4, 2 * US, 120, None), (3, 5, 10 * US, 10, None),
     (4, 6, 300 * US, 10, None), (5, 1, 320 * US, 10, None)],
    [], 1)

#: Node 0 reaches nodes 2 and 3, mirror images, after the same delay;
#: under this seed's shadowing 2 is interference-only and 3 is sensed.
#: Their fading gains are drawn in link order (2 first), as their
#: arrival events would have drawn them, and 3's gain sets the
#: interference on node 1's frame at node 3.
DRAW_ORDER = (
    [(0.0, 0.0), (140.0, -100.0), (120.0, 90.0), (120.0, -90.0)],
    SinrConfig(propagation="shadowing", fading="rayleigh",
               sinr_threshold_db=None, tx_power_dbm=27.5),
    [(0, 1, 0, 60, None), (1, 0, 20 * US, 60, None)],
    [], 63691)


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
@example(scenario=RETENTION)
@example(scenario=DRAW_ORDER)
def test_replayed_decodes_match_the_per_arrival_tracker(scenario):
    worlds = run_both(*scenario)
    sim, state, log = worlds["replay"]
    oracle_sim, oracle, oracle_log = worlds["oracle"]
    assert log == oracle_log
    assert state.decodes == oracle.decodes
    assert state.stats() == oracle.stats()
    assert sim.now == oracle_sim.now


def test_layouts_reach_interference_only_links():
    """A world with interference-only links, decodes and Rician fading
    runs the same both ways, on fewer events."""
    coords = [(0.0, 0.0), (20.0, 0.0), (120.0, 30.0), (120.0, -30.0)]
    worlds = run_both(coords, SinrConfig(propagation="shadowing",
                                         fading="rician"),
                      [(0, 0, 0, 50, None), (1, 2, 30 * US, 50, None),
                       (2, 3, 30 * US, 50, None)], [], seed=7)
    sim, state, log = worlds["replay"]
    oracle_sim, oracle, oracle_log = worlds["oracle"]
    assert log == oracle_log and state.decodes == oracle.decodes
    assert state.decodes
    assert sim.events_processed < oracle_sim.events_processed
