"""Property tests: busy-tone presence never leaks, and matches the
per-node counter form it replaced."""

from hypothesis import given, settings, strategies as st

from repro.phy.busytone import BusyToneChannel, ToneType
from repro.phy.neighbors import StaticPositions
from repro.sim.engine import Simulator
from repro.sim.units import US
from tests.phy.link_oracle import unit_disk_service
from tests.phy.tone_count_oracle import ToneCountOracle


@st.composite
def pulse_schedules(draw):
    """A set of (emitter, start, duration) pulses on a 3-node line."""
    n_pulses = draw(st.integers(min_value=1, max_value=12))
    pulses = []
    busy_until = {}
    for _ in range(n_pulses):
        emitter = draw(st.integers(min_value=0, max_value=2))
        start = draw(st.integers(min_value=0, max_value=500 * US))
        duration = draw(st.integers(min_value=1 * US, max_value=50 * US))
        # Avoid double-on for the same emitter (a protocol invariant).
        # <= : a pulse starting exactly when the previous one ends races
        # the turn-off event (the test schedules all pulses up front, so
        # the new turn-on carries the earlier seq and fires first --
        # real MACs only re-pulse after observing the previous one end).
        if start <= busy_until.get(emitter, -1):
            continue
        busy_until[emitter] = start + duration
        pulses.append((emitter, start, duration))
    return pulses


@settings(max_examples=60, deadline=None)
@given(pulses=pulse_schedules())
def test_presence_always_clears_after_all_pulses(pulses):
    sim = Simulator()
    svc = unit_disk_service(StaticPositions([(0, 0), (50, 0), (100, 0)]))
    tone = BusyToneChannel(sim, svc, ToneType.ABT, detect_time=15 * US)
    for emitter, start, duration in pulses:
        sim.at(start, lambda e=emitter, d=duration: tone.pulse(e, d))
    sim.run()
    sim.run(until=sim.now + 10 * US)
    for node in range(3):
        assert not tone.busy(node)
        assert not tone.is_emitting(node)


@settings(max_examples=60, deadline=None)
@given(pulses=pulse_schedules())
def test_longest_presence_bounded_by_window_and_total(pulses):
    sim = Simulator()
    svc = unit_disk_service(StaticPositions([(0, 0), (50, 0), (100, 0)]))
    tone = BusyToneChannel(sim, svc, ToneType.ABT, detect_time=15 * US)
    for emitter, start, duration in pulses:
        sim.at(start, lambda e=emitter, d=duration: tone.pulse(e, d))
    sim.run()
    end = sim.now
    window = tone.longest_presence(1, 0, end)
    assert 0 <= window <= end
    # A sub-window can never see more presence than the full window.
    assert tone.longest_presence(1, 0, end // 2 or 1) <= window or window == 0


# ----------------------------------------------------------------------
# Differential: presence judged from emissions vs the counter form
# ----------------------------------------------------------------------

#: Five nodes, all but the last in range of each other: links of 50 m
#: (167 ns) and 70.7 m (236 ns); node 4 hears node 1 only (70 m, 233 ns).
#: Every emitter but node 4 has two 50 m listeners that tie inside its
#: delay order.
NODES = [(0, 0), (50, 0), (0, 50), (50, 50), (120, 0)]
#: 236 - 167: starts this far apart put members of different emissions
#: on the same nanosecond.
TICK = 69
TOGGLERS = (0, 3)
PULSERS = (1, 2, 4)

times = st.one_of(st.integers(0, 40).map(lambda k: k * TICK),
                  st.integers(0, 3000))
actions = st.one_of(
    # The last field: query on both sides of every reserved position.
    st.tuples(st.just("toggle"), times, st.sampled_from(TOGGLERS),
              st.booleans()),
    st.tuples(st.just("pulse"), times, st.sampled_from(PULSERS),
              st.one_of(st.just(0), st.integers(1, 12).map(lambda k: k * TICK),
                        st.integers(1, 1500)),
              st.booleans()),
    st.tuples(st.just("query"), times),
    st.tuples(st.just("present"), times, st.integers(0, 4), st.booleans()),
    st.tuples(st.just("clear"), times, st.integers(0, 4)),
    st.tuples(st.just("cancel"), times, st.integers(0, 4)),
)
cuts = st.lists(st.one_of(st.tuples(st.just("until"), times),
                          st.tuples(st.just("step"), st.integers(1, 8))),
                max_size=6)


class _Side:
    """One simulator running the script against one presence model."""

    def __init__(self, make_channel, script):
        self.sim = sim = Simulator()
        svc = unit_disk_service(StaticPositions(NODES))
        self.channel = channel = make_channel(sim, svc)
        self.log = []
        delays = {e: svc.table_from(e, 0).sensed.delays
                  for e in range(len(NODES))}
        for action in script:
            kind, at = action[0], action[1]
            if kind in ("toggle", "pulse"):
                emitter = action[2]
                probes = delays[emitter] if action[-1] else []
                # Queries queued now run before the turn-on/off's reserved
                # positions in the same nanosecond ...
                ends = [at] if kind == "toggle" else [at, at + action[3]]
                for end in ends:
                    for delay in probes:
                        sim.at(end + delay, self.query)
                act = (self.toggle(emitter, probes) if kind == "toggle"
                       else self.pulse(emitter, action[3], probes))
                sim.at(at, act)
            elif kind == "query":
                sim.at(at, self.query)
            elif kind == "present":
                sim.at(at, lambda n=action[2], r=action[3]:
                       channel.notify_busy(n, self.on_present(n, r)))
            elif kind == "clear":
                sim.at(at, lambda n=action[2]:
                       channel.notify_idle(n, lambda: self.record("clear", n)))
            else:
                sim.at(at, lambda n=action[2]: channel.cancel_notify_busy(n))

    @property
    def position(self):
        return self.sim.now, self.sim.now_seq

    def record(self, *what):
        channel = self.channel
        self.log.append(what + self.position
                        + (tuple(channel.busy(n) for n in range(len(NODES))),))

    def query(self):
        self.record("query")

    def after_side(self, delays):
        # ... and these, queued after it, run after them.
        for delay in delays:
            self.sim.at(self.sim.now + delay, self.query)

    def toggle(self, emitter, delays):
        def act():
            if self.channel.is_emitting(emitter):
                self.channel.turn_off(emitter)
            else:
                self.channel.turn_on(emitter)
            self.after_side(delays)
        return act

    def pulse(self, emitter, duration, delays):
        def act():
            if not self.channel.is_emitting(emitter):
                self.channel.pulse(emitter, duration)
                self.after_side(delays)
        return act

    def on_present(self, node, rearm):
        def fire():
            self.record("present", node)
            if rearm:
                self.channel.notify_busy(node, fire)
        return fire


@settings(max_examples=300, deadline=None)
@given(script=st.lists(actions, min_size=1, max_size=30), cuts=cuts)
def test_presence_matches_the_counter_form(script, cuts):
    """Same ``present()`` answers at every query, same waiter firings at
    the same ``(time, seq)`` in the same order, across until/step cuts."""
    new = _Side(lambda sim, svc: BusyToneChannel(
        sim, svc, ToneType.RBT, detect_time=15 * US), script)
    old = _Side(ToneCountOracle, script)
    for kind, arg in cuts:
        if kind == "until":
            until = max(arg, new.sim.now)
            new.sim.run(until=until)
            old.sim.run(until=until)
        else:
            for _ in range(arg):
                new.sim.step()
                # The counter form runs its tone deltas as events: step it
                # up to the same position.
                while old.position < new.position and old.sim.step():
                    pass
        assert old.position == new.position
        new.record("cut")
        old.record("cut")
    new.sim.run()
    old.sim.run()
    assert old.position == new.position
    new.record("end")
    old.record("end")
    assert new.log == old.log
