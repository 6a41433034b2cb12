"""Test oracle: SINR reception priced arrival by arrival.

Before decodes replayed their windows from the transmissions
(:meth:`repro.phy.sinr.SinrState.replay`), the data channel gave every
link -- interference-only ones included -- an rx-start and an rx-end
event, and kept a per-node :class:`InterferenceTracker` up to date on
each of them. This module keeps that path, unchanged, as the reference
the replay must reproduce float for float:

* :class:`InterferenceTracker` -- the running mW sum per node (``+=`` on
  add, ``math.fsum`` re-sum on removal) and the concurrency high water;
* :class:`TrackerSinr` -- the SINR stage's per-arrival ``arrive`` /
  ``depart`` hooks over that tracker (fading drawn at each arrival);
* :class:`TrackerChannel` -- a :class:`~repro.phy.channel.DataChannel`
  whose fan-outs cover every link and whose arrival pipeline calls those
  hooks.

``TrackerSinr.decodes`` logs ``(time, node, signal_mw, peak_itf_mw)`` at
every decode, so a differential test can compare the floats directly.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.phy.channel import DataChannel, Transmission
from repro.phy.neighbors import Link
from repro.phy.sinr import SinrState
from repro.sim.engine import SimulationError


class InterferenceTracker:
    """Accumulated concurrent in-air power per node (mW domain).

    The channel adds every arriving signal (decodable or
    interference-only) at arrival start and removes it at arrival end;
    ``high_water`` records the most signals ever concurrently in the air
    at one node.
    """

    __slots__ = ("_signals", "_totals", "high_water")

    def __init__(self):
        #: node -> {transmission: power_mw} of signals currently in the air.
        self._signals: Dict[int, Dict[object, float]] = {}
        #: node -> running mW sum (kept incrementally; re-summed from the
        #: signal map on every removal).
        self._totals: Dict[int, float] = {}
        self.high_water = 0

    def add(self, node: int, tx: object, power_mw: float) -> float:
        """Register a signal; returns the node's new total (mW)."""
        signals = self._signals.get(node)
        if signals is None:
            signals = self._signals[node] = {}
        signals[tx] = power_mw
        count = len(signals)
        if count > self.high_water:
            self.high_water = count
        total = self._totals.get(node, 0.0) + power_mw
        self._totals[node] = total
        return total

    def remove(self, node: int, tx: object) -> None:
        """Unregister a signal at its arrival end."""
        signals = self._signals.get(node)
        if signals is None:
            return
        power = signals.pop(tx, None)
        if power is None:
            return
        if signals:
            # Re-summing instead of subtracting keeps the running total
            # exactly equal to the sum of live signals.
            self._totals[node] = math.fsum(signals.values())
        else:
            del self._signals[node]
            self._totals.pop(node, None)

    def total_mw(self, node: int) -> float:
        """Total in-air power at ``node`` right now (mW)."""
        return self._totals.get(node, 0.0)

    def concurrent(self, node: int) -> int:
        """Number of signals currently in the air at ``node``."""
        signals = self._signals.get(node)
        return len(signals) if signals else 0


class TrackerSinr(SinrState):
    """The SINR stage as it priced arrivals one event at a time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracker = InterferenceTracker()
        self.decodes = []

    def arrive(self, node: int, tx: object, power_dbm: float,
               ongoing: dict) -> Tuple[float, float]:
        """Price one arrival at ``node``: ``(signal_mw, interference_mw)``.

        Fading draws once per arrival, in event order. The signal lands
        in the tracker and raises the peak interference of every
        reception in ``ongoing``.
        """
        power_mw = 10.0 ** (power_dbm / 10.0)
        fading = self.fading
        if fading is not None:
            power_mw *= fading.gain(self.rng)
        total = self.tracker.add(node, tx, power_mw)
        for rec in ongoing.values():
            itf = total - rec.signal_mw
            if itf > rec.peak_itf_mw:
                rec.peak_itf_mw = itf
        return power_mw, total - power_mw

    def depart(self, node: int, tx: object) -> None:
        """The arrival of ``tx`` at ``node`` ended: drop its power."""
        self.tracker.remove(node, tx)

    def stats(self) -> dict:
        stats = super().stats()
        stats["concurrent_high_water"] = self.tracker.high_water
        return stats


class _Reception:
    __slots__ = ("tx", "corrupted", "signal_mw", "peak_itf_mw")

    def __init__(self, tx: Transmission, corrupted: bool,
                 signal_mw: float, peak_itf_mw: float):
        self.tx = tx
        self.corrupted = corrupted
        self.signal_mw = signal_mw
        self.peak_itf_mw = peak_itf_mw


class TrackerChannel(DataChannel):
    """A data channel with one arrival event per link, priced by a
    :class:`TrackerSinr` (or none: the threshold path) as it runs.

    Carrier sense, listeners and waiters live in the channel's per-node
    records; the receptions, with their signal and peak interference,
    live in the oracle's own per-node maps.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: node -> {transmission: reception} of receptions in progress.
        self._tracked: Dict[int, Dict[Transmission, _Reception]] = {}

    def transmit(self, sender: int, frame: object) -> Transmission:
        state = self._nodes[sender]
        if state.tx is not None:
            raise RuntimeError(f"node {sender} is already transmitting")
        waiter = state.busy_waiter
        if waiter is not None:
            state.busy_waiter = None
            waiter()
        now = self._sim.now
        airtime = self._phy.frame_airtime(frame.size_bytes)  # type: ignore[attr-defined]
        view = self._neighbors.table_from(sender, now).view
        delays, links = view.delays, view.links
        tx = Transmission(sender, frame, now, airtime, delays, links)
        state.tx = tx
        ongoing = self._tracked.get(sender)
        if ongoing:
            for rec in ongoing.values():
                rec.corrupted = True
        self._sim.fan_out(now, delays, links, self._arrival_start, tx, "rx-start")
        tx._end_event = self._sim.at(now + airtime, lambda: self._end_tx(tx, False), label="tx-end")
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(now, sender, "tx-start", frame=str(frame), airtime=airtime)
        return tx

    def _end_tx(self, tx: Transmission, aborted: bool) -> None:
        tx._end_event = None
        sender = tx.sender
        state = self._nodes[sender]
        state.tx = None
        end = self._sim.now
        if not state.busy:
            state.last_busy_end = end
            if state.idle_waiters:
                self._fire_idle(state)
        self._sim.fan_out(end, tx.delays, tx.links, self._arrival_end, tx, "rx-end")
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(end, sender, "tx-abort" if aborted else "tx-end",
                        frame=str(tx.frame))
        listener = state.listener
        if listener is not None:
            listener.on_tx_complete(tx.frame, aborted=aborted)

    def _arrival_start(self, tx: Transmission, link: Link) -> None:
        node = link.node
        state = self._nodes[node]
        if link.sensed:
            prior = state.busy
            state.busy = prior + 1
            if not prior:
                waiter = state.busy_waiter
                if waiter is not None:
                    state.busy_waiter = None
                    waiter()
        else:
            prior = 0
        ongoing = self._tracked.setdefault(node, {})
        sinr = self._sinr
        if sinr is None:
            signal_mw = itf_mw = 0.0
            overlap = prior > 0
        else:
            signal_mw, itf_mw = sinr.arrive(node, tx, link.power_dbm, ongoing)
            overlap = False
        if overlap:
            for rec in ongoing.values():
                rec.corrupted = True
        corrupted = overlap or state.tx is not None
        if link.in_rx_range:
            faults = self._faults
            if faults is not None and faults.suppresses_delivery(
                    tx.sender, node, self._sim.now):
                return
            ongoing[tx] = _Reception(tx, corrupted, signal_mw, itf_mw)
            listener = state.listener
            if listener is not None:
                listener.on_rx_start(tx.sender)

    def _arrival_end(self, tx: Transmission, link: Link) -> None:
        node = link.node
        sinr = self._sinr
        if sinr is not None:
            sinr.depart(node, tx)
        state = self._nodes[node]
        if link.sensed:
            if state.busy <= 0:
                raise SimulationError(
                    f"busy-counter underflow at node {node}")
            state.busy -= 1
            if not state.busy and state.tx is None:
                state.last_busy_end = self._sim.now
                if state.idle_waiters:
                    self._fire_idle(state)
        ongoing = self._tracked.get(node)
        rec = ongoing.pop(tx, None) if ongoing else None
        if rec is None:
            return
        listener = state.listener
        if listener is None:
            return
        frame = tx.frame
        tracer = self._tracer
        faults = self._faults
        if faults is not None:
            now = self._sim.now
            if faults.suppresses_delivery(tx.sender, node, now):
                if tracer.enabled:
                    tracer.emit(now, node, "fault-rx-dropped", sender=tx.sender)
                return
            if not rec.corrupted and faults.corrupts_arrival(
                    tx.sender, node, now, self._rng):
                rec.corrupted = True
                if tracer.enabled:
                    tracer.emit(now, node, "fault-corrupt", sender=tx.sender)
        ok = not rec.corrupted and not tx.aborted
        if ok and sinr is not None:
            sinr.decodes.append((self._sim.now, node, rec.signal_mw,
                                 rec.peak_itf_mw))
            reception = sinr.reception
            sinr_db = reception.sinr_db(rec.signal_mw, rec.peak_itf_mw)
            if not reception.decodes(sinr_db):
                ok = False
                sinr.counters.dropped += 1
                if tracer.enabled:
                    tracer.emit(self._sim.now, node, "sinr-drop",
                                frame=str(frame), sender=tx.sender,
                                sinr_db=round(sinr_db, 3))
        if ok and not self._error_free and self._error_model.corrupts(
                frame.size_bytes, self._rng):  # type: ignore[attr-defined]
            ok = False
        if ok:
            if sinr is not None:
                sinr.counters.record_delivery(sinr_db)
            if tracer.enabled:
                tracer.emit(self._sim.now, node, "rx-ok", frame=str(frame), sender=tx.sender)
            listener.on_frame_received(frame, tx.sender)
        else:
            if tracer.enabled:
                tracer.emit(self._sim.now, node, "rx-error", frame=str(frame), sender=tx.sender)
            listener.on_frame_error(tx.sender)
