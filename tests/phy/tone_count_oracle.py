"""The counter form of busy-tone presence, kept as a test oracle.

Before presence was judged from the emissions themselves,
:class:`repro.phy.busytone.BusyToneChannel` kept a per-node presence
counter driven by two fan-outs per emission: one member per listener at
``start + delay`` adding one (``tone-on``) and one at ``end + delay``
taking one away (``tone-off``). The member that took a counter from 0 to
1 fired the node's presence waiter, and the one that took it back to 0
fired its clear waiters, from inside those events.

:class:`ToneCountOracle` is that form, for the presence API only
(``turn_on``, ``turn_off``, ``pulse``, ``present`` and the waiters), on
unit-disk reach with no faults and no detection watchers. Its fan-outs
take the same seqs the channel reserves, so a script run against both
gives every event the same ``(time, seq)``, and differential tests can
require the same answers at the same positions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.phy.neighbors import NeighborService
from repro.sim.engine import Simulator


class ToneCountOracle:
    """Per-node presence counters updated by one fan-out member per
    listener at each turn-on and turn-off."""

    def __init__(self, sim: Simulator, neighbors: NeighborService):
        self._sim = sim
        self._neighbors = neighbors
        #: emitter -> (delays, nodes) of its tone's listeners.
        self._active: Dict[int, Tuple[Tuple[int, ...], List[int]]] = {}
        self._present: Dict[int, int] = {}
        self._clear_waiters: Dict[int, List[Callable[[], None]]] = {}
        self._present_waiters: Dict[int, Callable[[], None]] = {}

    def turn_on(self, emitter: int) -> None:
        if emitter in self._active:
            raise RuntimeError(f"node {emitter} already emits")
        now = self._sim.now
        sensed = self._neighbors.table_from(emitter, now).sensed
        delays = sensed.delays
        nodes = [link.node for link in sensed.links]
        self._active[emitter] = (delays, nodes)
        self._sim.fan_out(now, delays, nodes, ToneCountOracle._tone_on, self,
                          "tone-on")

    def turn_off(self, emitter: int) -> None:
        delays, nodes = self._active.pop(emitter)
        self._sim.fan_out(self._sim.now, delays, nodes,
                          ToneCountOracle._tone_off, self, "tone-off")

    def pulse(self, emitter: int, duration: int) -> None:
        self.turn_on(emitter)
        self._sim.after(duration, lambda: self.turn_off(emitter),
                        label="tone-pulse-end")

    def is_emitting(self, emitter: int) -> bool:
        return emitter in self._active

    def present(self, node: int) -> bool:
        return self._present.get(node, 0) > 0

    def notify_clear(self, node: int, callback: Callable[[], None]) -> None:
        if not self.present(node):
            callback()
            return
        self._clear_waiters.setdefault(node, []).append(callback)

    def notify_present(self, node: int, callback: Callable[[], None]) -> None:
        self._present_waiters[node] = callback

    def cancel_notify_present(self, node: int) -> None:
        self._present_waiters.pop(node, None)

    def _tone_on(self, node: int) -> None:
        present = self._present
        prior = present.get(node, 0)
        present[node] = prior + 1
        if not prior:
            waiter = self._present_waiters.pop(node, None)
            if waiter is not None:
                waiter()

    def _tone_off(self, node: int) -> None:
        value = self._present.get(node, 0) - 1
        if value:
            self._present[node] = value
        else:
            self._present.pop(node, None)
            waiters = self._clear_waiters.pop(node, None)
            if waiters:
                for callback in waiters:
                    callback()
