"""The shared data channel.

Models GloMoSim-style frame transmission with:

* per-link propagation delay (distance / c, bounded by the paper's
  tau = 1 us for ranges under 300 m);
* carrier sense via per-node busy counters maintained by arrival events;
* the overlap collision model: a reception is corrupted if any other
  sensed transmission overlaps it at the receiver, if the receiver itself
  transmits during it, if the sender aborts mid-frame (RMAC's
  abort-on-RBT), or if the bit-error model corrupts it;
* abortable transmissions (truncated frames shorten the busy interval
  and are never delivered).

Every arrival the receiver's radio senses runs through one pipeline
(``_arrival_start`` / ``_arrival_end``), fanned out over the ``sensed``
links of the sender's :class:`~repro.phy.neighbors.LinkView`. The only
optional stage is the reception decision of a
:class:`repro.phy.sinr.SinrState` (``sinr``): it replaces the overlap
rule with accumulated interference, and at arrival end decodes only if
the signal-to-(peak interference + noise) ratio clears its threshold. The
stage reads the transmissions themselves: each one reports its start
and end with the seqs its arrivals take, and a decode replays the
reception's window from them. Interference-only links (below carrier
sense but above the spec's cutoff: ``Link.sensed`` False, never
decodable) get no arrival events at all, only reserved seqs
(:meth:`~repro.sim.engine.Simulator.reserve`), so the event order of everything else is unchanged. Capture -- a strong
frame surviving a weak overlap -- is that decision with the capture
margin as the threshold. Without it (``sinr=None``, the paper's model)
the pipeline is the overlap rule alone; unit-disk SINR reproduces it
bit-identically (property-tested).

Everything the channel keeps about one node lives in one record
(:class:`_NodeState`), so an arrival start or end is one dict lookup,
then attribute reads and writes on that record. A node gets its record
on first use, attached or not, so a stray arrival end anywhere is a
busy-counter underflow.

The channel is protocol-agnostic: RMAC, 802.11 DCF, BMMM and BMW all
run on the same instance.
"""

from __future__ import annotations

import random
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Protocol,
                    Sequence)

from repro.phy.error import BitErrorModel, NoErrors
from repro.phy.neighbors import Link, NeighborService
from repro.phy.params import PhyParams
from repro.sim.engine import EventHandle, SimulationError, Simulator
from repro.sim.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.faults.injector import FaultInjector
    from repro.phy.sinr import SinrState, TxArrivals


class ChannelListener(Protocol):
    """Callbacks a radio receives from the data channel."""

    def on_frame_received(self, frame: object, sender: int) -> None:
        """A frame arrived intact."""

    def on_frame_error(self, sender: int) -> None:
        """A frame arrived but was corrupted (collision/abort/bit errors)."""

    def on_rx_start(self, sender: int) -> None:
        """The first bit of a decodable frame is arriving (RMAC's
        ``Twf_rdata`` cancels on this)."""

    def on_tx_complete(self, frame: object, aborted: bool) -> None:
        """This node's own transmission finished (or was aborted)."""


class Transmission:
    """One in-flight frame transmission.

    ``links`` are the sender's sensed links, the ones that get arrival
    events, sorted by delay (ties in link-table order), and ``delays``
    their delays: the order both arrival fan-outs take. ``arrivals`` is
    the SINR stage's record of every arrival (None without SINR
    reception).
    """

    __slots__ = ("sender", "frame", "start", "airtime", "delays", "links",
                 "arrivals", "aborted_at", "_end_event")

    def __init__(self, sender: int, frame: object, start: int, airtime: int,
                 delays: Sequence[int], links: Sequence[Link]):
        self.sender = sender
        self.frame = frame
        self.start = start
        self.airtime = airtime
        self.delays = delays
        self.links = links
        self.arrivals: Optional["TxArrivals"] = None
        self.aborted_at: Optional[int] = None
        self._end_event: Optional[EventHandle] = None

    @property
    def end(self) -> int:
        """Actual end of the transmission (scheduled end, or abort time)."""
        return self.aborted_at if self.aborted_at is not None else self.start + self.airtime

    @property
    def aborted(self) -> bool:
        return self.aborted_at is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = " aborted" if self.aborted else ""
        return f"<Transmission from {self.sender} [{self.start}..{self.end}]{flag}>"


class _NodeState:
    """Everything the channel keeps for one node, in one record.

    ``busy`` counts the sensed arrivals in the air at the node;
    ``receiving`` maps each reception in progress to its corrupted flag;
    ``tx`` is the node's own transmission (None when silent);
    ``last_busy_end`` is when the medium last went idle there (for
    DIFS); ``idle_waiters`` are the one-shot callbacks for the next
    busy->idle transition and ``busy_waiter`` the one for the next
    idle->busy transition.
    """

    __slots__ = ("busy", "receiving", "listener", "tx", "last_busy_end",
                 "idle_waiters", "busy_waiter")

    def __init__(self) -> None:
        self.busy = 0
        self.receiving: Dict[Transmission, bool] = {}
        self.listener: Optional[ChannelListener] = None
        self.tx: Optional[Transmission] = None
        self.last_busy_end = 0
        self.idle_waiters: List[Callable[[], None]] = []
        self.busy_waiter: Optional[Callable[[], None]] = None


class _NodeStates(dict):
    """node -> :class:`_NodeState`, made on a node's first use.

    A receiver that was never attached still needs carrier sense and
    reception bookkeeping, and an arrival end at a node the channel has
    never seen must fail as a busy-counter underflow, not a KeyError.
    """

    __slots__ = ()

    def __missing__(self, node: int) -> _NodeState:
        state = self[node] = _NodeState()
        return state


class DataChannel:
    """The shared wideband data channel."""

    def __init__(
        self,
        sim: Simulator,
        neighbors: NeighborService,
        phy: PhyParams,
        error_model: Optional[BitErrorModel] = None,
        rng: Optional[random.Random] = None,
        tracer: Tracer = NULL_TRACER,
        faults: Optional["FaultInjector"] = None,
        sinr: Optional["SinrState"] = None,
    ):
        self._sim = sim
        self._neighbors = neighbors
        self._phy = phy
        self._error_model = error_model or NoErrors()
        #: NoErrors never consults the RNG, so delivery can skip the call
        #: entirely without perturbing anyone's random stream.
        self._error_free = type(self._error_model) is NoErrors
        self._rng = rng or random.Random(0)
        self._tracer = tracer
        #: Optional fault injector (see repro.faults). ``None`` keeps the
        #: arrival paths on a single ``is None`` test; with an injector,
        #: crashed endpoints suppress deliveries entirely and fades or
        #: corruption windows turn deliveries into frame errors.
        self._faults = faults if faults is not None and faults.affects_data else None
        #: Optional SINR reception decision (see repro.phy.sinr). ``None``
        #: keeps the arrival pipeline on a single ``is None`` test per
        #: stage -- the same zero-cost-when-disabled discipline as
        #: ``faults``.
        self._sinr = sinr
        if sinr is not None:
            sinr.bind(sim)
        #: Every node's carrier sense, receptions, listener, transmission
        #: and waiters (see :class:`_NodeState`).
        self._nodes = _NodeStates()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, node: int, listener: ChannelListener) -> None:
        """Register the listener (radio) for ``node``."""
        self._nodes[node].listener = listener

    @property
    def phy(self) -> PhyParams:
        return self._phy

    @property
    def neighbors(self) -> NeighborService:
        return self._neighbors

    @property
    def sinr(self) -> Optional["SinrState"]:
        """The SINR reception state, or None on the threshold path."""
        return self._sinr

    # ------------------------------------------------------------------
    # Sensing
    # ------------------------------------------------------------------
    def busy(self, node: int) -> bool:
        """Carrier sense at ``node``: any sensed transmission, or own tx."""
        state = self._nodes[node]
        return state.busy > 0 or state.tx is not None

    def is_transmitting(self, node: int) -> bool:
        return self._nodes[node].tx is not None

    def idle_duration(self, node: int) -> int:
        """How long the medium has been continuously idle at ``node`` (ns).

        Zero while busy. Used by the 802.11-family DIFS rule; RMAC does
        not need it (no interframe spaces).
        """
        state = self._nodes[node]
        if state.busy or state.tx is not None:
            return 0
        return self._sim.now - state.last_busy_end

    def notify_idle(self, node: int, callback) -> None:
        """Register a one-shot callback for the next busy->idle transition
        at ``node``. Fires immediately (synchronously) if already idle."""
        state = self._nodes[node]
        if not state.busy and state.tx is None:
            callback()
            return
        state.idle_waiters.append(callback)

    @staticmethod
    def _fire_idle(state: _NodeState) -> None:
        """The medium at ``state``'s node just went idle: run its idle
        waiters. One registered by a waiter waits for the next idle."""
        waiters = state.idle_waiters
        state.idle_waiters = []
        for callback in waiters:
            callback()

    def notify_busy(self, node: int, callback: Callable[[], None]) -> None:
        """Register a one-shot callback for the next idle->busy transition
        at ``node``: a sensed arrival starting on an idle medium, or the
        node's own transmission. One per node; a new one replaces it."""
        self._nodes[node].busy_waiter = callback

    def cancel_notify_busy(self, node: int) -> None:
        """Drop ``node``'s busy callback, if any."""
        self._nodes[node].busy_waiter = None

    def current_tx(self, node: int) -> Optional[Transmission]:
        return self._nodes[node].tx

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, sender: int, frame: object) -> Transmission:
        """Start transmitting ``frame`` (with ``size_bytes``) from ``sender``."""
        state = self._nodes[sender]
        if state.tx is not None:
            raise RuntimeError(f"node {sender} is already transmitting")
        waiter = state.busy_waiter
        if waiter is not None:
            state.busy_waiter = None
            waiter()
        sim = self._sim
        now = sim.now
        airtime = self._phy.frame_airtime(frame.size_bytes)  # type: ignore[attr-defined]
        view = self._neighbors.table_from(sender, now)
        sensed = view.sensed
        delays = sensed.delays
        links = sensed.links
        tx = Transmission(sender, frame, now, airtime, delays, links)
        state.tx = tx
        # Transmitting while receiving destroys the ongoing receptions
        # (half-duplex radio).
        ongoing = state.receiving
        for other in ongoing:
            ongoing[other] = True
        seq = sim.fan_out(now, delays, links, self._arrival_start, tx,
                          "rx-start")
        sinr = self._sinr
        if sinr is not None:
            # The interference-only arrivals take the seqs after the
            # fan-out's, so the whole block is as large as ever.
            sim.reserve(now, view.quiet)
            tx.arrivals = sinr.start(view, seq)
        tx._end_event = sim.at(now + airtime, lambda: self._end_tx(tx, False), label="tx-end")
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(now, sender, "tx-start", frame=str(frame), airtime=airtime)
        return tx

    def abort(self, tx: Transmission) -> None:
        """Abort an in-flight transmission (RMAC's abort-on-RBT).

        The truncated frame is never delivered; nodes that had begun
        receiving it see a frame error at the truncated end time.
        """
        if tx.aborted:
            return
        if self._nodes[tx.sender].tx is not tx:
            raise RuntimeError("cannot abort: transmission is not active")
        tx.aborted_at = self._sim.now
        tx._end_event.cancel()  # type: ignore[union-attr]
        self._end_tx(tx, True)

    def _end_tx(self, tx: Transmission, aborted: bool) -> None:
        """Take ``tx`` off the air now: at its scheduled end, or aborted."""
        tx._end_event = None
        sender = tx.sender
        state = self._nodes[sender]
        state.tx = None
        sim = self._sim
        end = sim.now
        if not state.busy:
            state.last_busy_end = end
            if state.idle_waiters:
                self._fire_idle(state)
        seq = sim.fan_out(end, tx.delays, tx.links, self._arrival_end, tx,
                          "rx-end")
        arrivals = tx.arrivals
        if arrivals is not None:
            sim.reserve(end, arrivals.view.quiet)
            self._sinr.end(arrivals, seq)  # type: ignore[union-attr]
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(end, sender, "tx-abort" if aborted else "tx-end",
                        frame=str(tx.frame))
        listener = state.listener
        if listener is not None:
            listener.on_tx_complete(tx.frame, aborted=aborted)

    # ------------------------------------------------------------------
    # The arrival pipeline (driven by the per-link fan-outs)
    # ------------------------------------------------------------------
    def _arrival_start(self, tx: Transmission, link: Link) -> None:
        """First bit of ``tx`` reaches ``link.node``, a sensed link.

        The node's busy counter rises. An overlap between arrivals
        corrupts every reception involved -- unless a SINR stage is set,
        whose check at arrival end replaces the boolean rule.
        """
        node = link.node
        state = self._nodes[node]
        ongoing = state.receiving
        overlap = False
        prior = state.busy
        state.busy = prior + 1
        if prior:
            overlap = self._sinr is None
        else:
            waiter = state.busy_waiter
            if waiter is not None:
                state.busy_waiter = None
                waiter()
        if overlap:
            for other in ongoing:
                ongoing[other] = True
        corrupted = overlap or state.tx is not None
        if link.in_rx_range:
            faults = self._faults
            if faults is not None and faults.suppresses_delivery(
                    tx.sender, node, self._sim.now):
                # A crashed endpoint: the energy above still interferes,
                # but no reception begins -- to this receiver the frame
                # does not exist (no on_rx_start, nothing at arrival end).
                return
            ongoing[tx] = corrupted
            listener = state.listener
            if listener is not None:
                listener.on_rx_start(tx.sender)

    def _arrival_end(self, tx: Transmission, link: Link) -> None:
        """Last bit of ``tx`` leaves ``link.node``: settle the reception.

        A frame is delivered iff it was not corrupted, the sender did not
        abort, the SINR decision (if any) decodes it, and the bit-error
        model spares it -- checked in that order, so frames lost earlier
        never consume a bit-error draw.
        """
        node = link.node
        state = self._nodes[node]
        count = state.busy
        if count <= 0:
            # An end without a matching start means arrival bookkeeping
            # lost or duplicated an event; inventing a count here would
            # silently mask it. Fail loudly instead.
            self._tracer.emit(
                self._sim.now, node, "channel-underflow", sender=tx.sender
            )
            raise SimulationError(
                f"busy-counter underflow at node {node}: arrival-end from "
                f"sender {tx.sender} at t={self._sim.now} without a "
                f"matching arrival-start"
            )
        count -= 1
        state.busy = count
        if not count and state.tx is None:
            state.last_busy_end = self._sim.now
            if state.idle_waiters:
                self._fire_idle(state)
        corrupted = state.receiving.pop(tx, None)
        if corrupted is None:
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
                # An endpoint crashed since the arrival began: the frame
                # vanishes (no rx callback at all, matching a receiver
                # that never registered the reception).
                if tracer.enabled:
                    tracer.emit(now, node, "fault-rx-dropped", sender=tx.sender)
                return
            if not corrupted and faults.corrupts_arrival(
                    tx.sender, node, now, self._rng):
                corrupted = True
                if tracer.enabled:
                    tracer.emit(now, node, "fault-corrupt", sender=tx.sender)
        ok = not corrupted and tx.aborted_at is None
        sinr = self._sinr
        if ok and sinr is not None:
            reception = sinr.reception
            sinr_db = reception.sinr_db(
                *sinr.replay(tx.arrivals, node))  # type: ignore[arg-type]
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
