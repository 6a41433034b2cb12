"""The MAC service interface shared by RMAC and the baselines.

RMAC (Section 3.3) exposes two services -- **Reliable Send** and
**Unreliable Send** -- each covering unicast, multicast and broadcast.
The same surface is implemented by every protocol in this repository, so
the network layer and the experiment harness are protocol-agnostic:

* ``send_reliable(receivers, payload, payload_bytes)`` -- receivers is an
  explicit tuple (one address = unicast; the whole neighbor set =
  reliable broadcast);
* ``send_unreliable(dst, payload, payload_bytes)`` -- dst is a node id,
  BROADCAST, or a multicast group sentinel.

Requests are queued in a FIFO :class:`TransmitQueue` (unbounded by
default, per the paper's loss model) and completed with a
:class:`SendOutcome`, which the network layer and the metrics collectors
observe.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.mac.addresses import BROADCAST, MULTICAST_FLAG, is_unicast
from repro.mac.backoff import BackoffTick
from repro.mac.frames import DataFrame
from repro.mac.stats import MacStats
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.trace import NULL_TRACER, Tracer

__all__ = [
    "BROADCAST",
    "MULTICAST_FLAG",
    "SendRequest",
    "SendOutcome",
    "TransmitQueue",
    "MacProtocol",
]


@dataclass
class SendRequest:
    """One queued MAC transmission request."""

    payload: object
    payload_bytes: int
    reliable: bool
    #: Reliable: ordered tuple of receiver node ids.
    #: Unreliable: single-element tuple holding the frame's dst address.
    receivers: Tuple[int, ...]
    enqueued_at: int = 0
    on_complete: Optional[Callable[["SendOutcome"], None]] = None

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError("negative payload size")
        if self.reliable:
            if not self.receivers:
                raise ValueError("reliable send needs at least one receiver")
            if len(set(self.receivers)) != len(self.receivers):
                raise ValueError("duplicate receivers in reliable send")
            if any(not is_unicast(r) for r in self.receivers):
                raise ValueError("reliable receivers must be concrete node ids")
        else:
            if len(self.receivers) != 1:
                raise ValueError("unreliable send takes exactly one dst address")


@dataclass(frozen=True)
class SendOutcome:
    """Completion report for a :class:`SendRequest`."""

    request: SendRequest
    #: Receivers confirmed (reliable) -- empty for unreliable sends.
    acked: Tuple[int, ...]
    #: Receivers still unconfirmed when the retry limit hit (reliable).
    failed: Tuple[int, ...]
    #: True if the frame was dropped (retry exhaustion or queue overflow).
    dropped: bool
    completed_at: int = 0


class TransmitQueue:
    """FIFO transmit queue with an optional capacity cap."""

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self._items: deque[SendRequest] = deque()
        self.capacity = capacity
        self.enqueued = 0
        self.overflowed = 0

    def push(self, request: SendRequest) -> bool:
        """Enqueue; returns False (and counts an overflow) if full."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            self.overflowed += 1
            return False
        self._items.append(request)
        self.enqueued += 1
        return True

    def pop(self) -> SendRequest:
        return self._items.popleft()

    def peek(self) -> SendRequest:
        return self._items[0]

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)


class MacProtocol(ABC):
    """Base class for every MAC protocol in the repository.

    The base owns the queue, the stats, upper-layer delivery, the service
    entry points, the unreliable-receive accept rule and the request
    lifecycle below. A subclass owns its contention procedure (``_kick``,
    its tick, ``_enter_contention``), its exchange and its state (RMAC's
    ``RmacState``, the 802.11 family's ``_phase``). It sets ``config``
    (with ``retry_limit`` and ``data_overhead``) and ``backoff``.

    **The request lifecycle.** When contention is won, the subclass calls
    ``_start_transmission``. That pops the next request and bumps the
    16-bit data sequence number ``_seq``, or resumes the request in
    service (``_request``) after a backoff.

    * An unreliable request is one shot. ``_send_unreliable(frame)``
      sends the frame from ``_data_frame``, and the subclass reports the
      end of it to ``_on_unreliable_sent(frame, aborted)``. That counts
      the frame sent or aborted, completes the request and contends
      again with a draw.
    * A reliable request is served as ordered *units* (``_units_of``):
      the whole receiver set by default, one receiver for BMW, and an
      MRTS chunk of at most 20 receivers for RMAC (Section 3.4). RMAC
      sends each chunk as a new frame with its own seq
      (``FRESH_SEQ_PER_UNIT``). ``_attempt(request)`` runs one attempt
      for the unit's unconfirmed receivers, ``_pending``, and the
      subclass moves each receiver it confirms to ``_acked``. Each
      attempt ends in one of two tails:

      - ``_unit_succeeded()``: every pending receiver is confirmed.
        Reset CW and go to the next unit.
      - ``_attempt_failed()``: count a failure in ``_failures``. Below
        the retry limit, double CW and contend again; the next
        ``_start_transmission`` counts a retransmission and runs the
        next attempt. At the limit, give the unit up: mark its pending
        receivers failed, reset CW and go to the next unit. The
        request's first give-up counts in ``packets_dropped``.

      After the last unit the request ends. It counts in
      ``packets_delivered`` if no receiver failed, and completes with
      ``dropped = bool(failed)``.

    A backoff with a fresh draw follows every unit and every request.
    """

    #: Human-readable protocol name (used in reports).
    NAME = "mac"
    #: Whether each unit of a reliable request is a new data frame with
    #: its own seq (RMAC) rather than one frame for the whole request.
    FRESH_SEQ_PER_UNIT = False
    #: Whether the lifecycle emits the ``drop`` and ``reliable-done``
    #: trace events (RMAC's vocabulary; the 802.11 family traces no MAC
    #: events).
    TRACES_REQUESTS = False

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        radio: Radio,
        queue_capacity: Optional[int] = None,
        tracer: Tracer = NULL_TRACER,
    ):
        # Every field set here is on every node's MAC. CPython keeps an
        # instance's fields in a small shared-key dict only while there
        # are fewer than 30 of them; past that, each instance gets a full
        # dict (about 1.3 KB more per node) and attribute loads slow
        # down. tests/mac/test_base.py holds the MACs to that budget.
        self.node_id = node_id
        self.sim = sim
        self.radio = radio
        self.tracer = tracer
        self.queue = TransmitQueue(queue_capacity)
        self.stats = MacStats(node_id=node_id)
        #: Upper-layer receive callback: (payload, src_node) -> None.
        self.upper_rx: Optional[Callable[[object, int], None]] = None
        #: Multicast groups whose Unreliable Sends this node accepts.
        self.multicast_groups: set[int] = set()
        #: The request in service (kept across backoffs until it
        #: completes), its data sequence number and the failed attempts
        #: of its current unit.
        self._request: Optional[SendRequest] = None
        self._seq = 0
        self._failures = 0
        #: A reliable request's units still to serve, the receivers of
        #: the one in service not yet confirmed, and the request's
        #: confirmed and given-up receivers.
        self._units: Iterator[Tuple[int, ...]] = iter(())
        self._pending: List[int] = []
        self._acked: List[int] = []
        self._failed: List[int] = []
        #: The backoff tick (never cancelled, at most one in flight --
        #: guarded by ``_tick_pending``, which also covers a running
        #: countdown) and whether a wait for the busy medium to clear is
        #: registered.
        self._tick_event = BackoffTick(self)
        self._tick_pending = False
        self._idle_wait_pending = False
        radio.attach(self)

    # ------------------------------------------------------------------
    # Service entry points (the paper's Reliable / Unreliable Send)
    # ------------------------------------------------------------------
    def send_reliable(
        self,
        receivers: Tuple[int, ...],
        payload: object,
        payload_bytes: int,
        on_complete: Optional[Callable[[SendOutcome], None]] = None,
    ) -> bool:
        """Queue a Reliable Send to an explicit, ordered receiver set.

        Unicast = one receiver; reliable broadcast = the caller's full
        one-hop neighbor set (the paper folds all three modes into the
        address sequence this way).
        """
        request = SendRequest(
            payload=payload,
            payload_bytes=payload_bytes,
            reliable=True,
            receivers=tuple(receivers),
            enqueued_at=self.sim.now,
            on_complete=on_complete,
        )
        return self._enqueue(request)

    def send_unreliable(
        self,
        dst: int,
        payload: object,
        payload_bytes: int,
        on_complete: Optional[Callable[[SendOutcome], None]] = None,
    ) -> bool:
        """Queue an Unreliable Send (one shot, no recovery)."""
        request = SendRequest(
            payload=payload,
            payload_bytes=payload_bytes,
            reliable=False,
            receivers=(dst,),
            enqueued_at=self.sim.now,
            on_complete=on_complete,
        )
        return self._enqueue(request)

    def _enqueue(self, request: SendRequest) -> bool:
        if request.reliable:
            self.stats.packets_offered += 1
        if not self.queue.push(request):
            self.stats.queue_drops += 1
            self._complete(request, acked=(), failed=request.receivers, dropped=True)
            return False
        self._kick()
        return True

    def _complete(
        self,
        request: SendRequest,
        acked: Tuple[int, ...],
        failed: Tuple[int, ...],
        dropped: bool,
    ) -> None:
        if request.on_complete is not None:
            outcome = SendOutcome(
                request=request,
                acked=acked,
                failed=failed,
                dropped=dropped,
                completed_at=self.sim.now,
            )
            request.on_complete(outcome)

    def deliver_up(self, payload: object, src: int) -> None:
        """Hand a received payload to the network layer."""
        if self.upper_rx is not None:
            self.upper_rx(payload, src)

    def _handle_unreliable_data(self, frame: DataFrame) -> None:
        """Accept an Unreliable Send addressed to this node, to everyone,
        or to a multicast group it belongs to."""
        dst = frame.dst
        if dst == self.node_id or dst == BROADCAST:
            pass  # unicast to us, or a broadcast
        elif dst == MULTICAST_FLAG:
            group = getattr(frame.payload, "group", None)
            if group not in self.multicast_groups:
                return
        else:
            return
        # count_rx/deliver_up inlined: this is the busiest rx path at
        # paper scale (every BLESS hello lands here).
        counts = self.stats.frames_rx
        counts["UDATA"] = counts.get("UDATA", 0) + 1
        upper = self.upper_rx
        if upper is not None:
            upper(frame.payload, frame.src)

    # ------------------------------------------------------------------
    # Contention plumbing
    # ------------------------------------------------------------------
    def _has_work(self) -> bool:
        return self._request is not None or bool(self.queue)

    def _ensure_tick(self, delay: int) -> None:
        if not self._tick_pending:
            self._tick_pending = True
            sim = self.sim
            sim.schedule_fast(sim.now + delay, self._tick_event)

    # ------------------------------------------------------------------
    # The request lifecycle (class docstring)
    # ------------------------------------------------------------------
    def _start_transmission(self) -> None:
        """Contention won: start the next request, or the next attempt of
        the one in service."""
        request = self._request
        if request is None:
            request = self._request = self.queue.pop()
            self._next_seq()
            if not request.reliable:
                self.stats.count_tx("UDATA")
                self._send_unreliable(self._data_frame(request.receivers[0], reliable=False))
                return
            self._units = iter(self._units_of(request.receivers))
            self._pending = list(next(self._units))
            self._acked = []
            self._failed = []
            self._failures = 0
        elif self._failures > 0:
            self.stats.retransmissions += 1
        self._attempt(request)

    def _next_seq(self) -> int:
        """Bump the 16-bit data sequence number and return it."""
        self._seq = (self._seq + 1) & 0xFFFF
        return self._seq

    def _units_of(self, receivers: Tuple[int, ...]) -> Sequence[Tuple[int, ...]]:
        """A reliable request's receivers, split into the units served in
        order (default: one unit)."""
        return (receivers,)

    def _data_frame(self, dst: int, reliable: bool) -> DataFrame:
        """The in-service request's data frame, addressed to ``dst``."""
        request = self._request
        return DataFrame(
            src=self.node_id,
            dst=dst,
            seq=self._seq,
            payload_bytes=request.payload_bytes,
            reliable=reliable,
            payload=request.payload,
            overhead=self.config.data_overhead,
        )

    def _on_unreliable_sent(self, frame: object, aborted: bool) -> None:
        """The one-shot tail: count, complete, contend again."""
        if aborted:
            self.stats.unreliable_aborted += 1
        else:
            self.stats.unreliable_sent += 1
        self._finish_request(acked=(), failed=(), dropped=aborted)

    def _unit_succeeded(self) -> None:
        """Every receiver still pending in the unit confirmed."""
        self._acked.extend(self._pending)
        self._pending = []
        self.backoff.reset_cw()
        self._next_unit()

    def _attempt_failed(self) -> None:
        """An attempt ended with receivers of the unit unconfirmed."""
        self._failures += 1
        if self._failures <= self.config.retry_limit:
            self.backoff.double_cw()
            self._enter_contention(draw=True)
            return
        # "If this limit is exceeded, the frame will be dropped."
        if not self._failed:
            self.stats.packets_dropped += 1
        self._failed.extend(self._pending)
        self._pending = []
        if self.TRACES_REQUESTS:
            self.tracer.emit(self.sim.now, self.node_id, "drop", seq=self._seq)
        self.backoff.reset_cw()
        self._next_unit()

    def _next_unit(self) -> None:
        """The unit in service ended: load the next one, or end the request."""
        unit = next(self._units, None)
        if unit is not None:
            self._pending = list(unit)
            self._failures = 0
            if self.FRESH_SEQ_PER_UNIT:
                self._next_seq()
            self._enter_contention(draw=True)
            return
        acked = tuple(self._acked)
        failed = tuple(self._failed)
        if not failed:
            self.stats.packets_delivered += 1
        if self.TRACES_REQUESTS and self.tracer.enabled:
            self.tracer.emit(
                self.sim.now, self.node_id, "reliable-done",
                requested=self._request.receivers,
                acked=acked, failed=failed, dropped=bool(failed),
            )
        self._finish_request(acked=acked, failed=failed, dropped=bool(failed))

    def _finish_request(
        self, acked: Tuple[int, ...], failed: Tuple[int, ...], dropped: bool
    ) -> None:
        """Complete the request in service, then contend again with a draw."""
        request = self._request
        self._request = None
        self._complete(request, acked=acked, failed=failed, dropped=dropped)
        self._enter_contention(draw=True)

    # ------------------------------------------------------------------
    @abstractmethod
    def _kick(self) -> None:
        """Ensure the protocol engine is running (queue just got work)."""

    @abstractmethod
    def _enter_contention(self, draw: bool) -> None:
        """Leave the exchange and contend again, drawing a fresh BI if
        ``draw``."""

    @abstractmethod
    def _attempt(self, request: SendRequest) -> None:
        """Run one attempt of the reliable exchange for ``_pending``."""

    @abstractmethod
    def _send_unreliable(self, frame: DataFrame) -> None:
        """Send an unreliable request's one frame; its end is reported to
        ``_on_unreliable_sent``."""

    def start(self) -> None:
        """Called once when the simulation begins (default: nothing)."""

    # ------------------------------------------------------------------
    # Data-channel callbacks (a ChannelListener; default: ignore)
    # ------------------------------------------------------------------
    def on_frame_received(self, frame: object, sender: int) -> None:
        """A frame arrived intact on the data channel."""

    def on_frame_error(self, sender: int) -> None:
        """A frame arrived corrupted (collision / abort / bit errors)."""

    def on_tx_complete(self, frame: object, aborted: bool) -> None:
        """This node's own transmission ended."""

    def on_rx_start(self, sender: int) -> None:
        """The first bit of a decodable frame is arriving."""
