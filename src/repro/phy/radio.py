"""Per-node radio facade.

A :class:`Radio` bundles, for one node, access to the shared data channel
and the busy-tone channels. MAC protocols talk only to their radio; the
radio forwards channel callbacks to the attached :class:`RadioListener`
(the MAC).
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from repro.phy.busytone import BusyToneChannel, ToneType
from repro.phy.channel import DataChannel, Transmission
from repro.phy.params import PhyParams


class RadioListener:
    """Callbacks a MAC receives from its radio. Subclass and override."""

    def on_frame_received(self, frame: object, sender: int) -> None:
        """A frame arrived intact on the data channel."""

    def on_frame_error(self, sender: int) -> None:
        """A frame arrived corrupted (collision / abort / bit errors)."""

    def on_tx_complete(self, frame: object, aborted: bool) -> None:
        """This node's own transmission ended."""

    def on_rx_start(self, sender: int) -> None:
        """The first bit of a decodable frame is arriving."""


class Radio:
    """One node's interface to the shared channels."""

    def __init__(
        self,
        node_id: int,
        data_channel: DataChannel,
        tones: Mapping[ToneType, BusyToneChannel],
    ):
        self.node_id = node_id
        self._data = data_channel
        self._tones = dict(tones)
        # Direct RBT/ABT references: Enum.__hash__ is a Python-level call,
        # so dict-by-enum lookups showed up in profiles of the tone hot
        # paths. Identity dispatch below avoids hashing entirely.
        self._rbt = self._tones.get(ToneType.RBT)
        self._abt = self._tones.get(ToneType.ABT)
        self._listener: Optional[RadioListener] = None
        data_channel.attach(node_id, self)

    def _tone(self, tone: ToneType) -> BusyToneChannel:
        if tone is ToneType.RBT and self._rbt is not None:
            return self._rbt
        if tone is ToneType.ABT and self._abt is not None:
            return self._abt
        return self._tones[tone]

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, listener: RadioListener) -> None:
        self._listener = listener
        # Re-register the listener directly with the data channel: the
        # RadioListener and ChannelListener callback signatures are
        # identical, so the per-frame forwarding hop through this radio
        # (four methods, two of them on the arrival hot path) vanishes.
        # The radio stays registered until a listener exists, and the
        # forwarding methods below remain for tests that drive a radio
        # without a MAC.
        self._data.attach(self.node_id, listener)

    @property
    def phy(self) -> PhyParams:
        return self._data.phy

    def frame_airtime(self, frame: object) -> int:
        """Airtime (ns) of ``frame`` including the PHY preamble/header."""
        return self.phy.frame_airtime(frame.size_bytes)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Data channel
    # ------------------------------------------------------------------
    def transmit(self, frame: object) -> Transmission:
        return self._data.transmit(self.node_id, frame)

    def abort(self, tx: Transmission) -> None:
        self._data.abort(tx)

    @property
    def is_transmitting(self) -> bool:
        return self._data.is_transmitting(self.node_id)

    def current_tx(self) -> Optional[Transmission]:
        return self._data.current_tx(self.node_id)

    def data_busy(self) -> bool:
        """Carrier sense on the data channel."""
        return self._data.busy(self.node_id)

    def data_idle_duration(self) -> int:
        """How long the data channel has been continuously idle (0 if busy)."""
        return self._data.idle_duration(self.node_id)

    def notify_data_idle(self, callback: Callable[[], None]) -> None:
        """Register a one-shot callback for the next busy->idle transition
        on the data channel. Fires immediately (synchronously) if idle."""
        self._data.notify_idle(self.node_id, callback)

    def notify_data_busy(self, callback: Callable[[], None]) -> None:
        """Register a one-shot callback for the next idle->busy transition
        on the data channel (see :meth:`DataChannel.notify_busy`)."""
        self._data.notify_busy(self.node_id, callback)

    def cancel_notify_data_busy(self) -> None:
        """Drop the callback registered by :meth:`notify_data_busy`."""
        self._data.cancel_notify_busy(self.node_id)

    # ------------------------------------------------------------------
    # Busy tones
    # ------------------------------------------------------------------
    def tone_channel(self, tone: ToneType) -> BusyToneChannel:
        return self._tone(tone)

    def tone_on(self, tone: ToneType) -> None:
        self._tone(tone).turn_on(self.node_id)

    def tone_off(self, tone: ToneType) -> None:
        self._tone(tone).turn_off(self.node_id)

    def tone_pulse(self, tone: ToneType, duration: int) -> None:
        self._tone(tone).pulse(self.node_id, duration)

    def tone_emitting(self, tone: ToneType) -> bool:
        return self._tone(tone).is_emitting(self.node_id)

    def tone_present(self, tone: ToneType) -> bool:
        """Tone sensing (self-emissions excluded)."""
        return self._tone(tone).present(self.node_id)

    def tone_longest_presence(self, tone: ToneType, t0: int, t1: int) -> int:
        return self._tone(tone).longest_presence(self.node_id, t0, t1)

    def watch_tone(self, tone: ToneType, callback: Callable[[ToneType], None]) -> None:
        self._tone(tone).watch_detection(self.node_id, callback)

    def unwatch_tone(self, tone: ToneType) -> None:
        self._tone(tone).unwatch_detection(self.node_id)

    # ------------------------------------------------------------------
    # DataChannel listener protocol (forwarded to the MAC)
    # ------------------------------------------------------------------
    def on_frame_received(self, frame: object, sender: int) -> None:
        if self._listener is not None:
            self._listener.on_frame_received(frame, sender)

    def on_frame_error(self, sender: int) -> None:
        if self._listener is not None:
            self._listener.on_frame_error(sender)

    def on_tx_complete(self, frame: object, aborted: bool) -> None:
        if self._listener is not None:
            self._listener.on_tx_complete(frame, aborted)

    def on_rx_start(self, sender: int) -> None:
        if self._listener is not None:
            self._listener.on_rx_start(sender)
