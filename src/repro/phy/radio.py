"""Per-node radio facade.

A :class:`Radio` bundles, for one node, access to the shared data channel
and the busy-tone channels. MAC protocols talk only to their radio; the
listener attached through it (the MAC, a
:class:`~repro.phy.channel.ChannelListener`) takes the data channel's
callbacks directly.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from repro.phy.busytone import BusyToneChannel, ToneType
from repro.phy.channel import ChannelListener, DataChannel, Transmission
from repro.phy.params import PhyParams


class Radio:
    """One node's interface to the shared channels."""

    def __init__(
        self,
        node_id: int,
        data_channel: DataChannel,
        tones: Mapping[ToneType, BusyToneChannel],
    ):
        self.node_id = node_id
        #: The shared data channel this radio transmits and senses on.
        self.data_channel = data_channel
        #: The data channel's PHY: the one source of the timing constants
        #: (slot, SIFS, tau, lambda, 2 tau + lambda) its MAC reads.
        self.phy: PhyParams = data_channel.phy
        self._tones = dict(tones)
        # Direct RBT/ABT references: Enum.__hash__ is a Python-level call,
        # so dict-by-enum lookups showed up in profiles of the tone hot
        # paths. Identity dispatch below avoids hashing entirely.
        self._rbt = self._tones.get(ToneType.RBT)
        self._abt = self._tones.get(ToneType.ABT)

    def _tone(self, tone: ToneType) -> BusyToneChannel:
        if tone is ToneType.RBT and self._rbt is not None:
            return self._rbt
        if tone is ToneType.ABT and self._abt is not None:
            return self._abt
        return self._tones[tone]

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, listener: ChannelListener) -> None:
        """Register ``listener`` (the MAC) for this node's data-channel
        callbacks: the channel calls it directly, with no hop through
        the radio on the arrival hot path."""
        self.data_channel.attach(self.node_id, listener)

    def frame_airtime(self, frame: object) -> int:
        """Airtime (ns) of ``frame`` including the PHY preamble/header."""
        return self.phy.frame_airtime(frame.size_bytes)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Data channel
    # ------------------------------------------------------------------
    def transmit(self, frame: object) -> Transmission:
        return self.data_channel.transmit(self.node_id, frame)

    def abort(self, tx: Transmission) -> None:
        self.data_channel.abort(tx)

    @property
    def is_transmitting(self) -> bool:
        return self.data_channel.is_transmitting(self.node_id)

    def current_tx(self) -> Optional[Transmission]:
        return self.data_channel.current_tx(self.node_id)

    def data_busy(self) -> bool:
        """Carrier sense on the data channel."""
        return self.data_channel.busy(self.node_id)

    def data_idle_duration(self) -> int:
        """How long the data channel has been continuously idle (0 if busy)."""
        return self.data_channel.idle_duration(self.node_id)

    def notify_data_idle(self, callback: Callable[[], None]) -> None:
        """Register a one-shot callback for the next busy->idle transition
        on the data channel. Fires immediately (synchronously) if idle."""
        self.data_channel.notify_idle(self.node_id, callback)

    def notify_data_busy(self, callback: Callable[[], None]) -> None:
        """Register a one-shot callback for the next idle->busy transition
        on the data channel (see :meth:`DataChannel.notify_busy`)."""
        self.data_channel.notify_busy(self.node_id, callback)

    def cancel_notify_data_busy(self) -> None:
        """Drop the callback registered by :meth:`notify_data_busy`."""
        self.data_channel.cancel_notify_busy(self.node_id)

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
