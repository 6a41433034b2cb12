"""MAC layer: frame formats, shared machinery, and the baseline protocols.

* :mod:`repro.mac.frames`  -- every frame type with exact on-air sizes
  (Fig. 3's MRTS, 802.11's RTS/CTS/ACK, BMMM's RAK, LBP's NCTS/NAK, data).
* :mod:`repro.mac.backoff` -- the CW/BI backoff engine of Section 3.3.1 and
  its event-driven slot countdown.
* :mod:`repro.mac.base`    -- the MacProtocol service interface (Reliable /
  Unreliable Send x unicast / multicast / broadcast) and the transmit queue.
* :mod:`repro.mac.stats`   -- per-node counters behind every figure.
* :mod:`repro.mac.dot11`   -- IEEE 802.11 DCF machinery (substrate).
* :mod:`repro.mac.bmmm`    -- the BMMM comparison protocol (Sun et al.).
* :mod:`repro.mac.bmw`     -- the BMW protocol (Tang & Gerla) [extension].
* :mod:`repro.mac.lbp`     -- the Leader Based Protocol [extension].
* :mod:`repro.mac.mx`      -- an 802.11MX-style receiver-initiated
  busy-tone NAK protocol [extension].

RMAC itself, the paper's contribution, lives in :mod:`repro.core`.
"""

from repro.mac.backoff import Backoff
from repro.mac.base import BROADCAST, MacProtocol, SendRequest, TransmitQueue
from repro.mac.frames import (
    AckFrame,
    CtsFrame,
    DataFrame,
    FrameType,
    MrtsFrame,
    NakFrame,
    NctsFrame,
    RakFrame,
    RtsFrame,
)
from repro.mac.stats import MacStats

__all__ = [
    "Backoff",
    "BROADCAST",
    "MacProtocol",
    "SendRequest",
    "TransmitQueue",
    "FrameType",
    "MrtsFrame",
    "RtsFrame",
    "CtsFrame",
    "AckFrame",
    "RakFrame",
    "NctsFrame",
    "NakFrame",
    "DataFrame",
    "MacStats",
]
