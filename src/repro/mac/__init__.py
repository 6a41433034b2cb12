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
* :mod:`repro.mac.rmac`    -- RMAC itself, re-exported here so every
  protocol is importable from one package. The canonical home stays
  :mod:`repro.core` (the paper's contribution gets its own package) and
  ``repro.core.rmac`` imports keep working unchanged.
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

#: RMAC names re-exported from :mod:`repro.mac.rmac`, resolved lazily
#: (PEP 562): the engine's own imports pass through this package while
#: :mod:`repro.core` is still initializing, so an eager import here
#: would be circular.
_RMAC_EXPORTS = ("RmacConfig", "RmacProtocol", "RmacState")


def __getattr__(name):
    if name in _RMAC_EXPORTS:
        from repro.mac import rmac

        return getattr(rmac, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "RmacConfig",
    "RmacProtocol",
    "RmacState",
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
