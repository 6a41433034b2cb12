"""IEEE 802.11b physical-layer timing constants and airtime arithmetic.

Section 2 of the paper derives its overhead numbers from exactly these
constants:

* PLCP preamble: 72 bits, always sent at 1 Mb/s  -> 72 us
* PLCP header:   48 bits, always sent at 2 Mb/s  -> 24 us
  (together 96 us of per-frame physical-layer overhead)
* an ACK frame (14 bytes) at 2 Mb/s -> 56 us of MAC payload airtime
* slot time 20 us, CCA 15 us, SIFS 10 us, DIFS = SIFS + 2*slot = 50 us

Section 3.3's busy-tone timing lives here and nowhere else: tau =
``max_propagation_delay`` (1 us), lambda = ``cca_time`` (15 us) and
``l_abt`` = 2 tau + lambda (17 us: one ABT window, |Twf_rbt|, MX's NAK
window, the base of |Twf_rdata| and the divisor of the 352/17 receiver
cap). Every MAC reads them from its radio's ``phy``, and
:mod:`repro.analysis` takes the same object.

RMAC reuses the slot time and CCA but drops SIFS/DIFS/NAV; the
802.11-family baselines (DCF, BMMM, BMW, LAMM, LBP, MX) use all of them.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Dict

from repro.sim.units import US


@dataclass(frozen=True)
class PhyParams:
    """Physical-layer parameters (defaults follow IEEE 802.11b / the paper)."""

    #: Data-channel payload bit rate in bits/second (paper: 2 Mb/s).
    bitrate: int = 2_000_000
    #: Rate at which the PLCP preamble is sent (802.11b: always 1 Mb/s).
    preamble_rate: int = 1_000_000
    #: Rate at which the PLCP header is sent (802.11b long preamble: 2 Mb/s).
    plcp_header_rate: int = 2_000_000
    #: PLCP preamble length in bits.
    preamble_bits: int = 72
    #: PLCP header length in bits.
    plcp_header_bits: int = 48
    #: Backoff slot time in ns (802.11b: 20 us).
    slot_time: int = 20 * US
    #: Clear Channel Assessment / busy-tone detection time lambda in ns (15 us).
    cca_time: int = 15 * US
    #: Short interframe space in ns (802.11b: 10 us).
    sifs: int = 10 * US
    #: Maximum one-way propagation delay tau in ns (paper: 1 us, <300 m).
    max_propagation_delay: int = 1 * US
    #: Radio range in meters (paper: 75 m).
    radio_range: float = 75.0
    #: Minimum contention window (802.11b: 31).
    cw_min: int = 31
    #: Maximum contention window (802.11b: 1023).
    cw_max: int = 1023

    def __post_init__(self) -> None:
        if self.max_propagation_delay <= 0 or self.cca_time <= 0:
            raise ValueError("max_propagation_delay (tau) and cca_time "
                             "(lambda) must be positive")
        # frame_airtime's memo, size -> ns. Not a field: equality, hash,
        # repr and asdict (the config hash) see the parameters only.
        object.__setattr__(self, "_airtime", {})

    def __reduce__(self):
        # Pickle and copy the parameters; the copy starts a fresh memo.
        return (type(self), astuple(self))

    @property
    def difs(self) -> int:
        """DIFS = SIFS + 2 * slot (802.11): 50 us with 802.11b numbers."""
        return self.sifs + 2 * self.slot_time

    @property
    def l_abt(self) -> int:
        """2 tau + lambda: one ABT window (17 us with the paper's values)."""
        return 2 * self.max_propagation_delay + self.cca_time

    @property
    def phy_overhead(self) -> int:
        """Preamble + PLCP header airtime in ns (96 us with 802.11b numbers)."""
        return self.preamble_airtime + self.plcp_header_airtime

    @property
    def preamble_airtime(self) -> int:
        return _bits_airtime(self.preamble_bits, self.preamble_rate)

    @property
    def plcp_header_airtime(self) -> int:
        return _bits_airtime(self.plcp_header_bits, self.plcp_header_rate)

    def payload_airtime(self, nbytes: int) -> int:
        """Airtime of ``nbytes`` of MAC-layer bytes at the data bit rate."""
        if nbytes < 0:
            raise ValueError(f"negative frame size {nbytes}")
        return _bits_airtime(8 * nbytes, self.bitrate)

    def frame_airtime(self, nbytes: int) -> int:
        """Total airtime of a MAC frame of ``nbytes`` bytes including the
        physical-layer preamble and header.

        E.g. a 14-byte ACK: 96 us + 56 us = 152 us (the paper's numbers).
        Memoized per size: every frame on the air asks.
        """
        memo: Dict[int, int] = self._airtime  # type: ignore[attr-defined]
        try:
            return memo[nbytes]
        except KeyError:
            airtime = memo[nbytes] = self.phy_overhead + self.payload_airtime(nbytes)
            return airtime


def _bits_airtime(bits: int, rate: int) -> int:
    """Exact airtime in ns of ``bits`` at ``rate`` b/s; must divide evenly."""
    numerator = bits * 1_000_000_000
    if numerator % rate:
        raise ValueError(f"{bits} bits at {rate} b/s is not an integral ns airtime")
    return numerator // rate


#: The default 802.11b parameter set used throughout the reproduction.
DEFAULT_PHY = PhyParams()
