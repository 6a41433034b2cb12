"""RMAC protocol parameters (Section 3.3).

The paper fixes, from IEEE 802.11b and the 300 m range assumption:

* ``tau``    = 1 us   -- maximum one-way propagation delay;
* ``lambda`` = 15 us  -- busy-tone detection time (the 802.11b CCA time);
* ``l_abt``  = 2 tau + lambda = 17 us -- the ABT duration, one full
  detection plus round-trip slack;
* ``|Twf_rbt| = |Twf_rdata| = |Twf_abt| = 2 tau + lambda = 17 us``.

One deliberate deviation: with the paper's exactly-tight timers, the
first bit of the data frame arrives at the receiver at the *same instant*
``Twf_rdata`` expires (sender waits 2 tau + lambda after the MRTS, and the
timer runs 2 tau + lambda from the MRTS reception -- the propagation delay
appears on both sides). Real hardware has turnaround slack; we make the
intent explicit with a small ``rdata_guard`` added to ``Twf_rdata``
(default 2 us). ``tests/integration/test_ablations.py`` sweeps it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.mac.frames import RMAC_DATA_OVERHEAD
from repro.phy.params import DEFAULT_PHY, PhyParams
from repro.sim.units import US


@dataclass(frozen=True)
class RmacConfig:
    """All tunables of the RMAC protocol."""

    phy: PhyParams = field(default_factory=lambda: DEFAULT_PHY)
    #: Maximum one-way propagation delay tau (ns).
    tau: int = 1 * US
    #: Busy-tone detection time lambda (ns); defaults to the CCA time.
    detect_time: int = 15 * US
    #: Retransmission limit per packet (paper: "a limit"; 802.11's 7).
    retry_limit: int = 7
    #: Maximum receivers per MRTS (Section 3.4 derives 20 = 352/17).
    max_receivers: int = 20
    #: Guard added to |Twf_rdata| to break the paper's exact timer tie.
    rdata_guard: int = 2 * US
    #: Transmit queue capacity (None = unbounded, the paper's loss model).
    queue_capacity: Optional[int] = None
    #: MAC header + FCS bytes on reliable/unreliable data frames.
    data_overhead: int = RMAC_DATA_OVERHEAD

    def __post_init__(self) -> None:
        if self.tau <= 0 or self.detect_time <= 0:
            raise ValueError("tau and detect_time must be positive")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        if not 1 <= self.max_receivers <= 255:
            raise ValueError("max_receivers must be in [1, 255]")
        if self.rdata_guard < 0:
            raise ValueError("rdata_guard must be >= 0")

    @property
    def l_abt(self) -> int:
        """ABT duration: 2 tau + lambda (17 us with paper values)."""
        return 2 * self.tau + self.detect_time

    @property
    def twf_rbt(self) -> int:
        """Sender's wait-for-RBT period after the MRTS: 2 tau + lambda."""
        return 2 * self.tau + self.detect_time

    @property
    def twf_rdata(self) -> int:
        """Receiver's wait-for-data period after the MRTS (plus guard)."""
        return 2 * self.tau + self.detect_time + self.rdata_guard

    @property
    def twf_abt(self) -> int:
        """One ABT check window at the sender: 2 tau + lambda = l_abt."""
        return 2 * self.tau + self.detect_time
