"""RMAC protocol parameters (Section 3.3).

The paper's timing constants -- ``tau`` = 1 us, ``lambda`` = 15 us and
``l_abt`` = 2 tau + lambda = 17 us, which is also ``|Twf_rbt|`` and
``|Twf_abt|`` -- are properties of the PHY, not of the protocol: RMAC
reads them from its radio's :class:`~repro.phy.params.PhyParams`
(``max_propagation_delay``, ``cca_time`` and ``l_abt``), the same object
its busy-tone channels detect with.

One deliberate deviation: with the paper's exactly-tight timers, the
first bit of the data frame arrives at the receiver at the *same instant*
``Twf_rdata`` expires (sender waits 2 tau + lambda after the MRTS, and the
timer runs 2 tau + lambda from the MRTS reception -- the propagation delay
appears on both sides). Real hardware has turnaround slack; we make the
intent explicit with a small ``rdata_guard`` added to ``Twf_rdata``
(``|Twf_rdata| = l_abt + rdata_guard``, default 2 us).
``tests/integration/test_ablations.py`` sweeps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.units import US


@dataclass(frozen=True)
class RmacConfig:
    """The RMAC tunables that tests and ablations sweep."""

    #: Retransmission limit per packet (paper: "a limit"; 802.11's 7).
    retry_limit: int = 7
    #: Maximum receivers per MRTS (Section 3.4 derives 20 = 352/17).
    max_receivers: int = 20
    #: Guard added to |Twf_rdata| to break the paper's exact timer tie.
    rdata_guard: int = 2 * US
    #: Transmit queue capacity (None = unbounded, the paper's loss model).
    queue_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        if not 1 <= self.max_receivers <= 255:
            raise ValueError("max_receivers must be in [1, 255]")
        if self.rdata_guard < 0:
            raise ValueError("rdata_guard must be >= 0")
