"""The paper's closed-form overhead arithmetic.

Section 2 derives: 96 us of physical-layer overhead per frame, a 56 us
ACK payload airtime, and a total of 632 n us of control-frame cost per
BMMM data frame (2n pairs: RTS 20 B + CTS/RAK/ACK 14 B each, all at
2 Mb/s plus 96 us PHY overhead per frame).

Section 3.4 derives the 20-receiver MRTS cap: an ABT detection takes
17 us and the shortest MRTS + shortest data exchange takes 352 us, so at
most floor(352 / 17) = 20 ABT windows fit before a neighboring Reliable
Send could complete and alias its ABT into ours.

All functions take a :class:`~repro.phy.params.PhyParams` so ablations
can re-derive the numbers for other PHYs; tau, lambda and 2 tau + lambda
come from it, as they do for the MACs.
"""

from __future__ import annotations

from repro.mac.frames import (
    ACK_BYTES,
    CTS_BYTES,
    MRTS_FIXED_BYTES,
    ADDRESS_BYTES,
    DOT11_DATA_OVERHEAD,
    RAK_BYTES,
    RMAC_DATA_OVERHEAD,
    RTS_BYTES,
)
from repro.phy.params import DEFAULT_PHY, PhyParams


def mrts_bytes(n_receivers: int) -> int:
    """MRTS size: 12 + 6 n bytes (Fig. 3)."""
    if n_receivers < 1:
        raise ValueError("MRTS needs at least one receiver")
    return MRTS_FIXED_BYTES + ADDRESS_BYTES * n_receivers


def bmmm_control_overhead(n_receivers: int, phy: PhyParams = DEFAULT_PHY) -> int:
    """Airtime (ns) of BMMM's 2n control-frame pairs for one data frame.

    With 802.11b parameters this is exactly 632 n us, the number
    Section 2 quotes.
    """
    if n_receivers < 1:
        raise ValueError("need at least one receiver")
    per_receiver = (
        phy.frame_airtime(RTS_BYTES)
        + phy.frame_airtime(CTS_BYTES)
        + phy.frame_airtime(RAK_BYTES)
        + phy.frame_airtime(ACK_BYTES)
    )
    return n_receivers * per_receiver


def rmac_control_overhead(n_receivers: int, phy: PhyParams = DEFAULT_PHY) -> int:
    """Airtime (ns) of RMAC's control machinery for one data frame:
    the MRTS plus the n ABT windows (2 tau + lambda each).

    The paper's headline comparison: one frame of 12 + 6n bytes versus
    BMMM's 2n whole control frames.
    """
    return phy.frame_airtime(mrts_bytes(n_receivers)) + n_receivers * phy.l_abt


def abt_detection_time(phy: PhyParams = DEFAULT_PHY) -> int:
    """One ABT window: 2 tau + lambda = 17 us with paper values."""
    return phy.l_abt


def rmac_min_exchange_time(phy: PhyParams = DEFAULT_PHY) -> int:
    """Shortest MRTS (1 receiver, 18 B) + shortest data frame airtime.

    352 us with the paper's parameters: the numerator of the Section 3.4
    receiver-limit derivation.
    """
    shortest_mrts = phy.frame_airtime(mrts_bytes(1))
    shortest_data = phy.frame_airtime(RMAC_DATA_OVERHEAD)  # empty payload
    return shortest_mrts + shortest_data


def max_receivers_per_mrts(phy: PhyParams = DEFAULT_PHY) -> int:
    """Section 3.4: floor(shortest-exchange / ABT-window) = 20."""
    return rmac_min_exchange_time(phy) // phy.l_abt


def bmw_transaction_time(
    n_receivers: int,
    payload_bytes: int,
    phy: PhyParams = DEFAULT_PHY,
) -> int:
    """Nominal airtime of BMW's n sequential unicasts (Fig. 1a), ignoring
    contention: n x (RTS + CTS + DATA + ACK + 3 SIFS). Used to compare the
    protocols' floor costs in the overhead bench."""
    if n_receivers < 1:
        raise ValueError("need at least one receiver")
    one = (
        phy.frame_airtime(RTS_BYTES)
        + phy.frame_airtime(CTS_BYTES)
        + phy.frame_airtime(payload_bytes + DOT11_DATA_OVERHEAD)
        + phy.frame_airtime(ACK_BYTES)
        + 3 * phy.sifs
    )
    return n_receivers * one
