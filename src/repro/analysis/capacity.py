"""Closed-form per-hop capacity: where Fig. 9's delay knee comes from.

A reliable multicast transaction occupies the channel for a deterministic
floor time (control + data + acknowledgment), so a forwarding node with
``n`` children can sustain at most ``1 / transaction_time`` packets per
second before its queue grows without bound. The source's neighborhood
additionally carries every child's forwarding, which is why delay rises
with rate well before the raw airtime saturates.

These formulas give the *floor* (zero contention, zero retransmission);
the simulator adds backoff, contention and retries on top. The capacity
bench checks the simulated knee lands above the floor prediction.
"""

from __future__ import annotations

from repro.analysis.overhead import mrts_bytes
from repro.mac.frames import (
    ACK_BYTES,
    CTS_BYTES,
    DOT11_DATA_OVERHEAD,
    RAK_BYTES,
    RMAC_DATA_OVERHEAD,
    RTS_BYTES,
)
from repro.phy.params import DEFAULT_PHY, PhyParams
from repro.sim.units import SEC


def rmac_transaction_time(
    n_receivers: int,
    payload_bytes: int,
    phy: PhyParams = DEFAULT_PHY,
) -> int:
    """Airtime floor of one successful RMAC Reliable Send (ns):
    MRTS + Twf_rbt + DATA + n ABT windows."""
    l_abt = phy.l_abt
    return (
        phy.frame_airtime(mrts_bytes(n_receivers))
        + l_abt  # Twf_rbt
        + phy.frame_airtime(payload_bytes + RMAC_DATA_OVERHEAD)
        + n_receivers * l_abt
    )


def bmmm_transaction_time(
    n_receivers: int,
    payload_bytes: int,
    phy: PhyParams = DEFAULT_PHY,
) -> int:
    """Airtime floor of one successful BMMM round (ns): n RTS/CTS pairs,
    DATA, n RAK/ACK pairs, all SIFS-separated."""
    sifs = phy.sifs
    per_receiver = (
        phy.frame_airtime(RTS_BYTES)
        + phy.frame_airtime(CTS_BYTES)
        + phy.frame_airtime(RAK_BYTES)
        + phy.frame_airtime(ACK_BYTES)
        + 4 * sifs
    )
    return (
        n_receivers * per_receiver
        + phy.frame_airtime(payload_bytes + DOT11_DATA_OVERHEAD)
        + sifs
    )


def max_forwarding_rate(transaction_time_ns: int) -> float:
    """Packets/second one node can push through back-to-back transactions."""
    if transaction_time_ns <= 0:
        raise ValueError("transaction time must be positive")
    return SEC / transaction_time_ns


def saturation_rate(
    n_receivers: int,
    payload_bytes: int,
    forwarders_sharing_channel: int,
    protocol: str = "rmac",
    phy: PhyParams = DEFAULT_PHY,
) -> float:
    """Source rate (pkt/s) at which a neighborhood of
    ``forwarders_sharing_channel`` nodes, each forwarding every packet to
    ``n_receivers`` children, saturates the shared channel."""
    if forwarders_sharing_channel <= 0:
        raise ValueError("need at least one forwarder")
    if protocol == "rmac":
        per_packet = rmac_transaction_time(n_receivers, payload_bytes, phy)
    elif protocol == "bmmm":
        per_packet = bmmm_transaction_time(n_receivers, payload_bytes, phy)
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    return max_forwarding_rate(per_packet * forwarders_sharing_channel)
