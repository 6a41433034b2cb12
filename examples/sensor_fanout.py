"""Sparse-sensor fan-out: one-hop reliable multicast to a large group.

Usage::

    python examples/sensor_fanout.py

The paper's other motivating workload is sparse sensor networks where a
cluster head pushes configuration to many one-hop sensors at once. This
example drives the MAC service interface directly (no routing layer):
one head, N sensors in range, one Reliable Send per configuration blob.

It demonstrates two RMAC mechanisms end to end:

* the ordered ABT windows -- watch per-sensor acknowledgment with zero
  feedback frames;
* the Section 3.4 refinement -- with 30 sensors the send splits into a
  20-receiver and a 10-receiver invocation automatically.

It also prints the closed-form control-cost comparison against BMMM for
the same group size (Section 2 arithmetic).
"""

import math

from repro.analysis.overhead import bmmm_control_overhead, rmac_control_overhead
from repro.core import RmacConfig, RmacProtocol
from repro.experiments.report import format_table
from repro.sim.units import MS, US
from repro.world.testbed import MacTestbed


def ring_coords(n_sensors: int, radius: float = 60.0):
    coords = [(0.0, 0.0)]
    for k in range(n_sensors):
        angle = 2 * math.pi * k / n_sensors
        coords.append((radius * math.cos(angle), radius * math.sin(angle)))
    return coords


def main() -> None:
    n_sensors = 30
    testbed = MacTestbed(coords=ring_coords(n_sensors), seed=3)
    config = RmacConfig()
    testbed.build_macs(
        lambda i, t: RmacProtocol(i, t.sim, t.radios[i], t.node_rng(i), config)
    )

    deliveries = []
    for sensor in range(1, n_sensors + 1):
        mac = testbed.macs[sensor]
        mac.upper_rx = lambda p, s, sensor=sensor: deliveries.append(sensor)

    outcomes = []
    head = testbed.macs[0]
    head.send_reliable(
        tuple(range(1, n_sensors + 1)), payload="config-v7", payload_bytes=500,
        on_complete=outcomes.append,
    )
    testbed.run(200 * MS)

    outcome = outcomes[0]
    print(f"sensors configured: {len(set(deliveries))}/{n_sensors}")
    print(f"acked: {len(outcome.acked)}, failed: {len(outcome.failed)}, "
          f"dropped: {outcome.dropped}")
    stats = head.stats
    print(f"MRTS invocations (Section 3.4 split): "
          f"{sorted(stats.mrts_lengths.items())}  (bytes -> count)")
    print(f"completed at t = {outcome.completed_at / 1e6:.2f} ms\n")

    rows = []
    for n in (5, 10, 20, 30):
        rows.append({
            "sensors": n,
            "RMAC control (us)": rmac_control_overhead(min(n, 20)) / US
            + (rmac_control_overhead(n - 20) / US if n > 20 else 0),
            "BMMM control (us)": bmmm_control_overhead(n) / US,
        })
    print(format_table(rows, title="Per-blob control cost (Section 2 arithmetic)"))


if __name__ == "__main__":
    main()
