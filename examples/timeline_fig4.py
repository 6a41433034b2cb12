"""Reproduce the paper's Fig. 4 as a live protocol trace.

Usage::

    python examples/timeline_fig4.py

Node A (0) runs one Reliable Send to nodes B (1) and C (2). The printed
trace shows the exact sequence the figure draws: the MRTS, both receivers
raising RBT, the collision-protected data frame, and the two ordered ABT
responses checked window-by-window at the sender.
"""

from repro.core import RmacConfig, RmacProtocol
from repro.sim.trace import Tracer
from repro.sim.units import MS
from repro.world.testbed import MacTestbed


def main() -> None:
    testbed = MacTestbed(coords=[(0, 0), (50, 0), (0, 50)], seed=7,
                         tracer=Tracer(enabled=True))
    config = RmacConfig()
    testbed.build_macs(
        lambda i, t: RmacProtocol(
            i, t.sim, t.radios[i], t.node_rng(i), config, tracer=t.tracer
        )
    )

    received = []
    testbed.macs[1].upper_rx = lambda p, s: received.append(("B", p))
    testbed.macs[2].upper_rx = lambda p, s: received.append(("C", p))

    outcomes = []
    testbed.macs[0].send_reliable(
        (1, 2), payload="fig4-payload", payload_bytes=500,
        on_complete=outcomes.append,
    )
    testbed.run(50 * MS)

    print("Fig. 4 -- Procedure of the Reliable Send service")
    print("Node 0 = A (sender), node 1 = B (first receiver), node 2 = C\n")
    print(testbed.tracer.render())
    print()
    outcome = outcomes[0]
    print(f"deliveries: {received}")
    print(f"sender outcome: acked={outcome.acked} failed={outcome.failed} "
          f"dropped={outcome.dropped}")
    l_abt = testbed.phy.l_abt  # |Twf_rbt| = l_abt = 2 tau + lambda
    print(f"timers: Twf_rbt = {l_abt} ns, l_abt = {l_abt} ns")


if __name__ == "__main__":
    main()
