"""Trace a run of any length in bounded memory with a ring buffer.

Usage::

    python examples/ring_trace.py

Runs a small RMAC scenario with a ring-buffer trace that keeps only the
last 200 events, so memory stays flat however long the run is. It
prints how many events the run executed and traced, how many the ring
evicted, which kinds the kept tail holds, and the last ten of them.
To keep every event instead, stream the trace to disk with
``repro run --trace-jsonl OUT.jsonl``.
"""

from collections import Counter

from repro import ScenarioConfig, build_network
from repro.sim.trace import RingBuffer, Tracer


def main(n_nodes: int = 25, n_packets: int = 100) -> None:
    config = ScenarioConfig(
        protocol="rmac",
        n_nodes=n_nodes,
        width=290,
        height=175,
        rate_pps=20,
        n_packets=n_packets,
        seed=42,
    )
    ring = RingBuffer(capacity=200)
    tracer = Tracer(enabled=True, buffer=ring)
    network = build_network(config, tracer=tracer)
    summary = network.run()

    print(f"delivery ratio: {summary.delivery_ratio:.3f}  "
          f"({network.sim.events_processed:,} simulator events)")
    print(f"traced {len(tracer):,} events; ring kept {len(tracer.events)}, "
          f"evicted {ring.dropped:,}")
    print()
    print("=== event kinds in the kept tail ===")
    for kind, count in Counter(e.kind for e in tracer.events).most_common():
        print(f"  {kind:<18} {count}")
    print()
    print("=== last 10 traced events ===")
    for event in tracer.events[-10:]:
        print(event.render())


if __name__ == "__main__":
    main()
