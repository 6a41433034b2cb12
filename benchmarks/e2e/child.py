"""One measured pass of one workload, in a fresh process.

Run by ``run.py``, one child at a time::

    python benchmarks/e2e/child.py --workload NAME --seed N [--profile]

The child imports ``repro`` from the checkout's ``src``, runs an untimed
12-node warm-up, then for each placement of the pass calls
``gc.collect()``, times the calibration loop, times
``build_network(config)`` and ``Network.run()`` and reads the run's
public outputs and counters; one more calibration follows the last
placement. Telemetry, trace and the oracle stay off. With ``--profile``
the same build+run calls run under cProfile and the pass also reports
self time by layer (see ``layers.py``). The last line of stdout is the
pass as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
REPRO_DIR = os.path.join(ROOT, "src", "repro")

sys.path.insert(0, HERE)

from layers import rollup  # noqa: E402
from workloads import ALL_WORKLOADS  # noqa: E402


class _Node:
    __slots__ = ("id", "count", "peers", "seen")

    def __init__(self, node_id: int):
        self.id = node_id
        self.count = 0
        self.peers = []
        self.seen = {}


def calibrate(n_events: int = 50_000) -> float:
    """Seconds a fixed miniature event loop takes in this process now.

    Heap scheduling, method calls, attribute and dict updates: the
    operations the simulator spends its time on, with no ``repro`` code.
    Run between placements, it tracks how fast the shared host is at
    that moment, so the timed phases can be scaled to a fixed speed.
    """
    nodes = [_Node(i) for i in range(64)]
    for node in nodes:
        node.peers = [nodes[(node.id * 7 + k) % 64] for k in range(1, 6)]
    queue = [(i, i, nodes[i]) for i in range(64)]
    heapq.heapify(queue)
    seq = 64
    start = perf_counter()
    for _ in range(n_events):
        now, _, node = heapq.heappop(queue)
        node.count += 1
        for peer in node.peers:
            peer.seen[node.id] = peer.seen.get(node.id, 0) + 1
        seq += 1
        heapq.heappush(queue, (now + 20 + (node.id & 7), seq,
                               node.peers[node.count % 5]))
    return perf_counter() - start


def _import_repro():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != REPRO_DIR:
        raise RuntimeError(f"imported repro from {repro.__file__}, "
                           f"not from {REPRO_DIR}")


def _placement(network, summary, config, metric_fields, setup_s, run_s) -> dict:
    stats = [mac.stats for mac in network.macs]
    links = network.testbed.neighbors.counters
    sinr = summary.sinr or {}
    outputs = {name: getattr(summary, name) for name in metric_fields}
    outputs["frames_tx"] = sum(sum(s.frames_tx.values()) for s in stats)
    return {
        "seed": config.seed,
        "setup_s": setup_s,
        "run_s": run_s,
        "outputs": outputs,
        "counters": {
            "n_packets": config.n_packets,
            "events": network.sim.events_processed,
            "links_built": links.links_built,
            "table_rebuilds": links.table_rebuilds,
            "table_hits": links.table_hits,
            "table_misses": links.table_misses,
            "sinr_delivered": sinr.get("delivered", 0),
            "sinr_dropped": sinr.get("sinr_dropped", 0),
            "packets_offered": sum(s.packets_offered for s in stats),
            "packets_delivered": sum(s.packets_delivered for s in stats),
            "retransmissions": sum(s.retransmissions for s in stats),
            "mrts_transmissions": sum(s.mrts_transmissions for s in stats),
            "mrts_aborted": sum(s.mrts_aborted for s in stats),
        },
    }


def run_pass(workload_name: str, seed: int, profile: bool) -> dict:
    _import_repro()
    import numpy
    from repro.experiments.bench import METRIC_FIELDS
    from repro.world.network import build_network

    workload = ALL_WORKLOADS[workload_name]
    build_network(workload.warm_up()).run()
    calibrate()

    profiler = None
    if profile:
        import cProfile

        profiler = cProfile.Profile()
    placements = []
    calibration = []
    for placement_seed in workload.seeds(seed):
        config = workload.scenario(placement_seed)
        gc.collect()
        calibration.append(calibrate())
        if profiler is not None:
            profiler.enable()
        start = perf_counter()
        network = build_network(config)
        built = perf_counter()
        summary = network.run()
        done = perf_counter()
        if profiler is not None:
            profiler.disable()
        placements.append(_placement(network, summary, config, METRIC_FIELDS,
                                     built - start, done - built))
        del network, summary
    calibration.append(calibrate())

    result = {
        "workload": workload_name,
        "seed": seed,
        "placements": placements,
        "calibration_s": calibration,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if profiler is not None:
        import pstats

        result["layers"] = rollup(pstats.Stats(profiler).stats, REPRO_DIR)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALL_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run_pass(args.workload, args.seed, args.profile)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
