"""End-to-end and per-layer benchmark of the simulator.

One workload, measured for a fixed time (the form ``BENCHMARK.json``
names)::

    python3 benchmarks/e2e/run.py --workload static-rmac-75 --seed 1 \\
        --seconds 25 --trace 0

prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

A full run (every workload, five interleaved rounds, then one traced
pass per workload) writes a report, and two reports compare::

    python3 benchmarks/e2e/run.py [--seed N] [--out report.json]
    python3 benchmarks/e2e/run.py --compare A.json B.json

``--write-expected`` re-records ``expected.json`` at the default seed.
Every pass is a fresh child process (``child.py``); one runs at a time.
See README.md for the metrics, the workloads and the method.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CHILD = os.path.join(HERE, "child.py")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

sys.path.insert(0, HERE)

from layers import LAYERS  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

DEFAULT_SEED = 1
ROUNDS = 5
#: Fewest untraced passes a timed run makes, whatever ``--seconds`` says.
MIN_PASSES = 3
#: A timed run launches no pass that could end past this many seconds.
RUN_BUDGET_S = 170.0
#: Per-child limit in a full run.
FULL_CHILD_TIMEOUT_S = 600.0
#: The calibration loop's median time (``child.calibrate``) on the 2-core
#: Xeon the baselines were recorded on. A placement's times are scaled by
#: this over the calibrations either side of it, so a slow spell on a
#: shared host cancels out and times read as seconds at that machine's
#: usual speed.
REFERENCE_CALIBRATION_S = 0.05


class PassFailed(Exception):
    """A child exited non-zero, timed out, or printed no result."""


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def spawn(workload: Workload, seed: int, profile: bool, timeout: float) -> dict:
    """Run one pass in a fresh child and return its result."""
    cmd = [sys.executable, CHILD, "--workload", workload.name, "--seed", str(seed)]
    if profile:
        cmd.append("--profile")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{workload.name}: pass timed out after {timeout:.0f}s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise PassFailed(f"{workload.name}: child exited {proc.returncode}: {tail}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise PassFailed(f"{workload.name}: child printed no result") from None


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _identity(result: dict) -> Dict[int, dict]:
    """Everything deterministic a pass produced, by placement seed."""
    return {p["seed"]: {**p["outputs"], **p["counters"]}
            for p in result["placements"]}


def _drift(got: dict, want: dict) -> List[str]:
    return sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))


def check_pass(result: dict, reference: Optional[dict],
               expected: Optional[dict]) -> List[str]:
    """Problems with one pass's outputs; empty when it is correct.

    ``reference`` is an earlier pass of the same run (repeats must be
    identical); ``expected`` maps placement seed -> the recorded outputs
    (only given at the recorded seed).
    """
    problems = []
    for p in result["placements"]:
        generated, wanted = p["outputs"]["n_generated"], p["counters"]["n_packets"]
        if generated != wanted:
            problems.append(f"placement {p['seed']}: generated {generated} "
                            f"packets, the scenario asks for {wanted}")
    if reference is not None:
        mine, theirs = _identity(result), _identity(reference)
        if set(mine) != set(theirs):
            problems.append("repeat ran other placements")
        for seed in sorted(set(mine) & set(theirs)):
            fields = _drift(mine[seed], theirs[seed])
            if fields:
                problems.append(f"placement {seed}: repeat diverged in "
                                f"{', '.join(fields)}")
    if expected is not None:
        for p in result["placements"]:
            want = expected.get(str(p["seed"]))
            if want is None:
                problems.append(f"placement {p['seed']}: no expected outputs")
                continue
            fields = _drift(p["outputs"], want)
            if fields:
                problems.append(f"placement {p['seed']}: drifted from expected "
                                f"in {', '.join(fields)}")
    return problems


def expected_for(workload: Workload, seed: int) -> Optional[dict]:
    """The recorded outputs of ``workload``'s placements, or None when
    ``seed`` is not the recorded one."""
    with open(EXPECTED_PATH) as fh:
        recorded = json.load(fh)
    if seed != recorded["seed"]:
        return None
    return recorded["workloads"].get(workload.name, {})


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _scaled(result: dict) -> List[tuple]:
    """(setup_s, run_s) per placement, scaled to reference speed: times
    ``REFERENCE_CALIBRATION_S`` over the mean of the two calibrations
    either side of the placement."""
    c = result["calibration_s"]
    scaled = []
    for i, p in enumerate(result["placements"]):
        speed = REFERENCE_CALIBRATION_S / ((c[i] + c[i + 1]) / 2)
        scaled.append((p["setup_s"] * speed, p["run_s"] * speed))
    return scaled


def _frames(result: dict) -> int:
    return sum(p["outputs"]["frames_tx"] for p in result["placements"])


def _metrics(setup: List[float], run: List[float], frames: int,
             maxrss_kb: float) -> Dict[str, float]:
    return {
        "setup_s": sum(setup),
        "run_us_per_frame": sum(run) / frames * 1e6,
        "peak_rss_mb": maxrss_kb / 1024.0,
        "run_s": sum(run),
    }


def pass_metrics(result: dict) -> Dict[str, float]:
    """One pass's end-to-end sample, plus its scaled total run time."""
    scaled = _scaled(result)
    return _metrics([s for s, _ in scaled], [r for _, r in scaled],
                    _frames(result), result["maxrss_kb"])


def run_metrics(results: List[dict]) -> Dict[str, float]:
    """A run's end-to-end values: each placement's median over the passes,
    summed over placements (peak RSS: the median over passes)."""
    columns = list(zip(*(_scaled(r) for r in results)))
    setup = [statistics.median(s for s, _ in col) for col in columns]
    run = [statistics.median(r for _, r in col) for col in columns]
    return _metrics(setup, run, _frames(results[0]),
                    statistics.median(r["maxrss_kb"] for r in results))


def _ratio(num: float, den: float, empty: float) -> float:
    return num / den if den else empty


def layer_metrics(untraced: List[dict], traced: dict) -> Dict[str, float]:
    """Per-layer values from a run's untraced passes and one traced pass."""
    run_s = run_metrics(untraced)["run_s"]
    layers = traced["layers"]
    total = layers["total_s"]
    # Per layer: share and calls, not seconds. An idle layer's self time is
    # exactly 0 s on every run, and the profiled seconds are inflated 3-4x;
    # trace.profiled_s gives the scale.
    values: Dict[str, float] = {"trace.profiled_s": total}
    for layer in LAYERS:
        values[f"{layer}.share"] = _ratio(layers["self_s"][layer], total, 0.0)
        values[f"{layer}.calls"] = layers["calls"][layer]

    placements = untraced[0]["placements"]
    c = {key: sum(p["counters"][key] for p in placements)
         for key in placements[0]["counters"]}
    delivery = [p["outputs"]["delivery_ratio"] for p in placements
                if p["outputs"]["delivery_ratio"] is not None]
    delay = [p["outputs"]["avg_delay_s"] for p in placements
             if p["outputs"]["avg_delay_s"] is not None]
    values.update({
        "sim.events": c["events"],
        "sim.events_per_s": c["events"] / run_s,
        "phy.links.links_built": c["links_built"],
        "phy.links.rebuilds": c["table_rebuilds"],
        "phy.links.table_hit_ratio": _ratio(
            c["table_hits"], c["table_hits"] + c["table_misses"], 0.0),
        "phy.sinr.decode_ratio": _ratio(
            c["sinr_delivered"], c["sinr_delivered"] + c["sinr_dropped"], 1.0),
        "mac.frames_tx": _frames(untraced[0]),
        "mac.retx_ratio": _ratio(c["retransmissions"], c["packets_offered"], 0.0),
        "mac.delivered_ratio": _ratio(c["packets_delivered"], c["packets_offered"], 0.0),
        "mac.rmac.mrts_abort_ratio": _ratio(
            c["mrts_aborted"], c["mrts_transmissions"], 0.0),
        "net.delivery_ratio": statistics.fmean(delivery) if delivery else 0.0,
        "net.avg_delay_ms": statistics.fmean(delay) * 1e3 if delay else 0.0,
        "trace.overhead": pass_metrics(traced)["run_s"] / run_s,
    })
    return values


def spread(value: float, samples: List[float]) -> dict:
    """A run's value with the quartiles and count of its pass samples."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"value": value, "q1": q1, "q3": q3, "n": len(samples),
            "samples": samples}


def _with_units(values: Dict[str, float], declared: List[dict]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


# ----------------------------------------------------------------------
# Running passes
# ----------------------------------------------------------------------
class Tally:
    """The passes one run makes of one workload: how many were attempted,
    how many failed and why, and the untraced results.

    A pass fails when its child fails or its outputs are wrong; a pass
    with wrong outputs still ran, so its timings are kept.
    """

    def __init__(self, workload: Workload, seed: int, expected: Optional[dict]):
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.results: List[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def run(self, profile: bool, timeout: float) -> Optional[dict]:
        self.attempted += 1
        try:
            result = spawn(self.workload, self.seed, profile, timeout)
        except PassFailed as exc:
            self._fail([str(exc)])
            return None
        found = check_pass(result, self.results[0] if self.results else None,
                           self.expected)
        if found:
            self._fail([f"{self.workload.name}: {line}" for line in found])
        if not profile:
            self.results.append(result)
        return result

    def _fail(self, lines: List[str]) -> None:
        self.failed += 1
        self.problems.extend(lines)
        for line in lines:
            print(line, file=sys.stderr)


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            spec: dict, expected: Optional[dict]) -> dict:
    """Untraced passes of ``workload`` for ``seconds`` (or one untraced
    and one traced pass with ``trace``); returns the result line."""
    tally = Tally(workload, seed, expected)
    start = time.monotonic()
    longest = 0.0
    while True:
        began = time.monotonic()
        tally.run(False, RUN_BUDGET_S - (began - start))
        now = time.monotonic()
        longest = max(longest, now - began)
        elapsed = now - start
        if trace or elapsed + 1.5 * longest > RUN_BUDGET_S:
            break
        if elapsed >= seconds and (len(tally.results) >= MIN_PASSES
                                   or tally.attempted >= 2 * MIN_PASSES):
            break
    if not tally.results:
        raise PassFailed(f"{workload.name}: no pass produced a result")
    if trace:
        traced = tally.run(True, RUN_BUDGET_S - (time.monotonic() - start))
        if traced is None:
            raise PassFailed(f"{workload.name}: the traced pass produced no result")
        values, declared = layer_metrics(tally.results, traced), spec["per_layer"]
    else:
        values, declared = run_metrics(tally.results), spec["end_to_end"]
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": _with_units(values, declared)}


# ----------------------------------------------------------------------
# A full run: every workload, interleaved rounds, then traced passes
# ----------------------------------------------------------------------
def _machine(child: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": child["python"],
            "numpy": child["numpy"], "cpu": cpu, "platform": platform.platform()}


def _rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def full_run(seed: int, spec: dict) -> dict:
    tallies = {name: Tally(w, seed, expected_for(w, seed))
               for name, w in WORKLOADS.items()}
    for round_no in range(ROUNDS):
        for name, tally in tallies.items():
            failed = tally.failed
            tally.run(False, FULL_CHILD_TIMEOUT_S)
            print(f"round {round_no + 1}/{ROUNDS} {name}: "
                  + ("ok" if tally.failed == failed else "FAILED"), file=sys.stderr)

    report = {"rev": _rev(), "seed": seed, "rounds": ROUNDS, "machine": None,
              "workloads": {}}
    for name, tally in tallies.items():
        results = tally.results
        traced = tally.run(True, FULL_CHILD_TIMEOUT_S) if results else None
        entry = {"attempted": tally.attempted, "failed": tally.failed,
                 "error_rate": tally.failed / tally.attempted,
                 "problems": tally.problems, "end_to_end": {}, "per_layer": {}}
        if results:
            report["machine"] = report["machine"] or _machine(results[0])
            values = run_metrics(results)
            samples = [pass_metrics(r) for r in results]
            for metric in [*spec["end_to_end"], {"name": "run_s", "unit": "s"}]:
                key = metric["name"]
                entry["end_to_end"][key] = {
                    **spread(values[key], [s[key] for s in samples]),
                    "unit": metric["unit"]}
        if traced is not None:
            entry["per_layer"] = _with_units(layer_metrics(results, traced),
                                             spec["per_layer"])
        report["workloads"][name] = entry
    return report


def render(report: dict) -> str:
    lines = [f"rev {report['rev']}, seed {report['seed']}, "
             f"{report['rounds']} rounds on {report['machine']}"]
    for name, entry in report["workloads"].items():
        lines.append(f"{name}: error_rate {entry['error_rate']:.2f} "
                     f"({entry['failed']}/{entry['attempted']})")
        for metric, s in entry["end_to_end"].items():
            lines.append(f"  {metric:18s} {s['value']:12.4f} {s['unit']:6s} "
                         f"[{s['q1']:.4f}, {s['q3']:.4f}] n={s['n']}")
        shares = {k[:-len(".share")]: v["value"]
                  for k, v in entry["per_layer"].items() if k.endswith(".share")}
        if shares:
            lines.append("  self time: " + ", ".join(
                f"{layer} {share:.1%}" for layer, share in
                sorted(shares.items(), key=lambda kv: -kv[1]) if share >= 0.005))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Comparing two full reports
# ----------------------------------------------------------------------
def compare(a: dict, b: dict, spec: dict) -> List[dict]:
    """One row per workload x end-to-end metric (and error rate)."""
    rows = []
    for name in WORKLOADS:
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        ea, eb = a["workloads"][name], b["workloads"][name]
        rows.append({"workload": name, "metric": "error_rate",
                     "a": {"value": ea["error_rate"]},
                     "b": {"value": eb["error_rate"]}, "ratio": None,
                     "verdict": "worse" if eb["error_rate"] > ea["error_rate"]
                     else "within bound"})
        for metric in spec["end_to_end"]:
            sa = ea["end_to_end"].get(metric["name"])
            sb = eb["end_to_end"].get(metric["name"])
            if sa is None or sb is None:
                continue
            rows.append({"workload": name, "metric": metric["name"], "a": sa,
                         "b": sb, "ratio": sb["value"] / sa["value"],
                         "verdict": verdict(sa, sb, metric)})
    return rows


def verdict(sa: dict, sb: dict, metric: dict) -> str:
    """``within bound``, ``worse``, or ``unresolved`` when either side's
    quartile spread is wider than the bound (unless every B sample beats
    every A sample)."""
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    worse_by = (sb["value"] / sa["value"] - 1.0) if lower else \
        (1.0 - sb["value"] / sa["value"])
    widest = max((s["q3"] - s["q1"]) / s["value"] for s in (sa, sb))
    if widest > bound:
        best_a = min(sa["samples"]) if lower else max(sa["samples"])
        worst_b = max(sb["samples"]) if lower else min(sb["samples"])
        b_wins = worst_b < best_a if lower else worst_b > best_a
        return "within bound" if b_wins else "unresolved"
    return "worse" if worse_by > bound else "within bound"


def render_compare(rows: List[dict]) -> str:
    lines = [f"{'workload':20s} {'metric':18s} {'A value [q1, q3]':34s} "
             f"{'B value [q1, q3]':34s} {'B/A':>7s}  verdict"]

    def cell(s: dict) -> str:
        if "q1" not in s:
            return f"{s['value']:.4g}"
        return f"{s['value']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"

    for row in rows:
        ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "--"
        lines.append(f"{row['workload']:20s} {row['metric']:18s} "
                     f"{cell(row['a']):34s} {cell(row['b']):34s} {ratio:>7s}  "
                     f"{row['verdict']}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
def write_expected(seed: int) -> None:
    recorded = {"seed": seed, "workloads": {}}
    for workload in WORKLOADS.values():
        result = spawn(workload, seed, False, FULL_CHILD_TIMEOUT_S)
        recorded["workloads"][workload.name] = {
            str(p["seed"]): p["outputs"] for p in result["placements"]}
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark of the simulator.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="time one workload and print one JSON result line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="how long a timed run measures (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced pass")
    parser.add_argument("--out", help="full run: write the JSON report here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two full-run reports")
    parser.add_argument("--write-expected", action="store_true",
                        help="re-record expected.json at --seed")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec = load_spec()
    if args.compare:
        with open(args.compare[0]) as fh:
            a = json.load(fh)
        with open(args.compare[1]) as fh:
            b = json.load(fh)
        rows = compare(a, b, spec)
        print(render_compare(rows))
        return 1 if any(row["verdict"] == "worse" for row in rows) else 0

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no simulator sources under {os.path.join(ROOT, 'src')}; run "
              "from a full checkout", file=sys.stderr)
        return 1

    if args.write_expected:
        write_expected(args.seed)
        print(f"wrote {EXPECTED_PATH}")
        return 0

    try:
        if args.workload:
            seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
            workload = WORKLOADS[args.workload]
            line = measure(workload, args.seed, seconds, bool(args.trace), spec,
                           expected_for(workload, args.seed))
            print(json.dumps(line))
            return 0
        report = full_run(args.seed, spec)
    except PassFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    print(render(report))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
