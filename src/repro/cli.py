"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``      one scenario, printed summary (the quickstart as a command).
``figure``   regenerate a paper figure (fig7..fig13) at a chosen scale,
             or from a campaign store with ``--from DIR`` (no simulation).
``campaign`` checkpointed sweeps: ``run`` (kill-and-resume safe, every
             finished point durably on disk; in-process by default,
             or across ``--workers N`` processes with crash
             recovery), ``status`` (progress)
             and ``serve`` (live status endpoint).
``validate`` judge every paper claim in ``repro.analysis.validation``:
             the closed forms, Fig. 6's trees, the RMAC-vs-BMMM sweep
             at ``--scale`` (or a store, with ``--from DIR``) and the
             six-MAC family run.
``topology`` Fig. 6 tree statistics over random placements.
``fig4``     the Fig. 4 handshake trace.
``protocols`` list the registered MAC protocols.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from time import perf_counter
from typing import Optional, Sequence

from repro.experiments.figures import FIGURES, figure_rows
from repro.experiments.report import format_table, rows_to_csv
from repro.experiments.runner import run_sweep, sweep_failures
from repro.experiments.scenarios import (
    FIGURE_SCALES,
    SCENARIOS,
    SINR_PROFILES,
    scale_make_config,
    sinr_preset,
)
from repro.world.network import PROTOCOLS, ScenarioConfig, build_network


def _store_dir(path: str) -> str:
    """``path``, if it is a directory; otherwise exit 2 with one line on
    stderr naming it, as for a usage error (the read-only commands need
    an existing result store)."""
    if os.path.isdir(path):
        return path
    problem = "is not a directory" if os.path.exists(path) else "does not exist"
    print(f"repro: error: result store {path!r} {problem}", file=sys.stderr)
    raise SystemExit(2)


def _load_faults(path: Optional[str]):
    if not path:
        return None
    from repro.faults import FaultPlan

    return FaultPlan.load(path)


def _make_sinr(args: argparse.Namespace):
    """A SinrConfig from the --sinr flags (None when --sinr is absent)."""
    profile = getattr(args, "sinr", None)
    if not profile:
        return None
    overrides = {}
    if getattr(args, "sinr_threshold", None) is not None:
        overrides["sinr_threshold_db"] = args.sinr_threshold
    if getattr(args, "sinr_sigma", None) is not None:
        overrides["shadowing_sigma_db"] = args.sinr_sigma
    if getattr(args, "sinr_fading", None):
        overrides["fading"] = args.sinr_fading
    if getattr(args, "tx_jitter", None) is not None:
        overrides["tx_power_jitter_db"] = args.tx_jitter
    try:
        return sinr_preset(profile, **overrides)
    except ValueError as exc:
        print(f"repro: error: --sinr {profile}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_run(args: argparse.Namespace) -> int:
    use_oracle = bool(args.oracle or args.oracle_report)
    mobility = (dict(mobile=True, max_speed=args.speed, pause_s=args.pause)
                if args.speed > 0 else {})
    config = ScenarioConfig(
        protocol=args.protocol,
        n_nodes=args.nodes,
        width=args.width,
        height=args.height,
        rate_pps=args.rate,
        n_packets=args.packets,
        seed=args.seed,
        **mobility,
        faults=_load_faults(args.faults),
        oracle=use_oracle,
        sinr=_make_sinr(args),
    )
    tracer = None
    if args.trace_jsonl:
        from repro.sim.trace import JsonlTraceSink, Tracer

        tracer = Tracer(enabled=True, buffer=JsonlTraceSink(args.trace_jsonl))
    network = build_network(config, tracer=tracer)
    start = perf_counter()
    summary = network.run()
    run_s = perf_counter() - start
    print(f"run: {network.sim.events_processed} events in {run_s:.3f} s")
    if args.trace_jsonl:
        print(f"trace: {len(network.testbed.tracer)} events -> {args.trace_jsonl}")
    oracle_failed = False
    if use_oracle:
        report = summary.oracle_report
        print(f"oracle: {report['total']} violation(s) over "
              f"{report['events_seen']} trace events")
        for violation in report["violations"][:10]:
            print(f"  [{violation['rule']}] t={violation['time']} "
                  f"node {violation['node']}: {violation['message']}")
        if args.oracle_report:
            import json

            with open(args.oracle_report, "w") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
            print(f"oracle report -> {args.oracle_report}")
        oracle_failed = report["total"] > 0
    if summary.sinr is not None:
        stats = summary.sinr
        mean_sinr = stats["mean_sinr_db"]
        print(f"sinr: {stats['sinr_dropped']} interference drop(s), "
              f"{stats['delivered']} deliveries"
              + (f" at mean {mean_sinr:.1f} dB "
                 f"(min {stats['min_sinr_db']:.1f} dB)"
                 if mean_sinr is not None else "")
              + f", max {stats['concurrent_high_water']} concurrent signals")
    rows = [{"metric": k, "value": v} for k, v in [
        ("delivery ratio", summary.delivery_ratio),
        ("avg delay (s)", summary.avg_delay_s),
        ("drop ratio", summary.avg_drop_ratio),
        ("retransmission ratio", summary.avg_retx_ratio),
        ("tx overhead ratio", summary.avg_txoh_ratio),
        ("MRTS avg bytes", summary.mrts_len_avg),
        ("MRTS abort ratio", summary.abort_avg),
    ]]
    print(format_table(rows, title=f"{args.protocol}: {args.nodes} nodes, "
                                   f"{args.rate} pkt/s, seed {args.seed}"))
    return 1 if oracle_failed else 0


def _sweep_options(args: argparse.Namespace) -> dict:
    """run_sweep kwargs from the shared sweep CLI flags."""
    progress = None
    if args.progress:
        def progress(done, total, key, error):
            status = f"FAILED ({error})" if error else "ok"
            print(f"[{done}/{total}] {key} {status}", flush=True)
    return dict(workers=args.workers, retries=args.retries, progress=progress)


def _report_failures(results, fail_on_error: bool) -> int:
    """Print captured sweep failures; exit code 1 only if asked to."""
    failures = sweep_failures(results)
    for failure in failures:
        print(f"sweep failure: {failure}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} point(s) failed; aggregates use surviving "
              f"seeds only", file=sys.stderr)
    return 1 if (failures and fail_on_error) else 0


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="worker processes; results go to one store "
                             "(default 0: run in this process)")
    parser.add_argument("--retries", type=int, default=0,
                        help="re-run a crashed point up to N extra times")
    parser.add_argument("--progress", action="store_true",
                        help="print one line per finished (point, seed) run")
    parser.add_argument("--fail-on-error", action="store_true",
                        help="exit nonzero if any point failed "
                             "(default: report and keep partial results)")


def _cmd_figure(args: argparse.Namespace) -> int:
    spec = FIGURES[args.figure]
    if args.from_store:
        from repro.experiments.figures import figure_rows_from_store
        from repro.experiments.store import ResultStore

        store = ResultStore(_store_dir(args.from_store), create=False)
        rows = figure_rows_from_store(spec, store)
        results = []
    else:
        _n, _p, rates, seeds = FIGURE_SCALES[args.scale]
        results = run_sweep(list(spec.protocols), list(SCENARIOS), list(rates),
                            list(seeds), scale_make_config(args.scale),
                            **_sweep_options(args))
        rows = figure_rows(spec, results)
    print(format_table(rows, title=spec.title))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(rows_to_csv(rows))
        print(f"wrote {args.csv}")
    return _report_failures(results, args.fail_on_error)


def _cmd_topology(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.net.tree import placement_tree_statistics

    rows = placement_tree_statistics(args.nodes, args.placements, args.seed)
    print(format_table(rows, title=f"Fig. 6 statistics over "
                                   f"{args.placements} placements"))
    mean_hops = float(np.mean([r["avg_hops"] for r in rows]))
    mean_children = float(np.mean([r["avg_children"] for r in rows]))
    print(f"means: hops {mean_hops:.2f} (paper 3.87), "
          f"children {mean_children:.2f} (paper 3.54)")
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.core import RmacConfig, RmacProtocol
    from repro.world.testbed import MacTestbed

    tb = MacTestbed(coords=[(0, 0), (50, 0), (0, 50)], seed=7, trace=True)
    config = RmacConfig(phy=tb.phy)
    tb.build_macs(lambda i, t: RmacProtocol(i, t.sim, t.radios[i],
                                            t.node_rng(i), config,
                                            tracer=t.tracer))
    tb.macs[0].send_reliable((1, 2), payload="fig4", payload_bytes=500)
    tb.run(50_000_000)
    print(tb.tracer.render())
    return 0


def _cmd_protocols(args: argparse.Namespace) -> int:
    for name in sorted(PROTOCOLS):
        print(name)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.validation import (
        all_pass,
        analytic_evidence,
        validate,
        validate_store,
    )
    from repro.experiments.scenarios import FAMILY_PROTOCOLS, family_scenario
    from repro.net.tree import placement_tree_statistics

    if args.from_store:
        from repro.experiments.store import ResultStore

        store = ResultStore(_store_dir(args.from_store), create=False)
        rows = validate_store(store, topology=placement_tree_statistics(),
                              analytic=analytic_evidence())
        print(format_table(rows, title="Paper-claim validation"))
        return 0 if all_pass(rows) else 1

    topology = placement_tree_statistics()
    _n, _p, rates, seeds = FIGURE_SCALES[args.scale]
    options = _sweep_options(args)
    results = run_sweep(["rmac", "bmmm"], list(SCENARIOS), list(rates),
                        list(seeds), scale_make_config(args.scale), **options)
    family = run_sweep(list(FAMILY_PROTOCOLS), ["stationary"], [10], [9],
                       family_scenario, **options)
    rows = validate(results, family=family, topology=topology,
                    analytic=analytic_evidence(), sweep_scale=args.scale)
    print(format_table(rows, title="Paper-claim validation"))
    failure_code = _report_failures(results + family, args.fail_on_error)
    # A full sweep must judge every claim: n/a here means lost evidence.
    judged = all(row["verdict"] != "n/a" for row in rows)
    return failure_code or (0 if all_pass(rows) and judged else 1)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.experiments.farm import CampaignFarm

    _n, _p, rates, seeds = FIGURE_SCALES[args.scale]
    farm = CampaignFarm(args.out)
    options = _sweep_options(args)
    if options["progress"] is None:
        def default_progress(done, total, key, error):
            status = f"FAILED ({error})" if error else "ok"
            print(f"[{done}/{total}] {key} {status}", flush=True)
        options["progress"] = default_progress
    faults = _load_faults(args.faults)
    sinr = _make_sinr(args)
    manifest_extra = {"scale": args.scale}
    if faults is not None:
        manifest_extra["faults"] = faults.to_dict()
    if args.oracle:
        manifest_extra["oracle"] = True
    if sinr is not None:
        manifest_extra["sinr"] = sinr.to_dict()
    results = farm.run(
        args.protocols.split(","), list(SCENARIOS), list(rates), list(seeds),
        scale_make_config(args.scale, faults=faults, oracle=args.oracle,
                          sinr=sinr),
        manifest_extra=manifest_extra,
        **options,
    )
    for figure in sorted(FIGURES):
        spec = FIGURES[figure]
        rows = figure_rows(spec, results)
        print(format_table(rows, title=f"{figure}: {spec.title}"))
    print("farm: " + ", ".join(f"{k.replace('points_', '')}={v}"
                               for k, v in asdict(farm.counters).items()))
    print(f"campaign store: {farm.path} ({len(farm)} points)")
    return _report_failures(results, args.fail_on_error)


def _cmd_campaign_serve(args: argparse.Namespace) -> int:
    from repro.experiments.farm import farm_status, make_status_server

    if args.once:
        import json

        print(json.dumps(farm_status(_store_dir(args.out)), indent=1,
                         sort_keys=True))
        return 0
    server = make_status_server(args.out, args.host, args.port)
    host, port = server.server_address[:2]
    print(f"serving {args.out} on http://{host}:{port}/ "
          f"(JSON at /status; Ctrl-C to stop)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.experiments.farm import farm_status
    from repro.experiments.report import render_status

    print(render_status(farm_status(_store_dir(args.out)),
                        title=f"campaign store: {args.out}"), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario")
    run.add_argument("--protocol", default="rmac", choices=sorted(PROTOCOLS))
    run.add_argument("--nodes", type=int, default=25)
    run.add_argument("--width", type=float, default=290.0)
    run.add_argument("--height", type=float, default=175.0)
    run.add_argument("--rate", type=float, default=10.0)
    run.add_argument("--packets", type=int, default=100)
    run.add_argument("--speed", type=float, default=0.0,
                     help="max waypoint speed m/s (0 = stationary)")
    run.add_argument("--pause", type=float, default=10.0,
                     help="waypoint pause s (read only with --speed)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--trace-jsonl", metavar="OUT.jsonl",
                     help="stream the full protocol trace to a JSONL file "
                          "(bounded memory, any run length)")
    run.add_argument("--faults", metavar="PLAN.json",
                     help="inject faults from a JSON fault plan (node "
                          "crashes, link fades, corruption windows, "
                          "replacement bit-error model)")
    run.add_argument("--oracle", action="store_true",
                     help="check protocol invariants online against the "
                          "trace stream; exits 1 if any are violated")
    run.add_argument("--oracle-report", metavar="OUT.json",
                     help="write the oracle's violation report as JSON "
                          "(implies --oracle)")
    run.add_argument("--sinr", choices=sorted(SINR_PROFILES),
                     help="SINR interference reception on a named "
                          "propagation profile (accumulated in-air power, "
                          "decode by SINR threshold; see "
                          "repro.phy.sinr)")
    run.add_argument("--sinr-threshold", type=float, metavar="DB",
                     help="decode SINR threshold in dB (default 10)")
    run.add_argument("--sinr-sigma", type=float, metavar="DB",
                     help="lognormal shadowing sigma in dB (shadowing/"
                          "fading profiles; default 6)")
    run.add_argument("--sinr-fading", choices=("rayleigh", "rician"),
                     help="add fast fading per arrival to the chosen "
                          "profile")
    run.add_argument("--tx-jitter", type=float, metavar="DB",
                     help="heterogeneous radios: per-node uniform tx-power "
                          "jitter of +-DB (deterministic in the seed)")
    run.set_defaults(func=_cmd_run)

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("figure", choices=sorted(FIGURES))
    fig.add_argument("--scale", choices=sorted(FIGURE_SCALES),
                     default="small")
    fig.add_argument("--from", dest="from_store", metavar="DIR",
                     help="read a campaign result store instead of "
                          "simulating (partial stores give partial rows)")
    _add_sweep_flags(fig)
    fig.add_argument("--csv")
    fig.set_defaults(func=_cmd_figure)

    topo = sub.add_parser("topology", help="Fig. 6 tree statistics")
    topo.add_argument("--nodes", type=int, default=75)
    topo.add_argument("--placements", type=int, default=10)
    topo.add_argument("--seed", type=int, default=1000)
    topo.set_defaults(func=_cmd_topology)

    fig4 = sub.add_parser("fig4", help="print the Fig. 4 handshake trace")
    fig4.set_defaults(func=_cmd_fig4)

    protocols = sub.add_parser("protocols", help="list registered protocols")
    protocols.set_defaults(func=_cmd_protocols)

    campaign = sub.add_parser(
        "campaign",
        help="checkpointed sweeps over an on-disk result store",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)
    campaign_run = campaign_sub.add_parser(
        "run",
        help="run (or resume) a checkpointed sweep; kill it any time -- "
             "completed points are on disk and are never re-simulated",
    )
    campaign_run.add_argument("--out", required=True, metavar="DIR",
                              help="result-store directory (created on "
                                   "first run)")
    campaign_run.add_argument("--scale", choices=sorted(FIGURE_SCALES),
                              default="small")
    campaign_run.add_argument("--protocols", default="rmac,bmmm",
                              help="comma-separated protocol names")
    campaign_run.add_argument("--faults", metavar="PLAN.json",
                              help="inject the same fault plan into every "
                                   "point (part of each point's config "
                                   "hash, so resume stays exact)")
    campaign_run.add_argument("--oracle", action="store_true",
                              help="attach the invariant oracle to every "
                                   "point; per-point violation reports "
                                   "are persisted in the store")
    campaign_run.add_argument("--sinr", choices=sorted(SINR_PROFILES),
                              help="run every point under SINR "
                                   "interference reception on the named "
                                   "propagation profile (part of each "
                                   "point's config hash)")
    _add_sweep_flags(campaign_run)
    campaign_run.set_defaults(func=_cmd_campaign_run)

    campaign_serve = campaign_sub.add_parser(
        "serve",
        help="long-lived HTTP endpoint publishing a farm/campaign "
             "store's live progress, ETA and worker liveness",
    )
    campaign_serve.add_argument("--out", required=True, metavar="DIR",
                                help="farm root (or campaign store) "
                                     "directory")
    campaign_serve.add_argument("--host", default="127.0.0.1")
    campaign_serve.add_argument("--port", type=int, default=8765)
    campaign_serve.add_argument("--once", action="store_true",
                                help="print one JSON status snapshot to "
                                     "stdout and exit (no server)")
    campaign_serve.set_defaults(func=_cmd_campaign_serve)

    campaign_status = campaign_sub.add_parser(
        "status",
        help="progress of a campaign store: done/failed/stale/missing",
    )
    campaign_status.add_argument("--out", required=True, metavar="DIR",
                                 help="result-store directory")
    campaign_status.set_defaults(func=_cmd_campaign_status)

    validate = sub.add_parser(
        "validate",
        help="gather each claim's evidence and check every paper claim",
    )
    validate.add_argument("--scale", choices=sorted(FIGURE_SCALES),
                          default="small")
    validate.add_argument("--from", dest="from_store", metavar="DIR",
                          help="check claims against a campaign result "
                               "store instead of simulating")
    _add_sweep_flags(validate)
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
