"""Command-line interface.

Five subcommands cover the library's main use cases without writing any
Python:

* ``repro-bounds derive-ubd`` — run the full rsk-nop methodology on a preset
  platform and print the derived ``ubdm`` with its confidence report;
* ``repro-bounds synchrony`` — run a load rsk against ``Nc - 1`` rsk and show
  the contention-delay histogram (the Figure 6(b) experiment);
* ``repro-bounds campaign`` — run an experiment campaign (randomly composed
  EEMBC-like workloads plus rsk reference runs, the Figure 6(a) experiment)
  through the parallel campaign engine, optionally writing JSON artifacts;
* ``repro-bounds audit`` — run every registered audit dimension over a
  preset, an ``ArchConfig`` JSON file or a finished campaign directory and
  emit a machine-readable ``flags.json`` plus a self-contained
  ``report.html``, exiting with the worst verdict (0 pass / 1 warn /
  2 fail) so CI can gate on it;
* ``repro-bounds cache`` — inspect and maintain a durable result store
  (``stats``) or expire old entries (``gc --keep-days N``).  Exit codes: 0
  on success, 2 on configuration errors (missing store directory, corrupt
  arguments) — the same convention every subcommand follows;
* ``repro-bounds list`` — print the registered presets, arbitration
  policies, simulation engines and topologies.  The listing is read straight
  from the factories' registries, so it can never drift from what the
  simulator actually builds;
* ``repro-bounds serve`` — run the campaign daemon: accept specs over a
  Unix/TCP socket, execute them FIFO against one shared store and worker
  pool, and hand shards to remote executors (DESIGN.md §11);
* ``repro-bounds submit | status | results | shutdown`` — the client
  commands against a running daemon;
* ``repro-bounds worker`` — connect to a daemon as a remote shard
  executor (pull shards, heartbeat, execute, report).

Examples::

    repro-bounds derive-ubd --preset ref --k-max 60 --iterations 40
    repro-bounds synchrony --preset var
    repro-bounds campaign --preset ref --workloads 8
    repro-bounds campaign --jobs 4 --out out/campaign --store out/store
    repro-bounds campaign --topology bus_only --topology bus_bank_queues
    repro-bounds cache stats --store out/store --json
    repro-bounds cache gc --store out/store --keep-days 30
    repro-bounds audit small --topology split_bus --out out/audit
    repro-bounds audit out/campaign
    repro-bounds serve --socket out/serve/daemon.sock --store out/store
    repro-bounds submit spec.json --socket out/serve/daemon.sock --wait
    repro-bounds status --socket out/serve/daemon.sock
    repro-bounds worker --connect tcp:daemon-host:7915
    repro-bounds list
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path
from typing import List, Optional

from .analysis.confidence import assess_write_burst
from .analysis.contention import contention_histogram, latency_decomposition
from .campaign import (
    CampaignSpec,
    CampaignStreamWriter,
    ParallelRunner,
    ResultStore,
    campaign_digest,
    is_store_directory,
)
from .config import PRESETS, get_preset
from .errors import ConfigurationError, ReproError
from .sim.arbiter import registered_arbiters
from .sim.scheduler import registered_engines
from .sim.topology import registered_topologies
from .kernels.rsk import build_rsk
from .methodology.experiment import ExperimentRunner
from .methodology.naive import NaiveUbdEstimator
from .methodology.ubd import MeasuredBoundPipeline, UbdEstimator
from .report.campaign import render_campaign_summary
from .report.histogram import render_histogram
from .report.tables import render_series, render_table


def build_parser() -> argparse.ArgumentParser:
    """Create the argument parser for the ``repro-bounds`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-bounds",
        description="Measurement-based contention bounds for round-robin buses "
        "(DAC 2015 reproduction)",
    )
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="ref",
        help="platform preset to simulate (default: ref)",
    )
    parser.add_argument(
        "--engine",
        choices=registered_engines(),
        default="event",
        help="simulation engine: the event-driven fast path, the replay "
        "engine (core traces captured once per kernel and streamed through a "
        "loop generated for the configured topology chain and arbiter set) "
        "or the stepped cycle-by-cycle oracle; all are cycle-exact "
        "(default: event)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    derive = subparsers.add_parser("derive-ubd", help="run the rsk-nop methodology and report ubdm")
    derive.add_argument("--k-max", type=int, default=60, help="initial nop sweep upper bound")
    derive.add_argument(
        "--iterations", type=int, default=40, help="loop iterations of each rsk-nop kernel"
    )
    derive.add_argument(
        "--instruction-type",
        choices=("load", "store"),
        default="load",
        help="bus access type used by the kernels",
    )
    derive.add_argument(
        "--show-sweep", action="store_true", help="print the measured dbus(k) series"
    )
    derive.add_argument(
        "--topology",
        choices=registered_topologies(),
        default=None,
        help="override the preset's shared-resource topology",
    )
    derive.add_argument(
        "--per-resource",
        action="store_true",
        help="run the resource-generic measured-bound pipeline: one measured "
        "ubdm term per shared resource of the topology (selected from the "
        "rsk registry), sandwich-checked against the analytical terms and "
        "composed into an end-to-end measured bound",
    )
    derive.add_argument(
        "--stress-iterations",
        type=int,
        default=40,
        help="loop iterations of each per-resource stressing kernel "
        "(--per-resource only)",
    )

    synchrony = subparsers.add_parser(
        "synchrony", help="show the per-request contention histogram of rsk vs rsk"
    )
    synchrony.add_argument("--iterations", type=int, default=150)
    synchrony.add_argument(
        "--topology",
        choices=registered_topologies(),
        default=None,
        help="override the preset's shared-resource topology",
    )
    synchrony.add_argument(
        "--decompose",
        action="store_true",
        help="additionally attribute each request's latency to bus wait, "
        "bank-queue wait, DRAM service and response wait (per-resource "
        "Figure 6(b)-style histograms; needs a run with memory traffic to "
        "show more than the bus stage)",
    )

    campaign = subparsers.add_parser(
        "campaign",
        help="run an experiment campaign (random workloads + rsk references) "
        "with optional parallelism, caching and JSON artifacts",
    )
    campaign.add_argument("--workloads", type=int, default=8)
    campaign.add_argument("--iterations", type=int, default=25)
    campaign.add_argument("--seed", type=int, default=2015)
    campaign.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; 1 runs in-process (results are identical)",
    )
    campaign.add_argument(
        "--out",
        metavar="DIR",
        help="write results.jsonl, summary.json and the campaign.json "
        "manifest into DIR, streaming them while the campaign runs",
    )
    campaign.add_argument(
        "--store",
        metavar="DIR",
        help="durable SQLite-indexed result store; re-runs only simulate "
        "misses, and hits dedupe across all historical campaigns (see "
        "'repro-bounds cache'); an old flat cache directory is adopted in place",
    )
    campaign.add_argument(
        "--shard-size",
        type=int,
        default=None,
        metavar="N",
        help="runs per dispatched shard (default: auto, ~4 shards per job)",
    )
    campaign.add_argument(
        "--arbiter",
        action="append",
        choices=registered_arbiters(),
        help="bus arbitration policy to sweep (repeatable; default round_robin)",
    )
    campaign.add_argument(
        "--contenders",
        type=int,
        action="append",
        help="number of co-runners to sweep (repeatable; default: all cores)",
    )
    campaign.add_argument(
        "--topology",
        action="append",
        choices=registered_topologies(),
        help="shared-resource topology to sweep (repeatable; default: the "
        "preset's own topology)",
    )

    audit = subparsers.add_parser(
        "audit",
        help="evaluate every registered audit dimension over a preset, an "
        "ArchConfig JSON file or a finished campaign directory; emits "
        "flags.json + report.html and exits with the worst verdict "
        "(0 pass / 1 warn / 2 fail)",
    )
    audit.add_argument(
        "target",
        help="preset name, ArchConfig JSON file, or campaign output directory",
    )
    audit.add_argument(
        "--topology",
        choices=registered_topologies(),
        default=None,
        help="override the topology of a preset/config target "
        "(invalid for campaign directories)",
    )
    audit.add_argument(
        "--out",
        metavar="DIR",
        default="out/audit",
        help="directory receiving flags.json and report.html "
        "(default: out/audit)",
    )
    audit.add_argument("--k-max", type=int, default=60, help="initial nop sweep upper bound")
    audit.add_argument(
        "--iterations",
        type=int,
        default=40,
        help="loop iterations of each rsk-nop kernel",
    )
    audit.add_argument(
        "--stress-iterations",
        type=int,
        default=40,
        help="loop iterations of each per-resource stressing kernel",
    )
    audit.add_argument(
        "--synchrony-iterations",
        type=int,
        default=150,
        help="loop iterations of the traced synchrony/store-probe runs",
    )
    audit.add_argument(
        "--equivalence-iterations",
        type=int,
        default=40,
        help="loop iterations of the engine cross-check run",
    )

    cache = subparsers.add_parser(
        "cache",
        help="inspect and maintain a durable result store (exit 0 on "
        "success, 2 on configuration errors)",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats",
        help="print entry counts, per-campaign attribution and on-disk sizes",
    )
    cache_stats.add_argument(
        "--store", metavar="DIR", required=True, help="result store directory"
    )
    cache_gc = cache_sub.add_parser(
        "gc", help="delete entries older than --keep-days (index and artifacts)"
    )
    cache_gc.add_argument(
        "--store", metavar="DIR", required=True, help="result store directory"
    )
    cache_gc.add_argument(
        "--keep-days",
        type=float,
        required=True,
        metavar="N",
        help="keep entries created within the last N days",
    )
    for cache_parser in (cache_stats, cache_gc):
        cache_parser.add_argument(
            "--json",
            action="store_true",
            help="emit the result as one JSON object (for scripting)",
        )

    serve = subparsers.add_parser(
        "serve",
        help="run the campaign daemon: accept specs over a socket, execute "
        "them FIFO against one shared store and worker pool, ship shards "
        "to remote workers, drain gracefully on SIGTERM/shutdown",
    )
    serve.add_argument(
        "--socket",
        metavar="ADDR",
        required=True,
        help="listen address: a Unix socket path (default form, also "
        "'unix:/path'), or 'tcp:host:port' for multi-host setups",
    )
    serve.add_argument(
        "--store",
        metavar="DIR",
        required=True,
        help="shared durable result store (created if missing); every "
        "submitted campaign reads and writes it, so overlapping "
        "submissions simulate only their miss-frontier",
    )
    serve.add_argument(
        "--data-dir",
        metavar="DIR",
        default="out/serve",
        help="daemon working directory; job artifacts stream to "
        "DATA_DIR/jobs/<job-id>/ (default: out/serve)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="local worker processes (default: CPU count); 0 disables "
        "local execution so shards only flow to remote workers",
    )
    serve.add_argument(
        "--shard-size",
        type=int,
        default=None,
        metavar="N",
        help="runs per dispatched shard (default: auto per job)",
    )
    serve.add_argument(
        "--shard-timeout",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="requeue a remote shard whose worker has not heartbeat for "
        "this long (default: 120)",
    )
    serve.add_argument(
        "--log",
        metavar="FILE",
        default=None,
        help="append operational log lines to FILE (default: stderr)",
    )

    submit = subparsers.add_parser(
        "submit",
        help="submit a campaign spec (JSON file) to a running daemon",
    )
    submit.add_argument(
        "spec",
        metavar="SPEC.json",
        help="campaign spec file: a JSON object with CampaignSpec fields "
        "(presets, arbiters, seeds, num_workloads, ...); unknown fields "
        "are rejected",
    )
    submit.add_argument(
        "--socket", metavar="ADDR", required=True, help="daemon address"
    )
    submit.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write this job's artifacts into DIR instead of the daemon's "
        "data directory",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the job finishes and print its statistics",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up on --wait after this long (default: wait forever)",
    )
    submit.add_argument(
        "--json", action="store_true", help="print the response as JSON"
    )

    status = subparsers.add_parser(
        "status", help="show one job (or the whole job table) of a daemon"
    )
    status.add_argument(
        "job_id", nargs="?", default=None, metavar="JOB-ID",
        help="job to query (omit for the full table)",
    )
    status.add_argument(
        "--socket", metavar="ADDR", required=True, help="daemon address"
    )
    status.add_argument(
        "--json", action="store_true", help="print the response as JSON"
    )

    results = subparsers.add_parser(
        "results", help="fetch a completed job's summary (and records with --json)"
    )
    results.add_argument("job_id", metavar="JOB-ID")
    results.add_argument(
        "--socket", metavar="ADDR", required=True, help="daemon address"
    )
    results.add_argument(
        "--json",
        action="store_true",
        help="print the full results frame (records + summary) as JSON",
    )

    shutdown = subparsers.add_parser(
        "shutdown",
        help="ask a daemon to drain its queue and exit (graceful; queued "
        "jobs still run)",
    )
    shutdown.add_argument(
        "--socket", metavar="ADDR", required=True, help="daemon address"
    )
    shutdown.add_argument(
        "--json", action="store_true", help="print the response as JSON"
    )

    worker = subparsers.add_parser(
        "worker",
        help="connect to a daemon as a remote shard executor: pull leased "
        "shards, heartbeat while executing, report results; exits when "
        "the daemon drains",
    )
    worker.add_argument(
        "--connect", metavar="ADDR", required=True, help="daemon address"
    )
    worker.add_argument(
        "--id",
        dest="worker_id",
        metavar="NAME",
        default=None,
        help="worker name shown in the daemon log (default: host:pid)",
    )
    worker.add_argument(
        "--max-shards",
        type=int,
        default=None,
        metavar="N",
        help="exit after completing N shards (default: run until drain)",
    )
    worker.add_argument(
        "--quiet", action="store_true", help="suppress per-shard log lines"
    )

    subparsers.add_parser(
        "list",
        help="print registered presets, arbiters, engines and topologies "
        "(read from the factories' registries)",
    )

    return parser


def _preset_config(args: argparse.Namespace):
    """Resolve the platform from the common --preset/--engine/--topology flags."""
    config = get_preset(args.preset, engine=args.engine)
    if getattr(args, "topology", None):
        config = config.with_topology_name(args.topology)
    return config


def _run_per_resource_derive(args: argparse.Namespace, config) -> int:
    """The ``derive-ubd --per-resource`` path: the measured-bound pipeline."""
    pipeline = MeasuredBoundPipeline(
        config,
        instruction_type=args.instruction_type,
        k_max=args.k_max,
        iterations=args.iterations,
        stress_iterations=args.stress_iterations,
    )
    report = pipeline.run()
    print(
        f"Platform: {args.preset} (topology {report.topology}; analytical "
        f"end-to-end bound {report.end_to_end_analytical} cycles)"
    )
    print()
    print("Measured per-resource bounds (observed <= ubdm <= analytical):")
    rows = []
    for term in report.terms.values():
        rows.append(
            [
                term.resource,
                term.observed_worst_case,
                term.ubdm,
                term.analytical,
                term.method,
                term.sandwich.status,
            ]
        )
    print(
        render_table(["resource", "observed", "ubdm", "analytical", "method", "check"], rows)
    )
    print()
    print(
        f"End-to-end measured bound: {report.end_to_end_ubdm} cycles "
        f"(analytical envelope {report.end_to_end_analytical}; the bus "
        f"saw-tooth alone gives {report.bus_methodology.ubdm})"
    )
    if report.memory_split is not None:
        print(f"Memory term split: {report.memory_split.summary()}")
    print()
    if report.write_burst is not None:
        status = "PASS" if report.write_burst.passed else "FAIL"
        print(f"[{status}] {report.write_burst.name}: {report.write_burst.detail}")
    print(report.bus_methodology.confidence.summary())
    if args.show_sweep:
        print()
        print(
            render_series(
                report.bus_methodology.ks,
                report.bus_methodology.dbus_values,
                "k",
                "dbus",
            )
        )
    return 0 if report.passed else 1


def _run_derive_ubd(args: argparse.Namespace) -> int:
    config = _preset_config(args)
    if args.per_resource:
        return _run_per_resource_derive(args, config)
    estimator = UbdEstimator(
        config,
        instruction_type=args.instruction_type,
        k_max=args.k_max,
        iterations=args.iterations,
    )
    result = estimator.run()
    print(f"Platform: {args.preset} (analytical ubd = {config.ubd} cycles)")
    if config.topology.has_memory_queues:
        if config.has_composable_bounds:
            terms = " + ".join(f"{resource}:{term}" for resource, term in config.ubd_terms.items())
            print(
                f"Topology {config.topology.name}: per-resource bounds {terms} "
                f"= end-to-end {config.end_to_end_ubd} cycles per memory request"
            )
        else:
            print(
                f"Topology {config.topology.name}: no analytical per-resource "
                f"bound for {config.topology.mem_arbitration!r} bank arbitration"
            )
    print(f"delta_nop = {result.delta_nop.cycles_per_nop:.3f} cycles/nop "
          f"(rounded {result.delta_nop.rounded})")
    print(result.period.summary())
    print(f"ubdm = {result.ubdm} cycles")
    print()
    print(result.confidence.summary())
    if args.show_sweep:
        print()
        print(render_series(result.ks, result.dbus_values, "k", "dbus"))
    return 0 if result.confidence.passed else 1


def _run_synchrony(args: argparse.Namespace) -> int:
    config = _preset_config(args)
    runner = ExperimentRunner(config)
    scua = build_rsk(config, 0, iterations=args.iterations)
    contended = runner.run_against_rsk(scua, trace=True)
    histogram = contention_histogram(contended.trace, 0)
    naive = NaiveUbdEstimator(config).estimate_with_rsk_as_scua(iterations=args.iterations)
    print(
        render_histogram(
            histogram.counts,
            title=f"{args.preset}: contention delay per rsk request "
            f"(bus utilisation {contended.bus_utilisation:.0%})",
            label="gamma",
        )
    )
    print()
    print(f"Observed plateau (naive ubdm): {histogram.mode} cycles "
          f"(det/nr = {naive.ubdm:.1f}); analytical ubd = {config.ubd} cycles")
    burst = assess_write_burst(config, contended.result.pmc)
    print(f"[{'PASS' if burst.passed else 'FAIL'}] {burst.name}: {burst.detail}")
    if args.decompose:
        decomposition = latency_decomposition(contended.trace, 0)
        print()
        print(
            f"Per-resource latency decomposition "
            f"({decomposition.total_requests} requests, "
            f"{decomposition.memory_requests} reached the memory stage):"
        )
        for stage, counts in decomposition.histograms.items():
            if not counts:
                continue
            print()
            print(
                render_histogram(
                    counts,
                    title=f"{stage}: wait/service cycles per request "
                    f"(max {decomposition.max_observed(stage)}, "
                    f"mean {decomposition.mean_observed(stage):.1f})",
                    label="cycles",
                )
            )
    return 0


def _run_campaign(args: argparse.Namespace) -> int:
    spec = CampaignSpec(
        presets=(args.preset,),
        arbiters=tuple(args.arbiter) if args.arbiter else ("round_robin",),
        topologies=tuple(args.topology) if args.topology else (),
        contender_counts=tuple(args.contenders) if args.contenders else (),
        seeds=(args.seed,),
        num_workloads=args.workloads,
        iterations=args.iterations,
        rsk_iterations=args.iterations * 5,
        engine=args.engine,
    )
    descriptors = spec.expand()
    store = None
    if args.store:
        campaign_id = campaign_digest([descriptor.digest() for descriptor in descriptors])
        store = ResultStore(args.store, campaign_id=campaign_id)
    try:
        runner = ParallelRunner(jobs=args.jobs, cache=store, shard_size=args.shard_size)
        if args.out:
            stream = CampaignStreamWriter(args.out)
            outcome = runner.run(descriptors, stream=stream)
            summary = outcome.summary()
            artifacts = stream.finalize(summary)
            print(render_campaign_summary(summary))
            print()
            print(f"Wrote {artifacts.results_path}")
            print(f"Wrote {artifacts.summary_path}")
            print(f"Wrote {artifacts.manifest_path}")
        else:
            outcome = runner.run(descriptors)
            summary = outcome.summary()
            print(render_campaign_summary(summary))
    finally:
        if store is not None:
            store.close()
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    """The ``cache`` subcommand: durable-store maintenance.

    Exit codes: 0 on success; 2 when the store directory is
    missing/invalid (raised as :class:`ConfigurationError` and mapped by
    :func:`main`).
    """
    if not is_store_directory(args.store):
        raise ConfigurationError(
            f"{args.store} is not a result store (no index); "
            "create one with 'repro-bounds campaign --store'"
        )
    with ResultStore(args.store) as store:
        if args.cache_command == "stats":
            stats = store.stats()
            if args.json:
                print(json.dumps(stats, sort_keys=True, indent=2))
                return 0
            print(f"Store: {stats['directory']} (schema {stats['schema']})")
            print(
                f"Entries: {stats['entries']} "
                f"({stats['artifact_bytes']} artifact bytes, "
                f"{stats['index_bytes']} index bytes)"
            )
            traces = stats.get("traces")
            if isinstance(traces, dict):
                print(
                    f"Traces: {traces['entries']} "
                    f"({traces['bytes']} bytes, replay-engine core captures)"
                )
            campaigns = stats["campaigns"]
            if isinstance(campaigns, dict) and campaigns:
                print("Per-campaign attribution:")
                print(
                    render_table(
                        ["campaign", "entries"],
                        [[name, campaigns[name]] for name in sorted(campaigns)],
                    )
                )
            claims = stats["active_claims"]
            if isinstance(claims, dict) and claims:
                print("Active claims (campaigns a live process holds in use):")
                for campaign_id in sorted(claims):
                    claim = claims[campaign_id]
                    print(
                        f"  {campaign_id}: pid {claim['pid']}, "
                        f"heartbeat {claim['age_seconds']:.0f}s ago"
                    )
            return 0
        if args.cache_command == "gc":
            if args.keep_days < 0:
                raise ConfigurationError("--keep-days must be non-negative")
            outcome = store.gc(keep_days=args.keep_days)
            if args.json:
                print(json.dumps(outcome.as_dict(), sort_keys=True, indent=2))
                return 0
            removed = outcome.removed
            print(
                f"Removed {removed} entr{'y' if removed == 1 else 'ies'} older "
                f"than {args.keep_days:g} day(s); {len(store)} remain"
            )
            if outcome.skipped_in_use:
                in_use = ", ".join(outcome.in_use_campaigns)
                print(
                    f"Skipped {outcome.skipped_in_use} in-use entr"
                    f"{'y' if outcome.skipped_in_use == 1 else 'ies'} "
                    f"(claimed by: {in_use})"
                )
            if outcome.traces_removed:
                print(f"Removed {outcome.traces_removed} expired core trace(s)")
            return 0
    raise ConfigurationError(
        f"unknown cache command {args.cache_command!r}"
    )  # pragma: no cover


def _run_audit(args: argparse.Namespace) -> int:
    """The ``audit`` subcommand: dimensions -> verdict -> artifacts."""
    from .audit import AuditOptions, run_audit

    options = AuditOptions(
        k_max=args.k_max,
        iterations=args.iterations,
        stress_iterations=args.stress_iterations,
        synchrony_iterations=args.synchrony_iterations,
        equivalence_iterations=args.equivalence_iterations,
    )
    artifacts = run_audit(args.target, args.out, topology=args.topology, options=options)
    report = artifacts.report
    target = " ".join(f"{key}={value}" for key, value in sorted(report.target.items()))
    print(f"Audit target: {target}")
    print()
    print(
        render_table(
            ["dimension", "verdict", "findings"],
            [
                [dimension.name, dimension.verdict.upper(), len(dimension.findings)]
                for dimension in report.dimensions
            ],
        )
    )
    flagged = [
        (dimension, finding)
        for dimension in report.dimensions
        for finding in dimension.findings
        if finding.verdict != "pass"
    ]
    if flagged:
        print()
        for dimension, finding in flagged:
            print(
                f"[{finding.verdict.upper()}] {dimension.name}/{finding.check}: "
                f"{finding.detail}"
            )
    print()
    print(f"Wrote {artifacts.flags_path}")
    print(f"Wrote {artifacts.html_path}")
    print(f"Verdict: {report.verdict} (exit code {report.exit_code})")
    return report.exit_code


def _job_stats_line(job: dict) -> str:
    """One-line completion report for a job payload; the ``N simulated``
    phrasing matches the campaign summary so scripts can grep either."""
    stats = job.get("stats", {})
    return (
        f"{job['job_id']} {job['state']}: {stats.get('simulated', '?')} simulated, "
        f"{stats.get('cached', '?')} cached ({job.get('total_runs', '?')} runs) "
        f"-> {job.get('out_dir', '?')}"
    )


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: run the daemon until it drains."""
    from .service import CampaignDaemon, parse_address

    address = parse_address(args.socket)
    if address.kind == "unix":
        parent = Path(address.path).parent
        if str(parent) not in ("", "."):
            parent.mkdir(parents=True, exist_ok=True)
    jobs = args.jobs if args.jobs is not None else max(1, os.cpu_count() or 1)
    log_handle = open(args.log, "a", encoding="utf-8") if args.log else None
    daemon = CampaignDaemon(
        store_dir=args.store,
        data_dir=args.data_dir,
        jobs=jobs,
        shard_size=args.shard_size,
        shard_timeout=args.shard_timeout,
        log=log_handle,
    )

    def _drain(signum: int, frame: object) -> None:
        del signum, frame
        daemon.request_shutdown()

    previous = {
        sig: signal.signal(sig, _drain) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        daemon.serve(address)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        if log_handle is not None:
            log_handle.close()
    return 0


def _run_submit(args: argparse.Namespace) -> int:
    """The ``submit`` subcommand: spec file -> daemon -> job id."""
    from .service import ServiceClient, parse_address

    try:
        with open(args.spec, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read campaign spec {args.spec}: {exc}") from exc
    spec = CampaignSpec.from_dict(payload)
    client = ServiceClient(parse_address(args.socket))
    submitted = client.submit(spec, out=args.out)
    job_id = str(submitted["job_id"])
    if not args.wait:
        if args.json:
            print(json.dumps(submitted, sort_keys=True, indent=2))
        else:
            print(
                f"Submitted {job_id}: {submitted['total_runs']} runs "
                f"-> {submitted['out_dir']}"
            )
        return 0
    job = client.wait(job_id, timeout=args.timeout)
    if args.json:
        print(json.dumps(job, sort_keys=True, indent=2))
    else:
        print(_job_stats_line(job))
    return 0


def _run_status(args: argparse.Namespace) -> int:
    """The ``status`` subcommand: one job, or the daemon's job table."""
    from .service import ServiceClient, parse_address

    client = ServiceClient(parse_address(args.socket))
    response = client.status(args.job_id)
    if args.json:
        print(json.dumps(response, sort_keys=True, indent=2))
        return 0
    if args.job_id is not None:
        job = response["job"]
        assert isinstance(job, dict)
        print(_job_stats_line(job))
        if job.get("error"):
            print(f"error: {job['error']}")
        return 0
    jobs = response.get("jobs", [])
    assert isinstance(jobs, list)
    if not jobs:
        print("No jobs submitted yet")
    else:
        print(
            render_table(
                ["job", "state", "runs", "simulated", "cached"],
                [
                    [
                        job["job_id"],
                        job["state"],
                        job.get("total_runs", "?"),
                        job.get("stats", {}).get("simulated", "-"),
                        job.get("stats", {}).get("cached", "-"),
                    ]
                    for job in jobs
                ],
            )
        )
    print(
        f"Workers connected: {response.get('workers', 0)}; "
        f"draining: {response.get('draining', False)}"
    )
    return 0


def _run_results(args: argparse.Namespace) -> int:
    """The ``results`` subcommand: render a finished job's summary."""
    from .service import ServiceClient, parse_address

    client = ServiceClient(parse_address(args.socket))
    response = client.results(args.job_id)
    if args.json:
        print(json.dumps(response, sort_keys=True, indent=2))
        return 0
    summary = response["summary"]
    assert isinstance(summary, dict)
    print(render_campaign_summary(summary))
    job = response["job"]
    assert isinstance(job, dict)
    print()
    print(_job_stats_line(job))
    return 0


def _run_shutdown(args: argparse.Namespace) -> int:
    """The ``shutdown`` subcommand: start the daemon's graceful drain."""
    from .service import ServiceClient, parse_address

    client = ServiceClient(parse_address(args.socket))
    response = client.shutdown()
    if args.json:
        print(json.dumps(response, sort_keys=True, indent=2))
    else:
        print(f"Daemon draining; {response.get('pending_jobs', 0)} job(s) still pending")
    return 0


def _run_worker(args: argparse.Namespace) -> int:
    """The ``worker`` subcommand: remote shard executor loop."""
    from .service import RemoteWorker, parse_address

    worker = RemoteWorker(
        parse_address(args.connect),
        worker_id=args.worker_id,
        max_shards=args.max_shards,
        log=None if args.quiet else sys.stderr,
    )
    completed = worker.run()
    print(f"Completed {completed} shard(s)")
    return 0


def _run_list(args: argparse.Namespace) -> int:
    """Print every registered preset, arbiter, engine and topology.

    Reads the registries the factories themselves use
    (:mod:`repro.sim.arbiter`, :mod:`repro.sim.scheduler`,
    :mod:`repro.sim.topology`), so the listing cannot drift from what
    ``System`` actually builds.
    """
    del args
    from .sim.arbiter import ARBITER_REGISTRY
    from .sim.scheduler import ENGINE_REGISTRY
    from .sim.topology import TOPOLOGY_REGISTRY

    print("Presets (--preset):")
    rows = []
    for name in sorted(PRESETS):
        config = get_preset(name)
        rows.append(
            [
                name,
                config.num_cores,
                config.bus.arbitration,
                config.topology.name,
                config.engine,
                config.ubd,
            ]
        )
    print(render_table(["name", "cores", "bus arbiter", "topology", "engine", "ubd"], rows))

    print()
    print("Arbitration policies (--arbiter, TopologyConfig.mem_arbitration):")
    print(
        render_table(
            ["name", "description"],
            [[entry.name, entry.description] for entry in ARBITER_REGISTRY.values()],
        )
    )

    print()
    print("Simulation engines (--engine):")
    print(
        render_table(
            ["name", "description"],
            [[entry.name, entry.description] for entry in ENGINE_REGISTRY.values()],
        )
    )

    print()
    print("Topologies (--topology):")
    print(
        render_table(
            ["name", "description"],
            [[entry.name, entry.description] for entry in TOPOLOGY_REGISTRY.values()],
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro-bounds`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "derive-ubd":
            return _run_derive_ubd(args)
        if args.command == "synchrony":
            return _run_synchrony(args)
        if args.command == "campaign":
            return _run_campaign(args)
        if args.command == "audit":
            return _run_audit(args)
        if args.command == "cache":
            return _run_cache(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "submit":
            return _run_submit(args)
        if args.command == "status":
            return _run_status(args)
        if args.command == "results":
            return _run_results(args)
        if args.command == "shutdown":
            return _run_shutdown(args)
        if args.command == "worker":
            return _run_worker(args)
        if args.command == "list":
            return _run_list(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # A downstream reader closed early (`repro-bounds results ... | head`);
        # that is not an error.  Point stdout at devnull so the interpreter's
        # exit-time flush does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
