"""Command-line interface.

A thin argparse front end over the library so common one-off tasks do not
require writing a script::

    python -m repro stats EX68
    python -m repro optimize EX00 --script compress2
    python -m repro map mult --verilog mapped.v
    python -m repro postopt EX08
    python -m repro features EX68
    python -m repro train EX00 EX68 --samples 20 --model delay.json
    python -m repro predict EX68 --model delay.json --ppa
    python -m repro flow EX68 --flow ml --model delay.json --iterations 30
    python -m repro convert design.aag --bench design.bench --dot design.dot

Design arguments accept either a registered benchmark name (EX00…EX68,
``mult``) or a path to an AIGER (ASCII ``.aag`` / binary ``.aig``), BENCH, or
BLIF file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.api import OptimizeRequest, SynthesisSession, default_session
from repro.api.session import load_design
from repro.campaign import (
    DEFAULT_QUARANTINE_AFTER,
    CampaignSpec,
    campaign_report,
    campaign_status,
    diff_stores,
    merge_store,
    open_store,
    requeue_cells,
    run_campaign,
)
from repro.designs.registry import ALL_DESIGNS
from repro.errors import ReproError
from repro.features.extract import FeatureExtractor
from repro.io.aiger import write_aag
from repro.io.aiger_binary import write_aig_binary
from repro.io.bench import write_bench
from repro.io.blif import write_blif
from repro.io.dot import write_aig_dot
from repro.io.verilog import write_aig_verilog, write_mapped_verilog
from repro.sta.report import format_cell_usage, format_timing_report
from repro.transforms.scripts import NAMED_SCRIPTS


def _session() -> SynthesisSession:
    """The shared session every CLI command runs against."""
    return default_session()


def _cmd_stats(args: argparse.Namespace) -> int:
    session = _session()
    aig = session.load_design(args.design)
    stats = aig.stats()
    print(f"design   : {stats.name}")
    print(f"inputs   : {stats.num_pis}")
    print(f"outputs  : {stats.num_pos}")
    print(f"and nodes: {stats.num_ands}")
    print(f"depth    : {stats.depth}")
    if args.ppa:
        result = session.evaluate(aig)
        print(f"mapped gates     : {result.num_gates}")
        print(f"post-map delay   : {result.delay_ps:.1f} ps")
        print(f"post-map area    : {result.area_um2:.1f} um^2")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    session = _session()
    aig = session.load_design(args.design)
    before = aig.stats()
    result = session.transform(aig, args.script, verify=args.verify)
    after = result.final_stats
    print(result.summary())
    print(
        f"total: ands {before.num_ands} -> {after.num_ands}, "
        f"depth {before.depth} -> {after.depth}"
    )
    if args.output:
        write_aag(result.aig, args.output)
        print(f"wrote optimized AIG to {args.output}")
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    result = _session().map(args.design)
    print(format_timing_report(result.netlist, result.timing))
    print()
    print(format_cell_usage(result.netlist))
    if args.verilog:
        write_mapped_verilog(result.netlist, args.verilog)
        print(f"\nwrote mapped Verilog to {args.verilog}")
    return 0


def _cmd_features(args: argparse.Namespace) -> int:
    aig = load_design(args.design)
    extractor = FeatureExtractor()
    for name, value in extractor.extract_dict(aig).items():
        print(f"{name:42s} {value:14.4f}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    aig = load_design(args.design)
    wrote = False
    if args.aag:
        write_aag(aig, args.aag)
        print(f"wrote {args.aag}")
        wrote = True
    if args.aig:
        write_aig_binary(aig, args.aig)
        print(f"wrote {args.aig}")
        wrote = True
    if args.bench:
        write_bench(aig, args.bench)
        print(f"wrote {args.bench}")
        wrote = True
    if args.blif:
        write_blif(aig, args.blif)
        print(f"wrote {args.blif}")
        wrote = True
    if args.verilog:
        write_aig_verilog(aig, args.verilog)
        print(f"wrote {args.verilog}")
        wrote = True
    if args.dot:
        write_aig_dot(aig, args.dot)
        print(f"wrote {args.dot}")
        wrote = True
    if not wrote:
        print(
            "nothing to do: pass at least one of "
            "--aag/--aig/--bench/--blif/--verilog/--dot"
        )
        return 1
    return 0


def _cmd_postopt(args: argparse.Namespace) -> int:
    from repro.mapping.mapper import TechnologyMapper
    from repro.mapping.postopt import PostMappingOptimizer, PostOptOptions

    session = _session()
    aig = session.load_design(args.design)
    library = session.library
    netlist = TechnologyMapper(library).map(aig)
    options = PostOptOptions(
        enable_sizing=not args.no_sizing,
        enable_area_recovery=not args.no_area_recovery,
        enable_buffering=not args.no_buffering,
        max_passes=args.passes,
    )
    optimized, report = PostMappingOptimizer(library, options).optimize(netlist)
    print(f"design            : {aig.name} ({netlist.num_gates} gates mapped)")
    print(f"delay before      : {report.delay_before_ps:.1f} ps")
    print(f"delay after       : {report.delay_after_ps:.1f} ps "
          f"({report.delay_improvement_percent:+.2f}% better)")
    print(f"area before       : {report.area_before_um2:.1f} um^2")
    print(f"area after        : {report.area_after_um2:.1f} um^2 "
          f"({report.area_change_percent:+.2f}%)")
    print(f"upsized gates     : {report.upsized_gates}")
    print(f"downsized gates   : {report.downsized_gates}")
    print(f"buffers inserted  : {report.buffers_inserted}")
    if args.verilog:
        write_mapped_verilog(optimized, args.verilog)
        print(f"wrote optimized mapped Verilog to {args.verilog}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.ml.gbdt import GbdtParams
    from repro.ml.model_io import save_gbdt

    result = _session().train_model(
        args.designs,
        samples=args.samples,
        target=args.target,
        seed=args.seed,
        params=GbdtParams(
            n_estimators=args.estimators,
            learning_rate=args.learning_rate,
            max_depth=args.max_depth,
        ),
    )
    for name, corpus in result.corpora.items():
        print(f"labelled {len(corpus.aigs)} variants of {name}")
    print(
        f"training fit ({args.target}): mean %err "
        f"{result.mean_fit_error_percent:.2f}, max {result.max_fit_error_percent:.2f}"
    )
    save_gbdt(result.model, args.model)
    print(f"wrote model to {args.model}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    session = _session()
    aig = session.load_design(args.design)
    predicted = session.predict(aig, args.model)
    print(f"predicted post-mapping delay = {predicted:.1f} ps")
    if args.ppa:
        result = session.evaluate(aig)
        error = abs(predicted - result.delay_ps) / result.delay_ps * 100.0
        print(f"ground-truth delay           = {result.delay_ps:.1f} ps  (error {error:.2f}%)")
        print(f"ground-truth area            = {result.area_um2:.1f} um^2")
    return 0


def _cmd_flow(args: argparse.Namespace) -> int:
    if args.flow in ("ml", "hybrid") and not args.model:
        print("error: --model is required for the ml and hybrid flows", file=sys.stderr)
        return 2
    if args.evaluator is None:
        # Default: the shared session (cached ground-truth evaluation).
        session = _session()
    else:
        session = SynthesisSession(evaluator_kind=args.evaluator)
    needs_model = args.flow in ("ml", "hybrid")
    result = session.optimize(
        OptimizeRequest(
            design=args.design,
            flow=args.flow,
            iterations=args.iterations,
            delay_weight=args.delay_weight,
            area_weight=args.area_weight,
            seed=args.seed,
            delay_model=args.model if needs_model else None,
            validate_every=args.validate_every,
        )
    )
    initial = result.initial
    print(f"flow               : {result.flow}")
    print(f"iterations         : {args.iterations}")
    print(f"initial delay/area : {initial.delay_ps:.1f} ps / {initial.area_um2:.1f} um^2")
    print(f"final   delay/area : {result.delay_ps:.1f} ps / {result.area_um2:.1f} um^2")
    print(f"accepted moves     : {result.annealing.accepted_moves}")
    print(f"runtime            : {result.annealing.runtime_seconds:.2f} s")
    flow = result.flow_instance
    last_cost = getattr(flow, "last_cost", None)
    if args.flow == "hybrid" and last_cost is not None:
        summary = last_cost.validation_summary()
        print(
            f"hybrid validation  : {summary.checks} checks, "
            f"mean %err {summary.mean_delay_error_percent:.2f}, "
            f"correction {summary.final_correction:.3f}"
        )
    if args.output:
        write_aag(result.best_aig, args.output)
        print(f"wrote optimized AIG to {args.output}")
    return 0


def _campaign_spec(args: argparse.Namespace) -> CampaignSpec:
    return CampaignSpec(
        designs=tuple(args.designs),
        flows=tuple(args.flows),
        optimizers=tuple(args.optimizers),
        evaluators=tuple(args.evaluators),
        seeds=tuple(args.seeds),
        iterations=args.iterations,
        delay_weight=args.delay_weight,
        area_weight=args.area_weight,
        delay_model=str(args.model) if args.model else None,
        area_model=str(args.area_model) if args.area_model else None,
    )


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    spec = _campaign_spec(args)
    store = open_store(args.store, shard=args.shard)

    def progress(record) -> None:
        status = record.get("status")
        label = f"cell {record['cell_id']}"
        if status == "ok":
            print(f"{label}: ok ({record.get('cell_seconds', 0.0):.2f}s)")
        else:
            print(f"{label}: FAILED — {record.get('error')}")

    summary = run_campaign(
        spec,
        store,
        max_workers=args.workers,
        on_record=progress,
        scheduler=args.scheduler,
        timeout_s=args.timeout,
        retries=args.retries,
        lease_ttl_s=args.lease_ttl,
        quarantine_after=args.quarantine_after,
        warm_start=not args.no_warm_start,
    )
    extras = ""
    if summary.recovered:
        extras += f", {summary.recovered} recovered from journal"
    if summary.quarantined:
        extras += f", {len(summary.quarantined)} quarantined"
    print(
        f"campaign: {summary.total} cells, {summary.skipped} already done, "
        f"{summary.executed} executed, {len(summary.failed)} failed{extras}"
    )
    for cell_id in summary.quarantined:
        print(f"  quarantined {cell_id} (repro campaign requeue to re-arm)")
    print(f"store: {store.path}")
    return 0 if summary.ok else 1


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    store = open_store(args.store)
    if args.designs:
        status = campaign_status(_campaign_spec(args), store)
        print(f"total cells : {status.total}")
        print(f"completed   : {status.completed}")
        print(f"failed      : {status.failed}")
        print(f"pending     : {status.pending}")
        if status.quarantined:
            print(f"quarantined : {status.quarantined}")
        if status.pending and args.verbose:
            for cell_id in status.pending_ids:
                print(f"  pending {cell_id}")
        for cell_id in status.quarantined_ids:
            print(f"  quarantined {cell_id} (repro campaign requeue to re-arm)")
        return 0 if status.done else 1
    from repro.campaign import quarantine_markers

    latest = store.latest()
    ok = sum(1 for record in latest.values() if record.get("status") == "ok")
    quarantined = quarantine_markers(store)
    print(f"records     : {len(store)} ({len(latest)} distinct cells)")
    print(f"completed   : {ok}")
    print(f"failed      : {len(latest) - ok}")
    if quarantined:
        print(f"quarantined : {len(quarantined)}")
        for record in quarantined:
            print(
                f"  quarantined {record['cell_id']} "
                f"({record.get('failed_attempts', '?')} failed attempts)"
            )
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    store = open_store(args.store)
    if len(store) == 0:
        print(f"error: store {args.store} is empty or missing", file=sys.stderr)
        return 2
    if args.baseline is not None:
        baseline = open_store(args.baseline)
        if len(baseline) == 0:
            print(
                f"error: baseline store {args.baseline} is empty or missing",
                file=sys.stderr,
            )
            return 2
        diff = diff_stores(store, baseline, tolerance_percent=args.tolerance)
        print(diff.format_report())
        return 0 if diff.ok else 1
    print(campaign_report(store).format_report())
    return 0


def _cmd_campaign_requeue(args: argparse.Namespace) -> int:
    store = open_store(args.store, shard=args.shard)
    if not args.all and not args.cell:
        print("error: pass --cell ID (repeatable) or --all", file=sys.stderr)
        return 2
    cleared = requeue_cells(
        store,
        cell_ids=None if args.all else args.cell,
        threshold=args.quarantine_after,
    )
    if not cleared:
        print("no quarantined cells matched; nothing requeued")
        return 0
    for cell_id in cleared:
        print(f"requeued {cell_id}")
    print(f"{len(cleared)} cell(s) will run again on the next campaign run")
    return 0


def _cmd_campaign_merge(args: argparse.Namespace) -> int:
    source = open_store(args.store)
    if len(source) == 0:
        print(f"error: store {args.store} is empty or missing", file=sys.stderr)
        return 2
    merged = merge_store(source, args.output)
    print(f"merged {len(source)} records into {len(merged)} cells: {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import create_service

    overrides = {
        "host": args.host,
        "port": args.port,
        "workers": args.workers,
        "store": str(args.store) if args.store else None,
        "max_queue": args.max_queue,
        "max_budget": args.max_budget,
        "retries": args.retries,
    }
    if args.timeout is not None:
        overrides["timeout_s"] = args.timeout
    service = create_service(**overrides)
    # Machine-parsable boot lines: tests and scripts read the bound URL.
    print(f"repro service listening on {service.url}", flush=True)
    print(f"repro service store: {service.manager.store_dir}", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # The lint tool owns its full argument surface (it is also runnable as
    # ``python -m repro.devtools.lint.cli``); forward everything verbatim.
    from repro.devtools.lint.cli import main as lint_main

    return lint_main(args.lint_args)


def _add_campaign_matrix_args(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument(
        "--designs",
        nargs="+",
        required=required,
        default=None if required else [],
        help="registry names (EX00…EX68, mult) and/or .aag/.aig/.bench/.blif/.v files",
    )
    parser.add_argument("--flows", nargs="+", default=["baseline"])
    parser.add_argument(
        "--optimizers", nargs="+", default=["sa"], help="any of: sa, greedy, genetic"
    )
    parser.add_argument("--evaluators", nargs="+", default=["cached"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--iterations", type=int, default=12)
    parser.add_argument("--delay-weight", type=float, default=1.0)
    parser.add_argument("--area-weight", type=float, default=1.0)
    parser.add_argument("--model", type=Path, help="delay model JSON (ml/hybrid flows)")
    parser.add_argument("--area-model", type=Path, help="area model JSON")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AIG logic optimization with ML-based timing prediction",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    stats = subparsers.add_parser("stats", help="print AIG statistics")
    stats.add_argument("design", help=f"design name ({', '.join(ALL_DESIGNS)}, mult) or file")
    stats.add_argument("--ppa", action="store_true", help="also run mapping + STA")
    stats.set_defaults(handler=_cmd_stats)

    optimize = subparsers.add_parser("optimize", help="apply a transformation script")
    optimize.add_argument("design")
    optimize.add_argument(
        "--script", default="compress2", help=f"script name {sorted(NAMED_SCRIPTS)} or primitive"
    )
    optimize.add_argument("--verify", action="store_true", help="check equivalence per step")
    optimize.add_argument("--output", type=Path, help="write the optimized AIG (AIGER)")
    optimize.set_defaults(handler=_cmd_optimize)

    map_cmd = subparsers.add_parser("map", help="technology-map a design and run STA")
    map_cmd.add_argument("design")
    map_cmd.add_argument("--verilog", type=Path, help="write the mapped netlist as Verilog")
    map_cmd.set_defaults(handler=_cmd_map)

    features = subparsers.add_parser("features", help="print the Table II feature vector")
    features.add_argument("design")
    features.set_defaults(handler=_cmd_features)

    convert = subparsers.add_parser("convert", help="convert between circuit formats")
    convert.add_argument("design")
    convert.add_argument("--aag", type=Path)
    convert.add_argument("--aig", type=Path, help="binary AIGER output")
    convert.add_argument("--bench", type=Path)
    convert.add_argument("--blif", type=Path)
    convert.add_argument("--verilog", type=Path)
    convert.add_argument("--dot", type=Path, help="Graphviz DOT output")
    convert.set_defaults(handler=_cmd_convert)

    postopt = subparsers.add_parser(
        "postopt", help="map a design and run post-mapping sizing/buffering"
    )
    postopt.add_argument("design")
    postopt.add_argument("--passes", type=int, default=3)
    postopt.add_argument("--no-sizing", action="store_true")
    postopt.add_argument("--no-area-recovery", action="store_true")
    postopt.add_argument("--no-buffering", action="store_true")
    postopt.add_argument("--verilog", type=Path, help="write the optimized mapped Verilog")
    postopt.set_defaults(handler=_cmd_postopt)

    train = subparsers.add_parser(
        "train", help="train a delay/area predictor on design variants"
    )
    train.add_argument("designs", nargs="+", help="design names or circuit files")
    train.add_argument("--model", type=Path, required=True, help="output model JSON path")
    train.add_argument("--target", choices=("delay", "area"), default="delay")
    train.add_argument("--samples", type=int, default=30, help="variants per design")
    train.add_argument("--estimators", type=int, default=250)
    train.add_argument("--learning-rate", type=float, default=0.06)
    train.add_argument("--max-depth", type=int, default=6)
    train.add_argument("--seed", type=int, default=2025)
    train.set_defaults(handler=_cmd_train)

    predict = subparsers.add_parser(
        "predict", help="predict post-mapping delay with a trained model"
    )
    predict.add_argument("design")
    predict.add_argument("--model", type=Path, required=True, help="model JSON from 'train'")
    predict.add_argument("--ppa", action="store_true", help="also run mapping + STA to compare")
    predict.set_defaults(handler=_cmd_predict)

    flow = subparsers.add_parser(
        "flow", help="run a simulated-annealing optimization flow"
    )
    flow.add_argument("design")
    flow.add_argument(
        "--flow",
        choices=("baseline", "ground-truth", "ml", "hybrid"),
        default="baseline",
        dest="flow",
    )
    flow.add_argument("--model", type=Path, help="trained delay model (ml / hybrid flows)")
    flow.add_argument(
        "--evaluator",
        choices=("ground-truth", "cached", "parallel", "incremental"),
        default=None,
        help="PPA evaluation strategy (default: the shared cached evaluator); "
        "'incremental' is an alias of 'cached'",
    )
    flow.add_argument("--iterations", type=int, default=30)
    flow.add_argument("--delay-weight", type=float, default=1.0)
    flow.add_argument("--area-weight", type=float, default=1.0)
    flow.add_argument("--validate-every", type=int, default=10, help="hybrid flow only")
    flow.add_argument("--seed", type=int, default=1)
    flow.add_argument("--output", type=Path, help="write the best AIG (AIGER)")
    flow.set_defaults(handler=_cmd_flow)

    campaign = subparsers.add_parser(
        "campaign",
        help="resumable suite runs: designs × flows × optimizers × seeds",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    campaign_run = campaign_sub.add_parser(
        "run", help="run (or resume) a campaign against a JSONL result store"
    )
    campaign_run.add_argument(
        "--store",
        type=Path,
        required=True,
        help="result store: a .jsonl file (single writer) or a directory "
        "(sharded, one file per writer — several machines can share it)",
    )
    _add_campaign_matrix_args(campaign_run, required=True)
    campaign_run.add_argument(
        "--workers", type=int, default=1, help="process-pool size (1 = in-process)"
    )
    campaign_run.add_argument(
        "--scheduler",
        choices=("matrix", "cost"),
        default="matrix",
        help="cell submission order: legacy matrix order, or slowest "
        "expected cost first (refined from observed runtimes in the store)",
    )
    campaign_run.add_argument(
        "--shard",
        default=None,
        help="writer name inside a sharded store directory "
        "(default: <hostname>-<pid>)",
    )
    campaign_run.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-cell timeout in seconds (a timed-out cell records an "
        "error result and frees its worker slot; default: no timeout)",
    )
    campaign_run.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-run a failed cell this many times with backoff before "
        "its error record is final",
    )
    campaign_run.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        help="claim cells via TTL'd leases (seconds) before executing, so "
        "concurrent writers on one sharded store never duplicate work and "
        "a dead writer's cells are stolen after the TTL (sharded stores "
        "only; default: no leases)",
    )
    campaign_run.add_argument(
        "--quarantine-after",
        type=int,
        default=None,
        help="quarantine a cell after this many failed attempts across all "
        "writers (timeouts and writer crashes count); quarantined cells "
        "are skipped until 'campaign requeue' (default: never)",
    )
    campaign_run.add_argument(
        "--no-warm-start",
        action="store_true",
        help="disable the warm-start sidecars next to the store (PPA cache "
        "snapshots seeded into worker sessions on resume, and observed "
        "runtime calibration for the cost scheduler); results are "
        "identical either way, cold resumes just recompute more",
    )
    campaign_run.set_defaults(handler=_cmd_campaign_run)

    campaign_status_p = campaign_sub.add_parser(
        "status", help="progress of a store (vs a matrix when --designs is given)"
    )
    campaign_status_p.add_argument("--store", type=Path, required=True)
    campaign_status_p.add_argument(
        "--verbose", action="store_true", help="list pending cell ids"
    )
    _add_campaign_matrix_args(campaign_status_p, required=False)
    campaign_status_p.set_defaults(handler=_cmd_campaign_status)

    campaign_report_p = campaign_sub.add_parser(
        "report", help="aggregate a store into a suite report (or diff two stores)"
    )
    campaign_report_p.add_argument("--store", type=Path, required=True)
    campaign_report_p.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline store to diff against, with per-cell regressions "
        "highlighted (single-file or sharded; exit code 1 on regressions)",
    )
    campaign_report_p.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="regression tolerance in percent for --baseline diffs",
    )
    campaign_report_p.set_defaults(handler=_cmd_campaign_report)

    campaign_requeue = campaign_sub.add_parser(
        "requeue",
        help="clear quarantined poison cells so the next run retries them",
    )
    campaign_requeue.add_argument(
        "--store", type=Path, required=True, help="result store (file or shard dir)"
    )
    campaign_requeue.add_argument(
        "--cell",
        action="append",
        default=[],
        metavar="ID",
        help="requeue this cell id (repeatable)",
    )
    campaign_requeue.add_argument(
        "--all", action="store_true", help="requeue every quarantined cell"
    )
    campaign_requeue.add_argument(
        "--quarantine-after",
        type=int,
        default=DEFAULT_QUARANTINE_AFTER,
        help="failure threshold the quarantine was derived with "
        f"(default {DEFAULT_QUARANTINE_AFTER})",
    )
    campaign_requeue.add_argument(
        "--shard",
        default=None,
        help="writer name for the requeue markers in a sharded store "
        "(default: <hostname>-<pid>)",
    )
    campaign_requeue.set_defaults(handler=_cmd_campaign_requeue)

    campaign_merge = campaign_sub.add_parser(
        "merge",
        help="compact a store (e.g. a shard directory) into one canonical "
        "JSONL file, latest record per cell, sorted by cell id",
    )
    campaign_merge.add_argument(
        "--store", type=Path, required=True, help="source store (file or shard dir)"
    )
    campaign_merge.add_argument(
        "--output", type=Path, required=True, help="merged single-file store to write"
    )
    campaign_merge.set_defaults(handler=_cmd_campaign_merge)

    serve = subparsers.add_parser(
        "serve",
        help="run the synthesis job service (HTTP, campaign engine backend)",
    )
    serve.add_argument("--host", default=None, help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=None, help="bind port; 0 picks a free port"
    )
    serve.add_argument(
        "--workers", type=int, default=None, help="background worker threads"
    )
    serve.add_argument(
        "--store",
        type=Path,
        default=None,
        help="job store directory (journal + results + uploads); jobs "
        "resume from it after a crash or restart",
    )
    serve.add_argument(
        "--max-queue", type=int, default=None, help="unfinished-job cap before 429"
    )
    serve.add_argument(
        "--max-budget",
        type=int,
        default=None,
        help="per-job optimizer iteration cap (over-budget submissions are "
        "rejected at submit time)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None, help="per-job cell timeout in seconds"
    )
    serve.add_argument(
        "--retries", type=int, default=None, help="per-job retry count on failure"
    )
    serve.set_defaults(handler=_cmd_serve)

    lint = subparsers.add_parser(
        "lint",
        help="static analysis: determinism & concurrency invariants "
        "(rules D1-D5, C1-C3; see `repro lint --list-rules`)",
        add_help=False,
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER)
    lint.set_defaults(handler=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = list(sys.argv[1:]) if argv is None else list(argv)
    if arguments[:1] == ["lint"]:
        # Dispatch before argparse: the lint tool owns its own option
        # surface, and argparse's REMAINDER refuses leading option strings.
        from repro.devtools.lint.cli import main as lint_main

        return lint_main(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
