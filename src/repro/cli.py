"""Command line interface: ``pcie-bench``.

Mirrors the role of the paper's user-space control programs (§5.4): run
individual micro-benchmarks, full experiment drivers, or the entire suite,
and emit text tables, ASCII plots or machine-readable results.

Examples::

    pcie-bench model --sizes 64 256 1024
    pcie-bench run BW_RD --size 64 --window 8K --system NFP6000-HSW
    pcie-bench nicsim --model dpdk --workload imix --load 24
    pcie-bench nicsim --model all --size 64 --compare-analytic
    pcie-bench nicsim --model dpdk --workload imix --load 24 \\
        --system NFP6000-BDW --iommu --host-window 16M
    pcie-bench nicsim --model dpdk --workload imix --queues 4 --rss zipf \\
        --dma-tags 16
    pcie-bench contend --iommu --arbiter wrr --weights 8:1 --solo-baseline
    pcie-bench contend --device name=victim,model=dpdk,load=5 \\
        --device name=aggressor,workload=imix --iommu --arbiter rr
    pcie-bench contend --iommu --topology victim=root,aggressor=sw0,sw0=root
    pcie-bench contend --iommu --arbiter sliced --quantum 16 --weights 8:1
    pcie-bench contend --iommu --ddio-partition 3:1
    pcie-bench contend --iommu --trace --trace-out trace.json
    pcie-bench nicsim --model dpdk --dma-tags 16 --trace
    pcie-bench fleet --hosts 4 --engine-profile
    pcie-bench experiment figure-10-contention
    pcie-bench experiment figure-11-topology
    pcie-bench experiment figure-8-sim
    pcie-bench experiment figure-7-9-sim
    pcie-bench experiment figure-9
    pcie-bench suite --jobs 4 --output results.json
    pcie-bench report --output EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .analysis.ascii_plot import ascii_plot
from .analysis.attribution import attribute_spans, format_attribution_summary
from .analysis.contention import format_contention_summary
from .analysis.control import format_control_summary
from .analysis.fleet import format_fleet_summary
from .analysis.report import summary_line, write_experiments_markdown
from .analysis.table import format_nicsim_summary, format_series_table, format_table
from .bench.contention import (
    ContentionParams,
    noisy_neighbour_pair,
    run_contention_benchmark,
    solo_device_params,
)
from .bench.fleet import FleetParams, run_fleet_benchmark
from .bench.nicsim import NicSimParams, cross_validate, run_nicsim_benchmark
from .bench.params import BenchmarkKind, BenchmarkParams
from .bench.results import save_results_json
from .bench.runner import BenchmarkRunner, full_suite_params
from .fleet import LOAD_PROFILES, PLACEMENT_POLICIES
from .core.model import PCIeModel
from .core.nic import FIGURE1_MODELS, model_by_name
from .errors import ReproError, UsageError, ValidationError
from .experiments.registry import experiment_ids, run_all, run_experiment
from .control import CONTROL_POLICIES
from .obs import DEFAULT_CAPACITY, Tracer
from .sim.engine import ARBITER_SCHEMES, MODES
from .sim.profiles import profile_names
from .units import parse_size
from .workloads import flow_model_names, workload_names


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``pcie-bench`` command."""
    parser = argparse.ArgumentParser(
        prog="pcie-bench",
        description="PCIe performance model, simulator and micro-benchmarks "
        "(SIGCOMM 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    model = sub.add_parser("model", help="evaluate the analytical PCIe model")
    model.add_argument("--sizes", nargs="+", type=int, default=[64, 128, 256, 512, 1024, 1500])
    model.add_argument("--preset", default="gen3x8", help="PCIe configuration preset")
    model.add_argument("--plot", action="store_true", help="render an ASCII plot")

    run = sub.add_parser("run", help="run a single micro-benchmark")
    run.add_argument("kind", choices=[kind.value for kind in BenchmarkKind])
    run.add_argument("--size", type=int, default=64, help="transfer size in bytes")
    run.add_argument("--window", default="8K", help="window size (e.g. 8K, 64M)")
    run.add_argument("--system", default="NFP6000-HSW", choices=profile_names())
    run.add_argument("--cache", default="host_warm", choices=["cold", "host_warm", "device_warm"])
    run.add_argument("--placement", default="local", choices=["local", "remote"])
    run.add_argument("--iommu", action="store_true", help="enable the IOMMU")
    run.add_argument("--transactions", type=int, default=None)

    nicsim = sub.add_parser(
        "nicsim", help="packet-level NIC datapath simulation under a traffic workload"
    )
    nicsim.add_argument(
        "--model",
        default="dpdk",
        help="NIC/driver model: simple, kernel, dpdk, all, or a full name",
    )
    nicsim.add_argument("--workload", default="fixed", choices=workload_names())
    nicsim.add_argument(
        "--size", type=int, default=1024,
        help="packet size in bytes (fixed-size workload families)",
    )
    nicsim.add_argument(
        "--load", type=float, default=None,
        help="offered load per direction in Gb/s (default: saturating)",
    )
    nicsim.add_argument("--packets", type=int, default=4000, help="packets per direction")
    nicsim.add_argument("--ring-depth", type=int, default=512)
    nicsim.add_argument(
        "--queues", type=int, default=1,
        help="TX/RX ring pairs per device (RSS flow steering when > 1)",
    )
    nicsim.add_argument(
        "--dma-tags", type=int, default=None,
        help="bounded in-flight DMA tag pool size (default: unbounded)",
    )
    nicsim.add_argument(
        "--rss", default="uniform", choices=flow_model_names(),
        help="flow scenario steering a multi-queue run: uniform spread, "
        "Zipf-skewed popularity, or a single hot flow",
    )
    nicsim.add_argument(
        "--unidirectional", action="store_true", help="TX-only traffic"
    )
    nicsim.add_argument(
        "--system", default=None, choices=profile_names(),
        help="couple the datapath to this Table 1 host model "
        "(default: link-only datapath with a flat host latency)",
    )
    nicsim.add_argument(
        "--iommu", action="store_true",
        help="translate DMA addresses through the host's IOMMU "
        "(requires --system)",
    )
    nicsim.add_argument(
        "--iommu-pagesize", default="4K",
        help="IOVA page size: 4K (sp_off), 2M or 1G super-pages",
    )
    nicsim.add_argument(
        "--host-window", default="4M",
        help="payload-buffer working set (e.g. 256K, 16M); drives cache "
        "and IOTLB pressure",
    )
    nicsim.add_argument(
        "--host-cache", default="host_warm",
        choices=["cold", "host_warm", "device_warm"],
        help="cache preparation state of the payload window",
    )
    nicsim.add_argument(
        "--placement", default="local", choices=["local", "remote"],
        help="NUMA placement of the payload buffers (requires --system "
        "with a two-socket profile)",
    )
    nicsim.add_argument(
        "--mode", default="exact", choices=MODES,
        help="engine: exact (scalar event loop, the golden-verified "
        "default) or batch (vectorised solver with automatic scalar "
        "fallback)",
    )
    nicsim.add_argument("--seed", type=int, default=None)
    nicsim.add_argument(
        "--compare-analytic",
        action="store_true",
        help="also cross-validate against the analytic NIC model "
        "(fixed-size workloads)",
    )
    nicsim.add_argument(
        "--profile", action="store_true",
        help="report engine throughput (events/s) and per-phase wall "
        "time (build / events / stats) for every run",
    )
    _add_trace_flags(nicsim)

    contend = sub.add_parser(
        "contend",
        help="multi-device shared-host contention run (noisy-neighbour study)",
    )
    contend.add_argument(
        "--device",
        action="append",
        default=None,
        metavar="KEY=VALUE[,KEY=VALUE...]",
        help="add one device; keys: name, model, workload, size, load, "
        "packets, ring-depth, queues, dma-tags, rss, window, cache, seed "
        "(repeat per device; default: a latency-sensitive victim plus a "
        "bulk IMIX aggressor)",
    )
    contend.add_argument(
        "--system", default="NFP6000-HSW", choices=profile_names(),
        help="Table 1 profile of the shared host",
    )
    contend.add_argument(
        "--iommu", action="store_true",
        help="translate every device's DMAs through the shared IOMMU",
    )
    contend.add_argument(
        "--iommu-pagesize", default="4K",
        help="IOVA page size: 4K (sp_off), 2M or 1G super-pages",
    )
    contend.add_argument(
        "--arbiter", default="fcfs", choices=list(ARBITER_SCHEMES),
        help="arbitration at every fabric node: fcfs (no arbitration), rr "
        "(round-robin), wrr (weighted), age (weighted aging) or sliced "
        "(preemptible wrr quanta)",
    )
    contend.add_argument(
        "--weights", default=None,
        help="per-device weights for wrr/age/sliced, colon-separated "
        "(e.g. 8:1)",
    )
    contend.add_argument(
        "--topology", default=None,
        metavar="CHILD=PARENT[,...]",
        help="fabric tree: device and switch attachments, e.g. "
        "'victim=root,aggressor=sw0,sw0=root' (default: every device "
        "directly on the root port)",
    )
    contend.add_argument(
        "--quantum", type=float, default=None, metavar="NS",
        help="service quantum of the sliced arbiter in ns "
        "(default: the engine's quantum)",
    )
    contend.add_argument(
        "--ddio-partition", default=None, nargs="?", const="equal",
        metavar="SHARES",
        help="give each device a private slice of the DDIO/LLC capacity: "
        "'equal' (the bare flag) or colon-separated shares (e.g. 3:1); "
        "default: one shared aggregate residency",
    )
    contend.add_argument(
        "--cache-model", default="statistical",
        choices=["statistical", "faithful"],
        help="cache substrate: the fast statistical occupancy model, or "
        "the line-accurate set-associative cache (real per-owner DDIO "
        "way budgets with --ddio-partition; slow to warm beyond a few "
        "MiB of window)",
    )
    contend.add_argument(
        "--controller", default="static", choices=list(CONTROL_POLICIES),
        help="closed-loop control policy retuning the QoS knobs mid-run: "
        "static (no control plane), threshold (reactive with hysteresis) "
        "or aimd (additive-increase / multiplicative-decrease)",
    )
    contend.add_argument(
        "--control-window", type=float, default=None, metavar="NS",
        help="controller observation window in simulated ns "
        "(default: the control plane's default window)",
    )
    contend.add_argument(
        "--mode", default="exact", choices=MODES,
        help="engine: exact (default) or batch (falls back to exact — "
        "fabric runs always couple the host)",
    )
    contend.add_argument("--seed", type=int, default=None)
    contend.add_argument(
        "--solo-baseline", action="store_true",
        help="also run every device alone and report slowdowns + the Jain "
        "fairness index",
    )
    contend.add_argument(
        "--detail", action="store_true",
        help="additionally print the full per-device datapath tables",
    )
    contend.add_argument(
        "--profile", action="store_true",
        help="report engine throughput (events/s) and per-phase wall "
        "time (build / events / stats) for every run",
    )
    _add_trace_flags(contend)

    fleet = sub.add_parser(
        "fleet",
        help="rack-scale fleet run: N shared hosts, streamed O(1)-memory "
        "statistics, SLO scorecard",
    )
    fleet.add_argument(
        "--hosts", type=int, default=8, help="number of shared hosts in the rack"
    )
    fleet.add_argument(
        "--placement", default="spread", choices=list(PLACEMENT_POLICIES),
        help="tenant placement: spread round-robin, or pack onto half the rack",
    )
    fleet.add_argument(
        "--tenants", type=int, default=16, help="tenant population size"
    )
    fleet.add_argument(
        "--skew", type=float, default=1.2,
        help="Zipf exponent of the tenant demand distribution (0 = uniform)",
    )
    fleet.add_argument(
        "--profile", default="flat", choices=list(LOAD_PROFILES),
        help="fleet load curve: flat steady state, diurnal cycle, or a "
        "flash crowd on the most popular tenant's host",
    )
    fleet.add_argument(
        "--rack-load", type=float, default=240.0,
        help="nominal aggressor load of the whole rack in Gb/s, split by "
        "tenant demand share",
    )
    fleet.add_argument(
        "--system", default="NFP6000-HSW", choices=profile_names(),
        help="Table 1 profile every host runs",
    )
    fleet.add_argument(
        "--arbiter", default="fcfs", choices=list(ARBITER_SCHEMES),
        help="arbitration scheme at every host's fabric nodes",
    )
    fleet.add_argument(
        "--victim-packets", type=int, default=400,
        help="packets per direction for each host's victim device",
    )
    fleet.add_argument(
        "--aggressor-packets", type=int, default=2400,
        help="packets per direction for each aggressor device",
    )
    fleet.add_argument(
        "--jobs", type=int, default=None,
        help="shard hosts over N worker processes (results bit-identical "
        "to serial)",
    )
    fleet.add_argument(
        "--threshold", type=float, action="append", default=None,
        metavar="NS",
        help="SLO threshold in ns for the scorecard (repeatable; default: "
        "thresholds spanning the rack's p99 spread)",
    )
    fleet.add_argument(
        "--output", default=None, help="write the JSON fleet record to this path"
    )
    fleet.add_argument(
        "--engine-profile", action="store_true",
        help="report engine throughput (events/s) and per-phase wall "
        "time for every host run; note --profile on this subcommand "
        "selects the fleet *load* profile, not engine profiling",
    )
    fleet.add_argument("--seed", type=int, default=None)

    experiment = sub.add_parser("experiment", help="run one figure/table experiment")
    experiment.add_argument("id", choices=experiment_ids())
    experiment.add_argument("--full", action="store_true", help="use full sample counts")
    experiment.add_argument("--plot", action="store_true", help="render an ASCII plot")

    suite = sub.add_parser("suite", help="run a scaled-down full pcie-bench suite")
    suite.add_argument("--system", default="NFP6000-HSW", choices=profile_names())
    suite.add_argument("--output", default=None, help="write JSON results to this path")
    suite.add_argument(
        "--jobs", type=int, default=None,
        help="run the suite over N worker processes (results identical to serial)",
    )
    suite.add_argument(
        "--contention", action="store_true",
        help="include the shared-host contention scenarios in the suite",
    )

    report = sub.add_parser("report", help="run all experiments and write EXPERIMENTS.md")
    report.add_argument("--output", default="EXPERIMENTS.md")
    report.add_argument("--full", action="store_true", help="use full sample counts")

    sub.add_parser("systems", help="list the modelled Table 1 systems")
    return parser


def _add_trace_flags(sub: argparse.ArgumentParser) -> None:
    """Attach the shared transaction-tracing flags to a subcommand."""
    sub.add_argument(
        "--trace", action="store_true",
        help="record one span per packet lifecycle stage and print a "
        "latency-attribution summary",
    )
    sub.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the span trace to PATH: Chrome trace-event JSON "
        "(load at ui.perfetto.dev) or JSONL when PATH ends in .jsonl "
        "(implies --trace)",
    )
    sub.add_argument(
        "--trace-limit", type=int, default=None, metavar="N",
        help="flight-recorder capacity in spans; the oldest spans are "
        f"evicted beyond it (default: {DEFAULT_CAPACITY})",
    )


def _build_tracer(args: argparse.Namespace) -> Tracer | None:
    """The tracer a ``--trace``/``--trace-out`` invocation asked for."""
    if not (args.trace or args.trace_out):
        if args.trace_limit is not None:
            raise UsageError(
                "--trace-limit has no effect without --trace or --trace-out"
            )
        return None
    capacity = (
        DEFAULT_CAPACITY if args.trace_limit is None else args.trace_limit
    )
    return Tracer(capacity=capacity)


def _emit_trace(tracer: Tracer, args: argparse.Namespace) -> None:
    """Print the attribution summary and write the requested trace file."""
    records = attribute_spans(tracer.spans)
    if records:
        print()
        print(format_attribution_summary(records))
    if tracer.evicted:
        print(
            f"trace: {tracer.evicted} spans evicted from the "
            f"{tracer.capacity}-span flight recorder (raise --trace-limit "
            "for complete traces)",
            file=sys.stderr,
        )
    if args.trace_out:
        tracer.write(args.trace_out)
        print(
            f"trace written to {args.trace_out} ({len(tracer)} spans)",
            file=sys.stderr,
        )


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``pcie-bench`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "model":
        return _cmd_model(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "nicsim":
        return _cmd_nicsim(args)
    if args.command == "contend":
        return _cmd_contend(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "suite":
        return _cmd_suite(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "systems":
        return _cmd_systems()
    raise ReproError(f"unknown command {args.command!r}")  # pragma: no cover


def _cmd_model(args: argparse.Namespace) -> int:
    model = PCIeModel.from_preset(args.preset)
    curves = model.figure1_curves(tuple(args.sizes))
    print(
        format_series_table(
            curves,
            x_label="size (B)",
            title=f"Analytical model, {model.config.describe()}",
        )
    )
    if args.plot:
        print()
        print(ascii_plot(curves, x_label="transfer size (B)", y_label="Gb/s"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    params = BenchmarkParams(
        kind=args.kind,
        transfer_size=args.size,
        window_size=parse_size(args.window),
        cache_state=args.cache,
        placement=args.placement,
        iommu_enabled=args.iommu,
        system=args.system,
        transactions=args.transactions,
    )
    result = BenchmarkRunner().run(params)
    print(params.label())
    if result.latency is not None:
        rows = [[key, value] for key, value in result.latency.as_dict().items()]
        print(format_table(["metric", "ns"], rows))
    else:
        print(
            format_table(
                ["metric", "value"],
                [
                    ["bandwidth (Gb/s)", result.bandwidth_gbps],
                    ["transactions/s", result.transactions_per_second],
                    ["cache hit rate", result.cache_hit_rate],
                    ["IOTLB miss rate", result.iotlb_miss_rate],
                ],
            )
        )
    return 0


def _cmd_nicsim(args: argparse.Namespace) -> int:
    if args.compare_analytic and args.workload != "fixed":
        raise ReproError(
            "--compare-analytic requires the fixed-size workload "
            "(the analytic model has no notion of mixed traffic)"
        )
    if args.model.strip().lower() == "all":
        models = [model.name for model in FIGURE1_MODELS]
    else:
        models = [model_by_name(args.model).name]
    tracer = _build_tracer(args)
    records = []
    runs = []
    for model in models:
        params = NicSimParams(
            model=model,
            workload=args.workload,
            packet_size=args.size,
            offered_load_gbps=args.load,
            packets=args.packets,
            ring_depth=args.ring_depth,
            duplex=not args.unidirectional,
            num_queues=args.queues,
            dma_tags=args.dma_tags,
            rss=args.rss,
            system=args.system,
            iommu_enabled=args.iommu,
            iommu_page_size=parse_size(args.iommu_pagesize),
            payload_window=parse_size(args.host_window),
            payload_cache_state=args.host_cache,
            payload_placement=args.placement,
            seed=args.seed,
            mode=args.mode,
        )
        runs.append(params)
        print(params.label(), file=sys.stderr)
        profiles: list = [] if args.profile else None  # type: ignore[assignment]
        records.append(
            run_nicsim_benchmark(
                params,
                profile_sink=profiles,
                tracer=tracer,
                device=model if len(models) > 1 else "nic",
            ).as_dict()
        )
        if profiles:
            for profile in profiles:
                print(profile.format(), file=sys.stderr)
    print(format_nicsim_summary(records, title="NIC datapath simulation"))
    if tracer is not None:
        _emit_trace(tracer, args)
    if args.compare_analytic:
        rows = []
        for params in runs:
            for point in cross_validate(params, (args.size,)):
                rows.append(
                    [
                        point.model,
                        point.packet_size,
                        point.analytic_gbps,
                        point.simulated_gbps,
                        point.relative_error * 100.0,
                    ]
                )
        print()
        print(
            format_table(
                ["model", "size (B)", "analytic Gb/s", "simulated Gb/s", "error %"],
                rows,
                title="Cross-validation vs analytic model",
            )
        )
    return 0


#: Keys understood by ``--device`` specs, mapped to NicSimParams fields.
_DEVICE_SPEC_KEYS = {
    "name": ("name", str),
    "model": ("model", str),
    "workload": ("workload", str),
    "size": ("packet_size", int),
    "load": ("offered_load_gbps", float),
    "packets": ("packets", int),
    "ring-depth": ("ring_depth", int),
    "ring_depth": ("ring_depth", int),
    "queues": ("num_queues", int),
    "dma-tags": ("dma_tags", int),
    "dma_tags": ("dma_tags", int),
    "rss": ("rss", str),
    "window": ("payload_window", parse_size),
    "cache": ("payload_cache_state", str),
    "seed": ("seed", int),
}


def _parse_device_spec(text: str) -> tuple[str | None, NicSimParams]:
    """Parse one ``--device`` value into (name, per-device parameters)."""
    fields: dict[str, object] = {}
    name: str | None = None
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValidationError(
                f"device spec entry {part!r} is not KEY=VALUE"
            )
        key, _, value = part.partition("=")
        key = key.strip().lower()
        if key not in _DEVICE_SPEC_KEYS:
            raise ValidationError(
                f"unknown device spec key {key!r}; valid: "
                + ", ".join(sorted(set(_DEVICE_SPEC_KEYS)))
            )
        field, coerce = _DEVICE_SPEC_KEYS[key]
        if field == "name":
            name = value.strip()
            continue
        try:
            fields[field] = coerce(value.strip())  # type: ignore[operator]
        except ValueError as exc:
            raise ValidationError(
                f"bad value for device spec key {key!r}: {value.strip()!r}"
            ) from exc
    return name, NicSimParams(**fields)  # type: ignore[arg-type]


def _cmd_contend(args: argparse.Namespace) -> int:
    if args.device:
        specs = [_parse_device_spec(text) for text in args.device]
        devices = tuple(params for _, params in specs)
        names = tuple(
            name if name is not None else f"dev{index}"
            for index, (name, _) in enumerate(specs)
        )
    else:
        devices = noisy_neighbour_pair()
        names = ("victim", "aggressor")
    weights = None
    if args.weights is not None:
        try:
            weights = tuple(
                float(part) for part in args.weights.split(":") if part
            )
        except ValueError as exc:
            raise ValidationError(
                f"--weights must be colon-separated numbers (e.g. 8:1), "
                f"got {args.weights!r}"
            ) from exc
        if len(weights) != len(devices):
            raise UsageError(
                f"--weights names {len(weights)} "
                f"weight{'s' if len(weights) != 1 else ''} "
                f"({args.weights}) but the run has {len(devices)} devices "
                f"({', '.join(names)}); pass one colon-separated weight "
                "per device, e.g. "
                + ":".join("1" for _ in names)
            )
    ddio_partition = None
    if args.ddio_partition is not None:
        text = args.ddio_partition.strip().lower()
        if text == "equal":
            ddio_partition = (1.0,) * len(devices)
        else:
            try:
                ddio_partition = tuple(
                    float(part) for part in text.split(":") if part
                )
            except ValueError as exc:
                raise ValidationError(
                    f"--ddio-partition must be 'equal' or colon-separated "
                    f"shares (e.g. 3:1), got {args.ddio_partition!r}"
                ) from exc
            if len(ddio_partition) != len(devices):
                raise UsageError(
                    f"--ddio-partition names {len(ddio_partition)} shares "
                    f"({args.ddio_partition}) but the run has "
                    f"{len(devices)} devices ({', '.join(names)})"
                )
    params = ContentionParams(
        devices=devices,
        names=names,
        system=args.system,
        iommu_enabled=args.iommu,
        iommu_page_size=parse_size(args.iommu_pagesize),
        arbiter=args.arbiter,
        weights=weights,
        topology=args.topology,
        quantum_ns=args.quantum,
        ddio_partition=ddio_partition,
        cache_model=args.cache_model,
        controller=args.controller,
        control_window_ns=args.control_window,
        mode=args.mode,
        seed=args.seed,
    )
    print(params.label(), file=sys.stderr)
    profiles: list = [] if args.profile else None  # type: ignore[assignment]
    tracer = _build_tracer(args)
    result = run_contention_benchmark(
        params, profile_sink=profiles, tracer=tracer
    )
    if profiles:
        for profile in profiles:
            print(profile.format(), file=sys.stderr)
    solo = None
    if args.solo_baseline:
        solo = {}
        for index, name in enumerate(params.device_names()):
            print(f"solo baseline: {name}", file=sys.stderr)
            solo[name] = run_nicsim_benchmark(
                solo_device_params(params, index)
            ).as_dict()
    print(format_contention_summary(result.as_dict(), solo=solo))
    if result.controller != "static":
        print()
        print(format_control_summary(result.as_dict()))
    if args.detail:
        for device in result.devices:
            print()
            print(
                format_nicsim_summary(
                    [device.result.as_dict()],
                    title=f"Device detail: {device.name}",
                )
            )
    if tracer is not None:
        _emit_trace(tracer, args)
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise UsageError(
            f"--jobs must be at least 1, got {args.jobs} "
            "(omit the flag to run serially)"
        )
    params = FleetParams(
        hosts=args.hosts,
        placement=args.placement,
        tenants=args.tenants,
        tenant_skew=args.skew,
        load_profile=args.profile,
        rack_load_gbps=args.rack_load,
        system=args.system,
        arbiter=args.arbiter,
        victim_packets=args.victim_packets,
        aggressor_packets=args.aggressor_packets,
        seed=args.seed,
    )
    print(params.label(), file=sys.stderr)
    engine_profiles: list = [] if args.engine_profile else None  # type: ignore[assignment]
    result = run_fleet_benchmark(
        params, jobs=args.jobs, profile_sink=engine_profiles
    )
    if engine_profiles:
        for profile in engine_profiles:
            print(profile.format(), file=sys.stderr)
    print(
        format_fleet_summary(result.as_dict(), thresholds_ns=args.threshold)
    )
    if args.output:
        save_results_json([result], args.output)
        print(f"fleet record written to {args.output}", file=sys.stderr)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = run_experiment(args.id, quick=not args.full)
    print(result.to_text())
    if args.plot and result.series:
        print()
        print(
            ascii_plot(
                result.series,
                x_label=result.x_label,
                y_label=result.y_label,
                logx="window" in result.x_label.lower(),
            )
        )
    return 0 if result.passed else 2


def _cmd_suite(args: argparse.Namespace) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise UsageError(
            f"--jobs must be at least 1, got {args.jobs} "
            "(omit the flag to run serially)"
        )
    params_list = full_suite_params(
        system=args.system, include_contention=args.contention
    )
    contention_count = sum(
        1 for params in params_list if isinstance(params, ContentionParams)
    )
    print(
        f"suite: {len(params_list)} unique benchmarks on {args.system}"
        + (
            f" ({contention_count} shared-host contention scenarios)"
            if contention_count
            else ""
        )
        + (f", {args.jobs} worker processes" if args.jobs else ""),
        file=sys.stderr,
    )
    runner = BenchmarkRunner(
        progress=lambda i, total, params: print(
            f"[{i + 1}/{total}] {params.label()}", file=sys.stderr
        )
    )
    results = runner.run_all(params_list, jobs=args.jobs)
    print(f"ran {len(results)} benchmarks on {args.system}")
    if args.output:
        runner.save(results, args.output)
        print(f"results written to {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    results = run_all(quick=not args.full)
    path = write_experiments_markdown(results, args.output)
    print(summary_line(results))
    print(f"report written to {path}")
    return 0


def _cmd_systems() -> int:
    from .sim.profiles import TABLE1_PROFILES

    rows = [list(profile.table1_row().values()) for profile in TABLE1_PROFILES]
    headers = list(TABLE1_PROFILES[0].table1_row().keys())
    print(format_table(headers, rows, title="Table 1 systems"))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
