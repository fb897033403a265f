"""Tests for the pcie-bench command line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        args = parser.parse_args(["systems"])
        assert args.command == "systems"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "BW_RD"])
        assert args.kind == "BW_RD"
        assert args.size == 64
        assert args.window == "8K"

    def test_experiment_requires_valid_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure-42"])

    def test_nicsim_defaults(self):
        args = build_parser().parse_args(["nicsim"])
        assert args.model == "dpdk"
        assert args.workload == "fixed"
        assert args.load is None

    def test_nicsim_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nicsim", "--workload", "avalanche"])

    def test_suite_accepts_jobs(self):
        args = build_parser().parse_args(["suite", "--jobs", "4"])
        assert args.jobs == 4

    def test_suite_accepts_contention_flag(self):
        args = build_parser().parse_args(["suite", "--contention"])
        assert args.contention is True

    def test_nicsim_and_contend_accept_profile_flag(self):
        assert build_parser().parse_args(["nicsim", "--profile"]).profile
        assert build_parser().parse_args(["contend", "--profile"]).profile
        assert not build_parser().parse_args(["nicsim"]).profile

    def test_contend_defaults(self):
        args = build_parser().parse_args(["contend"])
        assert args.device is None
        assert args.arbiter == "fcfs"
        assert args.weights is None

    def test_contend_rejects_unknown_arbiter(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["contend", "--arbiter", "lottery"])


class TestCommands:
    def test_systems_lists_table1(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        assert "NFP6000-HSW" in out and "NetFPGA-HSW" in out

    def test_model_command_prints_series(self, capsys):
        assert main(["model", "--sizes", "64", "256"]) == 0
        out = capsys.readouterr().out
        assert "Effective PCIe BW" in out
        assert "Simple NIC" in out

    def test_model_command_with_plot(self, capsys):
        assert main(["model", "--sizes", "64", "256", "512", "--plot"]) == 0
        assert "legend" in capsys.readouterr().out

    def test_run_bandwidth_benchmark(self, capsys):
        code = main(
            ["run", "BW_WR", "--size", "256", "--transactions", "300"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bandwidth (Gb/s)" in out

    def test_run_latency_benchmark(self, capsys):
        code = main(["run", "LAT_RD", "--size", "64", "--transactions", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "median" in out

    def test_experiment_figure1(self, capsys):
        assert main(["experiment", "figure-1"]) == 0
        out = capsys.readouterr().out
        assert "figure-1" in out and "PASS" in out

    def test_report_writes_markdown(self, tmp_path, capsys, monkeypatch):
        # Restrict the report to the two analytical experiments to keep the
        # test fast; the full report is produced by the benchmark harness.
        from repro.experiments import registry

        quick_modules = (
            registry.EXPERIMENTS["figure-1"],
            registry.EXPERIMENTS["table-1"],
        )
        monkeypatch.setattr(registry, "_MODULES", quick_modules)
        output = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "--output", str(output)]) == 0
        assert output.exists()
        assert "figure-1" in output.read_text()

    def test_invalid_run_parameters_return_error_code(self, capsys):
        code = main(["run", "BW_RD", "--size", "0"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_nicsim_fixed_size_with_cross_validation(self, capsys):
        code = main(
            [
                "nicsim", "--model", "dpdk", "--size", "512",
                "--packets", "600", "--compare-analytic",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "NIC datapath simulation" in out
        assert "Cross-validation vs analytic model" in out

    def test_nicsim_scenario_reports_latency_and_ring_occupancy(self, capsys):
        code = main(
            [
                "nicsim", "--model", "kernel", "--workload", "bursty",
                "--size", "512", "--load", "24", "--packets", "800",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ring max" in out
        assert "p99 (ns)" in out

    def test_nicsim_compare_analytic_requires_fixed_workload(self, capsys):
        code = main(
            [
                "nicsim", "--workload", "imix", "--packets", "300",
                "--compare-analytic",
            ]
        )
        assert code == 1
        assert "fixed-size" in capsys.readouterr().err

    def test_nicsim_profile_reports_engine_throughput(self, capsys):
        code = main(
            [
                "nicsim", "--model", "dpdk", "--size", "512",
                "--packets", "400", "--profile",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "[profile]" in captured.err
        assert "events/s" in captured.err
        assert "build" in captured.err and "stats" in captured.err

    def test_suite_rejects_zero_and_negative_jobs(self, capsys):
        # --jobs 0 used to slip past the flag layer and fail deep inside
        # the runner; the CLI now rejects it as a usage error up front.
        code = main(["suite", "--jobs", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "--jobs must be at least 1, got 0" in captured.err
        code = main(["suite", "--jobs", "-3"])
        captured = capsys.readouterr()
        assert code == 1
        assert "--jobs must be at least 1, got -3" in captured.err

    def test_fleet_rejects_zero_jobs(self, capsys):
        code = main(["fleet", "--jobs", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "--jobs must be at least 1, got 0" in captured.err

    @pytest.mark.parametrize(
        ("argv", "knob"),
        (
            (["nicsim", "--load", "nan"], "offered_load_gbps"),
            (["nicsim", "--load", "inf"], "offered_load_gbps"),
            (["contend", "--device", "name=a,load=nan"], "offered_load_gbps"),
            (["fleet", "--rack-load", "nan"], "rack_load_gbps"),
            (["fleet", "--rack-load", "inf"], "rack_load_gbps"),
            (["fleet", "--skew", "nan"], "tenant_skew"),
            (["fleet", "--skew", "inf"], "tenant_skew"),
        ),
        ids=lambda value: " ".join(value) if isinstance(value, list) else value,
    )
    def test_non_finite_loads_are_rejected(self, capsys, argv, knob):
        # These used to run: NaN loads printed NaN latencies, an infinite
        # load released every packet at once, and a NaN fleet knob failed
        # only inside the run, naming a sketch value.
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert f"error: {knob} must be finite" in captured.err

    @pytest.mark.parametrize(
        "argv",
        (
            ["nicsim", "--seed", "-1"],
            ["contend", "--seed", "-1"],
            ["contend", "--device", "name=a,seed=-1"],
            ["fleet", "--seed", "-1"],
        ),
        ids=" ".join,
    )
    def test_negative_seeds_are_rejected(self, capsys, argv):
        # These died with numpy's traceback from inside the run.
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert "error: seed must be a non-negative integer, got -1" in captured.err


class TestContendCommand:
    def test_contend_with_explicit_devices(self, capsys):
        code = main(
            [
                "contend",
                "--device", "name=victim,model=dpdk,workload=fixed,size=512,"
                "load=5,packets=150,ring-depth=64,window=256K",
                "--device", "name=aggressor,model=kernel,workload=imix,"
                "packets=900,window=16M",
                "--iommu", "--arbiter", "rr",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Contention run" in captured.out
        assert "victim" in captured.out and "aggressor" in captured.out
        assert "arbiter=rr" in captured.err

    def test_contend_solo_baseline_reports_slowdowns(self, capsys):
        code = main(
            [
                "contend",
                "--device", "name=victim,load=5,packets=120,ring-depth=64,"
                "window=256K",
                "--device", "name=aggressor,workload=imix,packets=700,"
                "window=16M",
                "--iommu", "--arbiter", "wrr", "--weights", "8:1",
                "--solo-baseline",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Slowdown vs solo baseline" in captured.out
        assert "Jain fairness index" in captured.out
        assert "weights 8:1" in captured.out
        assert "solo baseline: victim" in captured.err

    def test_contend_profile_reports_engine_throughput(self, capsys):
        code = main(
            [
                "contend",
                "--device", "name=a,load=5,packets=80",
                "--device", "name=b,workload=imix,packets=200",
                "--profile",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "[profile] contend a+b" in captured.err
        assert "events/s" in captured.err

    def test_contend_detail_prints_per_device_tables(self, capsys):
        code = main(
            [
                "contend",
                "--device", "name=a,load=5,packets=100",
                "--device", "name=b,workload=imix,packets=300",
                "--detail",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Device detail: a" in captured.out
        assert "Device detail: b" in captured.out

    def test_contend_rejects_bad_device_spec(self, capsys):
        code = main(["contend", "--device", "model=dpdk,bogus=1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "unknown device spec key" in captured.err

    def test_contend_rejects_non_key_value_spec(self, capsys):
        code = main(["contend", "--device", "dpdk"])
        captured = capsys.readouterr()
        assert code == 1
        assert "not KEY=VALUE" in captured.err

    def test_contend_rejects_weight_count_mismatch_with_usage_error(
        self, capsys
    ):
        # Three devices, two weights: the CLI must explain the mismatch
        # in terms of the flags typed, not fail somewhere downstream.
        code = main(
            [
                "contend",
                "--device", "name=a,load=5,packets=50",
                "--device", "name=b,workload=imix,packets=100",
                "--device", "name=c,workload=imix,packets=100",
                "--arbiter", "wrr", "--weights", "8:1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "--weights names 2 weights" in captured.err
        assert "3 devices" in captured.err
        assert "a, b, c" in captured.err

    def test_contend_weight_mismatch_applies_to_the_default_pair(
        self, capsys
    ):
        code = main(["contend", "--arbiter", "wrr", "--weights", "8:1:1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "--weights names 3 weights" in captured.err
        assert "2 devices" in captured.err

    def test_contend_topology_quantum_and_partition_flags(self, capsys):
        code = main(
            [
                "contend",
                "--device", "name=victim,load=5,packets=100,ring-depth=64,"
                "window=256K",
                "--device", "name=aggressor,workload=imix,packets=400,"
                "window=16M",
                "--iommu",
                "--arbiter", "sliced", "--quantum", "16", "--weights", "8:1",
                "--topology", "victim=root,aggressor=sw0,sw0=root",
                "--ddio-partition",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "topology=depth2" in captured.err
        assert "quantum=16ns" in captured.err
        assert "ddio=1:1" in captured.err

    def test_contend_rejects_bad_topology_and_partition(self, capsys):
        code = main(
            ["contend", "--topology", "victim=nowhere,aggressor=root"]
        )
        assert code == 1
        assert "undeclared switch" in capsys.readouterr().err
        code = main(["contend", "--ddio-partition", "1:2:3"])
        assert code == 1
        err = capsys.readouterr().err
        assert "--ddio-partition names 3 shares" in err
        code = main(["contend", "--ddio-partition", "bogus"])
        assert code == 1
        assert "colon-separated" in capsys.readouterr().err

    def test_contend_controller_prints_the_action_log(self, capsys):
        code = main(
            [
                "contend",
                "--device", "name=victim,model=dpdk,workload=fixed,size=512,"
                "load=5,packets=200,ring-depth=64,window=256K",
                "--device", "name=aggressor,model=kernel,workload=imix,"
                "packets=1200,window=16M",
                "--iommu", "--arbiter", "wrr", "--weights", "1:16",
                "--controller", "threshold", "--control-window", "20000",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Control plane: controller threshold" in captured.out
        assert "window 20 us" in captured.out
        assert "weights" in captured.out

    def test_contend_controller_defaults_to_static_with_no_summary(
        self, capsys
    ):
        code = main(
            [
                "contend",
                "--device", "name=a,load=5,packets=80",
                "--device", "name=b,workload=imix,packets=200",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Control plane" not in captured.out

    def test_contend_rejects_window_without_controller(self, capsys):
        code = main(["contend", "--control-window", "50000"])
        captured = capsys.readouterr()
        assert code == 1
        assert "control_window_ns" in captured.err

    @pytest.mark.parametrize(
        "flags",
        (
            ["--control-window", "nan"],
            ["--controller", "threshold", "--control-window", "nan"],
            ["--arbiter", "sliced", "--quantum", "nan"],
        ),
    )
    def test_contend_rejects_non_finite_knobs(self, capsys, flags):
        code = main(["contend", *flags])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_contend_rejects_unknown_controller(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["contend", "--controller", "pid"])
