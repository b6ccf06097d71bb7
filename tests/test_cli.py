"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.experiments.executor import resolve_start_method


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--algorithm", "tchain"])
        assert args.algorithm == "tchain"
        assert args.users == 200
        assert args.arrivals == "flash"

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "gnutella"])

    def test_propshare_accepted(self):
        args = build_parser().parse_args(["run", "--algorithm", "propshare"])
        assert args.algorithm == "propshare"

    def test_no_network_listener_or_remote_dispatch(self):
        # Nothing in the CLI opens a network port or ships work to
        # other hosts: the agent subcommand and --hosts are gone.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["agent"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--algorithm", "tchain",
                                       "--hosts", "127.0.0.1:7071"])

    def test_run_fault_flags(self):
        args = build_parser().parse_args(
            ["run", "--algorithm", "tchain", "--loss-rate", "0.2",
             "--crash-hazard", "0.01", "--report-delay", "3",
             "--obligation-expiry", "10"])
        assert args.loss_rate == 0.2
        assert args.crash_hazard == 0.01
        assert args.report_delay == 3
        assert args.obligation_expiry == 10

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "--algorithm", "tchain"])
        assert args.replicates == 5
        assert args.max_attempts == 3
        assert args.journal is None
        assert args.timeout is None
        assert args.loss_rate == 0.0

    def test_figure_scale_choices(self):
        args = build_parser().parse_args(["figure5", "--scale", "smoke"])
        assert args.scale == "smoke"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure5", "--scale", "huge"])


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table III" in out

    def test_run_prints_summary(self, capsys):
        code = main(["run", "--algorithm", "altruism", "--users", "40",
                     "--pieces", "12", "--seed", "3", "--max-rounds", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "completion_fraction" in out
        assert "susceptibility" in out

    def test_run_json_stdout(self, capsys):
        code = main(["run", "--algorithm", "tchain", "--users", "40",
                     "--pieces", "12", "--seed", "3", "--max-rounds", "200",
                     "--json", "-"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["algorithm"] == "tchain"

    def test_run_json_file(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code = main(["run", "--algorithm", "bittorrent", "--users", "40",
                     "--pieces", "12", "--seed", "3", "--max-rounds", "200",
                     "--json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["summary"]["n_users"] == 40

    def test_run_with_freeriders(self, capsys):
        code = main(["run", "--algorithm", "altruism", "--users", "40",
                     "--pieces", "12", "--seed", "3", "--max-rounds", "200",
                     "--freeriders", "0.25", "--large-view"])
        assert code == 0
        assert "susceptibility" in capsys.readouterr().out

    def test_run_with_faults(self, capsys):
        code = main(["run", "--algorithm", "bittorrent", "--users", "40",
                     "--pieces", "12", "--seed", "3", "--max-rounds", "200",
                     "--loss-rate", "0.2"])
        assert code == 0
        assert "completion_fraction" in capsys.readouterr().out

    def test_sweep_smoke(self, capsys):
        code = main(["sweep", "--algorithm", "altruism", "--scale", "smoke",
                     "--replicates", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 replicates" in out
        assert "mean_completion_time" in out
        assert "0 failed" in out
        # The engine line names the start method the workers used.
        assert f"workers ({resolve_start_method()})," in out

    def test_sweep_with_journal_resumes(self, tmp_path, capsys):
        journal = str(tmp_path / "sweep.jsonl")
        argv = ["sweep", "--algorithm", "altruism", "--scale", "smoke",
                "--replicates", "2", "--journal", journal]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 resumed" in first
        assert main(argv) == 0
        assert "2 resumed" in capsys.readouterr().out

    def test_sweep_cache_rerun_reports_cached(self, tmp_path, capsys):
        argv = ["sweep", "--algorithm", "altruism", "--scale", "smoke",
                "--replicates", "2", "--jobs", "1",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert "0 cached" in capsys.readouterr().out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 cached" in out
        assert "cache: 2 hits, 0 misses, 0 stores, 0 corrupt" in out

    def test_sweep_strict_cache_corruption_exits_6(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["sweep", "--algorithm", "altruism", "--scale", "smoke",
                "--replicates", "1", "--jobs", "1",
                "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        (entry,) = cache_dir.glob("*/*/*.json")
        entry.write_text(entry.read_text()[:-10])  # torn write
        capsys.readouterr()
        assert main(argv + ["--cache-strict"]) == 6
        err = capsys.readouterr().err
        assert "result cache corrupt" in err
        assert str(entry) in err

    def test_sweep_cache_strict_requires_cache_dir(self, capsys):
        assert main(["sweep", "--algorithm", "altruism", "--scale", "smoke",
                     "--replicates", "1", "--cache-strict"]) == 2
        err = capsys.readouterr().err
        assert "--cache-strict needs --cache-dir" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag, value, problem", [
        ("--replicates", "0", "--replicates must be >= 1"),
        ("--jobs", "0", "--jobs must be >= 1"),
        ("--max-attempts", "0", "--max-attempts must be >= 1"),
        ("--timeout", "0", "--timeout must be > 0"),
    ], ids=["replicates", "jobs", "max-attempts", "timeout"])
    def test_sweep_rejects_zero_replicates(self, capsys, flag, value,
                                           problem):
        code = main(["sweep", "--algorithm", "altruism", "--scale", "smoke",
                     "--replicates", "2", flag, value])
        assert code == 2
        assert capsys.readouterr().err == f"sweep: {problem}\n"

    @pytest.mark.parametrize("argv, message", [
        (["run", "--users", "1"], "run: n_users must be at least 2"),
        (["run", "--pieces", "0"], "run: n_pieces must be at least 1"),
        (["run", "--max-rounds", "0"], "run: max_rounds must be >= 1"),
        (["run", "--freeriders", "1.5"],
         "run: freerider_fraction must lie in [0, 1)"),
        (["run", "--users", "100", "--pieces", "8", "--population", "200",
          "--subswarms", "2", "--jobs", "0"], "run: jobs must be >= 1"),
        (["sweep", "--scale", "smoke", "--freeriders", "2"],
         "sweep: freerider_fraction must lie in [0, 1)"),
        (["sweep", "--scale", "smoke", "--seeder-outage-rate", "0.1",
          "--seeder-outage-duration", "0"],
         "sweep: seeder_outage_duration must be >= 1"),
    ], ids=["users", "pieces", "max-rounds", "freeriders", "hybrid-jobs", "sweep-freeriders", "sweep-outage-duration"])
    def test_invalid_config_exits_2(self, capsys, argv, message):
        assert main(argv + ["--algorithm", "tchain"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert len(err.strip().splitlines()) == 1

    def test_run_refuses_instrumented_array_backend(self, capsys):
        code = main(["run", "--algorithm", "tchain", "--backend", "vector",
                     "--guards", "cheap"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("run: guards is on")
        assert "backend='object'" in err
        assert len(err.strip().splitlines()) == 1

    def test_sweep_refuses_instrumented_array_backend(self, tmp_path, capsys,
                                                      monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep started for a refused config")

        monkeypatch.setattr(cli, "run_resilient_sweep", no_sweep)
        journal = tmp_path / "sweep.jsonl"
        code = main(["sweep", "--algorithm", "tchain", "--scale", "smoke",
                     "--replicates", "2", "--backend", "vector-fast",
                     "--trace", "--journal", str(journal)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("sweep: obs is on")
        assert len(err.strip().splitlines()) == 1
        assert not journal.exists()

    def test_figure4_smoke(self, capsys):
        code = main(["figure4", "--scale", "smoke", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        # Reciprocity cannot finish at smoke scale; the rest complete.
        assert "engine: vector (parity-v1), 6 runs: 5 complete, 1 cap\n" \
            in out

    def test_report_tables_only(self, capsys):
        code = main(["report", "--no-figures"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Figure 4" not in out


class TestGuardFlags:
    def test_run_guard_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "--algorithm", "tchain", "--guards", "full",
             "--bundle-dir", "/tmp/b"])
        assert args.guards == "full"
        assert args.bundle_dir == "/tmp/b"

    def test_guards_default_off(self):
        args = build_parser().parse_args(["run", "--algorithm", "tchain"])
        assert args.guards == "off"

    def test_rejects_unknown_guard_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--algorithm", "tchain", "--guards", "paranoid"])

    def test_run_with_guards_clean(self, tmp_path, capsys):
        code = main(["run", "--algorithm", "bittorrent", "--users", "40",
                     "--pieces", "12", "--seed", "3", "--max-rounds", "200",
                     "--guards", "full", "--bundle-dir", str(tmp_path)])
        assert code == 0
        assert list(tmp_path.iterdir()) == []


class TestTerminationCli:
    """``run`` and ``sweep`` headlines say how each run ended."""

    #: A near-permanent seeder outage starves the flash crowd for the
    #: whole run, but the seeder would come back: ``cap``, not stalled.
    OUTAGE = ["--seeder-outage-rate", "0.95", "--seeder-outage-duration",
              "500"]

    def test_run_reports_cap_when_the_seeder_comes_back(self, capsys):
        code = main(["run", "--algorithm", "reciprocity", "--users", "30",
                     "--pieces", "16", "--max-rounds", "80", *self.OUTAGE])
        assert code == 0
        out = capsys.readouterr().out
        assert f"  {'termination':24s} cap\n" in out
        assert f"  {'n_stuck':24s} 30\n" in out

    def test_run_json_carries_the_verdict(self, capsys):
        code = main(["run", "--algorithm", "reciprocity", "--users", "30",
                     "--pieces", "16", "--max-rounds", "80", *self.OUTAGE,
                     "--backend", "vector", "--json", "-"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["termination"] == "cap"
        assert summary["n_stuck"] == 30

    def test_sweep_replicate_lines_say_how_runs_ended(self, capsys):
        code = main(["sweep", "--algorithm", "reciprocity", "--scale",
                     "smoke", "--replicates", "2", "--jobs", "1",
                     *self.OUTAGE])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("  ok (cap, ") == 2


class TestObservabilityCli:
    def test_obs_flags_parse_on_run_and_sweep(self):
        for command in ("run", "sweep"):
            args = build_parser().parse_args(
                [command, "--algorithm", "tchain", "--trace",
                 "--sample-every", "5", "--profile",
                 "--sample-rate", "transfer=10",
                 "--trace-out", "out.json"])
            assert args.trace and args.profile
            assert args.sample_every == 5
            assert args.sample_rate == ["transfer=10"]
            assert args.trace_out == "out.json"

    def test_obs_defaults_off(self):
        args = build_parser().parse_args(["run", "--algorithm", "tchain"])
        assert not args.trace and not args.profile
        assert args.sample_every == 0
        assert args.trace_out is None

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.algorithm == "tchain"
        assert args.sample_every == 1

    def test_run_rejects_bad_sample_rate(self, capsys):
        assert main(["run", "--algorithm", "tchain", "--users", "10",
                     "--pieces", "4", "--sample-rate", "transfer=0"]) == 2
        assert "--sample-rate" in capsys.readouterr().err

    def test_run_rejects_unknown_category(self, capsys):
        assert main(["run", "--algorithm", "tchain", "--users", "10",
                     "--pieces", "4", "--sample-rate", "nosuch=5"]) == 2

    def test_run_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "run.trace.json"
        assert main(["run", "--algorithm", "tchain", "--users", "20",
                     "--pieces", "8", "--max-rounds", "80",
                     "--sample-every", "2",
                     "--trace-out", str(out)]) == 0
        records = json.loads(out.read_text())
        phases = {record["ph"] for record in records}
        assert {"M", "i", "C"} <= phases

    def test_trace_command_renders_profile_and_trace(self, tmp_path,
                                                     capsys):
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "events.jsonl"
        assert main(["trace", "--users", "20", "--pieces", "8",
                     "--max-rounds", "80", "--trace-out", str(out),
                     "--jsonl-out", str(jsonl)]) == 0
        stdout = capsys.readouterr().out
        assert "Self-profile (wall clock)" in stdout
        assert "engine.round" in stdout
        assert "trace ring:" in stdout
        assert "progress_p50" in stdout  # sparkline dashboard
        records = json.loads(out.read_text())
        assert any(r["ph"] == "i" for r in records)
        lines = jsonl.read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)

    def test_trace_respects_sample_rate_and_buffer(self, capsys):
        assert main(["trace", "--users", "20", "--pieces", "8",
                     "--max-rounds", "60", "--sample-rate", "transfer=50",
                     "--buffer", "16"]) == 0
        stdout = capsys.readouterr().out
        assert "capacity 16" in stdout
        assert "sampled out" in stdout

    def test_sweep_trace_out_requires_sampling(self, capsys):
        assert main(["sweep", "--algorithm", "tchain", "--scale", "smoke",
                     "--replicates", "1", "--trace-out", "x.json"]) == 2
        assert "--sample-every" in capsys.readouterr().err

    def test_sweep_writes_per_replicate_series_trace(self, tmp_path,
                                                     capsys):
        out = tmp_path / "sweep.trace.json"
        assert main(["sweep", "--algorithm", "tchain", "--scale", "smoke",
                     "--replicates", "2", "--jobs", "1",
                     "--sample-every", "5", "--trace-out", str(out)]) == 0
        records = json.loads(out.read_text())
        meta = [r for r in records if r["ph"] == "M"]
        assert len(meta) == 2  # one Perfetto process per seed
        assert any(r["ph"] == "C" for r in records)


class TestHybridCli:
    """--population/--subswarms plumbing on run and sweep."""

    HYBRID_ARGS = ["--users", "60", "--pieces", "24", "--max-rounds", "250",
                   "--backend", "vector-fast", "--population", "1200",
                   "--subswarms", "4", "--seed", "3"]

    def test_run_hybrid_prints_population_summary(self, capsys):
        code = main(["run", "--algorithm", "tchain"] + self.HYBRID_ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "population 1200 as 4 subswarms x 60 users" in out
        assert "shard weight 5" in out
        assert "hybrid-v1" in out
        assert "population_completed" in out
        assert "fluid_residual" in out

    def test_run_hybrid_json(self, capsys):
        code = main(["run", "--algorithm", "tchain"] + self.HYBRID_ARGS
                    + ["--json", "-"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["digest_lineage"] == "hybrid-v1"

    def test_subswarms_requires_population(self, capsys):
        code = main(["run", "--algorithm", "tchain", "--subswarms", "4"])
        assert code == 2
        assert "--subswarms requires --population" in capsys.readouterr().err

    def test_jobs_requires_population(self, capsys):
        code = main(["run", "--algorithm", "tchain", "--jobs", "2"])
        assert code == 2
        assert "--jobs requires --population" in capsys.readouterr().err

    def test_undersized_population_exits_2(self, capsys):
        code = main(["run", "--algorithm", "tchain", "--users", "100",
                     "--population", "50"])
        assert code == 2
        assert "shard weights" in capsys.readouterr().err

    def test_run_hybrid_refuses_instrumented_array_backend(self, capsys):
        # A hybrid template is refused on an array engine exactly like
        # a plain run: one stderr line naming the field, exit 2.
        code = main(["run", "--algorithm", "tchain"] + self.HYBRID_ARGS
                    + ["--guards", "cheap"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("run: guards is on")
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""

    def test_sweep_hybrid_smoke(self, capsys):
        code = main(["sweep", "--algorithm", "tchain", "--scale", "smoke",
                     "--replicates", "2", "--backend", "vector-fast",
                     "--population", "480", "--subswarms", "4",
                     "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean_completion_time" in out
        assert "0 failed" in out

    def test_sweep_subswarms_requires_population(self, capsys):
        code = main(["sweep", "--algorithm", "tchain", "--scale", "smoke",
                     "--subswarms", "4"])
        assert code == 2
        assert "--subswarms requires --population" in capsys.readouterr().err

    def test_sweep_undersized_population_exits_2(self, capsys):
        code = main(["sweep", "--algorithm", "tchain", "--scale", "smoke",
                     "--population", "10"])
        assert code == 2
        assert "shard weights" in capsys.readouterr().err
