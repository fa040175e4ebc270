"""CLI smoke tests (fast presets only)."""

import contextlib
import functools
import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import build_parser, main
from repro.compiler import STRATEGIES, PremCompiler
from repro.kernels import make_kernel
from repro.timing.platform import Platform


def _line(text, prefix):
    return next(l for l in text.splitlines() if l.startswith(prefix))


class TestParser:
    def test_commands_registered(self):
        parser = build_parser()
        for command in ("tree", "compile", "codegen", "trace", "gantt",
                        "sweep", "analyze", "pareto"):
            args = parser.parse_args([command, "cnn"])
            assert args.command == command

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tree", "fft"])


class TestCommands:
    def test_tree(self, capsys):
        assert main(["tree", "lstm", "--preset", "MINI"]) == 0
        out = capsys.readouterr().out
        assert "s1_0" in out and "dependences" in out

    def test_compile(self, capsys):
        code = main(["compile", "cnn", "--preset", "MINI",
                     "--spm", "8", "--cores", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "normalised" in out

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_compile_strategy(self, strategy, capsys):
        code = main(["compile", "cnn", "--preset", "MINI", "--spm", "8",
                     "--strategy", strategy, "--scenarios", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "normalised" in out

    @pytest.mark.parametrize("flag", ["--greedy", "--pruned", "--pareto",
                                      "--robust-timing", "--robust"])
    def test_removed_strategy_flags_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["compile", "cnn", "--preset", "MINI", flag])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["--strategy", "robust", "--alpha", "1.5"], "--alpha"),
        (["--strategy", "robust", "--scenarios", "-1"], "--scenarios"),
        (["--strategy", "robust", "--spread", "5"], "--spread"),
        (["--spm", "0"], "--spm"),
        (["--cores", "0"], "--cores"),
        (["--bus", "nan"], "--bus"),
        (["--bus", "inf"], "--bus"),
        (["--fallback", "--stage-budget", "-1"], "--stage-budget"),
        (["--fallback", "--stage-budget", "nan"], "--stage-budget"),
        (["--jobs", "0"], "--jobs"),
        (["--jobs", "-3"], "--jobs"),
    ])
    def test_bad_values_exit_2(self, argv, flag, capsys):
        assert main(["compile", "cnn", "--preset", "MINI"] + argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {flag} ")

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_bad_jobs_raise(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            PremCompiler(jobs=jobs)

    @pytest.mark.parametrize("budget", [-1.0, math.nan, math.inf])
    def test_bad_budgets_raise(self, budget):
        kernel = make_kernel("rnn", "MINI")
        with pytest.raises(ValueError, match="budget"):
            PremCompiler().compile(kernel, budget_s=budget)
        with pytest.raises(ValueError, match="budget"):
            PremCompiler().compile_fallback(kernel, stage_budget_s=budget)

    def test_unknown_strategy_is_named_before_the_shard_rule(self):
        with pytest.raises(ValueError, match="unknown strategy 'prunned'"):
            PremCompiler().compile(make_kernel("lstm", "MINI"),
                                   strategy="prunned", shards=(0, 2))

    def test_seed_reaches_every_strategy(self, capsys):
        # --seed drives the heuristic's random starts too, so the CLI
        # probes exactly what the library does at the same seed.
        assert main(["compile", "cnn", "--preset", "MINI",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        library = PremCompiler(
            Platform(spm_bytes=128 * 1024).with_bus(16e9), seed=1).compile(
                make_kernel("cnn", "MINI"))
        assert _line(out, "evaluations") == \
            f"evaluations       : {library.opt_result.evaluations:>16,}"

    def test_codegen(self, capsys):
        assert main(["codegen", "maxpool", "--preset", "MINI",
                     "--spm", "8"]) == 0
        out = capsys.readouterr().out
        assert "BUFFER_ALLOC_APIS" in out

    def test_trace(self, capsys):
        assert main(["trace", "sumpool", "--preset", "MINI",
                     "--spm", "8"]) == 0
        out = capsys.readouterr().out
        assert "segment" in out

    def test_gantt(self, capsys):
        assert main(["gantt", "cnn", "--preset", "MINI",
                     "--spm", "8"]) == 0
        out = capsys.readouterr().out
        assert "dma" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "lstm", "--preset", "MINI", "--spm", "8",
                     "--speeds", "1,16"]) == 0
        out = capsys.readouterr().out
        assert "normalised" in out

    def test_faults_campaign(self, capsys):
        code = main(["faults", "cnn", "--seed", "7", "--per-kind", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault campaign" in out and "detected" in out
        assert "OK: every correctness-affecting fault was detected" in out

    def test_faults_selected_kinds(self, capsys):
        code = main(["faults", "cnn", "--seed", "7", "--per-kind", "1",
                     "--kinds", "swap-drop,spm-poison"])
        assert code == 0
        out = capsys.readouterr().out
        assert "swap-drop" in out and "dma-jitter" not in out

    def test_faults_unknown_kind_rejected(self, capsys):
        code = main(["faults", "cnn", "--kinds", "bitrot"])
        assert code == 2
        assert "unknown fault kinds" in capsys.readouterr().err

    def test_compile_fallback(self, capsys):
        code = main(["compile", "maxpool", "--preset", "MINI",
                     "--fallback", "--stage-budget", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "strategy" in out and "ok" in out

    def test_compile_jobs(self, capsys):
        serial = main(["compile", "lstm", "--preset", "MINI"])
        serial_out = capsys.readouterr().out
        parallel = main(["compile", "lstm", "--preset", "MINI",
                         "--jobs", "4"])
        parallel_out = capsys.readouterr().out
        assert serial == parallel == 0
        assert serial_out == parallel_out      # bit-identical report

    def test_compile_cache_warm(self, tmp_path, capsys):
        argv = ["compile", "lstm", "--preset", "MINI",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "cache hits" not in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "cache hits" in warm and "100.0% of probes" in warm

    def test_compile_no_cache(self, tmp_path, capsys):
        argv = ["compile", "lstm", "--preset", "MINI",
                "--cache-dir", str(tmp_path), "--no-cache"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "cache hits" not in capsys.readouterr().out
        assert not list(tmp_path.iterdir())    # nothing was written

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        assert main(["compile", "lstm", "--preset", "MINI",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "makespan-cache.jsonl" in out
        assert main(["cache", "clear", "--cache-dir",
                     str(tmp_path)]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path)]) == 0
        assert "entries    : 0" in capsys.readouterr().out

    def test_gantt_replans_from_warm_cache(self, tmp_path, capsys):
        # A warm cache hands the winner back plan-less; gantt must
        # re-plan it (not bypass the cache, not fail) and render the
        # identical timeline.
        argv = ["gantt", "cnn", "--preset", "MINI", "--spm", "8",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert (tmp_path / "makespan-cache.jsonl").exists()
        assert main(argv) == 0                 # warm run still renders
        warm = capsys.readouterr().out
        assert "dma" in warm
        assert warm == cold

    def test_compile_robust_timing(self, capsys):
        code = main(["compile", "lstm", "--preset", "MINI", "--spm", "8",
                     "--strategy", "robust", "--scenarios", "4",
                     "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "robust: cvar-0.9 over 4 scenarios" in out

    def test_compile_robust_timing_zero_scenarios_matches_pruned(
            self, capsys):
        base = ["lstm", "--preset", "MINI", "--spm", "8"]
        assert main(["compile"] + base + ["--strategy", "pruned"]) == 0
        pruned_out = capsys.readouterr().out
        assert main(["compile"] + base + ["--strategy", "robust",
                                          "--scenarios", "0"]) == 0
        robust_out = capsys.readouterr().out

        # Identical makespan; only the robust note differs.
        assert _line(pruned_out, "makespan") == \
            _line(robust_out, "makespan")
        assert "0 scenarios (nominal winner kept)" in robust_out

    def test_pareto_command(self, capsys):
        code = main(["pareto", "rnn", "--preset", "MINI", "--spm", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pareto:" in out                  # per-component note
        assert "makespan ns" in out              # frontier table header
        assert "weights (" in out                # scalarized winners

    def test_pareto_space_guard_exits_1(self, capsys, monkeypatch):
        # The guard's SearchSpaceTooLarge is a ReproError: one error
        # line and exit 1, like every other compiling command.
        from repro.opt.pareto import ParetoOptimizer

        _cls, extras, exchange = STRATEGIES["pareto"]
        monkeypatch.setitem(STRATEGIES, "pareto", (functools.partial(
            ParetoOptimizer, max_points=3), extras, exchange))
        assert main(["pareto", "rnn", "--preset", "MINI"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_compile_pareto(self, capsys):
        code = main(["compile", "cnn", "--preset", "MINI",
                     "--spm", "8", "--strategy", "pareto"])
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out                 # the usual compile report
        assert "pareto:" in out and "front members" in out

    def test_pareto_custom_weights(self, capsys):
        code = main(["pareto", "rnn", "--preset", "MINI", "--spm", "8",
                     "--weights", "0.7,0.1,0.1,0.1",
                     "--weights", "0.25,0.25,0.25,0.25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "weights (0.7,0.1,0.1,0.1)" in out
        assert "weights (0.25,0.25,0.25,0.25)" in out

    @pytest.mark.parametrize("bad", ["0,1,1,1", "1,2,3", "a,b,c,d"])
    def test_pareto_bad_weights_exit_2(self, bad, capsys):
        code = main(["pareto", "rnn", "--preset", "MINI", "--spm", "8",
                     "--weights", bad])
        assert code == 2
        err = capsys.readouterr().err
        assert "--weights" in err or "weights" in err


class TestShardCli:
    BASE = ["cnn", "--preset", "MINI", "--spm", "8"]
    PRUNED = BASE + ["--strategy", "pruned"]

    def test_shard_compile_status_reduce_roundtrip(self, tmp_path,
                                                   capsys):
        # Reference: one unsharded pruned compile on its own cache.
        ref_dir = tmp_path / "ref"
        assert main(["compile"] + self.PRUNED +
                    ["--cache-dir", str(ref_dir)]) == 0
        reference = capsys.readouterr().out

        shared = tmp_path / "shared"
        for shard in ("1/3", "2/3", "3/3"):
            assert main(["compile"] + self.PRUNED +
                        ["--shard", shard,
                         "--cache-dir", str(shared)]) == 0
            out = capsys.readouterr().out
            assert f"shard             : {shard}" in out

        assert main(["shard", "status", "--cache-dir", str(shared)]) == 0
        status = capsys.readouterr().out
        # Each space's line names the component it searched.
        assert "(n, k, p, q, c): 3/3 chunks done" in status

        assert main(["shard-reduce"] + self.BASE +
                    ["--cache-dir", str(shared)]) == 0
        merged = capsys.readouterr().out
        assert "0" in merged and "cache hits" in merged

        # The merged winner is bit-identical to the unsharded compile.
        assert _line(merged, "makespan") == _line(reference, "makespan")
        assert _line(merged, "kernel cnn") == \
            _line(reference, "kernel cnn")
        # ... and recovered entirely from the cache: no fresh plans.
        assert "evaluations       :                0" in merged

    def test_shard_infeasible_slice_still_exits_zero(self, tmp_path,
                                                     capsys):
        shared = tmp_path / "shared"
        # Score the winning shard first so its published incumbent
        # prunes the later shard to an empty (infeasible) slice.
        for shard in ("1/2", "2/2"):
            assert main(["compile"] + self.PRUNED +
                        ["--shard", shard,
                         "--cache-dir", str(shared)]) == 0
            capsys.readouterr()

    def test_malformed_shard_exits_2(self, tmp_path, capsys):
        for bad in ("3", "0/2", "3/2", "a/b", "1/0"):
            code = main(["compile"] + self.PRUNED +
                        ["--shard", bad, "--cache-dir", str(tmp_path)])
            assert code == 2, bad
            assert "--shard" in capsys.readouterr().err

    def test_shard_without_cache_dir_exits_2(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["compile"] + self.PRUNED + ["--shard", "1/2"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_shard_rejects_greedy_and_fallback(self, tmp_path, capsys):
        assert main(["compile"] + self.BASE +
                    ["--shard", "1/2", "--strategy", "greedy",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "--strategy greedy" in capsys.readouterr().err
        assert main(["compile"] + self.BASE +
                    ["--shard", "1/2", "--fallback",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "--fallback" in capsys.readouterr().err

    def test_shard_status_empty_log(self, tmp_path, capsys):
        assert main(["shard", "status", "--cache-dir",
                     str(tmp_path)]) == 0
        assert "no shard coordination records" in capsys.readouterr().out

    def test_shard_reduce_without_cache_dir_exits_2(self, capsys,
                                                    monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["shard-reduce"] + self.BASE) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_cache_compact_cli(self, tmp_path, capsys):
        assert main(["compile"] + self.PRUNED +
                    ["--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "compact", "--cache-dir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "reclaimed" in out
        # The compacted cache still yields a 100%-warm compile.
        assert main(["compile"] + self.PRUNED +
                    ["--cache-dir", str(tmp_path)]) == 0
        assert "100.0% of probes" in capsys.readouterr().out

    def test_non_utf8_lines_never_crash(self, tmp_path, capsys):
        # One undecodable line in each log under the cache directory:
        # every command that reads them skips it and exits 0.
        argv = ["compile"] + self.PRUNED + ["--cache-dir", str(tmp_path)]
        assert main(argv + ["--shard", "1/1"]) == 0
        clean = _line(capsys.readouterr().out, "makespan")
        for name in ("makespan-cache.jsonl", "shard-coord.jsonl"):
            with open(tmp_path / name, "ab") as handle:
                handle.write(b"\xff\xfe\n")
        with pytest.warns(RuntimeWarning, match="1 corrupt line"):
            assert main(argv) == 0
        assert _line(capsys.readouterr().out, "makespan") == clean
        with pytest.warns(RuntimeWarning, match="1 corrupt line"):
            assert main(["cache", "stats",
                         "--cache-dir", str(tmp_path)]) == 0
        for command in (["cache", "compact"], ["shard", "status"]):
            assert main(command + ["--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "(1 reclaimed)" in out and "1/1 chunks done" in out

    def test_robust_timing_accepts_shard(self, tmp_path, capsys):
        for shard in ("1/2", "2/2"):
            assert main(["compile"] + self.BASE +
                        ["--strategy", "robust", "--scenarios", "2",
                         "--shard", shard,
                         "--cache-dir", str(tmp_path)]) == 0
            capsys.readouterr()


#: Values on both sides of every numeric bound: zero, negatives, NaN,
#: infinities and huge magnitudes, beside in-range values.
WILD = ["0", "-1", "nan", "inf", "-inf", "1e300"]


class TestNumericFlags:
    @settings(max_examples=30, deadline=None)
    @given(
        spm=st.sampled_from([None, "1", "8", "128", str(2 ** 40)] + WILD),
        bus=st.sampled_from([None, "1e-300", "0.25", "16"] + WILD),
        cores=st.one_of(st.none(), st.integers(-2, 16).map(str),
                        st.sampled_from(["nan", "inf"])),
        jobs=st.one_of(st.none(), st.integers(-3, 2).map(str),
                       st.sampled_from(["nan", "-inf"])),
        budget=st.sampled_from([None, "5", "1e-300"] + WILD))
    def test_compile_exits_0_1_or_2(self, spm, bus, cores, jobs, budget):
        """Whatever the numbers, ``compile`` exits 0, 1 or 2 and raises
        nothing else; a flag that must be positive exits 2 on a value
        that is not positive and finite (``--stage-budget`` on one that
        is negative or not finite)."""
        positive = {"--spm": spm, "--bus": bus, "--cores": cores,
                    "--jobs": jobs}
        argv = ["compile", "rnn", "--preset", "MINI"]
        argv += [f"{flag}={value}" for flag, value in positive.items()
                 if value is not None]
        if budget is not None:
            argv += ["--fallback", f"--stage-budget={budget}"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exit_info:       # argparse's own exit
                code = exit_info.code
        assert code in (0, 1, 2)
        if any(value is not None and not 0 < float(value) < math.inf
               for value in positive.values()):
            assert code == 2
        if budget is not None and not 0 <= float(budget) < math.inf:
            assert code == 2


    @pytest.mark.parametrize("argv,flag", [
        (["sweep", "rnn", "--speeds", "0"], "--speeds"),
        (["sweep", "rnn", "--speeds", "nan"], "--speeds"),
        (["sweep", "rnn", "--speeds", "abc"], "--speeds"),
        (["sweep", "rnn", "--speeds", "1,-4"], "--speeds"),
        (["analyze", "cnn", "--selftest", "-5"], "--selftest"),
        (["faults", "rnn", "--per-kind", "-1"], "--per-kind"),
        (["faults", "rnn", "--per-kind", "0"], "--per-kind"),
    ])
    def test_other_commands_exit_2(self, argv, flag, capsys):
        """A bad count or speed exits 2 with one line naming the flag,
        before anything is compiled or printed to stdout."""
        assert main(argv + ["--preset", "MINI"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        err = err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {flag} ")


class TestAnalyze:
    def test_analyze_clean_kernel(self, capsys):
        assert main(["analyze", "cnn", "--preset", "MINI"]) == 0
        out = capsys.readouterr().out
        assert "static analysis of cnn" in out
        assert "no diagnostics" in out

    def test_analyze_json(self, capsys):
        import json
        assert main(["analyze", "maxpool", "--preset", "MINI",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel"] == "maxpool"
        assert payload["counts"]["errors"] == 0

    def test_analyze_pass_subset(self, capsys):
        assert main(["analyze", "cnn", "--preset", "MINI",
                     "--passes", "races,capacity"]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_analyze_unknown_pass_rejected(self, capsys):
        assert main(["analyze", "cnn", "--preset", "MINI",
                     "--passes", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_analyze_selftest(self, capsys):
        assert main(["analyze", "cnn", "--preset", "SMALL",
                     "--cores", "1", "--spm", "8",
                     "--selftest", "30", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "static fault campaign" in out
        assert "detection rate" in out

    def test_compile_verify_static(self, capsys):
        assert main(["compile", "cnn", "--preset", "MINI",
                     "--verify-static"]) == 0
        out = capsys.readouterr().out
        assert "static analysis" in out
        assert "0 error(s)" in out


class TestPresetValidation:
    def test_unknown_preset_reported_with_the_offending_value(self,
                                                              capsys):
        # Validation is deferred past argparse so the error names the
        # bad token and the kernel's actual presets.
        assert main(["compile", "cnn", "--preset", "HUGE"]) == 2
        err = capsys.readouterr().err
        assert "HUGE" in err and "cnn" in err
        assert "MINI" in err          # known presets are listed

    def test_faults_defaults_to_mini(self):
        args = build_parser().parse_args(["faults", "cnn"])
        assert args.preset == "MINI"

    def test_known_presets_accepted(self):
        for preset in ("MINI", "SMALL", "LARGE"):
            args = build_parser().parse_args(
                ["compile", "cnn", "--preset", preset])
            assert args.preset == preset
