"""Persistent makespan-cache unit tests."""

import json
import math
import multiprocessing
import warnings

import pytest

from repro.kernels import make_kernel
from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.opt.cache import (
    CACHE_VERSION,
    PersistentCache,
    context_fingerprint,
    fcntl,
    solution_digest,
)
from repro.schedule.makespan import MakespanEvaluator
from repro.sim.profiler import fit_component_model
from repro.timing.platform import Platform


@pytest.fixture(scope="module")
def lstm_comp():
    tree = LoopTree.build(make_kernel("lstm", "LARGE"))
    return component_at(tree, ["b_0"])


@pytest.fixture(scope="module")
def lstm_model(lstm_comp):
    return fit_component_model(lstm_comp)


class TestFingerprint:
    def test_stable_across_rebuilds(self, lstm_comp, lstm_model):
        a = context_fingerprint(lstm_comp, Platform(), lstm_model, 8192)
        b = context_fingerprint(lstm_comp, Platform(), lstm_model, 8192)
        assert a == b

    def test_platform_changes_fingerprint(self, lstm_comp, lstm_model):
        base = context_fingerprint(lstm_comp, Platform(), lstm_model, 8192)
        slow = context_fingerprint(
            lstm_comp, Platform().with_bus(1e9), lstm_model, 8192)
        assert base != slow

    def test_segment_cap_changes_fingerprint(self, lstm_comp, lstm_model):
        a = context_fingerprint(lstm_comp, Platform(), lstm_model, 8192)
        b = context_fingerprint(lstm_comp, Platform(), lstm_model, 64)
        assert a != b

    def test_component_changes_fingerprint(self, lstm_model):
        tree = LoopTree.build(make_kernel("lstm", "LARGE"))
        a = context_fingerprint(
            component_at(tree, ["b_0"]), Platform(), lstm_model, 8192)
        b = context_fingerprint(
            component_at(tree, ["b_1"]), Platform(), lstm_model, 8192)
        assert a != b

    def test_scenario_changes_fingerprint(self, lstm_comp, lstm_model):
        base = context_fingerprint(lstm_comp, Platform(), lstm_model, 8192)
        scen = context_fingerprint(
            lstm_comp, Platform(), lstm_model, 8192, scenario="abcd1234")
        other = context_fingerprint(
            lstm_comp, Platform(), lstm_model, 8192, scenario="ffff0000")
        assert base != scen and scen != other

    def test_no_scenario_matches_legacy_fingerprint(self, lstm_comp,
                                                    lstm_model):
        # scenario=None omits the key entirely, so nominal fingerprints
        # (and every pre-robust cache entry) stay valid.
        assert context_fingerprint(
            lstm_comp, Platform(), lstm_model, 8192) == \
            context_fingerprint(
                lstm_comp, Platform(), lstm_model, 8192, scenario=None)

    def test_solution_digest_depends_on_key(self):
        assert solution_digest("ctx", (("i", 2, 1),)) != \
            solution_digest("ctx", (("i", 4, 1),))
        assert solution_digest("ctx", (("i", 2, 1),)) == \
            solution_digest("ctx", (("i", 2, 1),))


class TestPersistentCache:
    def test_roundtrip(self, tmp_path):
        cache = PersistentCache(tmp_path)
        cache.put("abc", makespan_ns=123.0, feasible=True,
                  spm_bytes=10, transferred_bytes=20)
        fresh = PersistentCache(tmp_path)
        entry = fresh.get("abc")
        assert entry is not None
        assert PersistentCache.makespan_of(entry) == 123.0
        assert entry["f"] is True
        assert entry["spm"] == 10 and entry["xfer"] == 20

    def test_infeasible_roundtrips_to_inf(self, tmp_path):
        cache = PersistentCache(tmp_path)
        cache.put("bad", makespan_ns=math.inf, feasible=False,
                  reason="SPM overflow")
        entry = PersistentCache(tmp_path).get("bad")
        assert math.isinf(PersistentCache.makespan_of(entry))
        assert entry["f"] is False
        assert entry["r"] == "SPM overflow"

    def test_miss_counts(self, tmp_path):
        cache = PersistentCache(tmp_path)
        assert cache.get("nope") is None
        assert cache.misses == 1 and cache.hits == 0

    def test_duplicate_put_ignored(self, tmp_path):
        cache = PersistentCache(tmp_path)
        cache.put("k", makespan_ns=1.0, feasible=True)
        cache.put("k", makespan_ns=999.0, feasible=False)
        assert PersistentCache.makespan_of(cache.get("k")) == 1.0
        assert len(cache.path.read_text().splitlines()) == 1

    def test_corrupt_line_degrades_to_miss(self, tmp_path):
        cache = PersistentCache(tmp_path)
        cache.put("good", makespan_ns=5.0, feasible=True)
        with open(cache.path, "a") as handle:
            handle.write("{torn json\n")
            handle.write(json.dumps({"k": "other", "v": CACHE_VERSION,
                                     "m": 7.0, "f": True}) + "\n")
        fresh = PersistentCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="1 corrupt line"):
            assert fresh.get("good") is not None
        assert fresh.get("other") is not None
        assert len(fresh) == 2
        assert fresh.corrupt_lines == 1

    def test_truncated_trailing_line_skipped(self, tmp_path):
        # A crash mid-append leaves a prefix of the last line; every
        # complete entry before it must survive the reload.
        cache = PersistentCache(tmp_path)
        cache.put("a", makespan_ns=1.0, feasible=True)
        cache.put("b", makespan_ns=2.0, feasible=True)
        text = cache.path.read_text()
        cache.path.write_text(text[:-9])       # tear the final line
        fresh = PersistentCache(tmp_path)
        with pytest.warns(RuntimeWarning):
            assert fresh.get("a") is not None
        assert fresh.get("b") is None
        assert fresh.corrupt_lines == 1

    def test_clean_load_emits_no_warning(self, tmp_path):
        cache = PersistentCache(tmp_path)
        cache.put("a", makespan_ns=1.0, feasible=True)
        fresh = PersistentCache(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fresh.get("a") is not None
        assert fresh.corrupt_lines == 0

    def test_append_creates_lockfile(self, tmp_path):
        cache = PersistentCache(tmp_path)
        cache.put("a", makespan_ns=1.0, feasible=True)
        if fcntl is not None:
            assert cache.lock_path.exists()

    def test_concurrent_appends_never_tear_lines(self, tmp_path):
        # Two writer processes interleave appends through the lockfile;
        # the merged log must parse line by line with no corruption.
        if fcntl is None:
            pytest.skip("no fcntl on this platform")

        def writer(tag):
            cache = PersistentCache(tmp_path)
            for index in range(50):
                cache.put(f"{tag}-{index}", makespan_ns=float(index),
                          feasible=True, reason="x" * 64)

        procs = [multiprocessing.Process(target=writer, args=(tag,))
                 for tag in ("p", "q")]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
        assert all(proc.exitcode == 0 for proc in procs)
        fresh = PersistentCache(tmp_path)
        assert len(fresh) == 100
        assert fresh.corrupt_lines == 0

    def test_other_version_ignored(self, tmp_path):
        cache = PersistentCache(tmp_path)
        cache.directory.mkdir(parents=True, exist_ok=True)
        cache.path.write_text(json.dumps(
            {"k": "old", "v": CACHE_VERSION + 1, "m": 1.0, "f": True}) + "\n")
        assert PersistentCache(tmp_path).get("old") is None

    def test_clear(self, tmp_path):
        cache = PersistentCache(tmp_path)
        cache.put("a", makespan_ns=1.0, feasible=True)
        cache.put("b", makespan_ns=2.0, feasible=True)
        assert cache.clear() == 2
        assert len(cache) == 0
        assert not cache.path.exists()

    def test_stats(self, tmp_path):
        cache = PersistentCache(tmp_path)
        cache.put("a", makespan_ns=1.0, feasible=True)
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["bytes"] > 0


class TestCompact:
    def test_superseded_bound_lines_reclaimed(self, tmp_path):
        cache = PersistentCache(tmp_path)
        cache.put_bound("x", 10.0)
        cache.put_bound("y", 20.0)
        cache.put("x", makespan_ns=42.0, feasible=True)  # upgrade appends
        assert len(cache.path.read_text().splitlines()) == 3
        report = cache.compact()
        assert report["lines_before"] == 3
        assert report["lines_after"] == 2
        assert report["lines_reclaimed"] == 1
        assert report["bytes_reclaimed"] > 0
        # The surviving view is unchanged: x is the full result, y is
        # still a bound-only entry.
        assert PersistentCache.makespan_of(cache.get_result("x")) == 42.0
        assert cache.stats()["bound_entries"] == 1
        fresh = PersistentCache(tmp_path)
        assert PersistentCache.makespan_of(fresh.get_result("x")) == 42.0
        assert fresh.stats()["bound_entries"] == 1

    def test_compact_is_idempotent(self, tmp_path):
        cache = PersistentCache(tmp_path)
        cache.put_bound("x", 10.0)
        cache.put("x", makespan_ns=1.0, feasible=True)
        cache.compact()
        again = cache.compact()
        assert again["lines_reclaimed"] == 0
        assert again["bytes_reclaimed"] == 0

    def test_compact_drops_torn_lines(self, tmp_path):
        cache = PersistentCache(tmp_path)
        cache.put("good", makespan_ns=5.0, feasible=True)
        with open(cache.path, "a") as handle:
            handle.write("{torn json\n")
        report = cache.compact()
        assert report["lines_before"] == 2
        assert report["lines_after"] == 1
        fresh = PersistentCache(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fresh.get("good") is not None
        assert fresh.corrupt_lines == 0

    def test_compact_empty_cache(self, tmp_path):
        report = PersistentCache(tmp_path).compact()
        assert report["lines_before"] == 0
        assert report["lines_reclaimed"] == 0

    def test_compact_folds_lines_from_other_processes(self, tmp_path):
        # An entry appended by a second process after this process
        # loaded its index must survive compaction, not be dropped.
        mine = PersistentCache(tmp_path)
        mine.put("a", makespan_ns=1.0, feasible=True)
        assert mine.get("a") is not None          # index loaded
        other = PersistentCache(tmp_path)
        other.put("b", makespan_ns=2.0, feasible=True)
        mine.compact()
        assert mine.get("b") is not None
        assert PersistentCache(tmp_path).get("b") is not None

    def test_peek_entry_does_not_count_stats(self, tmp_path):
        cache = PersistentCache(tmp_path)
        cache.put("a", makespan_ns=1.0, feasible=True)
        assert cache.peek_entry("a") is not None
        assert cache.peek_entry("nope") is None
        assert cache.hits == 0 and cache.misses == 0


class TestCorruptLines:
    """Every corrupt-line shape degrades to a skipped, counted line."""

    @staticmethod
    def _corrupted(tmp_path, tail):
        cache = PersistentCache(tmp_path)
        cache.put("good", makespan_ns=5.0, feasible=True)
        with open(cache.path, "ab") as handle:
            handle.write(tail)
        return PersistentCache(tmp_path)

    def test_load_warns_and_counts(self, tmp_path, corrupt_tail):
        tail, bad = corrupt_tail
        fresh = self._corrupted(tmp_path, tail)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert fresh.get("good") is not None
        assert fresh.corrupt_lines == bad
        assert len(fresh) == 1
        warned = [str(w.message) for w in caught
                  if issubclass(w.category, RuntimeWarning)]
        assert len(warned) == (1 if bad else 0)
        assert all(f"{bad} corrupt line(s)" in text for text in warned)

    def test_compact_drops_bad_lines(self, tmp_path, corrupt_tail):
        tail, bad = corrupt_tail
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = self._corrupted(tmp_path, tail).compact()
        assert report["lines_before"] == 1 + bad
        assert report["lines_after"] == 1
        assert report["bytes_before"] == \
            report["bytes_after"] + len(tail)
        fresh = PersistentCache(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fresh.get("good") is not None
        assert fresh.corrupt_lines == 0
        assert fresh.stats()["bytes"] == report["bytes_after"]

    def test_put_after_each_tail_survives(self, tmp_path, corrupt_tail):
        tail, bad = corrupt_tail
        fresh = self._corrupted(tmp_path, tail)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fresh.put("b", makespan_ns=7.0, feasible=True)
            reread = PersistentCache(tmp_path)
            assert reread.get("b") is not None
        assert reread.corrupt_lines == bad
        assert len(reread) == 2

    def test_appends_after_a_bad_line_survive(self, tmp_path):
        fresh = self._corrupted(tmp_path, b"\xff\xfe\n")
        with pytest.warns(RuntimeWarning, match="1 corrupt line"):
            fresh.put("late", makespan_ns=7.0, feasible=True)
        reread = PersistentCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="1 corrupt line"):
            assert reread.get("late") is not None
        assert len(reread) == 2


class TestFingerprintIndex:
    """The in-memory digest index: parsed once, coherent, O(1) stats."""

    def test_log_parsed_exactly_once(self, tmp_path, monkeypatch):
        seed = PersistentCache(tmp_path)
        for index in range(50):
            seed.put(f"d{index}", makespan_ns=float(index), feasible=True)

        import pathlib
        reads = {"count": 0}
        original = pathlib.Path.read_text

        def counting_read_text(self, *args, **kwargs):
            reads["count"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "read_text", counting_read_text)
        cache = PersistentCache(tmp_path)
        for index in range(50):
            assert cache.get(f"d{index}") is not None
        cache.get("missing")
        cache.put("new", makespan_ns=1.0, feasible=True)
        cache.put_bound("pruned", 2.0)
        cache.stats()
        assert reads["count"] == 1

    def test_bound_upgrade_keeps_index_coherent(self, tmp_path):
        cache = PersistentCache(tmp_path)
        cache.put_bound("x", 10.0)
        cache.put_bound("y", 20.0)
        assert cache.stats()["bound_entries"] == 2
        # Result upgrade of one bound entry: appended, shadows the
        # bound line, and the tally follows without a recount.
        cache.put("x", makespan_ns=42.0, feasible=True)
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["bound_entries"] == 1
        assert cache.get_result("x")["m"] == 42.0
        # put_bound on an upgraded digest stays a no-op (known digest).
        assert cache.put_bound("x", 5.0) is False
        assert cache.stats()["bound_entries"] == 1
        # A fresh open replays the log and lands on the same tally.
        fresh = PersistentCache(tmp_path)
        assert fresh.stats()["bound_entries"] == 1
        assert fresh.stats()["entries"] == 2
        assert PersistentCache.makespan_of(fresh.get_result("x")) == 42.0

    def test_index_beats_per_lookup_scan(self, tmp_path):
        """Micro-bench: N lookups through the index must cost far less
        than N re-parses of the log (what a per-lookup scan would pay).
        """
        import time

        seed = PersistentCache(tmp_path)
        for index in range(2000):
            seed.put(f"d{index}", makespan_ns=float(index), feasible=True,
                     reason="x" * 32)

        cache = PersistentCache(tmp_path)
        cache.get("d0")                        # pay the one-time load
        started = time.perf_counter()
        for index in range(2000):
            cache.get(f"d{index}")
            cache.stats()                      # O(1), no recount
        indexed_s = time.perf_counter() - started

        started = time.perf_counter()
        for _ in range(20):                    # 1% of the naive scans
            fresh = PersistentCache(tmp_path)
            fresh.get("d1999")
        scan20_s = time.perf_counter() - started
        # 2000 indexed lookups + stats vs just 20 full parses: the
        # index must win with a wide margin (timing-noise tolerant).
        assert indexed_s < scan20_s

    def test_len_after_mixed_entries(self, tmp_path):
        cache = PersistentCache(tmp_path)
        cache.put("r", makespan_ns=1.0, feasible=True)
        cache.put_bound("b", 3.0)
        assert len(cache) == 2
        assert len(PersistentCache(tmp_path)) == 2


class TestEvaluatorIntegration:
    def test_persist_and_reload(self, tmp_path, lstm_comp, lstm_model):
        platform = Platform()
        first = MakespanEvaluator(
            lstm_comp, platform, lstm_model,
            cache=PersistentCache(tmp_path))
        result = first.evaluate_params({"b_0": 10}, {"b_0": 2})
        assert first.evaluations == 1 and first.cache_hits == 0

        second = MakespanEvaluator(
            lstm_comp, platform, lstm_model,
            cache=PersistentCache(tmp_path))
        warm = second.evaluate_params({"b_0": 10}, {"b_0": 2})
        assert second.evaluations == 0 and second.cache_hits == 1
        assert warm.from_cache and warm.plan is None
        assert warm.makespan_ns == result.makespan_ns
        assert warm.transferred_bytes == result.transferred_bytes
        assert warm.spm_bytes_needed == result.spm_bytes_needed

    def test_context_isolation(self, tmp_path, lstm_comp, lstm_model):
        """Entries cached on one platform never leak onto another."""
        cached = MakespanEvaluator(
            lstm_comp, Platform(), lstm_model,
            cache=PersistentCache(tmp_path))
        cached.evaluate_params({"b_0": 10}, {"b_0": 2})

        slow = MakespanEvaluator(
            lstm_comp, Platform().with_bus(1e9), lstm_model,
            cache=PersistentCache(tmp_path))
        result = slow.evaluate_params({"b_0": 10}, {"b_0": 2})
        assert slow.cache_hits == 0 and slow.evaluations == 1
        assert not result.from_cache

    def test_attach_plan_restores_plan(self, tmp_path, lstm_comp,
                                       lstm_model):
        platform = Platform()
        first = MakespanEvaluator(
            lstm_comp, platform, lstm_model,
            cache=PersistentCache(tmp_path))
        cold = first.evaluate_params({"b_0": 10}, {"b_0": 2})

        second = MakespanEvaluator(
            lstm_comp, platform, lstm_model,
            cache=PersistentCache(tmp_path))
        warm = second.evaluate_params({"b_0": 10}, {"b_0": 2})
        replanned = second.attach_plan(warm)
        assert replanned.plan is not None
        assert replanned.makespan_ns == cold.makespan_ns
        assert second.evaluations == 0    # re-planning is not an evaluation
