"""Static sharding over the shared cache: partition, exchange, reduce.

The contract under test: ``compile --shard I/N`` workers partition the
sorted candidate list into round-robin slices (`CandidateSpace`), so
any set of shard workers, run one after another or concurrently, leaves
the shared cache in a state whose warm unsharded pruned reduce is the
*bit-identical* winner of the serial `PrunedOptimizer` — same makespan,
same solution key — with zero fresh evaluations once every shard ran.
Each shard appends one done record to the coordination log, which is
what ``shard status`` counts, and a shard that never ran is simply
re-scored by the reduce.
"""

import multiprocessing
from types import SimpleNamespace

import pytest

from repro.compiler import PremCompiler
from repro.kernels import make_kernel
from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.opt.cache import PersistentCache
from repro.opt.engine import EngineMetrics
from repro.opt.exhaustive import search_space_size
from repro.opt.pareto import ParetoOptimizer, pareto_front
from repro.opt.pruned import PrunedOptimizer
from repro.opt.robust import RobustOptimizer
from repro.opt.shard import (
    ShardLog,
    StaticShardExchange,
    merge_ranks,
    space_statuses,
    static_space_id,
)
from repro.opt.walk import CandidateSpace, validate_shard
from repro.sim.profiler import fit_component_model
from repro.timing.platform import Platform

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="worker processes require the fork start method")


def _component(kernel_name, preset, vars_):
    tree = LoopTree.build(make_kernel(kernel_name, preset))
    comp = component_at(tree, vars_)
    return comp, fit_component_model(comp)


@pytest.fixture(scope="module")
def rnn_small():
    return _component("rnn", "SMALL", ["s1", "p"])


@pytest.fixture(scope="module")
def lstm_small():
    return _component("lstm", "SMALL", ["s1_0", "p"])


def _winner(result):
    if result.best is None or not result.best.feasible:
        return None
    return result.best.makespan_ns, result.best.solution.key()


def _serial_winner(data, cache=None, **kwargs):
    comp, model = data
    return PrunedOptimizer(
        comp, Platform(), model, cache=cache, **kwargs).optimize()


def _space(data, shard_of=None):
    comp, model = data
    bounds = PrunedOptimizer(comp, Platform(), model).bounds
    return CandidateSpace(comp, bounds, Platform().cores, 10**6, "test",
                          lambda: None, shard_of=shard_of)


def _flats(space):
    return [flat for _bound, flat, _sizes, _ai in space.candidates]


def _shard(data, directory, index, count, **kwargs):
    """One ``compile --shard`` worker on one component: seed from the
    log, walk the slice against the shared cache, publish."""
    comp, model = data
    optimizer = PrunedOptimizer(
        comp, Platform(), model, cache=PersistentCache(directory),
        shard_of=(index, count), **kwargs)
    exchange = StaticShardExchange(
        directory, optimizer.evaluator.context_hash, (index, count))
    optimizer.incumbent = exchange.seed()
    result = optimizer.optimize()
    exchange.publish(comp, result)
    return optimizer, result


def _reduce(data, directory, **kwargs):
    """``shard-reduce``: one unsharded pruned search on the warm cache."""
    comp, model = data
    return PrunedOptimizer(comp, Platform(), model,
                           cache=PersistentCache(directory),
                           **kwargs).optimize()


def _status(data, directory, count):
    comp, model = data
    context = PrunedOptimizer(
        comp, Platform(), model,
        cache=PersistentCache(directory)).evaluator.context_hash
    return space_statuses(ShardLog(directory))[
        static_space_id(context, count)]


class TestPartition:
    def test_identical_across_coordinators(self, rnn_small):
        # Every shard process derives its slice on its own; the slices
        # must agree without any exchange.
        assert _flats(_space(rnn_small, (1, 3))) == \
            _flats(_space(rnn_small, (1, 3)))

    def test_chunks_cover_every_candidate_once(self, rnn_small):
        full = _flats(_space(rnn_small))
        parts = [flat for index in range(3)
                 for flat in _flats(_space(rnn_small, (index, 3)))]
        assert sorted(parts) == sorted(full)
        assert len(set(parts)) == len(parts)

    def test_component_changes_space_id(self, rnn_small, lstm_small,
                                        tmp_path):
        ids = set()
        for comp, model in (rnn_small, lstm_small):
            context = PrunedOptimizer(
                comp, Platform(), model,
                cache=PersistentCache(tmp_path)).evaluator.context_hash
            ids.add(static_space_id(context, 2))
        assert len(ids) == 2


    def test_two_shards_alternate_disjointly(self, rnn_small):
        full = _flats(_space(rnn_small))
        first = _flats(_space(rnn_small, (0, 2)))
        second = _flats(_space(rnn_small, (1, 2)))
        assert not set(first) & set(second)
        assert first == full[0::2] and second == full[1::2]

    def test_shard_counts_sum_to_space_size(self):
        """Cold, per-candidate shard walks account for every point of
        the space exactly once: scored, or pruned — including the
        infinite-bound enumeration drops, each counted by one shard."""
        comp, model = _component("cnn", "SMALL", ["n", "k", "p", "q", "c"])
        platform = Platform(spm_bytes=512).with_bus(1e9)
        total = 0
        for index in range(3):
            result = PrunedOptimizer(
                comp, platform, model, vectorize=False,
                shard_of=(index, 3)).optimize()
            total += result.evaluations + result.pruned
        size = search_space_size(comp, platform.cores)
        assert total == size
        space = CandidateSpace(
            comp, PrunedOptimizer(comp, platform, model).bounds,
            platform.cores, 10**6, "test", lambda: None)
        assert space.size == size and space.enum_pruned > 0


class TestDoneRecords:
    def test_each_shard_done_exactly_once(self, rnn_small, tmp_path):
        for index in range(3):
            _shard(rnn_small, tmp_path, index, 3)
        status = _status(rnn_small, tmp_path, 3)
        records = ShardLog(tmp_path).records(status.space)
        done = sorted(r["i"] for r in records if r.get("t") == "done")
        assert done == [0, 1, 2]
        assert status.done == 3 and status.complete

    def test_status_counts_progress(self, rnn_small, tmp_path):
        _shard(rnn_small, tmp_path, 0, 2)
        status = _status(rnn_small, tmp_path, 2)
        assert status.chunks == 2 and status.done == 1
        assert not status.complete
        _shard(rnn_small, tmp_path, 1, 2)
        status = _status(rnn_small, tmp_path, 2)
        assert status.done == 2 and status.complete
        assert len(status.workers) == 2
        serial = _serial_winner(rnn_small)
        assert status.winner[0] == serial.best.makespan_ns


class TestCorruptLog:
    """The coordination log skips bad lines exactly like the cache."""

    RECORDS = [
        {"t": "space", "s": "sp", "w": "a", "chunks": 2,
         "component": "(i)"},
        {"t": "done", "s": "sp", "c": "sp:0", "i": 0, "w": "a"},
        {"t": "winner", "s": "sp", "w": "a", "m": 5.0, "key": [1, 2]},
    ]

    def _corrupted(self, tmp_path, tail):
        log = ShardLog(tmp_path)
        with log.locked():
            for record in self.RECORDS:
                log.append(record)
        with open(log.path, "ab") as handle:
            handle.write(tail)
        return log

    def test_records_skip_bad_lines(self, tmp_path, corrupt_tail):
        tail, bad = corrupt_tail
        log = self._corrupted(tmp_path, tail)
        assert log.records() == self.RECORDS
        assert log.records("sp") == self.RECORDS
        assert log.read() == (self.RECORDS, bad)

    def test_statuses_skip_bad_lines(self, tmp_path, corrupt_tail):
        status = space_statuses(
            self._corrupted(tmp_path, corrupt_tail[0]))["sp"]
        assert (status.component, status.chunks, status.done) == \
            ("(i)", 2, 1)
        assert status.winner == (5.0, (1, 2))
        assert status.workers == ("a",)

    def test_appends_after_each_tail_keep_their_line(self, tmp_path,
                                                     corrupt_tail):
        tail, bad = corrupt_tail
        log = self._corrupted(tmp_path, tail)
        late = {"t": "done", "s": "sp", "c": "sp:1", "i": 1, "w": "b"}
        with log.locked():
            log.append(late)
        assert log.read() == (self.RECORDS + [late], bad)
        assert space_statuses(log)["sp"].done == 2

    NON_NUMERIC = {
        "m-text": b'{"t":"winner","s":"sp","w":"a","m":"abc","key":[1]}',
        "key-text": b'{"t":"winner","s":"sp","w":"a","m":1.0,"key":["x"]}',
        "m-list": b'{"t":"winner","s":"sp","w":"a","m":[1.0],"key":[1]}',
        "m-nan": b'{"t":"winner","s":"sp","w":"a","m":NaN,"key":[1]}',
        "m-inf": b'{"t":"winner","s":"sp","w":"a","m":1e999,"key":[1]}',
        "key-inf": b'{"t":"winner","s":"sp","w":"a","m":1.0,"key":[1e999]}',
        "chunks-text": b'{"t":"space","s":"sp","w":"a","chunks":"abc"}',
        "chunks-inf": b'{"t":"space","s":"sp","w":"a","chunks":1e999}',
        "chunks-null": b'{"t":"space","s":"sp","w":"a","chunks":null}',
        "chunk-list": b'{"t":"done","s":"sp","w":"a","c":[1]}',
    }

    @pytest.mark.parametrize("line", sorted(NON_NUMERIC))
    def test_statuses_skip_non_numeric_fields(self, tmp_path, line):
        log = self._corrupted(tmp_path, self.NON_NUMERIC[line] + b"\n")
        status = space_statuses(log)["sp"]
        assert (status.component, status.chunks, status.done) == \
            ("(i)", 2, 1)
        assert status.winner == (5.0, (1, 2))


def _fake_result(makespan_ns, key=(("i", 4, 2),)):
    """The fields of a search result that a shard publishes."""
    best = SimpleNamespace(feasible=True, makespan_ns=makespan_ns,
                           solution=SimpleNamespace(key=lambda: key))
    return SimpleNamespace(best=best, evaluations=1, pruned=0)


class TestPublish:
    COMPONENT = SimpleNamespace(label=lambda: "(i)")

    def test_one_transaction_per_publish(self, tmp_path, monkeypatch):
        steps = []
        locked = ShardLog.locked

        def counting(log):
            steps.append(log.path)
            return locked(log)

        monkeypatch.setattr(ShardLog, "locked", counting)
        StaticShardExchange(tmp_path, "ctx", (0, 2)).publish(
            self.COMPONENT, _fake_result(10.0))
        assert len(steps) == 1
        assert [r["t"] for r in ShardLog(tmp_path).records()] == \
            ["space", "done", "winner"]

    def test_winner_is_compare_and_append(self, tmp_path):
        # Equal and worse ranks are suppressed; a better one appends.
        for index, makespan in enumerate((10.0, 10.0, 12.0, 8.0)):
            StaticShardExchange(tmp_path, "ctx", (index, 4)).publish(
                self.COMPONENT, _fake_result(makespan))
        records = ShardLog(tmp_path).records()
        assert [r["m"] for r in records if r["t"] == "winner"] == \
            [10.0, 8.0]
        assert sum(r["t"] == "done" for r in records) == 4
        assert sum(r["t"] == "space" for r in records) == 1


class TestWorkerReduceParity:
    @pytest.mark.parametrize("vectorize", [True, False])
    def test_two_workers_match_serial_winner(self, rnn_small, tmp_path,
                                             vectorize):
        serial = _serial_winner(rnn_small, vectorize=vectorize)
        for index in range(2):
            _shard(rnn_small, tmp_path, index, 2, vectorize=vectorize)
        merged = _reduce(rnn_small, tmp_path, vectorize=vectorize)
        assert _winner(merged) == _winner(serial)
        if not vectorize:
            # The per-candidate reduce adopts every cache hit before it
            # screens the next candidate, so it prunes whatever a shard
            # pruned; a windowed reduce may re-score a few of those.
            assert merged.evaluations == 0

    def test_reduce_warm_is_identical_and_planless(self, rnn_small,
                                                   tmp_path):
        serial = _serial_winner(rnn_small)
        for index in range(2):
            _shard(rnn_small, tmp_path, index, 2, vectorize=False)
        first = _reduce(rnn_small, tmp_path, vectorize=False)
        second = _reduce(rnn_small, tmp_path, vectorize=False)
        for merged in (first, second):
            assert _winner(merged) == _winner(serial)
            assert merged.evaluations == 0
            assert merged.best.from_cache and merged.best.plan is None

    def test_single_worker_drains_everything(self, lstm_small, tmp_path):
        serial = _serial_winner(lstm_small)
        _optimizer, only = _shard(lstm_small, tmp_path, 0, 1)
        assert _winner(only) == _winner(serial)
        assert only.evaluations == serial.evaluations
        merged = _reduce(lstm_small, tmp_path)
        assert _winner(merged) == _winner(serial)
        assert merged.evaluations == 0

    def test_missing_shard_is_rescored_by_reduce(self, rnn_small,
                                                 tmp_path):
        serial = _serial_winner(rnn_small)
        _shard(rnn_small, tmp_path, 0, 2)   # shard 2 of 2 never runs
        assert not _status(rnn_small, tmp_path, 2).complete
        merged = _reduce(rnn_small, tmp_path)
        assert _winner(merged) == _winner(serial)
        assert merged.evaluations > 0       # the missing slice, re-scored


def _race_worker(cache_dir, index, started, release):
    data = _component("rnn", "SMALL", ["s1", "p"])
    started.release()
    release.acquire()                  # both processes start together
    _shard(data, cache_dir, index, 2, vectorize=False)


@needs_fork
class TestConcurrentShards:
    def test_two_processes_share_without_overlap(self, rnn_small,
                                                 tmp_path):
        """Two live shard processes on one cache and one log: each
        publishes exactly one done record, and the reduce over what
        they wrote matches the serial winner with zero fresh plans."""
        context = multiprocessing.get_context("fork")
        started = context.Semaphore(0)
        release = context.Semaphore(0)
        procs = [
            context.Process(target=_race_worker,
                            args=(str(tmp_path), index, started, release))
            for index in range(2)
        ]
        for proc in procs:
            proc.start()
        for _ in procs:                # wait for both components
            started.acquire()
        for _ in procs:                # then release them at once
            release.release()
        for proc in procs:
            proc.join(timeout=120)
        assert all(proc.exitcode == 0 for proc in procs)

        status = _status(rnn_small, tmp_path, 2)
        records = ShardLog(tmp_path).records(status.space)
        done = sorted(r["i"] for r in records if r.get("t") == "done")
        assert done == [0, 1]
        merged = _reduce(rnn_small, tmp_path, vectorize=False)
        assert _winner(merged) == _winner(_serial_winner(rnn_small))
        assert merged.evaluations == 0


class TestStaticSharding:
    """The ``shard_of`` slice knob on the optimizers themselves."""

    @pytest.mark.parametrize("count", [2, 3])
    def test_min_over_shards_is_serial_winner(self, rnn_small, count):
        serial = _serial_winner(rnn_small)
        best = None
        for index in range(count):
            result = _serial_winner(rnn_small, shard_of=(index, count))
            best = merge_ranks(best, _winner(result) and (
                result.best.makespan_ns, result.best.solution.key()))
        assert best == _winner(serial)

    def test_seeded_incumbent_never_changes_the_winner(self, rnn_small):
        serial = _serial_winner(rnn_small)
        rank = (serial.best.makespan_ns,
                tuple(x for _v, k, r in serial.best.solution.key()
                      for x in (k, r)))
        for index in range(2):
            seeded = _serial_winner(
                rnn_small, shard_of=(index, 2), incumbent=rank)
            got = _winner(seeded)
            # A seeded shard either rediscovers a rank no worse than the
            # incumbent or proves its slice holds nothing better.
            assert got is None or got[0] <= serial.best.makespan_ns

    def test_pareto_shard_fronts_union_to_full_front(self, rnn_small):
        comp, model = rnn_small
        full = ParetoOptimizer(comp, Platform(), model).optimize()
        parts = []
        for index in range(2):
            sharded = ParetoOptimizer(
                comp, Platform(), model,
                shard_of=(index, 2)).optimize()
            parts.extend(sharded.front)
        union = pareto_front(
            sorted(parts, key=lambda p: (p.objectives, p.flat)))
        assert {(p.objectives, p.flat) for p in union} == \
            {(p.objectives, p.flat) for p in full.front}

    def test_robust_shards_cover_the_nominal_winner(self, rnn_small):
        comp, model = rnn_small
        full = RobustOptimizer(
            comp, Platform(), model, scenarios=2, seed=0).optimize()
        ranks = []
        for index in range(2):
            sharded = RobustOptimizer(
                comp, Platform(), model, scenarios=2, seed=0,
                shard_of=(index, 2)).optimize()
            got = _winner(sharded)
            if got is not None:
                ranks.append(got)
        # The full search's risk winner lives in exactly one shard's
        # slice and is risk-minimal there, so it must be that shard's
        # local winner.
        assert _winner(full) in ranks

    def test_validate_shard_rejects_bad_tuples(self):
        assert validate_shard(None) is None
        assert validate_shard((0, 1)) == (0, 1)
        assert validate_shard((2, 3)) == (2, 3)
        for bad in ((3, 3), (-1, 2), (0, 0), (0,), "1/2"):
            with pytest.raises(ValueError):
                validate_shard(bad)

    def test_static_exchange_seeds_siblings(self, rnn_small, tmp_path):
        comp, _model = rnn_small
        cache = PersistentCache(tmp_path)
        serial = _serial_winner(rnn_small, cache=cache)
        flat = tuple(x for _v, k, r in serial.best.solution.key()
                     for x in (k, r))
        first = StaticShardExchange(
            cache.directory, "ctx", (0, 2))
        assert first.seed() is None
        first.publish(comp, serial)
        second = StaticShardExchange(cache.directory, "ctx", (1, 2))
        assert second.seed() == (serial.best.makespan_ns, flat)
        # A different shard count is a different space: no cross-talk.
        assert StaticShardExchange(
            cache.directory, "ctx", (0, 3)).seed() is None
        second.publish(comp, serial, winner=False)
        statuses = space_statuses(ShardLog(cache.directory))
        status = statuses[static_space_id("ctx", 2)]
        assert status.chunks == 2 and status.done == 2
        assert status.complete
        assert status.winner == (serial.best.makespan_ns, flat)
        assert len(status.workers) == 2


class TestRerunShard:
    def test_rerun_keeps_its_own_published_winner(self, tmp_path):
        # The second run is seeded with the rank the first one published;
        # its winner ties that rank and must still be reported.
        kernel = make_kernel("cnn", "MINI")
        platform = Platform(spm_bytes=8 * 1024)
        runs = [PremCompiler(platform, cache=PersistentCache(tmp_path))
                .compile(kernel, strategy="pruned", shards=(0, 1))
                for _ in range(2)]
        assert runs[0].feasible
        assert runs[1].makespan_ns == runs[0].makespan_ns
        assert [c.solution.key() for c in runs[1].components] == \
            [c.solution.key() for c in runs[0].components]


class TestEngineMetricsMerge:
    def test_merge_sums_counters_and_maxes_jobs(self):
        a = EngineMetrics(jobs=2, evaluations=3, memo_hits=1,
                          cache_hits=2, pruned=4, bound_hits=1,
                          batched=5, batch_fallbacks=1)
        b = EngineMetrics(jobs=4, evaluations=7, memo_hits=2,
                          cache_hits=1, pruned=6, bound_hits=2,
                          batched=3, batch_fallbacks=2)
        merged = a.merge(b)
        assert merged.jobs == 4
        assert merged.evaluations == 10
        assert merged.memo_hits == 3 and merged.cache_hits == 3
        assert merged.pruned == 10 and merged.bound_hits == 3
        assert merged.batched == 8 and merged.batch_fallbacks == 3

    def test_sum_builtin_merges_a_list(self):
        parts = [EngineMetrics(jobs=1, evaluations=2),
                 EngineMetrics(jobs=2, evaluations=3),
                 EngineMetrics(jobs=1, evaluations=5)]
        merged = sum(parts)
        assert merged.evaluations == 10 and merged.jobs == 2

    def test_add_rejects_foreign_types(self):
        with pytest.raises(TypeError):
            EngineMetrics(jobs=1) + 3
