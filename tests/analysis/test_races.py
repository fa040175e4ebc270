"""Inter-core race detection on forged and genuine footprints."""

from types import SimpleNamespace
from unittest.mock import patch

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import Footprint, check_races
from repro.analysis import races
from repro.prem.ranges import ranges_overlap
from tests.strategies import canonical_ranges


def _codes(diags):
    return {d.code for d in diags}


class TestClean:
    def test_multicore_plan_is_race_free(self, mini_ctx):
        assert len(mini_ctx.cores()) > 1
        assert check_races(mini_ctx) == []

    def test_single_core_plan_is_trivially_race_free(self, deep_ctx):
        assert check_races(deep_ctx) == []


class TestFootprints:
    def test_footprints_cover_every_core(self, mini_ctx):
        footprints = mini_ctx.array_footprints()
        assert sorted(footprints) == list(
            range(mini_ctx.solution.threads))
        # Every core reads something and writes something.
        for per_core in footprints.values():
            assert any(fp.reads for fp in per_core.values())
            assert any(fp.writes for fp in per_core.values())

    def test_footprints_are_cached(self, mini_ctx):
        assert mini_ctx.array_footprints() is mini_ctx.array_footprints()


class TestForgedOverlap:
    def _forge(self, ctx, *, shared_writes):
        """Give two cores identical hulls over one real array."""
        name = sorted(ctx.component.arrays())[0]
        real = ctx.array_footprints()
        hull = next(
            fp.reads[0] if fp.reads else fp.writes[0]
            for per_core in real.values()
            for fp in [per_core[name]] if fp.reads or fp.writes)
        writer = Footprint(reads=(), writes=(hull,))
        other = writer if shared_writes else Footprint(
            reads=(hull,), writes=())
        ctx.footprints = {0: {name: writer}, 1: {name: other}}
        return name

    def test_write_write_overlap_flagged(self, mini_ctx):
        name = self._forge(mini_ctx, shared_writes=True)
        found = check_races(mini_ctx)
        assert "PREM101" in _codes(found)
        assert all(d.array == name for d in found)

    def test_write_read_overlap_flagged(self, mini_ctx):
        self._forge(mini_ctx, shared_writes=False)
        found = check_races(mini_ctx)
        assert _codes(found) == {"PREM102"}

    def test_one_diagnostic_per_pair_and_kind(self, mini_ctx):
        self._forge(mini_ctx, shared_writes=True)
        found = check_races(mini_ctx)
        keys = [(d.code, d.array, d.core) for d in found]
        assert len(keys) == len(set(keys))


def reference_first_overlap(writes, others):
    """The nested scalar scan the array check replaced."""
    for w in writes:
        for o in others:
            if ranges_overlap(w, o):
                return w, o
    return None


def reference_conflicts(writes, others):
    """`races._conflicts` by the nested scan over each core pair; it
    reads only the hulls and their cores, not the encoded matrices."""
    def by_core(hulls):
        out = {}
        for hull, core in zip(hulls.ranges, hulls.core.tolist()):
            out.setdefault(core, []).append(hull)
        return out

    written, other = by_core(writes), by_core(others)
    found = {}
    for a, a_hulls in written.items():
        for b, b_hulls in other.items():
            pair = reference_first_overlap(a_hulls, b_hulls) \
                if a != b else None
            if pair is not None:
                found[a, b] = pair
    return found


def hull_lists(ndim):
    """Up to six hulls of *ndim* dimensions, possibly none; their bounds
    mix shared and distinct coefficient signatures."""
    return st.lists(canonical_ranges(ndim), max_size=6)


@st.composite
def core_footprints(draw):
    """``{core: (reads, writes)}`` over one array for two to four cores;
    a read or write of one core is sometimes an exact copy of a write of
    another (a forged overlap, unless the copied hull is empty)."""
    ndim = draw(st.integers(1, 3))
    cores = draw(st.integers(2, 4))
    per_core = {core: (draw(hull_lists(ndim)), draw(hull_lists(ndim)))
                for core in range(cores)}
    writers = [core for core in per_core if per_core[core][1]]
    if writers and draw(st.booleans()):
        source = draw(st.sampled_from(writers))
        forged = draw(st.sampled_from(per_core[source][1]))
        target = draw(st.sampled_from(
            [core for core in per_core if core != source]))
        kind = per_core[target][draw(st.integers(0, 1))]
        kind.insert(draw(st.integers(0, len(kind))), forged)
    return per_core


class TestArrayCheckParity:
    """The array-shaped overlap test finds the nested scan's pairs."""

    @given(core_footprints(), st.integers(1, 64))
    def test_first_pairs_match_nested_scan(self, per_core, block_cells):
        signatures = {}
        writes = races._encode(
            [(core, tuple(w)) for core, (_r, w) in per_core.items()],
            signatures)
        others = races._encode(
            [(core, tuple(r)) for core, (r, _w) in per_core.items()],
            signatures)
        for hulls in (writes, others):
            # Small blocks make the scan cross block boundaries.
            with patch.object(races, "_BLOCK_CELLS", block_cells):
                got = races._conflicts(writes, hulls)
            want = reference_conflicts(writes, hulls)
            assert got.keys() == want.keys()
            for key, (w, o) in want.items():
                assert got[key][0] is w and got[key][1] is o

    @given(core_footprints())
    def test_diagnostics_match_nested_scan(self, per_core):
        footprints = {
            core: {"a": Footprint(reads=tuple(reads), writes=tuple(writes))}
            for core, (reads, writes) in per_core.items()}
        ctx = SimpleNamespace(
            array_footprints=lambda: footprints,
            component=SimpleNamespace(arrays=lambda: {"a": None}),
            label="forged")
        got = check_races(ctx)
        with patch.object(races, "_conflicts", reference_conflicts):
            want = check_races(ctx)
        assert got == want
