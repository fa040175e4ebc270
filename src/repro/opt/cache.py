"""Content-addressed persistent makespan cache, and the one JSON-lines
log every file under a cache directory is written through.

Planning a PREM segment schedule for one candidate solution is the hot
operation of every optimizer in this package; re-running a bench or a CI
job re-pays that cost for a search space that has not changed at all.
This module memoizes :class:`~repro.schedule.makespan.MakespanResult`
outcomes *across processes and runs*: entries are keyed by a stable
SHA-256 digest of everything the makespan depends on — component
structure, platform parameters, fitted execution model, segment cap,
planner modes, and the solution key — and stored append-only as JSON
lines through :class:`JsonLog`, so concurrent readers never see a torn
entry and a corrupted line (torn, or not UTF-8) degrades to a cache
miss instead of an error.  The shard coordination log
(:mod:`repro.opt.shard`) is the same :class:`JsonLog` at a sibling path.

The cache stores only the *outcome* (makespan, feasibility, reason,
transfer/SPM totals), never the plan object itself: a warm hit skips
planning entirely, which is exactly what re-runs of the Figure 6.1 /
Table 6.5 benches need.  Callers that need the full plan of a chosen
winner re-plan that single solution.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

try:
    import fcntl
except ImportError:                          # pragma: no cover - non-POSIX
    fcntl = None

#: Environment override for the default cache directory.
CACHE_ENV = "REPRO_CACHE_DIR"

#: File holding the append-only entry log inside the cache directory.
CACHE_FILENAME = "makespan-cache.jsonl"

#: Sibling lockfile serialising appends across concurrent writers.
LOCK_FILENAME = "makespan-cache.lock"

#: Bumped whenever the entry layout or fingerprint recipe changes;
#: entries from other versions are ignored on load.
CACHE_VERSION = 1


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


# ---------------------------------------------------------------------------
# fingerprinting


def _component_payload(component) -> List[Any]:
    """Deterministic structural description of a tilable component."""
    nodes = [[node.var, node.N, node.I, bool(node.parallel)]
             for node in component.nodes]
    inner = sorted(
        (var, list(bounds))
        for var, bounds in component.full_inner_box().items())
    stmts = []
    for stmt in component.stmts():
        accesses = [
            [access.kind, access.array.name, list(access.array.shape),
             access.array.etype, [repr(expr) for expr in access.indices]]
            for access in stmt.accesses
        ]
        guards = [repr(guard) for guard in stmt.guards]
        stmts.append([stmt.name, stmt.flops, accesses, guards])
    return [nodes, inner, stmts]


def _platform_payload(platform) -> List[Any]:
    return [
        platform.cores, platform.freq_hz, platform.spm_bytes,
        platform.bus_bytes_per_s, platform.burst_bytes,
        platform.dma_line_overhead_ns,
        sorted(platform.api_wcet_ns.items()),
    ]


def _exec_model_payload(exec_model) -> List[Any]:
    return [list(exec_model.overheads), exec_model.work,
            exec_model.intercept]


def context_fingerprint(component, platform, exec_model,
                        segment_cap: int,
                        modes: Optional[Mapping[str, str]] = None,
                        scenario: Optional[str] = None) -> str:
    """Digest of everything a makespan depends on except the solution.

    *scenario* is the :meth:`TimingScenario.digest` of the timing
    scenario the platform/model were perturbed under, when any; it is
    folded into the fingerprint so robust-search outcomes can never
    alias nominal ones, even where a perturbed parameter happens to
    round back onto its nominal value.  Nominal contexts omit the key
    entirely, keeping their fingerprints identical to pre-robust runs.
    """
    payload = {
        "v": CACHE_VERSION,
        "component": _component_payload(component),
        "platform": _platform_payload(platform),
        "model": _exec_model_payload(exec_model),
        "segment_cap": segment_cap,
        "modes": sorted(modes.items()) if modes else [],
    }
    if scenario is not None:
        payload["scenario"] = scenario
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def solution_digest(context_hash: str, key: Tuple) -> str:
    """Full cache key: context fingerprint + solution identity."""
    blob = json.dumps([context_hash, [list(part) if isinstance(part, tuple)
                                      else part for part in key]],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# the log


def _line(record: Mapping[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


class JsonLog:
    """One append-only JSON-lines file and the lockfile serialising its
    writers: the makespan cache and the shard log of a cache directory.

    Appends and rewrites run inside :meth:`locked`, so lines never
    interleave and read-decide-append is atomic per writer (without
    ``fcntl``, each append is one short POSIX ``write``).  A line that is
    not a JSON object — torn mid-append, or not UTF-8 — spoils only
    itself: :meth:`read` skips and counts it."""

    def __init__(self, path: os.PathLike, lock_path: os.PathLike):
        self.path = Path(path)
        self.lock_path = Path(lock_path)

    @contextmanager
    def locked(self):
        """Hold the lockfile (creating the directory) for one step."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fcntl is None:
            yield
            return
        with open(self.lock_path, "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock, fcntl.LOCK_UN)

    def read(self) -> Tuple[List[Dict[str, Any]], int]:
        """``(records, bad)``: the JSON-object lines in file order and the
        count of other non-blank lines; a missing file reads as empty."""
        try:
            text = self.path.read_text(errors="replace")
        except OSError:
            return [], 0
        records: List[Dict[str, Any]] = []
        bad = 0
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if isinstance(record, dict):
                records.append(record)
            else:
                bad += 1
        return records, bad

    def size(self) -> int:
        return self.path.stat().st_size if self.path.exists() else 0

    def append(self, record: Mapping[str, Any]) -> None:
        """Append one record; call inside :meth:`locked`.  After a torn
        last line (no trailing newline) the record starts a line of its
        own, so the tear spoils only the torn line."""
        line = _line(record).encode()
        with open(self.path, "a+b") as handle:
            if handle.seek(0, os.SEEK_END):
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    line = b"\n" + line
            handle.write(line)

    def rewrite(self, records) -> None:
        """Atomically replace the file with *records*: readers see the
        old file or the new one.  Call inside :meth:`locked`."""
        temp = self.path.with_name(self.path.name + ".compact")
        temp.write_text("".join(_line(record) for record in records))
        os.replace(temp, self.path)


# ---------------------------------------------------------------------------
# the store


class PersistentCache:
    """Append-only JSONL store of makespan outcomes, loaded lazily.

    Entries are plain dicts ``{"k": digest, "v": version, "m": makespan
    or None, "f": feasible, "r": reason, "spm": bytes, "xfer": bytes}``;
    an infeasible outcome stores ``m: None`` (JSON has no infinity) and
    is mapped back to ``math.inf`` on load.
    """

    def __init__(self, directory: Optional[os.PathLike] = None):
        self.directory = Path(directory) if directory is not None \
            else default_cache_dir()
        self.log = JsonLog(self.directory / CACHE_FILENAME,
                           self.directory / LOCK_FILENAME)
        self.path = self.log.path
        self.lock_path = self.log.lock_path
        #: In-memory fingerprint index: digest -> last entry.  Built by
        #: parsing the JSONL exactly once, on the first lookup or store;
        #: every later ``get``/``put``/``stats`` is a dict operation —
        #: the log file is never re-scanned per lookup.
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._bound_count = 0
        self._loaded = False
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt_lines = 0

    # -- loading ----------------------------------------------------------

    def _adopt(self, records: List[Dict[str, Any]]) -> None:
        """Fold log records into the index: entries of the current
        version, the last line per digest winning."""
        self._entries = {}
        for entry in records:
            digest = entry.get("k")
            if entry.get("v") == CACHE_VERSION and isinstance(digest, str):
                self._entries[digest] = entry
        # The bound tally comes after the fold: an upgraded digest
        # counts as a result.
        self._bound_count = sum(
            1 for entry in self._entries.values() if "f" not in entry)
        self._loaded = True

    def _load(self) -> None:
        if self._loaded:
            return
        records, self.corrupt_lines = self.log.read()
        self._adopt(records)
        if self.corrupt_lines:
            warnings.warn(
                f"persistent cache {self.path} contained "
                f"{self.corrupt_lines} corrupt line(s); skipped",
                RuntimeWarning, stacklevel=2)

    def __len__(self) -> int:
        self._load()
        return len(self._entries)

    # -- lookup / store ---------------------------------------------------

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The stored entry for *digest*, or None (counts hit/miss)."""
        self._load()
        entry = self._entries.get(digest)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def peek_entry(self, digest: str) -> Optional[Dict[str, Any]]:
        """The stored entry without touching the hit/miss counters."""
        self._load()
        return self._entries.get(digest)

    def get_result(self, digest: str) -> Optional[Dict[str, Any]]:
        """Like :meth:`get`, but only full *result* entries count.

        Bound-only entries (pruned candidates, see :meth:`put_bound`)
        carry no makespan outcome and must read as a miss to the
        evaluator."""
        self._load()
        entry = self._entries.get(digest)
        if entry is not None and "f" in entry:
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def put(self, digest: str, *, makespan_ns: float, feasible: bool,
            reason: str = "", spm_bytes: int = 0,
            transferred_bytes: int = 0) -> None:
        """Record one outcome; duplicate *result* digests are ignored.

        A bound-only entry for the same digest is upgraded: the new
        result line is appended and shadows it (last line wins on
        load)."""
        self._load()
        existing = self._entries.get(digest)
        if existing is not None and "f" in existing:
            return
        entry = {
            "k": digest,
            "v": CACHE_VERSION,
            "m": makespan_ns if math.isfinite(makespan_ns) else None,
            "f": bool(feasible),
            "r": reason,
            "spm": int(spm_bytes),
            "xfer": int(transferred_bytes),
        }
        self._append(digest, entry)

    def put_bound(self, digest: str, bound_ns: float) -> bool:
        """Record an admissible lower bound for a pruned candidate.

        Never overwrites anything: a digest that is already known (as a
        result or a bound) is left alone.  Returns True when the entry
        is new, False when the digest was already present — the caller's
        *bound hit* signal."""
        self._load()
        if digest in self._entries:
            return False
        entry = {
            "k": digest,
            "v": CACHE_VERSION,
            "b": bound_ns if math.isfinite(bound_ns) else None,
        }
        self._append(digest, entry)
        return True

    def _append(self, digest: str, entry: Dict[str, Any]) -> None:
        # Keep the index (and its bound tally) coherent before touching
        # the disk: a result entry shadowing a bound-only one is the
        # ``put``-after-``put_bound`` upgrade path.
        prev = self._entries.get(digest)
        if prev is not None and "f" not in prev:
            self._bound_count -= 1
        if "f" not in entry:
            self._bound_count += 1
        self._entries[digest] = entry
        try:
            with self.log.locked():
                self.log.append(entry)
        except OSError:
            return              # cache is best-effort; keep computing
        self.stores += 1

    @staticmethod
    def makespan_of(entry: Mapping[str, Any]) -> float:
        value = entry.get("m")
        return float(value) if value is not None else math.inf

    # -- maintenance ------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """O(1) snapshot — the bound tally is maintained incrementally
        by the index, not recounted per call."""
        self._load()
        return {
            "path": str(self.path),
            "entries": len(self._entries),
            "bound_entries": self._bound_count,
            "bytes": self.log.size(),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
        }

    def compact(self) -> Dict[str, int]:
        """Rewrite the log keeping one line per digest; report savings.

        The append-only file grows without bound across warm runs:
        every bound-only entry later upgraded to a full result leaves
        its superseded line behind, and corrupt lines linger forever.
        Compaction re-reads the file *inside* the writer lock — so
        lines appended since this process last loaded are folded, not
        lost — and atomically rewrites it with the surviving entry per
        digest.  Returns ``lines``/``bytes`` before/after and the
        reclaimed difference."""
        with self.log.locked():
            records, bad = self.log.read()
            bytes_before = self.log.size()
            # Adopt the folded view: it is at least as fresh as the
            # in-memory index (the lock held off concurrent appends).
            self._adopt(records)
            self.log.rewrite(self._entries.values())
            bytes_after = self.log.size()
        self.corrupt_lines = 0
        lines_before = len(records) + bad
        lines_after = len(self._entries)
        return {
            "lines_before": lines_before,
            "lines_after": lines_after,
            "lines_reclaimed": lines_before - lines_after,
            "bytes_before": bytes_before,
            "bytes_after": bytes_after,
            "bytes_reclaimed": bytes_before - bytes_after,
        }

    def clear(self) -> int:
        """Delete the store; returns the number of entries removed."""
        self._load()
        removed = len(self._entries)
        self._entries = {}
        self._bound_count = 0
        self.path.unlink(missing_ok=True)
        return removed
