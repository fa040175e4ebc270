"""Static-shard coordination over the persistent cache directory.

``compile --shard I/N`` workers — possibly on different machines — share
nothing but a directory: the persistent JSONL makespan cache
(``makespan-cache.jsonl``) plus one sibling coordination log
(``shard-coord.jsonl``).  There is no server and no wire protocol: both
files are a :class:`~repro.opt.cache.JsonLog`, and every coordination
step is one fcntl-locked read-decide-append transaction on the log
(DESIGN.md §13).

Each worker walks the round-robin slice ``candidates[i::n]`` of the
globally sorted candidate list (:class:`~repro.opt.walk.CandidateSpace`)
and publishes full entries for scored candidates and bound-only entries
for pruned ones.  Through :class:`StaticShardExchange` a pruned-search
worker seeds its incumbent with the best feasible rank any sibling has
published, and appends its space, done and winner records in one
transaction, which ``shard status`` renders through
:func:`space_statuses`.

The merge is ``shard-reduce``: one unsharded pruned compile over the
warm cache.  Soundness: every published makespan is exact, and a
candidate is only ever pruned against the rank of some *true feasible*
incumbent — if the global winner ``w`` were pruned, then ``(bound_w,
flat_w) >= (m_i, flat_i)`` for a feasible ``i``; but ``bound_w <= m_w``
gives ``(bound_w, flat_w) <= (m_w, flat_w) <= (m_i, flat_i)``, with
equality throughout only when ``i`` *is* ``w`` — already evaluated and
published.  So the winner always has a full entry, and the reduce is
bit-identical to the serial :class:`~repro.opt.pruned.PrunedOptimizer`
winner.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..loopir.component import TilableComponent
from .bounds import flatten_key
from .cache import JsonLog

#: Coordination log (space, done and winner records) inside the cache dir.
SHARD_LOG_FILENAME = "shard-coord.jsonl"

#: Sibling lockfile serialising read-decide-append transactions.
SHARD_LOCK_FILENAME = "shard-coord.lock"

#: A feasible ``(makespan, flat key)`` rank.
Rank = Tuple[float, Tuple[int, ...]]


def _rank_of(record: Dict[str, Any]) -> Optional[Rank]:
    """The record's feasible rank; None when it has none or its fields
    are not numbers (a foreign or hand-edited line)."""
    flat = record.get("key")
    if not isinstance(flat, list):
        return None
    try:
        rank = float(record.get("m")), tuple(int(x) for x in flat)
    except (TypeError, ValueError, OverflowError):
        return None
    return rank if math.isfinite(rank[0]) else None


def merge_ranks(*ranks: Optional[Rank]) -> Optional[Rank]:
    """The best (minimum) of several optional incumbent ranks."""
    best: Optional[Rank] = None
    for rank in ranks:
        if rank is not None and (best is None or rank < best):
            best = rank
    return best


def static_space_id(context_hash: str, count: int) -> str:
    """Space id of a static ``shard_of=(i, n)`` compile (no chunk log).

    The space identity is the evaluator's context fingerprint plus the
    shard count — enough that incumbents are only ever exchanged between
    workers splitting the *same* component the *same* way."""
    return f"static:{context_hash}:{count}"


def _best_winner(records: Iterable[Dict[str, Any]]) -> Optional[Rank]:
    """The best rank among *records*' winner records, or None."""
    return merge_ranks(*(_rank_of(record) for record in records
                         if record.get("t") == "winner"))


class ShardLog(JsonLog):
    """The coordination log of one cache directory, the only shared
    mutable state of the shard protocol.  Reads used for *decisions*
    (space announcement, winner publication) happen inside
    :meth:`transact`, so read-decide-append is atomic per writer."""

    def __init__(self, directory: os.PathLike):
        super().__init__(Path(directory) / SHARD_LOG_FILENAME,
                         Path(directory) / SHARD_LOCK_FILENAME)

    @contextmanager
    def transact(self):
        """Exclusive read-decide-append critical section."""
        with self.locked():
            yield self.read()[0]

    def records(self, space: Optional[str] = None) -> List[Dict[str, Any]]:
        """A consistent snapshot of the log (optionally one space's)."""
        with self.transact() as records:
            return [r for r in records
                    if space is None or r.get("s") == space]


@dataclass
class SpaceStatus:
    """Progress snapshot of one sharded candidate space."""

    space: str
    component: str = ""
    chunks: int = 0               # shards the space was split into
    done: int = 0                 # shards that published a done record
    workers: Tuple[str, ...] = ()
    winner: Optional[Rank] = None

    @property
    def complete(self) -> bool:
        return self.chunks > 0 and self.done >= self.chunks

    def describe(self) -> str:
        parts = [f"{self.done}/{self.chunks} chunks done"]
        if self.winner is not None:
            parts.append(f"best {self.winner[0]:,.0f} ns")
        text = ", ".join(parts)
        return f"{self.component}: {text}" if self.component else text


def space_statuses(log: ShardLog) -> Dict[str, SpaceStatus]:
    """Per-space progress summary of one coordination log."""
    statuses: Dict[str, SpaceStatus] = {}
    done: Dict[str, set] = {}
    workers: Dict[str, set] = {}
    for record in log.records():
        space = record.get("s")
        if not isinstance(space, str):
            continue
        if space not in statuses:
            statuses[space] = SpaceStatus(space=space)
            done[space] = set()
            workers[space] = set()
        status = statuses[space]
        kind = record.get("t")
        worker = record.get("w")
        if isinstance(worker, str) and worker:
            workers[space].add(worker)
        if kind == "space":
            try:
                status.chunks = int(record.get("chunks", status.chunks))
            except (TypeError, ValueError, OverflowError):
                continue
            status.component = str(
                record.get("component", status.component))
        elif kind == "done" and isinstance(record.get("c"), str):
            done[space].add(record["c"])
        elif kind == "winner":
            status.winner = merge_ranks(status.winner, _rank_of(record))
    for space, status in statuses.items():
        status.done = len(done[space])
        status.workers = tuple(sorted(workers[space]))
    return statuses


class StaticShardExchange:
    """Coordination-log adapter for static ``shard_of`` compile workers.

    A ``compile --shard I/N`` worker partitions by slicing the sorted
    candidate list, and shares the log with its siblings: :meth:`seed`
    reads the best incumbent any sibling shard of the same component
    (and the same shard count) has published, and :meth:`publish`
    appends the shard's done record — what ``shard status`` counts —
    plus a winner record when this shard found a better feasible best,
    in one transaction."""

    def __init__(self, directory: os.PathLike, context_hash: str,
                 shards: Tuple[int, int]):
        self.log = ShardLog(directory)
        self.index, self.count = int(shards[0]), int(shards[1])
        self.space = static_space_id(context_hash, self.count)
        self.worker = f"shard{self.index + 1}of{self.count}-{os.getpid()}"

    def seed(self) -> Optional[Rank]:
        """The best rank any sibling shard published, or None."""
        return _best_winner(self.log.records(self.space))

    def publish(self, component: TilableComponent, result,
                winner: bool = True) -> None:
        """Append the space record (first shard only), the done record
        and the winner record in one transaction.  The winner is written
        only if its rank beats every rank published for the space, so
        racing shards converge on the minimum without duplicates."""
        best = result.best
        rank: Optional[Rank] = None
        if winner and best is not None and best.feasible:
            rank = (float(best.makespan_ns),
                    flatten_key(best.solution.key()))
        with self.log.transact() as records:
            mine = [r for r in records if r.get("s") == self.space]
            if not any(r.get("t") == "space" for r in mine):
                self.log.append({
                    "t": "space", "s": self.space, "w": self.worker,
                    "chunks": self.count, "component": component.label(),
                    "ts": time.time(),
                })
            self.log.append({
                "t": "done", "s": self.space,
                "c": f"{self.space}:{self.index}",
                "i": self.index, "w": self.worker,
                "scored": result.evaluations, "pruned": result.pruned,
                "ts": time.time(),
            })
            seen = _best_winner(mine)
            if rank is not None and (seen is None or rank < seen):
                self.log.append({
                    "t": "winner", "s": self.space, "w": self.worker,
                    "m": rank[0], "key": list(rank[1]), "ts": time.time(),
                })
