"""Online shard rebalancing: heat-driven splits, merges and budget moves.

Static partitioning has a failure mode the learned index cannot fix on its
own: when the workload drifts, one shard ends up serving almost all of the
traffic and tail latency degrades to whatever that hot shard can do.
Per-shard :class:`~repro.storage.AccessStats` measure where the reads go;
this module acts on them:

* :class:`AdaptiveShardingPolicy` wraps any base
  :class:`~repro.sharding.policy.ShardingPolicy` and lets shard regions be
  **split along an axis-aligned threshold** (and sibling splits be merged
  back) while preserving every routing invariant the router relies on —
  totality, window completeness and the kNN MINDIST lower bound.
* :class:`SplitMigration` / :class:`MergeMigration` move a shard's points
  into its replacement(s) **online**: the children are built in the
  background from a snapshot of the live shard while the old shard keeps
  serving reads, writes landing in a migrating shard are captured in a
  *rescue buffer* and replayed into the children, and the final swap —
  policy, shard list, router bookkeeping, caches, disk mirrors — happens
  atomically inside one :meth:`step` call.
* :class:`RebalanceController` is the policy loop: it decays per-shard
  access counters, starts a split when one shard's share of recent
  accesses crosses ``split_threshold``, merges sibling shards whose
  combined share has gone cold, and resizes per-shard
  :class:`~repro.storage.PageCache` / pool-client budgets proportionally to
  observed heat.

Correctness story: a migration never makes the index disagree with a
non-sharded oracle.  Reads served mid-migration hit the still-authoritative
parent; the rescue buffer replays writes in arrival order before the swap;
and the swap itself is a single synchronous mutation.  The ``rebalance``
fuzz harness (:mod:`repro.workloads.rebalance`) replays drifting and
bulk-churn streams with an oracle attached and asserts byte-identical
answers *while* migrations are in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.geometry import Rect, mindist_point_rect
from repro.sharding.policy import ShardingPolicy, _split_threshold

__all__ = [
    "AdaptiveShardingPolicy",
    "SplitMigration",
    "MergeMigration",
    "RebalanceConfig",
    "RebalanceController",
    "RebalanceError",
]


class RebalanceError(RuntimeError):
    """An online split/merge could not be applied consistently."""


# ---------------------------------------------------------------------------
# adaptive policy: split/merge leaves layered over any base policy
# ---------------------------------------------------------------------------

#: one refinement step: (axis, threshold, side); side 0 owns coord < threshold,
#: side 1 owns coord >= threshold (half-open, so siblings partition exactly)
_Step = tuple[int, float, int]


@dataclass(frozen=True)
class _Leaf:
    """A shard region: one base-policy region refined by half-plane steps."""

    base_id: int
    lineage: tuple[_Step, ...] = ()


class AdaptiveShardingPolicy(ShardingPolicy):
    """A base policy whose regions can be split and re-merged online.

    Every shard is a *leaf*: a base-policy region intersected with a chain
    of half-plane refinements (``coord < t`` / ``coord >= t``).  Splitting
    leaf ``s`` at ``(axis, t)`` replaces it in place with the ``< t`` child
    (keeping id ``s``, so most routing state stays valid) and appends the
    ``>= t`` child with the next free id; merging two siblings restores the
    parent at ``min(a, b)`` and fills the id hole by moving the last leaf
    down (the caller is told about the move so it can remap per-shard
    state).

    Routing invariants are preserved by construction:

    * **totality** — the base policy is total, and for a fixed base region
      the half-open lineage predicates partition it, so every point still
      maps to exactly one leaf;
    * **window completeness** — a leaf's true region is a subset of its
      *clip rectangle* (base extent ∩ lineage half-planes), so reporting
      every leaf whose clip rect intersects the window misses nothing;
    * **kNN lower bound** — the true region is a subset of both the base
      region and the clip rect, so ``max(base mindist, clip-rect mindist)``
      is still a valid lower bound (and strictly tighter after splits).
    """

    name = "adaptive"

    def __init__(self, base: ShardingPolicy):
        if isinstance(base, AdaptiveShardingPolicy):
            raise ValueError("adaptive policies do not nest; wrap the base policy once")
        super().__init__(base.n_shards, base.data_space)
        self.base = base
        self._leaves: list[_Leaf] = [_Leaf(i) for i in range(base.n_shards)]
        self._reindex()

    def _reindex(self) -> None:
        by_base: dict[int, list[int]] = {}
        for shard_id, leaf in enumerate(self._leaves):
            by_base.setdefault(leaf.base_id, []).append(shard_id)
        self._by_base = by_base
        self.n_shards = len(self._leaves)

    # -- mutation (called only through the sharded index's swap methods) ------

    def split(self, shard_id: int, axis: int, threshold: float) -> int:
        """Split leaf ``shard_id`` at ``threshold`` along ``axis`` (0=x, 1=y).

        The ``< threshold`` child keeps ``shard_id``; the ``>= threshold``
        child gets the next free id, which is returned.  ``threshold`` must
        be strictly inside the leaf's clip rectangle, so neither child's
        region is empty by construction.
        """
        if axis not in (0, 1):
            raise ValueError("axis must be 0 (x) or 1 (y)")
        clip = self._clip_rect(shard_id)
        lo, hi = (clip.xlo, clip.xhi) if axis == 0 else (clip.ylo, clip.yhi)
        threshold = float(threshold)
        if not lo < threshold < hi:
            raise RebalanceError(
                f"split threshold {threshold} not strictly inside "
                f"[{lo}, {hi}] of shard {shard_id} on axis {axis}"
            )
        leaf = self._leaves[shard_id]
        self._leaves[shard_id] = _Leaf(leaf.base_id, leaf.lineage + ((axis, threshold, 0),))
        self._leaves.append(_Leaf(leaf.base_id, leaf.lineage + ((axis, threshold, 1),)))
        self._reindex()
        return len(self._leaves) - 1

    def are_siblings(self, a: int, b: int) -> bool:
        """True when leaves ``a`` and ``b`` are the two children of one split
        (and can therefore be merged back into their parent)."""
        if a == b or not (0 <= a < self.n_shards and 0 <= b < self.n_shards):
            return False
        la, lb = self._leaves[a], self._leaves[b]
        return bool(
            la.lineage
            and lb.lineage
            and la.base_id == lb.base_id
            and la.lineage[:-1] == lb.lineage[:-1]
            and la.lineage[-1][:2] == lb.lineage[-1][:2]
            and la.lineage[-1][2] != lb.lineage[-1][2]
        )

    def sibling_pairs(self) -> list[tuple[int, int]]:
        """All currently mergeable ``(a, b)`` leaf pairs, ``a < b``."""
        pairs = []
        for a in range(self.n_shards):
            for b in range(a + 1, self.n_shards):
                if self.are_siblings(a, b):
                    pairs.append((a, b))
        return pairs

    def merge(self, a: int, b: int) -> tuple[int, Optional[tuple[int, int]]]:
        """Merge sibling leaves back into their parent.

        The parent takes id ``min(a, b)``; the hole at ``max(a, b)`` is
        filled by moving the last leaf down.  Returns ``(parent_id, moved)``
        where ``moved`` is ``(old_id, new_id)`` for the relocated leaf, or
        None when the hole was already last.
        """
        if not self.are_siblings(a, b):
            raise RebalanceError(f"shards {a} and {b} are not split siblings")
        keep, drop = min(a, b), max(a, b)
        parent = self._leaves[keep]
        self._leaves[keep] = _Leaf(parent.base_id, parent.lineage[:-1])
        last = len(self._leaves) - 1
        moved: Optional[tuple[int, int]] = None
        if drop != last:
            self._leaves[drop] = self._leaves[last]
            moved = (last, drop)
        self._leaves.pop()
        self._reindex()
        return keep, moved

    # -- geometry --------------------------------------------------------------

    def _clip_rect(self, shard_id: int) -> Rect:
        """Base extent intersected with the leaf's lineage half-planes (a
        superset of the leaf's true region, tight for rectangular bases)."""
        leaf = self._leaves[shard_id]
        extent = self.base.shard_extent(leaf.base_id)
        xlo, ylo, xhi, yhi = extent.xlo, extent.ylo, extent.xhi, extent.yhi
        for axis, threshold, side in leaf.lineage:
            if axis == 0:
                if side == 0:
                    xhi = min(xhi, threshold)
                else:
                    xlo = max(xlo, threshold)
            elif side == 0:
                yhi = min(yhi, threshold)
            else:
                ylo = max(ylo, threshold)
        return Rect(xlo, ylo, max(xlo, xhi), max(ylo, yhi))

    @staticmethod
    def _on_side(lineage: Sequence[_Step], x: float, y: float) -> bool:
        for axis, threshold, side in lineage:
            coord = x if axis == 0 else y
            if (coord < threshold) != (side == 0):
                return False
        return True

    # -- ShardingPolicy interface ----------------------------------------------

    def shard_of(self, x: float, y: float) -> int:
        x, y = float(x), float(y)
        candidates = self._by_base[self.base.shard_of(x, y)]
        if len(candidates) == 1:
            return candidates[0]
        for shard_id in candidates:
            if self._on_side(self._leaves[shard_id].lineage, x, y):
                return shard_id
        raise AssertionError("lineage leaves must partition the base region")

    def shard_of_many(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        base_owners = self.base.shard_of_many(points)
        out = np.empty(points.shape[0], dtype=np.int64)
        for base_id in np.unique(base_owners).tolist():
            candidates = self._by_base[int(base_id)]
            rows = np.nonzero(base_owners == base_id)[0]
            if len(candidates) == 1:
                out[rows] = candidates[0]
                continue
            sub = points[rows]
            unclaimed = np.ones(rows.shape[0], dtype=bool)
            for shard_id in candidates:
                mask = unclaimed.copy()
                for axis, threshold, side in self._leaves[shard_id].lineage:
                    below = sub[:, axis] < threshold
                    mask &= below if side == 0 else ~below
                out[rows[mask]] = shard_id
                unclaimed &= ~mask
        return out

    def shards_for_window(self, window: Rect) -> list[int]:
        out = []
        for base_id in self.base.shards_for_window(window):
            for shard_id in self._by_base[base_id]:
                leaf = self._leaves[shard_id]
                if not leaf.lineage or self._clip_rect(shard_id).intersects(window):
                    out.append(shard_id)
        return sorted(out)

    def mindist(self, x: float, y: float, shard_id: int) -> float:
        base_id = self._leaves[shard_id].base_id
        return self._refined(x, y, shard_id, self.base.mindist(x, y, base_id))

    def mindists(self, x: float, y: float) -> np.ndarray:
        base = self.base.mindists(x, y).tolist()
        return np.array(
            [self._refined(x, y, s, base[leaf.base_id]) for s, leaf in enumerate(self._leaves)]
        )

    def _refined(self, x: float, y: float, shard_id: int, bound: float) -> float:
        """The base region's ``bound`` raised to the leaf's clip rectangle."""
        if self._leaves[shard_id].lineage:
            bound = max(bound, mindist_point_rect(float(x), float(y), self._clip_rect(shard_id)))
        return bound

    def shard_extent(self, shard_id: int) -> Rect:
        return self._clip_rect(shard_id)

    def depth(self, shard_id: int) -> int:
        """How many splits refined this leaf below its base region."""
        return len(self._leaves[shard_id].lineage)

    def leaf_key(self, shard_id: int) -> tuple:
        """A stable identity for ``shard_id``'s *region*.

        ``(base_id, lineage)`` names the region independently of the shard
        id, so it survives the id relocation a merge performs — which is
        what lets the controller keep per-region cooldown state across
        topology changes.
        """
        leaf = self._leaves[shard_id]
        return (leaf.base_id, leaf.lineage)

    def describe(self) -> str:
        splits = sum(len(leaf.lineage) > 0 for leaf in self._leaves)
        return f"adaptive[{self.base.describe()}, leaves={self.n_shards}, refined={splits}]"


# ---------------------------------------------------------------------------
# migrations: stepped background split/merge with rescue-buffer write capture
# ---------------------------------------------------------------------------


class _Migration:
    """A background shard migration advanced one stage per :meth:`step` call.

    Stages run between operations of the serving loop, so reads and writes
    interleave with a migration in flight: reads keep hitting the old
    (still-authoritative) shard(s), writes are applied there *and* recorded
    in the rescue buffer registered on the index.  The final stage replays
    the rescue buffer into the freshly built replacement(s) and swaps them
    in atomically — policy, shard list, router and budgets together.
    """

    kind = "migration"

    def __init__(self, index) -> None:
        self.index = index
        self.done = False
        self.aborted = False
        self.rescued_writes = 0
        self._stage = 0

    @property
    def in_flight(self) -> bool:
        return not self.done

    def step(self) -> bool:
        """Advance one stage; returns True once the migration has finished
        (successfully or via abort)."""
        if not self.done:
            self._advance()
        return self.done

    def _advance(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _finish(self, aborted: bool = False) -> None:
        self.aborted = aborted
        self.done = True


class SplitMigration(_Migration):
    """Split one hot shard into two children, online.

    Stages: **snapshot** the live shard's points and pick the split plane
    (wider clip axis, median threshold); **build left**; **build right**;
    **swap** — replay rescued writes into the children, then atomically
    install children + refined policy and move the parent's cache/disk
    configuration onto them.
    """

    kind = "split"

    def __init__(self, index, shard_id: int, axis: Optional[int] = None,
                 threshold: Optional[float] = None):
        super().__init__(index)
        self.shard_id = shard_id
        self.axis = axis
        self.threshold = threshold
        self.right_id: Optional[int] = None
        self._snapshot: Optional[np.ndarray] = None
        self._rescue: Optional[list] = None
        self._left = None
        self._right = None

    def _advance(self) -> None:
        index = self.index
        if self._stage == 0:
            # registering the rescue buffer and snapshotting in the same
            # stage means no write can fall between them (single-threaded
            # control loop): every later write is in the buffer exactly once
            self._rescue = index.register_rescue((self.shard_id,))
            self._snapshot = index.live_shard_points(self.shard_id)
            if self.axis is None or self.threshold is None:
                clip = index.policy.shard_extent(self.shard_id)
                self.axis = 0 if clip.width >= clip.height else 1
                self.threshold = _split_threshold(clip, self._snapshot, self.axis)
                lo = clip.xlo if self.axis == 0 else clip.ylo
                hi = clip.xhi if self.axis == 0 else clip.yhi
                if not lo < self.threshold < hi:
                    index.release_rescue((self.shard_id,))
                    self._finish(aborted=True)  # degenerate region: nothing to split
                    return
            self.right_id = index.n_shards  # id the right child will take
            self._stage = 1
            return
        if self._stage == 1:
            below = self._snapshot[:, self.axis] < self.threshold
            self._left = index.build_replacement_shard(
                self.shard_id, self._snapshot[below]
            )
            self._stage = 2
            return
        if self._stage == 2:
            below = self._snapshot[:, self.axis] < self.threshold
            self._right = index.build_replacement_shard(
                self.right_id, self._snapshot[~below]
            )
            self._stage = 3
            return
        # final stage: rescue replay + atomic swap
        self.rescued_writes = len(self._rescue)
        for op, x, y in self._rescue:
            child = self._left if (x if self.axis == 0 else y) < self.threshold else self._right
            if op == "insert":
                child.insert(x, y, index.factory)
            else:
                child.delete(x, y)
        index.release_rescue((self.shard_id,))
        index.swap_in_split(self.shard_id, self.axis, self.threshold,
                            self._left, self._right)
        self._finish()


class MergeMigration(_Migration):
    """Merge two cold sibling shards back into their parent, online.

    Stages: **snapshot** both siblings; **build** the merged shard; **swap**
    — replay rescued writes (both siblings share one rescue buffer, so
    arrival order is preserved), then atomically restore the parent leaf.
    """

    kind = "merge"

    def __init__(self, index, a: int, b: int):
        super().__init__(index)
        if not index.policy.are_siblings(a, b):
            raise RebalanceError(f"shards {a} and {b} are not split siblings")
        self.a, self.b = min(a, b), max(a, b)
        self._snapshot: Optional[np.ndarray] = None
        self._rescue: Optional[list] = None
        self._merged = None

    def _advance(self) -> None:
        index = self.index
        if self._stage == 0:
            self._rescue = index.register_rescue((self.a, self.b))
            self._snapshot = np.vstack([
                index.live_shard_points(self.a),
                index.live_shard_points(self.b),
            ])
            self._stage = 1
            return
        if self._stage == 1:
            self._merged = index.build_replacement_shard(self.a, self._snapshot)
            self._stage = 2
            return
        self.rescued_writes = len(self._rescue)
        for op, x, y in self._rescue:
            if op == "insert":
                self._merged.insert(x, y, index.factory)
            else:
                self._merged.delete(x, y)
        index.release_rescue((self.a, self.b))
        index.swap_in_merge(self.a, self.b, self._merged)
        self._finish()


# ---------------------------------------------------------------------------
# the controller
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RebalanceConfig:
    """Tuning knobs for :class:`RebalanceController`.

    The split trigger is driven by *access shares* (decayed per-shard read
    and write heat), which are deterministic given the stream; wall-clock
    latencies vary by machine and play no part in any decision.
    """

    #: split the hottest shard when its share of recent accesses reaches this
    split_threshold: float = 0.45
    #: never split a shard holding fewer live points than this
    min_split_points: int = 128
    #: merge split siblings whose *combined* recent access share is below this
    merge_threshold: float = 0.02
    #: hard cap on the shard count
    max_shards: int = 32
    #: ticks to wait after a migration finishes before starting another
    cooldown_ticks: int = 2
    #: per-**region** hysteresis: a region touched by a finished split/merge
    #: (the split's children, the merge's restored parent) cannot be split
    #: or merged again for this many ticks.  The global ``cooldown_ticks``
    #: only spaces migrations out; without this knob an aggressive config on
    #: a drifting stream splits a region and re-merges it a few hundred ops
    #: later, over and over (the thrash documented in the roadmap).  0 (the
    #: default) disables the hysteresis.
    min_ticks_between_ops: int = 0
    #: don't decide anything until this many accesses have been observed
    min_observations: int = 256
    #: heat units credited per write routed to a shard (a write costs about
    #: one point lookup plus a block write, so churn-heavy hotspots split too)
    write_heat: float = 4.0
    #: per-tick multiplicative decay of the heat counters (recency window)
    decay: float = 0.85
    #: move PageCache / pool-client budgets toward hot shards every tick
    resize_budgets: bool = True
    min_budget_blocks: int = 2


@dataclass
class RebalanceReport:
    """What the controller did over a run (for reports and fuzz assertions)."""

    n_splits: int = 0
    n_merges: int = 0
    n_aborted: int = 0
    rescued_writes: int = 0
    mid_migration_ticks: int = 0
    mid_migration_batches: int = 0
    budget_resizes: int = 0
    actions: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "n_splits": self.n_splits,
            "n_merges": self.n_merges,
            "n_aborted": self.n_aborted,
            "rescued_writes": self.rescued_writes,
            "mid_migration_ticks": self.mid_migration_ticks,
            "mid_migration_batches": self.mid_migration_batches,
            "budget_resizes": self.budget_resizes,
            "actions": list(self.actions),
        }


class RebalanceController:
    """The closed loop: observe per-shard heat, act via migrations.

    Wire-up: construct over a built :class:`ShardedSpatialIndex` (its policy
    is wrapped in an :class:`AdaptiveShardingPolicy` if it isn't already),
    feed it per-batch per-shard read counts through
    :meth:`observe` (the scenario runner does this from its accounting
    hook), and call :meth:`tick` between operations.  Each tick advances an
    in-flight migration by one stage or — when idle, warmed up and out of
    cooldown — starts a split of the hottest shard or a merge of the
    coldest sibling pair, then rebalances cache budgets.
    """

    def __init__(self, index, config: Optional[RebalanceConfig] = None):
        index.enable_rebalancing()
        self.index = index
        self.config = config if config is not None else RebalanceConfig()
        self.report = RebalanceReport()
        self._heat: dict[int, float] = {}
        self._migration: Optional[_Migration] = None
        self._cooldown = 0
        self._initial_shards = index.n_shards
        #: tick counter + per-region last-structural-op tick (hysteresis)
        self._tick_index = 0
        self._last_op_tick: dict[tuple, int] = {}

    # -- observation (called by the serving loop's accounting) ----------------

    @property
    def migration_in_flight(self) -> bool:
        return self._migration is not None

    def observe(self, per_shard_reads: Optional[dict] = None) -> None:
        """Fold one batch's per-shard read counts in."""
        if self._migration is not None:
            self.report.mid_migration_batches += 1
        for shard_id, reads in (per_shard_reads or {}).items():
            if reads:
                self._heat[shard_id] = self._heat.get(shard_id, 0.0) + float(reads)

    def observe_write(self, x: float, y: float) -> None:
        """Credit one write's heat to the shard owning ``(x, y)``."""
        shard_id = self.index.router.shard_for_point(float(x), float(y))
        self._heat[shard_id] = self._heat.get(shard_id, 0.0) + self.config.write_heat

    # -- the control loop ------------------------------------------------------

    def tick(self) -> Optional[str]:
        """One control step; returns a short action string when one fired."""
        self._tick_index += 1
        if self._migration is not None:
            self.report.mid_migration_ticks += 1
            migration = self._migration
            if migration.step():
                self._migration = None
                self._cooldown = self.config.cooldown_ticks
                self._record_finished(migration)
                self._resize_budgets()
                return f"{migration.kind}-finished"
            return f"{migration.kind}-step"
        self._decay()
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        action = self._maybe_start_migration()
        if action is None:
            self._resize_budgets()
        return action

    def drain(self, max_steps: int = 16) -> None:
        """Run any in-flight migration to completion (end-of-run cleanup)."""
        steps = 0
        while self._migration is not None and steps < max_steps:
            self.tick()
            steps += 1

    def _record_finished(self, migration: _Migration) -> None:
        if migration.aborted:
            self.report.n_aborted += 1
            self.report.actions.append(f"{migration.kind}:aborted")
            return
        self.report.rescued_writes += migration.rescued_writes
        if migration.kind == "split":
            self.report.n_splits += 1
            self.report.actions.append(
                f"split:{migration.shard_id}->+{migration.right_id}"
                f"(rescued={migration.rescued_writes})"
            )
            # the children inherit a clean slate; the parent's heat is gone
            self._forget(migration.shard_id)
            # hysteresis: freshly created children may not merge back (or
            # split further) until min_ticks_between_ops have passed
            self._mark_region(migration.shard_id)
            self._mark_region(migration.right_id)
        else:
            self.report.n_merges += 1
            self.report.actions.append(
                f"merge:{migration.a}+{migration.b}(rescued={migration.rescued_writes})"
            )
            self._forget(migration.a)
            self._forget(migration.b)
            # hysteresis: the restored parent may not re-split immediately
            self._mark_region(migration.a)

    # -- per-region hysteresis --------------------------------------------------

    def _mark_region(self, shard_id: int) -> None:
        if self.config.min_ticks_between_ops <= 0:
            return
        if 0 <= shard_id < self.index.n_shards:
            self._last_op_tick[self.index.policy.leaf_key(shard_id)] = self._tick_index

    def _region_clear(self, shard_id: int) -> bool:
        """True when ``shard_id``'s region is outside its hysteresis window."""
        window = self.config.min_ticks_between_ops
        if window <= 0:
            return True
        last = self._last_op_tick.get(self.index.policy.leaf_key(shard_id))
        return last is None or self._tick_index - last >= window

    def _forget(self, shard_id: int) -> None:
        self._heat.pop(shard_id, None)

    def _decay(self) -> None:
        decay = self.config.decay
        for shard_id in list(self._heat):
            self._heat[shard_id] *= decay
            if self._heat[shard_id] < 1e-9:
                del self._heat[shard_id]

    def _maybe_start_migration(self) -> Optional[str]:
        config = self.config
        total = sum(self._heat.values())
        if total < config.min_observations:
            return None
        index = self.index
        # hottest shard first: split when it dominates the traffic
        hot_id, hot_heat = max(self._heat.items(), key=lambda item: (item[1], -item[0]))
        share = hot_heat / total
        if (
            share >= config.split_threshold
            and index.n_shards < config.max_shards
            and hot_id < index.n_shards
            and index.shards[hot_id].n_points >= config.min_split_points
            and self._region_clear(hot_id)
        ):
            self._migration = SplitMigration(index, hot_id)
            return "split-started"
        # otherwise reclaim shards whose split has gone cold
        if index.n_shards > max(1, self._initial_shards):
            for a, b in index.policy.sibling_pairs():
                combined = (self._heat.get(a, 0.0) + self._heat.get(b, 0.0)) / total
                if (
                    combined <= config.merge_threshold
                    and self._region_clear(a)
                    and self._region_clear(b)
                ):
                    self._migration = MergeMigration(index, a, b)
                    return "merge-started"
        return None

    # -- budget resizing -------------------------------------------------------

    def _resize_budgets(self) -> None:
        """Move cache budget toward hot shards, proportionally to heat."""
        if not self.config.resize_budgets:
            return
        index = self.index
        total = sum(self._heat.values())
        if total <= 0 or index.n_shards < 2:
            return
        resized = index.resize_shard_budgets(
            {
                shard_id: self._heat.get(shard_id, 0.0) / total
                for shard_id in range(index.n_shards)
            },
            min_blocks=self.config.min_budget_blocks,
        )
        if resized:
            self.report.budget_resizes += 1

    # -- reporting -------------------------------------------------------------

    def extra_metrics(self) -> dict:
        metrics = self.report.as_dict()
        metrics.pop("actions")
        metrics["final_shards"] = self.index.n_shards
        metrics["policy"] = self.index.policy.describe()
        return metrics

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self._migration.kind if self._migration is not None else "idle"
        return (
            f"RebalanceController(shards={self.index.n_shards}, state={state}, "
            f"splits={self.report.n_splits}, merges={self.report.n_merges})"
        )
