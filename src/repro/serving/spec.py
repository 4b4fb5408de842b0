"""Picklable serving specs: rebuild shard-identical indices in any process.

:class:`ServingSpec` is the unit of state the multi-process serving tier
ships to its workers: a shard-index factory (already picklable — see
:class:`~repro.sharding.index._ShardIndexFactory`), a resolved
:class:`~repro.sharding.policy.ShardingPolicy` instance, and the exact
per-shard point arrays of the index being served.  Rebuilding from a spec
goes through :meth:`ShardedSpatialIndex.build_assigned`, which constructs
every shard's wrapped index over the same array in the same order — so a
worker process, the parent, and a single-threaded reference all end up with
**byte-identical** shard structures, and therefore byte-identical answers
(window-result enumeration order included).

Nothing runtime-shared crosses the process boundary: the spec carries cache
*configuration* (``cache_blocks``/``cache_policy``), never live
:class:`~repro.storage.PageCache` or
:class:`~repro.storage.SharedBufferPool` objects, so every worker builds
its own private caches (see the fork/spawn-safety note in
:mod:`repro.storage.buffer_pool`).
"""

from __future__ import annotations

import pickle
from typing import Iterable, Optional

import numpy as np

from repro.geometry import Rect
from repro.sharding.index import EXACT_KINDS, ShardedSpatialIndex
from repro.sharding.policy import ShardingPolicy, make_policy
from repro.sharding.router import ShardRouter

__all__ = ["ServingSpec"]


class ServingSpec:
    """Everything needed to rebuild one sharded index, bit-for-bit.

    Parameters
    ----------
    factory:
        A picklable ``factory(points, shard_id, stats) -> index`` (use
        :func:`~repro.sharding.shard_index_factory`).
    policy:
        A resolved :class:`ShardingPolicy` **instance** (never a name: the
        resolved regions are part of the identity being shipped).
    shard_points:
        ``shard_id -> (n, 2) array`` of each shard's points, in the build
        order of the index being mirrored.
    cache_blocks / cache_policy / name:
        Forwarded to every rebuilt :class:`ShardedSpatialIndex`.
    """

    def __init__(
        self,
        factory,
        policy: ShardingPolicy,
        shard_points: dict,
        *,
        cache_blocks: Optional[int] = None,
        cache_policy: str = "lru",
        name: Optional[str] = None,
    ):
        if not isinstance(policy, ShardingPolicy):
            raise TypeError("ServingSpec requires a resolved ShardingPolicy instance")
        self.factory = factory
        self.policy = policy
        self.shard_points = {
            int(shard_id): np.asarray(points, dtype=float).reshape(-1, 2)
            for shard_id, points in shard_points.items()
        }
        kind = getattr(factory, "kind", None)
        #: capability flag of the kind every rebuilt shard wraps
        self.supports_exact_results = kind in EXACT_KINDS
        self.cache_blocks = cache_blocks
        self.cache_policy = cache_policy
        self.name = name or f"Serving[{kind or 'index'}x{policy.n_shards}:{policy.name}]"

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_points(
        cls,
        factory,
        points: np.ndarray,
        n_shards: int = 4,
        policy="grid",
        data_space: Optional[Rect] = None,
        **kwargs,
    ) -> "ServingSpec":
        """Partition ``points`` the way :meth:`ShardedSpatialIndex.build`
        would: same policy resolution, same owner computation, same
        per-shard array order — so a spec-built index and a directly built
        one are byte-identical."""
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        if points.shape[0] == 0:
            raise ValueError("cannot build a serving spec over an empty point set")
        data_space = data_space if data_space is not None else Rect.unit()
        if not isinstance(policy, ShardingPolicy):
            policy = make_policy(policy, n_shards, data_space, sample=points)
        owners = ShardRouter(policy).shards_for_points(points)
        shard_points = {
            shard_id: points[owners == shard_id] for shard_id in range(policy.n_shards)
        }
        return cls(factory, policy, shard_points, **kwargs)

    @classmethod
    def from_index(cls, index: ShardedSpatialIndex, **kwargs) -> "ServingSpec":
        """Snapshot a *built* sharded index — including one whose topology
        the online rebalancer has already refined (the adaptive policy and
        the live per-shard point sets pickle along)."""
        index._require_built()
        shard_points = {
            shard_id: index.live_shard_points(shard_id)
            for shard_id in range(index.n_shards)
        }
        kwargs.setdefault("cache_blocks", index.cache_blocks)
        kwargs.setdefault("cache_policy", index.cache_policy)
        kwargs.setdefault("name", index.name)
        return cls(index.factory, index.policy, shard_points, **kwargs)

    # -- derived views ---------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self.policy.n_shards

    @property
    def n_points(self) -> int:
        return sum(points.shape[0] for points in self.shard_points.values())

    def subset(self, shard_ids: Iterable[int]) -> "ServingSpec":
        """The spec restricted to ``shard_ids`` (a worker's owned shards).

        The policy ships whole — workers must route and reason about the
        full topology — only the point payload is restricted.
        """
        keep = set(int(s) for s in shard_ids)
        return ServingSpec(
            self.factory,
            self.policy,
            {s: p for s, p in self.shard_points.items() if s in keep},
            cache_blocks=self.cache_blocks,
            cache_policy=self.cache_policy,
            name=self.name,
        )

    def build_index(self) -> ShardedSpatialIndex:
        """Rebuild a :class:`ShardedSpatialIndex` over this spec's shards.

        The policy is deep-copied (pickle round-trip) so concurrent rebuilds
        — the parent's router, each worker, a test's reference index — never
        share mutable policy state.
        """
        index = ShardedSpatialIndex(
            self.factory,
            policy=pickle.loads(pickle.dumps(self.policy)),
            name=self.name,
            cache_blocks=self.cache_blocks,
            cache_policy=self.cache_policy,
        )
        return index.build_assigned(self.shard_points)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServingSpec(name={self.name!r}, shards={self.n_shards}, "
            f"points={self.n_points})"
        )
