"""Metric definitions: end-to-end from passes, per layer from a traced pass.

Every metric has a fixed unit here; ``BENCHMARK.json`` lists the same
names.  Definitions are in ``README.md`` next to this file.
"""

from __future__ import annotations

import numpy as np

from workloads import LATENCY_KINDS

__all__ = ["END_TO_END_UNITS", "PER_LAYER_UNITS", "end_to_end", "per_layer", "pool_counters"]

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    **{f"{kind}_{q}_us": "us" for kind in LATENCY_KINDS for q in ("p50", "p99")},
    "blocks_per_op": "blocks/op",
    "recall": "frac",
    "bytes_per_point": "B/point",
}

PER_LAYER_UNITS = {
    "engine.self_us_per_op": "us/op",
    "engine.chains_loaded_per_op": "chains/op",
    "engine.routing.self_us_per_op": "us/op",
    "engine.routing.rows_per_call": "rows/call",
    "core.rsmi.descents_per_op": "descents/op",
    "core.rsmi.models_per_descent": "models/descent",
    "core.rsmi.self_us_per_descent": "us/descent",
    "core.leaf_model.scan_width_mean": "blocks",
    "core.leaf_model.self_us_per_op": "us/op",
    "nn.calls_per_op": "calls/op",
    "nn.rows_per_call": "rows/call",
    "nn.self_us_per_op": "us/op",
    "core.knn.expansions_per_query": "rounds/query",
    "core.knn.blocks_per_query": "blocks/query",
    "core.knn.points_examined_per_result": "points/result",
    "core.knn.self_us_per_query": "us/query",
    "core.window.blocks_per_window": "blocks/window",
    "core.window.scan_utilisation": "frac",
    "core.updates.self_us_per_write": "us/write",
    "core.updates.overflow_allocs_per_1k_writes": "allocs/1k",
    "core.updates.max_chain_depth": "blocks",
    "storage.block_store.logical_reads_per_op": "reads/op",
    "storage.block_store.writes_per_write": "writes/write",
    "storage.block_store.self_us_per_op": "us/op",
    "storage.block.contains_calls_per_op": "calls/op",
    "storage.block.rows_scanned_per_op": "rows/op",
    "storage.block.self_us_per_op": "us/op",
    "storage.buffer_pool.hit_ratio": "frac",
    "storage.buffer_pool.evictions_per_op": "evictions/op",
    "storage.buffer_pool.invalidations_per_write": "inval/write",
    "storage.buffer_pool.prefetch_hit_frac": "frac",
    "storage.block_file.reads_per_op": "reads/op",
    "storage.block_file.writes_per_write": "writes/write",
    "storage.block_file.self_us_per_op": "us/op",
    "storage.wal.fsyncs_per_write": "fsyncs/write",
    "storage.wal.bytes_per_write": "B/write",
    "storage.wal.self_us_per_write": "us/write",
    "storage.durability.checkpoints": "count",
    "storage.durability.checkpoint_ms_mean": "ms/checkpoint",
    "storage.durability.bytes_written_per_user_byte": "B/B",
    "sharding.fanout_per_op": "shards/op",
    "sharding.hot_shard_share": "frac",
    "sharding.self_us_per_op": "us/op",
    "analytics.rows_folded_per_agg": "rows/agg",
    "analytics.self_us_per_agg": "us/agg",
    "trace.overhead_frac": "frac",
}

#: bytes of user data one write carries: two float64 coordinates
USER_BYTES_PER_WRITE = 16


#: requests whose neighbouring host probes are medianed into their speed
PROBE_WINDOW = 5

#: a request counts when its host was within this share of the run's best
#: speed (the 5th percentile of probe times) ...
PROBE_TOLERANCE = 0.10

#: ... and at least this share of the fastest requests always counts
MIN_KEPT = 0.25

#: samples per time segment, and the most segments, for a kind's p99
P99_SEGMENT = 300
P99_SEGMENTS = 10


def quiet_samples(passes: list) -> list:
    """The timed requests that ran while the host was near its best speed.

    Each request's host speed is the median of the probes run before it and
    its neighbours; a request is kept when that is within
    :data:`PROBE_TOLERANCE` of the run's 5th-percentile probe time, and the
    fastest :data:`MIN_KEPT` share is always kept.  Every kept latency is as
    measured; the selection only drops requests that ran while another
    tenant slowed the host down.
    """
    local = []
    for p in passes:
        probes = np.asarray([sample[3] for sample in p.samples])
        half = PROBE_WINDOW // 2
        padded = np.pad(probes, half, mode="edge")
        local.append(np.median(np.lib.stride_tricks.sliding_window_view(
            padded, PROBE_WINDOW), axis=1))
    local = np.concatenate(local)
    threshold = max(
        np.quantile(local, 0.05) * (1 + PROBE_TOLERANCE), np.quantile(local, MIN_KEPT)
    )
    samples = [sample for p in passes for sample in p.samples]
    return [sample for sample, speed in zip(samples, local) if speed <= threshold]


def _p99(latencies: list) -> float:
    """Median over time-ordered segments of each segment's p99, in us.

    A segment holds at least :data:`P99_SEGMENT` requests, so each
    segment's p99 rests on three or more samples beyond it; the median over
    segments keeps one burst from setting the whole run's tail.  Kinds with
    fewer samples get the plain p99.
    """
    n_segments = max(1, min(P99_SEGMENTS, len(latencies) // P99_SEGMENT))
    parts = np.array_split(np.asarray(latencies, dtype=float), n_segments)
    return float(np.median([np.percentile(part, 99) for part in parts])) * 1e6


def end_to_end(setup_times: list, passes: list) -> tuple[dict, float]:
    """End-to-end metrics and the share of requests they rest on.

    Throughput and latencies come from :func:`quiet_samples` over every
    pass; the exact metrics from the first pass (every pass repeats them).
    """
    kept = quiet_samples(passes)
    values = {"setup_s": float(np.median(setup_times))}
    values["ops_per_s"] = sum(s[1] for s in kept) / sum(s[2] for s in kept)
    for kind in LATENCY_KINDS:
        latencies = [s[2] for s in kept if s[0] == kind]
        values[f"{kind}_p50_us"] = float(np.median(latencies)) * 1e6
        values[f"{kind}_p99_us"] = _p99(latencies)
    exact = passes[0].exact()
    for name in ("blocks_per_op", "recall", "bytes_per_point"):
        values[name] = exact[name]
    return values, len(kept) / sum(len(p.samples) for p in passes)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, traced, untraced, served, pool_before: dict) -> dict:
    """Per-layer metrics of one traced pass (see README.md)."""
    calls = tracer.calls
    counts = tracer.counts
    us = {layer: seconds * 1e6 for layer, seconds in tracer.self_s.items()}
    ops = traced.ops
    writes = traced.attempted["insert"] + traced.attempted["delete"]
    knn = traced.attempted["knn"]
    aggregates = traced.attempted["aggregate"]
    descents = calls["RSMI.route_to_leaf"]
    nn_calls = sum(
        calls[name] for name in (
            "MLPRegressor.predict", "MLPRegressor.predict_one", "MinMaxScaler.transform",
            "LearnedPartitioning.predict_cell", "LearnedPartitioning.predict_cells",
        )
    )
    pool_after = pool_counters(served.pool)
    pool = {key: pool_after[key] - pool_before[key] for key in pool_after}
    shard_ids = sum(tracer.shard_hits.values())
    wal_bytes = counts["wal.bytes"]
    written = wal_bytes + counts["block_file.bytes"] + counts["checkpoint.bytes"]
    checkpoints = tracer.checkpoint_s
    values = {
        "engine.self_us_per_op": _ratio(us.get("engine", 0.0), ops),
        "engine.chains_loaded_per_op": _ratio(counts["engine.chains_loaded"], ops),
        "engine.routing.self_us_per_op": _ratio(us.get("engine.routing", 0.0), ops),
        "engine.routing.rows_per_call": _ratio(counts["routing.rows"], calls["route_batch"]),
        "core.rsmi.descents_per_op": _ratio(descents, ops),
        "core.rsmi.models_per_descent": _ratio(counts["rsmi.models"], descents),
        "core.rsmi.self_us_per_descent": _ratio(us.get("core.rsmi", 0.0), descents),
        "core.leaf_model.scan_width_mean": _ratio(counts["leaf.scan_width"], counts["leaf.scans"]),
        "core.leaf_model.self_us_per_op": _ratio(us.get("core.leaf_model", 0.0), ops),
        "nn.calls_per_op": _ratio(nn_calls, ops),
        "nn.rows_per_call": _ratio(counts["nn.rows"], nn_calls),
        "nn.self_us_per_op": _ratio(us.get("nn", 0.0), ops),
        "core.knn.expansions_per_query": _ratio(counts["knn.expansions"], calls["knn_query"]),
        "core.knn.blocks_per_query": _ratio(counts["knn.blocks"], calls["knn_query"]),
        "core.knn.points_examined_per_result": _ratio(
            counts["knn.examined"], counts["knn.results"]
        ),
        "core.knn.self_us_per_query": _ratio(us.get("core.knn", 0.0), knn),
        "core.window.blocks_per_window": _ratio(traced.window_blocks, traced.window_ops),
        "core.window.scan_utilisation": _ratio(traced.rows_returned, traced.rows_scanned),
        "core.updates.self_us_per_write": _ratio(us.get("core.updates", 0.0), writes),
        "core.updates.overflow_allocs_per_1k_writes": _ratio(
            1000 * calls["BlockStore.allocate_overflow"], writes
        ),
        "core.updates.max_chain_depth": float(
            max((max(store.chain_depths(), default=0) for store in served.stores), default=0)
        ),
        "storage.block_store.logical_reads_per_op": _ratio(calls["BlockStore._touch"], ops),
        "storage.block_store.writes_per_write": _ratio(
            calls["BlockStore.note_write"] + calls["BlockStore.allocate_overflow"], writes
        ),
        "storage.block_store.self_us_per_op": _ratio(us.get("storage.block_store", 0.0), ops),
        "storage.block.contains_calls_per_op": _ratio(calls["Block.contains"], ops),
        "storage.block.rows_scanned_per_op": _ratio(
            counts["block.rows"] + counts["Block.iter_points.next"], ops
        ),
        "storage.block.self_us_per_op": _ratio(us.get("storage.block", 0.0), ops),
        "storage.buffer_pool.hit_ratio": _ratio(counts["pool.hits"], calls["PoolClient.access"]),
        "storage.buffer_pool.evictions_per_op": _ratio(pool["evictions"], ops),
        "storage.buffer_pool.invalidations_per_write": _ratio(
            counts["pool.invalidations"], writes
        ),
        "storage.buffer_pool.prefetch_hit_frac": _ratio(
            pool["prefetch_used"], pool["prefetch_issued"]
        ),
        "storage.block_file.reads_per_op": _ratio(calls["BlockFile.read_block"], ops),
        "storage.block_file.writes_per_write": _ratio(calls["BlockFile.write_block"], writes),
        "storage.block_file.self_us_per_op": _ratio(us.get("storage.block_file", 0.0), ops),
        "storage.wal.fsyncs_per_write": _ratio(counts["wal.fsyncs"], writes),
        "storage.wal.bytes_per_write": _ratio(wal_bytes, writes),
        "storage.wal.self_us_per_write": _ratio(us.get("storage.wal", 0.0), writes),
        "storage.durability.checkpoints": float(len(checkpoints)),
        "storage.durability.checkpoint_ms_mean": (
            float(np.mean(checkpoints)) * 1e3 if checkpoints else 0.0
        ),
        "storage.durability.bytes_written_per_user_byte": _ratio(
            written, USER_BYTES_PER_WRITE * writes
        ) if wal_bytes else 0.0,
        "sharding.fanout_per_op": _ratio(shard_ids, counts["sharding.routed"]),
        "sharding.hot_shard_share": _ratio(
            max(tracer.shard_hits.values(), default=0), shard_ids
        ),
        "sharding.self_us_per_op": _ratio(us.get("sharding", 0.0), ops),
        "analytics.rows_folded_per_agg": _ratio(counts["analytics.rows"], aggregates),
        "analytics.self_us_per_agg": _ratio(us.get("analytics", 0.0), aggregates),
        "trace.overhead_frac": 1.0 - (
            (traced.ops / traced.service_s) / (untraced.ops / untraced.service_s)
        ),
    }
    return values


def pool_counters(pool) -> dict:
    keys = ("evictions", "prefetch_used", "prefetch_issued")
    return {key: (getattr(pool, key) if pool is not None else 0) for key in keys}
