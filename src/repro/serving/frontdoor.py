"""The async front door: admission control, rate limiting, adaptive batching.

:class:`FrontDoor` accepts an interleaved multi-tenant
:class:`~repro.workloads.stream.Operation` stream and serves it against any
batch engine (the process-pool :class:`~repro.serving.ParallelShardEngine`,
or the single-process engines) from an asyncio event loop:

* **admission control** — each tenant gets a :class:`TokenBucket` refilled
  by the operations' *virtual* arrival instants, so the accept/reject
  sequence is a pure function of the stream (same spec + seed ⇒ identical
  decisions, asserted by the seeded admission test) and never depends on
  wall-clock scheduling;
* **overload shedding** — in paced mode a bounded inflight queue
  (``max_inflight``) drops arrivals that find it full, which is the
  wall-clock counterpart of the hockey-stick the latency sweeps measure;
* **adaptive batching** — the dispatcher takes ``clamp(queue_depth,
  min_batch, max_batch)`` operations per engine call: deep queues amortise
  per-call overhead into big batches, low rates shrink toward single-op
  dispatch and shave the batch-of-64 service quantum.

Reads batch together (split per kind, like the scenario runner's flush);
writes dispatch singly and never re-order around reads — the stream's
read/write interleaving is preserved exactly, so collected answers are
byte-identical to a sequential replay of the accepted operations.

:func:`admit_operations` applies the same token-bucket admission as a
deterministic stream pre-filter (no event loop), which is what the CLI's
``--tenant-rate`` uses so oracle-checked scenario runs stay reproducible.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.workloads.latency import LatencySummary, PercentileSketch
from repro.workloads.stream import Operation, read_requests

__all__ = [
    "TokenBucket",
    "AdmissionReport",
    "admit_operations",
    "FrontDoor",
    "FrontDoorReport",
]

_READ_KINDS = ("point", "window", "knn")


class TokenBucket:
    """A token bucket refilled along a (virtual or wall) timeline.

    ``rate`` tokens accrue per second up to ``burst``; each admitted
    operation spends one.  Driven by the stream's virtual arrival instants
    the decisions are deterministic — time only ever moves forward, and
    same timestamps ⇒ same refills ⇒ same accept/reject sequence.
    """

    def __init__(self, rate: float, burst: float):
        if rate <= 0:
            raise ValueError("rate must be > 0")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last = 0.0

    def admit(self, now: float) -> bool:
        """Spend one token at instant ``now``; False when none is available."""
        now = float(now)
        if now > self._last:
            self.tokens = min(self.burst, self.tokens + (now - self._last) * self.rate)
            self._last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class AdmissionReport:
    """The deterministic outcome of token-bucket admission over one stream."""

    n_offered: int = 0
    n_accepted: int = 0
    #: per-tenant rate-limit drops
    drops_by_tenant: dict = field(default_factory=dict)
    #: one accept/reject flag per offered operation, in stream order
    decisions: list = field(default_factory=list)

    @property
    def n_dropped(self) -> int:
        return self.n_offered - self.n_accepted

    def as_dict(self) -> dict:
        return {
            "n_offered": self.n_offered,
            "n_accepted": self.n_accepted,
            "n_dropped": self.n_dropped,
            "drops_by_tenant": {str(t): n for t, n in sorted(self.drops_by_tenant.items())},
        }


class _Admission:
    """Lazily created per-tenant buckets sharing one (rate, burst) config."""

    def __init__(self, tenant_rate: Optional[float], burst: float):
        self.tenant_rate = tenant_rate
        self.burst = float(burst)
        self._buckets: dict[int, TokenBucket] = {}
        self.report = AdmissionReport()

    def admit(self, op: Operation) -> bool:
        self.report.n_offered += 1
        if self.tenant_rate is None:
            accepted = True
        else:
            bucket = self._buckets.get(op.tenant)
            if bucket is None:
                bucket = self._buckets[op.tenant] = TokenBucket(
                    self.tenant_rate, self.burst
                )
            accepted = bucket.admit(op.arrival_time)
        self.report.decisions.append(accepted)
        if accepted:
            self.report.n_accepted += 1
        else:
            self.report.drops_by_tenant[op.tenant] = (
                self.report.drops_by_tenant.get(op.tenant, 0) + 1
            )
        return accepted


def admit_operations(
    operations: Sequence[Operation],
    tenant_rate: float,
    burst: float = 8.0,
) -> tuple[list[Operation], AdmissionReport]:
    """Filter a stream through per-tenant token buckets, deterministically.

    Dropped operations vanish for every consumer alike — the index under
    test and the shadow oracle replay the same accepted stream, so all the
    differential machinery keeps working on rate-limited runs.
    """
    admission = _Admission(float(tenant_rate), burst)
    accepted = [op for op in operations if admission.admit(op)]
    return accepted, admission.report


@dataclass
class FrontDoorReport:
    """What one :meth:`FrontDoor.serve` call did."""

    #: the admission outcome (deterministic part)
    admission: AdmissionReport
    #: paced-mode arrivals shed because the inflight queue was full
    n_shed: int = 0
    #: operations actually executed
    n_served: int = 0
    #: engine-call batch sizes, in dispatch order
    batch_sizes: list = field(default_factory=list)
    #: wall-clock sojourn summary (enqueue -> completion; paced mode only)
    sojourn: Optional[LatencySummary] = None
    #: wall seconds between first dispatch and last completion
    elapsed_s: float = 0.0
    #: answers aligned to the served operations (when collected)
    answers: Optional[list] = None

    @property
    def mean_batch_size(self) -> float:
        return float(np.mean(self.batch_sizes)) if self.batch_sizes else 0.0


class FrontDoor:
    """Serve an operation stream against a batch engine from an event loop.

    Parameters
    ----------
    engine:
        Any batch engine: reads go through ``execute(QueryRequest)`` and
        writes through ``engine.index`` (the process-pool engine is its own
        index, so its writes reach the owning worker).
    max_inflight:
        Bound on queued-but-undispatched operations; in paced mode an
        arrival finding the queue full is shed.
    tenant_rate / tenant_burst:
        Per-tenant token-bucket admission over virtual arrival times
        (None disables admission).
    min_batch / max_batch:
        Adaptive-batching clamp on the per-dispatch batch size.
    collect_answers:
        Retain every served operation's answer (for differential tests).
    """

    def __init__(
        self,
        engine,
        *,
        max_inflight: int = 256,
        tenant_rate: Optional[float] = None,
        tenant_burst: float = 8.0,
        min_batch: int = 1,
        max_batch: int = 64,
        collect_answers: bool = False,
    ):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if not 1 <= min_batch <= max_batch:
            raise ValueError("need 1 <= min_batch <= max_batch")
        self.engine = engine
        self.max_inflight = int(max_inflight)
        self.tenant_rate = tenant_rate
        self.tenant_burst = float(tenant_burst)
        self.min_batch = int(min_batch)
        self.max_batch = int(max_batch)
        self.collect_answers = bool(collect_answers)

    # -- public entry ----------------------------------------------------------

    def serve(
        self,
        operations: Sequence[Operation],
        paced: bool = False,
        speed: float = 1.0,
    ) -> FrontDoorReport:
        """Run the stream to completion and return the report.

        ``paced=False`` offers every operation immediately (admission still
        applies on virtual time; nothing is shed) — the deterministic mode
        the differential tests use.  ``paced=True`` is the wall-clock load
        generator: operation ``i`` is offered at
        ``arrival_time / speed`` seconds after the start, the inflight
        bound sheds overload, and per-op sojourns are measured.
        """
        return asyncio.run(self._serve(list(operations), paced, float(speed)))

    # -- the loop ----------------------------------------------------------------

    async def _serve(
        self, operations: list[Operation], paced: bool, speed: float
    ) -> FrontDoorReport:
        if speed <= 0:
            raise ValueError("speed must be > 0")
        loop = asyncio.get_running_loop()
        admission = _Admission(self.tenant_rate, self.tenant_burst)
        report = FrontDoorReport(admission=admission.report)
        answers: list = [] if self.collect_answers else None
        queue: list[tuple[Operation, float]] = []
        sojourns = PercentileSketch()
        arrived = asyncio.Event()
        producer_done = False
        started = time.perf_counter()

        async def producer() -> None:
            nonlocal producer_done
            for op in operations:
                if paced:
                    delay = op.arrival_time / speed - (time.perf_counter() - started)
                    if delay > 0:
                        await asyncio.sleep(delay)
                if not admission.admit(op):
                    continue
                if paced and len(queue) >= self.max_inflight:
                    report.n_shed += 1
                    continue
                queue.append((op, time.perf_counter()))
                arrived.set()
            producer_done = True
            arrived.set()

        async def consumer() -> None:
            while True:
                if not queue:
                    if producer_done:
                        return
                    arrived.clear()
                    await arrived.wait()
                    continue
                batch = self._take_batch(queue)
                report.batch_sizes.append(len(batch))
                done_at = await loop.run_in_executor(
                    None, self._execute, [op for op, _ in batch], answers
                )
                report.n_served += len(batch)
                for _, enqueued in batch:
                    sojourns.add(done_at - enqueued)

        producer_task = asyncio.ensure_future(producer())
        consumer_task = asyncio.ensure_future(consumer())
        try:
            await asyncio.gather(producer_task, consumer_task)
        finally:
            for task in (producer_task, consumer_task):
                task.cancel()
        report.elapsed_s = time.perf_counter() - started
        if paced:
            report.sojourn = LatencySummary.from_sketch(sojourns)
        report.answers = answers
        return report

    def _take_batch(self, queue: list) -> list:
        """Pop the next adaptive batch: a run of reads, or one write.

        The batch size follows the queue depth (clamped to
        ``[min_batch, max_batch]``); a write at the head dispatches alone,
        and a write inside the window ends the read run early — stream
        order is never violated.
        """
        size = max(self.min_batch, min(len(queue), self.max_batch))
        if queue[0][0].kind not in _READ_KINDS:
            return [queue.pop(0)]
        run = 0
        while run < size and run < len(queue) and queue[run][0].kind in _READ_KINDS:
            run += 1
        batch = queue[:run]
        del queue[:run]
        return batch

    def _execute(self, ops: list[Operation], answers: Optional[list]) -> float:
        """Run one batch on the engine (executor thread); returns the
        completion instant.  Reads split per kind but results append in
        stream order when collected."""
        slot_answers: dict[int, object] = {}
        for positions, request in read_requests(ops):
            result = self.engine.execute(request)
            for position, answer in zip(positions, result.values):
                slot_answers[position] = answer
        index = self.engine.index
        for position, op in enumerate(ops):
            if op.kind == "insert":
                index.insert(op.x, op.y)
                slot_answers[position] = None
            elif op.kind == "delete":
                slot_answers[position] = bool(index.delete(op.x, op.y))
        if answers is not None:
            for position in range(len(ops)):
                answers.append(slot_answers.get(position))
        return time.perf_counter()
