"""Task-based LIFO scheduler + dynamic work stealing (Sections VI-B/C).

A discrete-event simulator over the real task tree: each worker owns a
deque used LIFO (newly spawned tasks go to the head; execution pops the
head), so memory stays bounded (Thm. VI.1). An idle worker steals half
of a random non-empty victim's deque *from the tail* — the oldest,
shallowest, hence largest-subtree tasks — which is the fine-grained
dynamic load balancing of Section VI-C.

Virtual time: executing a task advances its worker's clock by the
task's measured operation count (see :mod:`repro.engine.tasks`), plus a
fixed ``STEAL_OVERHEAD`` per steal. Causality is respected: a task
cannot start before the virtual time its parent finished (its *ready
time*). The simulated makespan with p workers therefore reflects
genuine work distribution; Exp-4's speedups are
``makespan(1) / makespan(p)``. A NUMA model (paper: knee beyond 20
threads = one physical socket) multiplies task costs by
``NUMA_PENALTY`` for workers beyond ``numa_threshold`` — DESIGN.md
substitution #7.

Event queue: the next task runs on the worker with the least
``(start_time, w)``, where ``start_time = max(clock, head ready time)``.
A heap holds an entry for every worker with work: one is pushed after
the worker executes a task and after it steals. An entry is *stale*
once its worker's queue is empty or its time no longer equals the
worker's start time, and is skipped when popped. A victim keeps at
least one task, so its head, and its entry, stay valid. The least valid
entry is thus exactly the scan ``min((start_time(w), w))`` over all
workers with work, tie-break on ``w`` included.

Steal phase: before each task, every idle worker in ascending order
steals from a victim drawn among the workers holding more than one
task. The phase runs only while the incrementally kept counts of idle
workers and of such victims are both non-zero. That gate is exact: a
phase without an idle worker or without a victim steals nothing, draws
no random number and changes no state. Per task the simulator costs
O(log p), plus O(p) per idle thief only in a phase that can steal.

Memory accounting: the live byte total of queued task payloads is
maintained incrementally; its peak is the Thm. VI.1 quantity. A task's
payload size depends only on its step, so it is computed once per batch
of siblings and kept in the queue entry for the pop. The BFS
strawman (Exp-5) materialises every intermediate-result level instead.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.engine.tasks import ROOT, HGMatchTaskExecutor, payload_nbytes

# Virtual time a thief spends on one steal, in operation-count units.
STEAL_OVERHEAD = 8.0
# Task-cost multiplier of a worker at or beyond ``numa_threshold``.
NUMA_PENALTY = 1.3


@dataclass
class SimResult:
    n_workers: int
    makespan: float
    busy: list[float]            # per-worker execution time (Exp-6)
    total_cost: float            # sum of task costs (sequential work)
    peak_task_bytes: int         # live task-queue memory peak (Exp-5)
    n_tasks: int
    n_steals: int
    emitted: int                 # embeddings counted by SINK tasks
    steal_time: list[float] = field(default_factory=list)

    @property
    def load_imbalance(self) -> float:
        """max busy / mean busy — 1.0 is perfect balance."""
        mean = sum(self.busy) / max(1, len(self.busy))
        return max(self.busy) / mean if mean > 0 else 1.0


def theorem_vi1_bound_bytes(plan, store, n_workers: int = 1) -> int:
    """The Thm. VI.1 memory bound, in bytes (8 bytes per vertex id):
    ``O(bar{a}_q x |E(q)|^2 x |E(H)|)`` per task queue."""
    aq = plan.q.avg_arity
    nq = plan.n_steps
    ne = max(1, store.H.n_edges)
    per_queue = int(8 * max(1.0, aq) * nq * nq * ne) + 8 * nq * ne
    return n_workers * per_queue


def simulate_workstealing(
    executor: HGMatchTaskExecutor,
    n_workers: int,
    *,
    steal: bool = True,
    seed: int = 0,
    numa_threshold: int | None = None,
    scatter_roots: bool = False,
) -> SimResult:
    """Run the full matching job on ``n_workers`` simulated workers.

    ``steal=False`` + ``scatter_roots=True`` reproduces the paper's
    'HGMatch-NOSTL' configuration (static assignment of the firstly
    matched hyperedges, Exp-6). With stealing, the root SCAN output
    stays on worker 0 and spreads purely by stealing.

    Queues hold ``(task, ready_time, nbytes)`` entries; ``ready_time``
    is the spawning worker's clock when the task was pushed, and
    execution starts at ``max(worker clock, ready_time)``.
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    rng = np.random.default_rng(seed)
    aq = executor.plan.q.avg_arity
    queues: list[deque[tuple[tuple, float, int]]] = [deque() for _ in range(n_workers)]
    clocks = [0.0] * n_workers
    busy = [0.0] * n_workers
    steal_time = [0.0] * n_workers
    # NUMA model: task cost multiplier per worker.
    mult = [
        NUMA_PENALTY if numa_threshold is not None and w >= numa_threshold else 1.0
        for w in range(n_workers)
    ]
    live_bytes = 0
    peak_bytes = 0
    n_tasks = 0
    n_steals = 0
    emitted = 0
    total_cost = 0.0

    def push(w: int, tasks: list[tuple], ready: float) -> None:
        nonlocal live_bytes, peak_bytes
        nbytes = payload_nbytes(tasks[0], aq)  # siblings share a step
        # To the head, in order.
        queues[w].extendleft((t, ready, nbytes) for t in reversed(tasks))
        live_bytes += nbytes * len(tasks)
        peak_bytes = max(peak_bytes, live_bytes)

    def start_time(w: int) -> float:
        return max(clocks[w], queues[w][0][1])

    # Seed: SCAN executes on worker 0; its children either stay (steal
    # mode) or are scattered round-robin (static NOSTL mode).
    root_out = executor.execute(ROOT)
    total_cost += root_out.cost
    busy[0] += root_out.cost
    clocks[0] += root_out.cost * mult[0]
    n_tasks += 1
    if scatter_roots and root_out.children:
        nbytes = payload_nbytes(root_out.children[0], aq)
        for i, t in enumerate(root_out.children):
            queues[i % n_workers].append((t, clocks[0], nbytes))
        live_bytes += nbytes * len(root_out.children)
        peak_bytes = max(peak_bytes, live_bytes)
    elif root_out.children:
        push(0, root_out.children, clocks[0])

    heap = [(start_time(w), w) for w in range(n_workers) if queues[w]]
    heapq.heapify(heap)
    n_idle = sum(1 for q in queues if not q)
    n_multi = sum(1 for q in queues if len(q) > 1)  # possible victims
    while True:
        if steal and n_idle and n_multi:
            # Every idle worker steals half a victim's deque (tail end);
            # steal timing is reflected through task ready times and the
            # thief's own clock, so no clock gate is needed here.
            for w in range(n_workers):
                if queues[w]:
                    continue
                victims = [x for x in range(n_workers) if len(queues[x]) > 1]
                if not victims:
                    continue
                v = victims[int(rng.integers(len(victims)))]
                take = len(queues[v]) // 2
                stolen = [queues[v].pop() for _ in range(take)]  # tail
                queues[w].extend(reversed(stolen))  # keep relative order
                # Causality of the stolen tasks is enforced by their
                # per-task ready times at execution; the thief only
                # pays the steal overhead here.
                clocks[w] += STEAL_OVERHEAD
                steal_time[w] += STEAL_OVERHEAD
                n_steals += 1
                heapq.heappush(heap, (start_time(w), w))
            # Recount: O(p), against the phase's O(p) per idle thief.
            n_idle = sum(1 for q in queues if not q)
            n_multi = sum(1 for q in queues if len(q) > 1)
        # Next event: the earliest (start_time, w), skipping stale entries.
        while heap:
            t, w = heapq.heappop(heap)
            if queues[w] and t == start_time(w):
                break
        else:
            break
        queue = queues[w]
        was_multi = len(queue) > 1
        task, ready, nbytes = queue.popleft()
        live_bytes -= nbytes
        out = executor.execute(task)
        n_tasks += 1
        total_cost += out.cost
        busy[w] += out.cost
        clocks[w] = max(clocks[w], ready) + out.cost * mult[w]
        emitted += out.emitted
        if out.children:
            push(w, out.children, clocks[w])
        if queue:
            heapq.heappush(heap, (start_time(w), w))
        else:
            n_idle += 1
        n_multi += (len(queue) > 1) - was_multi
    assert not any(queues), "a queued task lost its heap entry"

    return SimResult(
        n_workers=n_workers,
        makespan=max(clocks),
        busy=busy,
        total_cost=total_cost,
        peak_task_bytes=peak_bytes,
        n_tasks=n_tasks,
        n_steals=n_steals,
        emitted=emitted,
        steal_time=steal_time,
    )


@dataclass
class BfsResult:
    peak_intermediate_bytes: int
    peak_intermediate_count: int
    total_cost: float
    emitted: int
    n_tasks: int


def simulate_bfs(executor: HGMatchTaskExecutor) -> BfsResult:
    """BFS-style scheduling strawman (Exp-5): materialise the entire
    intermediate-result frontier level by level, as PGX.ISO-style BFS
    engines do; memory peaks at the widest level."""
    aq = executor.plan.q.avg_arity
    frontier = [ROOT]
    peak_bytes = sum(payload_nbytes(t, aq) for t in frontier)
    peak_count = len(frontier)
    total_cost = 0.0
    emitted = 0
    n_tasks = 0
    while frontier:
        nxt: list[tuple] = []
        for t in frontier:
            out = executor.execute(t)
            n_tasks += 1
            total_cost += out.cost
            emitted += out.emitted
            nxt.extend(out.children)
        level_bytes = sum(payload_nbytes(t, aq) for t in nxt)
        peak_bytes = max(peak_bytes, level_bytes)
        peak_count = max(peak_count, len(nxt))
        frontier = nxt
    return BfsResult(peak_bytes, peak_count, total_cost, emitted, n_tasks)
