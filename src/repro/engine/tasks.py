"""Task model of the dataflow engine (paper Def. VI.1).

A task is the minimal scheduling unit: a (partial) embedding plus the
operator that will process it. It is the plain tuple ``(step, m)``:
``m`` holds the matched hyperedge ids of steps ``0..step-1`` and the
operator follows from ``step``. Step 0 is SCAN (``m`` is empty) and
spawns one task per hyperedge of the scanned partition; step ``n`` is
SINK, which counts one embedding; any other step is EXPAND, which
extends ``m`` by one hyperedge (Alg. 4 + Alg. 5). SCAN and EXPAND are
both :func:`~repro.core.local_engine.expand_embedding`, the function
the sequential engine runs. Tasks are lightweight — the payload is
just the tuple of matched hyperedge ids (the vertex sets are re-read
from the indexed data hypergraph), matching the paper's "a partial
embedding and a function pointer" remark.

Each execution returns a *cost*: the number of basic set operations the
task performed (the same counters the sequential engine uses), which
the simulator advances virtual worker clocks by. This makes simulated
speedups reflect genuine work distribution rather than Python timing
noise, and makes every experiment deterministic.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.local_engine import check_validation, expand_embedding
from repro.core.plan import CompiledPlan
from repro.hyper.storage import SignatureStore

# SCAN of the empty embedding: the one task every job starts from.
ROOT = (0, ())
# Fixed cost of dispatching one task; SINK costs only this.
BASE_COST = 1.0


def payload_nbytes(task: tuple[int, tuple[int, ...]], avg_arity: float) -> int:
    """Memory accounting for Thm. VI.1: a partial embedding stores
    ~``a_q`` vertex ids per matched hyperedge, 8 bytes each, plus the
    function pointer (8)."""
    return 8 + int(8 * avg_arity * max(1, len(task[1])))


@dataclass
class ExecutionOutcome:
    children: list[tuple[int, tuple[int, ...]]]
    cost: float
    emitted: int  # embeddings finalised by this task (SINK only)


class HGMatchTaskExecutor:
    """Executes ``(step, m)`` tasks against a compiled plan + indexed
    hypergraph. A SCAN or EXPAND task costs the operations it counts in
    ``stats`` (plus ``BASE_COST``), and ``stats`` equals the sequential
    engine's plus ``emitted``."""

    def __init__(
        self,
        plan: CompiledPlan,
        store: SignatureStore,
        *,
        validation: str = "profile",
    ):
        check_validation(validation)
        self.plan = plan
        self.store = store
        self.validation = validation
        self.stats: Counter = Counter()

    def execute(self, task: tuple[int, tuple[int, ...]]) -> ExecutionOutcome:
        step, m = task
        if step == self.plan.n_steps:  # SINK: consume one embedding
            self.stats["emitted"] += 1
            return ExecutionOutcome([], BASE_COST, 1)
        before = self.stats["ops"]
        expanded = expand_embedding(
            self.plan, self.store, step, m, validation=self.validation, stats=self.stats
        )
        cost = BASE_COST + (self.stats["ops"] - before)
        return ExecutionOutcome([(step + 1, c) for c in expanded], cost, 0)
