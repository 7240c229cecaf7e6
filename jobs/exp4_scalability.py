"""Exp-4 (Fig. 10): scalability with the number of threads.

Two high-cardinality q3 queries on the SB stand-in (AR's scaled stand-in loses its
hub-driven result mass, so the heavy-task-tree shape is taken from SB;
see EXPERIMENTS.md) run through the
work-stealing simulator at 1..60 workers; speedup is
``makespan(1) / makespan(p)``. The NUMA model (DESIGN.md #7) kicks in
beyond 20 workers, reproducing the paper's knee.

Run: ``spark-submit jobs/exp4_scalability.py``.
"""
import functools

from repro.core.order import compute_matching_order
from repro.core.plan import compile_plan
from repro.engine.scheduler import simulate_workstealing
from repro.engine.tasks import HGMatchTaskExecutor
from repro.experiments.datasets import make_dataset
from repro.experiments.harness import pick_heavy_queries
from repro.hyper.storage import SignatureStore

THREADS = (1, 2, 4, 8, 16, 20, 24, 32, 40, 60)


def main() -> None:
    H = make_dataset("SB")
    store = SignatureStore(H)
    heavy = pick_heavy_queries(H, store)
    print("== Exp-4: vary number of threads (simulated workers) ==")
    for qi, (count, q) in enumerate(heavy, start=1):
        plan = compile_plan(q, compute_matching_order(q, store.card))
        base = None
        print(f"-- q3^{qi}: {count} embeddings --")
        print(f"{'p':>3} {'makespan':>12} {'speedup':>8} {'steals':>7} {'imbalance':>9}")
        # The task tree is deterministic: execute each task once and
        # replay its recorded outcome at every worker count.
        ex = HGMatchTaskExecutor(plan, store)
        ex.execute = functools.cache(ex.execute)
        for p in THREADS:
            sim = simulate_workstealing(ex, p, numa_threshold=20)
            if base is None:
                base = sim.makespan
            print(
                f"{p:>3} {sim.makespan:>12.0f} {base / sim.makespan:>8.2f} "
                f"{sim.n_steals:>7} {sim.load_imbalance:>9.3f}"
            )
    print("paper shape: ~linear speedup to 20 threads (20x at 20), "
          "sub-linear beyond due to NUMA/hyper-threading")


if __name__ == "__main__":
    main()
