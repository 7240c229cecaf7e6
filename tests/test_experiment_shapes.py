"""Pinned shapes of Exp-4/5/6 (Figs. 10-12) on the SB stand-in.

The simulator runs in virtual time (operation counts), so these numbers
are deterministic: they are the values EXPERIMENTS.md records for
``jobs/exp4_scalability.py``, ``jobs/exp5_memory.py`` and
``jobs/exp6_worksteal.py``. Each test runs the job's own protocol, with
Exp-4 cut to p in {1, 20, 40}.
"""
import pytest

from repro.core.order import compute_matching_order
from repro.core.plan import compile_plan
from repro.engine.scheduler import (
    simulate_bfs,
    simulate_workstealing,
    theorem_vi1_bound_bytes,
)
from repro.engine.tasks import HGMatchTaskExecutor
from repro.experiments.datasets import make_dataset
from repro.experiments.harness import pick_heavy_queries
from repro.hyper.queries import QuerySetting, sample_queries
from repro.hyper.storage import SignatureStore


@pytest.fixture(scope="module")
def sb():
    H = make_dataset("SB")
    return H, SignatureStore(H)


@pytest.fixture(scope="module")
def heavy_plans(sb):
    """q3^1 and q3^2: ``(count, plan)`` of Exp-4's two heaviest q3."""
    H, store = sb
    return [
        (count, compile_plan(q, compute_matching_order(q, store.card)))
        for count, q in pick_heavy_queries(H, store)
    ]


def simulate(plan, store, p, **kw):
    return simulate_workstealing(HGMatchTaskExecutor(plan, store), p, **kw)


def test_exp4_scalability_q3_1(sb, heavy_plans):
    _, store = sb
    count, plan = heavy_plans[0]
    assert count == 43_938
    sims = {p: simulate(plan, store, p, numa_threshold=20) for p in (1, 20, 40)}
    assert {p: round(s.makespan) for p, s in sims.items()} == {
        1: 1_841_725, 20: 113_882, 40: 71_783,
    }
    assert all(s.emitted == count for s in sims.values())
    speedup = {p: sims[1].makespan / s.makespan for p, s in sims.items()}
    assert round(speedup[20], 2) == 16.17
    assert max(speedup.values()) > 8  # near-linear region


def test_exp5_memory(sb):
    H, store = sb
    queries = sample_queries(H, QuerySetting("q3", 3, 10, 20), 20, seed=11)
    ratios = []
    for sq in queries:
        plan = compile_plan(sq.query, compute_matching_order(sq.query, store.card))
        task = simulate(plan, store, 20)
        bfs = simulate_bfs(HGMatchTaskExecutor(plan, store))
        assert task.emitted == bfs.emitted
        assert task.peak_task_bytes <= theorem_vi1_bound_bytes(plan, store, 20)
        ratios.append((bfs.peak_intermediate_bytes / task.peak_task_bytes, task.emitted))
    ratio, emitted = max(ratios)
    assert round(ratio, 1) == 26.8
    assert emitted == 40_570  # the result-heaviest query


def test_exp6_worksteal(sb, heavy_plans):
    _, store = sb
    count, plan = heavy_plans[1]
    assert count == 37_055
    steal = simulate(plan, store, 20)
    nostl = simulate(plan, store, 20, steal=False, scatter_roots=True)
    assert steal.emitted == nostl.emitted == count
    assert round(steal.load_imbalance, 3) == 1.058
    assert round(nostl.load_imbalance, 3) == 1.707
    assert steal.n_steals == 944
    assert steal.load_imbalance <= nostl.load_imbalance
