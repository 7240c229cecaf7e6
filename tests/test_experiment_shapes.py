"""Pinned shapes of the single-thread grid (Table IV, Exp-3) and of
Exp-4/5/6 (Figs. 10-12) on the SB stand-in.

Op budgets and the simulator's virtual time (operation counts) make
these numbers deterministic: they are the values EXPERIMENTS.md records
for ``jobs/single_thread.py``, ``jobs/exp4_scalability.py``,
``jobs/exp5_memory.py`` and ``jobs/exp6_worksteal.py``. Each test runs
the job's own protocol, with Table IV cut to HC's first q2 and q3
query and Exp-4 cut to p in {1, 20, 40}.
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
from repro.experiments.datasets import SINGLE_THREAD_DATASETS, make_dataset
from repro.experiments.harness import (
    completion_table,
    filtering_table,
    pick_heavy_queries,
    run_queries,
)
from repro.hyper.queries import TABLE3_SETTINGS, QuerySetting, sample_queries
from repro.hyper.storage import SignatureStore


SINGLE_THREAD = list(TABLE3_SETTINGS[:2])  # q2 + q3


def test_exp3_filtering():
    records = []
    for ds in SINGLE_THREAD_DATASETS:
        records += run_queries(ds, SINGLE_THREAD, algos=["HGMatch"])
    assert all(r.completed for r in records)
    # (ops, count) of q2^0..2 then q3^0..2: the budget unit of Table IV.
    assert {
        ds: [(r.ops, r.count) for r in records if r.dataset == ds]
        for ds in SINGLE_THREAD_DATASETS
    } == {
        "HC": [(99, 2), (66, 1), (50, 1), (150, 1), (161, 1), (310, 2)],
        "MA": [(44, 1), (41, 1), (41, 1), (121, 1), (115, 1), (119, 1)],
        "CH": [(31, 2), (148, 12), (17, 1), (970, 52), (2505, 136), (1417, 77)],
        "CP": [(119, 10), (27, 1), (23, 1), (59, 1), (273, 13), (53, 1)],
        "SB": [(1225, 59), (40856, 1424), (5252, 165),
               (2557, 48), (792379, 11011), (151080, 5422)],
        "HB": [(13192, 516), (898, 47), (6975, 270),
               (2473, 24), (10489, 87), (63185, 1289)],
        "WT": [(46, 2), (32, 1), (47, 1), (137, 2), (851, 25), (347, 4)],
        "TC": [(20, 1), (35, 1), (29, 1), (94, 2), (101, 1), (86, 1)],
        "SA": [(29, 1), (59, 1), (50, 1), (93, 1), (107, 1), (92, 1)],
    }
    tab = filtering_table(records)
    funnel = tab[["candidates", "filtered", "embeddings"]]
    assert {ds: tuple(row) for ds, row in funnel.iterrows()} == {
        "SB": (37_756, 19_691, 19_691),
        "HB": (3_429, 2_808, 2_808),
        "CH": (311, 308, 308),
        "WT": (52, 52, 52),
        "CP": (38, 38, 38),
        "HC": (25, 25, 25),
        "TC": (16, 16, 16),
        "MA": (15, 15, 15),
        "SA": (15, 15, 15),
        "ALL": (41_657, 22_968, 22_968),
    }


def test_table4_completion_hc():
    records = run_queries("HC", SINGLE_THREAD, n_queries=1)
    hg = [(r.ops, r.count) for r in records if r.algo == "HGMatch"]
    assert hg == [(99, 2), (150, 1)]  # the grid's first q2 and q3
    done = {(r.algo, r.setting) for r in records if r.completed}
    assert done == {("HGMatch", "q2"), ("HGMatch", "q3"), ("RapidMatch", "q2")}
    assert completion_table(records)["HC"].to_dict() == {
        "CECI-H": 0.0, "CFL-H": 0.0, "DAF-H": 0.0, "HGMatch": 100.0, "RapidMatch": 50.0,
    }


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
