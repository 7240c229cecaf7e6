"""Tests for the task model + LIFO scheduler + work stealing
(paper Section VI, Theorem VI.1, Exps 4-6)."""
import json
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import pytest

from tests.helpers import small_instance
from repro.core.local_engine import hgmatch
from repro.core.order import compute_matching_order
from repro.core.plan import compile_plan
from repro.engine.scheduler import (
    simulate_bfs,
    simulate_workstealing,
    theorem_vi1_bound_bytes,
)
from repro.engine.tasks import ROOT, HGMatchTaskExecutor, payload_nbytes
from repro.experiments.datasets import make_dataset
from repro.hyper.model import Hypergraph, fig1_data, fig1_query
from repro.hyper.queries import QuerySetting, sample_query
from repro.hyper.storage import SignatureStore


def make_executor(seed=None, *, fig1=False, dataset=None, scale=0.4, n_edges_q=3):
    if fig1:
        H, q = fig1_data(), fig1_query()
        store = SignatureStore(H)
    elif dataset is not None:
        H = make_dataset(dataset, scale=scale, seed=0)
        store = SignatureStore(H)
        q = sample_query(H, QuerySetting("q", n_edges_q, 2, 40), seed=3).query
    else:
        inst = small_instance(seed, n_edges_q=n_edges_q)
        if inst is None:
            return None
        H, store, q = inst
    plan = compile_plan(q, compute_matching_order(q, store.card))
    return H, store, q, plan


class TestTasks:
    def test_task_tree_fig1(self):
        H, store, q, plan = make_executor(fig1=True)
        ex = HGMatchTaskExecutor(plan, store)
        assert ROOT == (0, ())  # step 0: SCAN of the empty embedding
        out = ex.execute(ROOT)
        assert len(out.children) == 2  # partition {A,C} has e1, e2
        # Step 1 of a 3-step plan: every child is an EXPAND task.
        assert plan.n_steps == 3
        assert all(step == 1 and len(m) == 1 for step, m in out.children)

    def test_sink_counts(self):
        H, store, q, plan = make_executor(fig1=True)
        ex = HGMatchTaskExecutor(plan, store)
        out = ex.execute((3, (0, 2, 4)))  # step n: SINK
        assert out.emitted == 1 and not out.children

    def test_payload_bytes_grow_with_depth(self):
        t1 = (1, (0,))
        t2 = (2, (0, 1))
        assert payload_nbytes(t2, 3.0) > payload_nbytes(t1, 3.0)

    def test_costs_positive(self):
        H, store, q, plan = make_executor(fig1=True)
        ex = HGMatchTaskExecutor(plan, store)
        out = ex.execute(ROOT)
        assert out.cost > 0

    def test_single_hyperedge_query_scans_into_sink(self):
        H = fig1_data()
        store = SignatureStore(H)
        q = Hypergraph(["A", "C"], [[0, 1]])
        plan = compile_plan(q, [0])
        ex = HGMatchTaskExecutor(plan, store)
        out = ex.execute(ROOT)
        assert out.children == [(1, (0,)), (1, (1,))]  # SINK tasks
        assert all(ex.execute(t).emitted == 1 for t in out.children)
        expected = hgmatch(H, store, q)
        assert expected.count == 2
        for p in (1, 3):
            ex = HGMatchTaskExecutor(plan, store)
            sim = simulate_workstealing(ex, p)
            assert sim.emitted == expected.count
            assert ex.stats == expected.stats + Counter(emitted=2)
        assert simulate_bfs(HGMatchTaskExecutor(plan, store)).emitted == 2


class TestConservation:
    """The scheduler must never lose or duplicate work."""

    @pytest.mark.parametrize("p", [1, 2, 3, 8, 17])
    def test_emitted_independent_of_workers(self, p):
        H, store, q, plan = make_executor(fig1=True)
        expected = hgmatch(H, store, q).count
        ex = HGMatchTaskExecutor(plan, store)
        sim = simulate_workstealing(ex, p)
        assert sim.emitted == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_emitted_matches_engine_random(self, seed):
        made = make_executor(seed)
        if made is None:
            pytest.skip("no instance")
        H, store, q, plan = made
        expected = hgmatch(H, store, q)
        for p in (1, 4):
            ex = HGMatchTaskExecutor(plan, store)
            sim = simulate_workstealing(ex, p)
            assert sim.emitted == expected.count
            # One expansion function: the task tree does the sequential
            # engine's work, counted in the same schema.
            for k in ("ops", "candidates", "filtered", "validated"):
                assert ex.stats[k] == expected.stats[k], k
            assert ex.stats["emitted"] == expected.count

    def test_seed_invariance_of_results(self):
        made = make_executor(dataset="SB", scale=0.3)
        H, store, q, plan = made
        counts = {
            simulate_workstealing(
                HGMatchTaskExecutor(plan, store), 6, seed=s
            ).emitted
            for s in range(3)
        }
        assert len(counts) == 1

    def test_bfs_agrees(self):
        made = make_executor(dataset="SB", scale=0.3)
        H, store, q, plan = made
        expected = hgmatch(H, store, q).count
        assert simulate_bfs(HGMatchTaskExecutor(plan, store)).emitted == expected


class TestVirtualTime:
    def test_single_worker_makespan_is_total_cost(self):
        made = make_executor(dataset="SB", scale=0.3)
        H, store, q, plan = made
        sim = simulate_workstealing(HGMatchTaskExecutor(plan, store), 1)
        assert sim.makespan == pytest.approx(sim.total_cost)
        assert sim.n_steals == 0

    def test_makespan_at_least_work_over_p(self):
        made = make_executor(dataset="SB", scale=0.3)
        H, store, q, plan = made
        for p in (2, 4, 8):
            sim = simulate_workstealing(HGMatchTaskExecutor(plan, store), p)
            assert sim.makespan >= sim.total_cost / p - 1e-9

    def test_speedup_increases_with_workers(self):
        made = make_executor(dataset="SB", scale=0.4)
        H, store, q, plan = made
        m1 = simulate_workstealing(HGMatchTaskExecutor(plan, store), 1).makespan
        m4 = simulate_workstealing(HGMatchTaskExecutor(plan, store), 4).makespan
        m8 = simulate_workstealing(HGMatchTaskExecutor(plan, store), 8).makespan
        assert m1 > m4 > m8

    def test_numa_penalty_slows_extra_workers(self):
        made = make_executor(dataset="SB", scale=0.4)
        H, store, q, plan = made
        fast = simulate_workstealing(
            HGMatchTaskExecutor(plan, store), 8, numa_threshold=None
        )
        slow = simulate_workstealing(
            HGMatchTaskExecutor(plan, store), 8, numa_threshold=2
        )
        assert slow.makespan > fast.makespan

    def test_invalid_worker_count(self):
        made = make_executor(fig1=True)
        H, store, q, plan = made
        with pytest.raises(ValueError):
            simulate_workstealing(HGMatchTaskExecutor(plan, store), 0)


class TestMemoryBound:
    def test_peak_under_theorem_vi1(self):
        for ds in ("SB", "CH"):
            made = make_executor(dataset=ds, scale=0.3)
            H, store, q, plan = made
            for p in (1, 4, 20):
                sim = simulate_workstealing(HGMatchTaskExecutor(plan, store), p)
                assert sim.peak_task_bytes <= theorem_vi1_bound_bytes(plan, store, p)

    def test_bfs_exceeds_task_based_on_result_heavy_query(self):
        made = make_executor(dataset="SB", scale=0.5)
        H, store, q, plan = made
        sim = simulate_workstealing(HGMatchTaskExecutor(plan, store), 20)
        bfs = simulate_bfs(HGMatchTaskExecutor(plan, store))
        if bfs.emitted >= 500:  # memory gap appears with many results
            assert bfs.peak_intermediate_bytes > sim.peak_task_bytes

    def test_peak_positive(self):
        made = make_executor(fig1=True)
        H, store, q, plan = made
        sim = simulate_workstealing(HGMatchTaskExecutor(plan, store), 2)
        assert sim.peak_task_bytes > 0


class TestLoadBalancing:
    def test_stealing_beats_static_on_skewed_workload(self):
        made = make_executor(dataset="SB", scale=0.5)
        H, store, q, plan = made
        steal = simulate_workstealing(HGMatchTaskExecutor(plan, store), 8)
        nostl = simulate_workstealing(
            HGMatchTaskExecutor(plan, store), 8, steal=False, scatter_roots=True
        )
        assert steal.load_imbalance <= nostl.load_imbalance + 1e-9
        assert steal.emitted == nostl.emitted

    def test_stealing_near_perfect_balance(self):
        made = make_executor(dataset="SB", scale=0.5)
        H, store, q, plan = made
        sim = simulate_workstealing(HGMatchTaskExecutor(plan, store), 8)
        if sim.total_cost > 50_000:  # enough work to balance
            assert sim.load_imbalance < 1.25

    def test_steal_time_recorded(self):
        made = make_executor(dataset="SB", scale=0.4)
        H, store, q, plan = made
        sim = simulate_workstealing(HGMatchTaskExecutor(plan, store), 4)
        if sim.n_steals:
            assert sum(sim.steal_time) > 0


# Simulator outputs recorded before the event-queue rewrite of
# simulate_workstealing; the rewrite must reproduce the same schedule.
PINNED_PATH = Path(__file__).with_name("scheduler_pinned.json")
PINNED_INPUTS = (
    ["fig1"]
    + [f"small-{seed}-q{n}" for seed in range(6) for n in (3, 4)]
    + ["SB-0.3"]
)
PINNED_CONFIGS = {
    **{
        f"p{p}-seed{s}": dict(n_workers=p, seed=s)
        for p in (1, 3, 8, 20)
        for s in (0, 1)
    },
    "p20-nostl": dict(n_workers=20, steal=False, scatter_roots=True),
    "p20-numa4": dict(n_workers=20, numa_threshold=4),
}
SIM_FIELDS = (
    "makespan", "n_steals", "n_tasks", "peak_task_bytes",
    "emitted", "total_cost", "busy", "steal_time",
)


def pinned_outputs(name: str) -> dict:
    """Every pinned configuration's outputs on one named input."""
    if name == "fig1":
        made = make_executor(fig1=True)
    elif name == "SB-0.3":
        made = make_executor(dataset="SB", scale=0.3)
    else:
        _, seed, n = name.split("-")
        made = make_executor(int(seed), n_edges_q=int(n[1:]))
    H, store, q, plan = made
    out = {}
    for key, kw in PINNED_CONFIGS.items():
        sim = simulate_workstealing(HGMatchTaskExecutor(plan, store), **kw)
        out[key] = {f: getattr(sim, f) for f in SIM_FIELDS}
    out["bfs"] = asdict(simulate_bfs(HGMatchTaskExecutor(plan, store)))
    return out


class TestPinned:
    """Exact virtual-time schedules: tie-breaks, steal order, RNG draws."""

    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads(PINNED_PATH.read_text())

    @pytest.mark.parametrize("name", PINNED_INPUTS)
    def test_outputs_pinned(self, pinned, name):
        assert pinned_outputs(name) == pinned[name]


if __name__ == "__main__":
    # Re-record the pins: ``PYTHONPATH=src python -m tests.test_scheduler``.
    # One line per (input, configuration) keeps diffs readable.
    blocks = []
    for name in PINNED_INPUTS:
        rows = ",\n".join(
            f"  {json.dumps(k)}: {json.dumps(v)}"
            for k, v in pinned_outputs(name).items()
        )
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    PINNED_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
