"""Tests for the experiment harness, budgets, and the case study."""
import pytest

from repro.experiments.case_study import (
    build_knowledge_base,
    query1,
    query2,
    run_case_study,
)
from repro.experiments.datasets import SINGLE_THREAD_DATASETS, make_dataset
from repro.experiments.harness import (
    ENGINES,
    completion_table,
    filtering_table,
    pick_heavy_queries,
    records_frame,
    run_queries,
    speedup_table,
)
from repro.hyper.queries import QuerySetting
from repro.hyper.storage import SignatureStore

MINI = [QuerySetting("q2", 2, 2, 20)]


@pytest.fixture(scope="module")
def mini_records():
    recs = []
    for ds in ("CH", "HC"):
        recs += run_queries(
            ds, MINI, n_queries=2, budget=200_000, scale=0.4, seed=1
        )
    return recs


class TestHarness:
    def test_engine_registry_matches_paper(self):
        assert set(ENGINES) == {
            "HGMatch", "CFL-H", "DAF-H", "CECI-H", "RapidMatch"
        }

    def test_records_complete_grid(self, mini_records):
        df = records_frame(mini_records)
        # 2 datasets x 1 setting x 2 queries x 5 engines
        assert len(df) == 20
        assert set(df["algo"]) == set(ENGINES)

    def test_completed_runs_agree_on_counts(self, mini_records):
        df = records_frame(mini_records)
        done = df[df["completed"]]
        for (_, _, _), grp in done.groupby(["dataset", "setting", "query_idx"]):
            assert grp["count"].nunique() == 1, grp

    def test_timed_out_runs_book_time_limit(self, mini_records):
        df = records_frame(mini_records)
        t = df[~df["completed"]]
        if len(t):
            assert (t["seconds"] == 60.0).all()

    def test_completion_table_shape(self, mini_records):
        tab = completion_table(mini_records)
        assert "Total" in tab.columns
        assert tab.loc["HGMatch"].min() >= 0

    def test_hgmatch_completes_everything_mini(self, mini_records):
        tab = completion_table(mini_records)
        assert tab.loc["HGMatch", "Total"] == 100.0

    def test_speedup_table_base_row_is_one(self, mini_records):
        tab = speedup_table(mini_records)
        row = tab.loc["HGMatch / HGMatch"]
        assert (row.round(6) == 1.0).all()

    def test_filtering_stats_funnel(self, mini_records):
        tab = filtering_table(mini_records)
        assert list(tab.index) == ["CH", "HC", "ALL"]
        for _, s in tab.iterrows():
            assert s["candidates"] >= s["filtered"] >= s["embeddings"] >= 0

    def test_single_thread_datasets_exclude_ar(self):
        assert "AR" not in SINGLE_THREAD_DATASETS
        assert len(SINGLE_THREAD_DATASETS) == 9

    def test_pick_heavy_queries_sorted_desc(self):
        H = make_dataset("SB", scale=0.4)
        store = SignatureStore(H)
        heavy = pick_heavy_queries(H, store, n_pick=2, n_sample=4)
        assert len(heavy) <= 2
        counts = [c for c, _ in heavy]
        assert counts == sorted(counts, reverse=True)


class TestCaseStudy:
    def test_queries_are_connected(self):
        assert query1().is_connected()
        assert query2().is_connected()

    def test_knowledge_base_types(self):
        H = build_knowledge_base(seed=1)
        assert {"Player", "Team", "Match", "Actor", "Character",
                "TVShow", "Season"} <= set(H.labels)

    def test_query1_semantics_on_planted_instance(self):
        # Minimal KB: one player, two teams, two matches -> 2 tuples
        # (the two orderings of the symmetric query).
        from repro.core.local_engine import hgmatch
        from repro.hyper.model import Hypergraph

        labels = ["Player", "Team", "Team", "Match", "Match"]
        H = Hypergraph(labels, [[0, 1, 3], [0, 2, 4]])
        r = hgmatch(H, SignatureStore(H), query1())
        assert r.count == 2

    def test_query1_rejects_same_team(self):
        from repro.core.local_engine import hgmatch
        from repro.hyper.model import Hypergraph

        # Same player, same team, two matches: injectivity on the two
        # Team query vertices must reject this.
        labels = ["Player", "Team", "Match", "Match"]
        H = Hypergraph(labels, [[0, 1, 2], [0, 1, 3]])
        r = hgmatch(H, SignatureStore(H), query1())
        assert r.count == 0

    def test_case_study_counts_positive(self):
        r = run_case_study(seed=0)
        assert r.q1_count > 0
        assert r.q2_count > 0
        assert r.paper_q1 == 111 and r.paper_q2 == 76
