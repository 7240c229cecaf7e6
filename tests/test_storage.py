"""Tests for signature-partitioned storage + inverted hyperedge index
(paper Section IV, Table I), including DuckDB-oracle verification of
the partition cardinalities and posting lists."""
import pandas as pd
import pytest

from repro.dist.storage import hypergraph_frames, sig_str
from repro.experiments.datasets import make_dataset
from repro.hyper.generator import random_hypergraph
from repro.hyper.model import fig1_data
from repro.hyper.storage import SignatureStore
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def store():
    return SignatureStore(fig1_data())


class TestPartitions:
    def test_fig1_three_partitions(self, store):
        assert len(store.partitions) == 3  # Example IV.1

    def test_partition_members(self, store):
        assert store.partitions[("A", "C")] == (0, 1)
        assert store.partitions[("A", "A", "B")] == (2, 3)
        assert store.partitions[("A", "B", "C", "C")] == (4, 5)

    def test_partitions_cover_all_edges_once(self, store):
        all_eids = sorted(e for part in store.partitions.values() for e in part)
        assert all_eids == list(range(store.H.n_edges))

    def test_partition_lists_ascending(self):
        H = random_hypergraph(
            n_vertices=30, n_edges=60, n_labels=2, mean_arity=3, max_arity=5, seed=3
        )
        s = SignatureStore(H)
        for part in s.partitions.values():
            assert list(part) == sorted(part)

    def test_card(self, store):
        assert store.card(("A", "C")) == 2
        assert store.card(("Z",)) == 0

    def test_scan_matches_partition(self, store):
        assert store.scan(("A", "A", "B")) == (2, 3)
        assert store.scan(("nope",)) == ()


class TestInvertedIndex:
    def test_posting_lists_fig1(self, store):
        # Example IV.2: v4 is incident to e1 (id 0) within sig {A,C}
        assert store.he(4, ("A", "C")) == (0,)
        # and to e5, e6 (ids 4, 5) within sig {A,B,C,C}
        assert store.he(4, ("A", "B", "C", "C")) == (4, 5)

    def test_missing_vertex_empty(self, store):
        assert store.he(0, ("A", "C")) == ()

    def test_postings_ascending_and_consistent(self):
        H = random_hypergraph(
            n_vertices=40, n_edges=80, n_labels=3, mean_arity=4, max_arity=8, seed=5
        )
        s = SignatureStore(H)
        for sig, inv in s.inverted.items():
            for v, post in inv.items():
                assert list(post) == sorted(post)
                for eid in post:
                    assert v in H.edges[eid]
                    assert H.signature(eid) == sig

    def test_index_covers_every_incidence(self):
        H = random_hypergraph(
            n_vertices=25, n_edges=50, n_labels=2, mean_arity=3, max_arity=6, seed=6
        )
        s = SignatureStore(H)
        total = sum(
            len(post) for inv in s.inverted.values() for post in inv.values()
        )
        assert total == sum(H.arity(e) for e in range(H.n_edges))


class TestSizeAnalysis:
    def test_index_nbytes_formula(self, store):
        # 8 bytes per posting; postings total = sum of arities = 18.
        assert store.index_nbytes() == 8 * 18

    def test_graph_nbytes_at_least_ids(self, store):
        assert store.graph_nbytes() >= 8 * 18

    def test_build_report(self, store):
        rep = store.build_report()
        assert rep.n_partitions == 3
        assert rep.build_seconds >= 0
        assert rep.index_nbytes == store.index_nbytes()

    def test_index_size_near_graph_size(self):
        # Section IV-C: both are O(bar a * |E|); ratio stays near 1.
        H = random_hypergraph(
            n_vertices=200, n_edges=300, n_labels=3, mean_arity=6, max_arity=20, seed=7
        )
        s = SignatureStore(H)
        assert 0.3 <= s.index_nbytes() / s.graph_nbytes() <= 1.0

    def test_exp1_largest_stand_in_index_near_graph_size(self):
        # Exp-1 on AR, the largest catalog stand-in: the index stays
        # within a small factor of the hyperedge tables.
        s = SignatureStore(make_dataset("AR"))
        assert 0.2 <= s.index_nbytes() / s.graph_nbytes() <= 1.2


class TestOracle:
    """Partition metadata and index postings vs DuckDB SQL."""

    def test_partition_cardinalities_vs_sql(self, spark):
        H = random_hypergraph(
            n_vertices=30, n_edges=60, n_labels=2, mean_arity=3, max_arity=5, seed=8
        )
        store = SignatureStore(H)
        got = spark.createDataFrame(
            pd.DataFrame(
                [
                    {"sig": sig_str(sig), "card": store.card(sig)}
                    for sig in store.partitions
                ]
            )
        )
        frames = hypergraph_frames(H)
        assert_equivalent(
            got,
            "SELECT sig, count(*)::BIGINT AS card FROM edges GROUP BY sig",
            edges=frames["edges"][["eid", "sig"]],
        )

    def test_posting_lists_vs_sql(self, spark):
        H = random_hypergraph(
            n_vertices=30, n_edges=60, n_labels=2, mean_arity=3, max_arity=5, seed=9
        )
        store = SignatureStore(H)
        got = spark.createDataFrame(
            pd.DataFrame(
                [
                    {"sig": sig_str(sig), "v": v, "eid": eid}
                    for sig, inv in store.inverted.items()
                    for v, post in inv.items()
                    for eid in post
                ]
            )
        )
        frames = hypergraph_frames(H)
        assert_equivalent(
            got,
            """
            SELECT e.sig AS sig, i.v AS v, i.eid AS eid
            FROM incidence i JOIN edges e USING (eid)
            """,
            incidence=frames["incidence"],
            edges=frames["edges"][["eid", "sig"]],
        )
