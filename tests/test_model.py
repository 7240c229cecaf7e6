"""Unit tests for the hypergraph data model (paper Section III-A)."""
import pytest

from repro.hyper.model import Hypergraph, fig1_data, fig1_query


class TestConstruction:
    def test_basic_sizes(self):
        H = Hypergraph(["A", "B"], [[0, 1], [0]])
        assert H.n_vertices == 2
        assert H.n_edges == 2

    def test_vertex_dedup_within_edge(self):
        H = Hypergraph(["A", "B"], [[0, 0, 1]])
        assert H.arity(0) == 2

    def test_empty_edge_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Hypergraph(["A"], [[]])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError, match="out-of-range"):
            Hypergraph(["A"], [[0, 1]])

    def test_repeated_hyperedges_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            Hypergraph(["A", "B"], [[0, 1], [1, 0]])

    def test_labels_coerced_to_str(self):
        H = Hypergraph([1, 2], [[0, 1]])
        assert H.label(0) == "1"

    def test_no_edges_allowed(self):
        H = Hypergraph(["A"], [])
        assert H.n_edges == 0 and H.max_arity == 0


class TestArity:
    def test_arity_per_edge(self):
        H = fig1_data()
        assert [H.arity(e) for e in range(6)] == [2, 2, 3, 3, 4, 4]

    def test_avg_arity(self):
        H = fig1_data()
        assert H.avg_arity == pytest.approx(18 / 6)

    def test_max_arity(self):
        assert fig1_data().max_arity == 4


class TestIncidence:
    def test_he_lists_ascending_and_complete(self):
        H = fig1_data()
        for v in range(H.n_vertices):
            assert list(H.he[v]) == sorted(H.he[v])
            for eid in H.he[v]:
                assert v in H.edges[eid]
        total = sum(len(H.he[v]) for v in range(H.n_vertices))
        assert total == sum(H.arity(e) for e in range(H.n_edges))

    def test_degree(self):
        H = fig1_data()
        assert H.degree(3) == len([e for e in H.edges if 3 in e])

    def test_he_by_arity(self):
        H = fig1_data()
        c = H.he_by_arity(0)  # v0 in e3 (arity 3) and e5 (arity 4)
        assert c == {3: 1, 4: 1}

    def test_adj_vertices_symmetric_no_self(self):
        H = fig1_data()
        for v in range(H.n_vertices):
            assert v not in H.adj_vertices[v]
            for u in H.adj_vertices[v]:
                assert v in H.adj_vertices[u]

    def test_adj_edges(self):
        H = fig1_data()
        assert 4 in H.adj_edges(0)  # e1 and e5 share v4
        assert 0 not in H.adj_edges(0)

    def test_edge_index_roundtrip(self):
        H = fig1_data()
        for eid, e in enumerate(H.edges):
            assert H.edge_index[e] == eid

    def test_edge_set_membership(self):
        H = fig1_data()
        assert frozenset({2, 4}) in H.edge_set
        assert frozenset({0, 7}) not in H.edge_set


class TestSignatures:
    def test_signature_sorted_multiset(self):
        H = fig1_data()
        assert H.signature(0) == ("A", "C")
        assert H.signature(2) == ("A", "A", "B")
        assert H.signature(4) == ("A", "B", "C", "C")

    def test_fig1_partition_structure(self):
        H = fig1_data()
        sigs = set(H.signatures)
        assert sigs == {("A", "C"), ("A", "A", "B"), ("A", "B", "C", "C")}


class TestConnectivity:
    def test_fig1_connected(self):
        assert fig1_data().is_connected()
        assert fig1_query().is_connected()

    def test_isolated_vertex_disconnected(self):
        H = Hypergraph(["A", "B", "C"], [[0, 1]])
        assert not H.is_connected()

    def test_two_components(self):
        H = Hypergraph(["A", "A", "A", "A"], [[0, 1], [2, 3]])
        assert not H.is_connected()

    def test_empty_hypergraph_connected(self):
        assert Hypergraph([], []).is_connected()


class TestSubhypergraph:
    def test_relabelled_contiguous(self):
        H = fig1_data()
        sub, vmap = H.subhypergraph([0, 4])  # e1={v2,v4}, e5={v0,v1,v3,v4}
        assert sub.n_vertices == 5
        assert sub.n_edges == 2
        assert sorted(vmap.keys()) == [0, 1, 2, 3, 4]
        # Labels preserved through the map.
        for old, new in vmap.items():
            assert H.label(old) == sub.label(new)

    def test_signatures_preserved(self):
        H = fig1_data()
        sub, _ = H.subhypergraph([2, 5])
        assert sub.signature(0) == H.signature(2)
        assert sub.signature(1) == H.signature(5)
