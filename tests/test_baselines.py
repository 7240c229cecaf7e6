"""Tests for the match-by-vertex baselines (CFL-H/DAF-H/CECI-H), the
IHS filter, the RapidMatch bipartite path, and the brute-force oracle
(paper Sections III-B, VII-A)."""
import pytest

from tests.helpers import small_instance, triangle_hypergraph
from repro.baselines.backtrack import match_by_vertex
from repro.baselines.bruteforce import brute_force
from repro.baselines.ihs import ihs_candidates, label_degree_candidates
from repro.baselines.orders import validate_connected_order, vertex_order
from repro.baselines.rapidmatch import rapidmatch
from repro.core.local_engine import hgmatch
from repro.hyper.bipartite import to_bipartite
from repro.hyper.model import Hypergraph, fig1_data, fig1_query
from repro.hyper.storage import SignatureStore

STRATEGIES = ("cfl", "daf", "ceci")


class TestIHSFilter:
    def test_true_match_vertices_survive(self):
        """Soundness: every data vertex that participates in a true
        embedding must pass the IHS filter for its query vertex."""
        for seed in range(8):
            inst = small_instance(seed)
            if inst is None:
                continue
            H, _, q = inst
            _, tuples = brute_force(H, q, collect=True)
            for tup in list(tuples)[:5]:
                # Recover one valid vertex mapping via domains.
                for u in range(q.n_vertices):
                    cand = set(ihs_candidates(H, q, u))
                    inc = [k for k in range(q.n_edges) if u in q.edges[k]]
                    dom = frozenset.intersection(
                        *(H.edges[tup[k]] for k in inc)
                    )
                    dom = {v for v in dom if H.label(v) == q.label(u)}
                    # At least one of the possible images must be in the
                    # candidate set (the filter cannot kill all).
                    assert dom & cand or not dom

    def test_ihs_subset_of_label_degree(self):
        inst = small_instance(2)
        assert inst is not None
        H, _, q = inst
        for u in range(q.n_vertices):
            assert set(ihs_candidates(H, q, u)) <= set(
                label_degree_candidates(H, q, u)
            )

    def test_label_mismatch_filtered(self):
        H = Hypergraph(["A", "B"], [[0, 1]])
        q = Hypergraph(["B", "A"], [[0, 1]])
        assert ihs_candidates(H, q, 0) == [1]

    def test_arity_containment_filters(self):
        # Query vertex in an arity-3 hyperedge cannot map to a data
        # vertex with only arity-2 incident hyperedges.
        H = Hypergraph(["A", "A", "A"], [[0, 1], [1, 2]])
        q = Hypergraph(["A", "A", "A"], [[0, 1, 2]])
        assert ihs_candidates(H, q, 0) == []


class TestOrders:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_orders_connected_and_complete(self, strategy):
        for seed in range(6):
            inst = small_instance(seed)
            if inst is None:
                continue
            H, _, q = inst
            sizes = {u: len(ihs_candidates(H, q, u)) for u in range(q.n_vertices)}
            order = vertex_order(q, sizes, strategy)
            assert validate_connected_order(q, order)

    def test_unknown_strategy_rejected(self):
        q = fig1_query()
        with pytest.raises(ValueError):
            vertex_order(q, {u: 1 for u in range(q.n_vertices)}, "nope")

    def test_validate_rejects_non_permutation(self):
        q = fig1_query()
        assert not validate_connected_order(q, [0, 1])


class TestBacktrackFramework:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_fig1_counts(self, strategy):
        H, q = fig1_data(), fig1_query()
        r = match_by_vertex(H, q, strategy=strategy, collect=True)
        assert r.tuple_count == 2
        assert r.tuples == {(0, 2, 4), (1, 3, 5)}

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_brute_force(self, strategy, seed):
        inst = small_instance(seed)
        if inst is None:
            pytest.skip("no connected query")
        H, _, q = inst
        bf, bft = brute_force(H, q, collect=True)
        r = match_by_vertex(H, q, strategy=strategy, collect=True)
        assert r.tuple_count == bf
        assert r.tuples == bft

    def test_without_ihs_same_counts(self):
        inst = small_instance(4)
        assert inst is not None
        H, _, q = inst
        a = match_by_vertex(H, q, use_ihs=True).tuple_count
        b = match_by_vertex(H, q, use_ihs=False).tuple_count
        assert a == b

    def test_mapping_count_at_least_tuple_count(self):
        H = triangle_hypergraph()
        r = match_by_vertex(H, H)
        assert r.mapping_count >= r.tuple_count
        assert r.tuple_count == 6

    def test_budget_timeout(self):
        inst = small_instance(0)
        assert inst is not None
        H, _, q = inst
        r = match_by_vertex(H, q, budget=3)
        assert r.timed_out

    def test_delayed_verification_costs_more_than_hgmatch(self):
        """The paper's core claim at micro scale: on a high-arity
        hypergraph the match-by-vertex framework examines far more
        states than match-by-hyperedge."""
        from repro.experiments.datasets import make_dataset
        from repro.hyper.queries import QuerySetting, sample_query

        H = make_dataset("HC", scale=0.35, seed=0)
        store = SignatureStore(H)
        sq = sample_query(H, QuerySetting("q2", 2, 5, 80), seed=1)
        hg = hgmatch(H, store, sq.query)
        bt = match_by_vertex(H, sq.query, budget=2_000_000)
        assert bt.timed_out or bt.stats["ops"] > 10 * hg.stats["ops"]


@pytest.fixture(scope="module")
def exp2_hb_q2():
    """Exp-2's high-arity workload: one q2 query on HB at half scale,
    with HGMatch's op count as the reference."""
    from repro.experiments.datasets import make_dataset
    from repro.hyper.queries import QuerySetting, sample_query

    H = make_dataset("HB", scale=0.5, seed=0)
    q = sample_query(H, QuerySetting("q2", 2, 5, 60), seed=1).query
    hg = hgmatch(H, SignatureStore(H), q)
    assert not hg.timed_out
    return H, q, hg.stats["ops"]


@pytest.mark.parametrize("engine", [*STRATEGIES, "rapidmatch"])
def test_exp2_baselines_time_out_or_cost_more(exp2_hb_q2, engine):
    """Exp-2's ordering: under the budget, every baseline either times
    out or spends at least HGMatch's operations."""
    H, q, hg_ops = exp2_hb_q2
    if engine == "rapidmatch":
        r = rapidmatch(H, q, budget=150_000)
    else:
        r = match_by_vertex(H, q, strategy=engine, budget=150_000)
    assert r.timed_out or r.stats["ops"] >= hg_ops


class TestBipartite:
    def test_sizes(self):
        H = fig1_data()
        B = to_bipartite(H)
        assert B.n_nodes == H.n_vertices + H.n_edges
        assert B.n_binary_edges == sum(H.arity(e) for e in range(H.n_edges))

    def test_edge_node_labels_encode_signature(self):
        H = fig1_data()
        B = to_bipartite(H)
        assert B.graph.label(B.edge_node_of[0]) == "E|A,C"

    def test_original_eid_roundtrip(self):
        H = fig1_data()
        B = to_bipartite(H)
        for eid in range(H.n_edges):
            assert B.original_eid(B.edge_node_of[eid]) == eid

    def test_vertex_labels_preserved(self):
        H = fig1_data()
        B = to_bipartite(H)
        for v in range(H.n_vertices):
            assert B.graph.label(v) == H.label(v)


class TestRapidMatch:
    def test_fig1(self):
        H, q = fig1_data(), fig1_query()
        r = rapidmatch(H, q, collect=True)
        assert r.tuple_count == 2
        assert r.tuples == {(0, 2, 4), (1, 3, 5)}

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_brute_force(self, seed):
        inst = small_instance(seed)
        if inst is None:
            pytest.skip("no connected query")
        H, _, q = inst
        bf, bft = brute_force(H, q, collect=True)
        r = rapidmatch(H, q, collect=True)
        assert r.tuple_count == bf
        assert r.tuples == bft

    def test_budget_timeout(self):
        inst = small_instance(1)
        assert inst is not None
        H, _, q = inst
        assert rapidmatch(H, q, budget=3).timed_out


class TestBruteForce:
    def test_fig1(self):
        H, q = fig1_data(), fig1_query()
        count, tuples = brute_force(H, q, collect=True)
        assert count == 2
        assert tuples == {(0, 2, 4), (1, 3, 5)}

    def test_no_collect_returns_none(self):
        H, q = fig1_data(), fig1_query()
        count, tuples = brute_force(H, q)
        assert count == 2 and tuples is None

    def test_triangle(self):
        H = triangle_hypergraph()
        count, _ = brute_force(H, H)
        assert count == 6
