"""Tests for the distributed Spark dataflow engine (Section VI-A),
cross-checked against the sequential engine and brute force."""
import time
from collections import Counter

import pytest

from tests.helpers import (
    non_adjacent_instance,
    one_shared_lemma_instance,
    small_instance,
    star_instance,
)
from repro.baselines.bruteforce import brute_force
import repro.core.local_engine as local_engine
from repro.core.local_engine import hgmatch
from repro.dist.engine import (
    collect_embeddings_query_edge_order,
    spark_hgmatch,
    spark_hgmatch_count,
)
from repro.dist.storage import build_spark_hypergraph
from repro.experiments.datasets import make_dataset
from repro.hyper.generator import random_hypergraph
from repro.hyper.model import Hypergraph, fig1_data, fig1_query
from repro.hyper.queries import QuerySetting, sample_query
from repro.hyper.storage import SignatureStore


@pytest.fixture(scope="module")
def fig1(spark):
    H, q = fig1_data(), fig1_query()
    return H, q, build_spark_hypergraph(spark, H)


class TestFig1:
    def test_count(self, spark, fig1):
        H, q, sh = fig1
        assert spark_hgmatch_count(spark, sh, q) == 2

    def test_embeddings(self, spark, fig1):
        H, q, sh = fig1
        df, plan = spark_hgmatch(spark, sh, q)
        assert collect_embeddings_query_edge_order(df, plan) == {
            (0, 2, 4),
            (1, 3, 5),
        }

    def test_explicit_phi(self, spark, fig1):
        H, q, sh = fig1
        assert spark_hgmatch_count(spark, sh, q, phi=[2, 1, 0]) == 2

    def test_single_edge_query(self, spark, fig1):
        H, _, sh = fig1
        q1 = Hypergraph(["A", "C"], [[0, 1]])
        assert spark_hgmatch_count(spark, sh, q1) == 2

    def test_absent_signature_zero(self, spark, fig1):
        H, _, sh = fig1
        q0 = Hypergraph(["C", "C"], [[0, 1]])
        assert spark_hgmatch_count(spark, sh, q0) == 0

    def test_query_without_hyperedges_rejected(self, spark, fig1):
        # As in the local engine: rejected before any dataflow is built.
        _, _, sh = fig1
        empty = Hypergraph([], [])
        for phi in (None, []):
            with pytest.raises(ValueError, match="no hyperedges"):
                spark_hgmatch(spark, sh, empty, phi=phi)

    def test_empty_expand_partition_zero(self, spark, fig1):
        # SCAN finds {A, C} hyperedges; the EXPAND step reads the empty
        # {A, B} partition, so its postings have no rows.
        H, _, sh = fig1
        q = Hypergraph(["A", "C", "B"], [[0, 1], [0, 2]])
        expected = hgmatch(H, SignatureStore(H), q, phi=[0, 1]).count
        assert expected == 0
        assert spark_hgmatch_count(spark, sh, q, phi=[0, 1]) == expected


def _operators(node, ops: Counter | None = None) -> Counter:
    """Operators of an executed physical plan by node name, through
    adaptive plans and query stages."""
    ops = Counter() if ops is None else ops
    name = node.nodeName()
    if name == "AdaptiveSparkPlan":
        return _operators(node.executedPlan(), ops)
    if name.endswith("QueryStage"):
        return _operators(node.plan(), ops)
    ops[name] += 1
    children = node.children()
    for i in range(children.size()):
        _operators(children.apply(i), ops)
    return ops


# Quote, backslash, non-ASCII and the old profile separator.
ADVERSARIAL_LABELS = {"L0": "it's", "L1": "a\\b", "L2": "ü", "L3": "x|0"}
# Labels shaped to break SQL text built from them: an injection, the
# empty string, a non-BMP character and a label that is itself the
# expression the engine writes for a label.
SQL_ADVERSARIAL_LABELS = {
    "L0": "') OR true OR ('",
    "L1": "",
    "L2": "\U0001F600",
    "L3": "decode(X'41', 'UTF-8')",
}


class TestCrossValidation:
    @pytest.mark.parametrize(
        "seed, n_edges_q",
        [pytest.param(s, 3, id=str(s)) for s in range(4)]
        + [pytest.param(s, 4, id=f"{s}-q4") for s in range(4)],
    )
    def test_random_instances_vs_brute_force(self, spark, seed, n_edges_q):
        inst = small_instance(seed, n_edges_q=n_edges_q)
        if inst is None:
            pytest.skip("no connected query")
        H, store, q = inst
        bf, bft = brute_force(H, q, collect=True)
        sh = build_spark_hypergraph(spark, H)
        df, plan = spark_hgmatch(spark, sh, q)
        assert collect_embeddings_query_edge_order(df, plan) == bft

    def test_adversarial_labels_vs_brute_force(self, spark):
        H0 = random_hypergraph(
            n_vertices=14, n_edges=18, n_labels=4, mean_arity=2.8, max_arity=5, seed=0
        )
        for label_map in (ADVERSARIAL_LABELS, SQL_ADVERSARIAL_LABELS):
            H = Hypergraph([label_map[lbl] for lbl in H0.labels], H0.edges)
            assert set(H.labels) == set(label_map.values())
            sh = build_spark_hypergraph(spark, H)
            for n_edges_q in (3, 4):
                q = sample_query(H, QuerySetting("t", n_edges_q, 2, 12), seed=0).query
                bf, bft = brute_force(H, q, collect=True)
                assert bft
                df, plan = spark_hgmatch(spark, sh, q)
                assert collect_embeddings_query_edge_order(df, plan) == bft
        # A 1-ary hyperedge labelled "A,B" is not in the {A, B} partition.
        H = Hypergraph(["A,B", "A", "B"], [[0], [1, 2]])
        q = Hypergraph(["A", "B"], [[0, 1]])
        _, bft = brute_force(H, q, collect=True)
        assert bft == {(1,)}
        df, plan = spark_hgmatch(spark, build_spark_hypergraph(spark, H), q)
        assert collect_embeddings_query_edge_order(df, plan) == bft

    def test_candidate_with_two_enumerated_vertices_counted_once(self, spark):
        # Both hyperedges share two A vertices, so step 1 has one
        # (deduplicated) constraint whose vertex array holds both, and
        # the one candidate is posted under each. The embedding set
        # would hide a duplicate row; the count does not.
        H = Hypergraph(["A", "A", "B", "C"], [[0, 1, 2], [0, 1, 3]])
        q = Hypergraph(["A", "A", "B", "C"], [[0, 1, 2], [0, 1, 3]])
        _, bft = brute_force(H, q, collect=True)
        assert bft == {(0, 1)}
        sh = build_spark_hypergraph(spark, H)
        df, plan = spark_hgmatch(spark, sh, q)
        assert len(plan.steps[1].constraints) == 1
        assert df.count() == len(bft)
        assert collect_embeddings_query_edge_order(df, plan) == bft

    def test_one_shared_steps_rest_on_both_vertex_filters(self, spark):
        # Every EXPAND step shares one query vertex, so only c0 is
        # enumerated and only the vertex count validates. The false
        # candidates {p, z'}, {a, c'} and {x, z'} pass that count; the
        # first fails both of c0's vertex filters, the second only its
        # degree term and the third only its non-adjacent exclusion.
        for H, q in (one_shared_lemma_instance(), star_instance(), non_adjacent_instance()):
            assert brute_force(H, q)[0] == 1
            sh = build_spark_hypergraph(spark, H)
            assert spark_hgmatch_count(spark, sh, q, phi=list(range(q.n_edges))) == 1

    @pytest.mark.parametrize("seed", [2, 5])
    def test_step_rows_equal_local_validated_per_step(self, spark, monkeypatch, seed):
        # Every phi-prefix is validated exactly by Alg. 5, so Spark's
        # count for the prefix ending at step i equals the local
        # engine's validated count at step i (step 0: the SCAN).
        H, store, q = small_instance(seed, n_edges_q=4)
        validated = Counter()
        check = local_engine.is_valid_embedding

        def counting_check(step, *args, **kwargs):
            ok = check(step, *args, **kwargs)
            validated[step.i] += ok
            return ok

        monkeypatch.setattr(local_engine, "is_valid_embedding", counting_check)
        phi = hgmatch(H, store, q).phi
        local = [store.card(q.signature(phi[0]))] + [validated[i] for i in range(1, 4)]
        sh = build_spark_hypergraph(spark, H)
        spark_rows = []
        for k in range(1, 5):
            prefix, _ = q.subhypergraph(list(phi[:k]))
            spark_rows.append(spark_hgmatch_count(spark, sh, prefix, phi=list(range(k))))
        assert spark_rows == local

    def test_catalog_dataset_vs_local_engine(self, spark):
        H = make_dataset("CH", scale=0.25, seed=0)
        store = SignatureStore(H)
        sq = sample_query(H, QuerySetting("q2", 2, 2, 15), seed=2)
        expected = hgmatch(H, store, sq.query).count
        sh = build_spark_hypergraph(spark, H)
        assert spark_hgmatch_count(spark, sh, sq.query) == expected

    def test_high_arity_dataset_vs_local_engine(self, spark):
        H = make_dataset("HC", scale=0.3, seed=0)
        store = SignatureStore(H)
        sq = sample_query(H, QuerySetting("q2", 2, 2, 60), seed=4)
        expected = hgmatch(H, store, sq.query).count
        sh = build_spark_hypergraph(spark, H)
        assert spark_hgmatch_count(spark, sh, sq.query) == expected


class TestDataflowShape:
    def test_plan_carried_through(self, spark, fig1):
        H, q, sh = fig1
        df, plan = spark_hgmatch(spark, sh, q)
        assert plan.n_steps == 3
        assert df.columns == ["emb"]

    def test_lazy_until_action(self, spark, fig1):
        # With an explicit phi, building the dataflow starts no job.
        H, q, sh = fig1
        sc = spark.sparkContext
        tracker = sc.statusTracker()
        try:
            sc.setJobGroup("build", "build the dataflow")
            df, _ = spark_hgmatch(spark, sh, q, phi=[2, 1, 0])
            assert df.schema is not None  # analysis only, no execution
            # An action in a second group: once the status store lists
            # it, every earlier job event has been processed too.
            sc.setJobGroup("action", "run the dataflow")
            assert df.count() == 2
            deadline = time.monotonic() + 30
            while not tracker.getJobIdsForGroup("action"):
                assert time.monotonic() < deadline, "action job not listed"
                time.sleep(0.05)
            assert tracker.getJobIdsForGroup("build") == []
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)

    def test_plan_grows_linearly_per_expand_step(self, spark):
        # Every EXPAND step adds exactly two exchanges (both sides of
        # the posting join on v) to the executed plan of each
        # phi-prefix of a 4-hyperedge query; SCAN's plan has the
        # count's one exchange, and the count's are the only
        # aggregates. The storage relations are cached, as a served
        # hypergraph would be, so a reused storage sub-plan cannot
        # hide its own exchanges.
        # Seed 0's EXPAND steps each share one query vertex and
        # enumerate c0 alone; seed 2's second step shares two and
        # probes every other constraint too.
        for seed in (0, 2):
            H, store, q = small_instance(seed, n_edges_q=4)
            assert q.n_edges == 4
            sh = build_spark_hypergraph(spark, H)
            sh.edges, sh.index = sh.edges.cache(), sh.index.cache()
            try:
                _, plan = spark_hgmatch(spark, sh, q)
                exchanges = []
                for k in range(1, 5):
                    prefix, _ = q.subhypergraph(list(plan.phi[:k]))
                    df, _ = spark_hgmatch(spark, sh, prefix, phi=list(range(k)))
                    counted = df.groupBy().count()
                    assert counted.collect()[0][0] > 0
                    ops = _operators(counted._jdf.queryExecution().executedPlan())
                    exchanges.append(ops["Exchange"] + ops["ReusedExchange"])
                    aggregates = {n: c for n, c in ops.items() if "Aggregate" in n}
                    # The count: a partial and a final aggregate.
                    assert aggregates == {"HashAggregate": 2}, aggregates
            finally:
                sh.edges.unpersist()
                sh.index.unpersist()
            assert exchanges == [1, 3, 5, 7], seed

    def test_no_appended_array_inside_lambdas(self, spark):
        # Every lambda reads the carried arrays as they were before the
        # step appended its candidate: no filter is pushed below a
        # step's append projection with concat(vsets, array(cvs))
        # inlined, which would rebuild it per lambda call. Seed 0's
        # EXPAND steps each share one query vertex (c0 only); seed 2's
        # second step shares two (every c_k probed, profiles compared).
        for seed in (0, 2):
            H, store, q = small_instance(seed, n_edges_q=4)
            df, _ = spark_hgmatch(spark, build_spark_hypergraph(spark, H), q)
            optimized = df._jdf.queryExecution().optimizedPlan().toString()
            assert "array_contains(concat(" not in optimized

    def test_one_shared_step_filter_has_no_probe_or_profile(self, spark):
        # Both EXPAND steps of the star share one query vertex; the
        # second carries two constraints. Its filter keeps no
        # arrays_overlap probe and no sorted profile array. Fig. 1's
        # last step shares three vertices and keeps both.
        star_H, star_q = star_instance()
        for H, q, general in ((star_H, star_q, False), (fig1_data(), fig1_query(), True)):
            df, plan = spark_hgmatch(spark, build_spark_hypergraph(spark, H), q, phi=[0, 1, 2])
            assert len(plan.steps[2].constraints) > 1
            analyzed = df._jdf.queryExecution().analyzed().toString()
            assert ("arrays_overlap" in analyzed) == general
            assert ("sort_array" in analyzed) == general

    def test_py4j_commands_per_expand_step(self, spark, monkeypatch):
        # Building an EXPAND step sends each expression to the JVM as
        # SQL text, parsed there in one call: 66-67 py4j commands per
        # step on this query. A Column tree costs one or more round
        # trips per node, ~900-1,200 per step. Memory deletes come
        # from a finalizer thread at no fixed point, so they are not
        # counted.
        H, store, q = small_instance(0, n_edges_q=4)
        sh = build_spark_hypergraph(spark, H)
        _, plan = spark_hgmatch(spark, sh, q)
        client = spark.sparkContext._gateway._gateway_client
        send = client.send_command
        sent = []

        def counting_send(command, *args, **kwargs):
            if not command.startswith("m\nd\n"):
                sent.append(command)
            return send(command, *args, **kwargs)

        monkeypatch.setattr(client, "send_command", counting_send)
        per_prefix = []
        for k in range(1, 5):
            prefix, _ = q.subhypergraph(list(plan.phi[:k]))
            before = len(sent)
            spark_hgmatch(spark, sh, prefix, phi=list(range(k)))
            per_prefix.append(len(sent) - before)
        per_step = [b - a for a, b in zip(per_prefix, per_prefix[1:])]
        assert all(0 < n < 100 for n in per_step), per_step
