"""Spark-side storage + statistics, verified against the DuckDB oracle
(paper Section IV as DataFrames; Table II columns)."""
import pytest
from pyspark.sql import functions as F

from repro.dist.stats import dataset_stats
from repro.dist.storage import build_spark_hypergraph, hypergraph_frames
from repro.experiments.datasets import make_dataset
from repro.hyper.model import fig1_data
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def wt(spark):
    H = make_dataset("WT", scale=0.2, seed=0)
    return H, build_spark_hypergraph(spark, H), hypergraph_frames(H)


class TestBuild:
    def test_fig1_edges(self, spark):
        H = fig1_data()
        sh = build_spark_hypergraph(spark, H)
        assert sh.edges.count() == 6
        assert sh.index.count() == 18  # one posting per incidence
        assert sh.labels.count() == 8

    def test_edge_arrays_sorted_aligned(self, spark):
        H = fig1_data()
        sh = build_spark_hypergraph(spark, H)
        for row in sh.edges.collect():
            assert row["vs"] == sorted(row["vs"])
            assert row["ls"] == [H.label(v) for v in row["vs"]]

    def test_cardinalities_match_store(self, wt):
        from repro.dist.storage import sig_str
        from repro.hyper.storage import SignatureStore

        H, sh, _ = wt
        store = SignatureStore(H)
        cards = sh.cardinalities()
        assert cards == {
            sig_str(sig): len(part) for sig, part in store.partitions.items()
        }


class TestOracle:
    def test_index_relation_vs_sql(self, spark, wt):
        _, sh, frames = wt
        assert_equivalent(
            sh.index,
            """
            SELECT e.sig AS sig, i.v AS v, i.eid AS eid
            FROM incidence i JOIN edges e USING (eid)
            """,
            incidence=frames["incidence"],
            edges=frames["edges"][["eid", "sig"]],
        )

    def test_dataset_stats_vs_sql(self, spark, wt):
        _, sh, frames = wt
        assert_equivalent(
            dataset_stats(sh),
            """
            SELECT
              (SELECT count(*) FROM labels)::BIGINT AS n_vertices,
              (SELECT count(*) FROM edges)::BIGINT AS n_edges,
              (SELECT count(DISTINCT label) FROM labels)::BIGINT AS n_labels,
              (SELECT max(cnt) FROM (SELECT count(*) AS cnt FROM incidence GROUP BY eid))::INT AS a_max,
              (SELECT round(avg(cnt), 6) FROM (SELECT count(*)::DOUBLE AS cnt FROM incidence GROUP BY eid)) AS avg_arity,
              (SELECT count(*) FROM incidence)::BIGINT AS index_postings
            """,
            edges=frames["edges"][["eid", "sig"]],
            incidence=frames["incidence"],
            labels=frames["labels"],
        )

    def test_arity_histogram_vs_sql(self, spark, wt):
        _, sh, frames = wt
        got = sh.edges.select(F.size("vs").alias("arity")).groupBy("arity").agg(
            F.count("*").alias("n")
        )
        assert_equivalent(
            got,
            """
            SELECT cnt AS arity, count(*)::BIGINT AS n
            FROM (SELECT count(*)::INT AS cnt FROM incidence GROUP BY eid)
            GROUP BY cnt
            """,
            incidence=frames["incidence"],
        )
