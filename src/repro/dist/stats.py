"""Dataset statistics on Spark (Table II columns, Exp-1 sizes).

Computed with DataFrame aggregations over the hyperedge/label
relations; tests verify every column against DuckDB SQL over the same
incidence data via :func:`repro.oracle.assert_equivalent`.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.dist.storage import SparkHypergraph


def dataset_stats(sh: SparkHypergraph) -> DataFrame:
    """One row: |V|, |E|, |Sigma|, a_max, avg arity, index postings.

    ``index_postings`` is the total posting count of the inverted
    hyperedge index (sum of arities; x8 bytes = the index size
    estimate), matching the O(bar{a}_H x |E(H)|) analysis of IV-C.
    """
    edge_stats = sh.edges.agg(
        F.count("eid").alias("n_edges"),
        F.max(F.size("vs")).alias("a_max"),
        F.round(F.avg(F.size("vs")), 6).alias("avg_arity"),
        F.sum(F.size("vs")).alias("index_postings"),
    )
    label_stats = sh.labels.agg(
        F.count("v").alias("n_vertices"),
        F.countDistinct("label").alias("n_labels"),
    )
    return label_stats.crossJoin(edge_stats).select(
        "n_vertices", "n_edges", "n_labels", "a_max", "avg_arity", "index_postings"
    )
