"""Spark-side hypergraph storage (Sections IV-B/IV-C as DataFrames).

Three relations mirror the paper's indexed data hypergraph:

- ``edges(eid, sig, vs, ls)`` — the hyperedge tables, one logical
  partition per signature (``sig`` is the canonical string encoding of
  the label multiset, a JSON array, so labels holding ``,`` or quotes
  cannot collide); ``vs`` holds the member vertex ids ascending and
  ``ls`` their labels, aligned by position;
- ``index(sig, v, eid)`` — the inverted hyperedge index: the posting
  list of ``he(v, s)`` is the ``eid`` set for a ``(sig, v)`` pair;
- ``labels(v, label)`` — the vertex-label relation.

Both ``index`` and the EXPAND operator read postings through
:func:`postings`, which explodes ``edges`` on ``vs``; EXPAND also keeps
each posting's hyperedge payload on the row. The pandas frames also
hold ``incidence(eid, v)``, because the DuckDB oracle verifies index
construction and dataset statistics against plain SQL over it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.hyper.model import Hypergraph, Signature


def sig_str(sig: Signature) -> str:
    """Canonical, injective string form of a signature multiset."""
    return json.dumps(sig)


@dataclass
class SparkHypergraph:
    """The indexed data hypergraph as Spark relations."""

    edges: DataFrame    # eid: long, sig: string, vs: array<long>, ls: array<string>
    index: DataFrame    # sig: string, v: long, eid: long
    labels: DataFrame   # v: long, label: string
    n_vertices: int
    n_edges: int
    partition_sizes: dict[str, int]  # sig -> Card, counted once at load

    def cardinalities(self) -> dict[str, int]:
        """``sig -> Card`` from partition metadata (Def. V.2); no Spark
        job, since a loaded hypergraph's partitions never change."""
        return dict(self.partition_sizes)


def postings(edges: DataFrame, *payload: str) -> DataFrame:
    """The postings ``(sig, v, eid)`` of the hyperedges in ``edges``, one
    row per member vertex, each also carrying the ``payload``
    expressions (SQL text) of its hyperedge row."""
    return edges.selectExpr("sig", "explode(vs) AS v", "eid", *payload)


def hypergraph_frames(H: Hypergraph) -> dict[str, pd.DataFrame]:
    """Pandas relations for ``H`` (shared by Spark and the oracle)."""
    edges = pd.DataFrame(
        {
            "eid": range(H.n_edges),
            "sig": [sig_str(H.signature(e)) for e in range(H.n_edges)],
            "vs": [sorted(H.edges[e]) for e in range(H.n_edges)],
            "ls": [
                [H.label(v) for v in sorted(H.edges[e])]
                for e in range(H.n_edges)
            ],
        }
    )
    incidence = pd.DataFrame(
        [
            {"eid": e, "v": v}
            for e in range(H.n_edges)
            for v in sorted(H.edges[e])
        ],
        columns=["eid", "v"],
    )
    labels = pd.DataFrame(
        {"v": range(H.n_vertices), "label": list(H.labels)}
    )
    return {"edges": edges, "incidence": incidence, "labels": labels}


def build_spark_hypergraph(spark: SparkSession, H: Hypergraph) -> SparkHypergraph:
    """Offline preprocessing stage: load + partition + index, on Spark."""
    frames = hypergraph_frames(H)
    edges = spark.createDataFrame(frames["edges"])
    labels = spark.createDataFrame(frames["labels"])
    return SparkHypergraph(
        edges=edges,
        # Inverted hyperedge index: a (sig, v) group is one posting list.
        index=postings(edges),
        labels=labels,
        n_vertices=H.n_vertices,
        n_edges=H.n_edges,
        partition_sizes={
            sig: int(n) for sig, n in frames["edges"]["sig"].value_counts().items()
        },
    )
