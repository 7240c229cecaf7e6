"""Distributed HGMatch demo: run one query through the Spark dataflow.

Run: ``spark-submit jobs/spark_match.py [dataset] [n_edges]``.
"""
import sys
import time

from repro.dist import build_spark_hypergraph, spark_hgmatch
from repro.dist.session import get_spark
from repro.experiments.datasets import make_dataset
from repro.hyper.queries import QuerySetting, sample_query
from repro.hyper.storage import SignatureStore
from repro.core import hgmatch


def main(dataset: str = "WT", n_edges: int = 3) -> None:
    spark = get_spark("spark-match")
    H = make_dataset(dataset, scale=0.5)
    sq = sample_query(H, QuerySetting("q", n_edges, 2, 30), seed=3)
    sh = build_spark_hypergraph(spark, H)
    t0 = time.perf_counter()
    df, plan = spark_hgmatch(spark, sh, sq.query)
    n = df.count()
    dt = time.perf_counter() - t0
    local = hgmatch(H, SignatureStore(H), sq.query)
    print(f"dataset={dataset} query |E|={n_edges} phi={plan.phi}")
    print(f"spark embeddings={n} in {dt:.2f}s; local engine agrees: {local.count == n}")
    spark.stop()


if __name__ == "__main__":
    main(
        sys.argv[1] if len(sys.argv) > 1 else "WT",
        int(sys.argv[2]) if len(sys.argv) > 2 else 3,
    )
