"""Table II: dataset statistics (measured vs paper), computed on Spark.

Run: ``spark-submit jobs/table2_datasets.py [scale]``.
"""
import sys

from repro.dist.session import get_spark
from repro.dist.stats import dataset_stats
from repro.dist.storage import build_spark_hypergraph
from repro.experiments.datasets import CATALOG, DATASET_ORDER, make_dataset
from repro.hyper.storage import SignatureStore


def main(scale: float = 1.0) -> None:
    spark = get_spark("table2")
    print("== Table II: datasets (measured synthetic stand-in | paper real) ==")
    header = f"{'ds':>3} {'|V|':>7} {'|E|':>6} {'|Sig|':>5} {'amax':>5} {'abar':>5} {'index':>9} | paper: |V| |E| |Sig| amax abar index"
    print(header)
    for name in DATASET_ORDER:
        H = make_dataset(name, scale=scale)
        sh = build_spark_hypergraph(spark, H)
        row = dataset_stats(sh).collect()[0]
        idx_kb = SignatureStore(H).index_nbytes() / 1024
        p = CATALOG[name].paper
        print(
            f"{name:>3} {row['n_vertices']:>7} {row['n_edges']:>6} {row['n_labels']:>5} "
            f"{row['a_max']:>5} {row['avg_arity']:>5.1f} {idx_kb:>7.0f}KB | "
            f"{p.n_vertices} {p.n_edges} {p.n_labels} {p.max_arity} {p.avg_arity} {p.index_size}"
        )
    spark.stop()


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 1.0)
