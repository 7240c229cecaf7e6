"""Distributed HGMatch on Spark DataFrames (the dataflow engine).

The paper's dataflow model (Section VI-A) maps onto Catalyst: SCAN is a
filter over the signature-partitioned hyperedge table, every EXPAND is
a fixed pipeline: one set-operation join against the partition's
postings plus higher-order-function expressions implementing Alg. 4's
unions/intersections and Alg. 5's profile validation, and SINK is an
action (count/collect). Parallelism, scheduling and memory management
inside one EXPAND are Spark's; the thread-level task scheduler of
Section VI-B is reproduced separately in :mod:`repro.engine`.
"""
from repro.dist.engine import spark_hgmatch, spark_hgmatch_count  # noqa: F401
from repro.dist.storage import SparkHypergraph, build_spark_hypergraph  # noqa: F401
