"""``spark_wt``: the Spark SCAN/EXPAND/SINK dataflow on WT scale 0.5.

Kept apart from :mod:`workloads` so the local workloads never import
PySpark or start a JVM. The session is pinned here rather than taken
from ``jobs/_common.py`` or ``conftest.py``, which disagree on shuffle
partitions (16 versus 64). Its relations hold a few thousand rows, so
a query is bound by driver-side planning and per-stage scheduling, not
by executor parallelism: one executor thread and one shuffle partition
ran the pass 5-10% faster than ``local[4]`` with 4 partitions and
reached the JIT plateau two passes sooner. A fixed 2 GB heap and the
serial collector keep GC threads from competing with the query threads:
over five runs each, they cut the ``run_s`` spread from 33% to 12%.
"""
from __future__ import annotations

import os
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any

import repro.core.local_engine as local_engine
import repro.dist.engine as dist_engine
import repro.dist.storage as dist_storage
import repro.hyper.queries as queries
from repro.hyper.model import Hypergraph

from tracer import Tracer
from workloads import (
    PINNED_SAMPLE_SEED,
    SETTINGS,
    Query,
    Workload,
    exact_counts,
    load,
    wrap_core,
)

SPARK_MASTER = "local[1]"
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "1",
    "spark.sql.autoBroadcastJoinThreshold": "-1",  # as the test fixture
    "spark.sql.adaptive.enabled": "true",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.driver.memory": "2g",
    "spark.driver.host": "127.0.0.1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
}


def start_spark(workdir: Path) -> tuple[Any, float]:
    """A pinned local session whose scratch files stay in ``workdir``.
    Returns the session and its start-up seconds (JVM launch included)."""
    tmp = workdir / "spark-tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Inherited submit args or local dirs would override the pinned
    # master, driver memory and scratch location.
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    from pyspark.sql import SparkSession

    t0 = perf_counter()
    builder = SparkSession.builder.appName("hgmatch-bench").master(SPARK_MASTER)
    for k, v in SPARK_CONF.items():
        builder = builder.config(k, v)
    builder = builder.config("spark.local.dir", str(tmp)).config(
        "spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp} -Xms2g -XX:+UseSerialGC"
    )
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark, perf_counter() - t0


def stop_spark(spark: Any) -> None:
    """Stop the session and wait until the JVM has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the gateway server exits on stdin EOF
        proc.wait(timeout=60)
    SparkContext._gateway = None
    SparkContext._jvm = None


def wrap_dist(tr: Tracer) -> None:
    tr.wrap(dist_storage.SparkHypergraph, "cardinalities", "dist.cardinalities")
    tr.wrap(dist_engine, "spark_hgmatch", "dist.plan_build")
    tr.wrap(dist_engine, "spark_hgmatch_count", "dist.query")


def build(spark: Any, H: Hypergraph) -> Any:
    """``build_spark_hypergraph`` plus materialising both relations, so
    the measured set-up does not leak into the first query."""
    sh = dist_storage.build_spark_hypergraph(spark, H)
    sh.edges = sh.edges.cache()
    sh.index = sh.index.cache()
    sh.edges.count()
    sh.index.count()
    return sh


def executed_plan(spark: Any, sh: Any, q: Hypergraph) -> Counter:
    """Operators of the physical plan ``spark_hgmatch_count`` executes
    for ``q``: the ``groupBy().count()`` that ``DataFrame.count`` runs,
    run first so that adaptive execution has settled its final plan."""
    df, _ = dist_engine.spark_hgmatch(spark, sh, q)
    counted = df.groupBy().count()
    counted.collect()
    ops: Counter = Counter()
    walk_plan(counted._jdf.queryExecution().executedPlan(), ops)
    return ops


def walk_plan(node: Any, ops: Counter) -> None:
    """Count the operators of a JVM ``SparkPlan`` by node name, through
    adaptive plans and query stages but not into cached relations (they
    ran in set-up). Code-generation wrappers are not operators."""
    name = node.nodeName()
    if name == "AdaptiveSparkPlan":
        return walk_plan(node.executedPlan(), ops)
    if name.endswith("QueryStage"):
        return walk_plan(node.plan(), ops)
    if not (name.startswith("WholeStageCodegen") or name == "InputAdapter"):
        ops[name] += 1
    children = node.children()
    for i in range(children.size()):
        walk_plan(children.apply(i), ops)


class SparkWT(Workload):
    """Table III q2 and q3 on WT scale 0.5, timed; q4 runs in the
    warm-up, and its plan and step rows are checked in the traced run.
    A pass with q4 took 9-15 s against 4-6 s without (q6 takes ~1 min),
    so a run times three passes of q2 and q3."""

    wraps = (wrap_dist,)
    required = ["dist.query", "dist.plan_build", "dist.cardinalities"]
    SCALE = 0.5
    TIMED = ("q2", "q3")
    SHAPE_ONLY = ("q4",)
    WARM_PASSES = 1
    min_passes = 3
    # Each query's fastest wall-time pass: the passes after warm-up
    # still gain a little from the JIT. Scaling by the reference loop
    # (``Workload.timed``) does not fit a query that runs in the JVM's
    # threads: over five 3-pass windows in one session, scaled run_s
    # spread 2.1-3.4 s against 3.5-4.4 s unscaled.
    per_query = staticmethod(min)

    def __init__(self, run):
        super().__init__(run)
        self.spark, self.session_s = start_spark(run.workdir)
        self.build_walls: list[float] = []
        self.sh = None
        self.counts: dict[int, set[int]] = {}

    def extra_setup_s(self) -> float:
        return self.session_s

    def setup(self) -> list[Query]:
        H, store, key = load("WT", self.SCALE)
        qs = [
            Query(f"WT/{s}", H, store, queries.sample_queries(H, SETTINGS[s], 1, seed=PINNED_SAMPLE_SEED)[0].query, key)
            for s in self.TIMED + self.SHAPE_ONLY
        ]
        if self.sh is not None:
            self.sh.edges.unpersist()
            self.sh.index.unpersist()
        t0 = perf_counter()
        self.sh = build(self.spark, H)
        self.build_walls.append(perf_counter() - t0)
        return qs

    def warm_up(self) -> None:
        """An untimed q2 drawn from ``--seed``, then WARM_PASSES untimed
        passes over every query, q4 included. The JVM's JIT cuts query
        time over the first passes, and only a warm-up that runs q4
        brought q3 down to its plateau (q3 stayed at ~4 s after nine
        q2 + q3 passes, against 2.7-3.1 s after two with q4). Later
        passes still gain a little; each query's fastest timed pass
        counts."""
        H = self.state[0].H
        q = queries.sample_queries(H, SETTINGS["q2"], 1, seed=1000 + self.run.seed)[0].query
        dist_engine.spark_hgmatch_count(self.spark, self.sh, q)
        for _ in range(self.WARM_PASSES):
            for i, lq in enumerate(self.state):
                self.counts.setdefault(i, set()).add(
                    dist_engine.spark_hgmatch_count(self.spark, self.sh, lq.q)
                )

    def one_pass(self) -> None:
        for i, lq in enumerate(self.state[: len(self.TIMED)]):
            self.run.attempted += 1
            t0 = perf_counter()
            try:
                c = dist_engine.spark_hgmatch_count(self.spark, self.sh, lq.q)
            except Exception as e:  # a failing query is counted, not fatal
                self.run.fail(f"{lq.name}: {e!r}")
                continue
            dt = perf_counter() - t0
            self.lat.setdefault(lq.name, []).append(dt)
            self.wall.setdefault(lq.name, []).append(dt)
            self.counts.setdefault(i, set()).add(c)
            self.emb += c

    def stores(self) -> list[Any]:
        return [self.state[0].store]

    def local_steps(self, lq: Query) -> tuple[dict[int, int], tuple[int, ...]]:
        """The local engine's per-step validated counts (step 0 is the
        SCAN), from the outside-in tracer, and its matching order."""
        tr = Tracer()
        wrap_core(tr)
        try:
            r = local_engine.hgmatch(lq.H, lq.store, lq.q)
        finally:
            tr.unwrap()
        steps = {0: lq.store.card(lq.q.signature(r.phi[0]))}
        steps.update({i: tr.counts[f"validated@{i}"] for i in range(1, len(r.phi))})
        return steps, r.phi

    def report(self, tr: Tracer | None) -> None:
        run = self.run
        if tr is None:
            return
        run.put("dist.session_s", self.session_s, "s")
        run.put("dist.build_s", statistics.median(self.build_walls), "s", len(self.build_walls))
        exchanges, nodes, rows, per_query = 0, 0, [], {}
        for i, lq in enumerate(self.state):
            ops = executed_plan(self.spark, self.sh, lq.q)
            n_ex = ops["Exchange"] + ops["ReusedExchange"]
            exchanges += n_ex
            nodes += sum(ops.values())
            # Each phi-prefix is validated exactly by Alg. 5, so Spark's
            # prefix counts must equal the local per-step counts.
            local_steps, phi = self.local_steps(lq)
            spark_steps = {}
            for k in range(len(phi) - 1):
                prefix, _ = lq.q.subhypergraph(list(phi[: k + 1]))
                spark_steps[k] = dist_engine.spark_hgmatch_count(
                    self.spark, self.sh, prefix, phi=list(range(k + 1))
                )
            spark_steps[len(phi) - 1] = min(self.counts[i])
            if spark_steps != local_steps:
                run.fail(f"{lq.name}: Spark step rows {spark_steps} != local {local_steps}")
            rows += spark_steps.values()
            per_query[lq.name] = {"exchanges": n_ex, "step_rows": list(spark_steps.values())}
        run.put("dist.exchanges", exchanges, "count", len(self.state))
        run.put("dist.plan_nodes", nodes, "count", len(self.state))
        run.put("dist.step_rows", sum(rows), "count", len(rows))
        run.put("dist.peak_step_rows", max(rows), "count", len(rows))
        run.detail["plan_shape"] = per_query

    def check(self) -> None:
        oracle = exact_counts(self.run.workdir, self.state)
        for i, lq in enumerate(self.state):
            local = local_engine.hgmatch(lq.H, lq.store, lq.q).count
            if local != oracle[i]:
                self.run.fail(f"{lq.name}: local count {local} != exact oracle {oracle[i]}")
            for c in self.counts.get(i, set()):
                if c != local:
                    self.run.fail(f"{lq.name}: Spark count {c} != local {local}")

    def close(self) -> None:
        stop_spark(self.spark)
