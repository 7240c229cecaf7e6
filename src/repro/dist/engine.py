"""HGMatch as a Spark DataFrame dataflow (SCAN -> EXPAND* -> SINK).

Each row of the dataflow is one partial embedding: ``emb`` (matched
hyperedge ids in phi order), ``vsets`` (their vertex sets) and
``lsets`` (the vertices' labels, aligned by position). ``emb`` is the
row's key, so every EXPAND step (Def. VI.1) reads its input once and
runs Alg. 4 + Alg. 5 as one pipeline:

1. *tagged candidate vertices* — per constraint ``ck``, a
   higher-order ``filter`` over the carried arrays keeps the vertices
   of the matched step with the constraint's label and partial degree
   that no non-adjacent step covers (Alg. 4 line 5); the per-constraint
   results are concatenated into one ``array<struct(ck, v)>`` and
   ``inline``-d once;
2. *posting-list union* — join, on ``v``, the postings of the
   signature's partition, read from ``edges`` exploded on ``vs`` with
   each posting carrying its hyperedge's ``vs``/``ls`` as ``cvs``/``cls``
   (Alg. 4 line 6);
3. *intersection* — ``groupBy(emb, eid)`` keeping candidates with
   ``size(collect_set(ck)) = K`` (Alg. 4 line 7); ``vsets``/``lsets``
   ride through the aggregate since ``emb`` determines them, and
   ``cvs``/``cls`` since ``eid`` determines them;
4. *validation* — append the candidate to the row, then the
   vertex-count check (Obs. V.5) and the sorted ``struct(label,
   steps)`` profile multiset against the plan's literal expected
   profiles (Alg. 5). No join: the payload came with the postings.

A step thus costs three exchanges: both sides of the ``v`` join and the
aggregate.

Query-side quantities are literals from the
:class:`~repro.core.plan.CompiledPlan`, built with the Column API (no
SQL strings, no Python UDFs), so the plan grows by a fixed number of
operators per EXPAND step.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.local_engine import MatchResult, embeddings_in_query_edge_order
from repro.core.order import compute_matching_order
from repro.core.plan import CompiledPlan, Constraint, PlanStep, compile_plan, mask_steps
from repro.dist.storage import SparkHypergraph, postings, sig_str
from repro.hyper.model import Hypergraph


def _scan(sh: SparkHypergraph, step: PlanStep) -> DataFrame:
    """SCAN(phi[0]): all data hyperedges in the partition S(phi[0])."""
    return (
        sh.edges.where(F.col("sig") == sig_str(step.sig))
        .select(
            F.array("eid").alias("emb"),
            F.array("vs").alias("vsets"),
            F.array("ls").alias("lsets"),
        )
    )


def _tagged_candidates(step: PlanStep, ck: int, c: Constraint) -> Column:
    """``array<struct(ck, v)>``: the vertices of step ``c.j`` that
    satisfy constraint ``c`` (Alg. 4 l.5), tagged with ``ck``."""
    vsets, lsets = F.col("vsets"), F.col("lsets")

    def keep(v: Column, idx: Column) -> Column:
        ok = (lsets[c.j][idx] == F.lit(c.label)) & (
            F.size(F.filter(vsets, lambda a: F.array_contains(a, v))) == c.degree
        )
        for j in step.non_adjacent:
            ok &= ~F.array_contains(vsets[j], v)
        return ok

    return F.transform(
        F.filter(vsets[c.j], keep),
        lambda v: F.struct(F.lit(ck).alias("ck"), v.alias("v")),
    )


def _profiles_match(step: PlanStep) -> Column:
    """Alg. 5: the sorted profiles ``struct(label, steps j <= i whose
    hyperedge contains v)`` of the new hyperedge's vertices equal the
    plan's query-side multiset."""
    vsets = F.col("vsets")
    data = F.sort_array(
        F.transform(
            "cvs",
            lambda v, idx: F.struct(
                F.col("cls")[idx].alias("label"),
                F.filter(
                    F.sequence(F.lit(0), F.lit(step.i)),
                    lambda j: F.array_contains(vsets[j], v),
                ).alias("steps"),
            ),
        )
    )
    query = F.array(
        *[
            F.struct(
                F.lit(label).alias("label"),
                F.array(*[F.lit(j) for j in steps]).alias("steps"),
            )
            # In sort_array's order for the data side: by (label, steps).
            for label, steps in sorted(
                (label, mask_steps(mask)) for label, mask in step.expected_profiles
            )
        ]
    )
    return data == query


def _expand(sh: SparkHypergraph, step: PlanStep, cur: DataFrame) -> DataFrame:
    """EXPAND(phi[i]): extend every partial embedding by one hyperedge."""
    if not step.constraints:
        raise ValueError("EXPAND requires a connected matching order")
    s = sig_str(step.sig)
    tagged = F.concat(
        *[_tagged_candidates(step, ck, c) for ck, c in enumerate(step.constraints)]
    )
    # The partition's postings, each carrying its hyperedge's vertex and
    # label arrays; posting-list union + intersection (Alg. 4 l.6-7),
    # keyed by emb. collect_set, not countDistinct: next to ``first``, a
    # distinct aggregate is planned as two aggregations with one more
    # shuffle.
    cand_postings = postings(
        sh.edges.where(F.col("sig") == s),
        F.col("vs").alias("cvs"),
        F.col("ls").alias("cls"),
    ).drop("sig")
    joined = (
        cur.select("emb", "vsets", "lsets", F.inline(tagged))
        .join(cand_postings, "v")
        .where(~F.array_contains("emb", F.col("eid")))
        .groupBy("emb", "eid")
        .agg(
            F.size(F.collect_set("ck")).alias("nck"),
            F.first("vsets").alias("vsets"),
            F.first("lsets").alias("lsets"),
            F.first("cvs").alias("cvs"),
            F.first("cls").alias("cls"),
        )
        .where(F.col("nck") == len(step.constraints))
        .select(
            F.concat("emb", F.array("eid")).alias("emb"),
            F.concat("vsets", F.array("cvs")).alias("vsets"),
            F.concat("lsets", F.array("cls")).alias("lsets"),
            "cvs",
            "cls",
        )
    )
    # Validation (Alg. 5): Obs. V.5 vertex count, then profile multiset.
    vcount_ok = F.size(F.array_distinct(F.flatten("vsets"))) == step.expected_vcount
    return (
        joined.where(vcount_ok)
        .where(_profiles_match(step))
        .select("emb", "vsets", "lsets")
    )


def spark_hgmatch(
    spark: SparkSession,
    sh: SparkHypergraph,
    q: Hypergraph,
    *,
    phi: list[int] | None = None,
) -> tuple[DataFrame, CompiledPlan]:
    """Build the full dataflow for query ``q``; returns the embeddings
    DataFrame (column ``emb``: matched hyperedge ids in phi order) plus
    the compiled plan. Lazily evaluated — SINK is the caller's action.
    """
    if phi is None:
        cards = sh.cardinalities()

        def card(sig) -> int:
            return cards.get(sig_str(sig), 0)

        phi = compute_matching_order(q, card)
    plan = compile_plan(q, phi)
    df = _scan(sh, plan.steps[0])
    for step in plan.steps[1:]:
        df = _expand(sh, step, df)
    return df.select("emb"), plan


def spark_hgmatch_count(
    spark: SparkSession,
    sh: SparkHypergraph,
    q: Hypergraph,
    *,
    phi: list[int] | None = None,
) -> int:
    """SINK(count): number of embeddings of ``q`` in ``sh``."""
    df, _ = spark_hgmatch(spark, sh, q, phi=phi)
    return df.count()


def collect_embeddings_query_edge_order(
    df: DataFrame, plan: CompiledPlan
) -> set[tuple[int, ...]]:
    """Collect embeddings re-aligned to query-hyperedge order, for
    cross-engine comparison in tests."""
    embs = [tuple(row["emb"]) for row in df.collect()]
    return embeddings_in_query_edge_order(
        MatchResult(len(embs), tuple(plan.phi), embeddings=embs)
    )
