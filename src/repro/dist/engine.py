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
3. *intersection* — ``groupBy(emb, eid)`` counting the constraints a
   candidate meets as ``size(collect_set(ck))`` (Alg. 4 line 7; step 4
   keeps those that meet all ``K``); ``vsets``/``lsets``
   ride through the aggregate since ``emb`` determines them, and
   ``cvs``/``cls`` since ``eid`` determines them;
4. *validation* — one projection appends the candidate to the row,
   and one filter keeps rows that meet all ``K`` constraints, pass the
   vertex-count check (Obs. V.5) and whose sorted ``struct(label,
   steps)`` profile multiset equals the plan's literal expected
   profiles (Alg. 5). No join: the payload came with the postings.

A step thus costs three exchanges: both sides of the ``v`` join and the
aggregate.

Query-side quantities are literals from the
:class:`~repro.core.plan.CompiledPlan`. Each expression goes to the JVM
as Spark SQL expression text (``selectExpr``, ``where``, ``F.expr``)
and is parsed there in one call; a Column tree costs py4j round trips
per node, about ten times as many per EXPAND step. The only
values formatted into the text are ints and fixed column names, and
labels, which enter only through :func:`_label_sql` as hex-encoded
UTF-8 bytes, so no label character reaches the SQL parser. There are
no Python UDFs, and the plan grows by a fixed number of operators per
EXPAND step.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.local_engine import MatchResult, embeddings_in_query_edge_order
from repro.core.order import compute_matching_order
from repro.core.plan import CompiledPlan, Constraint, PlanStep, compile_plan, mask_steps
from repro.dist.storage import SparkHypergraph, postings, sig_str
from repro.hyper.model import Hypergraph


def _label_sql(label: str) -> str:
    """``label`` as SQL expression text: its UTF-8 bytes as a binary
    literal, decoded. Neither a label character nor a quote reaches the
    parser, whatever ``spark.sql.parser.escapedStringLiterals`` says,
    and the optimizer folds the ``decode`` into a string constant."""
    return f"decode(X'{label.encode('utf-8').hex()}', 'UTF-8')"


def _scan(sh: SparkHypergraph, step: PlanStep) -> DataFrame:
    """SCAN(phi[0]): all data hyperedges in the partition S(phi[0])."""
    return sh.edges.where(F.col("sig") == sig_str(step.sig)).selectExpr(
        "array(eid) AS emb", "array(vs) AS vsets", "array(ls) AS lsets"
    )


def _tagged_candidates(step: PlanStep, ck: int, c: Constraint) -> str:
    """``array<struct(ck, v)>``: the vertices of step ``c.j`` that
    satisfy constraint ``c`` (Alg. 4 l.5), tagged with ``ck``."""
    keep = [
        f"lsets[{c.j}][k] = {_label_sql(c.label)}",
        f"size(filter(vsets, a -> array_contains(a, v))) = {c.degree}",
    ] + [f"NOT array_contains(vsets[{j}], v)" for j in step.non_adjacent]
    return (
        f"transform(filter(vsets[{c.j}], (v, k) -> {' AND '.join(keep)}), "
        f"v -> named_struct('ck', {ck}, 'v', v))"
    )


def _profiles_match(step: PlanStep) -> str:
    """Alg. 5: the sorted profiles ``struct(label, steps j <= i whose
    hyperedge contains v)`` of the new hyperedge's vertices equal the
    plan's query-side multiset."""
    data = (
        "sort_array(transform(cvs, (v, k) -> named_struct('label', cls[k], "
        f"'steps', filter(sequence(0, {step.i}), j -> array_contains(vsets[j], v)))))"
    )
    query = ", ".join(
        f"named_struct('label', {_label_sql(label)}, "
        f"'steps', array({', '.join(map(str, steps))}))"
        # In sort_array's order for the data side: by (label, steps).
        for label, steps in sorted(
            (label, mask_steps(mask)) for label, mask in step.expected_profiles
        )
    )
    return f"{data} = array({query})"


def _expand(sh: SparkHypergraph, step: PlanStep, cur: DataFrame) -> DataFrame:
    """EXPAND(phi[i]): extend every partial embedding by one hyperedge.
    The rows keep the candidate's ``cvs``/``cls`` and ``nck`` next to
    ``emb``/``vsets``/``lsets``; the next step's select drops them."""
    if not step.constraints:
        raise ValueError("EXPAND requires a connected matching order")
    tagged = ", ".join(
        _tagged_candidates(step, ck, c) for ck, c in enumerate(step.constraints)
    )
    # The partition's postings, each carrying its hyperedge's vertex and
    # label arrays; posting-list union + intersection (Alg. 4 l.6-7),
    # keyed by emb. collect_set, not countDistinct: next to ``first``, a
    # distinct aggregate is planned as two aggregations with one more
    # shuffle.
    cand_postings = postings(
        sh.edges.where(F.col("sig") == sig_str(step.sig)), "vs AS cvs", "ls AS cls"
    )
    return (
        cur.selectExpr("emb", "vsets", "lsets", f"inline(concat({tagged}))")
        .join(cand_postings, "v")
        .where("NOT array_contains(emb, eid)")
        .groupBy("emb", "eid")
        .agg(
            F.expr("size(collect_set(ck)) AS nck"),
            F.expr("first(vsets) AS vsets"),
            F.expr("first(lsets) AS lsets"),
            F.expr("first(cvs) AS cvs"),
            F.expr("first(cls) AS cls"),
        )
        .selectExpr(
            "concat(emb, array(eid)) AS emb",
            "concat(vsets, array(cvs)) AS vsets",
            "concat(lsets, array(cls)) AS lsets",
            "cvs",
            "cls",
            "nck",
        )
        # Intersection size, then validation (Alg. 5): Obs. V.5 vertex
        # count, then the profile multiset.
        .where(
            f"nck = {len(step.constraints)}"
            f" AND size(array_distinct(flatten(vsets))) = {step.expected_vcount}"
            f" AND {_profiles_match(step)}"
        )
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
