"""HGMatch as a Spark DataFrame dataflow (SCAN -> EXPAND* -> SINK).

Each row of the dataflow is one partial embedding: ``emb`` (matched
hyperedge ids in phi order), ``vsets`` (their vertex sets) and
``lsets`` (the vertices' labels, aligned by position). ``emb`` is the
row's key, so every EXPAND step (Def. VI.1) reads its input once and
runs Alg. 4 + Alg. 5 as one pipeline:

1. *constraint vertices* — per constraint ``k``, a higher-order
   ``filter`` over the carried arrays keeps, as the array ``c_k``, the
   vertices of the matched step with the constraint's label and
   partial degree that no non-adjacent step covers (Alg. 4 line 5);
2. *enumerate* — ``c0`` is exploded to ``v`` and joined, on ``v``, with
   the postings of the signature's partition, read from ``edges``
   exploded on ``vs`` with each posting carrying its hyperedge's
   ``vs``/``ls`` as ``cvs``/``cls`` (Alg. 4 line 6 for ``k = 0``);
3. *probe* — one filter keeps a joined row when the candidate ``eid``
   is not yet in ``emb``, ``v`` is its least vertex in ``c0`` (so each
   ``(emb, eid)`` pair survives once), ``cvs`` overlaps every other
   ``c_k`` (the intersection of Alg. 4 line 7: every posting is from
   the one partition and carries its ``cvs``), the vertex count passes
   (Obs. V.5), and the sorted ``struct(label, steps)`` profile multiset
   equals the plan's literal expected profiles (Alg. 5), its steps read
   from the pre-append ``vsets``;
4. *append* — one projection appends ``eid``/``cvs``/``cls`` to the row.

At a step whose query hyperedge shares one vertex ``u`` (step mask
``M``) with the partial query, only ``c0`` is projected and exploded,
and the filter keeps only the ``emb`` check and the vertex count. Every
``c_k`` is then the same array: the vertices whose mask is exactly
``M``, by ``c_k``'s label, degree and non-adjacent terms. A candidate
that passes the count shares exactly one vertex with the partial
embedding, so that vertex is the joined ``v``: the row is the pair's
only one, ``cvs`` overlaps every ``c_k``, and its profile is the plan's
(the lemma in :mod:`repro.core.validate`). Unlike the local engine,
which intersects over all of ``M``'s bits, this form rests on both the
degree and the non-adjacent term of ``c0``.

This is the generic-join pattern: enumerate one relation, probe the
others. There is no aggregate, so a step costs two exchanges, both
sides of the ``v`` join, and every operator is deterministic.

Query-side quantities are literals from the
:class:`~repro.core.plan.CompiledPlan`. Each expression goes to the JVM
as Spark SQL expression text (``selectExpr``, ``where``)
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


def _constraint_vertices(step: PlanStep, c: Constraint) -> str:
    """``array<long>``: the vertices of step ``c.j`` that satisfy
    constraint ``c`` (Alg. 4 l.5). Never null: from a null-intolerant
    probe on a nullable array, Catalyst would infer ``isnotnull`` and
    push it, with the array's expression inlined over the previous
    step's appended ``vsets``, into that step's join condition."""
    keep = [
        f"lsets[{c.j}][k] = {_label_sql(c.label)}",
        f"size(filter(vsets, a -> array_contains(a, v))) = {c.degree}",
    ] + [f"NOT array_contains(vsets[{j}], v)" for j in step.non_adjacent]
    return f"coalesce(filter(vsets[{c.j}], (v, k) -> {' AND '.join(keep)}), array())"


def _profiles_match(step: PlanStep) -> str:
    """Alg. 5: the sorted profiles ``struct(label, steps j <= i whose
    hyperedge contains x)`` of the candidate's vertices ``x`` equal the
    plan's query-side multiset. The steps are read from the pre-append
    ``vsets`` plus step ``i`` itself, which holds every ``x``."""
    data = (
        "sort_array(transform(cvs, (x, k) -> named_struct('label', cls[k], "
        f"'steps', concat(filter(sequence(0, {step.i - 1}), "
        f"j -> array_contains(vsets[j], x)), array({step.i})))))"
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
    The postings of constraint 0's vertices are enumerated and every
    other constraint is probed on the joined row, so no aggregate is
    needed (Alg. 4 l.6-7). At a step that shares one query vertex with
    the partial query, ``c0`` alone is enumerated and the vertex count
    alone validates (see the module docstring)."""
    if not step.constraints:
        raise ValueError("EXPAND requires a connected matching order")
    one_shared = len(step.shared_profiles) == 1
    constraints = step.constraints[:1] if one_shared else step.constraints
    cs = [f"c{k}" for k in range(len(constraints))]
    constraint_vertices = (
        f"{_constraint_vertices(step, c)} AS {ck}" for ck, c in zip(cs, constraints)
    )
    cand_postings = postings(
        sh.edges.where(F.col("sig") == sig_str(step.sig)), "vs AS cvs", "ls AS cls"
    )
    # Validation (Alg. 5) starts with the Obs. V.5 vertex count.
    vcount = f"size(array_distinct(concat(flatten(vsets), cvs))) = {step.expected_vcount}"
    if one_shared:
        keep = ["NOT array_contains(emb, eid)", vcount]
    else:
        keep = [
            "NOT array_contains(emb, eid)",
            # One row per (emb, eid): the posting of the candidate's
            # least vertex in c0.
            "v = array_min(array_intersect(cvs, c0))",
            *(f"arrays_overlap(cvs, {ck})" for ck in cs[1:]),
            vcount,
            _profiles_match(step),
        ]
    return (
        cur.selectExpr("emb", "vsets", "lsets", *constraint_vertices)
        # explode_outer: on an attribute, explode makes Catalyst infer
        # ``size(c0) > 0`` and push it, c0 inlined, into the previous
        # step's join condition. The null v of an empty c0 joins nothing.
        .selectExpr("*", "explode_outer(c0) AS v")
        .join(cand_postings, "v")
        .where(" AND ".join(keep))
        .selectExpr(
            "concat(emb, array(eid)) AS emb",
            "concat(vsets, array(cvs)) AS vsets",
            "concat(lsets, array(cls)) AS lsets",
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
