"""Embedding validation (paper Alg. 5, Theorem V.2) + exact oracle.

``is_valid_embedding`` is the paper's backtracking-free check: the
cheap vertex-count test (Obs. V.5) followed by multiset equality of
vertex profiles (Def. V.3) between the newly matched query hyperedge
and the candidate data hyperedge.

A profile is ``(label, S)`` with ``S`` the steps whose matched
hyperedge holds the vertex, encoded as a bitmask (bit ``j`` for step
``j``). The engine builds the parent's vertex -> mask map once per
expansion, in O(sum of arities) (:func:`~repro.core.plan.step_masks`).
A candidate at step ``i`` adds only bit ``i``, and only for its own
vertices.

Every candidate comes from the one partition S(phi[i]) (Obs. V.1), so
its label multiset already equals phi[i]'s. That leaves only the
profiles of the vertices it shares with the partial embedding to
compare: a vertex outside the partial embedding has profile
``(label, 1 << i)`` on both sides. The check therefore costs one
C-level intersection of the candidate with the map's keys plus
O(|shared|) Python work (see :func:`is_valid_embedding`). Almost every
step of a real query shares one vertex with the partial query (99.9%
of the Alg. 5 calls of the benchmark's ``enum_heavy`` workload); there
the profile multiset is a single pair, and on a candidate of Alg. 4 it
needs no comparison at all:

*Lemma (one shared vertex).* Let ``phi[i]`` share exactly one query
vertex ``u`` with the partial query, and let ``M`` be ``u``'s step
mask. Then the adjacent steps are exactly ``M``, Alg. 4's constraints
are one ``(j, l(u), |M|)`` per bit ``j`` of ``M``, and its forbidden
mask is every step below ``i`` outside ``M``. A candidate that passes
the vertex count shares exactly one vertex ``v`` with the (valid)
partial embedding, so every constraint's vertex in it is ``v``. Any
two of Alg. 4's three guards then give ``incid[v] == M``: the
non-adjacent exclusion (mask within ``M``) with the degree filter
(popcount ``|M|``), the non-adjacent exclusion with the intersection
over ``M``'s bits (mask covers ``M``), or the degree filter with that
intersection. With ``l(v) == l(u)`` the one shared profile equals
``step.shared_profiles``, so the count alone decides. The Spark engine
enumerates only one constraint at such steps and so rests on both
filters (:mod:`repro.dist.engine`).

Why this is exactly correct (sketch, expanding the paper's proof):
each vertex's profile only changes at steps where it lies in the newly
added hyperedge, so it is re-checked at every step where it changes —
in particular with its *final* profile at its last incidence step. A
counting argument over profile classes ``(label, S)`` with
``i* = max(S)`` (the mask's highest bit) shows the per-step multiset
equalities determine the multiset of final profiles on both sides;
equal final-profile multisets admit a within-class bijection, which
maps ``phi[j]`` onto ``m[j]`` exactly for every ``j`` — i.e. a valid
embedding. Conversely a valid embedding induces profile-preserving
correspondences at every step. The mask is a lossless encoding of
``S``, so the argument holds unchanged. ``exact_embedding_exists`` (a
small backtracking bijection search) is kept as an independent oracle;
the test suite asserts the two always agree.
"""
from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.core.plan import CompiledPlan, PlanStep
from repro.hyper.model import Hypergraph


def is_valid_embedding(
    step: PlanStep,
    incid: dict[int, int],
    vs: frozenset[int],
    stats: Counter | None = None,
    *,
    H: Hypergraph,
    from_alg4: bool = False,
) -> bool:
    """Alg. 5: vertex-count check then profile-multiset equality.

    ``incid`` maps each vertex of the matched hyperedges of steps
    ``0..step.i-1`` to its step bitmask; ``vs`` is the candidate's
    vertex set. ``stats`` counts how many candidates survive each check
    (Exp-3's 'Filtered' vs 'Embeddings' series); the op charge is
    booked by the caller, once per expansion.

    Precondition: ``vs`` lies in the partition S(phi[i]), so its label
    multiset equals phi[i]'s. Only the vertices ``shared`` with the
    partial embedding are then compared, against
    ``step.shared_profiles`` (masks without bit ``i``). Equal shared
    multisets mean equal shared label multisets; subtracting those from
    the equal signatures leaves equal label multisets for the new
    vertices, whose masks are all ``1 << i`` on both sides. So the full
    ``(label, mask | 1 << i)`` multisets are equal. Conversely, equal
    full multisets restrict to equal multisets of the profiles with a
    bit other than ``i``, which are exactly the shared ones.

    Once the vertex count holds, the shared sets have the same size on
    both sides. With one shared vertex ``v`` the multiset is the single
    pair ``(label(v), incid[v])``, compared without a sort.

    ``from_alg4`` adds the precondition that ``vs`` came out of
    :func:`~repro.core.candidates.generate_candidates` for this step and
    ``incid``. Then, at a step whose query hyperedge shares one vertex
    ``u`` (step mask ``M``) with the partial query, the vertex count
    alone decides: Alg. 4 has already fixed the shared vertex's profile
    to ``(label(u), M)`` (the module docstring's lemma).
    """
    shared = incid.keys() & vs
    if len(incid) + len(vs) - len(shared) != step.expected_vcount:
        return False
    if stats is not None:
        stats["filtered"] += 1  # passed the Obs. V.5 check
    if from_alg4 and len(step.shared_profiles) == 1:
        pass  # Alg. 4 fixed the one shared profile: the module's lemma
    elif len(shared) == 1:
        # One shared vertex (almost every step of a real query): its
        # profile is the whole multiset, so no list, sort or tuple.
        (v,) = shared
        if ((H.labels[v], incid[v]),) != step.shared_profiles:
            return False
    else:
        labels = H.labels
        if tuple(sorted([(labels[v], incid[v]) for v in shared])) != step.shared_profiles:
            return False
    if stats is not None:
        stats["validated"] += 1
    return True


def exact_embedding_exists(
    plan: CompiledPlan,
    vsets: Sequence[frozenset[int]],
    H: Hypergraph,
    n_steps: int | None = None,
) -> bool:
    """Oracle: does a label-preserving bijection ``f: V(q') -> V(H_m)``
    with ``f(phi[j]) = m[j]`` (set-wise, all ``j < n_steps``) exist?

    Pure backtracking over query vertices — the thing HGMatch avoids at
    runtime; used in tests and available as a strict validation mode.
    """
    q = plan.q
    k = len(vsets) if n_steps is None else n_steps
    qverts = sorted({u for j in range(k) for u in q.edges[plan.phi[j]]})
    # Domain of u: intersection of matched images of u's incident steps,
    # minus union of matched images of non-incident steps.
    domains: dict[int, set[int]] = {}
    for u in qverts:
        inc = [j for j in range(k) if u in q.edges[plan.phi[j]]]
        dom: set[int] = set.intersection(*(set(vsets[j]) for j in inc))
        for j in range(k):
            if j not in inc:
                dom -= vsets[j]
        domains[u] = {v for v in dom if H.label(v) == q.label(u)}
    order = sorted(qverts, key=lambda u: len(domains[u]))
    used: set[int] = set()

    def rec(idx: int) -> bool:
        if idx == len(order):
            return True
        u = order[idx]
        for v in domains[u]:
            if v in used:
                continue
            used.add(v)
            if rec(idx + 1):
                used.discard(v)
                return True
            used.discard(v)
        return False

    # Vertex-count precondition: bijection needs equal totals.
    if len(qverts) != len(frozenset().union(*vsets[:k]) if k else frozenset()):
        return False
    return rec(0)
