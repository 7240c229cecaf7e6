"""Candidate hyperedge generation via set operations (paper Alg. 4).

Given a partial embedding (the matched data hyperedges of steps
``0..i-1``) and the compiled constants of step ``i``, produce the
candidate data hyperedges for ``phi[i]``:

1. ``V_n_incdt``, the vertices of matched hyperedges whose query
   hyperedge is *not* adjacent to ``phi[i]`` (Obs. V.3), are those whose
   step bitmask meets the non-adjacent steps' mask;
2. for every deduplicated constraint ``(j, label, degree)``: filter the
   matched image of step ``j`` to ``V_incdt`` (label + partial-degree
   + non-incidence check; Obs. V.2-V.4, the degree ``d_{H_m}(v)`` being
   the popcount of ``v``'s step bitmask), then union the posting lists
   ``he(v, S(phi[i]))`` over ``v in V_incdt``;
3. intersect all the per-constraint unions (Obs. V.1 is implicit: only
   the partition with signature ``S(phi[i])`` is ever touched).

The step bitmasks (:func:`~repro.core.plan.step_masks`) are the map the
engine builds once per expansion and shares with Alg. 5.

Exactly the paper's difference / union / intersection pipeline. The
Spark engine enumerates the first constraint's union with explode +
join and probes the others on each candidate's vertex array.
"""
from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.core.plan import PlanStep, step_masks
from repro.hyper.storage import SignatureStore


def generate_candidates(
    step: PlanStep,
    vsets: Sequence[frozenset[int]],
    store: SignatureStore,
    stats: Counter | None = None,
    incid: dict[int, int] | None = None,
) -> list[int]:
    """Candidates for ``phi[step.i]`` given matched images ``vsets``.

    ``vsets[j]`` is the vertex set of the data hyperedge matched at
    step ``j`` (``j < step.i``). Returns candidate hyperedge ids in
    ascending order. ``stats`` (optional) accrues operation counts used
    for budgets and the scheduler simulator's cost model. ``incid`` is
    ``step_masks(vsets)``, built here when the caller does not pass it.
    """
    labels = store.H.labels
    ops = 0

    if not step.constraints:
        # Degenerate (only step 0 of a plan, or a disconnected query
        # which compute_matching_order rejects): whole partition.
        out = list(store.scan(step.sig))
        if stats is not None:
            stats["ops"] += len(out)
            stats["candidates"] += len(out)
        return out

    if incid is None:
        incid = step_masks(vsets)
    # Ops keep the set-based cost model: the V_n_incdt union and the
    # degree count over every matched vertex set.
    forbidden = 0
    for j in step.non_adjacent:
        forbidden |= 1 << j
        ops += len(vsets[j])
    for vs in vsets:
        ops += len(vs)

    result: set[int] | None = None
    for c in step.constraints:
        union: set[int] = set()
        ops += len(vsets[c.j])
        for v in vsets[c.j]:
            mask = incid[v]
            if mask & forbidden or labels[v] != c.label or mask.bit_count() != c.degree:
                continue
            post = store.he(v, step.sig)
            union.update(post)
            ops += len(post)
        if result is None:
            result = union
        else:
            result &= union
            ops += min(len(result), len(union))
        if not result:
            break
    assert result is not None
    if stats is not None:
        stats["ops"] += ops
        stats["candidates"] += len(result)
    return sorted(result)
