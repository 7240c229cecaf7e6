"""Sequential match-by-hyperedge engine (paper Alg. 2).

Executes a :class:`~repro.core.plan.CompiledPlan` with an explicit LIFO
stack of ``(step, m)`` tasks — the single-thread specialisation of the
task-based scheduler of Section VI-B, so memory stays bounded (no
level-wise materialisation) and the traversal order matches what the
parallel simulator replays. ``m`` holds the matched hyperedge ids of
steps ``0..step-1``; step 0 is SCAN, step ``n`` is SINK and every other
step is EXPAND. Both this engine and :mod:`repro.engine.tasks` process
a task with :func:`expand_embedding`.

The engine never recurses. Each expansion builds one map from every
vertex of ``m``'s hyperedges to its step bitmask (the steps part of a
Def. V.3 vertex profile) in O(sum of arities), then runs Alg. 4
(set-operation candidate generation) and Alg. 5 (profile validation,
O(|shared|) per candidate after one C-level set intersection) against
it. Alg. 5 is called once per fresh candidate; at a step that shares
one query vertex with the partial query its vertex count alone decides,
because Alg. 4 has fixed that vertex's profile (the lemma in
:mod:`repro.core.validate`). The map lives only for that expansion; a
task stays ``(step, m)``.
Operation counting serves budgets ("timeouts") and Exp-3's filtering
statistics:

- ``stats['ops']``        — basic set operations. Alg. 5's charge is
  booked once per expansion, after the candidate loop, so the total at
  every task boundary (where budgets and task costs read it) is the
  per-candidate sum
- ``stats['candidates']`` — candidates emitted by SCAN and Alg. 4
- ``stats['filtered']``   — survivors of the vertex-count check (Obs. V.5)
- ``stats['validated']``  — survivors of profile validation (= embeddings
  at the final step)
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.candidates import generate_candidates
from repro.core.order import compute_matching_order
from repro.core.plan import CompiledPlan, compile_plan, step_masks
from repro.core.validate import exact_embedding_exists, is_valid_embedding
from repro.hyper.model import Hypergraph
from repro.hyper.storage import SignatureStore


@dataclass
class MatchResult:
    """Outcome of one subhypergraph-matching run."""

    count: int
    phi: tuple[int, ...]
    stats: Counter = field(default_factory=Counter)
    timed_out: bool = False
    embeddings: list[tuple[int, ...]] | None = None  # aligned to phi


def check_validation(validation: str) -> None:
    """Reject an unknown Alg. 5 mode before any work, so it fails even
    when no candidate would reach validation."""
    if validation not in ("profile", "exact"):
        raise ValueError(f"unknown validation mode {validation!r}")


def expand_embedding(
    plan: CompiledPlan,
    store: SignatureStore,
    step_idx: int,
    m: tuple[int, ...],
    *,
    validation: str = "profile",
    stats: Counter | None = None,
) -> list[tuple[int, ...]]:
    """All valid extensions of partial embedding ``m`` (matched
    hyperedge ids of steps ``0..step_idx-1``) by step ``step_idx``.
    Step 0 is SCAN: every hyperedge of the partition S(phi[0]) is a
    root. Any later step is one EXPAND (Alg. 4 + Alg. 5). Shared by
    this engine and the task scheduler.
    """
    check_validation(validation)
    step = plan.steps[step_idx]
    if step_idx == 0:
        roots = store.scan(step.sig)
        if stats is not None:
            for key in ("ops", "candidates", "filtered", "validated"):
                stats[key] += len(roots)
        return [(eid,) for eid in roots]
    H = store.H
    edges = H.edges
    vsets = [edges[eid] for eid in m]
    incid = step_masks(vsets)
    cands = generate_candidates(step, vsets, store, stats, incid)
    out: list[tuple[int, ...]] = []
    # Distinct data hyperedges per embedding tuple: a candidate already
    # in m is skipped before either check.
    if validation == "exact":
        for c in cands:
            if c not in m and exact_embedding_exists(plan, vsets + [edges[c]], H):
                out.append(m + (c,))
        if stats is not None:
            stats["filtered"] += len(out)
            stats["validated"] += len(out)
        return out
    valid = is_valid_embedding  # read per call, so a rebound wrapper sees it
    filtered_before = stats["filtered"] if stats is not None else 0
    n_skipped = 0
    for c in cands:
        if c in m:
            n_skipped += 1
        elif valid(step, incid, edges[c], stats, H=H, from_alg4=True):
            out.append(m + (c,))
    if stats is not None:
        # Alg. 5's set-based op model, booked once: every checked
        # candidate unions all step.i + 1 vertex sets; each survivor of
        # the vertex count adds one membership test per step and vertex.
        n_checked = len(cands) - n_skipped
        n_filtered = stats["filtered"] - filtered_before
        arity = len(plan.q.edges[step.eq])
        stats["ops"] += n_checked * step.sum_arity + n_filtered * (step.i + 1) * arity
    return out


def hgmatch(
    H: Hypergraph,
    store: SignatureStore,
    q: Hypergraph,
    *,
    phi: list[int] | None = None,
    validation: str = "profile",
    budget: int | None = None,
    collect: bool = False,
) -> MatchResult:
    """Find all embeddings of ``q`` in ``H`` (Alg. 2, DFS/LIFO form).

    Parameters
    ----------
    phi: optional explicit matching order; defaults to Alg. 3.
    validation: ``'profile'`` (paper) or ``'exact'`` (oracle mode).
    budget: operation budget standing in for the paper's wall-clock
        timeout; when exhausted the result is flagged ``timed_out``.
    collect: also return the embedding tuples (tests / case study);
        counting-only is the paper's measurement mode.
    """
    check_validation(validation)
    if phi is None:
        phi = compute_matching_order(q, store.card)
    plan = compile_plan(q, phi)
    stats: Counter = Counter()
    result = MatchResult(count=0, phi=tuple(phi), stats=stats)
    if collect:
        result.embeddings = []

    n = plan.n_steps
    stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    while stack:
        if budget is not None and stats["ops"] > budget:
            result.timed_out = True
            break
        step_idx, m = stack.pop()
        children = expand_embedding(
            plan, store, step_idx, m, validation=validation, stats=stats
        )
        if step_idx + 1 == n:
            result.count += len(children)
            if collect:
                result.embeddings.extend(children)
        else:
            # LIFO: most recently spawned scheduled first.
            stack.extend((step_idx + 1, child) for child in reversed(children))
    return result


def embeddings_in_query_edge_order(
    result: MatchResult,
) -> set[tuple[int, ...]] | None:
    """Re-align collected embeddings from phi order to query-edge order
    (position k holds the match of query hyperedge k) so counts and
    tuples are comparable across engines with different orders."""
    if result.embeddings is None:
        return None
    inv = {phi_e: i for i, phi_e in enumerate(result.phi)}
    n = len(result.phi)
    return {
        tuple(m[inv[k]] for k in range(n)) for m in result.embeddings
    }
