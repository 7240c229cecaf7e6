"""Execution-plan compilation: per-step constants of Algorithms 4 & 5.

Everything in candidate generation and validation that depends only on
the query hypergraph ``q`` and the matching order ``phi`` — adjacency
relations, partial-query vertex degrees, expected vertex counts and the
query-side vertex-profile multisets — is computed once here, driver
side. A profile's steps are a bitmask (bit ``j`` for step ``j``, see
:func:`step_masks`), the encoding Alg. 4 and Alg. 5 read on the data
side. :func:`compile_plan` keeps that query vertex -> step-bitmask map
as it walks ``phi`` and derives every constant of step ``i`` in one
pass over ``phi[i]``'s vertices: the shared ones are those already in
the map, their masks give the adjacent steps and the Alg. 4
constraints, so no per-pair intersection of query hyperedges is built.
The full profile multiset is derived on demand from the shared part
(:attr:`PlanStep.expected_profiles`). Both the sequential engine and
the Spark dataflow engine execute the same :class:`CompiledPlan`, which
is also what makes the Spark EXPAND step expressible as pure Catalyst
expressions (all query-side quantities become literals).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.hyper.model import Hypergraph, Signature


def step_masks(vsets: Iterable[Iterable[int]]) -> dict[int, int]:
    """Vertex -> step bitmask: bit ``j`` is set when ``vsets[j]`` holds
    the vertex. The steps part of a Def. V.3 vertex profile; its
    popcount is the partial degree ``d(v)`` of Obs. V.4."""
    masks: dict[int, int] = {}
    for j, vs in enumerate(vsets):
        bit = 1 << j
        for v in vs:
            masks[v] = masks.get(v, 0) | bit
    return masks


def mask_steps(mask: int) -> tuple[int, ...]:
    """The ascending steps whose bit is set in ``mask``."""
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


@dataclass(frozen=True)
class Constraint:
    """One intersection term of Alg. 4 (lines 3-6).

    ``f(e_q)`` must be incident to a vertex v drawn from the matched
    image of step ``j`` with label ``label`` and partial-embedding
    degree ``degree`` (Observations V.2-V.4).
    """

    j: int        # index into phi (a previously matched step)
    label: str    # l_q(u)
    degree: int   # d_{q'}(u): #steps j' < i whose hyperedge contains u


@dataclass(frozen=True)
class PlanStep:
    """Constants for matching ``phi[i]``."""

    i: int
    eq: int                       # query hyperedge id phi[i]
    sig: Signature                # S(phi[i]) — the partition to touch
    non_adjacent: tuple[int, ...]  # steps j < i with phi[j] not adjacent to phi[i]
    constraints: tuple[Constraint, ...]
    expected_vcount: int          # |V(q')| after this step (Obs. V.5)
    # Sorted (label, bitmask of the steps j < i whose hyperedge contains
    # u) for only those of phi[i]'s vertices u that steps j < i already
    # cover: the part of the profile multiset that Alg. 5 has to compare
    # (see repro.core.validate); expected_profiles derives the rest.
    shared_profiles: tuple[tuple[str, int], ...]
    # Sum of |phi[j]| over j <= i; equal signatures make it the size sum
    # of any candidate's matched vertex sets (Alg. 5's op charge).
    sum_arity: int

    @property
    def expected_profiles(self) -> tuple[tuple[str, int], ...]:
        """Sorted query-side vertex-profile multiset for phi[i]'s
        vertices: (label, bitmask of the steps j <= i whose hyperedge
        contains u). The shared pairs gain bit ``i``; each label of
        ``sig`` left over is a vertex new at step ``i``, of mask ``1 << i``."""
        bit = 1 << self.i
        fresh = list(self.sig)
        for label, _ in self.shared_profiles:
            fresh.remove(label)
        return tuple(sorted(
            [(label, mask | bit) for label, mask in self.shared_profiles]
            + [(label, bit) for label in fresh]
        ))


@dataclass(frozen=True)
class CompiledPlan:
    q: Hypergraph
    phi: tuple[int, ...]
    steps: tuple[PlanStep, ...]

    @property
    def n_steps(self) -> int:
        return len(self.steps)


def compile_plan(q: Hypergraph, phi: list[int] | tuple[int, ...]) -> CompiledPlan:
    """Compile per-step constants for query ``q`` under order ``phi``.
    Raises if ``q`` has no hyperedges or ``phi`` is no permutation of
    its hyperedge ids."""
    if not q.n_edges:
        raise ValueError("query has no hyperedges")
    phi = tuple(phi)
    if sorted(phi) != list(range(q.n_edges)):
        raise ValueError(f"phi must be a permutation of 0..{q.n_edges - 1}, got {phi}")
    labels, sigs, edges = q.labels, q.signatures, q.edges
    steps: list[PlanStep] = []
    masks: dict[int, int] = {}  # query vertex -> steps holding it so far
    sum_arity = 0
    for i, eq in enumerate(phi):
        e = edges[eq]
        adjacent = 0  # steps j < i whose hyperedge meets phi[i]
        shared: list[tuple[str, int]] = []
        terms: list[tuple[int, int, str, int]] = []
        for u in e:
            mask = masks.get(u)
            if mask is None:
                continue
            adjacent |= mask
            label = labels[u]
            shared.append((label, mask))
            # Degree: partial-query degree of u over phi[0..i-1].
            degree = mask.bit_count()
            rest = mask
            while rest:  # one term per set bit j: u lies in phi[j]
                low = rest & -rest
                terms.append((low.bit_length() - 1, u, label, degree))
                rest ^= low
        # Alg. 4's terms by step, then by shared vertex; identical terms
        # give identical sets, so only the first is kept.
        terms.sort()
        cons: list[Constraint] = []
        seen: set[tuple[int, str, int]] = set()
        for j, _, label, degree in terms:
            key = (j, label, degree)
            if key not in seen:
                seen.add(key)
                cons.append(Constraint(j, label, degree))
        bit = 1 << i
        for u in e:
            masks[u] = masks.get(u, 0) | bit
        sum_arity += len(e)
        steps.append(
            PlanStep(
                i=i,
                eq=eq,
                sig=sigs[eq],
                non_adjacent=tuple(j for j in range(i) if not adjacent >> j & 1),
                constraints=tuple(cons),
                expected_vcount=len(masks),
                shared_profiles=tuple(sorted(shared)),
                sum_arity=sum_arity,
            )
        )
    return CompiledPlan(q=q, phi=phi, steps=tuple(steps))
