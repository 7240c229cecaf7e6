"""Execution-plan compilation: per-step constants of Algorithms 4 & 5.

Everything in candidate generation and validation that depends only on
the query hypergraph ``q`` and the matching order ``phi`` — adjacency
relations, partial-query vertex degrees, expected vertex counts and the
query-side vertex-profile multisets — is computed once here, driver
side. A profile's steps are a bitmask (bit ``j`` for step ``j``, see
:func:`step_masks`), the encoding Alg. 4 and Alg. 5 read on the data
side. Both the sequential engine and the Spark dataflow engine execute
the same :class:`CompiledPlan`, which is also what makes the Spark
EXPAND step expressible as pure Catalyst expressions (all query-side
quantities become literals).
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
    # Sorted query-side vertex-profile multiset for phi[i]'s vertices:
    # (label, bitmask of the steps j <= i whose hyperedge contains u).
    expected_profiles: tuple[tuple[str, int], ...]
    # The same for only those of phi[i]'s vertices that steps j < i
    # already cover, with bit i left out: the part of the multiset that
    # Alg. 5 has to compare (see repro.core.validate).
    shared_profiles: tuple[tuple[str, int], ...]
    # Sum of |phi[j]| over j <= i; equal signatures make it the size sum
    # of any candidate's matched vertex sets (Alg. 5's op charge).
    sum_arity: int


@dataclass(frozen=True)
class CompiledPlan:
    q: Hypergraph
    phi: tuple[int, ...]
    steps: tuple[PlanStep, ...]

    @property
    def n_steps(self) -> int:
        return len(self.steps)


def compile_plan(q: Hypergraph, phi: list[int] | tuple[int, ...]) -> CompiledPlan:
    """Compile per-step constants for query ``q`` under order ``phi``."""
    phi = tuple(phi)
    if sorted(phi) != list(range(q.n_edges)):
        raise ValueError(f"phi must be a permutation of 0..{q.n_edges - 1}, got {phi}")
    steps: list[PlanStep] = []
    masks: dict[int, int] = {}  # query vertex -> steps holding it so far
    sum_arity = 0
    for i, eq in enumerate(phi):
        e = q.edges[eq]
        non_adj = tuple(
            j for j in range(i) if not (q.edges[phi[j]] & e)
        )
        cons: list[Constraint] = []
        seen: set[Constraint] = set()
        for j in range(i):
            shared = q.edges[phi[j]] & e
            for u in sorted(shared):
                # Degree: partial-query degree of u over phi[0..i-1].
                c = Constraint(j=j, label=q.label(u), degree=masks[u].bit_count())
                if c not in seen:  # identical terms give identical sets
                    seen.add(c)
                    cons.append(c)
        shared_profiles = tuple(sorted((q.label(u), masks[u]) for u in e if u in masks))
        for u in e:
            masks[u] = masks.get(u, 0) | 1 << i
        sum_arity += len(e)
        steps.append(
            PlanStep(
                i=i,
                eq=eq,
                sig=q.signature(eq),
                non_adjacent=non_adj,
                constraints=tuple(cons),
                expected_vcount=len(masks),
                expected_profiles=tuple(sorted((q.label(u), masks[u]) for u in e)),
                shared_profiles=shared_profiles,
                sum_arity=sum_arity,
            )
        )
    return CompiledPlan(q=q, phi=phi, steps=tuple(steps))
