"""Labelled hypergraph data model (paper Section III-A).

A :class:`Hypergraph` is an undirected, vertex-labelled simple
hypergraph ``H = (V, E, l, Sigma)``: vertices are the integers
``0..n_vertices-1``, each with a string label, and each hyperedge is a
non-empty ``frozenset`` of vertex ids. Query hypergraphs use the same
class (queries must additionally be connected; see
:meth:`Hypergraph.is_connected`).

All derived structures used throughout the paper — incident-hyperedge
lists ``he(v)``, vertex/hyperedge adjacency, arities, signatures
(Def. IV.1) — are computed lazily and cached, so constructing a
hypergraph is cheap and repeated algorithmic access is O(1) amortised.
"""
from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Iterable, Sequence

Signature = tuple[str, ...]


class Hypergraph:
    """Immutable vertex-labelled simple hypergraph.

    Parameters
    ----------
    labels:
        ``labels[v]`` is the label of vertex ``v``; its length fixes the
        vertex count. Vertices not covered by any hyperedge are allowed
        in data hypergraphs (they simply never match).
    edges:
        Iterable of vertex-id iterables. Repeated vertices inside one
        hyperedge are collapsed (the paper pre-processes datasets the
        same way); repeated hyperedges are rejected because the model is
        a *simple* hypergraph.
    """

    def __init__(self, labels: Sequence[str], edges: Iterable[Iterable[int]]):
        self.labels: tuple[str, ...] = tuple(str(x) for x in labels)
        es = [frozenset(int(v) for v in e) for e in edges]
        for i, e in enumerate(es):
            if not e:
                raise ValueError(f"hyperedge {i} is empty")
            bad = [v for v in e if not (0 <= v < len(self.labels))]
            if bad:
                raise ValueError(f"hyperedge {i} has out-of-range vertices {bad}")
        if len(set(es)) != len(es):
            dupes = [e for e, c in Counter(es).items() if c > 1]
            raise ValueError(f"repeated hyperedges not allowed: {sorted(map(sorted, dupes))}")
        self.edges: tuple[frozenset[int], ...] = tuple(es)

    # ------------------------------------------------------------------
    # basic sizes
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """``|V(H)|``."""
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        """``|E(H)|``."""
        return len(self.edges)

    def label(self, v: int) -> str:
        """``l(v)`` — the label of vertex ``v``."""
        return self.labels[v]

    # ------------------------------------------------------------------
    # arity (paper: a(e), average/max arity)
    # ------------------------------------------------------------------
    def arity(self, eid: int) -> int:
        """``a(e)`` — number of vertices in hyperedge ``eid``."""
        return len(self.edges[eid])

    @cached_property
    def avg_arity(self) -> float:
        """``bar{a}_H = sum_e a(e) / |E(H)|``."""
        return sum(len(e) for e in self.edges) / max(1, self.n_edges)

    @cached_property
    def max_arity(self) -> int:
        """``a_max``."""
        return max((len(e) for e in self.edges), default=0)

    # ------------------------------------------------------------------
    # incidence / adjacency
    # ------------------------------------------------------------------
    @cached_property
    def he(self) -> tuple[tuple[int, ...], ...]:
        """``he(v)`` for every vertex: incident hyperedge ids, ascending."""
        inc: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for eid, e in enumerate(self.edges):
            for v in e:
                inc[v].append(eid)
        return tuple(tuple(lst) for lst in inc)

    def degree(self, v: int) -> int:
        """``d(v) = |he(v)|``."""
        return len(self.he[v])

    def he_by_arity(self, v: int) -> Counter:
        """``a -> |he^a(v)|``: incident-hyperedge counts per arity."""
        return Counter(len(self.edges[eid]) for eid in self.he[v])

    @cached_property
    def adj_vertices(self) -> tuple[frozenset[int], ...]:
        """``adj(v)``: vertices sharing at least one hyperedge with v."""
        out: list[set[int]] = [set() for _ in range(self.n_vertices)]
        for e in self.edges:
            for v in e:
                out[v].update(e)
        return tuple(frozenset(s - {v}) for v, s in enumerate(out))

    def adj_edges(self, eid: int) -> frozenset[int]:
        """``adj(e)``: hyperedges sharing at least one vertex with e."""
        out: set[int] = set()
        for v in self.edges[eid]:
            out.update(self.he[v])
        out.discard(eid)
        return frozenset(out)

    @cached_property
    def edge_index(self) -> dict[frozenset[int], int]:
        """Vertex-set -> hyperedge-id lookup (edges are unique sets)."""
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def edge_set(self) -> frozenset[frozenset[int]]:
        """All hyperedges as a set, for O(1) membership verification."""
        return frozenset(self.edges)

    # ------------------------------------------------------------------
    # signatures (paper Def. IV.1)
    # ------------------------------------------------------------------
    def signature(self, eid: int) -> Signature:
        """``S(e)``: the multiset of vertex labels of ``eid``, as a
        sorted tuple (a canonical multiset encoding)."""
        return self.signatures[eid]

    @cached_property
    def signatures(self) -> tuple[Signature, ...]:
        return tuple(
            tuple(sorted(self.labels[v] for v in e)) for e in self.edges
        )

    # ------------------------------------------------------------------
    # connectivity (queries must be connected; Alg. 3 relies on it)
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """True iff every vertex is reachable via shared hyperedges and
        no vertex is isolated (for the empty hypergraph: True)."""
        if self.n_vertices == 0:
            return True
        if any(len(h) == 0 for h in self.he):
            return False
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in self.adj_vertices[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.n_vertices

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def subhypergraph(self, eids: Sequence[int]) -> tuple["Hypergraph", dict[int, int]]:
        """Vertex-relabelled subhypergraph induced by the hyperedges
        ``eids`` (in order). Returns ``(sub, old_to_new_vertex_map)``.

        Used by the random-walk query sampler: sampled queries must be
        standalone hypergraphs with contiguous vertex ids.
        """
        verts = sorted({v for eid in eids for v in self.edges[eid]})
        vmap = {v: i for i, v in enumerate(verts)}
        labels = [self.labels[v] for v in verts]
        edges = [[vmap[v] for v in self.edges[eid]] for eid in eids]
        return Hypergraph(labels, edges), vmap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Hypergraph(|V|={self.n_vertices}, |E|={self.n_edges}, |Sigma|={len(set(self.labels))})"


def fig1_data() -> Hypergraph:
    """The data hypergraph H of the paper's Fig. 1b.

    Vertices v0..v7 with labels; hyperedges e1..e6 (ids 0..5 here).
    Used by Table I / example-driven tests.
    """
    #        v0   v1   v2   v3   v4   v5   v6   v7
    labels = ["A", "B", "A", "C", "C", "A", "B", "A"]
    edges = [
        [2, 4],              # e1 {v2, v4}   sig {A, C}
        [3, 5],              # e2 {v3, v5}   sig {A, C}
        [0, 1, 2],           # e3 {v0, v1, v2} sig {A, A, B}
        [5, 6, 7],           # e4 {v5, v6, v7} sig {A, A, B}
        [0, 1, 3, 4],        # e5 {v0, v1, v3, v4} sig {A, B, C, C}
        [3, 4, 6, 7],        # e6 {v3, v4, v6, v7} sig {A, B, C, C}
    ]
    return Hypergraph(labels, edges)


def fig1_query() -> Hypergraph:
    """The query hypergraph q of the paper's Fig. 1a.

    Representation follows Example III.1:
    ``({u2,u4}, {u0,u1,u2}, {u0,u1,u3,u4})`` with labels chosen so the
    two embeddings are ``(e1,e3,e5)`` and ``(e2,e4,e6)``.
    """
    #        u0   u1   u2   u3   u4
    labels = ["A", "B", "A", "C", "C"]
    edges = [
        [2, 4],          # {u2, u4}        sig {A, C}
        [0, 1, 2],       # {u0, u1, u2}    sig {A, A, B}
        [0, 1, 3, 4],    # {u0, u1, u3, u4} sig {A, B, C, C}
    ]
    return Hypergraph(labels, edges)
