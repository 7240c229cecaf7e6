"""Signature-partitioned hyperedge tables + inverted hyperedge index.

Paper Sections IV-B and IV-C. The data hypergraph is stored in one
*hyperedge table* per distinct hyperedge signature (Def. IV.1), so
candidate search for a query hyperedge only ever touches the partition
with the matching signature. Each partition additionally carries a
lightweight *inverted hyperedge index*: vertex -> ascending posting list
of incident hyperedge ids within that partition, giving ``he(v, s)`` in
O(1) lookups (Section IV-C, Table I).

Size accounting mirrors the paper's analysis: both the tables and the
index are ``O(bar{a}_H x |E(H)|)``; :meth:`SignatureStore.index_nbytes`
reports the 8-bytes-per-posting estimate used for the Table II /
Exp-1 "Index" column.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from repro.hyper.model import Hypergraph, Signature

_EMPTY: tuple[int, ...] = ()


@dataclass(frozen=True)
class BuildReport:
    """Offline-preprocessing metrics (paper Exp-1 / Fig. 7)."""

    build_seconds: float
    graph_nbytes: int
    index_nbytes: int
    n_partitions: int


class SignatureStore:
    """Indexed data hypergraph: the output of HGMatch's offline stage.

    Attributes
    ----------
    partitions:
        ``signature -> ascending list of hyperedge ids`` (the hyperedge
        tables; ids refer back to ``H.edges``).
    inverted:
        ``signature -> vertex -> ascending tuple of hyperedge ids``
        (the inverted hyperedge index).
    """

    def __init__(self, H: Hypergraph):
        t0 = time.perf_counter()
        self.H = H
        parts: dict[Signature, list[int]] = {}
        inv: dict[Signature, dict[int, list[int]]] = {}
        for eid, e in enumerate(H.edges):
            s = H.signature(eid)
            parts.setdefault(s, []).append(eid)
            post = inv.setdefault(s, {})
            for v in e:
                post.setdefault(v, []).append(eid)
        # eids are appended in ascending order by construction.
        self.partitions: dict[Signature, tuple[int, ...]] = {
            s: tuple(lst) for s, lst in parts.items()
        }
        self.inverted: dict[Signature, dict[int, tuple[int, ...]]] = {
            s: {v: tuple(lst) for v, lst in post.items()} for s, post in inv.items()
        }
        self._build_seconds = time.perf_counter() - t0

    # ------------------------------------------------------------------
    # paper-facing operations
    # ------------------------------------------------------------------
    def card(self, sig: Signature) -> int:
        """``Card(e_q, H)`` (Def. V.2): #data hyperedges with signature
        ``sig`` — the row count of one table, an O(1) metadata read."""
        return len(self.partitions.get(sig, _EMPTY))

    def scan(self, sig: Signature) -> tuple[int, ...]:
        """SCAN operator input: all hyperedge ids in partition ``sig``."""
        return self.partitions.get(sig, _EMPTY)

    def he(self, v: int, sig: Signature) -> tuple[int, ...]:
        """``he(v, s)``: incident hyperedges of ``v`` with signature
        ``sig``, ascending (posting-list lookup)."""
        return self.inverted.get(sig, {}).get(v, _EMPTY)

    # ------------------------------------------------------------------
    # size analysis (Section IV-B/IV-C, Exp-1)
    # ------------------------------------------------------------------
    def graph_nbytes(self) -> int:
        """Hyperedge-table size estimate: 8 bytes per stored vertex id
        plus one signature header per partition (one byte per label
        character, as a proxy for the string header)."""
        ids = 8 * sum(self.H.arity(eid) for eid in range(self.H.n_edges))
        headers = sum(sum(len(lbl) for lbl in s) for s in self.partitions)
        return ids + headers

    def index_nbytes(self) -> int:
        """Inverted-index size estimate: each hyperedge contributes its
        arity many 8-byte postings (paper: O(a(e)) extra per edge)."""
        return 8 * sum(
            len(post)
            for per_sig in self.inverted.values()
            for post in per_sig.values()
        )

    def build_report(self) -> BuildReport:
        return BuildReport(
            build_seconds=self._build_seconds,
            graph_nbytes=self.graph_nbytes(),
            index_nbytes=self.index_nbytes(),
            n_partitions=len(self.partitions),
        )
