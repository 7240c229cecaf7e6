"""Shared test fixtures/builders for the HGMatch reproduction suite."""
from __future__ import annotations

from repro.hyper.generator import random_hypergraph
from repro.hyper.model import Hypergraph
from repro.hyper.queries import QuerySetting, sample_query
from repro.hyper.storage import SignatureStore


def small_instance(seed: int, *, n_edges_q: int = 3, v_min: int = 2, v_max: int = 12):
    """A small random (H, store, q) triple suitable for brute force.

    Returns None when the sampled query is disconnected (rare; vertex
    connectivity via shared hyperedges is what matters).
    """
    H = random_hypergraph(
        n_vertices=14,
        n_edges=18,
        n_labels=3,
        mean_arity=2.8,
        max_arity=5,
        seed=seed,
    )
    try:
        sq = sample_query(
            H, QuerySetting("t", n_edges_q, v_min, v_max), seed=seed
        )
    except ValueError:
        return None
    if not sq.query.is_connected():
        return None
    return H, SignatureStore(H), sq.query


def triangle_hypergraph() -> Hypergraph:
    """Three arity-2 hyperedges forming a labelled triangle."""
    return Hypergraph(["A", "A", "A"], [[0, 1], [1, 2], [0, 2]])


def one_shared_lemma_instance() -> tuple[Hypergraph, Hypergraph]:
    """``(H, q)`` where only Alg. 4's vertex filters reject a false
    candidate at a one-shared-vertex step. q = {p,s}, {p,u,t}, {u,z}
    (labels A,S,A,T,Z); H = q plus {p, z'} with z' labelled Z. At
    phi = [0, 1, 2], step 2 shares u (mask 0b10) and must not take
    {p, z'}: p is an A vertex of step 1 too, but step 0, non-adjacent
    to phi[2], also holds it, and its degree is 2. There is one
    embedding."""
    q = Hypergraph(["A", "S", "A", "T", "Z"], [[0, 1], [0, 2, 3], [2, 4]])
    H = Hypergraph(["A", "S", "A", "T", "Z", "Z"], [[0, 1], [0, 2, 3], [2, 4], [0, 5]])
    return H, q


def star_instance() -> tuple[Hypergraph, Hypergraph]:
    """``(H, q)`` where only the degree filter of constraint 0 rejects a
    false candidate of a one-shared step. q = {u,a}, {u,b}, {u,c}
    (labels A,A,B,C); H = q plus {a, c'} with c' labelled C. At
    phi = [0, 1, 2], step 2 shares u (mask 0b11) with two constraints;
    a lies in step 0's image with u's label but has degree 1, and
    {a, c'} passes the vertex count. There is one embedding."""
    q = Hypergraph(["A", "A", "B", "C"], [[0, 1], [0, 2], [0, 3]])
    H = Hypergraph(["A", "A", "B", "C", "C"], [[0, 1], [0, 2], [0, 3], [1, 4]])
    return H, q


def non_adjacent_instance() -> tuple[Hypergraph, Hypergraph]:
    """``(H, q)`` where only the non-adjacent exclusion of constraint 0
    rejects a false candidate of a one-shared step. q = {x,s}, {x,u,t},
    {u,w}, {u,z} (labels A,S,A,T,W,Z); H = q plus {x, z'} with z'
    labelled Z. At phi = [0, 1, 2, 3], step 3 shares u (mask 0b110);
    x lies in step 1's image with u's label and degree 2, but step 0,
    non-adjacent to phi[3], holds it too, and {x, z'} passes the vertex
    count. There is one embedding."""
    q = Hypergraph(["A", "S", "A", "T", "W", "Z"], [[0, 1], [0, 2, 3], [2, 4], [2, 5]])
    H = Hypergraph(
        ["A", "S", "A", "T", "W", "Z", "Z"], [[0, 1], [0, 2, 3], [2, 4], [2, 5], [0, 6]]
    )
    return H, q
