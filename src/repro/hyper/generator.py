"""Synthetic labelled-hypergraph generator (dataset substitute).

The paper evaluates on 10 real hypergraphs from the Benson repository
(Table II), which are unavailable offline. This generator produces
hypergraphs with the *shape* parameters the paper's effects depend on:

- power-law vertex participation (Zipf over vertex ranks) — drives the
  load skew targeted by work stealing (Section VI-C, Exp-6);
- a configurable arity distribution (mean + max) — high mean arity is
  where match-by-hyperedge wins biggest (Exp-2);
- a configurable label vocabulary with Zipf label frequencies — label
  count drives candidate selectivity (Exp-3: MA/SA have many labels and
  near-zero false positives).

Generation is deterministic in ``seed``. Duplicate hyperedges are
dropped (the paper pre-processes datasets identically), so the realised
edge count can be slightly below ``n_edges``; the realised statistics
are what the Table II reproduction reports.
"""
from __future__ import annotations

import numpy as np

from repro.hyper.model import Hypergraph

# Zipf exponent of label frequencies.
LABEL_ALPHA = 0.6


def _zipf_weights(n: int, alpha: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** alpha
    return w / w.sum()


def random_hypergraph(
    *,
    n_vertices: int,
    n_edges: int,
    n_labels: int,
    mean_arity: float,
    max_arity: int,
    vertex_alpha: float = 0.8,
    seed: int = 0,
) -> Hypergraph:
    """Generate a labelled hypergraph.

    Arities are drawn from a geometric-ish mixture clipped to
    ``[1 if mean<2 else 2, max_arity]`` whose mean tracks
    ``mean_arity``; vertex membership of each hyperedge is a Zipf
    draw without replacement (so hubs appear in many hyperedges);
    labels are assigned i.i.d. Zipf over ``n_labels``.
    """
    if n_vertices < 1 or n_edges < 1 or n_labels < 1:
        raise ValueError("n_vertices, n_edges and n_labels must be positive")
    max_arity = max(1, min(max_arity, n_vertices))
    g = np.random.default_rng(seed)

    label_ids = g.choice(n_labels, size=n_vertices, p=_zipf_weights(n_labels, LABEL_ALPHA))
    labels = [f"L{i}" for i in label_ids]

    lo = 1 if mean_arity < 2 else 2
    mean_arity = float(min(max(mean_arity, lo), max_arity))
    # Exponential arity tail clipped to [lo, max_arity]; scale chosen so
    # the pre-clip mean is mean_arity. Real hypergraph arity
    # distributions are heavy-tailed (paper Table II: a_max >> mean).
    scale = max(mean_arity - lo, 0.05)
    arities = np.clip(lo + g.exponential(scale, size=n_edges), lo, max_arity).astype(int)

    vw = _zipf_weights(n_vertices, vertex_alpha)
    seen: set[frozenset[int]] = set()
    edges: list[list[int]] = []
    for a in arities:
        # Zipf draw without replacement; oversample then dedup for speed.
        pick = g.choice(n_vertices, size=min(n_vertices, 3 * a + 8), p=vw)
        uniq: list[int] = []
        used: set[int] = set()
        for v in pick:
            if v not in used:
                used.add(v)
                uniq.append(int(v))
            if len(uniq) == a:
                break
        if len(uniq) < a:  # fall back to uniform completion
            rest = [v for v in range(n_vertices) if v not in used]
            g.shuffle(rest)
            uniq.extend(rest[: a - len(uniq)])
        fe = frozenset(uniq)
        if fe not in seen:
            seen.add(fe)
            edges.append(uniq)
    return Hypergraph(labels, edges)
