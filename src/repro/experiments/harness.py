"""Experiment harness: engine registry, budgets, one run grid.

Reproduces the paper's measurement protocol (Section VII-A) with the
deterministic substitutions documented in DESIGN.md:

- *timeout*: a budget of basic operations per query (candidate
  examinations + set-operation elements) replaces the 1-hour wall
  clock; a run that exhausts the budget is recorded as timed out and
  its elapsed time is booked as ``TIME_LIMIT_S`` (the paper books
  3600 s), which preserves the averaging semantics;
- *metrics*: ``run_queries`` runs each sampled query once per engine
  and records elapsed seconds, operations, the embedding count,
  completion and, for HGMatch, the Alg. 4/5 funnel (candidates,
  survivors of the vertex-count check, validated). Table IV
  (``completion_table``), the Exp-2 speedups (``speedup_table``) and
  the Exp-3 filtering totals (``filtering_table``) are three views of
  that one grid.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import pandas as pd

from repro.baselines.backtrack import match_by_vertex
from repro.baselines.rapidmatch import rapidmatch
from repro.core.local_engine import hgmatch
from repro.experiments.datasets import make_dataset
from repro.hyper.model import Hypergraph
from repro.hyper.queries import QuerySetting, sample_queries
from repro.hyper.storage import SignatureStore

# Default per-query operation budget (the "1 hour" stand-in) and the
# bookkeeping time charged to timed-out queries.
DEFAULT_BUDGET = 2_000_000
TIME_LIMIT_S = 60.0


@dataclass
class RunRecord:
    algo: str
    dataset: str
    setting: str
    query_idx: int
    seconds: float
    ops: int
    count: int | None
    completed: bool
    # HGMatch's Alg. 4/5 funnel (Exp-3); None for the baselines.
    candidates: int | None = None
    filtered: int | None = None
    validated: int | None = None


FUNNEL = ("candidates", "filtered", "validated")

# An engine reports (embedding count, stats counter, timed out).
EngineFn = Callable[[Hypergraph, SignatureStore, Hypergraph, int | None], tuple[int, Counter, bool]]


def _run_hgmatch(H, store, q, budget):
    r = hgmatch(H, store, q, budget=budget)
    return r.count, r.stats, r.timed_out


def _mk_backtrack(strategy: str) -> EngineFn:
    def fn(H, store, q, budget):
        r = match_by_vertex(H, q, strategy=strategy, use_ihs=True, budget=budget)
        return r.tuple_count, r.stats, r.timed_out

    return fn


def _run_rapidmatch(H, store, q, budget):
    r = rapidmatch(H, q, budget=budget)
    return r.tuple_count, r.stats, r.timed_out


# Names follow the paper (Section VII-A).
ENGINES: dict[str, EngineFn] = {
    "HGMatch": _run_hgmatch,
    "CFL-H": _mk_backtrack("cfl"),
    "DAF-H": _mk_backtrack("daf"),
    "CECI-H": _mk_backtrack("ceci"),
    "RapidMatch": _run_rapidmatch,
}


def run_queries(
    dataset: str,
    settings: list[QuerySetting],
    *,
    algos: list[str] | None = None,
    n_queries: int = 3,
    budget: int = DEFAULT_BUDGET,
    scale: float = 1.0,
    seed: int = 0,
) -> list[RunRecord]:
    """Run every engine on ``n_queries`` sampled queries per setting."""
    algos = list(ENGINES) if algos is None else algos
    H = make_dataset(dataset, scale=scale, seed=seed)
    store = SignatureStore(H)
    records: list[RunRecord] = []
    for setting in settings:
        queries = sample_queries(H, setting, n_queries, seed=seed)
        for qi, sq in enumerate(queries):
            for algo in algos:
                t0 = time.perf_counter()
                count, stats, timed_out = ENGINES[algo](H, store, sq.query, budget)
                dt = time.perf_counter() - t0
                funnel = {k: stats[k] for k in FUNNEL} if algo == "HGMatch" else {}
                records.append(
                    RunRecord(
                        algo=algo,
                        dataset=dataset,
                        setting=setting.name,
                        query_idx=qi,
                        seconds=TIME_LIMIT_S if timed_out else dt,
                        ops=stats["ops"],
                        count=None if timed_out else count,
                        completed=not timed_out,
                        **funnel,
                    )
                )
    return records


def records_frame(records: list[RunRecord]) -> pd.DataFrame:
    return pd.DataFrame([r.__dict__ for r in records])


def completion_table(records: list[RunRecord]) -> pd.DataFrame:
    """Table IV: completion percentage per (algo, dataset) + total."""
    df = records_frame(records)
    pivot = (
        df.pivot_table(
            index="algo", columns="dataset", values="completed", aggfunc="mean"
        )
        * 100.0
    )
    pivot["Total"] = df.groupby("algo")["completed"].mean() * 100.0
    return pivot.round(0)


def speedup_table(records: list[RunRecord], base: str = "HGMatch") -> pd.DataFrame:
    """Exp-2: average elapsed seconds per (algo, dataset) and the
    speedup factor of ``base`` over each other engine."""
    df = records_frame(records)
    avg = df.pivot_table(index="algo", columns="dataset", values="seconds", aggfunc="mean")
    speedup = avg.div(avg.loc[base], axis=1)
    speedup.index = [f"{a} / {base}" for a in speedup.index]
    return pd.concat([avg, speedup])


def filtering_table(records: list[RunRecord]) -> pd.DataFrame:
    """Exp-3: HGMatch's candidates (Alg. 4), survivors of the
    vertex-count check ('filtered') and true embeddings, summed per
    dataset, plus an ALL row."""
    df = records_frame([r for r in records if r.algo == "HGMatch"])
    tab = df.groupby("dataset", sort=False)[list(FUNNEL)].sum()
    tab.loc["ALL"] = tab.sum()
    tab = tab.rename(columns={"validated": "embeddings"})
    tab["emb/filtered"] = tab["embeddings"] / tab["filtered"].clip(lower=1)
    return tab


def pick_heavy_queries(
    H: Hypergraph,
    store: SignatureStore,
    *,
    n_pick: int = 2,
    n_sample: int = 12,
    n_edges: int = 3,
    budget: int = 3_000_000,
    seed: int = 7,
) -> list[tuple[int, Hypergraph]]:
    """Exp-4's protocol: among sampled q3 queries, keep the ``n_pick``
    with the largest embedding counts (the paper presents two such
    queries, q3^1 and q3^2). Returns ``(count, query)`` pairs sorted by
    descending count."""
    setting = QuerySetting(f"q{n_edges}", n_edges, 10, 20)
    scored: list[tuple[int, Hypergraph]] = []
    for sq in sample_queries(H, setting, n_sample, seed=seed):
        r = hgmatch(H, store, sq.query, budget=budget)
        if not r.timed_out:
            scored.append((r.count, sq.query))
    scored.sort(key=lambda t: -t[0])
    return scored[:n_pick]
