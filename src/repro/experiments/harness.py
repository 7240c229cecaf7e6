"""Experiment harness: engine registry, budgets, runners.

Reproduces the paper's measurement protocol (Section VII-A) with the
deterministic substitutions documented in DESIGN.md:

- *timeout*: a budget of basic operations per query (candidate
  examinations + set-operation elements) replaces the 1-hour wall
  clock; a run that exhausts the budget is recorded as timed out and
  its elapsed time is booked as ``TIME_LIMIT_S`` (the paper books
  3600 s), which preserves the averaging semantics;
- *metrics*: per query we record elapsed seconds, operations, the
  embedding count, and completion; runners aggregate to Table IV
  (completion ratio), the Exp-2 speedup rows, and the Exp-3 filtering
  statistics.
"""
from __future__ import annotations

import time
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


EngineFn = Callable[[Hypergraph, SignatureStore, Hypergraph, int | None], tuple[int | None, int, bool]]


def _run_hgmatch(H, store, q, budget):
    r = hgmatch(H, store, q, budget=budget)
    return (None if r.timed_out else r.count), r.stats["ops"], not r.timed_out


def _mk_backtrack(strategy: str) -> EngineFn:
    def fn(H, store, q, budget):
        r = match_by_vertex(H, q, strategy=strategy, use_ihs=True, budget=budget)
        return (None if r.timed_out else r.tuple_count), r.stats["ops"], not r.timed_out

    return fn


def _run_rapidmatch(H, store, q, budget):
    r = rapidmatch(H, q, budget=budget)
    return (None if r.timed_out else r.tuple_count), r.stats["ops"], not r.timed_out


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
                count, ops, completed = ENGINES[algo](H, store, sq.query, budget)
                dt = time.perf_counter() - t0
                records.append(
                    RunRecord(
                        algo=algo,
                        dataset=dataset,
                        setting=setting.name,
                        query_idx=qi,
                        seconds=dt if completed else TIME_LIMIT_S,
                        ops=ops,
                        count=count,
                        completed=completed,
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


def filtering_stats(
    dataset: str,
    settings: list[QuerySetting],
    *,
    n_queries: int = 3,
    scale: float = 1.0,
    seed: int = 0,
) -> dict[str, int]:
    """Exp-3 series for one dataset: total candidates produced by
    Alg. 4, survivors of the vertex-count check ('Filtered'), and true
    embeddings, summed over all queries."""
    H = make_dataset(dataset, scale=scale, seed=seed)
    store = SignatureStore(H)
    totals = {"candidates": 0, "filtered": 0, "embeddings": 0}
    for setting in settings:
        for sq in sample_queries(H, setting, n_queries, seed=seed):
            r = hgmatch(H, store, sq.query)
            totals["candidates"] += r.stats["candidates"]
            totals["filtered"] += r.stats["filtered"]
            totals["embeddings"] += r.stats["validated"]
    return totals
