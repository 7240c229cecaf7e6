"""The benchmark's four workloads, driven through ``repro``'s public API.

Every workload is a closed loop: one client, one query at a time, in
this process. Each call into ``repro`` goes through a module or class
attribute (``local_engine.hgmatch``, ``storage.SignatureStore``, ...)
so that the traced run can rebind it (see :mod:`tracer`).

Inputs. The datasets are the catalog stand-ins at their canonical
generator seed, and the query sets are pinned to the catalog's sample
seed 0. Query cost and embedding counts are heavy-tailed across draws
(five CH q6 queries take 0.49 s for sample seed 0 and 0.015 s for seed
2; one WT q6 in a 232-query draw can triple its embeddings), so a
seed-drawn set would measure the draw, not the program. ``--seed``
sets the query order of each pass of the local workloads, the
simulator's steal-victim RNG and the Spark warm-up query.

Latency. The local workloads scale each query's wall time to a
nominal host speed with a reference loop timed around it (see
``Workload.timed``); Spark keeps wall time.
"""
from __future__ import annotations

import functools
import gc
import hashlib
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import repro.core.local_engine as local_engine
import repro.engine.scheduler as scheduler
import repro.engine.tasks as tasks
import repro.experiments.datasets as datasets
import repro.experiments.harness as harness
import repro.hyper.queries as queries
import repro.hyper.storage as storage
from repro.core.order import compute_matching_order
from repro.core.plan import compile_plan
from repro.hyper.model import Hypergraph

from tracer import Tracer

# Op budget per query: pick_heavy_queries selects the SB q3 queries
# under this budget, so every pinned query completes within it.
BUDGET = 3_000_000
# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
# Catalog sample seed of the pinned query sets (the ROADMAP's figures).
PINNED_SAMPLE_SEED = 0
# Host-speed reference: iterations of ``reference_s`` and its time, in
# seconds, at the nominal speed the latencies are scaled to (its median
# on an idle 4-core Xeon VM).
REF_ITERS = 1000
REF_NOMINAL_S = 170e-6
REF_BLOCK = 25
SETTINGS = {s.name: s for s in queries.TABLE3_SETTINGS}


@dataclass
class Query:
    name: str
    H: Hypergraph
    store: Any  # SignatureStore
    q: Hypergraph
    dataset_key: str  # dataset and scale, for the oracle cache


@dataclass
class Run:
    """One invocation: its settings and everything it measured."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.metrics[name] = (value, unit)
        self.samples[name] = n

    def fail(self, why: str) -> None:
        self.failures.append(why)


def measure(seconds: float, one_pass: Callable[[], None], min_passes: int = 1) -> list[float]:
    """Repeat ``one_pass`` until ``seconds`` have elapsed and at least
    ``min_passes`` ran; return the wall time of each pass."""
    walls: list[float] = []
    end = perf_counter() + seconds
    while len(walls) < min_passes or perf_counter() < end:
        t0 = perf_counter()
        one_pass()
        walls.append(perf_counter() - t0)
    return walls


def reference_s() -> float:
    """Seconds of a fixed pure-Python loop of small-dict and tuple work,
    the kind of work ``repro``'s engines do. It shares nothing with the
    program under test, so only the host's speed moves it."""
    t0 = perf_counter()
    d: dict[int, tuple[int, int]] = {}
    s = 0
    for i in range(REF_ITERS):
        d[i & 511] = (i, i)
        s += d.get((i * 7) & 511, (0, 0))[0]
    return perf_counter() - t0


def host_ref_s() -> float:
    """The reference loop's median time over ``REF_BLOCK`` runs: the
    host's speed at this moment, for spans too long to bracket with one
    run each side."""
    return statistics.median(reference_s() for _ in range(REF_BLOCK))


def load(name: str, scale: float = 1.0) -> tuple[Hypergraph, Any, str]:
    H = datasets.make_dataset(name, scale=scale)
    return H, storage.SignatureStore(H), f"{name}@{scale}"


def query_key(lq: Query) -> str:
    text = json.dumps([lq.dataset_key, lq.q.labels, [sorted(e) for e in lq.q.edges]])
    return hashlib.sha1(text.encode()).hexdigest()


def exact_counts(workdir: Path, qs: list[Query]) -> list[int]:
    """Counts from the exact bijection oracle (``validation='exact'``),
    cached in the checkout by query content: the oracle takes ~12 s on
    the heavy SB and CH queries."""
    path = workdir / "oracle.json"
    cache = json.loads(path.read_text()) if path.exists() else {}
    for lq in qs:
        key = query_key(lq)
        if key not in cache:
            cache[key] = local_engine.hgmatch(lq.H, lq.store, lq.q, validation="exact").count
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(cache, sort_keys=True))
    tmp.replace(path)
    return [cache[query_key(lq)] for lq in qs]


# ----------------------------------------------------------------------
# tracing: the attribute each layer is entered through
# ----------------------------------------------------------------------
def _stats_filtered(args: tuple) -> int:
    return args[3]["filtered"] if len(args) > 3 and args[3] is not None else 0


def _count_candidates(counts, args, out, pre) -> None:
    counts["candidates"] += len(out)


def _count_validation(counts, args, out, pre) -> None:
    counts["validated"] += bool(out)
    counts[f"validated@{args[0].i}"] += bool(out)
    counts["filtered"] += _stats_filtered(args) - pre


def wrap_setup(tr: Tracer) -> None:
    tr.wrap(datasets, "make_dataset", "hyper.generate")
    tr.wrap(storage.SignatureStore, "__init__", "hyper.index_build")
    tr.wrap(queries, "sample_queries", "hyper.query_sample")
    tr.wrap(harness, "pick_heavy_queries", "hyper.query_sample")
    # pick_heavy_queries ranks its samples by running hgmatch on each,
    # and sim_steal keeps the samples hgmatch finishes within a budget;
    # that search is its own span, not query-sampling self time.
    tr.wrap(harness, "hgmatch", "core.setup_search")
    tr.wrap(local_engine, "hgmatch", "core.setup_search")


def wrap_core(tr: Tracer) -> None:
    """Alg. 3-5 under the names ``local_engine`` looks them up by; the
    task executor reaches Alg. 4/5 through ``expand_embedding`` too."""
    tr.wrap(local_engine, "hgmatch", "core.hgmatch")
    tr.wrap(local_engine, "compute_matching_order", "core.order")
    tr.wrap(local_engine, "compile_plan", "core.plan")
    tr.wrap(local_engine, "generate_candidates", "core.alg4", hook=_count_candidates)
    tr.wrap(
        local_engine, "is_valid_embedding", "core.alg5",
        hook=_count_validation, before=_stats_filtered,
    )


def wrap_engine(tr: Tracer) -> None:
    tr.wrap(tasks.HGMatchTaskExecutor, "execute", "engine.execute")
    tr.wrap(scheduler, "simulate_workstealing", "engine.simulate")
    tr.wrap(scheduler, "simulate_bfs", "engine.simulate")


LOCAL_LAYERS = ["core.hgmatch", "core.order", "core.plan", "core.alg4", "core.alg5"]
SETUP_LAYERS = ["hyper.generate", "hyper.index_build", "hyper.query_sample"]


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """Set-up, one measured pass, and the correctness check of a
    workload. ``execute`` drives them the same way for every one."""

    wraps: tuple[Callable[[Tracer], None], ...] = ()
    required: list[str] = []  # layers the traced passes must enter
    min_passes = 1
    # A query's latency over the passes of a run (see ``Passes``).
    per_query: Callable[[list[float]], float] = staticmethod(statistics.median)

    def __init__(self, run: Run):
        self.run = run
        self.lat: dict[str, list[float]] = {}   # query (or job) -> seconds per pass
        self.wall: dict[str, list[float]] = {}  # the same, unscaled wall seconds
        self.emb = 0                # embeddings over those passes
        self.state: Any = None
        self.ref_s: float | None = None  # latest reference_s()
        # One set-up's steps (see ``step``): wall and scaled seconds, the
        # seconds spent in reference runs, and the latest host_ref_s().
        self.setup_wall = self.setup_scaled = self.setup_ref_s = 0.0
        self.step_ref: float | None = None

    def timed(self, key: str, call: Callable[[], Any]) -> Any:
        """Run one query (or job) and record its latency scaled to the
        nominal host speed: its wall time times ``REF_NOMINAL_S`` over
        the mean of the reference loop's time right before and right
        after it. The host this was tuned on slowed everything, the
        reference loop included, by up to 1.8x for seconds to minutes;
        the ratio held within a few percent. A call that raises records
        nothing."""
        before = self.ref_s if self.ref_s is not None else reference_s()
        t0 = perf_counter()
        out = call()
        dt = perf_counter() - t0
        self.ref_s = reference_s()
        self.wall.setdefault(key, []).append(dt)
        self.lat.setdefault(key, []).append(dt * 2 * REF_NOMINAL_S / (before + self.ref_s))
        return out

    def step(self, call: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run one set-up call (a dataset load, a query sample), scaled
        as ``timed`` scales a query but bracketed by ``host_ref_s``:
        a set-up's steps take 0.01-1 s each, and one host-speed reading
        per step tracks the host more closely than one per set-up."""
        t0 = perf_counter()
        before = self.step_ref if self.step_ref is not None else host_ref_s()
        t1 = perf_counter()
        out = call(*args, **kwargs)
        t2 = perf_counter()
        self.step_ref = host_ref_s()
        self.setup_ref_s += (t1 - t0) + (perf_counter() - t2)
        dt = t2 - t1
        self.setup_wall += dt
        self.setup_scaled += dt * 2 * REF_NOMINAL_S / (before + self.step_ref)
        return out

    def setup(self) -> Any:
        raise NotImplementedError

    def one_pass(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed work before the timed passes. None for the local
        workloads: set-up fills the cached properties their passes read
        (``pick_heavy_queries`` even runs the SB queries), and a first
        pass timed no slower than later ones."""

    def check(self) -> None:
        raise NotImplementedError

    def stores(self) -> list[Any]:
        return []

    def report(self, tr: Tracer | None) -> None:
        """Workload-specific metrics; ``tr`` is set on the traced run."""

    def close(self) -> None:
        """Release what ``setup`` acquired outside this process."""

    def extra_setup_s(self) -> float:
        """Set-up paid once per run rather than per repeat."""
        return 0.0


@dataclass
class Passes:
    """The timed passes of one run (plain or traced)."""

    lat: dict[str, list[float]]   # query (or job) -> seconds per pass
    wall: dict[str, list[float]]  # the same, unscaled wall seconds
    emb: int                      # embeddings over all passes
    n: int                        # passes
    per_query: Callable[[list[float]], float]

    def latencies(self) -> dict[str, float]:
        return {k: self.per_query(v) for k, v in self.lat.items()}

    def run_s(self) -> float:
        """Seconds of one pass with every query at its latency."""
        return sum(self.latencies().values())

    def wall_s(self) -> float:
        return sum(self.per_query(v) for v in self.wall.values())


def timed_passes(wl: Workload) -> Passes:
    wl.lat, wl.wall, wl.emb, wl.ref_s = {}, {}, 0, None
    walls = measure(wl.run.seconds, wl.one_pass, wl.min_passes)
    return Passes(wl.lat, wl.wall, wl.emb, len(walls), wl.per_query)


def execute(wl: Workload) -> None:
    """Set up, warm up, time the passes, report and check. An untraced
    run puts the end-to-end metrics on ``wl.run``, a traced one the
    per-layer metrics."""
    run = wl.run
    tr = Tracer()
    setups: list[float] = []
    if run.trace:
        wrap_setup(tr)
        try:
            wl.state = wl.setup()
        finally:
            tr.unwrap()
        tr.require(SETUP_LAYERS)
    else:
        for _ in range(SETUP_REPEATS):
            # Each set-up starts from the same heap, not one that still
            # holds the previous set-up's objects.
            wl.state = None
            gc.collect()
            wl.setup_wall = wl.setup_scaled = wl.setup_ref_s = 0.0
            wl.step_ref = None
            t0 = perf_counter()
            wl.state = wl.setup()
            dt = perf_counter() - t0 - wl.setup_ref_s
            # Scaled by the host speed its steps saw. Spark's set-up is
            # mostly JVM work, which the reference loop does not track
            # (see ``SparkWT.per_query``): it runs no steps and stays
            # wall time.
            setups.append(dt * wl.setup_scaled / wl.setup_wall if wl.setup_wall else dt)
    # Set-up objects (datasets, indexes, queries) live for the whole
    # run. Freezing them keeps each full collection from rescanning them
    # inside whichever small query triggers it.
    gc.collect()
    gc.freeze()
    t0 = perf_counter()
    wl.warm_up()
    warm_s = perf_counter() - t0
    run.attempted = 0
    plain = timed_passes(wl)
    if run.trace:
        for wrap in wl.wraps:
            wrap(tr)
        try:
            traced = timed_passes(wl)
        finally:
            tr.unwrap()
        tr.require(wl.required)
        setup_layer_metrics(run, tr, wl.stores())
        layer_metrics(run, tr, plain, traced)
    else:
        run.put("setup_s", statistics.median(setups) + wl.extra_setup_s() + warm_s, "s", len(setups))
        latency_metrics(run, plain)
    wl.report(tr if run.trace else None)
    wl.check()


def latency_metrics(run: Run, p: Passes) -> None:
    """The end-to-end metrics every workload reports. The percentiles
    are taken over each query's latency (see ``Workload.timed``)."""
    latencies = p.latencies()
    per_query = sorted(latencies.values())
    n = sum(len(v) for v in p.lat.values())
    run_s = p.run_s()
    run.put("run_s", run_s, "s", p.n)
    run.put("query_p50_ms", 1e3 * statistics.median(per_query), "ms", n)
    p95 = statistics.quantiles(per_query, n=100, method="inclusive")[94] if len(per_query) > 1 else per_query[0]
    run.put("query_p95_ms", 1e3 * p95, "ms", n)
    run.put("emb_per_s", p.emb / p.n / run_s, "1/s", n)
    run.detail["queries_timed"] = len(per_query)
    run.detail["wall_run_s"] = p.wall_s()
    if len(p.lat) <= 20:
        run.detail["query_ms"] = {k: 1e3 * v for k, v in latencies.items()}


def setup_layer_metrics(run: Run, tr: Tracer, stores: list[Any]) -> None:
    run.put("hyper.generate_s", tr.total["hyper.generate"], "s")
    run.put("hyper.index_build_s", tr.total["hyper.index_build"], "s")
    run.put("hyper.index_postings", sum(s.index_nbytes() // 8 for s in stores), "count")
    run.put("hyper.query_sample_s", tr.self_s["hyper.query_sample"], "s")
    run.put("core.setup_search_s", tr.total["core.setup_search"], "s")


def layer_metrics(run: Run, tr: Tracer, plain: Passes, traced: Passes) -> None:
    """Per-pass layer times and counts from the traced passes."""
    n = traced.n
    c = tr.counts
    per_pass = {
        "core.order_s": tr.self_s["core.order"],
        "core.plan_s": tr.self_s["core.plan"],
        "core.alg4_s": tr.self_s["core.alg4"],
        "core.alg4_calls": tr.calls["core.alg4"],
        "core.candidates": c["candidates"],
        "core.alg5_s": tr.self_s["core.alg5"],
        "core.alg5_calls": tr.calls["core.alg5"],
        "core.filtered": c["filtered"],
        "core.validated": c["validated"],
        "core.loop_self_s": tr.self_s["core.hgmatch"],
        "engine.execute_s": tr.total["engine.execute"],
        "engine.tasks": tr.calls["engine.execute"],
        "engine.sched_self_s": tr.self_s["engine.simulate"],
        "dist.cardinalities_s": tr.self_s["dist.cardinalities"],
        "dist.plan_build_s": tr.self_s["dist.plan_build"],
        "dist.exec_s": tr.self_s["dist.query"],
    }
    for name, v in per_pass.items():
        run.put(name, v / n, "s" if name.endswith("_s") else "count", n)
    if c["candidates"]:
        run.put("core.filter_ratio", c["filtered"] / c["candidates"], "ratio", n)
        run.put("core.valid_ratio", c["validated"] / c["candidates"], "ratio", n)
    base, with_trace = plain.run_s(), traced.run_s()
    run.put("trace.overhead_s", with_trace - base, "s", n)
    run.put("trace.overhead_frac", (with_trace - base) / base, "ratio", n)


class LocalWorkload(Workload):
    """Sequential ``hgmatch`` in counting mode over a list of queries."""

    wraps = (wrap_core,)
    required = LOCAL_LAYERS

    def __init__(self, run: Run):
        super().__init__(run)
        self.seen: dict[int, set[tuple[int, int]]] = {}  # query -> {(count, ops)}
        self.ops_per_pass = 0
        # Each pass runs the queries in a new order drawn from --seed, so
        # no query always follows the same one (or the same garbage).
        self.rng = random.Random(run.seed)

    def one_pass(self) -> None:
        run, qs = self.run, self.state
        ops = 0
        for i in self.rng.sample(range(len(qs)), len(qs)):
            lq = qs[i]
            run.attempted += 1
            try:
                r = self.timed(lq.name, lambda: local_engine.hgmatch(lq.H, lq.store, lq.q, budget=BUDGET))
            except Exception as e:  # a failing query is counted, not fatal
                run.fail(f"{lq.name}: {e!r}")
                continue
            if r.timed_out:
                run.fail(f"{lq.name}: op budget {BUDGET} exhausted")
                continue
            self.seen.setdefault(i, set()).add((r.count, r.stats["ops"]))
            self.emb += r.count
            ops += r.stats["ops"]
        self.ops_per_pass = ops

    def stores(self) -> list[Any]:
        return list({id(lq.store): lq.store for lq in self.state}.values())

    def report(self, tr: Tracer | None) -> None:
        # The cost model's op count stands in for the paper's timeout:
        # it is deterministic and must not drift silently.
        if tr is not None:
            self.run.put("core.ops", self.ops_per_pass, "count")
        self.run.detail["core.ops"] = self.ops_per_pass
        self.run.detail["queries"] = len(self.state)

    def check(self) -> None:
        """One (count, ops) per query across passes, and the count
        equal to the exact oracle's."""
        qs = self.state
        oracle = exact_counts(self.run.workdir, qs)
        for i, lq in enumerate(qs):
            got = self.seen.get(i, set())
            if len(got) > 1:
                self.run.fail(f"{lq.name}: passes disagree {sorted(got)}")
            for count, _ in got:
                if count != oracle[i]:
                    self.run.fail(f"{lq.name}: count {count} != exact oracle {oracle[i]}")


class EnumHeavy(LocalWorkload):
    """SB q3^1/q3^2 (Exp-4's heavy queries), five CH q6, five HB q4."""

    # A ~1.5 s pass: several passes give each query several samples.
    min_passes = 4

    def setup(self) -> list[Query]:
        H, store, key = self.step(load, "SB")
        heavy = self.step(harness.pick_heavy_queries, H, store)
        qs = [Query(f"SB/q3^{i + 1}", H, store, q, key) for i, (_, q) in enumerate(heavy)]
        for ds, setting in (("CH", "q6"), ("HB", "q4")):
            H, store, key = self.step(load, ds)
            sampled = self.step(queries.sample_queries, H, SETTINGS[setting], 5, seed=PINNED_SAMPLE_SEED)
            qs += [Query(f"{ds}/{setting}#{i}", H, store, sq.query, key) for i, sq in enumerate(sampled)]
        return qs

    def report(self, tr: Tracer | None) -> None:
        super().report(tr)
        self.run.detail["counts"] = {
            self.state[i].name: min(v)[0] for i, v in sorted(self.seen.items())
        }


class PointQueries(LocalWorkload):
    """Many distinct short queries, most with one or two embeddings."""

    # (dataset, queries per Table III setting). MA's 150 labels and
    # mean arity 22 make its window sampling ~0.15 s per q6 query.
    PLAN = (("WT", 25), ("TC", 25), ("MA", 8))

    def setup(self) -> list[Query]:
        qs: list[Query] = []
        for ds, k in self.PLAN:
            H, store, key = self.step(load, ds)
            for setting in ("q2", "q3", "q4", "q6"):
                sampled = self.step(queries.sample_queries, H, SETTINGS[setting], k, seed=PINNED_SAMPLE_SEED)
                qs += [Query(f"{ds}/{setting}#{i}", H, store, sq.query, key) for i, sq in enumerate(sampled)]
        return qs


class SimSteal(Workload):
    """Exp-4/5/6's scheduler configurations (p=1, p=20 with stealing,
    p=20 static NOSTL, and the BFS strawman) over SB q3 plans.

    The timed jobs are the pinned SB q3 sample's queries that finish
    within ``LIGHT_BUDGET`` ops: 13 plans, 52 jobs of 2-60 ms. Exp-4's
    two heavy plans (q3^1/q3^2, 0.6-2 s per job) gave each job two
    samples per run, and ten runs spread up to 26% in ``run_s``; with
    the light jobs, ~12 samples each, 2-4%. The heavy plans still
    run, once and untimed, in the traced run (``shape_run``), for the
    deterministic Exp-4/5/6 metrics: speedup, steals, imbalance, peak
    task-queue and BFS frontier bytes."""

    wraps = (wrap_core, wrap_engine)
    required = ["engine.execute", "engine.simulate", "core.alg4", "core.alg5"]
    WORKERS = 20
    NUMA = 20  # Exp-4's knee: one socket
    LIGHT_SAMPLES = 40
    LIGHT_BUDGET = 100_000
    # simulate_workstealing arguments per job; None runs simulate_bfs.
    CONFIGS = {
        "p1": {"n_workers": 1, "numa_threshold": NUMA},
        "p20": {"n_workers": WORKERS, "numa_threshold": NUMA},
        "nostl": {"n_workers": WORKERS, "numa_threshold": NUMA, "steal": False, "scatter_roots": True},
        "bfs": None,
    }

    def __init__(self, run: Run):
        super().__init__(run)
        self.sims: list[tuple[int, Query, dict[str, Any]]] = []
        self.heavy: list[tuple[int, Query, dict[str, Any]]] = []
        self.ops = 0
        self.bfs_s = 0.0

    @staticmethod
    def plan(count: int, lq: Query) -> tuple[int, Any, Query]:
        return count, compile_plan(lq.q, compute_matching_order(lq.q, lq.store.card)), lq

    def setup(self) -> tuple[Any, list[tuple[int, Any, Query]]]:
        H, store, key = self.step(load, "SB")
        sampled = self.step(queries.sample_queries, H, SETTINGS["q3"], self.LIGHT_SAMPLES, seed=PINNED_SAMPLE_SEED)
        plans = []
        for i, sq in enumerate(sampled):
            r = self.step(local_engine.hgmatch, H, store, sq.query, budget=self.LIGHT_BUDGET)
            if not r.timed_out:
                plans.append(self.plan(r.count, Query(f"SB/q3#{i}", H, store, sq.query, key)))
        return store, plans

    def stores(self) -> list[Any]:
        return [self.state[0]]

    def simulate(self, plans: list[tuple[int, Any, Query]], timed: bool) -> list[tuple[int, Query, dict[str, Any]]]:
        """Every configuration on every plan; ``timed`` records each job's
        latency, otherwise its wall time goes to ``bfs_s`` for BFS."""
        store = self.state[0]
        sims = []
        self.ops = 0
        for count, plan, lq in plans:
            res = {}
            for name, kw in self.CONFIGS.items():
                ex = tasks.HGMatchTaskExecutor(plan, store)
                self.run.attempted += 1
                if kw is None:
                    job = functools.partial(scheduler.simulate_bfs, ex)
                else:
                    job = functools.partial(scheduler.simulate_workstealing, ex, seed=self.run.seed, **kw)
                t0 = perf_counter()
                try:
                    res[name] = self.timed(f"{lq.name}/{name}", job) if timed else job()
                except Exception as e:  # a failing job is counted, not fatal
                    self.run.fail(f"{lq.name}/{name}: {e!r}")
                    continue
                if name == "bfs" and not timed:
                    self.bfs_s += perf_counter() - t0
                self.emb += res[name].emitted
                if name == "p1":
                    self.ops += ex.stats["ops"]
            sims.append((count, lq, res))
        return sims

    def one_pass(self) -> None:
        self.sims = self.simulate(self.state[1], timed=True)

    def shape_run(self) -> None:
        """Exp-4's heavy q3^1/q3^2 plans under every configuration, once."""
        lq = self.state[1][0][2]
        heavy = harness.pick_heavy_queries(lq.H, lq.store)
        plans = [
            self.plan(c, Query(f"SB/q3^{i + 1}", lq.H, lq.store, q, lq.dataset_key))
            for i, (c, q) in enumerate(heavy)
        ]
        self.bfs_s = 0.0
        self.heavy = self.simulate(plans, timed=False)

    def report(self, tr: Tracer | None) -> None:
        run = self.run
        run.detail["core.ops"] = self.ops
        run.detail["makespans"] = {
            lq.name: {k: r.makespan for k, r in s.items() if k != "bfs"} for _, lq, s in self.sims
        }
        if tr is None:
            return
        run.put("core.ops", self.ops, "count")
        self.shape_run()
        rows = [s for _, _, s in self.heavy if len(s) == len(self.CONFIGS)]
        if len(rows) != len(self.heavy):
            return  # a job failed; check() reports it
        speedups = [s["p1"].makespan / s["p20"].makespan for s in rows]
        shape = {
            "sim_speedup_p20": (math.prod(speedups) ** (1 / len(speedups)), "x"),
            "sim_peak_task_kb": (max(s["p20"].peak_task_bytes for s in rows) / 1024, "KiB"),
            "engine.makespan_p1": (sum(s["p1"].makespan for s in rows), "ops"),
            "engine.makespan_p20": (sum(s["p20"].makespan for s in rows), "ops"),
            "engine.steals_p20": (sum(s["p20"].n_steals for s in rows), "count"),
            "engine.imbalance_p20": (max(s["p20"].load_imbalance for s in rows), "ratio"),
            "engine.imbalance_nostl_p20": (max(s["nostl"].load_imbalance for s in rows), "ratio"),
            "engine.bfs_peak_kb": (max(s["bfs"].peak_intermediate_bytes for s in rows) / 1024, "KiB"),
            "engine.bfs_s": (self.bfs_s, "s"),
        }
        for name, (v, unit) in shape.items():
            run.put(name, v, unit)
        run.detail["heavy"] = {k: v for k, (v, _) in shape.items()}
        run.detail["heavy"]["core.ops"] = self.ops
        run.detail["heavy"]["makespans"] = {
            lq.name: {k: r.makespan for k, r in s.items() if k != "bfs"} for _, lq, s in self.heavy
        }

    def check(self) -> None:
        sims = self.sims + self.heavy
        oracle = exact_counts(self.run.workdir, [lq for _, lq, _ in sims])
        for (count, lq, res), exact in zip(sims, oracle):
            if count != exact:
                self.run.fail(f"{lq.name}: local count {count} != exact oracle {exact}")
            for k, r in res.items():
                if r.emitted != count:
                    self.run.fail(f"{lq.name}/{k}: simulator emitted {r.emitted} != local {count}")
