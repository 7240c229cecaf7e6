"""HGMatch benchmark: one command, four closed-loop workloads.

    python3 perfbench/run.py --workload enum_heavy --seed 1 --seconds 10 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` reports the per-layer
metrics of an outside-in traced run plus the tracing overhead. Metric
names, units and directions come from ``BENCHMARK.json``. Every query
is checked against an independent oracle; the last stdout line is the
JSON result, and the exit code is non-zero when any query failed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = Path(__file__).resolve().parent / ".run"
WORKLOADS = ("enum_heavy", "point_queries", "sim_steal", "spark_wt")


def java_version() -> str:
    try:
        out = subprocess.run(["java", "-version"], capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired) as e:
        return f"unavailable ({e})"
    return (out.stderr or out.stdout).splitlines()[0] if (out.stderr or out.stdout) else "unknown"


def environment(seed: int) -> dict:
    from spark_wt import SPARK_CONF, SPARK_MASTER

    try:
        pyspark = metadata.version("pyspark")
    except metadata.PackageNotFoundError:
        pyspark = "unavailable"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pyspark": pyspark,
        "java": java_version(),
        "spark_master": SPARK_MASTER,
        "spark_conf": SPARK_CONF,
    }


def make_workload(name: str, run):
    import workloads

    if name == "spark_wt":
        from spark_wt import SparkWT

        return SparkWT(run)
    return {
        "enum_heavy": workloads.EnumHeavy,
        "point_queries": workloads.PointQueries,
        "sim_steal": workloads.SimSteal,
    }[name](run)


def result_metrics(run, spec: dict) -> dict:
    """The metrics BENCHMARK.json asks for: every end-to-end metric on an
    untraced run, every per-layer metric on a traced one. A per-layer
    metric of a layer this workload does not enter reads 0."""
    wanted = spec["per_layer"] if run.trace else spec["end_to_end"]
    extra = set(run.metrics) - {m["name"] for m in wanted}
    if extra:
        raise RuntimeError(f"measured metrics missing from BENCHMARK.json: {sorted(extra)}")
    out = {}
    for m in wanted:
        if m["name"] in run.metrics:
            value, unit = run.metrics[m["name"]]
            if unit != m["unit"]:
                raise RuntimeError(f"{m['name']}: unit {unit} != BENCHMARK.json {m['unit']}")
        elif run.trace:
            value = 0
        else:
            raise RuntimeError(f"end-to-end metric {m['name']} was not measured")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"error: {ROOT} has no src/repro or BENCHMARK.json; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    WORKDIR.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORKDIR)  # temp files stay in the checkout
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import Run, execute

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), WORKDIR)
    wl = None
    try:
        wl = make_workload(args.workload, run)
        execute(wl)
        metrics = result_metrics(run, spec)
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        if wl is not None:
            wl.close()

    failed = min(len(run.failures), run.attempted)
    print(f"workload={run.workload} seed={run.seed} trace={int(run.trace)} "
          f"attempted={run.attempted} failed={len(run.failures)}")
    for name, (value, unit) in run.metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit:<6} n={run.samples[name]}")
    print(f"  {'fail_frac':<28} {failed / max(1, run.attempted):>16.6g} ratio")
    for why in run.failures:
        print(f"FAILED {why}")
    print(json.dumps({"env": environment(run.seed), "samples": run.samples,
                      "detail": run.detail, "failures": run.failures}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": max(1, run.attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if run.failures else 0


if __name__ == "__main__":
    sys.exit(main())
