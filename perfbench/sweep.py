"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workload enum_heavy ...] [--trace 0] [--out FILE]

Runs ``run.py`` once per (workload, seed), one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``, and prints for every metric its
median, first and third quartiles (``statistics.quantiles(n=4)``) and
spread = (q3 - q1) / median next to the metric's bound. ``--out``
writes the same summary plus every run's values as JSON; the
``baseline.json`` beside this file was made that way. Exits non-zero
when a run fails or a spread exceeds its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary, ok = {}, True
    for wl in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed = time.perf_counter() - t0
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                print(f"{wl} seed={seed}: exit {out.returncode}\n{out.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            runs.append({"seed": seed, "elapsed_s": elapsed, **json.loads(last)})
        rows = {}
        for name in runs[0]["metrics"] if runs else []:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name) if not args.trace else None
            rows[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bound, "values": values}
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound else "OVER"
                ok &= spread <= bound
            print(f"{wl:<14} {name:<24} median={med:<14.6g} spread={spread:.3f} bound={bound} {flag}")
        elapsed = [r["elapsed_s"] for r in runs]
        if elapsed:
            print(f"{wl:<14} {'(run wall time)':<24} median={statistics.median(elapsed):<14.6g} max={max(elapsed):.1f} s")
        summary[wl] = {"seeds": [r["seed"] for r in runs], "elapsed_s": elapsed, "metrics": rows}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
