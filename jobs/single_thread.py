"""Table IV, Exp-2 (Fig. 8) and Exp-3 (Fig. 9) from one single-thread run grid.

All five engines run the q2+q3 workloads over the nine single-thread
datasets (AR excluded, as in the paper) under the operation budget that
stands in for the paper's 1-hour timeout. Each sampled query runs once
per engine (Section VII-A); the completion ratios, the speedups and
HGMatch's filtering funnel are three views of those records.

Run: ``spark-submit jobs/single_thread.py [n_queries]``.
"""
import sys

from repro.experiments.datasets import SINGLE_THREAD_DATASETS
from repro.experiments.harness import (
    completion_table,
    filtering_table,
    run_queries,
    speedup_table,
)
from repro.hyper.queries import TABLE3_SETTINGS


def main(n_queries: int = 3) -> None:
    records = []
    for ds in SINGLE_THREAD_DATASETS:
        records += run_queries(ds, list(TABLE3_SETTINGS[:2]), n_queries=n_queries)
        print(f"[single_thread] {ds} done ({len(records)} runs)")

    print("== Table IV: query completion ratio (single-thread, %) ==")
    print(completion_table(records).to_string())
    print("paper: HGMatch 100% everywhere; CFL-H/DAF-H/CECI-H/RapidMatch "
          "100% on HC/MA/CH/CP, 43-56% on SB, 44% HB, 75-76% WT, 86-90% TC, 99% SA")

    print("== Exp-2: average elapsed seconds and speedup over HGMatch ==")
    print(speedup_table(records).to_string(float_format=lambda x: f"{x:.4g}"))
    print("paper shape: average speedups 5e4 (CFL-H), 1e5 (DAF-H), 7e5 (CECI-H), "
          "1e6 (RapidMatch); largest gaps on high-arity datasets (HC, MA, HB, SA)")

    print("== Exp-3: candidates -> filtered (vertex-count check) -> embeddings ==")
    print(filtering_table(records).to_string(formatters={"emb/filtered": "{:.2%}".format}))
    print("paper shape: ~97% of filtered results are true embeddings; "
          "many-label datasets (MA, SA) have almost no false positives")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
