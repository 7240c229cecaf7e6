"""Parallel execution engine substrate (paper Section VI).

The paper's engine is a Rust thread pool; here the *scheduling layer*
is reproduced as a discrete-event simulator that executes the real
matching work task-by-task (DESIGN.md substitution #1):

- :mod:`repro.engine.tasks` — Def. VI.1 tasks as ``(step, m)`` tuples
  over the compiled plan (step 0 SCAN, step n SINK, otherwise EXPAND),
  executed with the sequential engine's ``expand_embedding``, with
  payload-size accounting;
- :mod:`repro.engine.scheduler` — per-worker LIFO deques, dynamic
  steal-half-from-tail work stealing, virtual-clock makespan, peak
  task-queue memory (Thm. VI.1), and the BFS scheduler used as the
  memory-consumption strawman (Exp-5).
"""
from repro.engine.scheduler import simulate_bfs, simulate_workstealing  # noqa: F401
from repro.engine.tasks import HGMatchTaskExecutor  # noqa: F401
