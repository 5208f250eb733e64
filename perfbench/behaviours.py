"""Re-measure the solver behaviours the perfbench README records.

From the repository root::

    python3 perfbench/behaviours.py            # 16 applications
    python3 perfbench/behaviours.py --apps 16 32

For each size it prints, on a seeded ``random_workload`` (four-task random
DAGs on three processors, granularity 0.05):

* a cold ``allocate_workload`` and a warm ``WorkloadSession`` re-solve of
  the same point, and their ratio;
* one infeasible point — the first application's buffers capped at
  :data:`CAP` containers — solved cold with the ``auto`` backend (barrier,
  then SLSQP on the infeasible verdict), cold with the ``barrier`` backend
  alone, and as a warm session re-solve with ``auto``;

and, on a 24-event ``random_trace``, how many warm session solves redo
their centering cold (``cold-retry`` spans).  Workloads and trace use seed
:data:`SEED`.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import (  # noqa: E402
    AllocatorOptions,
    InfeasibleProblemError,
    JointAllocator,
    obs,
    random_trace,
    random_workload,
    replay_trace,
)

#: Containers the first application's buffers are capped at.
CAP = 3
SEED = 7


def timed(action):
    began = time.perf_counter()
    try:
        action()
        verdict = "optimal"
    except InfeasibleProblemError:
        verdict = "infeasible"
    return time.perf_counter() - began, verdict


def measure(apps: int) -> None:
    workload = random_workload(application_count=apps, seed=SEED, granularity=0.05)
    allocator = JointAllocator(options=AllocatorOptions(verify=False))
    cold, _ = timed(lambda: allocator.allocate_workload(workload))
    session = allocator.workload_session(workload)
    session.allocate()
    warm, _ = timed(lambda: session.allocate())
    print(f"{apps} apps: cold solve {cold:.3f} s, warm re-solve {warm:.3f} s ({warm / cold:.2f}x)")

    first = workload.applications[0]
    limits = {first.name: {name: CAP for name in first.buffer_names()}}
    auto, verdict = timed(lambda: allocator.allocate_workload(workload, capacity_limits=limits))
    barrier_only = JointAllocator(options=AllocatorOptions(verify=False, backend="barrier"))
    barrier, barrier_verdict = timed(
        lambda: barrier_only.allocate_workload(workload, capacity_limits=limits)
    )
    warm_auto, warm_verdict = timed(lambda: session.allocate(capacity_limits=limits))
    print(
        f"{apps} apps, {first.name} buffers capped at {CAP}: cold auto {auto:.3f} s "
        f"({verdict}), cold barrier alone {barrier:.3f} s ({barrier_verdict}), "
        f"warm session auto {warm_auto:.3f} s ({warm_verdict})"
    )


def cold_retries() -> None:
    trace = random_trace(event_count=24, seed=SEED)
    with obs.capture() as captured:
        result = replay_trace(trace)
    retries = sum(_count(span, "cold-retry") for span in captured.spans)
    warm = result.solver_stats.get("warm_started", 0)
    print(f"24-event trace (seed {SEED}): {retries} cold retries over {warm} warm solves")


def _count(span, name: str) -> int:
    return (span["name"] == name) + sum(_count(child, name) for child in span.get("children", ()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--apps", type=int, nargs="+", default=[16])
    args = parser.parse_args(argv)
    for apps in args.apps:
        measure(apps)
    cold_retries()
    return 0


if __name__ == "__main__":
    sys.exit(main())
