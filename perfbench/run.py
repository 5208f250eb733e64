"""perfbench — the allocation stack's benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload design-sweep --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``design-sweep``, ``workload-joint``,
``admission-trace``, ``batch-campaign``, or ``all`` (every workload in turn,
each in a process of its own, with the metrics prefixed by the workload's
name).  With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures half the time untraced and half with the layer
timers and ``repro.obs.capture()`` on, and reports the per-layer metrics.
Every run checks the program's outputs after its timed phase.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS/OpenMP thread for the client and the batch workers it forks.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench-work"
WORKLOADS = ("design-sweep", "workload-joint", "admission-trace", "batch-campaign")
#: Import timings (this process and fresh interpreters) and set-ups per
#: untraced run; ``setup_s`` adds the median of each.  Each fresh
#: interpreter costs about a second of the run's wall time.
IMPORT_REPEATS = 3
SETUP_REPEATS = 5


def _import_program():
    """Import ``repro`` from this checkout's ``src``; exit 2 when it is not there."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the program from {source}: {error}", file=sys.stderr)
        sys.exit(2)
    if Path(repro.__file__).resolve().parent.parent != source.resolve():
        print(f"perfbench: repro was imported from {repro.__file__}, not {source}", file=sys.stderr)
        sys.exit(2)


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Phase:
    """The operations, latencies and outcomes of one timed phase."""

    def __init__(self) -> None:
        self.kinds = []
        self.latencies = []
        self.outcomes = []
        self.errors = {}

    @property
    def operations(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.operations / sum(self.latencies)


def make_workload(name: str, seed: int, instance: str, telemetry: bool = False):
    import workloads

    if name == "design-sweep":
        return workloads.DesignSweep(seed)
    if name == "workload-joint":
        return workloads.WorkloadJoint(seed)
    if name == "admission-trace":
        return workloads.AdmissionTraceWorkload(seed)
    return workloads.BatchCampaign(seed, WORK_DIR / str(os.getpid()) / instance, telemetry)


def close(workload) -> None:
    closer = getattr(workload, "close", None)
    if closer is not None:
        closer()


def set_up(name: str, seed: int, instance: str, telemetry: bool = False):
    """Build a workload's inputs, warm it up and prepare its first round."""
    workload = make_workload(name, seed, instance, telemetry)
    workload.warm_up()
    return workload, workload.round(0)


def timed_phase(workload, first_round, seconds: float, between=contextlib.nullcontext) -> Phase:
    """Run whole rounds, one operation after the other, for about ``seconds``.

    A new round starts only while the elapsed time plus half a round stays
    below ``seconds``, so every run holds whole rounds of the same kinds of
    operation.  Each next round is built inside the ``between()`` context.
    """
    phase = Phase()
    start = time.perf_counter()
    operations, index = first_round, 0
    while True:
        for kind, operation in operations:
            began = time.perf_counter()
            try:
                outcome = operation()
            except Exception:  # noqa: BLE001 - an unexpected raise fails the operation
                outcome = None
                phase.errors[len(phase.outcomes)] = traceback.format_exc(limit=3)
            phase.latencies.append(time.perf_counter() - began)
            phase.kinds.append(kind)
            phase.outcomes.append(outcome)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index / 2 >= seconds:
            return phase
        with between():
            operations = workload.round(index)


def judge(workload, phase: Phase) -> int:
    """Check a phase's outputs; print every problem; return the failed count."""
    problems = workload.check(phase.outcomes)
    failed = set(problems) | set(phase.errors)
    for index in sorted(failed):
        print(f"  FAILED op {index} ({phase.kinds[index]}):", file=sys.stderr)
        for message in problems.get(index, []):
            print(f"    {message}", file=sys.stderr)
        if index in phase.errors:
            print("    " + phase.errors[index].replace("\n", "\n    "), file=sys.stderr)
    return len(failed)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest waited-for child.

    Call it before starting any child but the workload's own workers.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def child_command(name: str, seed: int, seconds: float, trace: int, *extra: str):
    """The command line of this script in a child process."""
    return [
        sys.executable, __file__, "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]


def import_seconds(name: str) -> float:
    """Time the imports in a fresh interpreter running this script."""
    completed = subprocess.run(
        child_command(name, 0, 0, 0, "--import-only"),
        capture_output=True,
        text=True,
        check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def run_untraced(name: str, seed: int, seconds: float, import_s: float):
    setups = []
    workload = first_round = None
    for repeat in range(SETUP_REPEATS):
        if workload is not None:
            close(workload)
        began = time.perf_counter()
        workload, first_round = set_up(name, seed, f"setup-{repeat}")
        setups.append(time.perf_counter() - began)
    try:
        phase = timed_phase(workload, first_round, seconds)
        failed = judge(workload, phase)
    finally:
        close(workload)
    peak_mb = peak_rss_mb()
    imports = [import_s] + [import_seconds(name) for _ in range(IMPORT_REPEATS - 1)]
    latencies_ms = [latency * 1e3 for latency in phase.latencies]
    metrics = {
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "latency_p50_ms": (quantile(latencies_ms, 0.5), "ms"),
        "latency_p90_ms": (quantile(latencies_ms, 0.9), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
    }
    notes = {
        "latency_p90_ms": f"{phase.operations} operations",
        "setup_s": f"median of imports "
        + ", ".join(f"{value:.3f}" for value in imports)
        + " s + median of set-ups "
        + ", ".join(f"{value:.3f}" for value in setups),
    }
    return phase.operations, failed, metrics, notes


def run_traced(name: str, seed: int, seconds: float):
    import layers
    from repro import obs

    workload, first_round = set_up(name, seed, "untraced")
    try:
        untraced = timed_phase(workload, first_round, seconds / 2)
        failed = judge(workload, untraced)
    finally:
        close(workload)

    workload, first_round = set_up(name, seed, "traced", telemetry=True)
    try:
        timers = layers.LayerTimers()
        timers.install()
        try:
            with obs.capture() as captured:
                traced = timed_phase(workload, first_round, seconds / 2, timers.paused)
        finally:
            timers.restore()
        failed += judge(workload, traced)
        return _traced_metrics(name, workload, timers, captured, untraced, traced, failed)
    finally:
        close(workload)


def _traced_metrics(name, workload, timers, captured, untraced, traced, failed):
    """The per-layer metrics of a traced phase, from timers, spans and counts."""
    import layers

    spans = list(captured.spans)
    snapshots = [captured.metrics]
    verdicts = {}
    batch = None
    for outcome in traced.outcomes:
        if outcome is None:
            continue
        if "verdict" in outcome and outcome.get("event") == "arrive":
            verdicts[outcome["verdict"]] = verdicts.get(outcome["verdict"], 0) + 1
        if "results" in outcome:
            batch = batch or {"workers": float(workload.WORKERS), "cache_hits": 0.0, "worker_solve_s": 0.0}
            for result in outcome["results"]:
                if result.from_cache:
                    batch["cache_hits"] += 1
                else:
                    batch["worker_solve_s"] += result.solve_seconds
                if result.telemetry:
                    spans += result.telemetry.get("spans", [])
    if batch is not None:
        # Worker metrics arrive merged into the executor's registry.
        snapshots.append(workload.executor.metrics.snapshot())
    values, notes = layers.layer_metrics(
        name,
        traced.operations,
        timers,
        spans,
        snapshots,
        workload.session_stats(),
        verdicts,
        batch,
        (untraced.ops_per_s, traced.ops_per_s),
    )
    metrics = {
        metric: (value, layers.METRICS[metric])
        for metric, value in values.items()
        if value is not None
    }
    absent = sorted(metric for metric, value in values.items() if value is None)
    for metric in absent:
        notes[metric] = "absent: the program no longer reports its source"
    return untraced.operations + traced.operations, failed, metrics, notes, absent


def print_table(name: str, attempted: int, failed: int, metrics, notes, absent=()) -> None:
    print(f"== {name}: {attempted} operations attempted, {failed} failed")
    for metric, (value, unit) in metrics.items():
        note = notes.get(metric, "")
        print(f"  {metric:34s} {value:14.4f} {unit:6s} {note}")
    for metric in absent:
        print(f"  {metric:34s} {'absent':>14s}")


def run_one(args, import_s: float) -> dict:
    if args.trace:
        attempted, failed, metrics, notes, absent = run_traced(args.workload, args.seed, args.seconds)
    else:
        attempted, failed, metrics, notes = run_untraced(
            args.workload, args.seed, args.seconds, import_s
        )
        absent = []
    print_table(args.workload, attempted, failed, metrics, notes, absent)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Run every workload in a child process of its own and merge the results.

    A process of its own keeps each workload's ``peak_rss_mb`` and
    ``setup_s`` its own.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        completed = subprocess.run(
            child_command(name, args.seed, args.seconds, args.trace),
            capture_output=True,
            text=True,
        )
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.splitlines()
        if completed.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with code {completed.returncode}", file=sys.stderr)
            return completed.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--import-only",
        action="store_true",
        help="print the seconds the imports take and exit (the runs time a few for setup_s)",
    )
    args = parser.parse_args(argv)

    _import_program()
    if args.workload == "all":
        return run_all(args)
    import workloads  # noqa: F401 - imports are part of the measured set-up

    import_s = time.perf_counter() - PROCESS_START
    if args.import_only:
        print(import_s)
        return 0
    try:
        result = run_one(args, import_s)
    finally:
        shutil.rmtree(WORK_DIR / str(os.getpid()), ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
