"""Per-layer measurement for the traced perfbench run.

Times come from the benchmark's own timers, wrapped around the public entry
points of each layer (:data:`ENTRY_POINTS`).  A timer charges the time of
the outermost call into its layer, callees in other layers included, so the
layers overlap: ``verify`` contains the MCR and simulation calls it makes.
Counts come from what the program already reports — the ``repro.obs``
spans and metrics recorded inside ``repro.obs.capture()``, ``SessionStats``
and the batch ``ItemResult`` fields.

A metric whose source the program no longer has (an entry point that is
gone, or a span or histogram never recorded on a workload the metric is
meant for) is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

#: Layer name → ``(module, attribute path)`` entry points timed in the traced run.
ENTRY_POINTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "taskgraph.validate": (
        ("repro.taskgraph.configuration", "Configuration.validate"),
        ("repro.taskgraph.workload", "Workload.validate"),
    ),
    "dataflow.lowering": (
        ("repro.dataflow.construction", "build_srdf_specification"),
        ("repro.dataflow.construction", "instantiate_srdf"),
    ),
    "dataflow.mcr": (
        ("repro.dataflow.mcr", "maximum_cycle_ratio"),
        ("repro.dataflow.mcr", "is_period_feasible"),
    ),
    "dataflow.simulation": (("repro.dataflow.simulation", "simulate"),),
    "formulation.build": (
        ("repro.core.formulation", "FormulationBlock.__init__"),
        ("repro.core.formulation", "SocpFormulation.build"),
        ("repro.core.formulation", "WorkloadSocpFormulation.build"),
    ),
    "solver.compile": (("repro.solver.problem", "ConeProgram.compile"),),
    "solver.fallback": (("repro.solver.scipy_backend", "solve_with_scipy"),),
    "session.edit": (
        ("repro.core.allocator", "WorkloadSession.add_application"),
        ("repro.core.allocator", "WorkloadSession.remove_application"),
    ),
    "verify": (
        ("repro.core.rounding", "round_budgets"),
        ("repro.core.rounding", "round_capacities"),
        ("repro.core.validation", "verify_mapping"),
        ("repro.core.allocator", "JointAllocator.verify_workload"),
    ),
    "admission.anytime_verdict": (
        ("repro.core.admission", "AdmissionController.anytime_verdict"),
    ),
    "batch.expand": (("repro.batch.campaign", "CampaignSpec.expand"),),
    "batch.cache_get": (("repro.batch.cache", "ResultCache.get"),),
    "batch.cache_put": (("repro.batch.cache", "ResultCache.put"),),
    "batch.run": (("repro.batch.executor", "BatchExecutor.run"),),
}


class LayerTimers:
    """Wraps layer entry points with timers; :meth:`restore` undoes every patch."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.missing: List[str] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[object, str, Optional[object]]] = []
        self._paused = False

    def install(self) -> None:
        for layer, entry_points in ENTRY_POINTS.items():
            for module_name, path in entry_points:
                try:
                    self._wrap(layer, importlib.import_module(module_name), path)
                except (ImportError, AttributeError):
                    if layer not in self.missing:
                        self.missing.append(layer)

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches.clear()

    @contextmanager
    def paused(self):
        """Charge nothing to any layer, and record no telemetry, inside the block."""
        from repro import obs

        recording = obs.enabled()
        self._paused = True
        obs.configure(enabled=False)
        try:
            yield
        finally:
            obs.configure(enabled=recording)
            self._paused = False

    def _timed(self, layer: str, original):
        def timed(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            self._depth[layer] += 1
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._depth[layer] -= 1
                if not self._depth[layer]:
                    self.seconds[layer] += time.perf_counter() - start
                    self.calls[layer] += 1

        timed.__wrapped__ = original
        return timed

    def _wrap(self, layer: str, module, path: str) -> None:
        owner_name, _, attribute = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = getattr(owner, attribute)
            # ``None`` marks an inherited method: restoring deletes the override.
            self._patches.append((owner, attribute, owner.__dict__.get(attribute)))
            setattr(owner, attribute, self._timed(layer, original))
            return
        # A module-level function: rebind it in every repro module that
        # imported it by name, so callers see the timed version.
        original = getattr(module, attribute)
        timed = self._timed(layer, original)
        for name, other in list(sys.modules.items()):
            if not name.startswith("repro") or other is None:
                continue
            if getattr(other, attribute, None) is original:
                self._patches.append((other, attribute, original))
                setattr(other, attribute, timed)


def _walk(spans: Iterable[Mapping[str, object]]):
    for span in spans:
        yield span
        yield from _walk(span.get("children", ()))


class SpanTotals:
    """Count and total seconds per span name over a set of span trees."""

    def __init__(self, spans: Iterable[Mapping[str, object]]) -> None:
        self.count: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        for span in _walk(spans):
            self.count[str(span["name"])] += 1
            self.seconds[str(span["name"])] += float(span.get("seconds", 0.0))


def merged_totals(snapshots: Iterable[Mapping[str, Mapping[str, object]]]) -> Dict[str, float]:
    """Counter values and histogram sums by name, added over metric snapshots."""
    totals: Dict[str, float] = defaultdict(float)
    for snapshot in snapshots:
        for name, data in snapshot.items():
            if data.get("type") == "histogram":
                totals[name] += float(data.get("sum") or 0.0)
            elif data.get("type") == "counter":
                totals[name] += float(data.get("value") or 0.0)
    return totals


#: Per-layer metrics: name → unit.  The order is the table's order.
METRICS: Dict[str, str] = {
    "taskgraph.validate_ms": "ms",
    "dataflow.lowering_ms": "ms",
    "dataflow.mcr_ms": "ms",
    "dataflow.simulation_ms": "ms",
    "formulation.build_ms": "ms",
    "solver.compile_ms": "ms",
    "solver.newton_iterations": "count",
    "solver.phase1_newton_iterations": "count",
    "solver.rungs": "count",
    "solver.phase1_ms": "ms",
    "solver.centering_ms": "ms",
    "solver.newton_step_us": "us",
    "solver.factorization_ms": "ms",
    "solver.schur_ms": "ms",
    "solver.fallbacks": "count",
    "solver.fallback_ms": "ms",
    "session.edit_ms": "ms",
    "session.phase1_skip_ratio": "ratio",
    "solver.cold_retries": "count",
    "session.compiles": "count",
    "verify_ms": "ms",
    "admission.anytime_verdict_ms": "ms",
    "admission.admits": "count",
    "admission.load_screen_rejects": "count",
    "admission.solver_rejects": "count",
    "reliability.retries": "count",
    "batch.expand_ms": "ms",
    "batch.cache_get_ms": "ms",
    "batch.cache_put_ms": "ms",
    "batch.cache_hits": "count",
    "batch.worker_solve_ms": "ms",
    "batch.dispatch_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Metrics read from obs spans or histograms: ``(kind, source name, workloads)``.
#: On the named workloads a missing source means the program no longer
#: reports it; elsewhere the layer is simply not exercised and reads 0.
_SOLVING = ("design-sweep", "workload-joint", "admission-trace")
_OBS_SOURCES: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "solver.newton_iterations": ("histogram", "solver.newton_iterations", _SOLVING),
    "solver.phase1_newton_iterations": ("histogram", "solver.phase1_newton_iterations", _SOLVING),
    "solver.rungs": ("span", "rung", _SOLVING),
    "solver.phase1_ms": ("span", "phase1", ("design-sweep", "workload-joint")),
    "solver.centering_ms": ("span", "centering", ("design-sweep", "workload-joint")),
    "solver.factorization_ms": ("histogram", "solver.factorization_seconds", ("workload-joint",)),
    "solver.schur_ms": ("histogram", "solver.schur_seconds", ("workload-joint",)),
}
_TIMED = {
    "taskgraph.validate_ms": "taskgraph.validate",
    "dataflow.lowering_ms": "dataflow.lowering",
    "dataflow.mcr_ms": "dataflow.mcr",
    "dataflow.simulation_ms": "dataflow.simulation",
    "formulation.build_ms": "formulation.build",
    "solver.compile_ms": "solver.compile",
    "solver.fallback_ms": "solver.fallback",
    "session.edit_ms": "session.edit",
    "verify_ms": "verify",
    "admission.anytime_verdict_ms": "admission.anytime_verdict",
    "batch.expand_ms": "batch.expand",
    "batch.cache_get_ms": "batch.cache_get",
    "batch.cache_put_ms": "batch.cache_put",
}


def layer_metrics(
    workload: str,
    operations: int,
    timers: LayerTimers,
    spans: List[Mapping[str, object]],
    snapshots: List[Mapping[str, Mapping[str, object]]],
    session_stats: List[object],
    verdicts: Mapping[str, int],
    batch: Optional[Mapping[str, float]],
    ops_per_s: Tuple[float, float],
) -> Tuple[Dict[str, Optional[float]], Dict[str, str]]:
    """Every per-layer metric (``None`` when absent) and the bases of the ratios."""
    values: Dict[str, Optional[float]] = {}
    notes: Dict[str, str] = {}
    per_op = 1.0 / max(1, operations)
    span_totals = SpanTotals(spans)
    totals = merged_totals(snapshots)

    for metric, layer in _TIMED.items():
        values[metric] = None if layer in timers.missing else timers.seconds[layer] * 1e3 * per_op
    values["solver.fallbacks"] = (
        None if "solver.fallback" in timers.missing else float(timers.calls["solver.fallback"])
    )
    notes["solver.fallbacks"] = "per run"

    for metric, (kind, source, owners) in _OBS_SOURCES.items():
        seen = source in (span_totals.count if kind == "span" else totals)
        if not seen and workload in owners:
            values[metric] = None
            continue
        if metric == "solver.rungs":
            values[metric] = span_totals.count[source] * per_op
        elif metric in ("solver.phase1_ms", "solver.centering_ms"):
            values[metric] = span_totals.seconds[source] * 1e3 * per_op
        elif metric in ("solver.factorization_ms", "solver.schur_ms"):
            values[metric] = totals[source] * 1e3 * per_op
        else:
            values[metric] = totals[source] * per_op
    newton = totals["solver.newton_iterations"] + totals["solver.phase1_newton_iterations"]
    if values["solver.phase1_ms"] is None or values["solver.centering_ms"] is None:
        values["solver.newton_step_us"] = None
    else:
        step_seconds = span_totals.seconds["phase1"] + span_totals.seconds["centering"]
        values["solver.newton_step_us"] = step_seconds * 1e6 / newton if newton else 0.0
        notes["solver.newton_step_us"] = (
            f"{step_seconds * 1e3:.1f} ms phase I + centering over {newton:.0f} Newton iterations"
        )
    values["solver.cold_retries"] = span_totals.count["cold-retry"] * per_op

    try:
        warm = sum(stats.warm_started for stats in session_stats)
        skipped = sum(stats.phase1_skipped for stats in session_stats)
        compiles = sum(stats.compiles for stats in session_stats)
    except AttributeError:
        values["session.phase1_skip_ratio"] = values["session.compiles"] = None
    else:
        values["session.phase1_skip_ratio"] = skipped / warm if warm else 0.0
        notes["session.phase1_skip_ratio"] = f"{skipped} phase-I skips / {warm} warm solves"
        values["session.compiles"] = compiles * per_op

    values["admission.admits"] = verdicts.get("admitted", 0) * per_op
    values["admission.load_screen_rejects"] = verdicts.get("load-screen", 0) * per_op
    values["admission.solver_rejects"] = verdicts.get("solver", 0) * per_op
    values["reliability.retries"] = totals["reliability.retries"] * per_op

    batch = batch or {}
    workers = batch.get("workers", 1.0)
    worker_solve = batch.get("worker_solve_s", 0.0)
    run_seconds = timers.seconds["batch.run"]
    values["batch.cache_hits"] = batch.get("cache_hits", 0.0) * per_op
    values["batch.worker_solve_ms"] = worker_solve * 1e3 * per_op
    values["batch.dispatch_ms"] = (
        None
        if "batch.run" in timers.missing
        else max(0.0, run_seconds - worker_solve / workers) * 1e3 * per_op
    )
    if batch:
        notes["batch.dispatch_ms"] = (
            f"{run_seconds:.3f} s in executor runs - {worker_solve:.3f} s worker solves / "
            f"{workers:.0f} workers"
        )

    untraced, traced = ops_per_s
    values["trace.overhead_pct"] = (untraced - traced) / untraced * 100.0 if untraced else 0.0
    notes["trace.overhead_pct"] = f"{traced:.3f} ops/s traced vs {untraced:.3f} ops/s untraced"
    return {name: values.get(name) for name in METRICS}, notes
