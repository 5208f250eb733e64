"""Independent checks of the allocation stack's outputs.

Everything here is recomputed from the input model (tasks, buffers,
processors, memories) with the benchmark's own arithmetic.  Nothing goes
through ``repro.dataflow``, ``repro.core.validation`` or the load screens of
``repro.taskgraph.validate``, so a fault in those layers cannot hide a fault
in the solver.

* :func:`check_mapping` / :func:`check_workload_mapping` — resource sums,
  granularity, capacity bounds and, for single-phase graphs, the paper's
  two-actor latency-rate model searched for a cycle with
  ``Σ durations − µ·Σ tokens > 0`` by Bellman-Ford.
* :func:`max_resource_feasible` — the exact verdict for configurations that
  give every processor a single task: the SOCP is feasible iff the two-actor
  model with the largest relaxed budgets and capacities meets the period.
* :func:`producer_consumer_threshold` — the hand-derived minimal period
  ``µ* = (2g + 2ϱχ/(ϱ−g)) / c`` of the producer-consumer graph.
* :func:`load_bound_violated` — the benchmark's own processor-load and
  memory lower bounds, which a load-screen rejection must exceed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Relative slack allowed on resource sums and on the cycle test.
TOLERANCE = 1e-9


def task_cycles(task, processor) -> float:
    """Execution time of one firing of a single-phase ``task`` on ``processor``."""
    base = task.wcet
    if task.cycles_by_type is not None:
        base = dict(task.cycles_by_type)[processor.proc_type]
    return base / processor.speed


def _two_actor_model(graph, platform, budgets, capacities):
    """Durations and ``(source, target, tokens)`` edges of the two-actor model."""
    durations: Dict[Tuple[str, int], float] = {}
    edges: List[Tuple[Tuple[str, int], Tuple[str, int], float]] = []
    for task in graph.tasks:
        processor = platform.processor(task.processor)
        rho = processor.replenishment_interval
        beta = float(budgets[task.name])
        durations[(task.name, 1)] = rho - beta
        durations[(task.name, 2)] = rho * task_cycles(task, processor) / beta
        edges.append(((task.name, 1), (task.name, 2), 0.0))
        edges.append(((task.name, 2), (task.name, 2), 1.0))
    for buffer in graph.buffers:
        tokens = float(capacities[buffer.name]) - buffer.initial_tokens
        edges.append(((buffer.source, 2), (buffer.target, 1), float(buffer.initial_tokens)))
        edges.append(((buffer.target, 2), (buffer.source, 1), tokens))
    return durations, edges


def has_positive_cycle(durations, edges, period: float) -> bool:
    """Bellman-Ford longest-path search for a cycle with ``Σd − µ·Σtokens > 0``.

    An edge ``u → v`` carrying ``δ`` tokens asks ``s(v) ≥ s(u) + d(u) − µ·δ``;
    a periodic schedule with period ``µ`` exists iff no cycle has positive
    total weight.
    """
    scale = max([1.0, period] + [abs(value) for value in durations.values()])
    epsilon = TOLERANCE * scale
    potential = {actor: 0.0 for actor in durations}
    for _ in range(len(potential) + 1):
        changed = False
        for source, target, tokens in edges:
            candidate = potential[source] + durations[source] - period * tokens
            if candidate > potential[target] + epsilon:
                potential[target] = candidate
                changed = True
        if not changed:
            return False
    return True


def period_met(graph, platform, budgets, capacities) -> bool:
    """Whether the two-actor model of a single-phase graph meets its period."""
    durations, edges = _two_actor_model(graph, platform, budgets, capacities)
    return not has_positive_cycle(durations, edges, graph.period)


def _is_single_phase(graph) -> bool:
    return all(task.phases is None or len(task.phases) == 1 for task in graph.tasks) and all(
        buffer.production_rates is None and buffer.consumption_rates is None
        for buffer in graph.buffers
    )


def _capacity_ceiling(buffer, capacity_limits: Mapping[str, int]) -> Optional[int]:
    ceilings = [
        value
        for value in (buffer.max_capacity, capacity_limits.get(buffer.name))
        if value is not None
    ]
    return min(ceilings) if ceilings else None


def _check_values(configuration, budgets, capacities, capacity_limits, where) -> List[str]:
    problems: List[str] = []
    granularity = configuration.granularity
    for graph in configuration.task_graphs:
        for task in graph.tasks:
            budget = budgets.get(task.name)
            if budget is None or budget <= 0.0:
                problems.append(f"{where}task {task.name}: budget {budget!r} is not positive")
                continue
            granules = budget / granularity
            if abs(granules - round(granules)) > 1e-6:
                problems.append(
                    f"{where}task {task.name}: budget {budget} is not a multiple of {granularity}"
                )
        for buffer in graph.buffers:
            capacity = capacities.get(buffer.name)
            if capacity is None or capacity != int(capacity):
                problems.append(f"{where}buffer {buffer.name}: capacity {capacity!r} is not an integer")
                continue
            if capacity < max(1, buffer.initial_tokens):
                problems.append(
                    f"{where}buffer {buffer.name}: capacity {capacity} is below its "
                    f"{buffer.initial_tokens} initial tokens or one container"
                )
            ceiling = _capacity_ceiling(buffer, capacity_limits)
            if ceiling is not None and capacity > ceiling:
                problems.append(
                    f"{where}buffer {buffer.name}: capacity {capacity} exceeds its limit {ceiling}"
                )
    return problems


def _check_periods(configuration, budgets, capacities, where) -> List[str]:
    problems: List[str] = []
    platform = configuration.platform
    for graph in configuration.task_graphs:
        if not _is_single_phase(graph):
            continue
        if not period_met(graph, platform, budgets, capacities):
            problems.append(
                f"{where}graph {graph.name}: the two-actor model misses period {graph.period}"
            )
    return problems


def _check_platform(platform, parts) -> List[str]:
    """Per-processor and per-memory sums over ``(configuration, budgets, capacities)`` parts."""
    problems: List[str] = []
    for name, processor in platform.processors.items():
        total = processor.scheduling_overhead
        for configuration, budgets, _ in parts:
            for graph in configuration.task_graphs:
                total += sum(
                    budgets[task.name] for task in graph.tasks if task.processor == name
                )
        limit = processor.replenishment_interval
        if total > limit * (1.0 + TOLERANCE):
            problems.append(f"processor {name}: budgets plus overhead {total} exceed {limit}")
    for name, memory in platform.memories.items():
        if not memory.is_bounded:
            continue
        usage = 0.0
        for configuration, _, capacities in parts:
            for graph in configuration.task_graphs:
                usage += sum(
                    buffer.container_size * capacities[buffer.name]
                    for buffer in graph.buffers
                    if buffer.memory == name
                )
        if usage > memory.capacity * (1.0 + TOLERANCE):
            problems.append(f"memory {name}: buffers use {usage} of {memory.capacity}")
    return problems


def check_mapping(
    configuration,
    budgets: Mapping[str, float],
    capacities: Mapping[str, int],
    capacity_limits: Optional[Mapping[str, int]] = None,
) -> List[str]:
    """Every problem found with one configuration's rounded budgets and capacities."""
    limits = dict(capacity_limits or {})
    problems = _check_values(configuration, budgets, capacities, limits, "")
    if problems:
        return problems
    problems += _check_platform(configuration.platform, [(configuration, budgets, capacities)])
    return problems + _check_periods(configuration, budgets, capacities, "")


def check_workload_mapping(
    platform, applications: Mapping[str, Tuple[object, Mapping[str, float], Mapping[str, int]]]
) -> List[str]:
    """Problems with a multi-application mapping: per application, then the shared sums.

    ``applications`` maps an application name to ``(configuration, budgets,
    capacities)``; the processor and memory sums run over all of them.
    """
    problems: List[str] = []
    for name, (configuration, budgets, capacities) in applications.items():
        where = f"application {name}: "
        found = _check_values(configuration, budgets, capacities, {}, where)
        problems += found or _check_periods(configuration, budgets, capacities, where)
    if problems:
        return problems
    return _check_platform(platform, list(applications.values()))


def max_resource_feasible(
    configuration, capacity_limits: Optional[Mapping[str, int]] = None
) -> Optional[bool]:
    """Exact feasibility verdict for configurations with one task per processor.

    Every actor duration of the two-actor model falls as a budget grows, and
    every space edge gains tokens as a capacity grows, so the joint program
    is feasible iff the model meets the period at the largest relaxed values:
    ``β = ϱ − o − g`` (the budget row leaves one granule for rounding) and
    ``γ`` at its limit.  Returns ``None`` when the shortcut does not apply
    (shared processors, several phases, or an unbounded buffer).
    """
    limits = dict(capacity_limits or {})
    seen = set()
    for _, task in configuration.all_tasks():
        if task.processor in seen or task.max_budget is not None:
            return None
        seen.add(task.processor)
    platform = configuration.platform
    for graph in configuration.task_graphs:
        if not _is_single_phase(graph):
            return None
        budgets = {}
        for task in graph.tasks:
            processor = platform.processor(task.processor)
            budgets[task.name] = processor.allocatable_capacity - configuration.granularity
            if budgets[task.name] <= 0.0:
                return False
        capacities = {}
        for buffer in graph.buffers:
            ceiling = _capacity_ceiling(buffer, limits)
            if ceiling is None:
                return None
            capacities[buffer.name] = ceiling
        if not period_met(graph, platform, budgets, capacities):
            return False
    return True


def producer_consumer_threshold(
    replenishment_interval: Fraction, wcet: Fraction, granularity: Fraction, capacity: int = 1
) -> Fraction:
    """Smallest feasible period of the producer-consumer graph with capacity ``c``.

    The one cycle through both tasks holds ``c`` tokens and, at the largest
    budgets ``β = ϱ − g``, lasts ``2g + 2ϱχ/(ϱ−g)``; the self-loops ask
    ``µ ≥ ϱχ/(ϱ−g)``.  At ``ϱ = 40``, ``χ = 1``, ``g = 1`` and ``c = 1`` this
    is ``158/39``.
    """
    rho, chi, g = Fraction(replenishment_interval), Fraction(wcet), Fraction(granularity)
    self_loop = rho * chi / (rho - g)
    return max(self_loop, (2 * g + 2 * rho * chi / (rho - g)) / capacity)


def load_bound_violated(platform, configurations: Iterable[object]) -> bool:
    """Whether the applications' minimal demand already exceeds a shared resource.

    A task needs at least ``ϱχ/µ`` budget to meet its own period, plus one
    granule of rounding slack; a buffer needs at least ``max(1, ι)``
    containers.  Single-phase tasks only.
    """
    configurations = list(configurations)
    for name, processor in platform.processors.items():
        demand = processor.scheduling_overhead
        for configuration in configurations:
            for graph, task in configuration.all_tasks():
                if task.processor != name:
                    continue
                minimum = processor.replenishment_interval * task_cycles(task, processor) / graph.period
                if task.min_budget is not None:
                    minimum = max(minimum, task.min_budget)
                demand += minimum + configuration.granularity
        if demand > processor.replenishment_interval * (1.0 + TOLERANCE):
            return True
    for name, memory in platform.memories.items():
        if not memory.is_bounded:
            continue
        storage = sum(
            buffer.container_size * max(1, buffer.initial_tokens, buffer.min_capacity or 1)
            for configuration in configurations
            for _, buffer in configuration.all_buffers()
            if buffer.memory == name
        )
        if storage > memory.capacity * (1.0 + TOLERANCE):
            return True
    return False


def monotone_sweep_problems(points: Sequence[Tuple[int, bool, Optional[float]]]) -> List[str]:
    """Problems along a capacity sweep of ``(limit, feasible, relaxed objective)``.

    Raising a capacity limit only enlarges the feasible set, so once a point
    is feasible every larger limit is, and the relaxed optimum never rises.
    """
    problems: List[str] = []
    ordered = sorted(points, key=lambda point: point[0])
    for (limit_a, feasible_a, objective_a), (limit_b, feasible_b, objective_b) in zip(
        ordered, ordered[1:]
    ):
        if feasible_a and not feasible_b:
            problems.append(f"feasible at limit {limit_a} but infeasible at {limit_b}")
        if feasible_a and feasible_b and objective_b > objective_a + 1e-6 * max(1.0, abs(objective_a)):
            problems.append(
                f"relaxed optimum rises from {objective_a} at limit {limit_a} "
                f"to {objective_b} at {limit_b}"
            )
    return problems
