"""The four perfbench workloads.

Each workload is a closed loop with one client: :meth:`round` hands the
runner one round of operations, and the runner calls them one after the
other, timing each.  Rounds of one workload always hold the same kinds of
operation in the same order; the seed only changes the generated inputs.
An operation returns an outcome dictionary, or raises.  After the timed
phase :meth:`check` judges every outcome with :mod:`checker` and returns the
problems found per operation.

Inputs are built lazily, one round at a time, outside the operation timers.
"""

from __future__ import annotations

import random
import shutil
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

import checker

from repro import (
    AdmissionController,
    AllocatorOptions,
    BatchExecutor,
    CampaignSpec,
    ExecutorConfig,
    InfeasibleProblemError,
    JointAllocator,
    ResultCache,
    Workload,
    aggregate_results,
    homogeneous_platform,
    random_trace,
    random_workload,
)
from repro.taskgraph import generators

Operation = Tuple[str, Callable[[], Dict[str, object]]]

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


def _mapping_parts(mapped) -> Tuple[object, Dict[str, float], Dict[str, int]]:
    return (mapped.configuration, dict(mapped.budgets), dict(mapped.buffer_capacities))


def _workload_parts(mapped) -> Dict[str, Tuple[object, Dict[str, float], Dict[str, int]]]:
    return {name: _mapping_parts(app) for name, app in mapped.applications.items()}


def _solved(outcome: Dict[str, object], solve: Callable[[], object]) -> Dict[str, object]:
    """Fill ``outcome`` with the verdict of ``solve()`` and, when feasible, its mapping."""
    try:
        mapped = solve()
    except InfeasibleProblemError:
        outcome["verdict"] = INFEASIBLE
        return outcome
    outcome.update(
        verdict=FEASIBLE, parts=_mapping_parts(mapped), objective=mapped.objective_value
    )
    return outcome


class DesignSweep:
    """Single allocations and capacity-sweep points over a seeded configuration mix.

    One round: twelve ``JointAllocator.allocate`` calls with full verification
    (producer-consumer on both sides of its hand-derived threshold, chain,
    fork-join, ring, four random DAGs, a CSDF chain and a heterogeneous random
    DAG) and two ``AllocationSession`` capacity sweeps over limits 1..6
    (producer-consumer and a three-stage chain, as in the paper's Figures 2
    and 3) at periods where limit 1 is infeasible and limit 2 is feasible.
    """

    name = "design-sweep"
    SWEEP_LIMITS = (1, 2, 3, 4, 5, 6)
    #: Relative distance of the threshold probes from µ* = 158/39.
    THRESHOLD_MARGIN = 0.02

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.allocator = JointAllocator()
        self.sessions: List[object] = []

    def warm_up(self) -> None:
        # One operation of each code path (SLSQP and CSDF lowering included)
        # loads what the program imports lazily.
        warm = self.round(-1)
        for position in (0, 1, 10, 11, 12):
            warm[position][1]()
        self.sessions.clear()

    def _allocate(self, configuration, expect: str, threshold: Optional[Fraction] = None):
        def run() -> Dict[str, object]:
            outcome = {
                "configuration": configuration,
                "expect": expect,
                "threshold": threshold,
                "limits": {},
            }
            return _solved(outcome, lambda: self.allocator.allocate(configuration))

        return run

    def _sweep(self, label: str, configuration) -> List[Operation]:
        buffers = [buffer.name for _, buffer in configuration.all_buffers()]
        state: Dict[str, object] = {}
        sweep_id = f"{label}:{len(self.sessions)}"
        self.sessions.append(state)

        def point(limit: int):
            def run() -> Dict[str, object]:
                if "session" not in state:
                    state["session"] = self.allocator.session(configuration)
                limits = {name: limit for name in buffers}
                outcome = {
                    "configuration": configuration,
                    "limits": limits,
                    "sweep": sweep_id,
                    "limit": limit,
                    "expect": None,
                }
                return _solved(
                    outcome, lambda: state["session"].allocate(capacity_limits=limits)
                )

            return run

        return [(f"{label}-sweep", point(limit)) for limit in self.SWEEP_LIMITS]

    def round(self, index: int) -> List[Operation]:
        rng = random.Random(f"design-sweep:{self.seed}:{index}")
        threshold = checker.producer_consumer_threshold(40, 1, 1)
        below = float(threshold) * (1.0 - self.THRESHOLD_MARGIN)
        above = float(threshold) * (1.0 + self.THRESHOLD_MARGIN)
        # Between the limit-2 and the limit-1 thresholds, kept 5% away from both.
        limit_two = checker.producer_consumer_threshold(40, 1, 1, capacity=2)
        sweep_period = rng.uniform(float(limit_two) * 1.05, float(threshold) * 0.95)
        wcet = rng.uniform(0.8, 1.2)
        operations: List[Operation] = [
            (
                "producer-consumer",
                self._allocate(
                    generators.producer_consumer_configuration(wcet=wcet), FEASIBLE
                ),
            ),
            (
                "threshold-below",
                self._allocate(
                    generators.producer_consumer_configuration(max_capacity=1, period=below),
                    INFEASIBLE,
                    threshold,
                ),
            ),
            (
                "threshold-above",
                self._allocate(
                    generators.producer_consumer_configuration(max_capacity=1, period=above),
                    FEASIBLE,
                    threshold,
                ),
            ),
            (
                "chain",
                self._allocate(
                    generators.chain_configuration(stages=rng.randint(3, 6), wcet=wcet),
                    FEASIBLE,
                ),
            ),
            (
                "fork-join",
                self._allocate(
                    generators.fork_join_configuration(branches=rng.randint(2, 4), wcet=wcet),
                    FEASIBLE,
                ),
            ),
            (
                "ring",
                self._allocate(
                    generators.ring_configuration(stages=rng.randint(3, 5), wcet=wcet),
                    FEASIBLE,
                ),
            ),
        ]
        # The slowest class: four of the round's 24 operations, well above a
        # tenth, so latency_p90_ms falls inside it rather than on its edge.
        operations += [
            (
                "random-dag",
                self._allocate(
                    generators.random_dag_configuration(
                        task_count=10, processor_count=5, seed=rng.randrange(2**31)
                    ),
                    FEASIBLE,
                ),
            )
            for _ in range(4)
        ]
        operations += [
            (
                "csdf-chain",
                self._allocate(
                    generators.csdf_chain_configuration(
                        stages=3, phases_per_task=rng.randint(2, 3), wcet=wcet
                    ),
                    FEASIBLE,
                ),
            ),
            (
                "heterogeneous",
                self._allocate(
                    generators.heterogeneous_random_configuration(
                        task_count=6, seed=rng.randrange(2**31)
                    ),
                    FEASIBLE,
                ),
            ),
        ]
        operations += self._sweep(
            "producer-consumer",
            generators.producer_consumer_configuration(period=sweep_period),
        )
        operations += self._sweep(
            "chain", generators.chain_configuration(stages=3, period=sweep_period)
        )
        return operations

    def session_stats(self) -> List[object]:
        return [state["session"].stats for state in self.sessions if "session" in state]

    def check(self, outcomes: List[Optional[Dict[str, object]]]) -> Dict[int, List[str]]:
        problems: Dict[int, List[str]] = {}
        sweeps: Dict[str, List[Tuple[int, int, bool, Optional[float]]]] = {}
        for index, outcome in enumerate(outcomes):
            if outcome is None:
                continue
            found: List[str] = []
            configuration = outcome["configuration"]
            verdict = outcome["verdict"]
            if outcome["expect"] is not None and verdict != outcome["expect"]:
                found.append(f"{configuration.name}: {verdict}, expected {outcome['expect']}")
            threshold = outcome.get("threshold")
            if threshold is not None:
                period = configuration.task_graphs[0].period
                predicted = FEASIBLE if period >= threshold else INFEASIBLE
                if verdict != predicted:
                    found.append(
                        f"period {period} against µ* = {threshold}: {verdict}, "
                        f"the threshold predicts {predicted}"
                    )
            exact = checker.max_resource_feasible(configuration, outcome["limits"])
            if exact is not None and exact != (verdict == FEASIBLE):
                found.append(
                    f"{configuration.name} at limits {outcome['limits']}: solver says "
                    f"{verdict}, the largest-resource two-actor model says "
                    f"{FEASIBLE if exact else INFEASIBLE}"
                )
            if verdict == FEASIBLE:
                parts = outcome["parts"]
                found += checker.check_mapping(*parts, capacity_limits=outcome["limits"])
            if "sweep" in outcome:
                sweeps.setdefault(outcome["sweep"], []).append(
                    (index, outcome["limit"], verdict == FEASIBLE, outcome.get("objective"))
                )
            if found:
                problems[index] = found
        for points in sweeps.values():
            for message in checker.monotone_sweep_problems([point[1:] for point in points]):
                problems.setdefault(points[-1][0], []).append(message)
        return problems


class WorkloadJoint:
    """Cold ``allocate_workload`` calls on seeded random workloads.

    One round solves one workload of each size in :data:`SIZES` (random-DAG
    applications of four tasks on three shared processors), verification
    and self-timed simulation on.  No sessions, edits or fallbacks.
    """

    name = "workload-joint"
    SIZES = (32, 64, 128)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.allocator = JointAllocator()

    def warm_up(self) -> None:
        self.allocator.allocate_workload(self._workload(4, "warm-up"))

    def _workload(self, size: int, tag: object) -> Workload:
        derived = random.Random(f"workload-joint:{self.seed}:{tag}:{size}").randrange(2**31)
        return random_workload(application_count=size, seed=derived, granularity=0.05)

    def round(self, index: int) -> List[Operation]:
        operations: List[Operation] = []
        for size in self.SIZES:
            workload = self._workload(size, index)

            def run(workload=workload) -> Dict[str, object]:
                mapped = self.allocator.allocate_workload(workload)
                return {
                    "platform": workload.platform,
                    "applications": _workload_parts(mapped),
                }

            operations.append((f"workload-{size}", run))
        return operations

    def session_stats(self) -> List[object]:
        return []

    def check(self, outcomes: List[Optional[Dict[str, object]]]) -> Dict[int, List[str]]:
        problems: Dict[int, List[str]] = {}
        for index, outcome in enumerate(outcomes):
            if outcome is None:
                continue
            found = checker.check_workload_mapping(outcome["platform"], outcome["applications"])
            if found:
                problems[index] = found
        return problems


ADMIT = "admitted"
LOAD_SCREEN = "load-screen"
SOLVER = "solver"
DEPART = "departed"
IGNORED = "ignored"
#: Every verdict an event may correctly end in.
VERDICTS = (ADMIT, LOAD_SCREEN, SOLVER, DEPART, IGNORED)


class AdmissionTraceWorkload:
    """Arrivals and departures replayed through ``AdmissionController``.

    One round has two parts, each on its own controller.

    *The pattern* runs on four processors (ϱ = 40), where every application
    is a chain of tasks, one per processor, with period 10.  It opens a
    controller over the same :data:`BASE_LIVE` base applications (one cold
    joint solve, outside the operation timers) and replays seventeen events,
    ending on the base set again with 8–11 applications live throughout:

    * six *tight* arrivals (three tasks, every buffer capped at one
      container), which pass the load screen and fit an empty platform but
      cannot meet their period beside the base set — rejected by the solver;
    * three regular arrivals (four tasks, WCETs 0.1–0.2), admitted;
    * five *heavy* arrivals (WCETs 7.5–8.5), whose minimal demand exceeds a
      processor beside the running set — rejected by the load screen;
    * three departures, oldest newcomer first.

    *The trace segment* replays :data:`TRACE` — ``random_trace`` with twelve
    events of random-DAG applications, 1–4 live — event by event on a fresh,
    empty controller.  Its warm solves after departures fail to center at
    the raised warm rung and redo their centering cold (four ``cold-retry``
    spans per replay today); the pattern, with eight applications always
    live, hardly ever takes that path.

    The seed draws the regular and heavy arrivals.  The base set, the tight
    candidate and the trace segment do not depend on it, and every pattern
    starts from the same cold solve: the auto backend re-solves each
    solver-stage rejection with SLSQP, whose iteration count swings between
    7 and over 70 when the WCETs or the warm start move slightly, so tight
    arrivals facing varying states would make ``latency_p90_ms`` (which
    falls among them) unsteady.
    """

    name = "admission-trace"
    BASE_LIVE = 8
    #: The pattern's layout: ``"arrive"``, ``"heavy"``, ``"tight"`` or ``"depart"``.
    PATTERN = (
        "tight", "tight", "tight", "tight", "tight", "tight", "arrive", "heavy",
        "arrive", "heavy", "arrive", "heavy", "heavy", "heavy", "depart", "depart", "depart",
    )
    #: ``random_trace`` arguments of the trace segment.
    TRACE = {"event_count": 12, "seed": 5}
    SESSION_COUNTS = ("compiles", "warm_started", "phase1_skipped")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"admission-trace:{seed}")
        self.platform = homogeneous_platform(processor_count=4, replenishment_interval=40.0)
        self.allocator = JointAllocator(options=AllocatorOptions(run_simulation=False))
        self.arrivals = 0
        self.configurations: Dict[str, object] = {}
        self.base: List[str] = []
        for index in range(self.BASE_LIVE):
            name = self._name("base")
            self.configurations[name] = self._chain(4, index, (0.1, 0.2))
            self.base.append(name)
        self.tight = self._chain(3, 0, (0.1, 0.2), max_capacity=1)
        self.trace = random_trace(**self.TRACE)
        for event in self.trace.events:
            if event.configuration is not None:
                self.configurations[event.application] = event.configuration
        #: Every controller opened, with its session counts when it opened.
        self.controllers: List[Tuple[AdmissionController, Dict[str, int]]] = []

    def _open(self, platform, workload: Optional[Workload] = None) -> AdmissionController:
        controller = AdmissionController(platform, allocator=self.allocator, workload=workload)
        stats = controller.session_stats
        opened = {field: getattr(stats, field, 0) for field in self.SESSION_COUNTS}
        self.controllers.append((controller, opened))
        return controller

    def _name(self, kind: str) -> str:
        self.arrivals += 1
        return f"{kind}{self.arrivals}"

    @staticmethod
    def _chain(tasks: int, seed: int, wcet_range, max_capacity: Optional[int] = None):
        return generators.random_dag_configuration(
            task_count=tasks,
            processor_count=4,
            seed=seed,
            edge_probability=0.0,
            wcet_range=wcet_range,
            max_capacity=max_capacity,
        )

    def _candidate(self, kind: str):
        name = self._name(kind)
        if kind == "tight":
            self.configurations[name] = self.tight
        else:
            wcet_range = (7.5, 8.5) if kind == "heavy" else (0.1, 0.2)
            self.configurations[name] = self._chain(4, self.rng.randrange(2**31), wcet_range)
        return name, self.configurations[name]

    def warm_up(self) -> None:
        # An infeasible single allocation loads the SLSQP fallback path.
        try:
            self.allocator.allocate(
                generators.producer_consumer_configuration(max_capacity=1, period=3.0)
            )
        except InfeasibleProblemError:
            pass

    def _membership(self, controller) -> Dict[str, object]:
        return {name: self.configurations[name] for name in controller.running}

    def _arrival(self, controller, segment: str, expect, name: str, on_admit=None):
        configuration = self.configurations[name]

        def run() -> Dict[str, object]:
            before = self._membership(controller)
            decision = controller.admit(name, configuration)
            verdict = ADMIT if decision.admitted else decision.stage
            outcome: Dict[str, object] = {
                "event": "arrive",
                "segment": segment,
                "platform": controller.platform,
                "expect": expect,
                "verdict": verdict,
                "candidate": (name, configuration),
                "before": before,
            }
            if decision.admitted:
                if on_admit is not None:
                    on_admit(name)
                outcome.update(
                    applications=_workload_parts(controller.mapped),
                    objective=controller.mapped.objective_value,
                )
            return outcome

        return run

    def _departure(self, controller, segment: str, expect, choose: Callable[[], str]):
        def run() -> Dict[str, object]:
            name = choose()
            outcome: Dict[str, object] = {
                "event": "depart",
                "segment": segment,
                "platform": controller.platform,
                "expect": expect,
            }
            if name not in controller.running:
                # A trace may name an application whose arrival was rejected.
                outcome.update(verdict=IGNORED, members=self._membership(controller))
                return outcome
            mapped = controller.depart(name)
            outcome.update(
                verdict=DEPART,
                applications=_workload_parts(mapped),
                objective=mapped.objective_value,
                members=self._membership(controller),
            )
            return outcome

        return run

    def round(self, index: int) -> List[Operation]:
        workload = Workload(self.platform, name="running")
        for name in self.base:
            workload.add_application(name, self.configurations[name])
        controller = self._open(self.platform, workload)
        newcomers: List[str] = []
        operations: List[Operation] = []
        for kind in self.PATTERN:
            if kind == "depart":
                run = self._departure(controller, "pattern", DEPART, lambda: newcomers.pop(0))
            else:
                expect = {"arrive": ADMIT, "heavy": LOAD_SCREEN, "tight": SOLVER}[kind]
                name, _ = self._candidate(kind)
                run = self._arrival(controller, "pattern", expect, name, newcomers.append)
            operations.append((kind, run))

        controller = self._open(self.trace.platform)
        for event in self.trace.events:
            name = event.application
            if event.configuration is None:
                run = self._departure(controller, "trace", None, lambda name=name: name)
            else:
                run = self._arrival(controller, "trace", None, name)
            operations.append((f"trace-{event.action}", run))
        return operations

    def session_stats(self) -> List[object]:
        """Session counts of the events alone, without each controller's opening solve."""
        counts = []
        for controller, opened in self.controllers:
            stats = controller.session_stats
            if stats is not None:
                counts.append(
                    SimpleNamespace(
                        **{field: getattr(stats, field) - opened[field] for field in opened}
                    )
                )
        return counts

    @staticmethod
    def _from_scratch(platform, members: Dict[str, object], backend: str = "auto"):
        workload = Workload(platform, name="from-scratch")
        for name, configuration in members.items():
            workload.add_application(name, configuration)
        options = AllocatorOptions(run_simulation=False, backend=backend)
        return JointAllocator(options=options).allocate_workload(workload)

    def check(self, outcomes: List[Optional[Dict[str, object]]]) -> Dict[int, List[str]]:
        """Judge every event; re-solve some from scratch.

        Pattern events must end in the verdict their kind calls for; trace
        events in any verdict the checks below confirm.  From-scratch
        solves (no session, no warm start) confirm the solver-stage
        rejections, once per distinct set of configurations, and the
        objective after the first admission and the first departure of
        each part of a round, in the first round of the run.  Rejections
        are confirmed with the barrier backend alone: the auto backend's
        SLSQP re-solve of the same infeasible point takes about 13 s from a
        cold start.
        """
        problems: Dict[int, List[str]] = {}
        confirmed: Dict[Tuple[int, ...], bool] = {}
        sampled = set()
        for index, outcome in enumerate(outcomes):
            if outcome is None:
                continue
            found: List[str] = []
            verdict = outcome["verdict"]
            expect = outcome["expect"]
            if verdict not in VERDICTS or (expect is not None and verdict != expect):
                found.append(f"verdict {verdict}, expected {expect or ' or '.join(VERDICTS)}")
            platform = outcome["platform"]
            if "applications" in outcome:
                found += checker.check_workload_mapping(platform, outcome["applications"])
            members = outcome.get("members")
            if outcome["event"] == "arrive":
                members = dict(outcome["before"])
                members[outcome["candidate"][0]] = outcome["candidate"][1]
            if verdict == LOAD_SCREEN and not checker.load_bound_violated(
                platform, members.values()
            ):
                found.append("load-screen rejection not confirmed by the load bound")
            if verdict == SOLVER:
                identity = tuple(sorted(id(configuration) for configuration in members.values()))
                if identity not in confirmed:
                    try:
                        self._from_scratch(platform, members, backend="barrier")
                        confirmed[identity] = False
                    except InfeasibleProblemError:
                        confirmed[identity] = True
                if not confirmed[identity]:
                    found.append("solver rejection, but a from-scratch solve is feasible")
            sample = (outcome["segment"], outcome["event"])
            if verdict in (ADMIT, DEPART) and not found and sample not in sampled:
                sampled.add(sample)
                reference = self._from_scratch(platform, members).objective_value
                if abs(reference - outcome["objective"]) > 1e-6:
                    found.append(
                        f"objective {outcome['objective']} after the event, "
                        f"{reference} from scratch"
                    )
            if found:
                problems[index] = found
        return problems


class BatchCampaign:
    """Small overlapping campaigns on one persistent two-worker ``BatchExecutor``.

    Campaign ``k`` holds two generator entries of four items each: entry
    ``k`` (new, so four cache misses) and entry ``k − 1`` (solved by the
    previous campaign, so four cache hits).  An entry keeps its position in
    every campaign it appears in, so its item labels — and the whole
    deterministic result payload — repeat exactly on a hit.  One operation
    is expansion, the executor run and aggregation of one campaign.
    """

    name = "batch-campaign"
    WORKERS = 2
    ENTRY_ITEMS = 4
    GENERATORS = (
        "chain", "producer_consumer", "fork_join", "ring",
        "random_dag", "csdf_chain", "heterogeneous_random",
    )

    def __init__(self, seed: int, work_dir: Path, telemetry: bool = False) -> None:
        self.seed = seed
        self.work_dir = work_dir
        if work_dir.exists():
            shutil.rmtree(work_dir)
        work_dir.mkdir(parents=True)
        self.executor = BatchExecutor(
            ExecutorConfig(workers=self.WORKERS, telemetry=telemetry),
            cache=ResultCache(work_dir / "cache"),
        )
        self.first_solves: Dict[str, Dict[str, object]] = {}

    def _entry(self, index: int) -> Dict[str, object]:
        rng = random.Random(f"batch-campaign:{self.seed}:{index}")
        generator = self.GENERATORS[index % len(self.GENERATORS)]
        if generator in ("random_dag", "heterogeneous_random"):
            params = {"task_count": 6}
            if generator == "random_dag":
                params["processor_count"] = 3
            axis = {"seed": [rng.randrange(2**31) for _ in range(self.ENTRY_ITEMS)]}
        elif generator == "producer_consumer":
            params = {}
            axis = {"period": [round(rng.uniform(6.0, 12.0), 9) for _ in range(self.ENTRY_ITEMS)]}
        else:
            params = {"ring": {"stages": 3}, "csdf_chain": {"stages": 3}}.get(generator, {})
            axis = {"wcet": [round(rng.uniform(0.5, 1.5), 9) for _ in range(self.ENTRY_ITEMS)]}
        return {"generator": generator, "params": params, "sweep": axis}

    def _campaign(self, index: int) -> Dict[str, object]:
        # Entry j sits at position j % 2 in both campaigns that hold it.
        entries = [self._entry(index), self._entry(index - 1)]
        if index % 2:
            entries.reverse()
        return {"name": f"campaign-{index}", "seed": self.seed, "entries": entries}

    def warm_up(self) -> None:
        # Starts the worker pool and solves the entry campaign 0 overlaps;
        # checking it records the first solves later cache hits must equal.
        problems = self.check([self._run(self._campaign(-1), expected_hits=0)])
        if problems:
            raise RuntimeError(f"the warm-up campaign failed its checks: {problems}")

    def _run(self, document: Dict[str, object], expected_hits: int) -> Dict[str, object]:
        spec = CampaignSpec.from_dict(document)
        items = spec.expand()
        results = self.executor.run(items)
        summary = aggregate_results(spec.name, results)
        return {
            "items": items,
            "results": results,
            "summary": summary,
            "expected_hits": expected_hits,
        }

    def round(self, index: int) -> List[Operation]:
        document = self._campaign(index)
        return [("campaign", lambda: self._run(document, expected_hits=self.ENTRY_ITEMS))]

    def session_stats(self) -> List[object]:
        return []

    def close(self) -> None:
        self.executor.close()
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def check(self, outcomes: List[Optional[Dict[str, object]]]) -> Dict[int, List[str]]:
        problems: Dict[int, List[str]] = {}
        for index, outcome in enumerate(outcomes):
            if outcome is None:
                continue
            found: List[str] = []
            hits = 0
            for item, result in zip(outcome["items"], outcome["results"]):
                if result.status != "ok":
                    found.append(f"{item.label}: status {result.status} ({result.error})")
                    continue
                found += [
                    f"{item.label}: {message}"
                    for message in checker.check_mapping(
                        item.configuration, result.budgets, result.buffer_capacities
                    )
                ]
                payload = result.deterministic_dict()
                first = self.first_solves.get(result.key)
                if result.from_cache:
                    hits += 1
                    if first is not None and first != payload:
                        found.append(f"{item.label}: cache hit differs from its first solve")
                elif first is None:
                    self.first_solves[result.key] = payload
            if hits != outcome["expected_hits"]:
                found.append(
                    f"{hits} cache hits among {len(outcome['items'])} items, "
                    f"expected {outcome['expected_hits']}"
                )
            if found:
                problems[index] = found
        return problems
