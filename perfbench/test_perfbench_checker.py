"""Tests of the perfbench checker: it must catch each seeded corruption.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checker  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

from repro import JointAllocator, Workload, homogeneous_platform  # noqa: E402
from repro.taskgraph import generators  # noqa: E402

THRESHOLD = Fraction(158, 39)


def test_threshold_is_158_over_39():
    assert checker.producer_consumer_threshold(40, 1, 1) == THRESHOLD
    assert checker.producer_consumer_threshold(40, 1, 1, capacity=2) == THRESHOLD / 2


def test_largest_resource_verdict_brackets_the_threshold():
    def verdict(period):
        configuration = generators.producer_consumer_configuration(max_capacity=1, period=period)
        return checker.max_resource_feasible(configuration)

    assert verdict(float(THRESHOLD) * (1 - 1e-6)) is False
    assert verdict(float(THRESHOLD) * (1 + 1e-6)) is True
    unbounded = generators.producer_consumer_configuration()
    assert checker.max_resource_feasible(unbounded) is None


def test_bellman_ford_finds_a_positive_cycle():
    durations = {"a": 3.0, "b": 2.0}
    edges = [("a", "b", 0.0), ("b", "a", 1.0)]
    assert checker.has_positive_cycle(durations, edges, period=4.9)
    assert not checker.has_positive_cycle(durations, edges, period=5.0)


def test_solved_mapping_passes_and_a_shaved_budget_is_caught():
    configuration = generators.producer_consumer_configuration()
    mapped = JointAllocator().allocate(configuration)
    budgets = dict(mapped.budgets)
    capacities = dict(mapped.buffer_capacities)
    assert checker.check_mapping(configuration, budgets, capacities) == []
    for task in budgets:
        shaved = dict(budgets, **{task: budgets[task] - configuration.granularity})
        problems = checker.check_mapping(configuration, shaved, capacities)
        assert any("misses period" in problem or "not positive" in problem for problem in problems)


def test_off_granularity_budget_and_out_of_range_capacity_are_caught():
    configuration = generators.producer_consumer_configuration(max_capacity=3)
    problems = checker.check_mapping(configuration, {"wa": 30.5, "wb": 30.0}, {"bab": 4})
    assert any("multiple" in problem for problem in problems)
    assert any("exceeds its limit" in problem for problem in problems)


def test_over_full_memory_is_caught():
    configuration = generators.producer_consumer_configuration(memory_capacity=3.0)
    problems = checker.check_mapping(configuration, {"wa": 30.0, "wb": 30.0}, {"bab": 4})
    assert any(problem.startswith("memory m1") for problem in problems)
    assert checker.check_mapping(configuration, {"wa": 30.0, "wb": 30.0}, {"bab": 3}) == []


def test_over_full_shared_processor_is_caught():
    platform = homogeneous_platform(processor_count=2, replenishment_interval=40.0)
    first = generators.producer_consumer_configuration()
    second = generators.producer_consumer_configuration()
    applications = {
        "a": (first, {"wa": 25.0, "wb": 25.0}, {"bab": 10}),
        "b": (second, {"wa": 20.0, "wb": 10.0}, {"bab": 10}),
    }
    problems = checker.check_workload_mapping(platform, applications)
    assert problems == ["processor p1: budgets plus overhead 45.0 exceed 40.0"]


def test_wrong_infeasible_verdict_is_caught():
    sweep = workloads.DesignSweep(seed=1)
    feasible = generators.producer_consumer_configuration(
        max_capacity=1, period=float(THRESHOLD) * 1.02
    )
    outcome = {
        "configuration": feasible,
        "expect": workloads.FEASIBLE,
        "threshold": THRESHOLD,
        "limits": {},
        "verdict": workloads.INFEASIBLE,
    }
    problems = sweep.check([outcome])[0]
    assert any("threshold predicts feasible" in problem for problem in problems)
    assert any("largest-resource two-actor model says feasible" in problem for problem in problems)


def test_non_monotone_sweep_is_caught():
    assert checker.monotone_sweep_problems([(1, False, None), (2, True, 5.0), (3, True, 4.0)]) == []
    assert checker.monotone_sweep_problems([(1, True, 5.0), (2, False, None)])
    assert checker.monotone_sweep_problems([(1, True, 5.0), (2, True, 6.0)])


def test_unconfirmed_load_screen_rejection_is_caught():
    platform = homogeneous_platform(processor_count=2, replenishment_interval=40.0)
    light = generators.producer_consumer_configuration()
    heavy = generators.producer_consumer_configuration(wcet=9.0)
    assert not checker.load_bound_violated(platform, [light, light])
    assert checker.load_bound_violated(platform, [heavy, light])


def test_layer_timers_restore_every_entry_point():
    from repro.core import allocator, formulation, validation

    original_verify = validation.verify_mapping
    timers = layers.LayerTimers()
    timers.install()
    try:
        assert allocator.verify_mapping is not original_verify
        workload = Workload(homogeneous_platform(2, 40.0), name="pair")
        workload.add_application("pc", generators.producer_consumer_configuration())
        JointAllocator().allocate_workload(workload)
    finally:
        timers.restore()
    assert timers.missing == []
    assert timers.calls["verify"] >= 1 and timers.calls["formulation.build"] >= 1
    assert allocator.verify_mapping is original_verify
    assert "build" not in vars(formulation.SocpFormulation)
