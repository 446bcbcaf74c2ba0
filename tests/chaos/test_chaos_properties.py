"""Property-based chaos: hypothesis generates random fault plans and the
pipeline must survive every one of them.

The invariants checked after every generated run:

* the workload completes (every read is accounted as a hit or a miss);
* no segment is lost — total bytes read equals the workload demand;
* the exclusive-cache invariant holds (each segment in at most one tier);
* failed tiers hold no residents;
* every run is replayable — the same ``(seed, plan)`` yields the same
  fault log fingerprint.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.faults import FaultKind, FaultPlan, FaultSpec

from .conftest import assert_no_lost_segments, hfetch_config, run_hfetch

# Generated fault times land inside a typical small-cluster makespan
# (~0.4s simulated); open-ended outages are exercised via duration=None.
TIMES = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
DURATIONS = st.one_of(
    st.none(), st.floats(min_value=0.01, max_value=0.3, allow_nan=False)
)
PROBS = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)
CACHE_TIERS = st.sampled_from(["RAM", "NVMe", "BurstBuffer"])


@st.composite
def fault_specs(draw):
    kind = draw(st.sampled_from(list(FaultKind)))
    duration = draw(DURATIONS)
    window = {"at": draw(TIMES)}
    if duration is not None:
        window["duration"] = duration
    if kind is FaultKind.TIER_OUTAGE:
        return FaultSpec(kind, target=draw(CACHE_TIERS), **window)
    if kind is FaultKind.DEVICE_SLOWDOWN:
        return FaultSpec(
            kind,
            target=draw(CACHE_TIERS),
            factor=draw(st.floats(min_value=1.5, max_value=16.0)),
            **window,
        )
    if kind is FaultKind.SHARD_OUTAGE:
        return FaultSpec(kind, target=draw(st.integers(min_value=0, max_value=3)), **window)
    if kind is FaultKind.PREFETCH_IO_ERROR:
        return FaultSpec(
            kind,
            probability=draw(PROBS),
            target=draw(st.one_of(st.none(), CACHE_TIERS)),
            **window,
        )
    # event drop / duplicate / reorder
    return FaultSpec(kind, probability=draw(PROBS), **window)


@st.composite
def fault_plans(draw):
    specs = tuple(draw(st.lists(fault_specs(), min_size=1, max_size=3)))
    return FaultPlan(specs=specs, seed=draw(st.integers(min_value=0, max_value=2**31)))


class TestChaosProperties:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(plan=fault_plans())
    # a slowdown landing on an already-failed tier once crashed the injector
    @example(
        plan=FaultPlan(
            specs=(
                FaultSpec(FaultKind.TIER_OUTAGE, at=0.0, target="RAM"),
                FaultSpec(FaultKind.DEVICE_SLOWDOWN, at=0.0, target="RAM", factor=2.0),
            ),
            seed=0,
        )
    )
    def test_any_plan_completes_without_losing_segments(self, plan):
        runner, result = run_hfetch(
            fault_plan=plan, config=hfetch_config(dhm_wal=True)
        )
        assert_no_lost_segments(runner, result)
        # failed tiers must be empty; surviving tiers keep the ledger honest
        for tier in runner.ctx.hierarchy.tiers:
            if not tier.available:
                assert tier.resident_count == 0
        # every *injected* fault shows up in the result's fault budget;
        # consequence counters (prefetch_retry / prefetch_error) are extra
        injection_kinds = {k.value for k in FaultKind}
        injected = sum(n for k, n in result.faults.items() if k in injection_kinds)
        assert injected == len(runner.injector.log)

    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(plan=fault_plans())
    def test_any_plan_is_replayable(self, plan):
        runner_a, result_a = run_hfetch(fault_plan=plan)
        runner_b, result_b = run_hfetch(fault_plan=plan)
        assert runner_a.injector.log == runner_b.injector.log
        assert result_a.row() == result_b.row()
        assert result_a.faults == result_b.faults
