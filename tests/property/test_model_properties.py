"""Property-based tests on the pipeline scheduler and the sort models."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hardware.pipeline_sim import _schedule
from repro.sorting.bitonic import bitonic_comparator_count, bitonic_depth
from repro.sorting.quicksort import counting_quicksort


@st.composite
def unit_lists(draw):
    n = draw(st.integers(1, 20))
    return [
        [
            draw(st.floats(0.0, 1000.0)),
            draw(st.floats(0.0, 1000.0)),
            draw(st.floats(0.0, 1000.0)),
        ]
        for _ in range(n)
    ]


def _drain_bounds(units, cores):
    """``(floor, ceiling)`` no schedule of ``units`` on ``cores`` can leave.

    Ceiling: fully serial execution of everything.  Floors: the shared
    DRAM channel, the per-core sort and rm stages at perfect balance,
    and the single largest unit's critical path.
    """
    ceiling = sum(sum(u) for u in units)
    floor = max(
        sum(u[0] for u in units),
        sum(u[1] for u in units) / cores,
        sum(u[2] for u in units) / cores,
        max(sum(u) for u in units),
    )
    return floor, ceiling


#: Hypothesis's counterexample to "more cores are never slower" (1309
#: cycles on 8 cores, 1308 on 2): greedy in-order dispatch onto one DRAM
#: channel is a list scheduler, and list schedulers have Graham anomalies
#: — by dispatched work the least-loaded of 8 cores for the 1-cycle sort
#: is the one still behind the 982-cycle fetch, so it queues there; with
#: 2 cores it lands on the other core.
_GRAHAM_ANOMALY = [
    [0.0, 0.0, 327.0],
    [0.0, 0.0, 327.0],
    [0.0, 0.0, 327.0],
    [0.0, 1.0, 0.0],
    [982.0, 326.0, 0.0],
    [0.0, 0.0, 329.0],
    [0.0, 0.0, 0.0],
    [0.0, 0.0, 327.0],
    [0.0, 0.0, 327.0],
    [0.0, 0.0, 327.0],
]


class TestSchedulerProperties:
    @given(unit_lists(), st.integers(1, 8))
    @settings(max_examples=100)
    def test_bounded_by_sum_and_stage_busy(self, units, cores):
        total = _schedule(units, cores)
        floor, ceiling = _drain_bounds(units, cores)
        assert floor - 1e-6 <= total <= ceiling + 1e-6

    @given(unit_lists())
    @example(_GRAHAM_ANOMALY)
    @settings(max_examples=100)
    def test_more_cores_at_most_five_times_slower(self, units):
        # What the dispatcher does guarantee.  Any core count drains
        # within the serial ceiling F + S + R, and two cores need at
        # least max(F, S/2, R/2): so 8 cores <= F + S + R <= 5x 2 cores.
        few = _schedule(units, 2)
        many = _schedule(units, 8)
        floor_few, ceiling = _drain_bounds(units, 2)
        floor_many, _ = _drain_bounds(units, 8)
        assert floor_many <= floor_few
        assert floor_many - 1e-6 <= many <= ceiling + 1e-6
        assert floor_few - 1e-6 <= few
        assert many <= 5.0 * few + 1e-6


class TestSortingProperties:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_quicksort_always_sorted_permutation(self, values):
        keys = np.asarray(values, dtype=np.float64)
        result = counting_quicksort(keys)
        assert sorted(result.order.tolist()) == list(range(len(values)))
        out = keys[result.order]
        assert np.all(out[:-1] <= out[1:]) if len(values) > 1 else True

    @given(st.integers(1, 4096))
    @settings(max_examples=200)
    def test_bitonic_work_at_least_depth(self, n):
        if n == 1:
            assert bitonic_comparator_count(n) == 0
        else:
            assert bitonic_comparator_count(n) >= bitonic_depth(n)
