"""Unit and property tests for reservation timelines."""

from hypothesis import given, settings, strategies as st

from repro.memory.timeline import MAX_FREE_INTERVALS, Timeline

INF = float("inf")


class TestBasicReservation:
    def test_empty_timeline_serves_immediately(self):
        t = Timeline()
        assert t.reserve(10.0, 5.0) == 10.0

    def test_busy_timeline_queues(self):
        t = Timeline()
        t.reserve(0.0, 10.0)
        assert t.reserve(0.0, 5.0) == 10.0

    def test_sequential_requests_pipeline(self):
        t = Timeline()
        starts = [t.reserve(0.0, 2.0) for _ in range(5)]
        assert starts == [0.0, 2.0, 4.0, 6.0, 8.0]

    def test_zero_duration_is_free(self):
        t = Timeline()
        assert t.reserve(5.0, 0.0) == 5.0
        assert t.busy_time == 0.0

    def test_busy_time_accumulates(self):
        t = Timeline()
        t.reserve(0.0, 3.0)
        t.reserve(0.0, 4.0)
        assert t.busy_time == 7.0


class TestGapFilling:
    def test_future_reservation_leaves_gap_usable(self):
        t = Timeline()
        # A reservation far in the future must not block earlier time.
        assert t.reserve(100.0, 10.0) == 100.0
        assert t.reserve(0.0, 5.0) == 0.0

    def test_gap_too_small_is_skipped(self):
        t = Timeline()
        t.reserve(4.0, 10.0)  # free gap [0, 4)
        assert t.reserve(0.0, 5.0) == 14.0

    def test_gap_exactly_fits(self):
        t = Timeline()
        t.reserve(5.0, 10.0)  # free gap [0, 5)
        assert t.reserve(0.0, 5.0) == 0.0

    def test_multiple_gaps_first_fit(self):
        t = Timeline()
        t.reserve(10.0, 10.0)  # gap [0,10)
        t.reserve(30.0, 10.0)  # gaps [0,10) [20,30)
        assert t.reserve(0.0, 8.0) == 0.0
        assert t.reserve(0.0, 9.0) == 20.0

    def test_interval_list_is_bounded(self):
        t = Timeline()
        for i in range(200):
            t.reserve(i * 10.0 + 5.0, 1.0)
        assert len(t.free_intervals) <= MAX_FREE_INTERVALS + 1


class TestTailBoundary:
    """Reservations at the edge between the closed gaps and the open tail."""

    def test_at_tail_start_appends_no_gap(self):
        t = Timeline()
        t.reserve(0.0, 5.0)
        assert t.reserve(5.0, 3.0) == 5.0
        assert t.free_intervals == [(8.0, INF)]

    def test_just_below_tail_with_no_fitting_gap_takes_tail(self):
        t = Timeline()
        t.reserve(10.0, 5.0)  # gap [0, 10), tail from 15
        assert t.reserve(14.0, 3.0) == 15.0  # no gap ends after 14
        assert t.reserve(9.0, 2.0) == 18.0  # [9, 11) overruns the gap
        assert t.free_intervals == [(0.0, 10.0), (20.0, INF)]
        assert t.reserve(22.0, 3.0) == 22.0  # gap [20, 22), tail from 25
        # Ends before the last gap does, yet fits neither gap.
        assert t.reserve(8.0, 2.5) == 25.0
        assert t.free_intervals == [(0.0, 10.0), (20.0, 22.0), (27.5, INF)]

    def test_no_zero_length_gap_is_kept(self):
        t = Timeline()
        t.reserve(10.0, 5.0)  # gap [0, 10)
        assert t.reserve(0.0, 4.0) == 0.0  # starts at the gap start
        assert t.reserve(6.0, 4.0) == 6.0  # ends at the gap end
        assert t.free_intervals == [(4.0, 6.0), (15.0, INF)]
        assert t.reserve(4.0, 2.0) == 4.0  # fills the gap exactly
        assert t.free_intervals == [(15.0, INF)]

    def test_overflow_from_tail_appends_alone(self):
        t = Timeline()
        oracle = FirstFitOracle()
        for i in range(MAX_FREE_INTERVALS + 5):
            at = i * 10.0 + 5.0
            assert t.reserve(at, 1.0) == oracle.reserve(at, 1.0) == at
            assert t.free_intervals == oracle.free
        assert oracle.overflowed
        free = t.free_intervals
        assert len(free) == MAX_FREE_INTERVALS
        # The oldest gaps went first; the newest ones survive.
        assert free[-2] == (
            (MAX_FREE_INTERVALS + 3) * 10.0 + 6.0,
            (MAX_FREE_INTERVALS + 4) * 10.0 + 5.0,
        )


class TestUtilization:
    def test_utilization_fraction(self):
        t = Timeline()
        t.reserve(0.0, 25.0)
        assert t.utilization(100.0) == 0.25

    def test_utilization_clamped_to_one(self):
        t = Timeline()
        t.reserve(0.0, 500.0)
        assert t.utilization(100.0) == 1.0

    def test_zero_elapsed(self):
        assert Timeline().utilization(0.0) == 0.0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e5),
            st.floats(min_value=0.1, max_value=50),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_reservations_never_overlap(requests):
    """No two reservations may occupy the same instant."""
    t = Timeline()
    granted: list[tuple[float, float]] = []
    for at, duration in requests:
        start = t.reserve(at, duration)
        assert start >= at
        granted.append((start, start + duration))
    granted.sort()
    for (s1, e1), (s2, e2) in zip(granted, granted[1:]):
        assert e1 <= s2 + 1e-9


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e4),
            st.floats(min_value=0.1, max_value=20),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_busy_time_equals_total_duration(requests):
    t = Timeline()
    for at, duration in requests:
        t.reserve(at, duration)
    assert abs(t.busy_time - sum(d for _, d in requests)) < 1e-6


class FirstFitOracle:
    """Linear first-fit over one list of every free interval: the
    reservation rule ``Timeline.reserve`` implements, without the
    separate tail, its shortcuts or the bisected start."""

    def __init__(self) -> None:
        self.free = [(0.0, float("inf"))]
        self.busy_time = 0.0
        self.overflowed = False

    def reserve(self, at: float, duration: float) -> float:
        if duration <= 0:
            return max(at, 0.0)
        for index, (start, end) in enumerate(self.free):
            begin = max(start, at)
            if begin + duration <= end:
                self.busy_time += duration
                replacement = []
                if start < begin:
                    replacement.append((start, begin))
                if begin + duration < end:
                    replacement.append((begin + duration, end))
                self.free[index : index + 1] = replacement
                if len(self.free) > MAX_FREE_INTERVALS:
                    del self.free[0]
                    self.overflowed = True
                return begin
        raise AssertionError("open-ended timeline should always fit")


@settings(max_examples=200, deadline=None)
@given(
    spread=st.floats(min_value=3.0, max_value=50.0),
    data=st.data(),
)
def test_bisected_reserve_matches_linear_first_fit(spread, data):
    """Keeping the tail apart and skipping the gaps that end before
    ``at`` change nothing: same start times, same busy time, same free
    intervals (gaps and tail) after every reservation, including after
    the list overflows and drops its oldest gaps."""
    t = Timeline()
    oracle = FirstFitOracle()
    # A run of spaced-out reservations first, so every example overflows
    # MAX_FREE_INTERVALS before the random sequence starts.
    for i in range(MAX_FREE_INTERVALS + 4):
        assert t.reserve(spread * (i + 1), 1.0) == oracle.reserve(
            spread * (i + 1), 1.0
        )
    assert oracle.overflowed
    for _ in range(data.draw(st.integers(min_value=1, max_value=120))):
        # Requests aimed at the edges of the current gaps hit the
        # boundary cases of the bisection; free ones cover the rest.
        edges = [x for gap in oracle.free for x in gap if x != float("inf")]
        at = data.draw(st.one_of(
            st.floats(min_value=0, max_value=3000),
            st.integers(min_value=0, max_value=3000).map(float),
            st.tuples(
                st.sampled_from(edges), st.floats(min_value=-2, max_value=2)
            ).map(lambda p: max(0.0, p[0] + p[1])),
        ))
        duration = data.draw(st.one_of(
            st.integers(min_value=0, max_value=12).map(float),
            st.floats(min_value=0.01, max_value=40),
        ))
        assert t.reserve(at, duration) == oracle.reserve(at, duration)
        assert t.busy_time == oracle.busy_time
        assert t.free_intervals == oracle.free
