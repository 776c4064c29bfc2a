"""Unit tests for the bounded time-series store (scrape storage)."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.timeseries import TimeSeries, TimeSeriesStore, canonical_labels


def window_oracle(series, start, end=None):
    """The full-retention scan ``TimeSeries.window`` must agree with."""
    return [(t, v) for t, v in series.samples
            if v is not None and t >= start and (end is None or t <= end)]


class _CountingDeque(deque):
    """A sample buffer that counts the samples a reader examines."""

    examined = 0

    def __iter__(self):
        for sample in super().__iter__():
            self.examined += 1
            yield sample

    def __reversed__(self):
        for sample in super().__reversed__():
            self.examined += 1
            yield sample


class TestTimeSeries:
    def test_add_and_values(self):
        series = TimeSeries("up")
        series.add(1.0, 1.0)
        series.add(2.0, 0.0)
        assert series.values() == [1.0, 0.0]
        assert series.latest() == (2.0, 0.0)

    def test_retention_trims_old_samples(self):
        series = TimeSeries("up", retention=10.0)
        series.add(0.0, 1.0)
        series.add(5.0, 2.0)
        series.add(20.0, 3.0)  # cutoff = 10: drops both earlier samples
        assert series.values() == [3.0]

    def test_max_samples_ring_buffer(self):
        series = TimeSeries("up", max_samples=3)
        for i in range(10):
            series.add(float(i), float(i))
        assert len(series) == 3
        assert series.values() == [7.0, 8.0, 9.0]

    def test_staleness_marker_terminates_series(self):
        series = TimeSeries("up")
        series.add(1.0, 1.0)
        series.mark_stale(2.0)
        assert series.latest_value() is None
        # Markers are invisible to history readers.
        assert series.values() == [1.0]
        assert series.window(0.0, 10.0) == [(1.0, 1.0)]

    def test_mark_stale_is_idempotent(self):
        series = TimeSeries("up")
        series.add(1.0, 1.0)
        series.mark_stale(2.0)
        series.mark_stale(3.0)
        assert len(series) == 2  # one real sample + one marker

    def test_latest_value_staleness_window(self):
        series = TimeSeries("up")
        series.add(1.0, 1.0)
        assert series.latest_value(now=2.0, staleness=5.0) == 1.0
        assert series.latest_value(now=10.0, staleness=5.0) is None

    def test_fresh_sample_after_marker_revives(self):
        series = TimeSeries("up")
        series.add(1.0, 0.0)
        series.mark_stale(2.0)
        series.add(3.0, 1.0)
        assert series.latest_value() == 1.0

    def test_window_bounds(self):
        series = TimeSeries("x")
        for t in (1.0, 2.0, 3.0, 4.0):
            series.add(t, t * 10)
        assert series.window(2.0, 3.0) == [(2.0, 20.0), (3.0, 30.0)]

    def test_out_of_order_add_raises(self):
        series = TimeSeries("up", labels={"component": "api"})
        series.add(2.0, 1.0)
        series.add(2.0, 0.0)  # equal times are legal: one tick, two writers
        with pytest.raises(ValueError, match="up{component=api}"):
            series.add(1.5, 1.0)
        with pytest.raises(ValueError):
            series.mark_stale(1.0)
        assert series.samples[-1] == (2.0, 0.0)

    def test_window_costs_the_window(self):
        # A 600 s retention scraped every 0.5 s: 1,200 samples, of
        # which an 8 s window holds 17.
        series = TimeSeries("c", retention=600.0)
        series._samples = _CountingDeque(maxlen=series.samples.maxlen)
        for i in range(1, 1201):
            series.add(i * 0.5, float(i))
        assert len(series) == 1200
        now = 600.0
        series.samples.examined = 0
        points = series.window(now - 8.0, now)
        # The window plus the one older sample that ends the walk.
        assert series.samples.examined <= 18
        assert points == window_oracle(series, now - 8.0, now)
        assert len(points) == 17

    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                                    st.booleans(), st.booleans()),
                          min_size=0, max_size=40),
           retention=st.sampled_from([3.0, 10.0, 600.0]),
           max_samples=st.integers(1, 24),
           data=st.data())
    def test_window_equals_the_full_scan(self, steps, retention,
                                         max_samples, data):
        series = TimeSeries("x", retention=retention, max_samples=max_samples)
        now = 0.0
        for dt, stale, real in steps:
            now += dt
            if stale:
                series.mark_stale(now)
            if real:
                series.add(now, now * 10)
        times = [t for t, _v in series.samples] or [0.0]
        low, high = times[0] - 2.0, times[-1] + 2.0
        start = data.draw(st.one_of(
            st.sampled_from(times),
            st.floats(min_value=low, max_value=high)), label="start")
        end = data.draw(st.one_of(
            st.none(),
            st.sampled_from(times),
            st.floats(min_value=start, max_value=high)), label="end")
        assert series.window(start, end) == window_oracle(series, start, end)


class TestCanonicalLabels:
    def test_sorted_and_stringified(self):
        assert canonical_labels({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))
        assert canonical_labels([]) == ()


class TestTimeSeriesStore:
    def test_series_keyed_by_name_and_labels(self):
        store = TimeSeriesStore()
        store.add("up", {"component": "api"}, 1.0, 1.0)
        store.add("up", {"component": "lcm"}, 1.0, 1.0)
        store.add("depth", {}, 1.0, 4.0)
        assert len(store) == 3
        assert len(store.series("up")) == 2
        assert len(store.series("depth")) == 1

    def test_label_subset_match(self):
        store = TimeSeriesStore()
        store.add("rpc", {"method": "submit", "quantile": "p99"}, 1.0, 0.5)
        store.add("rpc", {"method": "status", "quantile": "p50"}, 1.0, 0.1)
        matched = store.series("rpc", quantile="p99")
        assert len(matched) == 1
        assert matched[0].labels_dict["method"] == "submit"

    def test_get_exact_labels(self):
        store = TimeSeriesStore()
        store.add("up", {"component": "api"}, 1.0, 1.0)
        assert store.get("up", {"component": "api"}).values() == [1.0]
        assert store.get("up", {"component": "nfs"}) is None

    def test_mark_stale_missing_series_is_noop(self):
        TimeSeriesStore().mark_stale("nope", {}, 1.0)
