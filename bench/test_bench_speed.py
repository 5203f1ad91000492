"""Tests of the speed index's scaling; no timer or signal is started."""

import pytest

from speed import MIN_TICKS, REF_S, SpeedIndex


def _index(ticks):
    s = SpeedIndex()
    s.starts = [t for t, _ in ticks]
    s.ends = [t + d for t, d in ticks]
    return s


def test_kernel_time_inside_the_interval_is_subtracted_and_scaled():
    # ticks every 0.1 s, kernel twice as slow as REF_S
    s = _index([(0.1 * i, 2 * REF_S) for i in range(40)])
    # [0.95, 2.05] holds ticks 10..20, each fully inside
    got = s.seconds(0.95, 2.05)
    assert got == pytest.approx((1.1 - 11 * 2 * REF_S) / 2)


def test_tick_straddling_the_start_counts_only_its_inside_part():
    s = _index([(0.0, 0.01), (0.1, 0.01), (0.2, 0.01), (0.3, 0.01), (0.4, 0.01)])
    got = s.seconds(0.005, 0.095)
    assert got == pytest.approx((0.09 - 0.005) * REF_S / 0.01)


def test_short_interval_averages_at_least_min_ticks_around_it():
    kernels = [1e-3] * 10 + [3e-3] * 10
    s = _index([(0.1 * i, k) for i, k in enumerate(kernels)])
    got = s.seconds(0.95 + 0.002, 0.96)   # between ticks 9 and 10
    used = kernels[10 - (MIN_TICKS + 1) // 2: 10 + MIN_TICKS // 2]
    assert got == pytest.approx(0.008 * REF_S / (sum(used) / len(used)))


def test_uniform_slowdown_cancels():
    # a host 1.6x slower stretches the run, its ticks and their kernel alike
    def scaled(f):
        return _index([(0.1 * f * i, f * REF_S) for i in range(40)]).seconds(0.05 * f, 1.05 * f)
    assert scaled(1.0) == pytest.approx(1.0 - 10 * REF_S)
    assert scaled(1.6) == pytest.approx(scaled(1.0))
