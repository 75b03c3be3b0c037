"""Tests for repro.tline.laplace: inversion against analytic pairs."""

from __future__ import annotations

import doctest
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulate import simulated_step_waveform
from repro.errors import ParameterError
from repro.tline import laplace
from repro.tline.laplace import dehoog, step_response

TIMES = np.array([0.05, 0.3, 1.0, 2.5, 6.0])


def transform_pairs():
    """(F(s), f(t)) analytic pairs used across methods."""
    return [
        (lambda s: 1.0 / (s + 1.0), lambda t: np.exp(-t)),
        (lambda s: 1.0 / s**2, lambda t: t),
        (lambda s: 2.0 / (s + 0.5) ** 2, lambda t: 2.0 * t * np.exp(-0.5 * t)),
        (
            lambda s: 3.0 / ((s + 0.2) ** 2 + 9.0),
            lambda t: np.exp(-0.2 * t) * np.sin(3.0 * t),
        ),
        (
            lambda s: s / (s**2 + 4.0),
            lambda t: np.cos(2.0 * t),
        ),
    ]


class TestAnalyticPairs:
    @pytest.mark.parametrize("method", [dehoog], ids=["dehoog"])
    @pytest.mark.parametrize("pair_index", range(5))
    def test_pair(self, method, pair_index):
        F, f = transform_pairs()[pair_index]
        # de Hoog shares one Fourier window across all times, so its
        # resolution at t << max(t) is bounded by T/(2M); keep the sweep
        # within ~1.5 decades.
        times = TIMES[1:]
        got = method(F, times)
        assert np.allclose(got, f(times), atol=2e-5, rtol=1e-4)

    def test_dehoog_early_time_with_matched_window(self):
        """Early times are accurate when the window matches them."""
        F, f = transform_pairs()[0]
        got = dehoog(F, np.array([0.05, 0.1]), M=40)
        assert np.allclose(got, f(np.array([0.05, 0.1])), atol=1e-6)

    @pytest.mark.parametrize("method", [dehoog], ids=["dehoog"])
    def test_scalar_time(self, method):
        got = method(lambda s: 1.0 / (s + 1.0), 1.0)
        assert got.shape == (1,)
        assert np.isclose(got[0], np.exp(-1.0), atol=1e-6)


class TestDelayedStep:
    """exp(-s)/s -> u(t - 1): discontinuous, the hard case."""

    def test_dehoog_resolves_discontinuity(self):
        F = lambda s: np.exp(-s) / s
        t = np.array([0.5, 0.8, 1.2, 1.5])
        got = dehoog(F, t, M=60)
        assert abs(got[0]) < 0.02
        assert abs(got[1]) < 0.06
        assert abs(got[2] - 1.0) < 0.06
        assert abs(got[3] - 1.0) < 0.02


class TestValidation:
    def test_rejects_zero_time(self):
        with pytest.raises(ParameterError, match="positive times"):
            dehoog(lambda s: 1 / s, [0.0, 1.0])

    def test_rejects_negative_time(self):
        with pytest.raises(ParameterError):
            dehoog(lambda s: 1 / s, [-1.0])

    def test_rejects_2d_times(self):
        with pytest.raises(ParameterError, match="1-D"):
            dehoog(lambda s: 1 / s, np.ones((2, 2)))

    def test_dehoog_rejects_tiny_order(self):
        with pytest.raises(ParameterError, match="M >= 2"):
            dehoog(lambda s: 1 / s, [1.0], M=1)

    def test_dehoog_rejects_bad_period(self):
        with pytest.raises(ParameterError, match="period_factor"):
            dehoog(lambda s: 1 / s, [1.0], period_factor=0.9)

    @pytest.mark.parametrize("period_factor", [np.nan, np.inf])
    def test_dehoog_rejects_nonfinite_period(self, period_factor):
        with pytest.raises(ParameterError, match="period_factor"):
            dehoog(lambda s: 1 / s, [1.0], period_factor=period_factor)

    @pytest.mark.parametrize("tol", [2.0, 1.0, 0.0, -1e-10, np.nan, np.inf])
    def test_dehoog_rejects_bad_tol(self, tol):
        with pytest.raises(ParameterError, match="tol"):
            dehoog(lambda s: 1.0 / (s * (s + 1.0)), [1.0], tol=tol)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_dehoog_rejects_nonfinite_alpha(self, alpha):
        with pytest.raises(ParameterError, match="alpha"):
            dehoog(lambda s: 1 / s, [1.0], alpha=alpha)

    def test_rejects_nonfinite_times(self):
        with pytest.raises(ParameterError):
            dehoog(lambda s: 1 / s, [np.nan])


class TestDispatcher:
    """``step_response`` reaches de Hoog through the ``_METHODS`` entry."""

    def test_kwargs_forwarded(self, monkeypatch):
        seen = {}

        def spy(F, times, **kwargs):
            seen.update(kwargs)
            return dehoog(F, times, **kwargs)

        monkeypatch.setitem(laplace._METHODS, "dehoog", spy)
        got = step_response(lambda s: 1 / (s + 1), [1.0], M=25)
        assert seen == {"M": 25}
        assert np.isclose(got[0], 1.0 - np.exp(-1.0), atol=1e-4)

    def test_docstring_example(self):
        """The ``dehoog`` docstring example runs and holds at 1e-8."""
        finder = doctest.DocTestFinder()
        runner = doctest.DocTestRunner()
        for test in finder.find(dehoog, "dehoog", globs={"dehoog": dehoog}):
            runner.run(test)
        assert runner.tries >= 3
        assert runner.failures == 0


class TestStepResponse:
    def test_first_order_step(self):
        # H = 1/(1 + s) -> step response 1 - exp(-t)
        t = np.array([0.0, 0.5, 1.0, 3.0])
        got = step_response(lambda s: 1.0 / (1.0 + s), t)
        assert got[0] == 0.0
        assert np.allclose(got[1:], 1.0 - np.exp(-t[1:]), atol=1e-5)

    def test_initial_value_override(self):
        got = step_response(lambda s: 1.0 / (1.0 + s), [0.0], initial_value=0.25)
        assert got[0] == 0.25

    def test_rejects_negative_times(self):
        with pytest.raises(ParameterError, match="non-negative"):
            step_response(lambda s: 1.0 / (1.0 + s), [-0.1, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_times(self, bad):
        # A NaN time used to fail the t > 0 split and read initial_value.
        with pytest.raises(ParameterError, match="finite"):
            step_response(lambda s: 1.0 / (1.0 + s), [bad, 1.0])


class TestLinearity:
    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(min_value=-5, max_value=5),
        b=st.floats(min_value=0.1, max_value=4.0),
        c=st.floats(min_value=-5, max_value=5),
        d=st.floats(min_value=0.1, max_value=4.0),
    )
    def test_dehoog_linear_combination(self, a, b, c, d):
        """Inversion is linear: invert(a*F1 + c*F2) = a*f1 + c*f2."""
        F = lambda s: a / (s + b) + c / (s + d)
        t = np.array([0.4, 1.3])
        got = dehoog(F, t)
        expected = a * np.exp(-b * t) + c * np.exp(-d * t)
        assert np.allclose(got, expected, atol=1e-7, rtol=1e-6)


def _reference_dehoog(F, times, M=40, alpha=0.0, tol=1e-10, period_factor=2.0):
    """The former per-time de Hoog evaluation, kept as a differential oracle.

    Returns the inverse at each time and whether the remainder
    acceleration was accepted there.
    """
    t = np.asarray(times, dtype=float)
    big_t = period_factor * float(np.max(t))
    gamma = alpha - math.log(tol) / (2.0 * big_t)
    k = np.arange(2 * M + 1)
    a = F(gamma + 1j * np.pi * k / big_t).astype(complex)
    a[0] *= 0.5
    d = laplace._dehoog_cf_coefficients(a, M)

    n_levels = 2 * M + 1
    out = np.empty_like(t)
    accepted = np.zeros(t.shape, dtype=bool)
    for j, tj in enumerate(t):
        z = np.exp(1j * np.pi * tj / big_t)
        A = np.empty(n_levels + 1, dtype=complex)
        B = np.empty(n_levels + 1, dtype=complex)
        A[0], B[0] = 0.0, 1.0
        A[1], B[1] = d[0], 1.0
        for n in range(1, n_levels):
            A[n + 1] = A[n] + d[n] * z * A[n - 1]
            B[n + 1] = B[n] + d[n] * z * B[n - 1]
        num, den = A[n_levels], B[n_levels]
        h2m = 0.5 * (1.0 + z * (d[2 * M - 1] - d[2 * M]))
        if h2m != 0:
            with np.errstate(all="ignore"):
                r2m = -h2m * (1.0 - np.sqrt(1.0 + z * d[2 * M] / (h2m * h2m)))
                num_acc = A[n_levels - 1] + r2m * A[n_levels - 2]
                den_acc = B[n_levels - 1] + r2m * B[n_levels - 2]
            if den_acc != 0 and np.isfinite(num_acc) and np.isfinite(den_acc):
                num, den = num_acc, den_acc
                accepted[j] = True
        if den == 0:
            raise ParameterError("de Hoog continued fraction degenerated (B = 0)")
        out[j] = (np.exp(gamma * tj) / big_t) * (num / den).real
    return out, accepted


class TestDehoogDifferential:
    """The all-times recurrence against the former per-time loop."""

    @pytest.mark.parametrize("pair_index", range(5))
    def test_analytic_pairs(self, pair_index):
        F, _ = transform_pairs()[pair_index]
        times = np.linspace(0.05, 6.0, 301)
        expected, accepted = _reference_dehoog(F, times)
        assert accepted.all()
        assert np.max(np.abs(dehoog(F, times) - expected)) <= 1e-11

    def test_line_step_response_at_production_order(self, underdamped_line):
        """The tline delay route's own query: M = 96 over 4001 samples."""
        wave = simulated_step_waveform(underdamped_line, route="tline")
        assert wave.times.size == 4001
        transfer = underdamped_line.transfer()
        expected, _ = _reference_dehoog(
            lambda s: transfer(s) / s, wave.times[1:], M=96
        )
        assert wave.values[0] == 0.0
        assert np.max(np.abs(wave.values[1:] - expected)) <= 1e-9

    def test_acceleration_rejected_at_some_times_only(self, monkeypatch):
        """The remainder rule is applied per time, through masks.

        With ``d[2M-1] - d[2M] = -1`` the remainder denominator
        ``h2m = (1 - z) / 2`` squares to zero (underflow) at the earliest
        time, where acceleration must be refused, but not at the others.
        """
        M = 10
        coefficients = laplace._dehoog_cf_coefficients

        def patched(a, order):
            d = coefficients(a, order)
            d[2 * order - 1], d[2 * order] = 1.0, 2.0
            return d

        monkeypatch.setattr(laplace, "_dehoog_cf_coefficients", patched)
        F = lambda s: 1.0 / (s + 1.0)
        times = np.array([1e-170, 0.5, 1.0, 2.0])
        expected, accepted = _reference_dehoog(F, times, M=M)
        assert accepted.tolist() == [False, True, True, True]
        got = dehoog(F, times, M=M)
        assert np.all(np.isfinite(got))
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_degenerate_fraction_raises(self, monkeypatch):
        """B = 0 at any one time is an error, not a silent NaN.

        At t = 5e-324 with max(t) = 100 the phase underflows, so z = 1
        exactly and ``d = (1, -1, 0, 0, 0)`` zeroes every B_n, n >= 1.
        """
        monkeypatch.setattr(
            laplace,
            "_dehoog_cf_coefficients",
            lambda a, order: np.array([1.0, -1.0, 0.0, 0.0, 0.0], dtype=complex),
        )
        F = lambda s: 1.0 / (s + 1.0)
        times = [5e-324, 100.0]
        for inverse in (_reference_dehoog, dehoog):
            with pytest.raises(ParameterError, match="degenerated"):
                inverse(F, times, M=2)


class TestDehoogMemory:
    def test_peak_memory_independent_of_level_count(self):
        """4001 times at M = 96 keep only a few time-length arrays live.

        A full (2M + 2) x len(times) recurrence table would be ~25 MB.
        """
        F = lambda s: 1.0 / (s * (s + 1.0))
        times = np.linspace(1e-3, 10.0, 4001)
        tracemalloc.start()
        try:
            dehoog(F, times, M=96)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024
