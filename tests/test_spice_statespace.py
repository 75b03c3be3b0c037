"""Tests for repro.spice.statespace: exact LTI integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError, SimulationError
from repro.spice.ladder import build_ladder_state_space
from repro.spice.statespace import StateSpace, simulate_step


def first_order(tau: float = 1e-9) -> StateSpace:
    """dx/dt = (u - x)/tau, y = x -- the RC low-pass."""
    return StateSpace(a=[[-1.0 / tau]], b=[1.0 / tau], c=[1.0])


def series_rlc(r: float, l: float, c: float) -> StateSpace:
    """States (i, v_c); step drives through R-L into C."""
    a = [[-r / l, -1.0 / l], [1.0 / c, 0.0]]
    b = [1.0 / l, 0.0]
    c_row = [0.0, 1.0]
    return StateSpace(a=a, b=b, c=c_row)


class TestConstruction:
    def test_dimensions(self):
        model = series_rlc(10.0, 1e-9, 1e-12)
        assert model.order == 2
        assert model.n_inputs == 1
        assert model.n_outputs == 1

    def test_1d_promotion(self):
        model = first_order()
        assert model.b.shape == (1, 1)
        assert model.c.shape == (1, 1)
        assert model.d.shape == (1, 1)

    def test_shape_validation(self):
        with pytest.raises(ParameterError, match="square"):
            StateSpace(a=np.zeros((2, 3)), b=np.zeros(2), c=np.zeros(2))
        with pytest.raises(ParameterError, match="rows"):
            StateSpace(a=np.zeros((2, 2)), b=np.zeros(3), c=np.zeros(2))
        with pytest.raises(ParameterError, match="columns"):
            StateSpace(a=np.zeros((2, 2)), b=np.zeros(2), c=np.zeros(3))

    def test_d_validation(self):
        with pytest.raises(ParameterError, match="D"):
            StateSpace(a=np.zeros((1, 1)), b=np.zeros(1), c=np.zeros(1),
                       d=np.zeros((2, 2)))


class TestDiscretize:
    def test_matches_scalar_exponential(self):
        tau = 1e-9
        e, f = first_order(tau).discretize(1e-10)
        assert e[0, 0] == pytest.approx(np.exp(-0.1))
        assert f[0, 0] == pytest.approx(1.0 - np.exp(-0.1))

    def test_singular_a_handled(self):
        """Pure integrator: A = 0, F = B*dt via the augmented expm."""
        model = StateSpace(a=[[0.0]], b=[2.0], c=[1.0])
        e, f = model.discretize(0.5)
        assert e[0, 0] == pytest.approx(1.0)
        assert f[0, 0] == pytest.approx(1.0)

    def test_bad_dt(self):
        with pytest.raises(ParameterError):
            first_order().discretize(-1.0)


class TestSimulateStep:
    def test_first_order_exact_at_samples(self):
        tau = 1e-9
        (w,) = simulate_step(first_order(tau), t_stop=5e-9, n_samples=51)
        expected = 1.0 - np.exp(-w.times / tau)
        assert np.max(np.abs(w.values - expected)) < 1e-12

    def test_rlc_against_analytic(self):
        r, l, c = 20.0, 1e-9, 1e-12
        (w,) = simulate_step(series_rlc(r, l, c), t_stop=1e-9, n_samples=401)
        alpha = r / (2 * l)
        omega_d = np.sqrt(1.0 / (l * c) - alpha**2)
        expected = 1.0 - np.exp(-alpha * w.times) * (
            np.cos(omega_d * w.times) + alpha / omega_d * np.sin(omega_d * w.times)
        )
        assert np.max(np.abs(w.values - expected)) < 1e-10

    def test_scaled_input(self):
        (w,) = simulate_step(first_order(), t_stop=3e-8, u=2.5)
        assert w.values[-1] == pytest.approx(2.5, rel=1e-6)

    def test_initial_state(self):
        (w,) = simulate_step(
            first_order(), t_stop=1e-8, x0=np.array([1.0]), u=1.0
        )
        assert np.allclose(w.values, 1.0)

    def test_validation(self):
        with pytest.raises(ParameterError, match="n_samples"):
            simulate_step(first_order(), 1e-9, n_samples=1)
        with pytest.raises(ParameterError, match="t_stop"):
            simulate_step(first_order(), -1e-9)
        with pytest.raises(ParameterError, match="x0"):
            simulate_step(first_order(), 1e-9, x0=np.zeros(3))

    def test_rejects_u_of_wrong_length(self):
        model = StateSpace(a=-np.eye(2), b=np.eye(2), c=np.eye(2))
        with pytest.raises(ParameterError, match=r"\(2,\)"):
            simulate_step(model, 1.0, u=[1.0, 2.0, 3.0])
        (w0, w1) = simulate_step(model, 1.0, n_samples=3, u=[1.0, 2.0])
        assert w1.values[-1] == pytest.approx(2.0 * w0.values[-1])


class TestTransferAt:
    def test_first_order_transfer(self):
        tau = 1e-9
        model = first_order(tau)
        s = np.array([1j / tau])
        h = model.transfer_at(s)[:, 0, 0]
        expected = 1.0 / (1.0 + 1j)
        assert np.allclose(h, expected)

    def test_rlc_transfer_matches_formula(self):
        r, l, c = 50.0, 2e-9, 1e-12
        model = series_rlc(r, l, c)
        s = np.array([1e9j, 1e8 + 3e9j])
        h = model.transfer_at(s)[:, 0, 0]
        expected = 1.0 / (1.0 + s * r * c + s * s * l * c)
        assert np.allclose(h, expected)


def _reference_simulate_step(system, t_stop, n_samples, u=1.0, x0=None):
    """The former one-mat-vec-per-sample loop, kept as a differential oracle."""
    u_vec = np.broadcast_to(np.asarray(u, dtype=float).ravel(), (system.n_inputs,))
    x = np.zeros(system.order) if x0 is None else np.asarray(x0, dtype=float).copy()
    dt = np.linspace(0.0, t_stop, n_samples)[1]
    e, f = system.discretize(dt)
    fu = f @ u_vec
    du = system.d @ u_vec
    outputs = np.empty((n_samples, system.n_outputs))
    outputs[0] = system.c @ x + du
    for k in range(1, n_samples):
        x = e @ x + fu
        outputs[k] = system.c @ x + du
    if not np.all(np.isfinite(outputs)):
        raise SimulationError("state-space simulation produced non-finite values")
    return outputs


def two_port_model() -> StateSpace:
    """A stable, lightly damped 6-state system with two inputs and outputs."""
    rng = np.random.default_rng(7)
    blocks = []
    for sigma, omega in [(-0.3, 2.0), (-0.1, 5.0), (-1.0, 0.5)]:
        blocks.append(np.array([[sigma, omega], [-omega, sigma]]))
    a = np.zeros((6, 6))
    for i, blk in enumerate(blocks):
        a[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = blk
    basis = rng.normal(size=(6, 6))
    a = basis @ a @ np.linalg.inv(basis)
    return StateSpace(
        a=a,
        b=rng.normal(size=(6, 2)),
        c=rng.normal(size=(2, 6)),
        d=rng.normal(size=(2, 2)),
    )


class TestSimulateStepDifferential:
    """Block stepping against the former per-sample loop."""

    @pytest.mark.parametrize("n_samples", [2, 64, 65, 66, 4001])
    def test_two_inputs_two_outputs_nonzero_x0(self, n_samples):
        model = two_port_model()
        u = np.array([1.0, -0.5])
        x0 = np.linspace(-1.0, 1.0, model.order)
        waves = simulate_step(model, 20.0, n_samples=n_samples, u=u, x0=x0)
        expected = _reference_simulate_step(model, 20.0, n_samples, u=u, x0=x0)
        assert len(waves) == 2
        for j, wave in enumerate(waves):
            assert wave.times.size == n_samples
            assert wave.values[0] == expected[0, j]
            scale = np.max(np.abs(expected[:, j]))
            assert np.max(np.abs(wave.values - expected[:, j])) <= 1e-12 * scale

    def test_ladder_at_production_size(self, underdamped_line):
        """The statespace delay route's model: 201 states, 4001 samples."""
        model = build_ladder_state_space(underdamped_line.ladder(n_segments=100))
        (wave,) = simulate_step(model, 1.2e-8, n_samples=4001)
        expected = _reference_simulate_step(model, 1.2e-8, 4001)[:, 0]
        assert np.max(np.abs(wave.values - expected)) <= 1e-12

    @pytest.mark.parametrize("n_samples", [66, 4001])
    def test_unstable_system_still_raises(self, n_samples):
        model = StateSpace(a=[[1.0, 0.0], [0.0, -1.0]], b=[1.0, 1.0], c=[1.0, 1.0])
        # e^t overflows near t = 709: inside the first block at 66
        # samples, in the 45th block at 4001.
        t_stop = 1000.0
        with pytest.raises(SimulationError, match="non-finite"), np.errstate(
            over="ignore", invalid="ignore"
        ):
            _reference_simulate_step(model, t_stop, n_samples)
        with pytest.raises(SimulationError, match="non-finite"):
            simulate_step(model, t_stop, n_samples=n_samples)
