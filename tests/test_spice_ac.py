"""Tests for repro.spice.ac: frequency sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.errors import NetlistError, ParameterError
from repro.rom import ROM_SIZE_CUTOFF, prima_reduce
from repro.rom.prima import _ac_batch_solve
from repro.spice.ac import _phasor_states, ac_sweep, ac_sweep_batch
from repro.spice.ladder import (
    LadderSpec,
    build_ladder_circuit,
    build_ladder_state_space,
    build_ladder_template,
)
from repro.spice.mna import build_mna
from repro.spice.netlist import Circuit, Step

#: RC-dominated corner (reduced tier converges) and strongly inductive
#: corner (auto falls back at a starved order).
OVERDAMPED = dict(rt=1000.0, lt=1e-8, ct=1e-12, rtr=500.0, cl=5e-13)
UNDERDAMPED = dict(rt=1000.0, lt=1e-6, ct=1e-12, rtr=100.0, cl=1e-13)


def rc_filter(r=1000.0, c=1e-12) -> Circuit:
    ckt = Circuit()
    ckt.add_voltage_source("vin", "in", "0", Step(0.0, 1.0))
    ckt.add_resistor("r1", "in", "out", r)
    ckt.add_capacitor("c1", "out", "0", c)
    return ckt


class TestAcSweep:
    def test_rc_pole(self):
        r, c = 1000.0, 1e-12
        omegas = np.array([0.0, 1.0 / (r * c), 10.0 / (r * c)])
        result = ac_sweep(rc_filter(r, c), omegas)
        h = result.transfer("out", "in")
        expected = 1.0 / (1.0 + 1j * omegas * r * c)
        assert np.allclose(h, expected)

    def test_input_node_unity(self):
        result = ac_sweep(rc_filter(), [1e9])
        assert np.allclose(result.voltage("in"), 1.0)

    def test_ground_is_zero(self):
        result = ac_sweep(rc_filter(), [1e9])
        assert np.allclose(result.voltage("0"), 0.0)

    def test_named_source_required_when_ambiguous(self):
        ckt = rc_filter()
        ckt.add_voltage_source("vbias", "b", "0", 1.0)
        ckt.add_resistor("rb", "b", "out", 1e6)
        with pytest.raises(NetlistError, match="input_source"):
            ac_sweep(ckt, [1e9])
        # Works when named.
        result = ac_sweep(ckt, [1e9], input_source="vin")
        assert result.states.shape[0] == 1

    def test_unknown_source(self):
        with pytest.raises(NetlistError, match="no voltage source"):
            ac_sweep(rc_filter(), [1e9], input_source="vx")

    def test_unknown_node_lookup(self):
        result = ac_sweep(rc_filter(), [1e9])
        with pytest.raises(NetlistError, match="unknown node"):
            result.voltage("zz")


class TestLadderCrossValidation:
    def test_ac_matches_statespace_transfer(self):
        """The MNA AC sweep of a ladder equals its state-space transfer."""
        spec = LadderSpec(rt=1000.0, lt=1e-6, ct=1e-12, rtr=100.0, cl=1e-13,
                          n_segments=10, topology="PI")
        model = build_ladder_state_space(spec)
        omegas = np.array([1e7, 1e8, 1e9, 5e9])
        ac = ac_sweep(build_ladder_circuit(spec), omegas)
        h_ac = ac.transfer(spec.output_node, "in")
        h_ss = model.transfer_at(1j * omegas)[:, 0, 0]
        assert np.allclose(h_ac, h_ss, rtol=1e-10)

    def test_ladder_ac_converges_to_distributed(self):
        """Lumped frequency response approaches the exact line's."""
        from repro.tline.transfer import line_transfer_function

        kw = dict(rt=1000.0, lt=1e-6, ct=1e-12, rtr=100.0, cl=1e-13)
        exact = line_transfer_function(**kw)
        omegas = np.array([1e8, 5e8, 1e9])
        errors = []
        for n in (8, 64):
            spec = LadderSpec(**kw, n_segments=n, topology="PI")
            ac = ac_sweep(build_ladder_circuit(spec), omegas)
            h = ac.transfer(spec.output_node, "in")
            errors.append(np.max(np.abs(h - exact(1j * omegas))))
        assert errors[1] < errors[0]
        assert errors[1] < 5e-3


def _former_scalar_states(circuit, omegas, backend, model):
    """The scalar AC path before it became a batch of one.

    Rebuilt from the kernels that path called: the full tier ran the
    phasor kernel on ``build_mna(circuit)``; the reduced tier projected
    that system with ``prima_reduce`` and lifted one stacked q-space
    solve back to every row.
    """
    system = build_mna(circuit)
    row = system.current_row("vin")
    if model == "full":
        states, _, _ = _phasor_states(
            system.combine(), system.g_coo.data[None], system.c_coo.data[None],
            omegas, row, backend, np.arange(system.size),
        )
        return states[0]
    rom = prima_reduce(system, backend=backend)
    z = _ac_batch_solve(
        rom.gq[None], rom.cq[None], rom.projected_unit_rhs(row), omegas
    )[0]
    return rom.reconstruct(z)


def _selected_rules() -> list:
    snap = obs.REGISTRY.snapshot()["counters"].get("rom.model_selected", [])
    return sorted(
        (e["labels"]["model"], e["labels"]["rule"], e["value"]) for e in snap
    )


class TestOneAcPath:
    """``ac_sweep`` is ``ac_sweep_batch``'s body at one point."""

    OMEGAS = np.geomspace(1e7, 1e11, 20)

    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        obs.reset()
        obs.disable()
        yield
        obs.reset()
        obs.disable()

    @pytest.mark.parametrize("model", ["full", "reduced"])
    @pytest.mark.parametrize("backend", ["dense", "sparse", "banded"])
    def test_bit_identical_to_former_scalar_path(self, backend, model):
        circuit = build_ladder_circuit(LadderSpec(**OVERDAMPED, n_segments=100))
        assert build_mna(circuit).size > ROM_SIZE_CUTOFF
        got = ac_sweep(circuit, self.OMEGAS, backend=backend, model=model)
        expected = _former_scalar_states(circuit, self.OMEGAS, backend, model)
        np.testing.assert_array_equal(got.states, expected)

    @pytest.mark.parametrize(
        "point, options, rule",
        [
            (OVERDAMPED, {}, "auto-within-bound"),
            (UNDERDAMPED, dict(rom_order=4, rom_error_bound=1e-8),
             "auto-error-fallback"),
        ],
        ids=["within-bound", "error-fallback"],
    )
    def test_auto_matches_batch_at_the_same_point(self, point, options, rule):
        template = build_ladder_template(100, "PI", loaded=True)
        obs.enable()
        scalar = ac_sweep(
            template.bind(point), self.OMEGAS, model="auto", **options
        )
        scalar_rules = _selected_rules()
        obs.reset()
        batch = ac_sweep_batch(
            template, [point], self.OMEGAS, model="auto", **options
        )
        assert scalar_rules == _selected_rules()
        assert [r[1] for r in scalar_rules] == [rule]
        # The bound netlist and the template's revalued point assemble
        # and project the same numbers in a different summation order.
        np.testing.assert_allclose(
            scalar.states, batch.states[0], rtol=0.0,
            atol=1e-12 * np.abs(batch.states).max(),
        )

    def test_scalar_sweep_is_a_batch_of_one(self):
        obs.enable()
        ac_sweep(rc_filter(), [1e9])
        assert [root.name for root in obs.trace_roots()] == ["ac.batch"]
        assert obs.REGISTRY.counter("spice.ac.batch_points") == 1.0


class TestFrequencyGrid:
    """Both entry points check the grid once, in the shared body."""

    @staticmethod
    def _sweeps(omegas, **options):
        circuit = build_ladder_circuit(LadderSpec(**OVERDAMPED, n_segments=100))
        template = build_ladder_template(100, "PI", loaded=True)
        return (
            lambda: ac_sweep(circuit, omegas, **options),
            lambda: ac_sweep_batch(template, [OVERDAMPED], omegas, **options),
        )

    @pytest.mark.parametrize(
        "omegas, match",
        [
            ([np.nan], "finite"),
            ([1e9, np.inf], "finite"),
            ([[1e9, 2e9]], "1-D"),
            ([], "non-empty"),
        ],
        ids=["nan", "inf", "2-d", "empty"],
    )
    @pytest.mark.parametrize("model", ["full", "auto"])
    def test_bad_grid_rejected(self, omegas, match, model):
        for sweep in self._sweeps(omegas, model=model):
            with pytest.raises(ParameterError, match=match):
                sweep()

    def test_scalar_frequency_accepted(self):
        for sweep in self._sweeps(1e9):
            assert sweep().omegas.tolist() == [1e9]
