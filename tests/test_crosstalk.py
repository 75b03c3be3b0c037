"""Tests for the coupled pair: a two-line bus and repro.analysis.crosstalk.

Line 0 is the aggressor, line 1 the victim.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.crosstalk import analyze_crosstalk
from repro.bus import BusSpec, LineSwitch, build_bus_circuit
from repro.errors import ParameterError
from repro.spice.netlist import Capacitor, Inductor, VoltageSource
from repro.spice.transient import simulate_transient


def make_spec(**overrides) -> BusSpec:
    base = dict(
        n_lines=2,
        rt=100.0,
        lt=25e-9,
        ct=2e-12,
        cct=1e-12,
        km=0.5,
        rtr=50.0,
        cl=5e-14,
        n_segments=12,
    )
    base.update(overrides)
    return BusSpec(**base)


AGGRESSOR_RISES = {
    "quiet": (LineSwitch.RISE, LineSwitch.QUIET),
    "even": (LineSwitch.RISE, LineSwitch.RISE),
    "odd": (LineSwitch.RISE, LineSwitch.FALL),
}


class TestSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            make_spec(km=1.0)
        with pytest.raises(ParameterError):
            make_spec(rtr=(50.0, 0.0))
        with pytest.raises(ParameterError):
            make_spec(n_segments=0)

    def test_output_names(self):
        spec = make_spec(n_segments=8)
        assert spec.output_node(0) == "b0_8"
        assert spec.output_node(1) == "b1_8"
        assert {"b0_8", "b1_8"} <= set(build_bus_circuit(spec).node_names())


class TestCircuitBuilder:
    def test_element_budget(self):
        spec = make_spec(n_segments=8)
        ckt = build_bus_circuit(spec, AGGRESSOR_RISES["quiet"])
        # 2 lines x 8 inductors, coupled pairwise.
        assert len(ckt.elements_of_type(Inductor)) == 16
        assert len(ckt.mutual_inductances) == 8
        # Ground caps: 2 x 9 nodes; coupling: 9; loads: 2.
        assert len(ckt.elements_of_type(Capacitor)) == 18 + 9 + 2
        ckt.validate()

    def test_coupling_capacitance_conserved(self):
        spec = make_spec(n_segments=10)
        ckt = build_bus_circuit(spec, AGGRESSOR_RISES["quiet"])
        cc_total = sum(
            e.value
            for e in ckt.elements_of_type(Capacitor)
            if e.name.startswith("cc")
        )
        assert cc_total == pytest.approx(spec.cct, rel=1e-12)

    def test_victim_modes_set_drivers(self):
        spec = make_spec()
        for mode, v0, v1 in (
            ("quiet", 0.0, 0.0),
            ("even", 0.0, 1.0),
            ("odd", 1.0, 0.0),
        ):
            ckt = build_bus_circuit(spec, AGGRESSOR_RISES[mode])
            sources = {
                e.name: e.waveform for e in ckt.elements_of_type(VoltageSource)
            }
            assert (sources["vinb0_"].v0, sources["vinb0_"].v1) == (0.0, 1.0)
            assert (sources["vinb1_"].v0, sources["vinb1_"].v1) == (v0, v1)


class TestSymmetry:
    def test_uncoupled_victim_stays_quiet(self):
        spec = make_spec(cct=0.0, km=0.0)
        report = analyze_crosstalk(spec)
        assert report.worst_noise_magnitude < 1e-9
        assert report.aggressor_delay_even == pytest.approx(
            report.aggressor_delay_quiet, rel=1e-6
        )

    def test_even_mode_keeps_lines_identical(self):
        """Both lines switching together see no differential coupling."""
        spec = make_spec()
        ckt = build_bus_circuit(spec, AGGRESSOR_RISES["even"])
        result = simulate_transient(ckt, 1.5e-9, 5e-13)
        a = result.voltage(spec.output_node(0)).values
        v = result.voltage(spec.output_node(1)).values
        assert np.max(np.abs(a - v)) < 1e-9


class TestNoisePolarity:
    def test_capacitive_coupling_positive_glitch(self):
        report = analyze_crosstalk(make_spec(cct=1e-12, km=0.0))
        assert report.victim_peak_noise > 0.2
        assert abs(report.victim_min_noise) < report.victim_peak_noise / 5

    def test_inductive_coupling_negative_far_end(self):
        report = analyze_crosstalk(make_spec(cct=1e-15, km=0.6))
        assert report.victim_min_noise < -0.15
        assert abs(report.victim_min_noise) > report.victim_peak_noise

    def test_noise_grows_with_coupling_cap(self):
        weak = analyze_crosstalk(make_spec(cct=2e-13, km=0.0))
        strong = analyze_crosstalk(make_spec(cct=1.5e-12, km=0.0))
        assert strong.victim_peak_noise > weak.victim_peak_noise


class TestSwitchingDelay:
    def test_inductive_regime_odd_is_faster(self):
        """LC-dominated pair: odd mode rides L*(1-km) -- pull-in."""
        report = analyze_crosstalk(make_spec(km=0.5))
        assert report.aggressor_delay_odd < report.aggressor_delay_quiet
        assert report.delay_spread < 0.0

    def test_rc_regime_odd_is_slower(self):
        """RC-dominated pair: Miller-doubled Cc -- push-out."""
        spec = make_spec(
            rt=2000.0, lt=2e-10, ct=2e-12, cct=1.5e-12, km=0.0,
            rtr=500.0,
        )
        report = analyze_crosstalk(spec)
        assert report.aggressor_delay_odd > report.aggressor_delay_even
        assert report.delay_spread > 0.05

    def test_window_validation(self):
        with pytest.raises(ParameterError):
            analyze_crosstalk(make_spec(), window=-1.0)

    def test_requires_two_lines(self):
        with pytest.raises(ParameterError, match="two-line"):
            analyze_crosstalk(make_spec(n_lines=3))
