"""Crosstalk noise and switching-dependent delay on coupled lines.

Two classic phenomena on neighboring inductive wires:

- **functional noise**: an aggressor transition couples a glitch onto a
  quiet victim.  Capacitive coupling injects a *positive* far-end
  glitch; mutual inductance drives the far end *negative* (the returned
  current opposes the aggressor), so the glitch shape flags which
  mechanism dominates;
- **delay push-out / pull-in**: when both lines switch, the coupling
  reshapes the timing window -- and the *direction* flags the regime.
  On RC-dominated wires the coupling capacitance Miller-doubles in the
  odd mode (slower) and vanishes in the even mode (faster).  On
  inductance-dominated wires the loop inductance takes over:
  ``L*(1 - km)`` in the odd mode (faster flight) vs ``L*(1 + km)`` in
  the even mode (slower) -- the opposite ordering, and one more way RC
  intuition fails exactly where this paper says it does.

The pair is a two-line :class:`~repro.bus.spec.BusSpec` (line 0 the
aggressor, line 1 the victim; unequal drivers are ``rtr=(aggressor,
victim)``).  Everything is measured by full MNA transient simulation of
its coupled PI ladders through :func:`~repro.analysis.bus.simulate_bus`
-- a workload that exercises every substrate element (mutual inductance
included) end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.bus import simulate_bus
from repro.bus.spec import BusSpec, LineSwitch
from repro.errors import ParameterError

__all__ = ["CrosstalkReport", "analyze_crosstalk"]


@dataclass(frozen=True)
class CrosstalkReport:
    """Simulation-measured coupling metrics for one coupled pair.

    All voltages are normalized to the aggressor swing.

    Attributes
    ----------
    victim_peak_noise:
        Largest positive victim far-end excursion (capacitive signature).
    victim_min_noise:
        Most negative victim far-end excursion (inductive signature).
    aggressor_delay_quiet, aggressor_delay_even, aggressor_delay_odd:
        Aggressor far-end 50% delay under the three victim behaviours.
    """

    victim_peak_noise: float
    victim_min_noise: float
    aggressor_delay_quiet: float
    aggressor_delay_even: float
    aggressor_delay_odd: float

    @property
    def delay_spread(self) -> float:
        """Odd-to-even switching window as a fraction of the quiet delay."""
        return (
            self.aggressor_delay_odd - self.aggressor_delay_even
        ) / self.aggressor_delay_quiet

    @property
    def worst_noise_magnitude(self) -> float:
        """Larger of the positive / negative victim excursions."""
        return max(self.victim_peak_noise, abs(self.victim_min_noise))


def analyze_crosstalk(
    spec: BusSpec,
    window: float | None = None,
    dt: float | None = None,
    backend: str = "auto",
) -> CrosstalkReport:
    """Measure noise and switching-delay metrics for a coupled pair.

    Parameters
    ----------
    spec:
        The coupled pair: a two-line bus, line 0 the aggressor and
        line 1 the victim.
    window:
        Simulated span (defaults to 12x the slower of the RC and flight
        time scales of one line).
    dt:
        Time step (defaults to window / 6000).
    backend:
        MNA linear-solver backend (see
        :mod:`repro.spice.backend`); long coupled ladders benefit from
        the sparse path.

    >>> spec = BusSpec(n_lines=2, rt=100.0, lt=25e-9, ct=2e-12, cct=1e-12,
    ...     km=0.5, rtr=50.0, cl=5e-14, n_segments=16)
    >>> report = analyze_crosstalk(spec)
    >>> report.worst_noise_magnitude > 0.05
    True
    """
    if spec.n_lines != 2:
        raise ParameterError(
            f"analyze_crosstalk needs a two-line bus, got n_lines={spec.n_lines}"
        )
    if window is None:
        rc_scale = (spec.rtr[0] + spec.rt[0]) * (spec.ct[0] + spec.cct + spec.cl[0])
        flight = math.sqrt(spec.lt[0] * (spec.ct[0] + spec.cct))
        window = 12.0 * max(rc_scale, flight)
    quiet, even, odd = (
        simulate_bus(
            spec, (LineSwitch.RISE, victim), window=window, dt=dt, backend=backend
        )
        for victim in (LineSwitch.QUIET, LineSwitch.RISE, LineSwitch.FALL)
    )
    victim_quiet = quiet.voltages[:, 1]
    return CrosstalkReport(
        victim_peak_noise=float(np.max(victim_quiet)),
        victim_min_noise=float(np.min(victim_quiet)),
        aggressor_delay_quiet=quiet.waveform(0).delay_50(v_final=1.0),
        aggressor_delay_even=even.waveform(0).delay_50(v_final=1.0),
        aggressor_delay_odd=odd.waveform(0).delay_50(v_final=1.0),
    )
