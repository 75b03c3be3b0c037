"""Transient simulation of linear circuits.

Solves the MNA system ``G x + C dx/dt = b(t)`` on a fixed time grid with
either of the two classic companion-model integrators:

``backward-euler``
    L-stable, first order.  Heavily damps numerical ringing; good for
    quick-and-dirty runs.

``trapezoidal``
    A-stable, second order, the SPICE default.  Preserves the oscillatory
    energy of underdamped RLC lines, which is exactly what the paper's
    experiments probe, so it is the default here too.

Both reduce each step to one linear solve with a *constant* matrix
(fixed step size), factorized exactly once through a pluggable
:class:`~repro.spice.backend.SimulationBackend` -- dense LU for small
systems, RCM-banded or sparse LU for the long ladder chains where a
dense solve would cost O(n^3)/O(n^2) per run.

Value-only parameter sweeps should use
:func:`simulate_transient_batch`: it takes a
:class:`~repro.spice.mna.CircuitTemplate`, assembles and analyzes the
structure once, and steps every parameter point in lockstep -- one
``(n, B)`` right-hand-side block per time step -- instead of running
``B`` independent simulations.  :func:`simulate_transient` is the same
lockstep kernel run as a batch of one.

Time grid
---------

The grid always ends *exactly* at ``t_stop``.  ``dt`` is an upper bound
on the step: the span is divided into ``ceil((t_stop - t_start) / dt)``
equal steps (``numpy.linspace`` style), so a non-divisible span shrinks
the effective step slightly rather than letting the final sample
overshoot past ``t_stop``.  (Historically the last point could land up
to ``dt`` *after* ``t_stop``, silently skewing measurements -- such as
the 50% delay -- that treat the last sample as the steady state.)  A
uniform, slightly smaller step was chosen over one final partial step
so a single matrix factorization still serves every step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro import obs
from repro.errors import ParameterError, SimulationError
from repro.spice.backend import (
    CooMatrix,
    SimulationBackend,
    _PatternCsr,
    resolve_backend,
)
from repro.spice.mna import CircuitTemplate, MnaStructure, MnaSystem, build_mna
from repro.spice.netlist import GROUND, Circuit, canonical_node
from repro.tline.waveform import Waveform

__all__ = [
    "IntegrationMethod",
    "TransientResult",
    "TransientBatchResult",
    "simulate_transient",
    "simulate_transient_batch",
]


class IntegrationMethod(str, enum.Enum):
    """Time-integration schemes."""

    BACKWARD_EULER = "backward-euler"
    TRAPEZOIDAL = "trapezoidal"


@dataclass(frozen=True)
class TransientResult:
    """Simulated waveforms for every MNA unknown.

    Attributes
    ----------
    times:
        The simulation grid, shape ``(n_steps + 1,)``; ``times[-1]`` is
        exactly ``t_stop``.
    states:
        Solution matrix, shape ``(n_steps + 1, n_unknowns)``.
    system:
        The assembled MNA system (for index lookups).
    """

    times: np.ndarray
    states: np.ndarray
    system: MnaSystem

    def voltage(self, node) -> Waveform:
        """Waveform of a node voltage (ground is the zero waveform)."""
        if canonical_node(node) == GROUND:
            return Waveform(self.times, np.zeros_like(self.times))
        row = self.system.voltage_row(node)
        return Waveform(self.times, self.states[:, row].copy())

    def current(self, element_name: str) -> Waveform:
        """Waveform of a branch current (V sources and inductors)."""
        row = self.system.current_row(element_name)
        return Waveform(self.times, self.states[:, row].copy())

    @property
    def n_steps(self) -> int:
        """Number of time steps taken."""
        return self.times.size - 1


def _lockstep_grid(t_start: float, t_stop, dt, n_points: int):
    """Validate a transient span and lay out its lockstep time grid.

    The one validator behind every transient entry point: the scalar
    and batch analyses and the reduced-tier recurrence.  ``t_stop`` and
    ``dt`` are scalars or length-``n_points`` arrays.  ``dt`` caps the
    step: each point's span is cut into ``ceil(span / dt)`` equal steps
    with a one-part-in-1e12 snap, so a span that divides ``dt`` up to
    float round-off keeps its intended step count instead of gaining a
    near-degenerate extra step.  Every point must land on the same step
    count (lockstep).

    Returns ``(t_stop, dt, times, dt_eff)``: the broadcast ``(B,)``
    inputs, the grid -- ``(n_steps + 1,)`` when every point shares its
    ``t_stop``, else one row per point -- and the ``(B,)`` effective
    steps.
    """
    t_stop = np.broadcast_to(np.asarray(t_stop, dtype=float).ravel(), (n_points,))
    dt = np.broadcast_to(np.asarray(dt, dtype=float).ravel(), (n_points,))
    if np.any(dt <= 0) or not np.all(np.isfinite(dt)):
        raise ParameterError(f"dt must be positive and finite, got {dt.tolist()}")
    if not (np.isfinite(t_start) and np.all(np.isfinite(t_stop))):
        raise ParameterError(
            f"t_start and t_stop must be finite, got {t_start} and {t_stop.tolist()}"
        )
    if np.any(t_stop <= t_start):
        raise ParameterError("t_stop must exceed t_start")
    spans = t_stop - t_start
    steps = np.maximum(1, np.ceil((spans / dt) * (1.0 - 1e-12)).astype(int))
    if np.unique(steps).size != 1:
        raise ParameterError(
            f"lockstep batch needs one shared step count, got {sorted(set(steps.tolist()))}; "
            "derive dt from the span (dt = span / n_steps) per point"
        )
    n_steps = int(steps[0])
    if np.all(t_stop == t_stop[0]):
        times = np.linspace(t_start, float(t_stop[0]), n_steps + 1)
    else:
        times = np.stack(
            [np.linspace(t_start, float(stop), n_steps + 1) for stop in t_stop]
        )
    return t_stop, dt, times, spans / n_steps


def _at_point(j: int, n_points: int) -> str:
    """Error-message suffix naming a failing batch point (none for B = 1)."""
    return f" at batch point {j}" if n_points > 1 else ""


def simulate_transient(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    method: IntegrationMethod | str = IntegrationMethod.TRAPEZOIDAL,
    initial: str | np.ndarray = "dc",
    t_start: float = 0.0,
    backend: SimulationBackend | str = "auto",
    model: str = "full",
    rom_order: int | None = None,
    rom_error_bound: float | None = None,
) -> TransientResult:
    """Run a fixed-step transient analysis.

    Parameters
    ----------
    circuit:
        Netlist to simulate.
    t_stop:
        End time (seconds).  The grid always includes ``t_stop`` as its
        exact last sample (see the module docstring).
    dt:
        Maximum step size; when ``(t_stop - t_start) / dt`` is not an
        integer the actual step shrinks so the grid stays uniform and
        lands exactly on ``t_stop``.  For RLC lines, resolve the
        fastest LC period: a few hundred steps per
        ``2*pi*sqrt(L_seg * C_seg)``.
    method:
        ``"trapezoidal"`` (default) or ``"backward-euler"``.
    initial:
        ``"dc"`` (operating point with sources at ``t_start``), ``"zero"``,
        or an explicit MNA state vector.
    backend:
        Linear-solver implementation: ``"auto"`` (default; picks dense,
        banded or sparse from the system's size and bandwidth), one of
        ``"dense"``/``"sparse"``/``"banded"``, or a
        :class:`~repro.spice.backend.SimulationBackend` instance.
    model:
        Evaluation-model tier: ``"full"`` (default; the exact MNA path),
        ``"reduced"`` (answer from a PRIMA-style projection of order
        ``rom_order``, see :mod:`repro.rom`), or ``"auto"`` (reduced for
        large systems when the a-posteriori error estimate stays under
        ``rom_error_bound``, full otherwise; the decision is recorded as
        a :class:`~repro.rom.model.ModelSelection`).
    rom_order:
        Reduced order ``q`` for the non-full tiers (default
        :data:`repro.rom.prima.DEFAULT_ORDER`).
    rom_error_bound:
        Error bound the ``"auto"`` tier enforces before serving a
        reduced answer (default
        :data:`repro.rom.model.DEFAULT_ERROR_BOUND`).

    Returns
    -------
    TransientResult

    Notes
    -----
    The full tier is a batch of one: the concrete system is assembled
    with :func:`~repro.spice.mna.build_mna` and stepped by the same
    lockstep kernel as :func:`simulate_transient_batch`.

    For an ideal :class:`~repro.spice.netlist.Step` source delayed at
    ``t = 0`` with ``initial='dc'``, the operating point sees the *pre-step*
    value only if the step is strictly after ``t_start``; a step exactly at
    ``t_start`` is handled like SPICE handles it -- the initial solve uses
    the source value at ``t_start``, so place the step one ``dt`` later (or
    start from ``initial='zero'``) to capture the onset.
    """
    from repro.rom.model import resolve_model, serve_with_tier
    from repro.rom.prima import _suborder_estimates

    method = IntegrationMethod(method)
    _, _, times, dt_eff = _lockstep_grid(t_start, t_stop, dt, 1)
    n_steps = times.size - 1
    model = resolve_model(model)

    with obs.span("transient.simulate", method=method.value) as sp:
        system = build_mna(circuit)

        def full(mask):
            # A batch of one: the rerun mask can only select its point.
            states, solver, _groups = _lockstep_states(
                system.combine(), system.g_coo, system.source_rows,
                system.g_coo.data[None], system.c_coo.data[None],
                times, dt_eff, method, initial, t_start, backend,
                np.arange(system.size),
            )
            sp.set(n=system.size, steps=n_steps, backend=solver.name)
            obs.inc("spice.transient.runs")
            obs.inc("spice.transient.steps", n_steps)
            obs.observe(
                "spice.transient.steps_per_run", n_steps, buckets=obs.COUNT_BUCKETS
            )
            return states

        def build():
            from repro import rom

            return rom.prima_reduce(system, order=rom_order, backend=backend)

        def answer(reduced, estimates):
            def solve(order=None):
                _, z = reduced.transient(
                    t_stop, dt, method=method, initial=initial,
                    t_start=t_start, order=order,
                )
                return reduced.reconstruct(z)[None]

            states = solve()
            return states, (
                _suborder_estimates(reduced, states, solve) if estimates else None
            )

        if model == "full":
            states = full(None)
        else:
            states = serve_with_tier(
                model, system.size, 1, build, answer, full, rom_error_bound, sp
            )
        return TransientResult(times=times, states=states[0], system=system)


# ---------------------------------------------------------------------------
# Batched (lockstep) transient over one circuit template
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransientBatchResult:
    """Waveform matrices for a batch of structure-identical circuits.

    Attributes
    ----------
    times:
        Shared grid of shape ``(n_steps + 1,)`` when every batch point
        uses the same span, else per-point grids ``(B, n_steps + 1)``.
    states:
        Solutions of shape ``(B, n_steps + 1, R)`` where ``R`` is the
        number of recorded MNA rows (all of them unless the simulation
        was given an explicit ``record`` list).
    structure:
        The shared :class:`~repro.spice.mna.MnaStructure` (for index
        lookups).
    recorded_rows:
        MNA row index of each recorded column, in column order.
    """

    times: np.ndarray
    states: np.ndarray
    structure: MnaStructure
    recorded_rows: tuple[int, ...]

    @property
    def n_points(self) -> int:
        """Number of batch points ``B``."""
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        """Number of time steps taken (shared by every point)."""
        return self.states.shape[1] - 1

    def times_of(self, point: int) -> np.ndarray:
        """The time grid of one batch point."""
        return self.times if self.times.ndim == 1 else self.times[point]

    def _column(self, row: int) -> int:
        try:
            return self.recorded_rows.index(row)
        except ValueError:
            raise ParameterError(
                f"MNA row {row} was not recorded; pass it in record= "
                "(or record everything with record=None)"
            ) from None

    def voltage(self, node) -> np.ndarray:
        """Voltage matrix ``(B, n_steps + 1)`` of one node (ground is 0)."""
        if canonical_node(node) == GROUND:
            return np.zeros(self.states.shape[:2])
        col = self._column(self.structure.voltage_row(node))
        return self.states[:, :, col].copy()

    def current(self, element_name: str) -> np.ndarray:
        """Branch-current matrix ``(B, n_steps + 1)`` of one element."""
        col = self._column(self.structure.current_row(element_name))
        return self.states[:, :, col].copy()

    def waveform(self, point: int, node) -> Waveform:
        """One point's node voltage as a :class:`~repro.tline.waveform.Waveform`."""
        return Waveform(self.times_of(point), self.voltage(node)[point])


def _param_columns(
    template: CircuitTemplate | MnaStructure,
    params,
) -> tuple[MnaStructure, dict[str, np.ndarray], int]:
    """Normalize batch parameters to per-name columns of equal length."""
    if isinstance(template, CircuitTemplate):
        structure = template.structure
        base: dict = template.defaults
    elif isinstance(template, MnaStructure):
        structure = template
        base = {}
    else:
        raise ParameterError(
            f"expected a CircuitTemplate or MnaStructure, got {template!r}"
        )
    if isinstance(params, Mapping):
        given = {k: np.asarray(v, dtype=float).ravel() for k, v in params.items()}
    else:
        points = list(params or ())
        if not points:
            raise ParameterError("params must name at least one batch point")
        names = set().union(*(p.keys() for p in points))
        if any(set(p) != names for p in points):
            raise ParameterError(
                "every batch point must provide the same parameter names"
            )
        given = {
            name: np.asarray(
                [float(p[name]) for p in points], dtype=float
            )
            for name in names
        }
    columns = {**{k: np.asarray(v, dtype=float) for k, v in base.items()}, **given}
    sizes = {c.size for c in columns.values() if np.ndim(c) and c.size != 1}
    if len(sizes) > 1:
        raise ParameterError(
            f"parameter columns have mismatched lengths {sorted(sizes)}"
        )
    n_points = sizes.pop() if sizes else 1
    columns = {
        name: np.broadcast_to(np.asarray(col, dtype=float).ravel(), (n_points,))
        for name, col in columns.items()
    }
    return structure, columns, n_points


def _recorded_rows(structure: MnaStructure, record) -> np.ndarray:
    """Resolve a ``record`` request to MNA row indices."""
    if record is None:
        return np.arange(structure.size, dtype=np.intp)
    rows = []
    for item in record:
        if isinstance(item, (int, np.integer)):
            row = int(item)
            if not 0 <= row < structure.size:
                raise ParameterError(
                    f"recorded row {row} outside [0, {structure.size})"
                )
            rows.append(row)
        else:
            rows.append(structure.voltage_row(item))
    return np.asarray(rows, dtype=np.intp)


def simulate_transient_batch(
    template: CircuitTemplate | MnaStructure,
    params,
    t_stop,
    dt,
    method: IntegrationMethod | str = IntegrationMethod.TRAPEZOIDAL,
    initial: str | np.ndarray = "dc",
    t_start: float = 0.0,
    backend: SimulationBackend | str = "auto",
    record: Sequence | None = None,
    model: str = "full",
    rom_order: int | None = None,
    rom_error_bound: float | None = None,
) -> TransientBatchResult:
    """Step a batch of structure-identical circuits in lockstep.

    The stamp-once / re-value-many counterpart of
    :func:`simulate_transient`: the template's structure is assembled
    and analyzed once (sparsity pattern, RCM/CSC symbolic work, source
    slots), each batch point only rewrites the COO ``data`` arrays and
    refactors numerically, and the time loop advances every point
    together -- one ``(n, B)`` right-hand-side block per step, with
    points sharing identical matrices solved in a single multi-RHS
    call.  Results are identical to running :func:`simulate_transient`
    on ``template.bind(point)`` per point (the equivalence suite pins
    this to <= 1e-12 across all backends).

    Parameters
    ----------
    template:
        A :class:`~repro.spice.mna.CircuitTemplate` (or a bare
        :class:`~repro.spice.mna.MnaStructure`).
    params:
        The batch: either a mapping of parameter name to length-``B``
        value columns (scalars broadcast), or a sequence of ``B``
        per-point ``{name: value}`` mappings.  Template defaults fill
        any name not supplied.
    t_stop, dt:
        End time and maximum step, each a scalar or a length-``B``
        array.  Every point must resolve to the *same number of steps*
        (lockstep); per-point spans with a shared sample count -- e.g.
        ``dt = span / (n_samples - 1)`` -- satisfy this naturally.
    method, initial, t_start, backend:
        As in :func:`simulate_transient`; ``initial`` may also be a
        ``(B, n)`` matrix of per-point start states.
    record:
        Optional sequence of node names (or raw MNA row indices) to
        record; ``None`` records every unknown.  Recording only the
        probed nodes keeps the result at ``O(B * n_steps)`` memory for
        large systems.
    model, rom_order, rom_error_bound:
        Evaluation-model tier, as in :func:`simulate_transient`.  The
        reduced tier composes with the template split: the projection
        is built once (and cached across chunked calls), each value
        point pays only ``O(groups * q^2)`` projected revaluation, and
        under ``model="auto"`` individual points whose error estimate
        exceeds the bound are transparently re-run on the full path.

    Notes
    -----
    Each *distinct* batch point holds its numeric factorization alive
    for the whole run; for systems of many thousands of unknowns keep
    batches to a few dozen points and chunk larger sweeps (the sweep
    runner does this automatically).
    """
    from repro.rom.model import resolve_model, serve_with_tier

    method = IntegrationMethod(method)
    structure, columns, n_points = _param_columns(template, params)
    size = structure.size
    t_stop, dt, times, dt_eff = _lockstep_grid(t_start, t_stop, dt, n_points)
    n_steps = times.shape[-1] - 1
    model = resolve_model(model)
    rec_rows = _recorded_rows(structure, record)
    per_point_initial = (
        isinstance(initial, np.ndarray) and initial.shape == (n_points, size)
    )

    with obs.span(
        "transient.batch", points=n_points, steps=n_steps, method=method.value
    ) as sp:

        def full(mask):
            g_data, c_data = structure.revalue_many(
                {name: col[mask] for name, col in columns.items()}
            )
            points = g_data.shape[0]
            states, solver, n_groups = _lockstep_states(
                structure.combined_pattern(), structure.g_pattern(),
                structure.source_rows, g_data, c_data,
                times if times.ndim == 1 else times[mask], dt_eff[mask],
                method, initial[mask] if per_point_initial else initial,
                t_start, backend, rec_rows,
            )
            sp.set(n=size, backend=solver.name, groups=n_groups)
            obs.inc("spice.transient.batch_runs")
            obs.inc("spice.transient.batch_points", points)
            obs.observe(
                "spice.transient.batch_width", points, buckets=obs.COUNT_BUCKETS
            )
            obs.observe(
                "spice.transient.steps_per_run", n_steps, buckets=obs.COUNT_BUCKETS
            )
            obs.inc("spice.transient.factorizations", n_groups)
            obs.inc("spice.transient.shared_factorization_reuse", points - n_groups)
            return states

        def build():
            # One basis serves the whole batch: project at the box
            # midpoint and enrich so accuracy holds across the value
            # range, not just near one point.  On a shared time grid the
            # enrichment is POD-style -- full-path transient trajectories
            # at the box center and corners feed the basis (snapshots
            # track strongly coupled structures far better per column
            # than corner Krylov unions) -- and the snapshot collection
            # cost is paid only on a projection-cache miss.  Per-point
            # grids keep the corner-Krylov enrichment instead.
            from repro import rom

            nominal, samples = rom.corner_samples(columns)
            if not samples or times.ndim != 1:
                return rom.cached_reduced_template(
                    structure, rom_order, nominal, backend=backend,
                    sample_params=samples,
                )
            if isinstance(initial, np.ndarray):
                init_tag = ("array", initial.shape, hash(initial.tobytes()))
            else:
                init_tag = initial
            snapshot_key = (
                samples, method.value, n_steps, float(t_stop[0]),
                float(t_start), init_tag,
            )

            def snapshots():
                snap_points = [nominal] + [dict(point) for point in samples]
                cols = {
                    name: np.asarray([point[name] for point in snap_points])
                    for name in nominal
                }
                result = simulate_transient_batch(
                    structure,
                    cols,
                    float(t_stop[0]),
                    (float(t_stop[0]) - t_start) / n_steps,
                    method=method,
                    initial="dc" if per_point_initial else initial,
                    t_start=t_start,
                    backend=backend,
                    model="full",
                )
                snaps = result.states.reshape(-1, size).T
                if per_point_initial:
                    # Per-point start states cannot ride along the sample
                    # trajectories, so a spread of them joins the snapshot
                    # cloud directly (they are what z0 is projected from).
                    picks = np.unique(
                        np.linspace(0, n_points - 1, 32).astype(np.intp)
                    )
                    snaps = np.hstack([snaps, initial[picks].T])
                return snaps

            return rom.cached_reduced_template(
                structure, rom_order, nominal, backend=backend,
                snapshot_key=snapshot_key, snapshot_builder=snapshots,
            )

        def answer(reduced, estimates):
            from repro import rom

            return rom.reduced_transient_batch(
                reduced, columns, times, dt_eff, method, initial, rec_rows,
                estimates=estimates,
            )

        if model == "full":
            states = full(np.ones(n_points, dtype=bool))
        else:
            states = serve_with_tier(
                model, size, n_points, build, answer, full, rom_error_bound, sp
            )
        return TransientBatchResult(
            times=times,
            states=states,
            structure=structure,
            recorded_rows=tuple(int(r) for r in rec_rows),
        )


def _lockstep_states(
    pattern: CooMatrix,
    g_pattern: CooMatrix,
    source_rows,
    g_data: np.ndarray,
    c_data: np.ndarray,
    times: np.ndarray,
    dt_eff: np.ndarray,
    method: IntegrationMethod,
    initial,
    t_start: float,
    backend: SimulationBackend | str,
    rec_rows: np.ndarray,
) -> tuple[np.ndarray, SimulationBackend, int]:
    """Companion-model stepping of ``B`` structure-identical points.

    The one full-tier transient kernel: :func:`simulate_transient` runs
    it as a batch of one, :func:`simulate_transient_batch` on its
    revalued points (and on auto-tier fallback points).  ``pattern`` is
    the ``[G; C]`` union pattern and ``g_pattern`` the ``G`` pattern
    (only their rows/cols are read); ``g_data``/``c_data`` hold one row
    of COO values per point.  Points with identical values and step
    share one numeric factorization and one multi-RHS solve per step.
    Returns ``(states, backend, n_groups)`` with ``states`` of shape
    ``(B, n_steps + 1, len(rec_rows))``; the kernel records no
    telemetry, its callers do.
    """
    size = pattern.shape[0]
    n_points = g_data.shape[0]
    n_steps = times.shape[-1] - 1
    shared_grid = times.ndim == 1
    backend = resolve_backend(backend, pattern)
    factorizer = backend.factorizer(pattern)

    if method is IntegrationMethod.BACKWARD_EULER:
        weight = 1.0 / dt_eff
        g_hist_sign = 0.0
    else:
        weight = 2.0 / dt_eff
        g_hist_sign = -1.0

    group_of: dict[tuple, int] = {}
    group_members: list[list[int]] = []
    for j in range(n_points):
        key = (g_data[j].tobytes(), c_data[j].tobytes(), float(dt_eff[j]))
        slot = group_of.setdefault(key, len(group_members))
        if slot == len(group_members):
            group_members.append([])
        group_members[slot].append(j)

    # Factor the stepping matrices before the initial-state solve: the
    # banded backend memoizes its last RCM profile, and the DC solve's
    # different G-only pattern would otherwise evict the profile that
    # resolve_backend("auto") just seeded for the LHS.
    csr_map = _PatternCsr(pattern)
    groups = []
    for members in group_members:
        j = members[0]
        lhs = np.concatenate([g_data[j], weight[j] * c_data[j]])
        hist = np.concatenate([g_hist_sign * g_data[j], weight[j] * c_data[j]])
        try:
            fact = factorizer.refactorize(lhs)
        except SimulationError as exc:
            raise SimulationError(
                f"singular transient system matrix (backend={backend.name})"
                f"{_at_point(j, n_points)}"
            ) from exc
        groups.append((members, fact, csr_map.matrix(hist)))

    # States live as (B, n): each point's vector is one contiguous row.
    x = _initial_states(
        g_pattern, source_rows, g_data, initial, t_start, backend, group_members
    )
    states = np.empty((n_points, n_steps + 1, rec_rows.size))
    states[:, 0, :] = x[:, rec_rows]

    if shared_grid:
        b_all = _rhs_matrix(source_rows, size, times)  # (n_steps + 1, size)
    else:
        b_prev = _rhs_matrix(source_rows, size, times[:, 0])  # (B, size)

    trapezoidal = method is IntegrationMethod.TRAPEZOIDAL
    for k in range(n_steps):
        if shared_grid:
            b_term = b_all[k + 1] + b_all[k] if trapezoidal else b_all[k + 1]
        else:
            b_next = _rhs_matrix(source_rows, size, times[:, k + 1])
            b_term = b_next + b_prev if trapezoidal else b_next
            b_prev = b_next
        x_next = np.empty_like(x)
        for members, fact, hist_op in groups:
            if len(members) == 1:
                j = members[0]
                rhs = hist_op @ x[j]
                rhs += b_term if shared_grid else b_term[j]
                x_next[j] = fact.solve(rhs)
            else:
                rhs = hist_op @ x[members].T
                if shared_grid:
                    rhs += b_term[:, None]
                else:
                    rhs += b_term[members].T
                x_next[members] = fact.solve_many(rhs).T
        x = x_next
        states[:, k + 1, :] = x[:, rec_rows]

    if not (np.all(np.isfinite(states)) and np.all(np.isfinite(x))):
        raise SimulationError(
            "transient solution diverged (non-finite values); reduce dt"
        )
    return states, backend, len(groups)


def _rhs_matrix(source_rows, size: int, times: np.ndarray) -> np.ndarray:
    """``b(t)`` rows for an array of times, shape ``(len(times), size)``."""
    b = np.zeros((times.size, size))
    for row, sign, waveform in source_rows:
        b[:, row] += sign * np.asarray(waveform(times), dtype=float)
    return b


def _initial_states(
    g_pattern: CooMatrix,
    source_rows,
    g_data: np.ndarray,
    initial,
    t_start: float,
    backend: SimulationBackend,
    group_members: list[list[int]],
) -> np.ndarray:
    """Per-point start states as a ``(B, n)`` matrix (one row per point)."""
    size = g_pattern.shape[0]
    n_points = g_data.shape[0]
    if isinstance(initial, np.ndarray):
        if initial.shape == (size,):
            return np.repeat(initial.astype(float)[None, :], n_points, axis=0)
        if initial.shape == (n_points, size):
            return initial.astype(float).copy()
        raise ParameterError(
            f"initial state must have shape ({size},) or ({n_points}, {size}), "
            f"got {initial.shape}"
        )
    if initial == "zero":
        return np.zeros((n_points, size))
    if initial != "dc":
        raise ParameterError(
            f"initial must be 'zero', 'dc' or a vector, got {initial!r}"
        )
    g_factorizer = backend.factorizer(g_pattern)
    b0 = np.zeros(size)
    for row, sign, waveform in source_rows:
        b0[row] += sign * waveform.value_at(t_start)
    x = np.empty((n_points, size))
    solved: dict[bytes, np.ndarray] = {}
    for members in group_members:
        j = members[0]
        key = g_data[j].tobytes()
        x0 = solved.get(key)
        if x0 is None:
            try:
                x0 = g_factorizer.refactorize(g_data[j]).solve(b0)
            except SimulationError as exc:
                raise SimulationError(
                    "singular DC system while computing the initial operating "
                    f"point{_at_point(j, n_points)}; pass initial='zero' or an "
                    "explicit state"
                ) from exc
            solved[key] = x0
        x[members] = x0[None, :]
    return x
