"""Small-signal AC analysis.

Solves the phasor system ``(G + j*omega*C) X = B`` over a frequency sweep,
with every independent source replaced by its AC magnitude (unit for the
designated input source, zero for the rest -- the classic SPICE ``.AC``
semantics with a single stimulated source).

Each frequency point assembles ``G + j*omega*C`` directly in triplet
form and factors it through a pluggable
:class:`~repro.spice.backend.SimulationBackend`; no dense matrix is
ever rebuilt per frequency unless the dense backend itself is the best
fit.  The backend is resolved once per sweep from the (frequency
independent) union pattern of ``G`` and ``C``, so a 1000-segment ladder
sweep runs on the banded or sparse path end to end.

:func:`ac_sweep` is :func:`ac_sweep_batch` at one point: both run one
body, so the tiers, the ``model="auto"`` estimator and the grid checks
cannot drift apart.

The primary use here is validation: the AC response of an ``n``-segment
ladder must match the cascaded lumped two-port of :mod:`repro.tline.abcd`
exactly, and must converge to the exact distributed line as ``n`` grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.errors import NetlistError, ParameterError, SimulationError
from repro.spice.backend import CooMatrix, SimulationBackend, resolve_backend
from repro.spice.mna import CircuitTemplate, MnaStructure, build_mna_structure
from repro.spice.netlist import Circuit, VoltageSource, canonical_node

__all__ = ["AcResult", "AcBatchResult", "ac_sweep", "ac_sweep_batch"]


@dataclass(frozen=True)
class AcResult:
    """Complex node spectra from an AC sweep."""

    omegas: np.ndarray
    states: np.ndarray  # shape (len(omegas), n_unknowns), complex
    node_index: dict[str, int]
    branch_index: dict[str, int]

    def voltage(self, node) -> np.ndarray:
        """Complex voltage spectrum of ``node``."""
        from repro.spice.netlist import GROUND, canonical_node

        name = canonical_node(node)
        if name == GROUND:
            return np.zeros_like(self.omegas, dtype=complex)
        try:
            return self.states[:, self.node_index[name]].copy()
        except KeyError:
            raise NetlistError(f"unknown node {name!r}") from None

    def current(self, element_name: str) -> np.ndarray:
        """Complex branch-current spectrum (V sources, inductors, ...)."""
        try:
            return self.states[:, self.branch_index[element_name]].copy()
        except KeyError:
            raise NetlistError(
                f"element {element_name!r} has no branch current"
            ) from None

    def transfer(self, node_out, node_in) -> np.ndarray:
        """``V(node_out) / V(node_in)`` across the sweep."""
        vin = self.voltage(node_in)
        if np.any(vin == 0):
            raise SimulationError("input node has zero AC voltage at some point")
        return self.voltage(node_out) / vin


def ac_sweep(
    circuit: Circuit,
    omegas,
    input_source: str | None = None,
    backend: SimulationBackend | str = "auto",
    model: str = "full",
    rom_order: int | None = None,
    rom_error_bound: float | None = None,
) -> AcResult:
    """Run an AC sweep over angular frequencies ``omegas``.

    Parameters
    ----------
    circuit:
        The netlist.  Exactly one voltage source is stimulated with unit
        magnitude; the others are shorted (zero AC value).
    omegas:
        Angular frequencies (rad/s): a finite, non-empty scalar or 1-D
        grid; zero is allowed if the DC system is nonsingular.
    input_source:
        Name of the stimulated voltage source.  May be omitted when the
        circuit contains exactly one voltage source.
    backend:
        Linear-solver implementation (``"auto"``, ``"dense"``,
        ``"sparse"``, ``"banded"``, or a
        :class:`~repro.spice.backend.SimulationBackend` instance),
        shared by every frequency point.
    model:
        Evaluation-model tier: ``"full"`` (default; per-frequency
        factorizations of ``G + j*omega*C``), ``"reduced"`` (phasor
        solves on a PRIMA projection, see :mod:`repro.rom`), or
        ``"auto"`` (reduced for large systems when the nested-suborder
        convergence defect stays under ``rom_error_bound``, full
        otherwise; the decision is recorded as a
        :class:`~repro.rom.model.ModelSelection`).
    rom_order:
        Reduced order ``q`` for the non-full tiers (default
        :data:`repro.rom.prima.DEFAULT_ORDER`).
    rom_error_bound:
        Error bound the ``"auto"`` tier enforces before serving a
        reduced answer (default
        :data:`repro.rom.model.DEFAULT_ERROR_BOUND`).

    Notes
    -----
    A batch of one: the circuit's parameter-free MNA structure runs
    through the body of :func:`ac_sweep_batch` (every tier, every
    estimate) and point 0 is returned.
    """
    source = _resolve_input_source(circuit, input_source)
    structure = build_mna_structure(circuit)
    if structure.param_names:
        raise NetlistError(
            f"circuit has unbound parameters {list(structure.param_names)}; "
            "use ac_sweep_batch with a CircuitTemplate (or bind values)"
        )
    batch = _ac_batch(
        structure, {}, 1, omegas, source, backend, None, model,
        rom_order, rom_error_bound,
    )
    return AcResult(
        omegas=batch.omegas,
        states=batch.states[0],
        node_index=dict(structure.node_index),
        branch_index=dict(structure.branch_index),
    )


def _resolve_input_source(circuit: Circuit, input_source: str | None) -> str:
    """Pick (or validate) the stimulated voltage source's name."""
    v_sources = [e for e in circuit.elements if isinstance(e, VoltageSource)]
    if input_source is None:
        if len(v_sources) != 1:
            raise NetlistError(
                "input_source must be named when the circuit has "
                f"{len(v_sources)} voltage sources"
            )
        return v_sources[0].name
    if input_source not in {e.name for e in v_sources}:
        raise NetlistError(f"no voltage source named {input_source!r}")
    return input_source


def _frequency_grid(omegas) -> np.ndarray:
    """The validated angular-frequency grid: finite, non-empty, 1-D."""
    grid = np.asarray(omegas, dtype=float)
    if grid.ndim == 0:
        grid = grid[None]
    if grid.ndim != 1 or grid.size == 0:
        raise ParameterError(
            "omegas must be a non-empty scalar or 1-D grid, got shape "
            f"{grid.shape}"
        )
    if not np.all(np.isfinite(grid)):
        raise ParameterError("omegas must be finite")
    return grid


@dataclass(frozen=True)
class AcBatchResult:
    """Complex node spectra for a batch of structure-identical circuits.

    Attributes
    ----------
    omegas:
        The shared angular-frequency grid, shape ``(F,)``.
    states:
        Solutions of shape ``(B, F, R)`` where ``R`` is the number of
        recorded MNA rows (all of them unless ``record`` was given).
    structure:
        The shared :class:`~repro.spice.mna.MnaStructure`.
    recorded_rows:
        MNA row index of each recorded column, in column order.
    """

    omegas: np.ndarray
    states: np.ndarray
    structure: MnaStructure
    recorded_rows: tuple[int, ...]

    @property
    def n_points(self) -> int:
        """Number of batch points ``B``."""
        return self.states.shape[0]

    def _column(self, row: int) -> int:
        try:
            return self.recorded_rows.index(row)
        except ValueError:
            raise ParameterError(
                f"MNA row {row} was not recorded; pass it in record= "
                "(or record everything with record=None)"
            ) from None

    def voltage(self, node) -> np.ndarray:
        """Complex voltage spectra ``(B, F)`` of one node (ground is 0)."""
        from repro.spice.netlist import GROUND

        if canonical_node(node) == GROUND:
            return np.zeros(self.states.shape[:2], dtype=complex)
        col = self._column(self.structure.voltage_row(node))
        return self.states[:, :, col].copy()

    def current(self, element_name: str) -> np.ndarray:
        """Complex branch-current spectra ``(B, F)`` of one element."""
        col = self._column(self.structure.current_row(element_name))
        return self.states[:, :, col].copy()

    def transfer(self, node_out, node_in) -> np.ndarray:
        """``V(node_out) / V(node_in)`` per point, shape ``(B, F)``."""
        vin = self.voltage(node_in)
        if np.any(vin == 0):
            raise SimulationError("input node has zero AC voltage at some point")
        return self.voltage(node_out) / vin


def ac_sweep_batch(
    template: CircuitTemplate,
    params,
    omegas,
    input_source: str | None = None,
    backend: SimulationBackend | str = "auto",
    record: Sequence | None = None,
    model: str = "full",
    rom_order: int | None = None,
    rom_error_bound: float | None = None,
) -> AcBatchResult:
    """Run an AC sweep over a batch of structure-identical circuits.

    The stamp-once / re-value-many counterpart of :func:`ac_sweep`:
    the template's MNA structure, the backend choice, and the
    pattern-dependent factorization work are all shared across every
    ``(point, frequency)`` pair; each pair pays only a numeric
    refactorization of the revalued ``G + j*omega*C`` data.  Results
    match per-point :func:`ac_sweep` runs over ``template.bind(point)``
    to <= 1e-12 on every backend (pinned by the equivalence suite).

    Parameters
    ----------
    template:
        The parameterized circuit
        (:class:`~repro.spice.mna.CircuitTemplate`).
    params:
        Batch parameter values: a mapping of name to length-``B``
        columns (scalars broadcast) or a sequence of per-point dicts;
        template defaults fill missing names.
    omegas:
        Angular frequencies (rad/s), shared by every point and checked
        as in :func:`ac_sweep`.
    input_source:
        Stimulated voltage source name; may be omitted when the
        template has exactly one voltage source.
    backend:
        Linear-solver implementation, resolved once on the union
        pattern.
    record:
        Optional node names (or MNA row indices) to record; ``None``
        records every unknown.
    model, rom_order, rom_error_bound:
        Evaluation-model tier, as in :func:`ac_sweep`.  The reduced
        tier composes with the template split: the projection is built
        once per structure (cached across calls, enriched at the value
        box corners), every ``(point, frequency)`` pair is a dense
        ``q x q`` phasor solve, and under ``model="auto"`` individual
        points whose nested-suborder convergence defect exceeds the
        bound are transparently re-run on the full path.
    """
    from repro.spice.transient import _param_columns

    if not isinstance(template, CircuitTemplate):
        raise ParameterError(
            f"ac_sweep_batch needs a CircuitTemplate, got {template!r}"
        )
    structure, columns, n_points = _param_columns(template, params)
    return _ac_batch(
        structure, columns, n_points, omegas,
        _resolve_input_source(template.circuit, input_source), backend,
        record, model, rom_order, rom_error_bound,
    )


def _ac_batch(
    structure: MnaStructure,
    columns: dict[str, np.ndarray],
    n_points: int,
    omegas,
    input_source: str,
    backend: SimulationBackend | str,
    record: Sequence | None,
    model: str,
    rom_order: int | None,
    rom_error_bound: float | None,
) -> AcBatchResult:
    """The one AC body: every tier of :func:`ac_sweep_batch`.

    ``columns`` holds the ``n_points``-long parameter columns (empty for
    a parameter-free structure, which :func:`ac_sweep` runs as a batch
    of one); ``input_source`` is the already resolved source name.
    """
    from repro.rom.model import resolve_model, serve_with_tier
    from repro.rom.prima import _ac_batch_solve, _suborder_estimates
    from repro.spice.transient import _recorded_rows

    model = resolve_model(model)
    omegas = _frequency_grid(omegas)
    with obs.span(
        "ac.batch", points=n_points, frequencies=omegas.size
    ) as sp:
        input_row = structure.current_row(input_source)
        rec_rows = _recorded_rows(structure, record)

        def full(mask):
            g_data, c_data = structure.revalue_many(
                {name: col[mask] for name, col in columns.items()}
            )
            points = g_data.shape[0]
            states, solver, shared_reuse = _phasor_states(
                structure.combined_pattern(), g_data, c_data, omegas,
                input_row, backend, rec_rows,
            )
            sp.set(n=structure.size, backend=solver.name)
            obs.inc("spice.ac.batch_runs")
            obs.inc("spice.ac.batch_points", points)
            obs.observe("spice.ac.batch_width", points, buckets=obs.COUNT_BUCKETS)
            if shared_reuse:
                obs.inc("spice.ac.shared_sweep_reuse", shared_reuse)
            return states

        def build():
            # Projected at the value box midpoint, Krylov-enriched at its
            # corners, and cached, so repeated sweeps over one structure
            # pay the build once.
            from repro import rom

            nominal, samples = rom.corner_samples(columns)
            return rom.cached_reduced_template(
                structure, rom_order, nominal, backend=backend,
                sample_params=samples,
            )

        def answer(reduced, estimates):
            rom = reduced.rom
            gq, cq = reduced.reduce_many(columns)
            vq = rom.projected_unit_rhs(input_row)
            rec_basis = rom.basis[rec_rows]

            def solve(q: int) -> np.ndarray:
                z = _ac_batch_solve(gq[:, :q, :q], cq[:, :q, :q], vq[:q], omegas)
                return z @ rec_basis[:, :q].T

            states = solve(rom.order)
            return states, (
                _suborder_estimates(rom, states, solve) if estimates else None
            )

        if model == "full":
            states = full(np.ones(n_points, dtype=bool))
        else:
            states = serve_with_tier(
                model, structure.size, n_points, build, answer, full,
                rom_error_bound, sp,
            )
        return AcBatchResult(
            omegas=omegas,
            states=states,
            structure=structure,
            recorded_rows=tuple(int(r) for r in rec_rows),
        )


def _phasor_states(
    pattern: CooMatrix,
    g_data: np.ndarray,
    c_data: np.ndarray,
    omegas: np.ndarray,
    input_row: int,
    backend: SimulationBackend | str,
    rec_rows: np.ndarray,
) -> tuple[np.ndarray, SimulationBackend, int]:
    """Full-tier phasor solves of ``B`` structure-identical points.

    The one full-tier AC kernel, run on the revalued points of
    :func:`_ac_batch` (and on its auto-tier fallback points).  ``pattern`` is the ``[G; C]`` union pattern (only
    its rows/cols are read), so the backend is resolved once and every
    ``(point, frequency)`` pair pays only a numeric refactorization of
    ``G + j*omega*C``; points with identical values reuse the first
    one's spectra.  Returns ``(states, backend, shared_reuse)`` with
    ``states`` of shape ``(B, F, R)``; the reuse count is tallied
    locally and reported by the caller so the kernel stays free of
    instrumentation (OBS001).
    """
    from repro.spice.transient import _at_point

    backend = resolve_backend(backend, pattern)
    factorizer = backend.factorizer(pattern)
    b = np.zeros(pattern.shape[0], dtype=complex)
    b[input_row] = 1.0

    n_points = g_data.shape[0]
    states = np.empty((n_points, omegas.size, rec_rows.size), dtype=complex)
    seen: dict[bytes, int] = {}
    shared_reuse = 0
    for j in range(n_points):
        key = g_data[j].tobytes() + c_data[j].tobytes()
        first = seen.setdefault(key, j)
        if first != j:
            states[j] = states[first]
            shared_reuse += 1
            continue
        g_j = g_data[j].astype(complex)
        c_j = c_data[j]
        for k, w in enumerate(omegas):
            data = np.concatenate([g_j, 1j * w * c_j])
            try:
                x = factorizer.refactorize(data).solve(b)
            except SimulationError as exc:
                raise SimulationError(
                    f"singular AC system at omega = {w:g}{_at_point(j, n_points)}"
                ) from exc
            states[j, k] = x[rec_rows]
    return states, backend, shared_reuse
