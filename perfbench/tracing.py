"""Layer-boundary tracing from outside the program.

The tracer rebinds the public functions and methods of each layer (see
``BOUNDARIES``) to timing wrappers while a traced query runs, and
restores the originals afterwards; nothing under ``src/`` changes.  A
boundary is wrapped where its caller looks it up: every ``repro``
module attribute bound to the function, a class attribute for methods,
or the registry entry (``laplace._METHODS``, ``runner.QUANTITIES``)
the caller indexes.

Each wrapped call is a frame on one stack.  Spanned boundaries also
append a span ``(name, start, end, parent span, query id)``; per-step
boundaries (backend solves, thousands per query) only add a count and
their time, folded into the enclosing span.  Self time is a frame's
duration minus the duration of its child frames.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple

FALLBACK_RULES = ("auto-error-fallback", "auto-build-fallback")

#: Program counters read through ``obs.capture()`` and the wrapper
#: count each must equal exactly (totals over setup and queries).
COUNTERS = (
    ("spice.backend.solve", "spice.backend.solve.calls"),
    ("spice.backend.solve_many", "spice.backend.solve_many.calls"),
    ("spice.backend.factorize", "spice.backend.factorize.calls"),
    ("spice.backend.refactorize", "spice.backend.refactorize.calls"),
    ("spice.transient.steps", "spice.transient.simulate_transient.full_steps"),
    ("rom.projection_builds", "rom.prima.prima_reduce.calls"),
    ("rom.projection_reuse", "rom.prima.cached_reduced_template.reused"),
    ("rom.fallbacks", "rom.model.record_model_selection.fallbacks"),
)


class _Frame:
    __slots__ = ("boundary", "span", "child_s", "duration", "note")

    def __init__(self, boundary: str, span) -> None:
        self.boundary = boundary
        self.span = span
        self.child_s = 0.0
        self.duration = 0.0
        self.note = None


def _enclosing(stack, boundary: str):
    for frame in reversed(stack):
        if frame.boundary == boundary:
            return frame
    return None


# -- what each boundary counts besides calls and time -----------------------


def _count_samples(bucket, args, kwargs, result, frame, stack):
    bucket["samples"] += len(result)


def _count_s_points(bucket, args, kwargs, result, frame, stack):
    bucket["s_points"] += result.size


def _count_revalue_points(bucket, args, kwargs, result, frame, stack):
    bucket["points"] += result[0].shape[0]


def _count_rhs(bucket, args, kwargs, result, frame, stack):
    bucket["rhs"] += result.shape[1] if result.ndim > 1 else 1


def _mark_factorize(bucket, args, kwargs, result, frame, stack):
    outer = _enclosing(stack, "spice.backend.factorize")
    if outer is not None:
        outer.note = "refactorized"


def _count_own_factorize(bucket, args, kwargs, result, frame, stack):
    if frame.note is None:
        bucket["own"] += 1


def _count_scalar_steps(bucket, args, kwargs, result, frame, stack):
    steps = result.times.size - 1
    bucket["steps"] += steps
    if frame.note != "reduced":
        bucket["full_steps"] += steps


def _count_batch_steps(bucket, args, kwargs, result, frame, stack):
    bucket["steps"] += result.n_steps
    bucket["batch_points"] += result.n_points


def _count_order(bucket, args, kwargs, result, frame, stack):
    bucket["order"] = max(bucket["order"], result.order)


def _count_reuse(bucket, args, kwargs, result, frame, stack):
    if frame.note is None:
        bucket["reused"] += 1


def _mark_build(bucket, args, kwargs, result, frame, stack):
    _count_order(bucket, args, kwargs, result, frame, stack)
    outer = _enclosing(stack, "rom.prima.cached_reduced_template")
    if outer is not None:
        outer.note = "built"


def _count_rows(bucket, args, kwargs, result, frame, stack):
    bucket["rows"] += result.shape[-1]


def _count_selection(bucket, args, kwargs, result, frame, stack):
    n = args[1] if len(args) > 1 else kwargs.get("n", 1)
    if result.rule.startswith("auto"):
        bucket["auto"] += n
    if result.rule in FALLBACK_RULES:
        bucket["fallbacks"] += n
    outer = _enclosing(stack, "spice.transient.simulate_transient")
    if outer is not None:
        outer.note = result.model


def _count_points(bucket, args, kwargs, result, frame, stack):
    bucket["points"] += result[0].size


def _count_cache_outcome(bucket, args, kwargs, result, frame, stack):
    bucket["cold_s" if result.cache_hit is None else "replay_s"] += frame.duration


# -- where each boundary lives and where it must fire ------------------------
#
# ``kind`` says how the boundary is wrapped:
#   function  -- a module-level function, rebound in every repro module
#   factory   -- a function returning a closure; the closure is traced
#   registry  -- a dict value the caller indexes (attribute "table.key")
#   method    -- a method on one class (attribute "Class.method")
#   override  -- a method on a base class and every subclass defining it
#   quantity  -- the kernel of every sweep quantity in runner.QUANTITIES
# ``fires_on`` names the workloads on which the boundary must fire (set-up
# included); on every other workload it must not.  The reachability test
# checks this against traced runs.  Unspanned boundaries (per-step backend
# solves) add a count and their time but no span.


class Boundary(NamedTuple):
    name: str
    kind: str
    module: str
    attribute: str
    fires_on: frozenset
    spanned: bool = True
    measure: Callable | None = None
    #: Module attribute of an ``lru_cache`` function whose misses during
    #: the call count as ``builds`` (cache hits build nothing).
    cache: str | None = None


LINE, LADDER, BUS, SWEEP = "line-delay", "ladder-tiers", "bus-sweep", "sweep-cache"


def _on(*workloads) -> frozenset:
    return frozenset(workloads)


BOUNDARIES = (
    Boundary("core.simulate.simulated_delay_50",
             "function", "repro.core.simulate", "simulated_delay_50",
             _on(LINE)),
    Boundary("core.simulate.simulated_step_waveform",
             "function", "repro.core.simulate", "simulated_step_waveform",
             _on(LINE, LADDER)),
    Boundary("tline.laplace.dehoog",
             "registry", "repro.tline.laplace", "_METHODS.dehoog",
             _on(LINE), measure=_count_samples),
    Boundary("tline.transfer.F",
             "factory", "repro.tline.transfer", "line_transfer_function",
             _on(LINE), measure=_count_s_points),
    Boundary("tline.waveform.Waveform.delay_50",
             "method", "repro.tline.waveform", "Waveform.delay_50",
             _on(LINE, LADDER)),
    Boundary("spice.statespace.simulate_step",
             "function", "repro.spice.statespace", "simulate_step",
             _on(LINE)),
    Boundary("spice.ladder.build_ladder_state_space",
             "function", "repro.spice.ladder", "build_ladder_state_space",
             _on(LINE)),
    Boundary("spice.ladder.build_ladder_circuit",
             "function", "repro.spice.ladder", "build_ladder_circuit",
             _on(LADDER)),
    Boundary("spice.ladder.build_ladder_template",
             "function", "repro.spice.ladder", "build_ladder_template",
             _on(LADDER), cache="build_ladder_template"),
    Boundary("bus.builder.build_bus_template",
             "function", "repro.bus.builder", "build_bus_template",
             _on(BUS), cache="_cached_bus_template"),
    Boundary("spice.mna.build_mna_structure",
             "function", "repro.spice.mna", "build_mna_structure",
             _on(LADDER, BUS)),
    Boundary("spice.mna.build_mna",
             "function", "repro.spice.mna", "build_mna",
             _on(LADDER)),
    Boundary("spice.mna.MnaStructure.revalue",
             "method", "repro.spice.mna", "MnaStructure.revalue",
             _on(LADDER, BUS)),
    Boundary("spice.mna.MnaStructure.revalue_many",
             "method", "repro.spice.mna", "MnaStructure.revalue_many",
             _on(BUS), measure=_count_revalue_points),
    Boundary("spice.backend.resolve_backend",
             "function", "repro.spice.backend", "resolve_backend",
             _on(LADDER, BUS)),
    Boundary("spice.backend.factorize",
             "override", "repro.spice.backend", "SimulationBackend.factorize",
             _on(LADDER, BUS), measure=_count_own_factorize),
    Boundary("spice.backend.refactorize",
             "override", "repro.spice.backend", "PatternFactorizer.refactorize",
             _on(LADDER, BUS), measure=_mark_factorize),
    Boundary("spice.backend.solve",
             "override", "repro.spice.backend", "LinearFactorization.solve",
             _on(LADDER, BUS), spanned=False),
    Boundary("spice.backend.solve_many",
             "override", "repro.spice.backend", "LinearFactorization.solve_many",
             _on(LADDER, BUS), spanned=False, measure=_count_rhs),
    Boundary("spice.transient.simulate_transient",
             "function", "repro.spice.transient", "simulate_transient",
             _on(LADDER), measure=_count_scalar_steps),
    Boundary("spice.transient.simulate_transient_batch",
             "function", "repro.spice.transient", "simulate_transient_batch",
             _on(BUS), measure=_count_batch_steps),
    Boundary("rom.prima.prima_reduce",
             "function", "repro.rom.prima", "prima_reduce",
             _on(LADDER, BUS), measure=_mark_build),
    Boundary("rom.prima.cached_reduced_template",
             "function", "repro.rom.prima", "cached_reduced_template",
             _on(BUS), measure=_count_reuse),
    Boundary("rom.prima.ReducedSystem.transient",
             "method", "repro.rom.prima", "ReducedSystem.transient",
             _on(LADDER)),
    Boundary("rom.prima.reduced_transient_batch",
             "function", "repro.rom.prima", "reduced_transient_batch",
             _on(BUS)),
    Boundary("rom.prima.ReducedTemplate.reduce_many",
             "method", "repro.rom.prima", "ReducedTemplate.reduce_many",
             _on(BUS)),
    Boundary("rom.prima.ReducedSystem.reconstruct",
             "method", "repro.rom.prima", "ReducedSystem.reconstruct",
             _on(LADDER), measure=_count_rows),
    Boundary("rom.model.record_model_selection",
             "function", "repro.rom.model", "record_model_selection",
             _on(LADDER, BUS), measure=_count_selection),
    Boundary("analysis.bus.batch_delay_50",
             "function", "repro.analysis.bus", "batch_delay_50",
             _on(BUS)),
    Boundary("sweep.kernels.quantity",
             "quantity", "repro.sweep.runner", "QUANTITIES",
             _on(SWEEP), measure=_count_points),
    Boundary("sweep.runner.SweepRunner.run",
             "method", "repro.sweep.runner", "SweepRunner.run",
             _on(SWEEP), measure=_count_cache_outcome),
)


class Tracer:
    """Wraps the layer boundaries and folds calls into spans and buckets.

    ``install()`` / ``uninstall()`` bracket each traced query; the
    buckets (``stats[phase][boundary]``) accumulate across queries, with
    ``phase`` either ``"setup"`` or ``"query"``.
    """

    def __init__(self) -> None:
        for boundary in BOUNDARIES:
            importlib.import_module(boundary.module)
        self.spans: list = []
        self.stats = {
            "setup": defaultdict(lambda: defaultdict(float)),
            "query": defaultdict(lambda: defaultdict(float)),
        }
        self.root_s = defaultdict(float)
        self.missing: list[str] = []
        self.query = "setup"
        self._stack: list[_Frame] = []
        self._undo: list = []
        self._refs = defaultdict(list)
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for attr, value in vars(module).items():
                    self._refs[id(value)].append((module, attr))

    @property
    def phase(self) -> str:
        return "setup" if self.query == "setup" else "query"

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, boundary, fn, spanned, measure, cache=None):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if spanned:
                span = len(spans)
                spans.append(None)
            else:
                span = parent.span if parent is not None else None
            frame = _Frame(boundary, span)
            stack.append(frame)
            misses = cache.cache_info().misses if cache is not None else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = frame.duration = end - start
                bucket = self.stats[self.phase][boundary]
                bucket["calls"] += 1
                if cache is not None:
                    bucket["builds"] += cache.cache_info().misses - misses
                bucket["self_s"] += duration - frame.child_s
                if parent is not None:
                    parent.child_s += duration
                else:
                    self.root_s[self.phase] += duration
                if spanned:
                    spans[span] = (
                        boundary, start, end,
                        parent.span if parent is not None else None,
                        self.query,
                    )
            if measure is not None:
                measure(bucket, args, kwargs, result, frame, stack)
            return result

        traced.__name__ = getattr(fn, "__name__", boundary)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _set(self, owner, attr, value, setter=setattr) -> None:
        old = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        setter(owner, attr, value)
        self._undo.append(lambda: setter(owner, attr, old))

    def _rebind(self, original, replacement) -> None:
        for module, attr in self._refs[id(original)]:
            if vars(module).get(attr) is original:
                self._set(module, attr, replacement)

    def _install_one(self, spec: Boundary) -> None:
        boundary, kind, module_name, attribute = spec[:4]
        spanned, measure = spec.spanned, spec.measure
        module = sys.modules[module_name]
        if kind == "function":
            original = getattr(module, attribute)
            cache = getattr(module, spec.cache) if spec.cache else None
            self._rebind(original, self._wrap(boundary, original, spanned, measure, cache))
        elif kind == "factory":
            original = getattr(module, attribute)

            def factory(*args, **kwargs):
                return self._wrap(boundary, original(*args, **kwargs), spanned, measure)

            self._rebind(original, factory)
        elif kind == "registry":
            table_name, key_name = attribute.split(".")
            table = getattr(module, table_name)
            target = getattr(module, key_name)
            keys = [key for key, value in table.items() if value is target]
            if not keys:
                raise AttributeError(f"{attribute} not in {module_name}")
            for key in keys:
                self._set(table, key, self._wrap(boundary, target, spanned, measure),
                          setter=dict.__setitem__)
        elif kind in ("method", "override"):
            class_name, method = attribute.split(".")
            base = getattr(module, class_name)
            classes = [base]
            if kind == "override":
                pending = [base]
                while pending:
                    for sub in pending.pop().__subclasses__():
                        classes.append(sub)
                        pending.append(sub)
            wrapped = 0
            for cls in classes:
                original = cls.__dict__.get(method)
                if original is None or getattr(original, "__isabstractmethod__", False):
                    continue
                self._set(cls, method, self._wrap(boundary, original, spanned, measure))
                wrapped += 1
            if not wrapped:
                raise AttributeError(f"{attribute} not in {module_name}")
        elif kind == "quantity":
            table = getattr(module, attribute)
            for key, quantity in list(table.items()):
                if quantity.fn is not None:
                    traced_fn = self._wrap(boundary, quantity.fn, spanned, measure)
                    self._set(table, key, dataclasses.replace(quantity, fn=traced_fn),
                              setter=dict.__setitem__)

    def install(self, query) -> None:
        """Wrap every boundary; calls are attributed to ``query``."""
        self.query = query
        for spec in BOUNDARIES:
            try:
                self._install_one(spec)
            except (AttributeError, KeyError, ValueError):
                if spec.name not in self.missing:
                    self.missing.append(spec.name)

    def uninstall(self) -> None:
        """Restore every original, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- folding ------------------------------------------------------------

    def totals(self) -> dict:
        """Exact totals over setup and queries: ``{boundary.field: value}``."""
        out: dict = defaultdict(float)
        for phase in ("setup", "query"):
            for boundary, bucket in self.stats[phase].items():
                for field, value in bucket.items():
                    if field == "order":
                        out[f"{boundary}.order"] = max(out[f"{boundary}.order"], value)
                    else:
                        out[f"{boundary}.{field}"] += value
        return dict(out)

    def span_records(self) -> list[dict]:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "query": s[4]}
            for s in self.spans
            if s is not None
        ]


def fold_layers(stats, n_queries: int) -> dict:
    """Per-layer metrics per traced query (setup excluded)."""

    def get(boundary, field="calls"):
        return stats.get(boundary, {}).get(field, 0.0)

    def self_s(*boundaries):
        return sum(get(b, "self_s") for b in boundaries)

    n = max(n_queries, 1)
    samples = get("tline.laplace.dehoog", "samples")
    solves = get("spice.backend.solve") + get("spice.backend.solve_many")
    factorizations = get("spice.backend.refactorize") + get("spice.backend.factorize", "own")
    cached = get("rom.prima.cached_reduced_template")
    auto = get("rom.model.record_model_selection", "auto")
    runner = "sweep.runner.SweepRunner.run"
    layer = {
        "tline.laplace.calls": get("tline.laplace.dehoog") / n,
        "tline.laplace.samples": samples / n,
        "tline.laplace.self_s": self_s("tline.laplace.dehoog") / n,
        "tline.laplace.us_per_sample": (
            1e6 * self_s("tline.laplace.dehoog") / samples if samples else 0.0
        ),
        "tline.transfer.s_points": get("tline.transfer.F", "s_points") / n,
        "tline.transfer.self_s": self_s("tline.transfer.F") / n,
        "spice.statespace.calls": get("spice.statespace.simulate_step") / n,
        "spice.statespace.self_s": self_s("spice.statespace.simulate_step") / n,
        "core.simulate.calls": (
            get("core.simulate.simulated_delay_50")
            + get("core.simulate.simulated_step_waveform")
        ) / n,
        "core.simulate.self_s": self_s(
            "core.simulate.simulated_delay_50", "core.simulate.simulated_step_waveform"
        ) / n,
        "tline.waveform.calls": get("tline.waveform.Waveform.delay_50") / n,
        "tline.waveform.self_s": self_s("tline.waveform.Waveform.delay_50") / n,
        "spice.ladder.builds": (
            get("spice.ladder.build_ladder_state_space")
            + get("spice.ladder.build_ladder_circuit")
            + get("spice.ladder.build_ladder_template", "builds")
        ) / n,
        "spice.ladder.self_s": self_s(
            "spice.ladder.build_ladder_state_space",
            "spice.ladder.build_ladder_circuit",
            "spice.ladder.build_ladder_template",
        ) / n,
        "bus.builder.builds": get("bus.builder.build_bus_template", "builds") / n,
        "bus.builder.self_s": self_s("bus.builder.build_bus_template") / n,
        "spice.mna.structure_builds": get("spice.mna.build_mna_structure") / n,
        "spice.mna.structure_self_s": self_s(
            "spice.mna.build_mna_structure", "spice.mna.build_mna"
        ) / n,
        "spice.mna.revalue_points": (
            get("spice.mna.MnaStructure.revalue")
            + get("spice.mna.MnaStructure.revalue_many", "points")
        ) / n,
        "spice.mna.revalue_self_s": self_s(
            "spice.mna.MnaStructure.revalue", "spice.mna.MnaStructure.revalue_many"
        ) / n,
        "spice.backend.solves": solves / n,
        "spice.backend.solve_rhs": (
            get("spice.backend.solve") + get("spice.backend.solve_many", "rhs")
        ) / n,
        "spice.backend.solve_self_s": self_s(
            "spice.backend.solve", "spice.backend.solve_many"
        ) / n,
        "spice.backend.factorizations": factorizations / n,
        "spice.backend.factorize_self_s": self_s(
            "spice.backend.factorize", "spice.backend.refactorize"
        ) / n,
        "spice.backend.solves_per_factorization": (
            solves / factorizations if factorizations else 0.0
        ),
        "spice.backend.resolve_self_s": self_s("spice.backend.resolve_backend") / n,
        "spice.transient.runs": (
            get("spice.transient.simulate_transient")
            + get("spice.transient.simulate_transient_batch")
        ) / n,
        "spice.transient.steps": (
            get("spice.transient.simulate_transient", "steps")
            + get("spice.transient.simulate_transient_batch", "steps")
        ) / n,
        "spice.transient.batch_points": (
            get("spice.transient.simulate_transient_batch", "batch_points") / n
        ),
        "spice.transient.self_s": self_s(
            "spice.transient.simulate_transient",
            "spice.transient.simulate_transient_batch",
        ) / n,
        "rom.prima.builds": get("rom.prima.prima_reduce") / n,
        "rom.prima.build_self_s": self_s(
            "rom.prima.prima_reduce", "rom.prima.cached_reduced_template"
        ) / n,
        "rom.prima.projection_reuse_ratio": (
            get("rom.prima.cached_reduced_template", "reused") / cached if cached else 0.0
        ),
        "rom.prima.order": get("rom.prima.prima_reduce", "order"),
        "rom.prima.serve_self_s": self_s(
            "rom.prima.ReducedSystem.transient",
            "rom.prima.reduced_transient_batch",
            "rom.prima.ReducedTemplate.reduce_many",
        ) / n,
        "rom.prima.reconstruct_rows": get("rom.prima.ReducedSystem.reconstruct", "rows") / n,
        "rom.prima.reconstruct_self_s": self_s("rom.prima.ReducedSystem.reconstruct") / n,
        "rom.model.fallback_ratio": (
            get("rom.model.record_model_selection", "fallbacks") / auto if auto else 0.0
        ),
        "analysis.bus.calls": get("analysis.bus.batch_delay_50") / n,
        "analysis.bus.self_s": self_s("analysis.bus.batch_delay_50") / n,
        "sweep.kernels.points": get("sweep.kernels.quantity", "points") / n,
        "sweep.kernels.self_s": self_s("sweep.kernels.quantity") / n,
        "sweep.runner.cold_s": get(runner, "cold_s") / n,
        "sweep.runner.replay_s": get(runner, "replay_s") / n,
        "sweep.runner.self_s": self_s(runner) / n,
    }
    return layer
