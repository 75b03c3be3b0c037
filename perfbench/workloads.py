"""The four delay-query workloads.

Each workload draws its query inputs from a seeded generator, answers
them through the program's public entry points (looked up on their
modules at call time, so the tracer's wrappers see the calls), and
checks every answer against its own oracle.  ``run`` is the timed
query; ``make_query``, ``check`` and ``discard`` run off the clock.
"""

from __future__ import annotations

import math
import pathlib
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from repro.analysis import bus as analysis_bus
from repro.bus import builder
from repro.bus.spec import BusSpec
from repro.core import delay, simulate
from repro.core.canonical import DriverLineLoad
from repro.rom import prima
from repro.spice import ladder, transient
from repro.sweep import grid, kernels, runner


@dataclass
class Check:
    """One query's verdict: answers attempted and failed, worst errors."""

    answers: int
    failed: int
    delay_err_pct: float = math.nan
    wave_err: float = math.nan


def _rel_pct(value, reference) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return 100.0 * np.abs(value - reference) / np.abs(reference)


def _draw_line(rng) -> dict:
    """A gate-loaded line: zeta in [0.1, 3], RT and CT in [0.1, 1]."""
    zeta = rng.uniform(0.1, 3.0)
    r_ratio = rng.uniform(0.1, 1.0)
    c_ratio = rng.uniform(0.1, 1.0)
    rt = rng.uniform(200.0, 2000.0)
    ct = rng.uniform(0.5e-12, 2e-12)
    lt = float(kernels.batch_lt_for_zeta(zeta, r_ratio, c_ratio, rt, ct))
    return {"rt": rt, "lt": lt, "ct": ct, "rtr": r_ratio * rt, "cl": c_ratio * ct}


def clear_program_caches() -> None:
    """Drop the program's template and projection caches (set-up repeats)."""
    for cached in (ladder.build_ladder_template, getattr(builder, "_cached_bus_template", None)):
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    cache = getattr(prima, "_TEMPLATE_CACHE", None)
    if isinstance(cache, dict):
        cache.clear()


def snapshot_program_caches():
    """The projection cache's entries, to replay a query from one state."""
    cache = getattr(prima, "_TEMPLATE_CACHE", None)
    return dict(cache) if isinstance(cache, dict) else None


def restore_program_caches(snapshot) -> None:
    cache = getattr(prima, "_TEMPLATE_CACHE", None)
    if isinstance(cache, dict) and snapshot is not None:
        cache.clear()
        cache.update(snapshot)


class Workload:
    """Defaults shared by the workloads; ``tmp_dir`` is the run's temp dir."""

    def __init__(self, tmp_dir) -> None:
        self.tmp_dir = tmp_dir

    def setup(self) -> None:
        """Template and structure builds before the warm-up query."""

    def values(self, answer):
        """The arrays two answers must share to count as identical."""
        return [v for pair in answer for v in pair]

    def discard(self, answer) -> None:
        """Release what an answer holds on disk."""


class LineDelay(Workload):
    name = "line-delay"
    #: Route disagreement tolerance; worst seen 0.43%
    #: over seeds 1-20, 101-110 and 201-210.
    tolerance_pct = 1.0
    answers_per_query = 2

    def make_query(self, rng) -> dict:
        return _draw_line(rng)

    def run(self, query):
        line = DriverLineLoad(**query)
        return (
            simulate.simulated_delay_50(line, route="tline"),
            simulate.simulated_delay_50(line, route="statespace"),
        )

    def values(self, answer):
        return answer

    def check(self, query, answer) -> Check:
        tline, statespace = answer
        if not (math.isfinite(tline) and math.isfinite(statespace) and statespace > 0):
            return Check(2, 2, math.inf)
        err = float(_rel_pct(tline, statespace))
        return Check(2, 2 if err > self.tolerance_pct else 0, delay_err_pct=err)


class LadderTiers(Workload):
    name = "ladder-tiers"
    #: Reduced/auto vs full 50% delay; worst seen 0.45%
    #: over seeds 1-20, 101-110 and 201-210.
    tolerance_pct = 1.0
    answers_per_query = 3
    n_segments = 300
    models = ("full", "reduced", "auto")

    def setup(self) -> None:
        ladder.build_ladder_template(self.n_segments, "PI", loaded=True)

    def make_query(self, rng) -> dict:
        return _draw_line(rng)

    def run(self, query):
        line = DriverLineLoad(**query)
        out = []
        for model in self.models:
            wave = simulate.simulated_step_waveform(
                line, route="mna", n_segments=self.n_segments, model=model
            )
            out.append((wave.delay_50(v_final=1.0), wave.values))
        return out

    def check(self, query, answer) -> Check:
        (full, full_wave), *tiers = answer
        if not (math.isfinite(full) and np.all(np.isfinite(full_wave))):
            return Check(3, 3, math.inf)
        failed = 0
        worst_delay = worst_wave = 0.0
        for t50, wave in tiers:
            finite = math.isfinite(t50) and np.all(np.isfinite(wave))
            err = float(_rel_pct(t50, full)) if finite else math.inf
            worst_delay = max(worst_delay, err)
            if finite:
                worst_wave = max(worst_wave, float(np.max(np.abs(wave - full_wave))))
            failed += not err <= self.tolerance_pct
        return Check(3, failed, worst_delay, worst_wave)


class BusSweep(Workload):
    name = "bus-sweep"
    #: Reduced vs full 50% delay, the EXP-ROM bound; worst seen
    #: 0.49% over seeds 1-20, 101-110 and 201-210.
    tolerance_pct = 1.0
    chunk = 32
    n_lines = 8
    t_stop = 2e-9
    n_steps = 24
    answers_per_query = 2 * chunk

    def __init__(self, tmp_dir) -> None:
        super().__init__(tmp_dir)
        self.spec = BusSpec(
            n_lines=self.n_lines, rt=1000.0, lt=1e-6, ct=1e-12, cct=4e-13,
            km=0.5, rtr=100.0, cl=1e-13, n_segments=100,
        )
        self.pattern = tuple(
            "rise" if i % 2 == 0 else "fall" for i in range(self.n_lines)
        )
        self.out = self.spec.output_node(0)

    def setup(self) -> None:
        builder.build_bus_template(self.spec, self.pattern).structure

    def make_query(self, rng) -> list:
        return [
            {"rt": float(rt), "cct": float(cct)}
            for rt, cct in zip(
                rng.uniform(600.0, 1400.0, self.chunk),
                rng.uniform(1e-13, 6e-13, self.chunk),
            )
        ]

    def run(self, query):
        template = builder.build_bus_template(self.spec, self.pattern)
        out = []
        for model in ("full", "reduced"):
            result = transient.simulate_transient_batch(
                template, query, t_stop=self.t_stop, dt=self.t_stop / self.n_steps,
                record=[self.out], model=model,
            )
            waves = result.voltage(self.out)
            out.append((analysis_bus.batch_delay_50(result.times, waves.T), waves))
        return out

    def check(self, query, answer) -> Check:
        (full, full_waves), (reduced, reduced_waves) = answer
        bad_full = ~np.isfinite(full)
        err = _rel_pct(reduced, full)
        bad_reduced = bad_full | ~(err <= self.tolerance_pct)
        wave_diff = np.abs(reduced_waves - full_waves)
        return Check(
            2 * self.chunk,
            int(np.count_nonzero(bad_full) + np.count_nonzero(bad_reduced)),
            float(np.max(err)) if np.isfinite(err).all() else math.inf,
            float(np.max(wave_diff)) if np.isfinite(wave_diff).all() else math.inf,
        )


class SweepCache(Workload):
    name = "sweep-cache"
    #: Kernel vs scalar eq. 9 on sampled points; worst seen
    #: 3.8e-14% over seeds 1-20, 101-110 and 201-210.
    tolerance_pct = 1e-10
    axis_points = 37
    samples = 64
    answers_per_query = 2 * axis_points**3

    def make_query(self, rng) -> dict:
        n = self.axis_points
        return {
            "rt": np.sort(rng.uniform(50.0, 5000.0, n)),
            "lt": np.sort(np.exp(rng.uniform(math.log(1e-9), math.log(1e-6), n))),
            "ct": np.sort(rng.uniform(1e-13, 5e-12, n)),
            "rtr": float(rng.uniform(10.0, 1000.0)),
            "cl": float(rng.uniform(1e-14, 1e-12)),
            "sample": rng.integers(0, n**3, self.samples),
        }

    def run(self, query):
        sweep = grid.Sweep(
            "propagation_delay",
            grid.ParameterGrid(*(grid.Axis(k, query[k]) for k in ("rt", "lt", "ct"))),
            fixed={"rtr": query["rtr"], "cl": query["cl"]},
        )
        cache_dir = tempfile.mkdtemp(prefix="sweep-", dir=self.tmp_dir)
        cold_runner = runner.SweepRunner(cache_dir=cache_dir)
        replay_runner = runner.SweepRunner(cache_dir=cache_dir)
        cold = cold_runner.run(sweep)
        replay = replay_runner.run(sweep)
        return {
            "cold": cold, "replay": replay, "dir": cache_dir,
            "stats": (cold_runner.stats, replay_runner.stats),
        }

    def values(self, answer):
        return [answer["cold"].output(), answer["replay"].output()]

    def cache_layer(self, answer) -> tuple[int, int, int]:
        """(bytes on disk, cache hits, runs) of one answered query."""
        written = sum(p.stat().st_size for p in pathlib.Path(answer["dir"]).iterdir())
        hits = sum(s.hits for s in answer["stats"])
        runs = sum(s.hits + s.misses for s in answer["stats"])
        return written, hits, runs

    def check(self, query, answer) -> Check:
        cold, replay = answer["cold"], answer["replay"]
        size = cold.output().size
        if cold.cache_hit is not None or replay.cache_hit != "disk":
            return Check(2 * size, 2 * size)
        same = cold.output().view(np.int64) == replay.output().view(np.int64)
        for name, column in cold.columns.items():
            same &= np.asarray(column) == np.asarray(replay.columns[name])
        finite = np.isfinite(cold.output())
        failed = int(np.count_nonzero(~same) + np.count_nonzero(~finite))
        idx = query["sample"]
        scalar = [
            delay.propagation_delay(DriverLineLoad(
                rt=float(cold.columns["rt"][i]), lt=float(cold.columns["lt"][i]),
                ct=float(cold.columns["ct"][i]), rtr=query["rtr"], cl=query["cl"],
            ))
            for i in idx
        ]
        err = _rel_pct(cold.output()[idx], scalar)
        failed += int(np.count_nonzero(~(err <= self.tolerance_pct)))
        return Check(2 * size, min(failed, 2 * size), float(np.max(err)))

    def discard(self, answer) -> None:
        shutil.rmtree(answer["dir"], ignore_errors=True)


def make(name: str, tmp_dir) -> Workload:
    """The workload called ``name``."""
    for cls in (LineDelay, LadderTiers, BusSweep, SweepCache):
        if cls.name == name:
            return cls(tmp_dir)
    raise KeyError(name)
