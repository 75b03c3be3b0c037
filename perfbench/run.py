"""Delay-query benchmark for the repro package (one closed-loop client).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload line-delay --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

One process answers one workload: a single caller sends the next query
only after the previous answer arrived.  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` each query runs untraced and
then traced (wrappers from ``tracing.py``), the two answers must be
identical, and it prints the per-layer metrics and writes the spans to
``perfbench/out/trace-<workload>-seed<seed>.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed answer makes the exit code 1.
Timing metrics are scaled to the reference host's speed (``HostGauge``).
See ``LAYERS.md`` for the metric and layer map.
"""

from __future__ import annotations

import os
import time

_START = time.perf_counter()
# One client and no thread pools: BLAS runs on the caller's thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("line-delay", "ladder-tiers", "bus-sweep", "sweep-cache")
#: Set-ups per run; ``setup_s`` is the import time plus their median.
SETUP_REPEATS = 3
#: ``query_ms.tail`` is the highest percentile with this many samples
#: beyond it, so an untimed run needs at least twice as many queries.
TAIL_BEYOND = 10
MIN_QUERIES = {False: 2 * TAIL_BEYOND, True: 3}
#: A run stops measuring here even short of its minimum query count.
HARD_STOP_S = 120.0
#: Median time of one ``HostGauge.sample`` on the host the benchmark was
#: defined on (2-core x86-64 container, single-threaded OpenBLAS).
GAUGE_REFERENCE_S = 0.042

#: Reported beside the gated end-to-end metrics but not in
#: ``BENCHMARK.json``: they are 0 or undefined on some workload (the
#: failure count also sits in ``failed``).
ACCURACY = {"delay_err_pct.max": "%", "wave_err.max": "V", "failed_frac": "ratio"}


def declared_units(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def import_program():
    """Import the program from this checkout's ``src``; exit non-zero if absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}")
    sys.path.insert(0, str(src))
    import repro

    if not pathlib.Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")
    import numpy as np
    from repro import obs

    import tracing
    import workloads

    return np, obs, tracing, workloads


class HostGauge:
    """Fixed work that runs no program code, timed between queries.

    On a shared host the same query runs up to a third slower from one
    minute to the next, with the process on the CPU the whole time (its
    CPU time tracks its wall time), so neither clock removes the drift.
    The gauge mixes what the program's queries spend their time on --
    dense and banded LAPACK solves, a SuperLU factorization with solves,
    and interpreter work -- and the timing metrics are scaled by
    ``GAUGE_REFERENCE_S`` over the run's median gauge time: they read as
    on the reference host, and a change to the program moves them while
    a change in host speed largely does not.
    """

    def __init__(self, np) -> None:
        import scipy.linalg
        import scipy.sparse
        import scipy.sparse.linalg

        rng = np.random.default_rng(0)
        self.np = np
        self.splu = scipy.sparse.linalg.splu
        self.dense = rng.standard_normal((200, 200)) + 30.0 * np.eye(200)
        self.dense_rhs = rng.standard_normal(200)
        n = 49  # a 49 x 49 grid: 2401 unknowns, the size of the bus
        path = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = scipy.sparse.identity(n)
        self.sparse = (scipy.sparse.kron(eye, path) + scipy.sparse.kron(path, eye)).tocsc()
        self.sparse_rhs = rng.standard_normal((n * n, 32))
        self.band = rng.standard_normal((76, n * n))  # kl = ku = 25, LAPACK layout
        self.band[50] += 60.0
        self.band_rhs = self.sparse_rhs[:, 0]
        self.gbtrf, self.gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), (self.band,))
        self.times: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        for _ in range(10):
            self.np.linalg.solve(self.dense, self.dense_rhs)
        lu, piv, _ = self.gbtrf(self.band, 25, 25)
        for _ in range(60):
            self.gbtrs(lu, 25, 25, self.band_rhs, piv)
        self.splu(self.sparse).solve(self.sparse_rhs)
        table: dict = {}
        for k in range(20000):
            table[k % 997] = table.get(k % 997, 0) + k
        self.times.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Reference-host seconds per second measured in this run."""
        return GAUGE_REFERENCE_S / statistics.median(self.times)


def query_rng(np, seed: int, index: int):
    """Query ``index``'s generator; index 0 is the warm-up query."""
    return np.random.default_rng([seed, index])


def answer(workload, query):
    """Run one timed query: ``(answer, seconds)``; the answer is None if it raised."""
    start = time.perf_counter()
    try:
        result = workload.run(query)
    except Exception:  # a failed answer is counted and the loop goes on
        traceback.print_exc(file=sys.stderr)
        result = None
    return result, time.perf_counter() - start


class Tally:
    """Answer verdicts of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.delay_err = []
        self.wave_err = []

    def add(self, check) -> None:
        self.attempted += check.answers
        self.failed += check.failed
        if not math.isnan(check.delay_err_pct):
            self.delay_err.append(check.delay_err_pct)
        if not math.isnan(check.wave_err):
            self.wave_err.append(check.wave_err)

    def fail_all(self, n: int) -> None:
        self.attempted += n
        self.failed += n


def checked(workload, tally, query, result) -> None:
    try:
        tally.add(workload.check(query, result))
    finally:
        workload.discard(result)


def keep_going(start: float, seconds: float, done: int, minimum: int) -> bool:
    elapsed = time.perf_counter() - start
    if elapsed >= HARD_STOP_S:
        return False
    return elapsed < seconds or done < minimum


def set_up(workload, np, seed, workloads, tally, gauge) -> list[float]:
    """Build and warm up from emptied program caches; seconds per set-up."""
    times = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workloads.clear_program_caches()
        query = workload.make_query(query_rng(np, seed, 0))
        start = time.perf_counter()
        workload.setup()
        result = workload.run(query)
        times.append(time.perf_counter() - start)
        checked(workload, tally, query, result)
        gauge.sample()
    return times


def measure(workload, np, seed, seconds, tally, gauge):
    latencies = []
    start = time.perf_counter()
    while keep_going(start, seconds, len(latencies), MIN_QUERIES[False]):
        query = workload.make_query(query_rng(np, seed, len(latencies) + 1))
        result, elapsed = answer(workload, query)
        latencies.append(elapsed)
        if result is None:
            tally.fail_all(workload.answers_per_query)
        else:
            checked(workload, tally, query, result)
        gauge.sample()
    return latencies


def end_to_end(setup_s, latencies, tally, answers_per_query, scale):
    """Metrics on the reference host's clock (times ``scale``)."""
    setup_s *= scale
    ordered = sorted(scale * t for t in latencies)
    n = len(ordered)
    metrics = {
        "setup_s": setup_s,
        "query_ms.p50": 1e3 * statistics.median(ordered),
        "answers_per_s": answers_per_query * n / sum(ordered),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {}
    if n >= 2 * TAIL_BEYOND:
        k = n - TAIL_BEYOND - 1
        metrics["query_ms.tail"] = 1e3 * ordered[k]
        notes["query_ms.tail"] = f"p{100.0 * (k + 1) / n:.0f} of {n} queries, {TAIL_BEYOND} beyond"
    accuracy = {
        "delay_err_pct.max": max(tally.delay_err) if tally.delay_err else None,
        "wave_err.max": max(tally.wave_err) if tally.wave_err else None,
        "failed_frac": tally.failed / tally.attempted if tally.attempted else None,
    }
    return metrics, notes, accuracy


def run_traced(workload, np, obs, tracing, workloads, seed, seconds, tally, declared):
    """Untraced then traced answer per query; returns the per-layer metrics."""
    tracer = tracing.Tracer()
    counters = {"setup": {}, "query": {}}

    def collect(phase) -> None:
        for name, _ in tracing.COUNTERS:
            total = obs.REGISTRY.counter_total(name)
            counters[phase][name] = counters[phase].get(name, 0.0) + total

    query = workload.make_query(query_rng(np, seed, 0))
    with obs.capture():
        tracer.install("setup")
        try:
            workload.setup()
            result = workload.run(query)
        finally:
            tracer.uninstall()
        collect("setup")
    checked(workload, tally, query, result)

    plain_s = traced_s = 0.0
    cache_bytes = cache_hits = cache_runs = 0
    done = 0
    start = time.perf_counter()
    while keep_going(start, seconds, done, MIN_QUERIES[True]):
        done += 1
        query = workload.make_query(query_rng(np, seed, done))
        # Both runs start from the same projection cache; their order
        # alternates so warm-up effects cancel in the overhead.
        snapshot = workloads.snapshot_program_caches()
        runs = {}
        for traced_run in (done % 2 == 0, done % 2 == 1):
            workloads.restore_program_caches(snapshot)
            # Both runs have the program's own instrumentation on, so
            # the overhead is the wrappers' alone.
            with obs.capture():
                if not traced_run:
                    runs[False] = answer(workload, query)
                    continue
                tracer.install(done)
                try:
                    runs[True] = answer(workload, query)
                finally:
                    tracer.uninstall()
                collect("query")
        (plain, elapsed), (traced, traced_elapsed) = runs[False], runs[True]
        plain_s += elapsed
        traced_s += traced_elapsed
        if plain is None or traced is None:
            tally.fail_all(workload.answers_per_query)
            for result in (plain, traced):
                if result is not None:
                    workload.discard(result)
            continue
        same = all(
            np.array_equal(a, b, equal_nan=True)
            for a, b in zip(workload.values(plain), workload.values(traced))
        )
        workload.discard(plain)
        if hasattr(workload, "cache_layer"):
            written, hits, lookups = workload.cache_layer(traced)
            cache_bytes += written
            cache_hits += hits
            cache_runs += lookups
        try:
            check = workload.check(query, traced)
        finally:
            workload.discard(traced)
        if not same:
            print(f"perfbench: traced answers of query {done} differ", file=sys.stderr)
            check.failed = check.answers
        tally.add(check)

    totals = tracer.totals()
    mismatches = []
    for counter, wrapped in tracing.COUNTERS:
        program = counters["setup"][counter] + counters["query"][counter]
        if program != totals.get(wrapped, 0.0):
            mismatches.append(f"{counter}={program:g} vs {wrapped}={totals.get(wrapped, 0.0):g}")
    metrics = tracing.fold_layers(tracer.stats["query"], done)
    metrics["sweep.cache.bytes_written"] = cache_bytes / done
    metrics["sweep.cache.hit_ratio"] = cache_hits / cache_runs if cache_runs else 0.0
    for counter, _ in tracing.COUNTERS:
        key = f"counters.{counter}"
        if key in declared:
            metrics[key] = counters["query"][counter] / done
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    metrics["trace.coverage"] = tracer.root_s["query"] / traced_s
    metrics["trace.queries"] = done
    metrics["trace.counter_mismatches"] = len(mismatches)
    metrics["trace.missing_boundaries"] = len(tracer.missing)

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-seed{seed}.json"
    trace_path.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "queries": done,
        "boundaries": {
            phase: {name: dict(bucket) for name, bucket in tracer.stats[phase].items()}
            for phase in ("setup", "query")
        },
        "counters": counters,
        "counter_mismatches": mismatches,
        "missing_boundaries": tracer.missing,
        "metrics": metrics,
        "spans": tracer.span_records(),
    }, indent=1))
    for line in mismatches:
        print(f"perfbench: counter disagreement {line}", file=sys.stderr)
    for name in tracer.missing:
        print(f"perfbench: boundary {name} not found", file=sys.stderr)
    print(f"trace written to {trace_path.relative_to(ROOT)}")
    return metrics


def emit(tally, metrics, units) -> int:
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(metrics)} are not the declared {sorted(units)}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }, allow_nan=False))
    return 0 if correct else 1


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    np, obs, tracing, workloads = import_program()
    import_s = time.perf_counter() - _START
    OUT.mkdir(exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        workload = workloads.make(name, tmp_dir)
        tally = Tally()
        print(f"workload {name}  seed {seed}  closed loop, 1 client  trace {int(trace)}")
        if trace:
            units = declared_units("per_layer")
            metrics = run_traced(workload, np, obs, tracing, workloads, seed, seconds, tally, units)
            for key, value in metrics.items():
                print(f"  {key:<42} {value:>14.6g} {units.get(key, '?')}")
            print(f"  answers failed {tally.failed} of {tally.attempted}")
            return emit(tally, metrics, units)
        gauge = HostGauge(np)
        setups = set_up(workload, np, seed, workloads, tally, gauge)
        latencies = measure(workload, np, seed, seconds, tally, gauge)
        scale = gauge.scale()
        setup_s = import_s + statistics.median(setups)
        metrics, notes, accuracy = end_to_end(
            setup_s, latencies, tally, workload.answers_per_query, scale,
        )
        print(f"  host gauge: median {statistics.median(gauge.times):.4f} s over "
              f"{len(gauge.times)} samples, reference {GAUGE_REFERENCE_S} s, scale {scale:.4f}; "
              f"unscaled: setup_s {setup_s:.4f}, query_ms.p50 "
              f"{1e3 * statistics.median(latencies):.2f}")
        notes["setup_s"] = f"imports {import_s:.3f} s + median of {SETUP_REPEATS} set-ups"
        notes["failed_frac"] = f"{tally.failed} of {tally.attempted} answers"
        tolerance = workload.tolerance_pct
        notes["delay_err_pct.max"] = f"tolerance {tolerance:g} %"
        units = declared_units("end_to_end")
        for key, unit in {**units, **ACCURACY}.items():
            value = metrics.get(key, accuracy.get(key))
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {key:<20} {shown:>12} {unit:<5} {notes.get(key, '')}")
        return emit(tally, metrics, units)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        child = subprocess.run([
            sys.executable, str(pathlib.Path(__file__).resolve()),
            "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
        ])
        status = max(status, child.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
