#!/usr/bin/env python3
"""Benchmark of the biparsdp library, driven in-process from outside it.

One single-threaded closed-loop client: each operation loads a generated
instance file with `load_instance` and calls `certify` or
`solve_relaxation` on it (default arguments), and the next operation starts
when it returns.  Run from the repository root:

    python3 perfbench/run.py --workload edge-systems --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one row each
    python3 perfbench/run.py --self-test          # smoke-size checks of the benchmark
    python3 perfbench/run.py --workload relaxation --seed 0 --write-reference

Set-up generates the workload's instances from the seed, writes them as
instance JSON under .bench_work/, and warms up on the cheapest one.  The
timed pass then runs whole rounds, each visiting every instance once in a
seeded order, and starts another round only while at least half of one
still fits in --seconds.  After every operation, and after each set-up
repetition, a fixed calibration kernel runs for 15 % of its time; the
timings are divided by the host slowdown the kernel measured around them
(see calibration.py), and the report prints the wall-clock figures too.
Outputs are checked after the timed pass (see checks.py).

--trace 1 first runs an untraced pass for a third of the time and then a
traced pass (at least two rounds) that wraps the public functions of the
library's modules; it prints per-layer metrics and writes the spans to
.bench_out/.  The cli module is not measured: process start-up would swamp
the millisecond verdicts of the sign-rules workload.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics (E2E) with --trace 0,
the per-layer ones (tracing.PER_LAYER) with --trace 1.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# BLAS reads these when numpy is first imported, so they are set before any
# import that pulls numpy in.  One thread keeps timings and iteration counts
# repeatable on a small machine.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

# (name, unit, better) of every metric a --trace 0 run prints
E2E = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]
WORKLOAD_NAMES = ("edge-systems", "relaxation", "sign-rules")
DEFAULT_SEED = 0  # the seed the committed reference was produced with
SETUP_REPEATS = 7
TAIL_PERCENTILE = 90.0  # nearest-rank percentile reported as latency_tail_s
TAIL_BEYOND = 10  # the report also gives the highest percentile with this many beyond


def load_library() -> None:
    """Import biparsdp from this checkout's src/, never from elsewhere."""
    if not (SRC / "biparsdp" / "__init__.py").is_file():
        sys.exit(f"perfbench: library source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import biparsdp

    if Path(biparsdp.__file__).resolve().parent != SRC / "biparsdp":
        sys.exit(f"perfbench: biparsdp was imported from {biparsdp.__file__}")


load_library()
IMPORT_S = time.perf_counter() - _START

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

model = importlib.import_module("biparsdp.model")
certify_mod = importlib.import_module("biparsdp.certify")
relaxation_mod = importlib.import_module("biparsdp.relaxation")


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "seed": seed,
    }


def operation(workload: str):
    """The timed call: load the file, then certify or solve the relaxation.

    Library functions are looked up at call time, so a traced pass sees the
    wrapped versions.
    """
    if workloads.OPERATION[workload] == "certify":
        def call(path):
            return certify_mod.certify(model.load_instance(path))
        return call, checks.certify_digest

    def call(path):
        return relaxation_mod.solve_relaxation(model.load_instance(path))
    return call, checks.relaxation_digest


class Outcomes:
    """Distinct output digests per instance, with how many operations gave each."""

    def __init__(self, k: int):
        self.per_instance: list[list[list]] = [[] for _ in range(k)]

    def add(self, i: int, digest: dict) -> None:
        for entry in self.per_instance[i]:
            if entry[0] == digest:
                entry[1] += 1
                return
        self.per_instance[i].append([digest, 1])

    def count(self, predicate) -> int:
        return sum(c for entries in self.per_instance for d, c in entries if predicate(d))


@dataclass
class Pass:
    samples: list[float]  # wall seconds per operation (load plus call)
    starts: list[float]  # perf_counter at each operation's start
    op_instance: list[int]  # instance index of each operation
    failed: int
    rounds: int
    normalised: list[float] = field(default_factory=list)  # host-normalised samples

    def ops_per_s(self, samples: list[float]) -> float:
        """Completed operations per second over a round of median `samples`.

        Each instance's time is its median over the rounds, which keeps a
        burst of contention from other processes out of the figure.
        """
        by_instance: dict[int, list[float]] = {}
        for i, t in zip(self.op_instance, samples):
            by_instance.setdefault(i, []).append(t)
        round_s = sum(statistics.median(ts) for ts in by_instance.values())
        completed = 1.0 - self.failed / len(samples)
        return completed * len(by_instance) / round_s


def timed_pass(paths, call, digest_of, outcomes, seconds, min_rounds, seed,
               calibrator, tracer=None):
    """Whole rounds over all instances while at least half a round fits in `seconds`."""
    result = Pass([], [], [], 0, 0)
    order_rng = random.Random(seed)
    start = time.perf_counter()
    while True:
        order = list(range(len(paths)))
        order_rng.shuffle(order)
        for i in order:
            if tracer is not None:
                tracer.begin_op(len(result.samples))
            t0 = time.perf_counter()
            try:
                out = call(paths[i])
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            dt = time.perf_counter() - t0
            calibrator.after(dt)
            result.samples.append(dt)
            result.starts.append(t0)
            result.op_instance.append(i)
            digest = (checks.error_digest(out) if isinstance(out, Exception)
                      else digest_of(out))
            result.failed += checks.is_failure(digest)
            outcomes.add(i, digest)
        result.rounds += 1
        elapsed = time.perf_counter() - start
        if result.rounds >= min_rounds and elapsed * (1.0 + 0.5 / result.rounds) >= seconds:
            result.normalised = [calibrator.normalise(t0, dt)
                                 for t0, dt in zip(result.starts, result.samples)]
            return result


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the tail latency.

    The nearest-rank TAIL_PERCENTILE.  The percentile is fixed rather than
    the number of samples beyond it: how many rounds fit in a run changes
    with the host's speed, and over whole rounds a fixed percentile always
    falls on the same instance shape.
    """
    ordered = sorted(samples)
    n = len(ordered)
    k = max(math.ceil(TAIL_PERCENTILE / 100.0 * n) - 1, 0)
    return ordered[k], TAIL_PERCENTILE, n - k - 1


def check_outputs(workload, seed, scale, generated, paths, outcomes, log) -> int:
    """Number of wrong operations; every problem found is printed."""
    reference = None
    ref_path = REFERENCE_DIR / f"{workload}.json"
    if seed == DEFAULT_SEED and scale == 1.0 and ref_path.is_file():
        reference = json.loads(ref_path.read_text())["instances"]
    oracle = checks.RelaxationOracle()
    wrong = 0
    for gen, path, entries in zip(generated, paths, outcomes.per_instance):
        inst = model.load_instance(path)
        for digest, count in entries:
            if checks.is_failure(digest):
                continue
            try:
                if digest["kind"] == "certify":
                    errors = checks.check_certify(gen.family, gen.name, inst, digest, oracle)
                else:
                    errors = checks.check_relaxation(gen.name, inst, digest, oracle)
            except RuntimeError as exc:
                errors = [f"check could not run: {exc}"]
            if reference is not None:
                ref = reference.get(gen.name)
                errors += (["reference: instance missing"] if ref is None else
                           [f"reference: {e}" for e in checks.compare_reference(
                               checks.reference_entry(digest), ref)])
            if errors:
                wrong += count
            for e in errors:
                log(f"wrong: {gen.name} ({count} ops): {e}")
    return wrong


def write_reference(workload, generated, outcomes) -> Path:
    ref = {
        "seed": DEFAULT_SEED,
        "instances": {
            gen.name: checks.reference_entry(entries[0][0])
            for gen, entries in zip(generated, outcomes.per_instance)
        },
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return path


def set_up(workload, seed, scale, workdir, call, calibrator):
    """Generate, write and warm up SETUP_REPEATS times.

    Returns the instances, their files, and the (wall, host-normalised)
    seconds of the library import and of each repetition.
    """
    calibrator.after(IMPORT_S)
    import_s = (IMPORT_S, calibrator.normalise(calibrator.starts[0] - IMPORT_S, IMPORT_S))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        generated = workloads.generate(workload, seed, scale)
        paths = workloads.write_instances(generated, workdir)
        call(paths[0])
        dt = time.perf_counter() - t0
        calibrator.after(dt)
        times.append((t0, dt))
    reps = [(dt, calibrator.normalise(t0, dt)) for t0, dt in times]
    return generated, paths, import_s, reps


def layer_report(tracer, untraced: Pass, traced: Pass, log) -> dict[str, float]:
    metrics = tracing.layer_metrics(tracer.spans, sum(traced.samples), traced.rounds)
    per_instance: dict[int, set] = {}
    for op, iterations in tracing.ipm_iterations_by_op(tracer.spans).items():
        per_instance.setdefault(traced.op_instance[op], set()).add(iterations)
    repeat = all(len(v) == 1 for v in per_instance.values())
    metrics["sdp.ipm.iterations_repeat"] = float(repeat)
    metrics["trace.rounds"] = float(traced.rounds)
    metrics["trace.ops_per_s"] = traced.ops_per_s(traced.normalised)
    metrics["trace.untraced_ops_per_s"] = untraced.ops_per_s(untraced.normalised)
    metrics["trace.overhead_frac"] = (
        1.0 - metrics["trace.ops_per_s"] / metrics["trace.untraced_ops_per_s"])
    shares = sorted(((metrics[f"share.{s}"], s) for s in tracing.SHARES), reverse=True)
    log("self time by layer: " + ", ".join(f"{s} {v:.1%}" for v, s in shares))
    log(f"dominant self time: {shares[0][1]}")
    log(f"sdp.ipm.iterations repeat exactly in every traced round: "
        f"{'yes' if repeat else 'no'} ({metrics['sdp.ipm.iterations']:g} per round)")
    log(f"tracing overhead: {metrics['trace.overhead_frac']:.2%} "
        f"(traced {metrics['trace.ops_per_s']:.4f} vs untraced "
        f"{metrics['trace.untraced_ops_per_s']:.4f} host-normalised ops/s)")
    return metrics


def run_workload(workload, seed, seconds, trace, scale=1.0, reference=False, log=print):
    """One benchmark run; returns the object of the last output line."""
    log("env: " + json.dumps(environment(seed)))
    call, digest_of = operation(workload)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    calibrator = calibration.Calibrator(workloads.KERNEL[workload])
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        generated, paths, import_s, reps = set_up(
            workload, seed, scale, Path(tmp), call, calibrator)
        setup_s = import_s[1] + statistics.median(n for _, n in reps)
        log(f"setup_s = {setup_s:.6f} s host-normalised: import {import_s[1]:.4f} s + "
            f"median of {SETUP_REPEATS} generate/write/warm-up runs "
            f"{[round(n, 4) for _, n in reps]}; wall clock: import {import_s[0]:.4f} s, "
            f"runs {[round(w, 4) for w, _ in reps]}")
        outcomes = Outcomes(len(paths))
        if trace:
            untraced = timed_pass(paths, call, digest_of, outcomes, seconds / 3.0, 1, seed,
                                  calibrator)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                timed = timed_pass(paths, call, digest_of, outcomes,
                                   2.0 * seconds / 3.0, 2, seed + 1, calibrator, tracer)
            finally:
                tracer.uninstall()
        else:
            timed = timed_pass(paths, call, digest_of, outcomes, seconds, 1, seed,
                               calibrator)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wrong = check_outputs(workload, seed, scale, generated, paths, outcomes, log)
        if reference:
            log(f"reference written to {write_reference(workload, generated, outcomes)}")

    attempted = outcomes.count(lambda d: True)
    failed = outcomes.count(checks.is_failure)
    log(f"checked {attempted} operations: failed_frac = {failed / attempted:.6f} "
        f"({failed} failed), wrong_frac = {wrong / attempted:.6f} ({wrong} wrong)")
    if workloads.OPERATION[workload] == "certify":
        frac = outcomes.count(lambda d: d.get("verdict") == "CertifiedExact") / attempted
        log(f"certified_frac = {frac:.6f} (share of CertifiedExact verdicts)")
    else:
        frac = outcomes.count(lambda d: d.get("x_star") is not None) / attempted
        log(f"rank1_frac = {frac:.6f} (share of operations with x* extracted)")

    if trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(span_file)
        log(f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
        values = layer_report(tracer, untraced, timed, log)
        units = tracing.PER_LAYER
    else:
        norm = timed.normalised
        tail_s, tail_pct, beyond = tail(norm)
        n = len(norm)
        slowdowns = [w / t for w, t in zip(timed.samples, norm)]
        log(f"timed pass: {n} operations in {timed.rounds} rounds of {len(paths)}, "
            f"{sum(timed.samples):.3f} s busy; {len(calibrator.seconds)} calibration "
            f"chunks, host slowdown per operation min {min(slowdowns):.3f} "
            f"median {statistics.median(slowdowns):.3f} max {max(slowdowns):.3f}")
        log(f"latency_tail_s is p{tail_pct:.2f} of {n} samples ({beyond} beyond it)")
        k = max(n - TAIL_BEYOND - 1, n // 2)
        log(f"highest percentile with {n - k - 1} samples beyond it: "
            f"p{100.0 * (k + 1) / n:.2f} = {sorted(norm)[k]:.6g} s")
        log(f"wall clock: ops_per_s {timed.ops_per_s(timed.samples):.6g} 1/s, "
            f"latency_p50_s {statistics.median(timed.samples):.6g} s, "
            f"latency_tail_s {tail(timed.samples)[0]:.6g} s")
        by_shape: dict[str, list[float]] = {
            g.name.split("-", 1)[1]: [] for g in generated}
        for i, t in zip(timed.op_instance, norm):
            by_shape[generated[i].name.split("-", 1)[1]].append(t)
        log("median host-normalised seconds by shape: " + ", ".join(
            f"{shape} {statistics.median(ts):.4f}" for shape, ts in by_shape.items()))
        values = {
            "setup_s": setup_s,
            "ops_per_s": timed.ops_per_s(norm),
            "latency_p50_s": statistics.median(norm),
            "latency_tail_s": tail_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = E2E
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in units}
    for name, m in metrics.items():
        log(f"{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process (peak RSS is per process), one row each."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: {workload} failed ({proc.returncode}):\n{proc.stderr}")
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        sub = json.loads(lines[-1])
        result["correct"] &= sub["correct"]
        result["attempted"] += sub["attempted"]
        result["failed"] += sub["failed"]
        for name, m in sub["metrics"].items():
            result["metrics"][f"{workload}.{name}"] = m
        rows.append((workload, sub))
    names = [n for n, _, _ in (tracing.PER_LAYER if args.trace else E2E)]
    width = max(len(n) for n in names)
    print(f"{'metric':<{width}}  " + "".join(f"{w:>14}" for w, _ in rows) + "  unit")
    for name in names:
        cells = "".join(f"{sub['metrics'][name]['value']:>14.6g}" for _, sub in rows)
        print(f"{name:<{width}}  {cells}  {rows[0][1]['metrics'][name]['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store this run's outputs as the seed-{DEFAULT_SEED} reference")
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark itself at a smoke size")
    args = parser.parse_args(argv)
    if args.self_test:
        import selftest

        return selftest.main(sys.modules[__name__])
    if args.workload is None:
        parser.error("--workload is required")
    if args.write_reference and (args.seed != DEFAULT_SEED or args.workload == "all"):
        parser.error(f"--write-reference needs one workload and --seed {DEFAULT_SEED}")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                              reference=args.write_reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
