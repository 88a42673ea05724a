"""Self-test of the benchmark at a smoke size.

Run it as `python3 perfbench/run.py --self-test`.  It checks that

* the same seed gives byte-identical instance files (and another seed does
  not);
* every metric BENCHMARK.json names is printed, by name and with its unit,
  by a run of each workload with and without tracing;
* the checker flags wrong outputs handed to it: a certificate for an
  instance whose relaxation is not exact, an edge certificate with a
  non-positive mu*, a perturbed x*, and a reference mismatch.  The wrong
  outputs are built by hand; the library is not altered.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

SMOKE_SCALE = 0.25
SMOKE_SECONDS = 0.3


def _files_equal(a: list[Path], b: list[Path]) -> bool:
    return len(a) == len(b) and all(x.read_bytes() == y.read_bytes() for x, y in zip(a, b))


def _determinism(work: Path, expect) -> None:
    for wl in workloads.WORKLOADS:
        for scale in (1.0, SMOKE_SCALE):
            written = []
            for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
                d = work / f"{wl}-{scale}-{tag}"
                d.mkdir()
                written.append(workloads.write_instances(
                    workloads.generate(wl, seed, scale), d))
            expect(_files_equal(written[0], written[1]),
                   f"{wl} at scale {scale}: seed 7 gave different files twice")
            expect(not _files_equal(written[0], written[2]),
                   f"{wl} at scale {scale}: seeds 7 and 8 gave the same files")


def _metrics_printed(run, expect) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
           "BENCHMARK.json workloads differ from the benchmark's")
    for key, table in (("end_to_end", run.E2E), ("per_layer", tracing.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        expect(listed == list(table), f"BENCHMARK.json {key} differs from the benchmark's")
    for wl in run.WORKLOAD_NAMES:
        for trace, table in ((0, run.E2E), (1, tracing.PER_LAYER)):
            lines: list[str] = []
            res = run.run_workload(wl, 7, SMOKE_SECONDS, trace, scale=SMOKE_SCALE,
                                   log=lines.append)
            what = f"{wl} --trace {trace}"
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{what}: smoke run not clean: " + "; ".join(
                       line for line in lines if line.startswith("wrong:")))
            expect(list(res["metrics"]) == [name for name, _, _ in table],
                   f"{what}: printed metrics differ from the named ones")
            for name, unit, _ in table:
                m = res["metrics"].get(name, {})
                expect(m.get("unit") == unit, f"{what}: {name} lacks unit {unit}")
                expect(np.isfinite(m.get("value", np.nan)), f"{what}: {name} not finite")
                expect(any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                           for line in lines), f"{what}: {name} not printed with its unit")
            json.loads(json.dumps(res))


def _checker_flags_wrong_outputs(run, expect) -> None:
    from biparsdp.model import QcqpInstance

    oracle = checks.RelaxationOracle()
    # frustrated triangle: all edge signs +1 on an odd cycle; the relaxation
    # optimum has rank 2, so no certificate can be right
    E = [np.diag(np.eye(3)[i]) for i in range(3)]
    triangle = QcqpInstance(np.ones((3, 3)) - np.eye(3), tuple(E), np.ones(3))
    report = run.certify_mod.certify(triangle)
    expect(report.verdict.value == "InexactObserved",
           f"triangle: library verdict {report.verdict.value}, expected InexactObserved")
    claim = {"kind": "certify", "verdict": "CertifiedExact",
             "applied_rule": "edge-sign-cycle-condition", "per_edge": [], "notes": []}
    errors = checks.check_certify("potential", "triangle", triangle, claim, oracle)
    expect(any("rank" in e for e in errors), "wrong certificate on the triangle not flagged")

    # an edge-system certificate resting on an edge with mu* < 0
    gen = workloads.generate("sign-rules", 7, SMOKE_SCALE)
    nonpos = next(g for g in gen if g.family == "nonpositive")
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work") as tmp:
        inst = run.model.load_instance(workloads.write_instances([nonpos], Path(tmp))[0])
    good = checks.certify_digest(run.certify_mod.certify(inst))
    expect(checks.check_certify("nonpositive", "np", inst, good, oracle) == [],
           "correct sign-rule certificate flagged")
    bad = dict(good, applied_rule="connected-bipartite-edge-systems",
               per_edge=[[0, 1, -0.5, True, None, None, False]])
    errors = checks.check_certify("bipartite", "np", inst, bad, oracle)
    expect(any("mu_min" in e for e in errors), "edge certificate with mu* < 0 not flagged")

    # x*: the library's own answer passes, perturbed ones do not
    relax = workloads.generate("relaxation", 7, SMOKE_SCALE)[0]
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work") as tmp:
        inst = run.model.load_instance(workloads.write_instances([relax], Path(tmp))[0])
    good = checks.relaxation_digest(run.relaxation_mod.solve_relaxation(inst))
    expect(good["x_star"] is not None, "smoke relaxation instance is not rank 1")
    if good["x_star"] is not None:
        expect(checks.check_relaxation("r", inst, good, oracle) == [],
               "correct x* flagged")
        x = np.array(good["x_star"])
        flipped = x.copy()
        flipped[np.argmax(np.abs(x))] *= -1.0
        for label, wrong_x in (("scaled", 1.1 * x), ("sign-flipped", flipped)):
            bad = dict(good, x_star=[float(v) for v in wrong_x])
            expect(checks.check_relaxation("r", inst, bad, oracle) != [],
                   f"{label} x* not flagged")

    entry = checks.reference_entry(good)
    expect(checks.compare_reference(entry, entry) == [], "reference equal to itself flagged")
    expect(checks.compare_reference(entry, dict(entry, value=entry["value"] + 1e-3)) != [],
           "reference value mismatch not flagged")


def main(run) -> int:
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            print(f"self-test: FAIL {what}")
            failures.append(what)

    work_root = run.ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        _determinism(Path(tmp), expect)
    print("self-test: instance files are byte-identical for equal seeds")
    _checker_flags_wrong_outputs(run, expect)
    print("self-test: the checker flags wrong verdicts, mu*, x* and reference values")
    _metrics_printed(run, expect)
    print("self-test: every named metric is printed with its unit")
    print(f"self-test: {'passed' if not failures else f'{len(failures)} failures'}")
    return 1 if failures else 0
