"""Span tracing of the library's public functions, from outside the library.

`Tracer.install` replaces each traced function by a timing wrapper in every
biparsdp namespace that holds it: the defining module and each module that
bound it at import (`certify.py` binds the graph and sdp functions,
`relaxation.py` binds `solve`, the package binds the public names).  The
functions `certify` imports lazily inside a call (`solve_relaxation`,
`sign_split_transform`) are read from their defining module at call time, so
patching that module covers them.  Modules are reached through
`importlib.import_module`, because the attribute `biparsdp.certify` is the
function, not the module.

Spans (name, start, end, parent, operation) stay in memory; the benchmark
writes them out when it ends.  Per-layer metrics are computed from them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# (module, function, span name)
TRACED = [
    ("model", "load_instance", "model.load_instance"),
    ("graph", "build_graph", "graph.build_graph"),
    ("graph", "edge_signs", "graph.edge_signs"),
    ("graph", "bipartition", "graph.bipartition"),
    ("graph", "cycle_basis", "graph.cycle_basis"),
    ("graph", "connected_components", "graph.connected_components"),
    ("graph", "is_forest", "graph.is_forest"),
    ("certify", "certify", "certify.certify"),
    ("certify", "certify_sign_corollaries", "certify.rule.sign_corollaries"),
    ("certify", "certify_sojoudi", "certify.rule.sojoudi"),
    ("certify", "certify_forest", "certify.rule.forest"),
    ("certify", "certify_bipartite", "certify.rule.bipartite"),
    ("sdp", "minimize_linear_functional_over_dual_cone", "sdp.edge"),
    ("sdp", "max_min_eigen_combination", "sdp.assumption"),
    ("sdp", "solve_standard_form", "sdp.ipm"),
    ("sdp", "solve", "sdp.solve"),
    ("relaxation", "solve_relaxation", "relaxation.solve_relaxation"),
    ("transform", "sign_split_transform", "transform.sign_split"),
]

# SDP shapes whose arguments identify the problem solved: a key seen twice
# in one operation is a redundant solve.
KEYED = {"sdp.edge", "sdp.assumption"}

# Partition of traced operation time into layers.  The IPM time inside an
# edge or assumption SDP belongs to that shape; inside sdp.solve it is
# reported apart from the polish (sdp.solve self time).
SHARES = ["model", "graph", "certify", "sdp.edge", "sdp.assumption",
          "sdp.solve.ipm", "sdp.polish", "relaxation", "transform", "other"]

GRAPH_FUNCS = ["build_graph", "edge_signs", "bipartition", "cycle_basis",
               "connected_components", "is_forest"]

# (name, unit, better): every metric a traced run prints.  Counts and times
# are totals per round (each instance of the workload processed once).
PER_LAYER = (
    [("model.load_instance.calls", "count", "lower"),
     ("model.load_instance.s", "s", "lower")]
    + [m for f in GRAPH_FUNCS for m in ((f"graph.{f}.calls", "count", "lower"),
                                         (f"graph.{f}.s", "s", "lower"))]
    + [("graph.s", "s", "lower"),
       ("certify.certify.calls", "count", "lower"),
       ("certify.rule.sign_corollaries.calls", "count", "lower"),
       ("certify.rule.sojoudi.calls", "count", "lower"),
       ("certify.rule.forest.calls", "count", "lower"),
       ("certify.rule.bipartite.calls", "count", "lower"),
       ("certify.self_s", "s", "lower"),
       ("certify.certified_frac", "fraction", "higher"),
       ("sdp.edge.calls", "count", "lower"),
       ("sdp.edge.distinct", "count", "lower"),
       ("sdp.edge.s", "s", "lower"),
       ("sdp.edge.useful_frac", "fraction", "higher"),
       ("sdp.assumption.calls", "count", "lower"),
       ("sdp.assumption.distinct", "count", "lower"),
       ("sdp.assumption.s", "s", "lower"),
       ("sdp.ipm.calls", "count", "lower"),
       ("sdp.ipm.s", "s", "lower"),
       ("sdp.ipm.iterations", "count", "lower"),
       ("sdp.ipm.iters_per_call", "count", "lower"),
       ("sdp.ipm.not_optimal", "count", "lower"),
       ("sdp.ipm.iterations_repeat", "bool", "higher"),
       ("sdp.solve.calls", "count", "lower"),
       ("sdp.solve.s", "s", "lower"),
       ("sdp.polish_s", "s", "lower"),
       ("relaxation.solve_relaxation.calls", "count", "lower"),
       ("relaxation.solve_relaxation.s", "s", "lower"),
       ("relaxation.self_s", "s", "lower"),
       ("relaxation.rank1_frac", "fraction", "higher"),
       ("transform.sign_split.calls", "count", "lower")]
    + [(f"share.{layer}", "fraction", "lower") for layer in SHARES]
    + [("trace.rounds", "count", "higher"),
       ("trace.ops_per_s", "1/s", "higher"),
       ("trace.untraced_ops_per_s", "1/s", "higher"),
       ("trace.overhead_frac", "fraction", "lower")]
)


class Tracer:
    """Wraps the TRACED functions and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, info]
        self._stack: list[int] = []
        self._op = -1
        self._keep: list = []  # keeps keyed instances alive, so ids stay unique
        self._patches: list[tuple] = []

    def begin_op(self, op: int) -> None:
        self._op = op
        self._keep.clear()

    def install(self) -> None:
        for module, func, name in TRACED:
            original = getattr(importlib.import_module(f"biparsdp.{module}"), func)
            wrapper = self._wrap(name, original)
            for modname, mod in list(sys.modules.items()):
                if modname != "biparsdp" and not modname.startswith("biparsdp."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn) if name in KEYED else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            info = {}
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                params = dict(bound.arguments)
                inst = params.pop(next(iter(params)))  # the instance comes first
                self._keep.append(inst)
                info["key"] = repr((id(inst), sorted(params.items())))
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, info]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info["error"] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if name == "sdp.ipm":
                info["iterations"] = result.iterations
                info["status"] = result.status.value
            elif name == "certify.certify":
                info["verdict"] = result.verdict.value
            elif name == "relaxation.solve_relaxation":
                info["rank1"] = result.x_star is not None
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, **info}) + "\n")


def ipm_iterations_by_op(spans) -> dict[int, int]:
    out: dict[int, int] = defaultdict(int)
    for name, _, _, _, op, info in spans:
        if name == "sdp.ipm":
            out[op] += info.get("iterations", 0)
    return out


def layer_metrics(spans, op_time: float, rounds: int) -> dict[str, float]:
    """Per-layer metrics, per round, from the spans of `rounds` rounds."""
    dur = [end - start for _, start, end, _, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    keys: dict[str, set] = defaultdict(set)
    share: dict[str, float] = dict.fromkeys(SHARES, 0.0)
    iterations = not_optimal = certified = rank1 = 0
    for i, (name, _, _, parent, op, info) in enumerate(spans):
        own = dur[i] - child[i]
        calls[name] += 1
        incl[name] += dur[i]
        self_t[name] += own
        if name in KEYED:
            keys[name].add((op, info["key"]))
        if name == "sdp.ipm":
            iterations += info.get("iterations", 0)
            not_optimal += info.get("status") != "Optimal"
            host = spans[parent][0] if parent >= 0 else ""
            layer = host if host in ("sdp.edge", "sdp.assumption") else "sdp.solve.ipm"
        elif name in ("sdp.edge", "sdp.assumption"):
            layer = name
        elif name == "sdp.solve":
            layer = "sdp.polish"
        else:
            layer = name.split(".")[0]
        share[layer] += own
        certified += info.get("verdict") == "CertifiedExact"
        rank1 += bool(info.get("rank1"))
        if parent < 0:
            share["other"] -= dur[i]
    share["other"] += op_time

    r = float(rounds)
    out: dict[str, float] = {
        "model.load_instance.calls": calls["model.load_instance"] / r,
        "model.load_instance.s": self_t["model.load_instance"] / r,
    }
    for f in GRAPH_FUNCS:
        out[f"graph.{f}.calls"] = calls[f"graph.{f}"] / r
        out[f"graph.{f}.s"] = self_t[f"graph.{f}"] / r
    out["graph.s"] = share["graph"] / r
    out["certify.certify.calls"] = calls["certify.certify"] / r
    for rule in ("sign_corollaries", "sojoudi", "forest", "bipartite"):
        out[f"certify.rule.{rule}.calls"] = calls[f"certify.rule.{rule}"] / r
    out["certify.self_s"] = share["certify"] / r
    out["certify.certified_frac"] = certified / max(calls["certify.certify"], 1)
    for shape in ("edge", "assumption"):
        out[f"sdp.{shape}.calls"] = calls[f"sdp.{shape}"] / r
        out[f"sdp.{shape}.distinct"] = len(keys[f"sdp.{shape}"]) / r
        out[f"sdp.{shape}.s"] = incl[f"sdp.{shape}"] / r
    out["sdp.edge.useful_frac"] = (
        len(keys["sdp.edge"]) / calls["sdp.edge"] if calls["sdp.edge"] else 1.0
    )
    out["sdp.ipm.calls"] = calls["sdp.ipm"] / r
    out["sdp.ipm.s"] = incl["sdp.ipm"] / r
    out["sdp.ipm.iterations"] = iterations / r
    out["sdp.ipm.iters_per_call"] = iterations / max(calls["sdp.ipm"], 1)
    out["sdp.ipm.not_optimal"] = not_optimal / r
    out["sdp.solve.calls"] = calls["sdp.solve"] / r
    out["sdp.solve.s"] = incl["sdp.solve"] / r
    out["sdp.polish_s"] = self_t["sdp.solve"] / r
    out["relaxation.solve_relaxation.calls"] = calls["relaxation.solve_relaxation"] / r
    out["relaxation.solve_relaxation.s"] = incl["relaxation.solve_relaxation"] / r
    out["relaxation.self_s"] = self_t["relaxation.solve_relaxation"] / r
    out["relaxation.rank1_frac"] = rank1 / max(calls["relaxation.solve_relaxation"], 1)
    out["transform.sign_split.calls"] = calls["transform.sign_split"] / r
    for layer in SHARES:
        out[f"share.{layer}"] = share[layer] / op_time if op_time > 0 else 0.0
    return out
