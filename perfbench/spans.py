"""In-memory spans around calls into mixdom's modules, recorded from outside.

``Tracer.install`` replaces each traced public function at its module
attribute and at every other mixdom module that imported the same function
object by name (``constructions.verify``, ``cli.build_graph``, ...), and
``restore`` puts the originals back. No file under ``src/`` changes.

A span holds its name, layer, start, end, parent span and operation id. A
call into a layer from inside the same layer (``build`` -> ``build_graph``,
``dump`` -> ``dumps``) is folded into the outer span, so a layer's spans
never overlap in one thread. Threads keep their own span stacks; a span
opened on a pool thread with an empty stack hangs off the operation's root
span.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field

# (layer, module, functions). The solver builds its greedy incumbent by
# calling the kernel directly, so _kernels.greedy_fill is traced as part of
# the domination layer's greedy completion.
SITES = (
    ("petersen", "mixdom.petersen", ("build", "build_graph")),
    ("constructions", "mixdom.constructions",
     ("construct", "construct_k1", "construct_k2_block4", "construct_k2_block8",
      "construct_general")),
    ("formulas", "mixdom.formulas",
     ("formula_for", "gamma_k1", "gamma_k2", "gamma_k2_remark", "upper_bound_general")),
    ("domination", "mixdom.domination", ("verify", "greedy_complete")),
    ("domination", "mixdom._kernels", ("greedy_fill",)),
    ("solver", "mixdom.solver", ("solve_exact", "solve_exhaustive")),
    ("setfile", "mixdom.setfile", ("dump", "dumps", "load", "loads")),
    ("cli", "mixdom.cli", ("compare_row",)),
)


def _attrs(name, args, kwargs, result) -> dict:
    """Counts taken at the span boundary from the call's arguments and result."""
    if name == "constructions.construct" or name.startswith("constructions.construct_"):
        return {"repaired": bool(result.repaired)}
    if name == "domination.verify":
        return {"elements": int(args[0].num_elements)}
    if name == "domination.greedy_fill":
        return {"added": len(result)}
    if name == "solver.solve_exact":
        initial = kwargs.get("initial")
        return {"nodes": result.nodes_explored, "optimum": result.optimum,
                "proved": result.proved,
                "initial": None if initial is None else len(initial)}
    if name == "setfile.dumps":
        return {"bytes": len(result)}
    if name == "setfile.dump":
        return {"bytes": os.path.getsize(args[0])}
    if name in ("setfile.load", "setfile.loads"):
        return {"elements": result.size}
    return {}


@dataclass
class Span:
    id: int
    op: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self.op = 0
        self.op_root: int | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> Span | None:
        stack = self._stack()
        if stack and stack[-1].layer == layer:
            return None
        parent = stack[-1].id if stack else self.op_root
        span = Span(next(self._ids), self.op, parent, name, layer, time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def command(self, op: int, name: str):
        """Open the root span of operation ``op`` (a CLI command)."""
        self.op = op
        self.op_root = None
        span = self.open(name, "command")
        self.op_root = span.id
        return span

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, layer)
            if span is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            span.attrs = _attrs(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "mixdom" or key.startswith("mixdom.")]
        for layer, modname, names in SITES:
            module = sys.modules[modname]
            for fname in names:
                original = getattr(module, fname)
                traced = self._wrap(layer, f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, value))
                            setattr(mod, attr, traced)

    def restore(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def write(self, path, header: dict) -> None:
        rows = [[s.op, s.id, s.parent, s.name, s.start, s.end, s.attrs] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "columns": ["op", "id", "parent", "name", "start", "end",
                                             "attrs"], "spans": rows}, fh)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_seconds(span: Span, children: dict[int, list[Span]]) -> float:
    kids = children.get(span.id, ())
    return span.seconds - covered([(c.start, c.end) for c in kids], span.start, span.end)


def layer_metrics(spans: list[Span], op_kinds: dict[int, str], workers: int) -> dict:
    """Per-layer metrics of one traced round, named after mixdom's modules."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def pick(*names):
        return [s for s in spans if s.name in names]

    def total(items):
        return sum(s.seconds for s in items)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    builds = [s for s in spans if s.layer == "petersen"]
    cons = [s for s in spans if s.layer == "constructions"]
    forms = [s for s in spans if s.layer == "formulas"]
    verifies = pick("domination.verify")
    greedy = pick("domination.greedy_complete", "domination.greedy_fill")
    solves = pick("solver.solve_exact")
    rows = pick("cli.compare_row")
    commands = [s for s in spans if s.layer == "command"]
    dumps = pick("setfile.dump", "setfile.dumps")
    loads = pick("setfile.load", "setfile.loads")

    nodes = {"solve": 0, "compare": 0}
    excess = 0
    for s in solves:
        kind = op_kinds.get(s.op)
        if kind in nodes:
            nodes[kind] += s.attrs["nodes"]
        if s.attrs["proved"]:
            incumbents = [c.attrs["added"] for c in children.get(s.id, ())
                          if c.name == "domination.greedy_fill"]
            if s.attrs["initial"] is not None:
                incumbents.append(s.attrs["initial"])
            excess += min(incumbents) - s.attrs["optimum"]
    solve_s = total(solves)
    compare_wall = total(c for c in commands if op_kinds.get(c.op) == "compare")
    verify_s = total(verifies)
    load_s = total(loads)
    return {
        "petersen.build_calls": len(builds),
        "petersen.build_s": total(builds),
        "constructions.construct_calls": len(cons),
        "constructions.construct_s": total(cons),
        "constructions.self_s": sum(self_seconds(s, children) for s in cons),
        "constructions.repairs": sum(s.attrs["repaired"] for s in cons),
        "formulas.calls": len(forms),
        "formulas.s": total(forms),
        "domination.verify_calls": len(verifies),
        "domination.verify_s": verify_s,
        "domination.verify_elements_per_s": ratio(sum(s.attrs["elements"] for s in verifies),
                                                  verify_s),
        "domination.greedy_s": total(greedy),
        "solver.nodes.solve": nodes["solve"],
        "solver.nodes.compare": nodes["compare"],
        "solver.solve_s": solve_s,
        "solver.nodes_per_s": ratio(sum(s.attrs["nodes"] for s in solves), solve_s),
        "solver.incumbent_excess": excess,
        "cli.compare_row_s": total(rows),
        "cli.pool_efficiency": ratio(total(rows), compare_wall * workers),
        "cli.command_self_s": sum(self_seconds(s, children) for s in commands),
        "setfile.dump_s": total(dumps),
        "setfile.load_s": load_s,
        "setfile.bytes": sum(s.attrs["bytes"] for s in dumps),
        "setfile.load_elements_per_s": ratio(sum(s.attrs["elements"] for s in loads), load_s),
    }
