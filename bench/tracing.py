"""In-memory span recorder for the public functions of each brightlab layer.

The wrappers are installed from outside the package, so no file under
``src/`` changes: every binding of a wrapped function is replaced, whether it
is the defining module's attribute or a ``from ... import`` copy held by
another module, and ``jet``/``support`` are wrapped on each body family class
and ``jet`` on ``ProjectedBody``.

A span is (name, start, end, parent span, report).  Self time is a span's
duration minus the time its direct child spans cover; calls are synchronous
and single-threaded, so direct children never overlap.
"""

from __future__ import annotations

import csv
import functools
import inspect
from array import array
from collections import Counter
from math import comb
from pathlib import Path
from time import perf_counter

LAYERS = ("body", "weingarten", "multilinear", "tomography", "lemma_lab", "sampling", "cli")


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _quadrature_nodes(args, kwargs, result):
    """Directions evaluated by one ``volume_from_support`` call, from its rule."""
    k = args[0].dim
    nodes = _arg(args, kwargs, 1, "nodes")
    if k == 1:
        n = 2
    elif k == 2:
        n = 256 if nodes is None else int(nodes)
    elif k == 3:
        polar = 32 if nodes is None else int(nodes)
        n = polar * 2 * polar
    else:
        n = 4096 if nodes is None else int(nodes)
    return {"tomography.nodes": n}


def _minors(args, kwargs, result):
    m = len(args[0])
    return {"multilinear.wedge_power.minors": comb(m, int(_arg(args, kwargs, 1, "k"))) ** 2}


def _search_evaluations(args, kwargs, result):
    return {"weingarten.antipodal_search.evaluations": result.evaluations}


def _solutions(args, kwargs, result):
    return {"lemma_lab.solutions": len(result)}


def _trials(args, kwargs, result):
    return {"lemma_lab.trials": result.trials}


# counters derived from a wrapped call's arguments or result
_COUNTERS = {
    "tomography.volume_from_support": _quadrature_nodes,
    "multilinear.wedge_power": _minors,
    "weingarten.antipodal_search": _search_evaluations,
    "lemma_lab.find_hypothesis_solutions": _solutions,
    "lemma_lab.antipodal_falsification": _trials,
}


class Tracer:
    """Records spans while installed; aggregates calls, self and total time per name."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._layer_of: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_report = array("i")
        self.report = -1
        self._stack: list[list] = []  # [span index, name id, child time]
        self.reset_totals()

    def reset_totals(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.errors: Counter = Counter({layer: 0 for layer in LAYERS})

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._layer_of.append(name.split(".", 1)[0])
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        layer = self._layer_of[nid]
        counter = _COUNTERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(self.span_start)
            frame = [idx, nid, 0.0]
            self.span_name.append(nid)
            self.span_parent.append(parent[0] if parent else -1)
            self.span_report.append(self.report)
            self.span_end.append(0.0)
            stack.append(frame)
            start = perf_counter()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # count an exception once per layer boundary it crosses
                if parent is None or self._layer_of[parent[1]] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self.span_end[idx] = end
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[2]
            if counter is not None:
                self.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer of ``package`` (brightlab)."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        targets: dict[int, tuple] = {}
        for layer, module in modules.items():
            names = ["main"] if layer == "cli" else getattr(module, "__all__", dir(module))
            for attr in names:
                obj = getattr(module, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    targets[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        # replace every module-level binding, including from-import copies
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    setattr(module, attr, targets[id(obj)][1])
        body = modules["body"]
        for cls in vars(body).values():
            if inspect.isclass(cls) and issubclass(cls, body.ConvexBody) and cls is not body.ConvexBody:
                for method in ("jet", "support"):
                    if method in vars(cls):
                        setattr(cls, method, self.wrap(vars(cls)[method], f"body.{method}"))
        projected = modules["tomography"].ProjectedBody
        projected.jet = self.wrap(projected.jet, "tomography.projected_jet")

    def totals(self) -> dict:
        """Aggregates since the last ``reset_totals``."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "errors": dict(self.errors),
        }

    def write_spans(self, path: Path, report_names: list[str]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("span", "name", "start_s", "end_s", "parent", "report"))
            for i in range(len(self.span_start)):
                r = self.span_report[i]
                writer.writerow(
                    (
                        i,
                        self.names[self.span_name[i]],
                        f"{self.span_start[i]:.9f}",
                        f"{self.span_end[i]:.9f}",
                        self.span_parent[i],
                        report_names[r] if r >= 0 else "",
                    )
                )
