"""Spans around the library's public functions, and per-layer metrics.

`Tracer.install` wraps each function in `TRACED` from outside, in every
``ilpath`` module namespace that binds it, so calls between library modules
are seen as well as the benchmark's own.  A span records its name, start,
end, parent span and request id; spans stay in memory until the run writes
them out.  Some spans also keep a few numbers read off the call's result
(states, nodes, vertices), so work is counted where it is done.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: Defining module (without ``ilpath.``) and name of each traced function.
TRACED = (
    ("_kernels", "automaton_reach"),
    ("_kernels", "enumerate_box"),
    ("instance", "parse_instance"),
    ("automaton", "check_feasible"),
    ("automaton", "interpret_boolean_program"),
    ("automaton", "emit_boolean_program"),
    ("automaton", "parse_boolean_program"),
    ("automaton", "schedule_to_word"),
    ("oracle", "enumerate_solutions"),
    ("solution_graph", "build_graph"),
    ("solution_graph", "validate_graph"),
    ("solution_graph", "to_dot"),
    ("decomposition", "schedule"),
    ("decomposition", "check_schedule_invariants"),
    ("decomposition", "build_special_form"),
    ("decomposition", "decompose"),
    ("decomposition", "validate_decomposition"),
    ("decomposition", "max_label_occupancy"),
    ("cli", "verify_instance"),
)

#: Numbers kept from a call's result, by span name.
RESULT_COUNTS = {
    "kernels.automaton_reach": lambda r: (r[2], int(r[0] == "budget")),
    "kernels.enumerate_box": lambda r: (r[1],),
    "automaton.check_feasible": lambda r: (r.states_explored,),
    "automaton.interpret_boolean_program": lambda r: (r.states_explored,),
    "oracle.enumerate_solutions": lambda r: (len(r.solutions), r.nodes_explored),
    "solution_graph.build_graph": lambda r: (r.num_vertices, len(r.edges)),
    "decomposition.decompose": lambda r: (len(r.bags),),
}


def span_name(module: str, name: str) -> str:
    """``ilpath._kernels`` is the ``kernels`` layer: metric names start with a letter."""
    return f"{module.lstrip('_')}.{name}"


SELF_TIMED = tuple(span_name(module, name) for module, name in TRACED)


class Tracer:
    """Records spans while installed; `request` tags the spans of one request."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.counts: dict[int, tuple] = {}
        self.request = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        count = RESULT_COUNTS.get(name)
        clock = time.process_time  # the clock run.py times requests with

        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.requests.append(self.request)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._stack.pop()
            if count is not None:
                self.counts[idx] = count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function wherever an ``ilpath`` module binds it."""
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ilpath" or name.startswith("ilpath."))
        ]
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules[f"ilpath.{module_name}"], fn_name)
            wrapper = self._wrap(span_name(module_name, fn_name), original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    def spans(self, first_request: int, end_request: int) -> list[int]:
        """Indices of the spans of requests ``first_request <= id < end_request``."""
        return [i for i, r in enumerate(self.requests) if first_request <= r < end_request]

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as out:
            out.write("span,parent,request,name,start_s,end_s\n")
            for i, name in enumerate(self.names):
                out.write(
                    f"{i},{self.parents[i]},{self.requests[i]},{name},"
                    f"{self.starts[i]:.9f},{self.ends[i]:.9f}\n"
                )


def self_times(starts, ends, parents, indices) -> dict[int, float]:
    """Self time of each span in ``indices``: its duration minus the time
    its child spans cover.

    One thread makes every span, so a span's children never overlap each
    other and the time they cover is the sum of their durations.
    ``indices`` must hold each listed span's children too.
    """
    own = {i: ends[i] - starts[i] for i in indices}
    for i in indices:
        parent = parents[i]
        if parent in own:
            own[parent] -= ends[i] - starts[i]
    return own


def layer_metrics(tracer: Tracer, indices) -> dict[str, float]:
    """Per-layer figures over the given spans (normally one pass)."""
    own = self_times(tracer.starts, tracer.ends, tracer.parents, indices)
    self_s = defaultdict(float)
    busy = defaultdict(float)
    calls = defaultdict(int)
    totals = defaultdict(lambda: [0, 0])
    bp_calls = 0
    for i in indices:
        name = tracer.names[i]
        self_s[name] += own[i]
        busy[name] += tracer.ends[i] - tracer.starts[i]
        calls[name] += 1
        for k, value in enumerate(tracer.counts.get(i, ())):
            totals[name][k] += value
        parent = tracer.parents[i]
        if (name == "kernels.automaton_reach" and parent >= 0
                and tracer.names[parent] == "automaton.interpret_boolean_program"):
            bp_calls += 1

    def ratio(a, b):
        return a / b if b else 0.0

    reach = "kernels.automaton_reach"
    metrics = {f"{name}.self_s": self_s[name] for name in SELF_TIMED}
    metrics.update({
        f"{reach}.calls": calls[reach],
        f"{reach}.states": totals[reach][0],
        f"{reach}.states_per_s": ratio(totals[reach][0], busy[reach]),
        f"{reach}.budget_hits": totals[reach][1],
        f"{reach}.bp_call_share": ratio(bp_calls, calls[reach]),
        "kernels.enumerate_box.nodes": totals["kernels.enumerate_box"][0],
        "automaton.check_feasible.states": totals["automaton.check_feasible"][0],
        "automaton.interpret_boolean_program.states":
            totals["automaton.interpret_boolean_program"][0],
        "automaton.bp_recheck_ratio": ratio(
            totals["automaton.interpret_boolean_program"][0],
            totals["automaton.check_feasible"][0],
        ),
        "oracle.solutions_per_node": ratio(
            totals["oracle.enumerate_solutions"][0], totals["oracle.enumerate_solutions"][1]
        ),
        "oracle.nodes": totals["oracle.enumerate_solutions"][1],
        "solution_graph.vertices": totals["solution_graph.build_graph"][0],
        "solution_graph.edges": totals["solution_graph.build_graph"][1],
        "decomposition.bags": totals["decomposition.decompose"][0],
    })
    return metrics


#: Per-layer metrics that count work: they must repeat exactly.
WORK_COUNTS = (
    "kernels.automaton_reach.calls",
    "kernels.automaton_reach.states",
    "kernels.automaton_reach.budget_hits",
    "kernels.enumerate_box.nodes",
    "automaton.check_feasible.states",
    "automaton.interpret_boolean_program.states",
    "oracle.nodes",
    "solution_graph.vertices",
    "solution_graph.edges",
    "decomposition.bags",
)
