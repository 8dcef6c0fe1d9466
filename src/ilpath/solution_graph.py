"""Labelled-multigraph encodings of ILP solutions.

A graph encodes an assignment in unary: the number of vertices labelled
``i`` is the value of variable ``i``, one extra vertex labelled 0 stands
for the right-hand side, and for every constraint the coefficient stubs
of opposite-signed vertices are matched pairwise through edges so that
the constraint balances exactly.  Graphs are immutable values.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from ilpath.instance import IlpError, IlpInstance, Solution, evaluate


@dataclass(frozen=True)
class SolutionGraph:
    """Vertices carry labels in ``[0, num_vars]``; edges carry a constraint
    index in ``[1, num_constraints]``.

    ``labels[vid]`` is the label of vertex ``vid``; ``edges`` is a multiset
    stored as a stable list of ``(u, v, j)`` with ``u < v``.  The label-0
    vertex is part of the data model even when isolated.
    """

    num_vars: int
    num_constraints: int
    labels: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        if not self.labels:
            raise IlpError("a solution graph needs at least the label-0 vertex")
        for u, v, j in self.edges:
            if not (0 <= u < len(self.labels) and 0 <= v < len(self.labels)):
                raise IlpError(f"edge ({u}, {v}, {j}) references an unknown vertex")
            if u == v:
                raise IlpError("self-loops are not allowed")

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    def vertices_with_label(self, label: int) -> tuple[int, ...]:
        return tuple(v for v, lab in enumerate(self.labels) if lab == label)


@dataclass(frozen=True)
class GraphVerdict:
    """Membership check outcome; ``condition`` is the first violated one."""

    ok: bool
    condition: int | None
    message: str

    def __bool__(self) -> bool:
        return self.ok


def build_graph(inst: IlpInstance, sol: Solution) -> SolutionGraph:
    """Construct the canonical graph encoding of a solution.

    Vertex ids are dense and label-major: id 0 is the label-0 vertex,
    followed by the label-1 vertices, and so on.  Per constraint, the
    positive and negative coefficient stubs (each vertex repeated by its
    coefficient magnitude, in id order) are zipped into edges, which picks
    one deterministic member among the many graphs encoding the solution.
    """
    residual = evaluate(inst, sol)
    if any(residual):
        raise IlpError(f"assignment is not a solution (residual {residual})")

    labels = [0]
    for i in range(1, inst.num_vars + 1):
        labels.extend([i] * sol.values[i - 1])
    columns = inst.columns

    edges = []
    for j in range(1, inst.num_constraints + 1):
        pos_stubs = []
        neg_stubs = []
        for vid, label in enumerate(labels):
            c = columns[label][j - 1]
            if c > 0:
                pos_stubs.extend([vid] * c)
            elif c < 0:
                neg_stubs.extend([vid] * (-c))
        if len(pos_stubs) != len(neg_stubs):  # impossible once residual is zero
            raise IlpError("internal error: unbalanced stub lists")
        edges.extend(
            (min(u, v), max(u, v), j) for u, v in zip(pos_stubs, neg_stubs)
        )

    return SolutionGraph(inst.num_vars, inst.num_constraints, tuple(labels), tuple(edges))


def validate_graph(inst: IlpInstance, g: SolutionGraph) -> GraphVerdict:
    """Check the four membership conditions, reporting the first violation.

    1. vertex labels partition the vertices with exactly one label-0 vertex;
    2. edge labels partition the edge multiset over ``[1, m]``;
    3. every edge joins opposite-signed endpoints for its constraint;
    4. the per-constraint degree of each vertex equals its coefficient
       magnitude (``|b_j|`` for the label-0 vertex).

    This check is the executable membership semantics for the graph class;
    a graph is accepted here exactly when it encodes some solution.
    """
    n, m = inst.num_vars, inst.num_constraints

    bad = [v for v, lab in enumerate(g.labels) if not 0 <= lab <= n]
    if bad:
        return GraphVerdict(False, 1, f"vertex {bad[0]} has label outside [0, {n}]")
    zero_vertices = g.vertices_with_label(0)
    if len(zero_vertices) != 1:
        return GraphVerdict(
            False, 1, f"expected exactly one label-0 vertex, found {len(zero_vertices)}"
        )

    for u, v, j in g.edges:
        if not 1 <= j <= m:
            return GraphVerdict(False, 2, f"edge ({u}, {v}) has label outside [1, {m}]")

    # labels and edge labels are in range from here on
    columns = inst.columns
    for u, v, j in g.edges:
        su = columns[g.labels[u]][j - 1]
        sv = columns[g.labels[v]][j - 1]
        if not ((su > 0 and sv < 0) or (su < 0 and sv > 0)):
            return GraphVerdict(
                False,
                3,
                f"edge ({u}, {v}) with label {j} joins signs "
                f"{'+' if su > 0 else '-' if su < 0 else '0'} and "
                f"{'+' if sv > 0 else '-' if sv < 0 else '0'}",
            )

    degree = Counter()
    for u, v, j in g.edges:
        degree[(u, j)] += 1
        degree[(v, j)] += 1
    for vid, label in enumerate(g.labels):
        column = columns[label]
        for j in range(1, m + 1):
            want = abs(column[j - 1])
            got = degree[(vid, j)]
            if got != want:
                return GraphVerdict(
                    False,
                    4,
                    f"vertex {vid} (label {label}) has {got} edges for "
                    f"constraint {j}, expected {want}",
                )

    return GraphVerdict(True, None, "graph encodes a solution")


def sol_of(g: SolutionGraph) -> Solution:
    """Read the encoded assignment back: label multiplicities for 1..n."""
    counts = Counter(g.labels)
    return Solution(tuple(counts.get(i, 0) for i in range(1, g.num_vars + 1)))


# --------------------------------------------------------------------------
# DOT export / import
#
# The subset used here is: the two graph attributes `n=<int>;` and
# `m=<int>;` for the label alphabets, one node statement per vertex and one
# edge statement per edge.  `from_dot` round-trips exactly this subset.

_ATTR_RE = re.compile(r"([nm])\s*=\s*(\d+)\s*;")
_NODE_RE = re.compile(r'v(\d+)\s*\[label="(\d+)"(?:,\s*tooltip="([^"]*)")?\]\s*;')
_EDGE_RE = re.compile(r'v(\d+)\s*--\s*v(\d+)\s*\[label="(\d+)"\]\s*;')


def _sign_char(c: int) -> str:
    return "+" if c > 0 else "-" if c < 0 else "0"


def to_dot(g: SolutionGraph, inst: IlpInstance | None = None) -> str:
    """Render as DOT.  With an instance, tooltips carry the per-constraint
    signs of each vertex.  The label-0 vertex is always emitted, even when
    isolated, so that the output parses back to an identical graph."""
    lines = ["graph ilp_solution {"]
    lines.append(f"  n={g.num_vars};")
    lines.append(f"  m={g.num_constraints};")
    tooltips: dict[int, str] = {}
    for vid, label in enumerate(g.labels):
        tooltip = ""
        if inst is not None:
            tooltip = tooltips.get(label)
            if tooltip is None:
                n = inst.num_vars
                if not 0 <= label <= n:
                    raise IlpError(f"vertex {vid} has label {label} outside [0, {n}]")
                signs = ",".join(_sign_char(c) for c in inst.columns[label])
                name = "b" if label == 0 else inst.var_names[label - 1]
                tooltip = tooltips[label] = f', tooltip="{name}: {signs}"'
        lines.append(f'  v{vid} [label="{label}"{tooltip}];')
    for u, v, j in g.edges:
        lines.append(f'  v{u} -- v{v} [label="{j}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def from_dot(text: str) -> SolutionGraph:
    """Parse the DOT subset written by `to_dot`."""
    attrs = {}
    node_labels = {}
    edges = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("graph ", "}", "//")):
            continue
        if m := _NODE_RE.fullmatch(line):
            vid = int(m.group(1))
            if vid in node_labels:
                raise IlpError(f"DOT vertex v{vid} declared twice: {line!r}")
            node_labels[vid] = int(m.group(2))
        elif m := _EDGE_RE.fullmatch(line):
            u, v, j = int(m.group(1)), int(m.group(2)), int(m.group(3))
            edges.append((min(u, v), max(u, v), j))
        elif m := _ATTR_RE.fullmatch(line):
            if m.group(1) in attrs:
                raise IlpError(f"DOT attribute {m.group(1)} declared twice: {line!r}")
            attrs[m.group(1)] = int(m.group(2))
        else:
            raise IlpError(f"unrecognized DOT line: {line!r}")
    if "n" not in attrs or "m" not in attrs:
        raise IlpError("DOT input is missing the n/m graph attributes")
    if set(node_labels) != set(range(len(node_labels))):
        raise IlpError("DOT vertex ids must be dense, starting at v0")
    labels = tuple(node_labels[v] for v in range(len(node_labels)))
    return SolutionGraph(attrs["n"], attrs["m"], labels, tuple(edges))
