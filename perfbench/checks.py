"""Output checks that use only the benchmark's own exact integer arithmetic.

Nothing here calls ``ilpath.evaluate``, ``ilpath.oracle`` or a library
validator: a check that re-ran the code it checks could not catch that
code's bugs.  Each ``check_*`` function returns a list of problems, empty
when the result is correct.
"""

from __future__ import annotations

import json
import re
from collections import Counter

from ilpath.solution_graph import sol_of

RESERVED_SYMBOL = "b"


def mat_vec(coeffs, x) -> tuple[int, ...]:
    return tuple(sum(a * v for a, v in zip(row, x)) for row in coeffs)


def box_solutions(coeffs, rhs, box: int) -> list[tuple[int, ...]]:
    """Every x in ``[0, box]^n`` with ``A x = b``, in lexicographic order.

    Depth first over the variables; a branch is cut when the rows can no
    longer reach ``b`` with the remaining variables inside the box.
    """
    m, n = len(coeffs), len(coeffs[0])
    # span[k][j]: lowest and highest sum of a_ji * x_i over i >= k in the box
    span = [[(0, 0)] * m for _ in range(n + 1)]
    for k in range(n - 1, -1, -1):
        span[k] = [
            (lo + min(0, coeffs[j][k] * box), hi + max(0, coeffs[j][k] * box))
            for j, (lo, hi) in enumerate(span[k + 1])
        ]
    found = []

    def walk(k, partial, prefix):
        if k == n:
            found.append(tuple(prefix))
            return
        for v in range(box + 1):
            nxt = [p + coeffs[j][k] * v for j, p in enumerate(partial)]
            if all(lo <= rhs[j] - nxt[j] <= hi for j, (lo, hi) in enumerate(span[k + 1])):
                walk(k + 1, nxt, prefix + [v])

    walk(0, [0] * m, [])
    return found


def count_box_solutions(coeffs, rhs, box: int) -> int:
    return len(box_solutions(coeffs, rhs, box))


def check_decide(case, result) -> list[str]:
    """Parse gives back the generated system; a witness spells a solution;
    ``infeasible`` agrees with the benchmark's own box search."""
    inst, feas, vector = result
    problems = []
    if (inst.coeffs, inst.rhs, inst.var_names) != (case.coeffs, case.rhs, case.names):
        problems.append("parsed instance differs from the generated system")
    if feas.status == "feasible":
        letters = Counter(feas.witness)
        if letters[RESERVED_SYMBOL] != 1 or set(letters) - set(case.names) - {RESERVED_SYMBOL}:
            problems.append(f"witness {feas.witness} is not a word with one 'b'")
        x = tuple(letters[name] for name in case.names)
        if vector != x:
            problems.append(f"parikh gave {vector}, the witness counts {x}")
        if mat_vec(case.coeffs, x) != case.rhs:
            problems.append(f"witness counts {x} do not solve A x = b")
    elif feas.status == "infeasible":
        if case.box_solutions:
            problems.append(f"infeasible, but {case.box_solutions} box solutions exist")
    else:
        problems.append(f"verdict {feas.status}")
    return problems


def graph_problems(coeffs, rhs, x, labels, edges) -> list[str]:
    """The graph encodes x: one label-0 vertex, label counts x, and per
    constraint a perfect matching of opposite-signed coefficient stubs."""
    n, m = len(x), len(coeffs)

    def coef(j, label):
        return -rhs[j] if label == 0 else coeffs[j][label - 1]

    counts = Counter(labels)
    if set(counts) - set(range(n + 1)):
        return ["a vertex label lies outside [0, n]"]
    if counts[0] != 1:
        return [f"{counts[0]} label-0 vertices"]
    if tuple(counts[i] for i in range(1, n + 1)) != tuple(x):
        return ["label counts differ from x"]
    degree = Counter()
    for u, v, j in edges:
        if not 1 <= j <= m or coef(j - 1, labels[u]) * coef(j - 1, labels[v]) >= 0:
            return [f"edge ({u}, {v}, {j}) does not join opposite-signed stubs"]
        degree[u, j] += 1
        degree[v, j] += 1
    for vid, label in enumerate(labels):
        for j in range(m):
            if degree[vid, j + 1] != abs(coef(j, label)):
                return [f"vertex {vid} has the wrong degree in constraint {j + 1}"]
    return []


def decomposition_problems(num_vertices, edges, bags) -> list[str]:
    """Every vertex in a contiguous run of bags, every edge inside one bag."""
    first, last, seen = {}, {}, Counter()
    for k, bag in enumerate(bags):
        for v in bag:
            first.setdefault(v, k)
            last[v] = k
            seen[v] += 1
    if set(seen) != set(range(num_vertices)):
        return ["the bags do not cover exactly the vertices"]
    for v, count in seen.items():
        if last[v] - first[v] + 1 != count:
            return [f"the bags holding vertex {v} are not contiguous"]
    for u, v, _j in edges:
        if max(first[u], first[v]) > min(last[u], last[v]):
            return [f"edge ({u}, {v}) lies in no bag"]
    return []


_DOT_NODE = re.compile(r'\s*v\d+ \[label="\d+"')
_DOT_EDGE = re.compile(r"\s*v\d+ -- v\d+ ")


def check_unary(case, result) -> list[str]:
    """Width at most 2n (2n - 1 when b = 0), at most two same-label vertices
    per bag, 1 + sum(x) vertices, and both graphs encode x."""
    inst, x = case.inst, case.solution.values
    coeffs, rhs, n = inst.coeffs, inst.rhs, len(x)
    sf_graph, bags = result.special_form.graph, result.decomposition.bags
    problems = []
    if not (result.valid and result.graph_valid):
        problems.append("the library rejected its own decomposition or graph")
    for g in (result.graph, sf_graph):
        if len(g.labels) != 1 + sum(x):
            problems.append(f"{len(g.labels)} vertices, expected {1 + sum(x)}")
        problems += graph_problems(coeffs, rhs, x, g.labels, g.edges)
    problems += decomposition_problems(len(sf_graph.labels), sf_graph.edges, bags)
    width = max(len(bag) for bag in bags) - 1
    bound = 2 * n - (1 if not any(rhs) else 0)
    if width > bound or width != result.decomposition.width:
        problems.append(f"width {width} (reported {result.decomposition.width}), bound {bound}")
    for bag in bags:
        if max(Counter(sf_graph.labels[v] for v in bag).values()) > 2:
            problems.append("a bag holds more than two same-label vertices")
            break
    if json.loads(result.listing) != {"bags": [sorted(b) for b in bags], "width": width}:
        problems.append("the JSON bag listing differs from the decomposition")
    lines = result.dot.splitlines()
    nodes = sum(1 for line in lines if _DOT_NODE.match(line))
    edges = sum(1 for line in lines if _DOT_EDGE.match(line))
    if (nodes, edges) != (len(result.graph.labels), len(result.graph.edges)):
        problems.append(f"DOT has {nodes} nodes and {edges} edges")
    if sol_of(result.graph).values != tuple(x):
        problems.append("sol_of does not return x")
    return problems


def check_verify(case, summary) -> list[str]:
    """No breaches, no inconclusive verdict, the oracle found exactly the
    benchmark's box solutions, and those make the verdict ``feasible``."""
    problems = [f"breach: {b}" for b in summary["breaches"]]
    for key in ("automaton_verdict", "program_verdict"):
        if summary[key] == "inconclusive":
            problems.append(f"{key} is inconclusive")
    if summary["oracle_solutions"] != case.box_solutions or not summary["oracle_complete"]:
        problems.append(
            f"oracle found {summary['oracle_solutions']} solutions, "
            f"the box search {case.box_solutions}"
        )
    if case.box_solutions and summary["automaton_verdict"] != "feasible":
        problems.append(f"verdict {summary['automaton_verdict']} with box solutions")
    return problems
