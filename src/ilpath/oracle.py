"""Brute-force ground truth: exhaustive solution enumeration inside a box.

The oracle is deliberately independent of the graph, decomposition and
automaton machinery; cross-checks elsewhere rely on that independence.
`enumerate_solutions` is its one entry point.  The statuses below are the
verdicts of the ``oracle`` command: an empty, complete enumeration means
infeasible *within the box*, never unconditionally.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass

from ilpath import _kernels
from ilpath._kernels import (
    BUDGET_EXCEEDED,
    DEFAULT_BOX,
    DEFAULT_MAX_NODES,
    FEASIBLE,
    INFEASIBLE_WITHIN_BOX,
)
from ilpath.instance import IlpError, IlpInstance, Solution


@dataclass(frozen=True)
class SolutionSet:
    """All solutions of ``instance`` found inside ``[0, box]^n``.

    ``complete`` is False when the enumeration budget ran out, in which
    case ``solutions`` is a (still lexicographically ordered) prefix.
    """

    instance: IlpInstance
    box: int
    solutions: tuple[Solution, ...]
    complete: bool
    nodes_explored: int

    def __len__(self) -> int:
        return len(self.solutions)


def enumerate_solutions(
    inst: IlpInstance, box: int, max_nodes: int = DEFAULT_MAX_NODES
) -> SolutionSet:
    """Exhaustively list every solution with all entries in ``[0, box]``.

    Assignments are scanned lexicographically with per-constraint pruning
    on partial sums, so the result order is lexicographic.
    """
    if box < 0:
        raise IlpError("box bound must be non-negative")
    complete, nodes, sols = _kernels.enumerate_box(inst.coeffs, inst.rhs, box, max_nodes)
    return SolutionSet(
        instance=inst,
        box=box,
        solutions=tuple(Solution(s) for s in sols),
        complete=complete,
        nodes_explored=nodes,
    )


def solutions_to_csv(sset: SolutionSet) -> str:
    """One solution per row, header row = variable names."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(sset.instance.var_names)
    for sol in sset.solutions:
        writer.writerow(sol.values)
    return buf.getvalue()
