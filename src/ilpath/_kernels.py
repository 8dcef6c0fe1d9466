"""The two hot loops: automaton reachability and box enumeration.

Feasibility is decided by `automaton_reach`.  The Steinitz box is symmetric
about 0, so the part of an accepted word after 'b' mirrors a walk from 0:
the search grows the residues reachable from 0 once and pairs each residue
``s`` with ``b - s``.  `enumerate_box` is the brute-force oracle that
cross-checks it.  Both are plain Python on exact integers, so no
coefficient, bound or budget is too wide for them.  `automaton_reach`
serves only `automaton.check_feasible`: the BP-v1 program check runs on
its own interpreter, so that it stays independent of this search.
"""

from __future__ import annotations

from operator import add, le, sub

REACHED = "reached"
EXHAUSTED = "exhausted"
BUDGET = "budget"

# The verdicts and default budgets of the `automaton` and `oracle`
# searches, which re-export them.  They live here so that the command line
# can build its parser and map verdicts to exit codes without loading
# either module.
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"  # no solution exists; see automaton.check_feasible
INCONCLUSIVE = "inconclusive"
INFEASIBLE_WITHIN_BOX = "infeasible-within-box"
BUDGET_EXCEEDED = "budget-exceeded"

DEFAULT_MAX_STATES = 5_000_000
DEFAULT_EXPORT_STATES = 10_000
DEFAULT_BOX = 10
DEFAULT_MAX_NODES = 10_000_000


def backend_name() -> str:
    """Name of the kernel implementation, as benchmark runs record it."""
    return "pure"


def automaton_reach(columns, bvec, bounds, max_states):
    """Decide ``A x = b`` by a one-sided search of the residue set ``R``.

    ``R`` holds the residues reachable from 0 by adding ``columns`` with
    every partial sum in the box ``|r_j| <= bounds[j]``.  The box is
    symmetric, so in an accepted word ``u b v`` the residue ``s`` after ``u``
    is in ``R``, and the residues along ``v``, negated and read backwards,
    walk from 0 to ``b - s`` in the box; conversely ``s`` and ``b - s`` in
    ``R`` give such a word.  A word exists exactly when ``R`` meets ``b - R``.

    ``R`` grows level by level; ``seen`` maps a residue to the symbol that
    first reached it and its depth, and paths are rebuilt by subtracting
    columns.  A new residue ``s`` at depth ``D`` pairs with a seen ``b - s``
    at depth ``D'``; the first pair of least ``T = D + D'`` is kept.  Pairs
    within the last completed level ``L`` are all recorded, so any other has
    a total above ``L``: the search stops once ``T <= L + 1``, with a word of
    length ``T + 1 = 1 + min sum(x)``.  Ties go by symbol order (``i < n`` is
    ``columns[i]``, ``n`` is 'b'): ``u`` is the least shortest walk to ``s``
    and ``v`` read backwards the least shortest walk to ``b - s``.  ``b = 0``
    is decided at the start state, by the word 'b' alone.

    Returns ``(status, path, discovered)``: "reached" with the symbol path,
    "exhausted" (no pair in ``R``) or "budget" once more than ``max_states``
    residues are discovered, even after a pair not yet proven least.  A
    residue costs about 230 bytes of peak RSS at ``m = 2`` (CPython 3.11),
    so the default budget of 5M residues bounds the search near 1.2 GB.
    """
    if not any(bvec):
        return REACHED, [len(columns)], 1
    zero = (0,) * len(bvec)
    seen = {zero: (None, 0)}
    best = None  # (T, s, b - s) of the first least pair
    level, depth = [zero], 0
    while level and (best is None or best[0] > depth + 1):
        depth += 1
        frontier, level = level, []
        for r in frontier:
            for sym, col in enumerate(columns):
                s = tuple(map(add, r, col))
                if s in seen or not all(map(le, map(abs, s), bounds)):
                    continue
                seen[s] = (sym, depth)
                mate = tuple(map(sub, bvec, s))
                if mate in seen and (best is None or depth + seen[mate][1] < best[0]):
                    best = (depth + seen[mate][1], s, mate)
                if len(seen) > max_states:
                    return BUDGET, None, len(seen)
                level.append(s)
    if best is None:
        return EXHAUSTED, None, len(seen)

    def walk_to(r):
        path = []
        while r != zero:
            path.append(seen[r][0])
            r = tuple(map(sub, r, columns[path[-1]]))
        return path[::-1]

    _, s, mate = best
    return REACHED, walk_to(s) + [len(columns)] + walk_to(mate)[::-1], len(seen)


def enumerate_box(rows, bvec, box, max_nodes):
    """Depth-first enumeration of ``[0, box]^n`` with per-constraint pruning.

    Returns ``(complete, nodes, solutions)``; ``solutions`` come out in
    lexicographic order.  ``complete`` is False when the node budget ran out,
    in which case ``solutions`` holds those found before it did.
    """
    n = len(rows[0])
    m = len(rows)

    # suffix[k][j] = (lowest, highest) contribution variables k..n-1 can add
    suffix = [[(0, 0)] * m]
    for k in range(n - 1, -1, -1):
        prev = suffix[0]
        cur = []
        for j in range(m):
            a = rows[j][k]
            lo, hi = prev[j]
            cur.append((lo + min(0, a * box), hi + max(0, a * box)))
        suffix.insert(0, cur)

    solutions = []
    x = [0] * n
    nodes = 0

    def admissible(k, partial):
        for j in range(m):
            lo, hi = suffix[k][j]
            if not partial[j] + lo <= bvec[j] <= partial[j] + hi:
                return False
        return True

    def descend(k, partial):
        nonlocal nodes
        for v in range(box + 1):
            nodes += 1
            if nodes > max_nodes:
                return False
            x[k] = v
            nxt = [partial[j] + rows[j][k] * v for j in range(m)]
            if not admissible(k + 1, nxt):
                continue
            if k == n - 1:
                solutions.append(tuple(x))
            else:
                if not descend(k + 1, nxt):
                    return False
        return True

    complete = descend(0, [0] * m)
    return complete, nodes, solutions
