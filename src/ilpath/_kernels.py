"""The two hot loops: automaton reachability and box enumeration.

Feasibility is decided by `automaton_reach`, a breadth-first search over
bounded residue states; `enumerate_box` is the brute-force oracle that
cross-checks it.  Both are plain Python on exact integers, so no
coefficient, bound or budget is too wide for them.  `automaton_reach`
serves only `automaton.check_feasible`: the BP-v1 program check runs on
its own interpreter, so that it stays independent of this search.
"""

from __future__ import annotations

from collections import deque

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
    """Name of the kernel implementation, as recorded in reports."""
    return "pure"


def automaton_reach(columns, bvec, bounds, max_states):
    """Breadth-first search over bounded residue states.

    States are pairs ``(used, r)`` with ``used`` a bit and ``r`` an m-vector
    with ``|r_j| <= bounds[j]``.  Symbol ``i < n`` adds ``columns[i]`` to
    ``r``; symbol ``n`` requires ``used == 0``, subtracts ``bvec`` and sets
    the bit.  The target is ``(1, 0)``.

    Returns ``(status, path, discovered)`` where ``path`` is the symbol
    sequence of a shortest target word (ties broken by symbol order), or
    None.  ``status`` is "reached", "exhausted" (no target within bounds)
    or "budget" (more than ``max_states`` states discovered).
    """
    n = len(columns)
    m = len(bvec)
    zero = (0,) * m
    start = (0, zero)
    target = (1, zero)
    parent: dict = {start: None}
    queue = deque([start])
    discovered = 1

    while queue:
        state = queue.popleft()
        used, r = state
        for sym in range(n + 1):
            if sym < n:
                col = columns[sym]
                nxt_used = used
            else:
                if used:
                    continue
                col = [-b for b in bvec]
                nxt_used = 1
            ok = True
            nr = []
            for j in range(m):
                v = r[j] + col[j]
                if v > bounds[j] or v < -bounds[j]:
                    ok = False
                    break
                nr.append(v)
            if not ok:
                continue
            succ = (nxt_used, tuple(nr))
            if succ in parent:
                continue
            parent[succ] = (state, sym)
            discovered += 1
            if succ == target:
                path = []
                cur = succ
                while parent[cur] is not None:
                    prev, sym_ = parent[cur]
                    path.append(sym_)
                    cur = prev
                path.reverse()
                return REACHED, path, discovered
            if discovered > max_states:
                return BUDGET, None, discovered
            queue.append(succ)

    return EXHAUSTED, None, discovered


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
