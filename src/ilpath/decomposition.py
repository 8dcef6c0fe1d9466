"""Width-bounded path decompositions of solution graphs.

The pipeline: a counter schedule orders unary "increments" of the
variables into rounds; each round contributes one block of vertices and
one block of edges chosen so that, per constraint and variable, at most
one vertex keeps unmatched stubs.  Reading the blocks left to right and
dropping fully matched vertices yields a path decomposition whose width
never exceeds twice the number of variables.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction

from ilpath.instance import REDUCE, IlpError, IlpInstance, Solution, evaluate
from ilpath.solution_graph import SolutionGraph, sol_of, validate_graph

# Unused here.  `perfbench/spans.py` looks up every traced module in
# `sys.modules`, `ilpath.oracle` included, and the benchmark's `decide` and
# `unary` processes load this layer but never the oracle.
from ilpath import oracle  # noqa: F401


@dataclass(frozen=True)
class ScheduleTrace:
    """The increment/reduce step sequence for one solution.

    ``steps[k]`` is a variable index (1-based) for an increment or
    ``REDUCE``.  ``c_history`` and ``r_history`` hold the counter vectors
    after each step: incrementing variable ``i`` adds ``s_l`` (the largest
    solution entry) to ``c_i`` and the column ``a_ji`` to every ``r_j``;
    a reduce subtracts ``s_i`` from every ``c_i`` and leaves ``r`` alone.
    For a zero right-hand side this keeps ``r_j * s_l == sum_i c_i * a_ji``
    after every step; see `check_schedule_invariants` for the general form.

    The derived views (the properties ``num_reduces``, ``rounds``,
    ``c_after_reduce`` and ``r_after_reduce``, and ``increment_counts()``)
    are not stored: every access rescans ``steps`` in O(len(steps)) and
    builds a fresh value.  Read a view once into a local before indexing
    it in a loop.
    """

    num_vars: int
    steps: tuple[int, ...]
    c_history: tuple[tuple[int, ...], ...]
    r_history: tuple[tuple[int, ...], ...]
    s_l: int

    @property
    def num_reduces(self) -> int:
        return sum(1 for s in self.steps if s == REDUCE)

    @property
    def rounds(self) -> tuple[tuple[int, ...], ...]:
        """Variable indices incremented before each reduce, in step order."""
        rounds = []
        current: list[int] = []
        for step in self.steps:
            if step == REDUCE:
                rounds.append(tuple(current))
                current = []
            else:
                current.append(step)
        return tuple(rounds)

    @property
    def c_after_reduce(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            c for step, c in zip(self.steps, self.c_history) if step == REDUCE
        )

    @property
    def r_after_reduce(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            r for step, r in zip(self.steps, self.r_history) if step == REDUCE
        )

    def increment_counts(self) -> tuple[int, ...]:
        counts = Counter(s for s in self.steps if s != REDUCE)
        return tuple(counts.get(i, 0) for i in range(1, self.num_vars + 1))


def schedule(inst: IlpInstance, sol: Solution) -> ScheduleTrace:
    """Run the counter schedule for a solution.

    Per round, every variable whose counter is below its solution value is
    incremented once, scanning indices in ascending order; the round ends
    with a reduce.  The run stops after exactly ``s_l`` reduces, at which
    point every counter is back to zero and variable ``i`` has received
    exactly ``s_i`` increments.  The zero solution yields the empty trace.
    """
    residual = evaluate(inst, sol)
    if any(residual):
        raise IlpError(f"assignment is not a solution (residual {residual})")

    n = inst.num_vars
    s = sol.values
    s_l = sol.max_value
    steps: list[int] = []
    c_hist: list[tuple[int, ...]] = []
    r_hist: list[tuple[int, ...]] = []

    c = [0] * n
    r = [0] * inst.num_constraints
    for _round in range(s_l):
        for i in range(1, n + 1):
            if c[i - 1] < s[i - 1]:
                c[i - 1] += s_l
                col = inst.column(i)
                r = [rj + aj for rj, aj in zip(r, col)]
                steps.append(i)
                c_hist.append(tuple(c))
                r_hist.append(tuple(r))
        for i in range(n):
            c[i] -= s[i]
        steps.append(REDUCE)
        c_hist.append(tuple(c))
        r_hist.append(tuple(r))

    if any(c):  # cannot happen for a genuine solution
        raise IlpError("internal error: counters did not return to zero")
    return ScheduleTrace(n, tuple(steps), tuple(c_hist), tuple(r_hist), s_l)


def check_schedule_invariants(inst: IlpInstance, sol: Solution, trace: ScheduleTrace) -> list[str]:
    """Replay a trace and collect every violated counter invariant.

    Checked: counter ranges (0 <= c_i < 2 s_l always, c_i <= s_l right
    after a reduce), the exact scaled-residue identity after every step,
    the residue magnitude bound, the increment totals and the final zero
    state.

    With a nonzero right-hand side the identity and the bound only hold
    for the extended system in which the right-hand side is one more
    column, incremented once at the start of round 1 (so its counter
    reads ``s_l - k`` after ``k`` reduces).  A zero right-hand side
    collapses this to the plain form ``r_j * s_l == sum_i c_i * a_ji``
    with ``|r_j| < 2 n max_i |a_ji|``; rows whose coefficients are all
    zero carry an identically zero residue instead of a magnitude bound.
    """
    breaches: list[str] = []
    n = inst.num_vars
    s_l = trace.s_l
    rhs_used = 1 if any(inst.rhs) else 0
    # per constraint: (j, b_j, row a_j1..a_jn, residue magnitude bound)
    rows = []
    for j, (b_j, row) in enumerate(zip(inst.rhs, inst.coeffs), start=1):
        maxabs = max(abs(a) for a in row)
        if b_j == 0:
            bound = 2 * n * maxabs
        else:
            bound = 2 * (n + 1) * max(maxabs, abs(b_j))
        rows.append((j, b_j, row, bound))

    reduces_done = 0
    for idx, (step, c, r) in enumerate(zip(trace.steps, trace.c_history, trace.r_history)):
        if step == REDUCE:
            reduces_done += 1
        for i, ci in enumerate(c, start=1):
            if not 0 <= ci < 2 * s_l:
                breaches.append(f"step {idx}: c_{i} = {ci} outside [0, {2 * s_l})")
            if step == REDUCE and ci > s_l:
                breaches.append(f"step {idx}: c_{i} = {ci} > s_l after reduce")
        c0 = (s_l - reduces_done) * rhs_used
        for j, b_j, row, bound in rows:
            ext_r = r[j - 1] - b_j * rhs_used
            lhs = ext_r * s_l
            rhs = sum(c[i] * row[i] for i in range(n)) - c0 * b_j
            if lhs != rhs:
                breaches.append(
                    f"step {idx}: residue identity fails for constraint {j} "
                    f"({lhs} != {rhs})"
                )
            if bound > 0:
                if abs(ext_r) >= bound:
                    breaches.append(
                        f"step {idx}: |residue_{j}| = {abs(ext_r)} >= {bound}"
                    )
            elif ext_r != 0:
                breaches.append(f"step {idx}: residue_{j} nonzero on an all-zero row")

    if trace.increment_counts() != sol.values:
        breaches.append("increment totals differ from the solution values")
    if trace.num_reduces != s_l:
        breaches.append(f"expected {s_l} reduces, found {trace.num_reduces}")
    if trace.steps:
        final_r = tuple(b * rhs_used for b in inst.rhs)
        if any(trace.c_history[-1]) or trace.r_history[-1] != final_r:
            breaches.append("counters did not settle at the end of the trace")
    return breaches


@dataclass(frozen=True)
class SpecialFormGraph:
    """A solution graph with vertex and edge blocks ready for bag layout.

    ``vertex_blocks[k]`` has at most one vertex per label; edges in blocks
    ``0..k`` only touch vertices in blocks ``0..k``.  ``open_targets[j-1]
    [k][i]`` is the signed number of unmatched constraint-``j`` stubs that
    column ``i`` (0 = right-hand side) is allowed to keep after stage
    ``k+1``; ``residue_splits`` holds the exact positive/negative residue
    parts the targets were derived from.
    """

    graph: SolutionGraph
    vertex_blocks: tuple[tuple[int, ...], ...]
    edge_blocks: tuple[tuple[int, ...], ...]
    open_targets: tuple[tuple[tuple[int, ...], ...], ...]
    residue_splits: tuple[tuple[tuple[Fraction, Fraction], ...], ...]
    rhs_in_every_bag: bool


@dataclass(frozen=True)
class PathDecomposition:
    """An ordered bag sequence; width is the largest bag size minus one."""

    bags: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "bags", tuple(frozenset(b) for b in self.bags))

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1 if self.bags else -1

    def to_json(self) -> str:
        payload = {"bags": [sorted(b) for b in self.bags], "width": self.width}
        return json.dumps(payload, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [
            f"bag {k}: " + " ".join(str(v) for v in sorted(bag))
            for k, bag in enumerate(self.bags, start=1)
        ]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DecompositionVerdict:
    ok: bool
    violation: str | None
    width: int

    def __bool__(self) -> bool:
        return self.ok


def _ceildiv(a: int, b: int) -> int:
    return -((-a) // b)


def _choose_open_targets(ext_coeffs, ext_c_rows, round_sets, s_l):
    """Pick the per-stage signed open-stub targets for one constraint.

    ``ext_coeffs[i]`` covers columns 0..n (column 0 carries ``-b_j``).
    Stage ``k`` chooses each target from the floor/ceil pair of
    ``a_i * c_i^k / s_l`` so that (a) the non-negative columns sum to the
    ceiling of the positive residue part, (b) the negative columns to the
    floor of the negative part, and (c) magnitudes never grow on columns
    not refreshed in the following stage.

    Condition (c) only bites between consecutive stages where a column is
    fractional on both sides of an unrefreshed boundary without leaving
    its unit interval; there it chains ceiling bumps (a later bump needs
    the earlier one on the non-negative side, and the other way round on
    the negative side).  Each side is therefore swept along its chain
    direction with exact per-stage bump counts, preferring columns
    refreshed in the current stage, then ascending index; if that
    preference ever starves a stage, the side is re-swept preferring the
    longest surviving chain, which an exchange argument shows succeeds
    whenever any choice does.

    Returns (targets per stage, (pos, neg) residue parts per stage).
    """
    t = len(ext_c_rows)
    cols = range(len(ext_coeffs))
    pos = [i for i in cols if ext_coeffs[i] >= 0]
    neg = [i for i in cols if ext_coeffs[i] < 0]

    num = [[ext_coeffs[i] * ext_c_rows[k][i] for i in cols] for k in range(t)]
    fl = [[v // s_l for v in row] for row in num]
    ce = [[_ceildiv(v, s_l) for v in row] for row in num]
    frac = [[f != c for f, c in zip(frow, crow)] for frow, crow in zip(fl, ce)]

    # the positive and negative residue parts of each stage, times s_l
    num_pos = [sum(row[i] for i in pos) for row in num]
    num_neg = [sum(row[i] for i in neg) for row in num]
    need_pos = [
        _ceildiv(num_pos[k], s_l) - sum(fl[k][i] for i in pos) for k in range(t)
    ]
    need_neg = [num_neg[k] // s_l - sum(fl[k][i] for i in neg) for k in range(t)]

    # link[k][i]: condition (c) couples the bumps of column i at stages
    # k and k+1 (0-based stages)
    link = [[False] * len(ext_coeffs) for _ in range(max(t - 1, 0))]
    for k in range(t - 1):
        for i in cols:
            if i in round_sets[k + 1] or not (frac[k][i] and frac[k + 1][i]):
                continue
            if ext_coeffs[i] >= 0:
                link[k][i] = ce[k][i] == ce[k + 1][i]
            else:
                link[k][i] = fl[k][i] == fl[k + 1][i]

    def chain_end(i, k):
        while k < t - 1 and link[k][i]:
            k += 1
        return k

    def chain_start(i, k):
        while k > 0 and link[k - 1][i]:
            k -= 1
        return k

    def sweep(side, needs, forward, safe):
        """One greedy pass over the stages; None when a stage starves."""
        bumped = [set() for _ in range(t)]
        order = range(t) if forward else range(t - 1, -1, -1)
        for k in order:
            if forward:
                avail = [
                    i for i in side
                    if frac[k][i] and (k == 0 or not link[k - 1][i] or i in bumped[k - 1])
                ]
            else:
                avail = [
                    i for i in side
                    if frac[k][i] and (k == t - 1 or not link[k][i] or i in bumped[k + 1])
                ]
            if not 0 <= needs[k] <= len(avail):
                return None
            refreshed = round_sets[k]
            if safe:
                reach = (lambda i: chain_end(i, k) - k) if forward else (
                    lambda i: k - chain_start(i, k)
                )
                key = lambda i: (-reach(i), 0 if i in refreshed else 1, i)
            else:
                key = lambda i: (0 if i in refreshed else 1, i)
            bumped[k].update(sorted(avail, key=key)[: needs[k]])
        return bumped

    def choose_side(side, needs, forward):
        for safe in (False, True):
            bumped = sweep(side, needs, forward, safe)
            if bumped is not None:
                return bumped
        raise IlpError("internal error: no admissible open-stub targets")

    # the chains run forward on the non-negative side (a later bump needs
    # the earlier one) and backward on the negative side
    bumped_pos = choose_side(pos, need_pos, forward=True)
    bumped_neg = choose_side(neg, need_neg, forward=False)

    targets = []
    splits = []
    for k in range(t):
        bumps = bumped_pos[k] | bumped_neg[k]
        targets.append(
            tuple(ce[k][i] if i in bumps else fl[k][i] for i in cols)
        )
        splits.append((Fraction(num_pos[k], s_l), Fraction(num_neg[k], s_l)))

    # paranoid re-check of (a), (b), (c); a failure here is a bug
    for k in range(t):
        if sum(targets[k][i] for i in pos) != _ceildiv(num_pos[k], s_l):
            raise IlpError("internal error: positive open-stub sums are off")
        if sum(targets[k][i] for i in neg) != num_neg[k] // s_l:
            raise IlpError("internal error: negative open-stub sums are off")
        if k + 1 < t:
            for i in cols:
                if i not in round_sets[k + 1] and abs(targets[k][i]) < abs(targets[k + 1][i]):
                    raise IlpError("internal error: open-stub magnitudes grew")

    return tuple(targets), tuple(splits)


def build_special_form(inst: IlpInstance, sol: Solution, trace: ScheduleTrace) -> SpecialFormGraph:
    """Build a block-structured graph encoding of ``sol`` from its trace.

    Stage 1 introduces the label-0 vertex plus one vertex per variable
    with a nonzero value; stage ``k > 1`` introduces one vertex per
    variable incremented in round ``k``.  Per stage and constraint, stubs
    are matched greedily (draining the oldest vertex of each label first,
    pairing by lowest vertex id) until the open counts match the chosen
    targets; this concentrates all unmatched stubs of a label on its
    newest vertex.  The result is validated before being returned.
    """
    residual = evaluate(inst, sol)
    if any(residual):
        raise IlpError(f"assignment is not a solution (residual {residual})")
    if trace.increment_counts() != sol.values or trace.num_reduces != sol.max_value:
        raise IlpError("trace does not belong to this solution")

    n, m = inst.num_vars, inst.num_constraints
    s_l = trace.s_l
    t = trace.num_reduces
    rhs_nonzero = any(inst.rhs)

    if t == 0:
        graph = SolutionGraph(n, m, (0,), ())
        return SpecialFormGraph(graph, (), (), (), (), rhs_nonzero)

    rounds = trace.rounds
    # columns 0..n; the right-hand-side column behaves like a variable with
    # value 1 that is incremented once, in round 1
    ext_c_rows = [
        (s_l - k,) + c for k, c in enumerate(trace.c_after_reduce, start=1)
    ]
    round_sets = [frozenset(rounds[0]) | {0}] + [frozenset(r) for r in rounds[1:]]
    # ext_rows[j-1][i] is the coefficient of column i in constraint j
    ext_rows = [(-b_j,) + row for b_j, row in zip(inst.rhs, inst.coeffs)]

    all_targets = []
    all_splits = []
    for ext_coeffs in ext_rows:
        targets, splits = _choose_open_targets(ext_coeffs, ext_c_rows, round_sets, s_l)
        all_targets.append(targets)
        all_splits.append(splits)

    # vertex ids are block-major: v0 first, then stage arrivals in
    # ascending column order
    labels = [0]
    arrivals: list[list[tuple[int, int]]] = []  # per stage: (vid, column)
    blocks: list[tuple[int, ...]] = []
    for k in range(1, t + 1):
        stage: list[tuple[int, int]] = []
        if k == 1:
            stage.append((0, 0))
        for i in sorted(rounds[k - 1]):
            stage.append((len(labels), i))
            labels.append(i)
        arrivals.append(stage)
        block = [vid for vid, col in stage if col != 0 or rhs_nonzero]
        blocks.append(tuple(block))

    # open_stubs[j][i] holds [vid, count] stubs in arrival order, oldest
    # first; open_total[j][i] is the sum of their counts
    open_stubs: list[list[deque[list[int]]]] = [
        [deque() for _ in range(n + 1)] for _ in range(m)
    ]
    open_total = [[0] * (n + 1) for _ in range(m)]
    edges: list[tuple[int, int, int]] = []
    edge_blocks: list[tuple[int, ...]] = []

    for k in range(1, t + 1):
        for vid, i in arrivals[k - 1]:
            for j in range(m):
                count = abs(ext_rows[j][i])
                if count:
                    open_stubs[j][i].append([vid, count])
                    open_total[j][i] += count

        stage_edges: list[int] = []
        for j in range(1, m + 1):
            ext_coeffs = ext_rows[j - 1]
            stage_targets = all_targets[j - 1][k - 1]
            totals = open_total[j - 1]
            pos_removed: list[int] = []
            neg_removed: list[int] = []
            for i in range(n + 1):
                stubs = open_stubs[j - 1][i]
                surplus = totals[i] - abs(stage_targets[i])
                if surplus < 0:
                    raise IlpError("internal error: open-stub target exceeds supply")
                totals[i] -= surplus
                removed = pos_removed if ext_coeffs[i] > 0 else neg_removed
                while surplus:
                    vid, count = stubs[0]
                    take = min(count, surplus)
                    removed.extend([vid] * take)
                    surplus -= take
                    if take == count:
                        stubs.popleft()
                    else:
                        stubs[0][1] = count - take
                if len(stubs) > 1:
                    raise IlpError(
                        "internal error: unmatched stubs spread over several vertices"
                    )
            pos_removed.sort()
            neg_removed.sort()
            if len(pos_removed) != len(neg_removed):
                raise IlpError("internal error: unbalanced stage matching")
            for u, v in zip(pos_removed, neg_removed):
                stage_edges.append(len(edges))
                edges.append((min(u, v), max(u, v), j))
        edge_blocks.append(tuple(stage_edges))

    graph = SolutionGraph(n, m, tuple(labels), tuple(edges))
    verdict = validate_graph(inst, graph)
    if not verdict:
        raise IlpError(f"internal error: staged graph fails validation: {verdict.message}")
    if sol_of(graph).values != sol.values:
        raise IlpError("internal error: staged graph encodes the wrong assignment")

    return SpecialFormGraph(
        graph,
        tuple(blocks),
        tuple(edge_blocks),
        tuple(all_targets),
        tuple(all_splits),
        rhs_nonzero,
    )


def decompose(sf: SpecialFormGraph) -> PathDecomposition:
    """Lay the blocks out as bags, dropping fully matched vertices.

    Bag ``k`` holds the stage-``k`` arrivals plus every earlier vertex
    that still has unmatched stubs; a nonzero right-hand side keeps the
    label-0 vertex in every bag, otherwise it occupies a leading bag of
    its own.  The width never exceeds ``2n`` (``2n - 1`` for a zero
    right-hand side).
    """
    g = sf.graph
    v0 = g.vertices_with_label(0)[0]
    bags: list[frozenset[int]] = []
    if not sf.rhs_in_every_bag:
        bags.append(frozenset({v0}))
    if not sf.vertex_blocks:
        return PathDecomposition(tuple(bags) if bags else (frozenset({v0}),))

    full_degree = [0] * g.num_vertices
    for u, v, _j in g.edges:
        full_degree[u] += 1
        full_degree[v] += 1

    seen_degree = [0] * g.num_vertices
    current: set[int] = set()
    for block, edge_block in zip(sf.vertex_blocks, sf.edge_blocks):
        current |= set(block)
        bags.append(frozenset(current))
        for e_idx in edge_block:
            u, v, _j = g.edges[e_idx]
            seen_degree[u] += 1
            seen_degree[v] += 1
        current = {
            v
            for v in current
            if seen_degree[v] < full_degree[v] or (sf.rhs_in_every_bag and v == v0)
        }
    if current - ({v0} if sf.rhs_in_every_bag else set()):
        raise IlpError("internal error: unmatched vertices after the last stage")
    return PathDecomposition(tuple(bags))


def validate_decomposition(g: SolutionGraph, pd: PathDecomposition) -> DecompositionVerdict:
    """Check the three path-decomposition conditions against a graph.

    Every vertex must appear in some bag, both endpoints of every edge
    must share a bag, and the bags containing any one vertex must form a
    contiguous interval.  The reported width is the actual one, whether or
    not the decomposition is valid.

    The first violation is reported in that order: the smallest unknown
    vertex id, the smallest vertex in no bag, the first edge sharing no
    bag, the smallest vertex with non-contiguous bags.  One pass over the
    bags records each vertex's bag positions; an edge between two vertices
    with contiguous bags is checked by interval overlap, any other edge by
    intersecting the two position lists.
    """
    width = pd.width
    num_vertices = g.num_vertices
    positions: dict[int, list[int]] = {v: [] for v in range(num_vertices)}
    stray = set()
    for k, bag in enumerate(pd.bags):
        for vertex in bag:
            where = positions.get(vertex)
            if where is None:
                stray.add(vertex)
            else:
                where.append(k)
    if stray:
        return DecompositionVerdict(
            False, f"bag mentions unknown vertex {sorted(stray)[0]}", width
        )

    for vertex in range(num_vertices):
        if not positions[vertex]:
            return DecompositionVerdict(False, f"vertex {vertex} is in no bag", width)

    first = [positions[v][0] for v in range(num_vertices)]
    last = [positions[v][-1] for v in range(num_vertices)]
    contiguous = [
        last[v] - first[v] + 1 == len(positions[v]) for v in range(num_vertices)
    ]

    for u, v, j in g.edges:
        if contiguous[u] and contiguous[v]:
            shared = max(first[u], first[v]) <= min(last[u], last[v])
        else:
            shared = not set(positions[u]).isdisjoint(positions[v])
        if not shared:
            return DecompositionVerdict(
                False, f"edge ({u}, {v}) with label {j} shares no bag", width
            )

    for vertex in range(num_vertices):
        if not contiguous[vertex]:
            return DecompositionVerdict(
                False, f"bags containing vertex {vertex} are not contiguous", width
            )

    return DecompositionVerdict(True, None, width)


def max_label_occupancy(g: SolutionGraph, pd: PathDecomposition) -> int:
    """Largest number of same-label vertices that share one bag."""
    worst = 0
    for bag in pd.bags:
        counts = Counter(g.labels[v] for v in bag)
        if counts:
            worst = max(worst, max(counts.values()))
    return worst
