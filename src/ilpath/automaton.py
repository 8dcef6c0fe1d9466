"""Bounded-counter automaton over the instance variables plus one 'b' step.

States are pairs of a bit and an m-vector of residues; reading a variable
symbol adds its column, reading 'b' (once) subtracts the right-hand side.
A word that drives the residues back to zero with the bit set spells out a
solution in unary, so feasibility is plain state reachability.  The search
runs on the Steinitz residue bounds, inside which every solution has an
accepted word; the paper's wider bounds size the exported machine.  The same
machine also prints as a linear-size guarded-command program (BP-v1) whose
target-location reachability gives the identical verdict.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

from ilpath import _kernels
from ilpath._kernels import (
    DEFAULT_EXPORT_STATES,
    DEFAULT_MAX_STATES,
    FEASIBLE,
    INCONCLUSIVE,
    INFEASIBLE,
)
from ilpath.instance import (
    REDUCE,
    RESERVED_SYMBOL,
    IlpError,
    IlpInstance,
    ParseError,
    _long_literal_error,
)

if TYPE_CHECKING:
    from ilpath.decomposition import ScheduleTrace

REACHABLE = "reachable"
UNREACHABLE = "unreachable"

# the residue bound check_feasible decides on; see steinitz_bounds
BOUND_RULE = "steinitz: d * max(max|a_j|, |b_j|), d = min(m, n+1)"

# the engines of interpret_boolean_program, as BpResult.engine names them
SPARSE = "sparse"
DENSE = "dense"
# larger code spaces keep interpret_boolean_program on the sparse engine
_DENSE_MAX_CODES = 1 << 24
# the most bits the dense engine's rule masks may take together (32 MiB)
_DENSE_MAX_MASK_BITS = 1 << 28
# one dense BFS level over a code space of `radix` codes costs about as much
# time as the sparse engine spends on radix >> 13 states
_DENSE_LEVEL_COST_SHIFT = 13


class StateLimitExceeded(IlpError):
    """The explicit state budget ran out before the search finished."""


def _row_magnitudes(inst: IlpInstance) -> tuple[int, ...]:
    """``M_j = max(max|a_j|, |b_j|)``: the largest magnitude in row ``j`` of
    ``[-b | A]``."""
    return tuple(max(map(abs, row)) for row in zip(*inst.columns))


def residue_bounds(inst: IlpInstance) -> tuple[int, ...]:
    """Per-constraint residue bound ``2 * (n+1) * max(max|a_j|, |b_j|)``.

    This is the paper's construction, which sizes `CounterAutomaton`,
    `schedule_to_word`, `export_automaton` and `emit_boolean_program`.  The
    ``n+1`` factor makes room for the right-hand-side column, so every
    solution keeps a bounded run.  Residues are signed; the bound caps their
    absolute value.  It contains `steinitz_bounds`, on which `check_feasible`
    decides.
    """
    return tuple(2 * (inst.num_vars + 1) * m_j for m_j in _row_magnitudes(inst))


def _steinitz_d(inst: IlpInstance) -> int:
    """``d = min(m, n+1)``: the columns of ``[A | b]`` span at most this many
    dimensions, so the Steinitz lemma applies with this constant."""
    return min(inst.num_constraints, inst.num_vars + 1)


def steinitz_bounds(inst: IlpInstance) -> tuple[int, ...]:
    """Per-constraint residue bound ``d * max(max|a_j|, |b_j|)``, ``d = min(m, n+1)``.

    Scale row ``j`` by ``M_j = max(max|a_j|, |b_j|)`` (rows with ``M_j = 0``
    get bound 0).  For a solution ``x``, the ``sum(x)`` columns it uses plus
    the single ``-b`` vector then have infinity norm at most 1 and sum to 0,
    and they live in a space of dimension at most ``d``.  By the Steinitz
    lemma (Grinberg and Sevastyanov, 1980) some order of them keeps every
    partial sum within norm ``d``, so every solution has an accepted word
    with ``|r_j| <= d * M_j``.  That bound never exceeds `residue_bounds`.
    """
    d = _steinitz_d(inst)
    return tuple(d * m_j for m_j in _row_magnitudes(inst))


@dataclass(frozen=True)
class CounterAutomaton:
    """The transition structure: columns, right-hand side and bounds."""

    inst: IlpInstance

    @cached_property
    def bounds(self) -> tuple[int, ...]:
        return residue_bounds(self.inst)

    @cached_property
    def alphabet(self) -> tuple[str, ...]:
        return self.inst.var_names + (RESERVED_SYMBOL,)

    @cached_property
    def _deltas(self) -> dict[str, tuple[int, ...]]:
        """Symbol -> the column its step adds; 'b' adds column 0, ``-b``."""
        return dict(zip((RESERVED_SYMBOL,) + self.inst.var_names, self.inst.columns))

    @property
    def initial(self) -> tuple[int, tuple[int, ...]]:
        return (0, (0,) * self.inst.num_constraints)

    def is_final(self, state) -> bool:
        used, r = state
        return used == 1 and not any(r)

    def step(self, state, symbol: str):
        """Successor of ``state`` under ``symbol``, or None when the move is
        disabled (residue bound exceeded, or a second 'b')."""
        used, r = state
        if symbol == RESERVED_SYMBOL:
            if used:
                return None
            used = 1
        delta = self._deltas.get(symbol)
        if delta is None:
            raise IlpError(f"unknown symbol {symbol!r}")
        nr = tuple(v + d for v, d in zip(r, delta))
        if any(abs(v) > bound for v, bound in zip(nr, self.bounds)):
            return None
        return (used, nr)

    def run(self, word: Iterable[str]):
        """Final state after reading ``word`` from the initial state, or
        None when some prefix dies."""
        state = self.initial
        for symbol in word:
            state = self.step(state, symbol)
            if state is None:
                return None
        return state

    def accepts(self, word: Iterable[str]) -> bool:
        state = self.run(word)
        return state is not None and self.is_final(state)


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the reachability search on the Steinitz bounds.

    ``bounds`` are `steinitz_bounds` with constant ``d = min(m, n+1)``.  By
    the Steinitz lemma every solution has an accepted word inside them, so
    ``infeasible`` means ``A x = b`` has no solution ``x >= 0``;
    ``inconclusive`` means the budget ran out first.  ``states_explored``
    counts residues, not automaton states.  The witness, when present, is a
    shortest accepted word ``u b v``, of length ``1 + min sum(x)``; ``u`` and
    ``v`` reversed are the least shortest walks to their residues.
    """

    status: str
    witness: tuple[str, ...] | None
    states_explored: int
    bounds: tuple[int, ...]
    d: int

    def __bool__(self) -> bool:
        return self.status == FEASIBLE


def check_feasible(
    inst: IlpInstance, *, max_states: int = DEFAULT_MAX_STATES
) -> FeasibilityResult:
    """Decide feasibility by a one-sided residue search on `steinitz_bounds`.

    The Steinitz lemma puts an accepted word of every solution inside those
    bounds, so the verdict is exact: ``feasible`` with a shortest witness,
    ``infeasible`` when no solution exists, or ``inconclusive`` when more
    than ``max_states`` residues were discovered first.
    """
    bounds = steinitz_bounds(inst)
    d = _steinitz_d(inst)
    status, path, states = _kernels.automaton_reach(
        inst.columns[1:], inst.rhs, bounds, max_states
    )
    if status == _kernels.REACHED:
        names = inst.var_names + (RESERVED_SYMBOL,)
        witness = tuple(names[sym] for sym in path)
        return FeasibilityResult(FEASIBLE, witness, states, bounds, d)
    if status == _kernels.BUDGET:
        return FeasibilityResult(INCONCLUSIVE, None, states, bounds, d)
    return FeasibilityResult(INFEASIBLE, None, states, bounds, d)


def parikh(word: Sequence[str], var_names: Sequence[str]) -> tuple[int, ...]:
    """Occurrence counts of each variable symbol; 'b' is projected away."""
    counts = dict.fromkeys(var_names, 0)
    for symbol in word:
        if symbol == RESERVED_SYMBOL:
            continue
        if symbol not in counts:
            raise IlpError(f"unknown symbol {symbol!r}")
        counts[symbol] += 1
    return tuple(counts[name] for name in var_names)


def schedule_to_word(inst: IlpInstance, trace: ScheduleTrace) -> tuple[str, ...]:
    """Turn a counter schedule into an accepted word.

    The word is the 'b' symbol followed by the increment steps, in order, as
    their variable symbols.  Schedule prefixes obey the paper residue bounds
    that size the automaton, so the word is accepted; a schedule whose word
    leaves those bounds raises `IlpError`.
    """
    word = (RESERVED_SYMBOL,) + tuple(
        inst.var_names[step - 1] for step in trace.steps if step != REDUCE
    )
    if not CounterAutomaton(inst).accepts(word):
        raise IlpError(
            "the schedule word leaves the paper residue bounds "
            f"{list(residue_bounds(inst))}"
        )
    return word


# --------------------------------------------------------------------------
# explicit state-graph export

@dataclass(frozen=True)
class AutomatonGraph:
    """Explicitly enumerated reachable states and labelled transitions."""

    states: tuple[tuple[int, tuple[int, ...]], ...]
    transitions: tuple[tuple[int, str, int], ...]
    initial: int
    finals: tuple[int, ...]


def export_automaton(
    inst: IlpInstance, *, max_states: int = DEFAULT_EXPORT_STATES
) -> AutomatonGraph:
    """Enumerate the reachable state graph on the paper residue bounds,
    breadth first.

    The reachable space is exponential in general, hence the hard
    ``max_states`` gate; exceeding it raises `StateLimitExceeded`.
    """
    machine = CounterAutomaton(inst)
    index = {machine.initial: 0}
    states = [machine.initial]
    transitions = []
    head = 0
    while head < len(states):
        state = states[head]
        for symbol in machine.alphabet:
            succ = machine.step(state, symbol)
            if succ is None:
                continue
            if succ not in index:
                if len(states) >= max_states:
                    raise StateLimitExceeded(
                        f"more than {max_states} reachable states"
                    )
                index[succ] = len(states)
                states.append(succ)
            transitions.append((head, symbol, index[succ]))
        head += 1
    finals = tuple(k for k, s in enumerate(states) if machine.is_final(s))
    return AutomatonGraph(tuple(states), tuple(transitions), 0, finals)


def _state_label(state) -> str:
    used, r = state
    return f"{used}|{','.join(str(v) for v in r)}"


def automaton_to_dot(ag: AutomatonGraph) -> str:
    lines = ["digraph ilp_automaton {", "  rankdir=LR;", "  __start [shape=point];"]
    final_set = set(ag.finals)
    for k, state in enumerate(ag.states):
        shape = "doublecircle" if k in final_set else "circle"
        lines.append(f'  q{k} [label="{_state_label(state)}", shape={shape}];')
    lines.append(f"  __start -> q{ag.initial};")
    for src, symbol, dst in ag.transitions:
        lines.append(f'  q{src} -> q{dst} [label="{symbol}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def automaton_to_text(ag: AutomatonGraph) -> str:
    """Adjacency listing: one state line per state, one line per transition."""
    final_set = set(ag.finals)
    lines = [f"states {len(ag.states)}"]
    for k, state in enumerate(ag.states):
        marks = []
        if k == ag.initial:
            marks.append("initial")
        if k in final_set:
            marks.append("final")
        suffix = (" " + " ".join(marks)) if marks else ""
        lines.append(f"q{k} {_state_label(state)}{suffix}")
    for src, symbol, dst in ag.transitions:
        lines.append(f"trans q{src} {symbol} q{dst}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# BP-v1: a nondeterministic guarded-command rendering of the same machine
#
#     bp 1
#     var r1 in [-24, 24] init 0
#     bit B init 0
#     rule x1: true -> r1 += -2, r2 += 1
#     rule b: B == 0 -> r1 += -1, B := 1
#     target: B == 1 && r1 == 0 && r2 == 0
#
# Zero-coefficient updates are omitted (that keeps the text linear in the
# instance size); a rule with no updates at all is written `skip`.  An
# update that would leave a variable's range disables the rule.


def emit_boolean_program(inst: IlpInstance) -> str:
    """Print the instance as a BP-v1 guarded-command program whose variable
    ranges are the paper residue bounds."""
    bounds = residue_bounds(inst)
    lines = ["bp 1"]
    for j in range(1, inst.num_constraints + 1):
        lines.append(f"var r{j} in [-{bounds[j - 1]}, {bounds[j - 1]}] init 0")
    lines.append("bit B init 0")
    updates = [
        [f"r{j} += {a}" for j, a in enumerate(column, start=1) if a != 0]
        for column in inst.columns
    ]
    for name, column_updates in zip(inst.var_names, updates[1:]):
        body = ", ".join(column_updates) if column_updates else "skip"
        lines.append(f"rule {name}: true -> {body}")
    b_updates = updates[0] + ["B := 1"]
    lines.append(f"rule {RESERVED_SYMBOL}: B == 0 -> " + ", ".join(b_updates))
    target = " && ".join(
        ["B == 1"] + [f"r{j} == 0" for j in range(1, inst.num_constraints + 1)]
    )
    lines.append(f"target: {target}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BoolVar:
    name: str
    lo: int
    hi: int
    init: int


@dataclass(frozen=True)
class BoolRule:
    name: str
    guard: tuple[tuple[str, int], ...]  # conjunction of equality tests
    updates: tuple[tuple[str, str, int], ...]  # (op, var, value), op in {+=, :=}


@dataclass(frozen=True)
class BooleanProgram:
    variables: tuple[BoolVar, ...]
    rules: tuple[BoolRule, ...]
    target: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class BpResult:
    status: str  # reachable / unreachable / inconclusive
    states_explored: int
    engine: str = field(default=SPARSE, compare=False)  # the engine that decided

    def __bool__(self) -> bool:
        return self.status == REACHABLE


_BP_VAR_RE = re.compile(r"var (\w+) in \[(-?\d+), (-?\d+)\] init (-?\d+)")
_BP_BIT_RE = re.compile(r"bit (\w+) init ([01])")
_BP_RULE_RE = re.compile(r"rule (\w+): (.+?) -> (.+)")
_BP_EQ_RE = re.compile(r"(\w+) == (-?\d+)")
_BP_ADD_RE = re.compile(r"(\w+) \+= (-?\d+)")
_BP_SET_RE = re.compile(r"(\w+) := (-?\d+)")


def parse_boolean_program(text: str) -> BooleanProgram:
    """Parse BP-v1 text; raises `ParseError` with the offending line."""
    lines = [
        (no, line.strip())
        for no, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if not lines or lines[0][1] != "bp 1":
        raise ParseError("expected header 'bp 1'", lines[0][0] if lines else 1)

    variables: list[BoolVar] = []
    rules: list[BoolRule] = []
    target: tuple[tuple[str, int], ...] | None = None
    names = set()

    def parse_guard(no, text_):
        if text_ == "true":
            return ()
        tests = []
        for part in text_.split("&&"):
            m = _BP_EQ_RE.fullmatch(part.strip())
            if not m:
                raise ParseError(f"bad guard clause {part.strip()!r}", no)
            if m.group(1) not in names:
                raise ParseError(f"guard tests unknown variable {m.group(1)!r}", no)
            tests.append((m.group(1), int(m.group(2))))
        return tuple(tests)

    for no, line in lines[1:]:
        try:
            if m := _BP_VAR_RE.fullmatch(line):
                name, lo, hi, init = m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4))
                if name in names:
                    raise ParseError(f"duplicate variable {name!r}", no)
                if not lo <= init <= hi:
                    raise ParseError(f"init value {init} outside [{lo}, {hi}]", no)
                names.add(name)
                variables.append(BoolVar(name, lo, hi, init))
            elif m := _BP_BIT_RE.fullmatch(line):
                name, init = m.group(1), int(m.group(2))
                if name in names:
                    raise ParseError(f"duplicate variable {name!r}", no)
                names.add(name)
                variables.append(BoolVar(name, 0, 1, init))
            elif m := _BP_RULE_RE.fullmatch(line):
                guard = parse_guard(no, m.group(2).strip())
                updates = []
                body = m.group(3).strip()
                if body != "skip":
                    for part in body.split(","):
                        part = part.strip()
                        if um := _BP_ADD_RE.fullmatch(part):
                            op = "+="
                        elif um := _BP_SET_RE.fullmatch(part):
                            op = ":="
                        else:
                            raise ParseError(f"bad update {part!r}", no)
                        if um.group(1) not in names:
                            raise ParseError(f"update on unknown variable {um.group(1)!r}", no)
                        updates.append((op, um.group(1), int(um.group(2))))
                rules.append(BoolRule(m.group(1), guard, tuple(updates)))
            elif line.startswith("target:"):
                if target is not None:
                    raise ParseError("duplicate target line", no)
                target = parse_guard(no, line[len("target:"):].strip())
            else:
                raise ParseError(f"unrecognized line {line!r}", no)
        except ValueError:
            raise _long_literal_error(text.splitlines()[no - 1], no) from None

    if not variables:
        raise ParseError("program declares no variables")
    if target is None:
        raise ParseError("program has no target line")
    return BooleanProgram(tuple(variables), tuple(rules), target)


def interpret_boolean_program(
    text: str, max_states: int = DEFAULT_MAX_STATES
) -> BpResult:
    """Decide reachability of the target location of a BP-v1 program.

    The search shares no code with the reachability kernel behind
    `check_feasible`, so comparing the two verdicts is an independent check.
    Each state is packed into one mixed-radix integer
    ``sum((v_k - lo_k) * stride_k)`` with ``stride_k`` the product of the
    range sizes of the variables declared before ``k``.  A rule fires when
    its guard holds; its updates then run in order, and the rule is disabled
    as soon as one of them leaves its variable's range.  The target is tested
    when a state is discovered, before the budget: more than ``max_states``
    discovered states (the initial one included) gives ``inconclusive``.

    Two engines run that semantics and ``BpResult.engine`` names the one
    that decided.  The sparse engine is a level-by-level BFS over a set of
    codes and answers every question.  The dense engine holds a BFS level
    and the visited set as ``int`` bitsets over the whole code space, moves
    a level through a rule with a few masked shifts (see `_dense_exhaust`),
    and only ever proves ``unreachable``.  With ``radix`` the number of
    codes and ``cap = radix >> 8``:

    1. if ``radix > 2**24`` or ``cap >= max_states``, only the sparse engine
       runs;
    2. otherwise it runs first with budget ``cap``, and its answer stands
       unless that ends ``inconclusive``;
    3. then the dense engine exhausts the reachable set and answers
       ``unreachable`` with its size;
    4. when the dense engine meets the target, passes ``max_states`` or
       gives up as the costlier engine, the sparse engine runs again from
       the start with the full budget.

    So every ``reachable`` and ``inconclusive`` answer, and its count, comes
    from the sparse engine, and the dense one answers only where the full
    sparse search would have returned the same count.
    """
    prog = parse_boolean_program(text)
    index = {v.name: k for k, v in enumerate(prog.variables)}
    strides = []
    radix = 1
    for v in prog.variables:
        strides.append(radix)
        radix *= v.hi - v.lo + 1

    def tests(guard):
        return tuple((index[name], value) for name, value in guard)

    rules = []
    for rule in prog.rules:
        updates = []
        for op, name, value in rule.updates:
            k = index[name]
            v = prog.variables[k]
            updates.append((k, op == "+=", value, v.lo, v.hi, strides[k]))
        rules.append((tests(rule.guard), tuple(updates)))
    target = tests(prog.target)

    initial = tuple(v.init for v in prog.variables)
    if all(initial[k] == value for k, value in target):
        return BpResult(REACHABLE, 1)
    code = sum((v.init - v.lo) * stride for v, stride in zip(prog.variables, strides))
    start = (code, initial)

    cap = radix >> 8
    if radix > _DENSE_MAX_CODES or cap >= max_states:
        return _sparse_search(rules, target, start, max_states)
    first = _sparse_search(rules, target, start, cap)
    if first.status != INCONCLUSIVE:
        return first
    explored = _dense_exhaust(prog, strides, code, max_states, known=cap)
    if explored is not None:
        return BpResult(UNREACHABLE, explored, DENSE)
    return _sparse_search(rules, target, start, max_states)


def _sparse_search(rules, target, start, max_states: int) -> BpResult:
    """Breadth-first search over a set of packed codes from ``start``, a
    ``(code, values)`` pair that is not a target state; the frontier holds
    one level of such pairs."""
    visited = {start[0]}
    frontier = [start]
    while frontier:
        next_frontier = []
        for code, state in frontier:
            for guard, updates in rules:
                for k, value in guard:
                    if state[k] != value:
                        break
                else:  # the guard holds
                    values = list(state)
                    succ = code
                    for k, add, value, lo, hi, stride in updates:
                        old = values[k]
                        new = old + value if add else value
                        if new < lo or new > hi:
                            break
                        values[k] = new
                        succ += (new - old) * stride
                    else:  # every update stayed in range
                        if succ in visited:
                            continue
                        visited.add(succ)
                        for k, value in target:
                            if values[k] != value:
                                break
                        else:
                            return BpResult(REACHABLE, len(visited))
                        if len(visited) > max_states:
                            return BpResult(INCONCLUSIVE, len(visited))
                        next_frontier.append((succ, tuple(values)))
        frontier = next_frontier
    return BpResult(UNREACHABLE, len(visited))


def _tile(bits: int, step: int, count: int) -> int:
    """OR of ``bits << (i * step)`` for ``i`` in ``range(count)``, in
    O(log count) big-integer operations."""
    out = 0
    shift = 0
    while count:
        if count & 1:
            out |= bits << shift
            shift += step
        count >>= 1
        if count:
            bits |= bits << step
            step <<= 1
    return out


def _box_mask(box: Sequence[tuple[int, int]], strides: Sequence[int]) -> int:
    """Bitset of the codes whose digit ``k`` lies in ``box[k] = (a, b)``
    for every ``k``."""
    mask = 1
    for (a, b), stride in zip(box, strides):
        if a > b:
            return 0
        mask = _tile(mask, stride, b - a + 1) << (a * stride)
    return mask


def _dense_exhaust(
    prog: BooleanProgram,
    strides: Sequence[int],
    start: int,
    max_states: int,
    known: int,
) -> int | None:
    """Exhaust the states of ``prog`` reachable from code ``start`` on
    ``int`` bitsets, where bit ``c`` stands for the state with code ``c``.

    Each rule compiles, from the parsed program alone, to pieces
    ``(mask, shift)``: ``mask`` holds the source codes on which the rule
    fires with every update in range, and ``shift`` is the change it makes to
    such a code.  A variable that only ``+=`` touches has its source digit
    bounded to one interval by the guard and the in-order range checks, and
    moves by ``offset * stride``.  After a ``:=`` the move depends on the
    source value, so the rule gets one piece per value that variable may
    hold.  Every digit stays inside its range, so a shift never carries into
    the next digit, and one BFS level is ``OR over pieces of
    shift(frontier & mask)`` less the visited set.

    Returns the number of reachable states, or None when a new state meets
    the target or the count passes ``max_states``.  It also returns None
    where the sparse engine is the cheaper one: when the masks would take
    more than ``_DENSE_MAX_MASK_BITS`` (``:=`` on a wide counter), and once
    the levels have cost more than the sparse engine spends on the larger of
    the states found so far and ``known``, a count of states already known
    to be reachable.  A long thin chain of levels gets there.
    """
    index = {v.name: k for k, v in enumerate(prog.variables)}
    sizes = [v.hi - v.lo + 1 for v in prog.variables]
    radix = math.prod(sizes)

    def narrow(box, k, a, b):
        box[k] = (max(box[k][0], a), min(box[k][1], b))

    def box_of(tests):  # source digit intervals that satisfy equality tests
        box = [(0, size - 1) for size in sizes]
        for name, value in tests:
            k = index[name]
            digit = value - prog.variables[k].lo
            narrow(box, k, digit, digit)
        return box

    compiled = []  # (source digit box, shift of the += updates, values after :=)
    for rule in prog.rules:
        box = box_of(rule.guard)
        offset = [0] * len(sizes)
        assigned: dict[int, int] = {}  # variable -> its value after the last :=
        for op, name, value in rule.updates:
            k = index[name]
            v = prog.variables[k]
            if op == "+=" and k not in assigned:
                offset[k] += value
                narrow(box, k, -offset[k], sizes[k] - 1 - offset[k])
                continue
            assigned[k] = value if op == ":=" else assigned[k] + value
            if not v.lo <= assigned[k] <= v.hi:
                box[k] = (1, 0)  # the rule never fires
        if all(a <= b for a, b in box):
            shift = sum(offset[k] * strides[k] for k in range(len(sizes)) if k not in assigned)
            compiled.append((box, shift, assigned))
    pieces_needed = sum(
        math.prod(box[k][1] - box[k][0] + 1 for k in assigned)
        for box, _, assigned in compiled
    )
    if pieces_needed * radix > _DENSE_MAX_MASK_BITS:
        return None

    pieces = []
    for box, shift, assigned in compiled:
        choices = [
            [(k, d, (value - prog.variables[k].lo - d) * strides[k])
             for d in range(box[k][0], box[k][1] + 1)]
            for k, value in assigned.items()
        ]
        for combo in itertools.product(*choices):
            piece_box = list(box)
            delta = shift
            for k, d, move in combo:
                piece_box[k] = (d, d)
                delta += move
            if delta:  # a zero shift leads back to the source state
                pieces.append((_box_mask(piece_box, strides), delta))
    target = _box_mask(box_of(prog.target), strides)

    work = 0  # in states the sparse engine would search in the same time
    visited = frontier = 1 << start
    count = 1
    while frontier:
        reached = 0
        for mask, delta in pieces:
            moved = frontier & mask
            if moved:
                reached |= moved << delta if delta > 0 else moved >> -delta
        frontier = reached & ~visited
        if frontier & target:
            return None
        count += frontier.bit_count()
        if count > max_states:
            return None
        work += radix >> _DENSE_LEVEL_COST_SHIFT
        if work > max(count, known):
            return None
        visited |= frontier
    return count
