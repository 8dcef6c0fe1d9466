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

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from ilpath import _kernels
from ilpath.instance import (
    RESERVED_SYMBOL,
    IlpError,
    IlpInstance,
    ParseError,
)
from ilpath.decomposition import REDUCE, ScheduleTrace

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"  # no solution exists; see check_feasible
INCONCLUSIVE = "inconclusive"

REACHABLE = "reachable"
UNREACHABLE = "unreachable"

# the residue bound check_feasible decides on; see steinitz_bounds
BOUND_RULE = "steinitz: d * max(max|a_j|, |b_j|), d = min(m, n+1)"

DEFAULT_MAX_STATES = 5_000_000
DEFAULT_EXPORT_STATES = 10_000


class StateLimitExceeded(IlpError):
    """The explicit state budget ran out before the search finished."""


def residue_bounds(inst: IlpInstance) -> tuple[int, ...]:
    """Per-constraint residue bound ``2 * (n+1) * max(max|a_j|, |b_j|)``.

    This is the paper's construction, which sizes `CounterAutomaton`,
    `schedule_to_word`, `export_automaton` and `emit_boolean_program`.  The
    ``n+1`` factor makes room for the right-hand-side column, so every
    solution keeps a bounded run.  Residues are signed; the bound caps their
    absolute value.  It contains `steinitz_bounds`, on which `check_feasible`
    decides.
    """
    n = inst.num_vars
    return tuple(
        2 * (n + 1) * max(inst.max_abs_coeff(j), abs(inst.rhs[j - 1]))
        for j in range(1, inst.num_constraints + 1)
    )


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
    return tuple(
        d * max(inst.max_abs_coeff(j), abs(inst.rhs[j - 1]))
        for j in range(1, inst.num_constraints + 1)
    )


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
            delta = tuple(-b for b in self.inst.rhs)
            nxt_used = 1
        else:
            try:
                i = self.inst.var_names.index(symbol) + 1
            except ValueError:
                raise IlpError(f"unknown symbol {symbol!r}") from None
            delta = self.inst.column(i)
            nxt_used = used
        bounds = self.bounds
        nr = tuple(v + d for v, d in zip(r, delta))
        if any(abs(v) > bound for v, bound in zip(nr, bounds)):
            return None
        return (nxt_used, nr)

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
    ``inconclusive`` means the state budget ran out first.  The witness, when
    present, is a shortest accepted word (ties broken by symbol order:
    variables in declaration order, then 'b'); its length is
    ``1 + min sum(x)`` over all solutions.
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
    """Decide feasibility by breadth-first reachability on `steinitz_bounds`.

    The Steinitz lemma puts an accepted word of every solution inside those
    bounds, so the verdict is exact: ``feasible`` with a shortest witness,
    ``infeasible`` when no solution exists, or ``inconclusive`` when more
    than ``max_states`` states were discovered.
    """
    columns = [inst.column(i) for i in range(1, inst.num_vars + 1)]
    bounds = steinitz_bounds(inst)
    d = _steinitz_d(inst)
    status, path, states = _kernels.automaton_reach(
        columns, inst.rhs, bounds, max_states
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
    for i, name in enumerate(inst.var_names, start=1):
        updates = [
            f"r{j} += {inst.coeff(j, i)}"
            for j in range(1, inst.num_constraints + 1)
            if inst.coeff(j, i) != 0
        ]
        body = ", ".join(updates) if updates else "skip"
        lines.append(f"rule {name}: true -> {body}")
    b_updates = [
        f"r{j} += {-inst.rhs[j - 1]}"
        for j in range(1, inst.num_constraints + 1)
        if inst.rhs[j - 1] != 0
    ]
    b_updates.append("B := 1")
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

    if not variables:
        raise ParseError("program declares no variables")
    if target is None:
        raise ParseError("program has no target line")
    return BooleanProgram(tuple(variables), tuple(rules), target)


def interpret_boolean_program(
    text: str, max_states: int = DEFAULT_MAX_STATES
) -> BpResult:
    """Decide reachability of the target location of a BP-v1 program.

    Every program runs on one generic breadth-first engine, which shares no
    code with the reachability kernel behind `check_feasible`, so comparing
    the two verdicts is an independent check.  The parsed program is
    compiled once to index tuples.  Each state is packed into one mixed-radix
    integer ``sum((v_k - lo_k) * stride_k)`` with ``stride_k`` the product of
    the range sizes of the variables declared before ``k``; the visited set
    holds these codes and the frontier holds one BFS level of
    ``(code, values)`` pairs.  A rule fires when its guard holds; its updates
    then run in order, and the rule is disabled as soon as one of them leaves
    its variable's range.  The target is tested when a state is discovered,
    before the budget: more than ``max_states`` discovered states (the
    initial one included) gives ``inconclusive``.
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
    visited = {code}
    frontier = [(code, initial)]
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
