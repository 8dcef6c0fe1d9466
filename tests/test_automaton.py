import collections
import itertools
import random
import sys

import pytest

from ilpath import _kernels, automaton
from ilpath.automaton import (
    CounterAutomaton,
    check_feasible,
    emit_boolean_program,
    export_automaton,
    interpret_boolean_program,
    parikh,
    parse_boolean_program,
    residue_bounds,
    schedule_to_word,
    steinitz_bounds,
)
from ilpath.corpus import random_instance
from ilpath.decomposition import ScheduleTrace, schedule
from ilpath.instance import IlpError, IlpInstance, ParseError, Solution, evaluate
from ilpath.oracle import enumerate_solutions


@pytest.fixture
def parity():
    return IlpInstance(coeffs=((2,),), rhs=(1,), var_names=("x",))


def test_residue_bounds_default(example_instance):
    # 2 * (n+1) * max(max|a|, |b|) per constraint
    assert residue_bounds(example_instance) == (24, 16)


def test_steinitz_bounds_exact_values(example_instance, parity):
    # d * max(max|a|, |b|) per constraint with d = min(m, n+1)
    assert steinitz_bounds(example_instance) == (6, 4)
    assert residue_bounds(example_instance) == (24, 16)
    assert steinitz_bounds(parity) == (2,)
    # a zero row with b_j = 0 pins its residue to 0
    inst = IlpInstance(coeffs=((0, 0), (1, -1)), rhs=(0, 0), var_names=("x1", "x2"))
    assert steinitz_bounds(inst) == (0, 2)


def test_step_examples(example_instance, parity):
    assert CounterAutomaton(example_instance).step((0, (0, 0)), "x1") == (0, (-2, 1))
    zero = IlpInstance(coeffs=((1,),), rhs=(0,), var_names=("x1",))
    assert CounterAutomaton(zero).step((0, (0,)), "b") == (1, (0,))
    step = CounterAutomaton(parity).step
    assert step((0, (0,)), "b") == (1, (-1,))
    # a second b is disabled
    assert step((1, (0,)), "b") is None
    with pytest.raises(IlpError, match="unknown symbol"):
        step((0, (0,)), "nope")


def test_step_kills_out_of_bound_moves(parity):
    bound = residue_bounds(parity)[0]
    machine = CounterAutomaton(parity)
    # landing exactly on the bound is allowed, crossing it is not
    assert machine.step((0, (bound - 2,)), "x") == (0, (bound,))
    assert machine.step((0, (bound - 1,)), "x") is None
    assert machine.step((0, (bound,)), "x") is None


def test_check_feasible_examples(example_instance, parity):
    res = check_feasible(example_instance)
    assert res.status == automaton.FEASIBLE
    assert res.witness == ("b",)  # zero solution, shortest possible word
    assert (res.bounds, res.d) == ((6, 4), 2)
    assert not any(evaluate(example_instance, parikh(res.witness, example_instance.var_names)))

    assert check_feasible(parity).status == automaton.INFEASIBLE


def test_check_feasible_budget(parity):
    # the Steinitz bound is 1 * max(|2|, |1|) = 2, so R = {0, 2}: discovering
    # 2 passes budget 1, while budget 2 would exhaust R
    res = check_feasible(parity, max_states=1)
    assert res.status == automaton.INCONCLUSIVE


def test_kernel_budget_accounting(parity):
    """The budget counts discovered residues, the start state included."""
    # at bound 8, adding 2 from 0 gives R = {0, 2, 4, 6, 8}, found in that
    # order; 1 - s is odd for every s in R, so no pair exists.  Budget k < 5
    # stops at the (k+1)-th residue, and budget 5 and up exhausts R.
    cols = parity.columns[1:]
    for budget, discovered in ((1, 2), (2, 3), (3, 4), (4, 5)):
        assert _kernels.automaton_reach(cols, parity.rhs, (8,), budget) == (
            _kernels.BUDGET, None, discovered
        )
    for budget in (5, 100):
        assert _kernels.automaton_reach(cols, parity.rhs, (8,), budget) == (
            _kernels.EXHAUSTED, None, 5
        )


def test_zero_rhs_is_decided_at_the_start_state():
    zero = IlpInstance(coeffs=((1, -1),), rhs=(0,), var_names=("x1", "x2"))
    for budget in (0, 1, 5_000_000):
        res = check_feasible(zero, max_states=budget)
        assert (res.status, res.witness, res.states_explored) == (
            automaton.FEASIBLE, ("b",), 1
        )
    assert _kernels.automaton_reach(((3,),), (0,), (0,), 0) == (_kernels.REACHED, [1], 1)


def test_a_pair_not_yet_proven_shortest_is_inconclusive():
    """The budget can run out after a pair is found; the result is then
    inconclusive, never a longer word."""
    # x1 + 2 x2 = 2 has Steinitz bound 2.  Level 1 discovers 1 (by x1),
    # whose mate 2 - 1 = 1 is itself: total 2, the word x1 b x1.  Then it
    # discovers 2 (by x2), whose mate 0 has depth 0: total 1, the word x2 b.
    # 1 <= 1 + 1 ends the search with 3 residues.
    inst = IlpInstance(coeffs=((1, 2),), rhs=(2,), var_names=("x1", "x2"))
    res = check_feasible(inst, max_states=2)
    assert (res.status, res.witness, res.states_explored) == (automaton.INCONCLUSIVE, None, 3)
    res = check_feasible(inst, max_states=3)
    assert (res.status, res.witness, res.states_explored) == (
        automaton.FEASIBLE, ("x2", "b"), 3
    )
    # x1 = 4 at bound 4: level 2 pairs 2 with itself, total 4 > 2 + 1, and
    # only completing level 3 (the residue 3, the 4th) proves it shortest
    inst = IlpInstance(coeffs=((1,),), rhs=(4,), var_names=("x1",))
    assert check_feasible(inst, max_states=3).status == automaton.INCONCLUSIVE
    assert check_feasible(inst, max_states=4).witness == ("x1", "x1", "b", "x1", "x1")
    # a budget below the unbounded search's count leaves a corpus draw
    # inconclusive; at that count it gives the same verdict and word
    rng = random.Random(20250809)
    for _ in range(40):
        inst = random_instance(rng, 4, 3, 3, 5)
        full = check_feasible(inst)
        last = full.states_explored
        for budget in sorted({1, 2, 3, 7, 50, 300, last - 1, last} - {0}):
            res = check_feasible(inst, max_states=budget)
            if budget < last:
                assert res.status == automaton.INCONCLUSIVE
            else:
                assert (res.status, res.witness) == (full.status, full.witness)


def test_one_sided_search_explores_the_residue_set_once():
    # an infeasible search discovers all of R, whatever the visit order
    inst = IlpInstance(
        coeffs=((3, 5, -2), (1, -1, 2)), rhs=(601, 450), var_names=("x1", "x2", "x3")
    )
    res = check_feasible(inst)
    assert (res.status, res.states_explored) == (automaton.INFEASIBLE, 204_458)


def test_check_feasible_exact_on_wide_values():
    big = 2**70
    inst = IlpInstance(coeffs=((big, -1),), rhs=(big,), var_names=("x1", "x2"))
    res = check_feasible(inst, max_states=20_000)
    assert res.status == automaton.FEASIBLE
    assert not any(evaluate(inst, parikh(res.witness, inst.var_names)))


def _accepts(inst, bounds, word):
    """Step ``word`` through the search's machine: residues within ``bounds``,
    one 'b', accepted when every residue is back to zero after the 'b'."""
    used, r = 0, (0,) * inst.num_constraints
    for symbol in word:
        if symbol == "b":
            if used:
                return False
            used, delta = 1, tuple(-b for b in inst.rhs)
        else:
            delta = inst.columns[inst.var_names.index(symbol) + 1]
        r = tuple(v + d for v, d in zip(r, delta))
        if any(abs(v) > bound for v, bound in zip(r, bounds)):
            return False
    return used == 1 and not any(r)


def _least_shortest_walk(inst, bounds, target):
    """The least, in declaration order, of the shortest variable words whose
    partial sums stay within ``bounds`` and end at ``target``."""
    for length in itertools.count():
        for word in itertools.product(inst.var_names, repeat=length):
            r = (0,) * inst.num_constraints
            for symbol in word:
                delta = inst.columns[inst.var_names.index(symbol) + 1]
                r = tuple(v + d for v, d in zip(r, delta))
                if any(abs(v) > bound for v, bound in zip(r, bounds)):
                    break
            else:
                if r == target:
                    return word


def test_witness_is_shortest_and_lex_least():
    """Exhaustive word enumeration on the bounds that decided confirms BFS
    minimality and the tie rule on tiny systems."""
    cases = [
        IlpInstance(coeffs=((3, -2),), rhs=(1,), var_names=("x1", "x2")),
        IlpInstance(coeffs=((1, -1), (1, 1)), rhs=(0, 2), var_names=("x1", "x2")),
        IlpInstance(coeffs=((2, -3),), rhs=(-4,), var_names=("x1", "x2")),
        # acceptance corpus random[101], bound 5: level 1 is {3, 1, -1} and
        # level 2 {4, 2, -2}; 4 (x1 x2) is the first residue whose mate
        # 5 - 4 = 1 (x2) is seen, and total 2 + 1 <= 2 + 1 ends the search
        IlpInstance(coeffs=((3, 1, -1),), rhs=(5,), var_names=("x1", "x2", "x3")),
    ]
    for inst in cases:
        res = check_feasible(inst)
        assert res.status == automaton.FEASIBLE
        alphabet = inst.var_names + ("b",)
        shorter = [
            word
            for length in range(len(res.witness))
            for word in itertools.product(alphabet, repeat=length)
            if _accepts(inst, res.bounds, word)
        ]
        assert shorter == []
        assert _accepts(inst, res.bounds, res.witness)
        # tie rule: the witness is u b v, u the least shortest walk to its
        # residue s and v read backwards the least shortest walk to b - s
        cut = res.witness.index("b")
        u, v = res.witness[:cut], res.witness[cut + 1 :]
        s = tuple(map(sum, zip(*(inst.columns[inst.var_names.index(x) + 1] for x in u))))
        assert _least_shortest_walk(inst, res.bounds, s) == u
        mate = tuple(b - x for b, x in zip(inst.rhs, s))
        assert _least_shortest_walk(inst, res.bounds, mate) == v[::-1]
    assert res.witness == ("x1", "x2", "b", "x2")


def test_corpus_witnesses_are_accepted_on_their_bounds():
    """The half of a witness after 'b' is a search path read backwards; a
    sign slip there keeps the letter counts but leaves the bounds or misses
    zero."""
    rng = random.Random(20250809)
    for k in range(500):
        inst = random_instance(rng, 4, 3, 3, 5)
        res = check_feasible(inst)
        if res.witness is not None:
            assert res.witness.count("b") == 1, k
            assert _accepts(inst, res.bounds, res.witness), k


def test_parikh():
    assert parikh(("x1", "x1", "b", "x2"), ("x1", "x2")) == (2, 1)
    assert parikh(("b",), ("x1", "x2")) == (0, 0)
    with pytest.raises(IlpError):
        parikh(("zz",), ("x1",))


def test_schedule_to_word_worked_example(example_instance):
    sol = Solution((5, 3, 1))
    word = schedule_to_word(example_instance, schedule(example_instance, sol))
    assert len(word) == 10  # nine variable symbols plus one b
    assert word.count("b") == 1
    assert parikh(word, example_instance.var_names) == (5, 3, 1)
    assert CounterAutomaton(example_instance).accepts(word)


def test_schedule_to_word_zero_solution():
    inst = IlpInstance(coeffs=((1,),), rhs=(0,), var_names=("x1",))
    word = schedule_to_word(inst, schedule(inst, Solution((0,))))
    assert word == ("b",)


def test_schedule_to_word_matched_pair():
    inst = IlpInstance(coeffs=((1, -1),), rhs=(0,), var_names=("x1", "x2"))
    word = schedule_to_word(inst, schedule(inst, Solution((1, 1))))
    assert word == ("b", "x1", "x2")
    assert CounterAutomaton(inst).accepts(word)


def test_schedule_to_word_rejects_a_word_outside_the_paper_bounds():
    # x1 - x2 = 0 has bound 2 * 3 * 1 = 6; seven x1 before any x2 reach 7
    inst = IlpInstance(coeffs=((1, -1),), rhs=(0,), var_names=("x1", "x2"))
    trace = ScheduleTrace(2, (1,) * 7 + (2,) * 7, (), (), 7)
    with pytest.raises(IlpError, match="paper residue bounds"):
        schedule_to_word(inst, trace)


def test_schedule_to_word_round_trip_on_randoms():
    rng = random.Random(31)
    for _ in range(60):
        inst = random_instance(rng)
        for sol in enumerate_solutions(inst, 4).solutions[:6]:
            trace = schedule(inst, sol)
            word = schedule_to_word(inst, trace)
            assert parikh(word, inst.var_names) == sol.values
            assert CounterAutomaton(inst).accepts(word)


def test_export_automaton_cycle():
    inst = IlpInstance(coeffs=((1, -1),), rhs=(0,), var_names=("x1", "x2"))
    ag = export_automaton(inst)
    assert (0, (1,)) in ag.states
    assert (0, (-1,)) in ag.states
    assert ag.states[ag.initial] == (0, (0,))
    assert [ag.states[f] for f in ag.finals] == [(1, (0,))]
    # every bounded residue is reachable here: 2 * (2 * 6 + 1) states
    assert len(ag.states) == 26


def test_export_automaton_final_unreachable_for_parity(parity):
    ag = export_automaton(parity)
    assert ag.finals == ()
    assert (1, (0,)) not in ag.states


def test_export_automaton_budget(example_instance):
    with pytest.raises(automaton.StateLimitExceeded):
        export_automaton(example_instance, max_states=3)


def test_automaton_renderings(parity):
    ag = export_automaton(parity)
    dot = automaton.automaton_to_dot(ag)
    assert "digraph" in dot and "__start" in dot
    assert dot.count("->") == len(ag.transitions) + 1
    text = automaton.automaton_to_text(ag)
    assert text.splitlines()[0] == f"states {len(ag.states)}"
    assert sum(1 for line in text.splitlines() if line.startswith("trans ")) == len(
        ag.transitions
    )


def test_emit_boolean_program_exact_text(parity):
    assert emit_boolean_program(parity) == (
        "bp 1\n"
        "var r1 in [-8, 8] init 0\n"
        "bit B init 0\n"
        "rule x: true -> r1 += 2\n"
        "rule b: B == 0 -> r1 += -1, B := 1\n"
        "target: B == 1 && r1 == 0\n"
    )


def test_emit_boolean_program_omits_zero_updates():
    inst = IlpInstance(coeffs=((0, 1), (2, 0)), rhs=(0, 4), var_names=("u", "v"))
    text = emit_boolean_program(inst)
    assert "rule u: true -> r2 += 2\n" in text
    assert "rule v: true -> r1 += 1\n" in text
    assert "rule b: B == 0 -> r2 += -4, B := 1" in text


def test_emit_boolean_program_skip_rule():
    inst = IlpInstance(coeffs=((0, 1),), rhs=(2,), var_names=("dead", "live"))
    assert "rule dead: true -> skip" in emit_boolean_program(inst)


def test_interpret_matches_check(example_instance, parity):
    zero = IlpInstance(coeffs=((1,),), rhs=(0,), var_names=("x1",))
    for inst in (example_instance, parity, zero):
        verdict = interpret_boolean_program(emit_boolean_program(inst))
        assert (verdict.status == automaton.REACHABLE) == (
            check_feasible(inst).status == automaton.FEASIBLE
        )


def test_interpreter_generic_engine_agrees(example_instance, parity):
    """The guarded-command engine and the feasibility search agree."""
    for inst in (example_instance, parity):
        generic = interpret_boolean_program(emit_boolean_program(inst))
        assert (generic.status == automaton.REACHABLE) == (
            check_feasible(inst).status == automaton.FEASIBLE
        )


def test_generic_programs_run_correctly():
    counting = (
        "bp 1\n"
        "var k in [0, 3] init 0\n"
        "bit B init 0\n"
        "rule tick: true -> k += 1\n"
        "rule fire: k == 3 -> B := 1\n"
        "target: B == 1 && k == 3\n"
    )
    assert interpret_boolean_program(counting).status == automaton.REACHABLE
    capped = counting.replace("[0, 3]", "[0, 2]")
    assert interpret_boolean_program(capped).status == automaton.UNREACHABLE


def test_interpreter_counter_guard_forces_generic_engine():
    # a guard over a counter, which emitted programs never have
    program = (
        "bp 1\n"
        "var r1 in [-4, 4] init 0\n"
        "bit B init 0\n"
        "rule up: true -> r1 += 2\n"
        "rule fire: r1 == 4 -> B := 1, r1 += -4\n"
        "target: B == 1 && r1 == 0\n"
    )
    assert interpret_boolean_program(program).status == automaton.REACHABLE
    odd = program.replace("r1 == 4", "r1 == 3")
    assert interpret_boolean_program(odd).status == automaton.UNREACHABLE


def test_interpreter_budget_is_inconclusive(parity):
    """Same counts as `test_kernel_budget_accounting`: the parity program
    is emitted at bound (8,), and the budget counts discovered states."""
    text = emit_boolean_program(parity)
    assert interpret_boolean_program(text, max_states=2).status == automaton.INCONCLUSIVE
    assert "var r1 in [-8, 8] init 0" in text
    for budget, discovered in ((1, 2), (2, 3), (3, 4), (5, 6)):
        assert interpret_boolean_program(text, budget) == automaton.BpResult(
            automaton.INCONCLUSIVE, discovered
        )
    assert interpret_boolean_program(text, 100) == automaton.BpResult(
        automaton.UNREACHABLE, 10
    )


def test_interpreter_does_not_use_the_kernel(monkeypatch, example_instance, parity):
    def no_kernel(*args):
        raise AssertionError("the program check ran the feasibility kernel")

    monkeypatch.setattr(_kernels, "automaton_reach", no_kernel)
    example = interpret_boolean_program(emit_boolean_program(example_instance))
    assert example == automaton.BpResult(automaton.REACHABLE, 5)
    assert example.engine == automaton.SPARSE
    odd = interpret_boolean_program(emit_boolean_program(parity))
    assert odd == automaton.BpResult(automaton.UNREACHABLE, 10)
    assert odd.engine == automaton.DENSE


def _bp(*lines):
    return "bp 1\n" + "\n".join(lines) + "\n"


def test_interpreter_repeated_updates_run_in_order():
    # x += 3 leaves [0, 2] before x += -3 brings it back: the rule is dead
    bounce = _bp(
        "var x in [0, 2] init 0",
        "bit B init 0",
        "rule bounce: true -> x += 3, x += -3, B := 1",
        "target: B == 1",
    )
    assert interpret_boolean_program(bounce) == automaton.BpResult(
        automaton.UNREACHABLE, 1
    )
    wide = bounce.replace("[0, 2]", "[0, 3]")
    assert interpret_boolean_program(wide) == automaton.BpResult(automaton.REACHABLE, 2)


def test_interpreter_assignment_after_addition():
    jump = _bp(
        "var x in [0, 2] init 0",
        "rule jump: true -> x += 2, x := 1",
        "target: x == 1",
    )
    assert interpret_boolean_program(jump) == automaton.BpResult(automaton.REACHABLE, 2)
    # the += is range-checked before := overwrites it
    assert interpret_boolean_program(jump.replace("[0, 2]", "[0, 1]")) == (
        automaton.BpResult(automaton.UNREACHABLE, 1)
    )
    # x only ever takes the values 0 and 1
    never_two = jump.replace("target: x == 1", "target: x == 2")
    assert interpret_boolean_program(never_two) == automaton.BpResult(
        automaton.UNREACHABLE, 2
    )


def test_interpreter_offset_ranges_pack_without_collisions():
    # y fills its whole range [3, 5] from a non-zero init, so a stride or
    # offset error in the packed codes merges states and changes the count
    grid = _bp(
        "var y in [3, 5] init 5",
        "var z in [-2, 2] init -2",
        "rule up: true -> z += 1",
        "rule down: true -> y += -1",
        "target: y == 3 && z == 2",
    )
    assert interpret_boolean_program(grid) == automaton.BpResult(automaton.REACHABLE, 15)
    assert interpret_boolean_program(grid, 13) == automaton.BpResult(
        automaton.INCONCLUSIVE, 14
    )
    # the target is tested before the budget
    assert interpret_boolean_program(grid, 14) == automaton.BpResult(
        automaton.REACHABLE, 15
    )
    below = grid.replace("y == 3 && z == 2", "y == 2")
    assert interpret_boolean_program(below) == automaton.BpResult(
        automaton.UNREACHABLE, 15
    )


def test_interpreter_target_names_some_variables():
    pair = _bp(
        "var x in [0, 3] init 0",
        "var y in [0, 3] init 0",
        "rule step: true -> x += 1, y += 1",
        "target: x == 2",
    )
    assert interpret_boolean_program(pair) == automaton.BpResult(automaton.REACHABLE, 3)
    at_start = pair.replace("x == 2", "y == 0")
    assert interpret_boolean_program(at_start) == automaton.BpResult(
        automaton.REACHABLE, 1
    )


def test_interpreter_exact_on_wide_codes():
    big = 2**70
    inst = IlpInstance(coeffs=((big, -1),), rhs=(big,), var_names=("x1", "x2"))
    text = emit_boolean_program(inst)
    ranges = [v.hi - v.lo + 1 for v in parse_boolean_program(text).variables]
    assert ranges == [12 * big + 1, 2]  # state codes run past 2**64
    result = interpret_boolean_program(text)
    assert result == automaton.BpResult(automaton.REACHABLE, 7)
    assert result.engine == automaton.SPARSE  # no bitset spans 2**71 codes


def _reference_search(variables, rules, target, max_states):
    """FIFO search over value tuples with the interpreter's semantics: the
    target is tested on discovery, before the budget."""
    names = [name for name, _, _, _ in variables]
    ranges = {name: (lo, hi) for name, lo, hi, _ in variables}

    def holds(state, tests):
        return all(state[names.index(name)] == value for name, value in tests)

    start = tuple(init for _, _, _, init in variables)
    if holds(start, target):
        return automaton.REACHABLE, 1
    seen, queue = {start}, collections.deque([start])
    while queue:
        state = queue.popleft()
        for guard, updates in rules:
            if not holds(state, guard):
                continue
            values = dict(zip(names, state))
            for op, name, value in updates:
                values[name] = values[name] + value if op == "+=" else value
                if not ranges[name][0] <= values[name] <= ranges[name][1]:
                    break
            else:
                succ = tuple(values[name] for name in names)
                if succ not in seen:
                    seen.add(succ)
                    if holds(succ, target):
                        return automaton.REACHABLE, len(seen)
                    if len(seen) > max_states:
                        return automaton.INCONCLUSIVE, len(seen)
                    queue.append(succ)
    return automaton.UNREACHABLE, len(seen)


def _render(variables, rules, target):
    lines = ["bp 1"]
    lines += [f"var {name} in [{lo}, {hi}] init {init}" for name, lo, hi, init in variables]
    for k, (guard, updates) in enumerate(rules):
        cond = " && ".join(f"{name} == {value}" for name, value in guard) or "true"
        body = ", ".join(f"{name} {op} {value}" for op, name, value in updates)
        lines.append(f"rule r{k}: {cond} -> {body or 'skip'}")
    lines.append("target: " + " && ".join(f"{name} == {value}" for name, value in target))
    return "\n".join(lines) + "\n"


# (variables, rules, reachable target, unreachable target) for each rule shape
_RULE_SHAPES = {
    "counter guard": (
        [("x", 0, 4, 0), ("y", 0, 3, 0)],
        [((), [("+=", "x", 1)]), ([("x", 4)], [(":=", "x", 0), ("+=", "y", 1)])],
        [("y", 3), ("x", 2)],
        [("y", 4)],
    ),
    "assign a counter": (
        [("x", -2, 3, 1), ("y", 0, 4, 0)],
        [((), [("+=", "x", 2)]), ((), [("+=", "x", -3)]), ((), [(":=", "x", -1), ("+=", "y", 1)])],
        [("x", 3), ("y", 4)],
        [("x", 3), ("y", 5)],
    ),
    "add after assign, assign after add": (
        [("x", 0, 6, 0), ("y", 1, 4, 1)],
        [
            ((), [(":=", "x", 2), ("+=", "x", 3)]),
            ((), [("+=", "y", 2), (":=", "y", 1), ("+=", "x", -2)]),
            ((), [("+=", "y", 1), ("+=", "x", 1)]),
        ],
        [("x", 1), ("y", 1)],
        [("x", 6), ("y", 1)],
    ),
    "repeated updates": (
        [("x", 0, 4, 0), ("z", 0, 1, 0)],
        [((), [("+=", "x", 3), ("+=", "x", -2)]), ((), [(":=", "z", 1), ("+=", "z", -1), ("+=", "z", 1)])],
        [("x", 2), ("z", 1)],
        [("x", 4)],
    ),
    "non-zero lo and init": (
        [("y", 3, 5, 5), ("z", -2, 2, -2)],
        [((), [("+=", "z", 1)]), ((), [("+=", "y", -1)])],
        [("y", 3), ("z", 2)],
        [("y", 2)],
    ),
    "target names some variables": (
        [("x", 0, 3, 0), ("y", 0, 3, 0)],
        [((), [("+=", "x", 1), ("+=", "y", 1)]), ((), [("+=", "y", 2)])],
        [("x", 2)],
        [("x", 3), ("y", 0)],
    ),
    "skip": (
        [("x", 0, 2, 0)],
        [((), []), ([("x", 1)], []), ((), [("+=", "x", 1)])],
        [("x", 2)],
        [("x", 2), ("x", 1)],
    ),
    "values out of range": (
        [("x", 0, 4, 0), ("B", 0, 1, 0)],
        [
            ([("x", 7)], [(":=", "B", 1)]),
            ((), [("+=", "x", 2)]),
            ([("B", 0)], [(":=", "B", 1), (":=", "x", 9)]),
            ([("x", 2)], [(":=", "B", 1), ("+=", "x", -1)]),
        ],
        [("x", 3), ("B", 1)],
        [("x", -3)],
    ),
}


@pytest.mark.parametrize("reachable", [True, False], ids=["reachable", "unreachable"])
@pytest.mark.parametrize("shape", sorted(_RULE_SHAPES))
def test_interpreter_matches_a_reference_search(shape, reachable):
    variables, rules, hit, miss = _RULE_SHAPES[shape]
    target = hit if reachable else miss
    text = _render(variables, rules, target)
    for budget in (0, 1, 2, 3, 7, 50, automaton.DEFAULT_MAX_STATES):
        status, count = _reference_search(variables, rules, target, budget)
        result = interpret_boolean_program(text, budget)
        assert (result.status, result.states_explored) == (status, count), budget
        # every program here is small enough for the dense engine to decide
        # each unreachable verdict that fits the budget
        dense = status == automaton.UNREACHABLE and budget > 0
        assert result.engine == (automaton.DENSE if dense else automaton.SPARSE), budget
    assert status == (automaton.REACHABLE if reachable else automaton.UNREACHABLE)


def test_interpreter_keeps_the_sparse_engine_where_it_is_cheaper():
    # `x := 0` needs one mask per value of x: 20,001 masks of 20,001 codes
    # would take 48 MiB, past the dense engine's 32 MiB
    wide_assign = _bp(
        "var x in [0, 20000] init 0",
        *(f"rule up{2**k}: true -> x += {2**k}" for k in range(15)),
        "rule reset: true -> x := 0",
        "target: x == -1",
    )
    result = interpret_boolean_program(wide_assign)
    assert (result, result.engine) == (
        automaton.BpResult(automaton.UNREACHABLE, 20001), automaton.SPARSE
    )
    # one state per level: each dense level scans all 2**16 codes
    chain = _bp("var x in [0, 65535] init 0", "rule up: true -> x += 1", "target: x == -1")
    result = interpret_boolean_program(chain)
    assert (result, result.engine) == (
        automaton.BpResult(automaton.UNREACHABLE, 2**16), automaton.SPARSE
    )


def test_bp_parse_errors():
    with pytest.raises(ParseError, match="bp 1"):
        parse_boolean_program("nope\n")
    with pytest.raises(ParseError, match="no target"):
        parse_boolean_program("bp 1\nbit B init 0\n")
    with pytest.raises(ParseError, match="unknown variable"):
        parse_boolean_program(
            "bp 1\nbit B init 0\nrule r: true -> z += 1\ntarget: B == 1\n"
        )
    with pytest.raises(ParseError, match="bad update"):
        parse_boolean_program(
            "bp 1\nbit B init 0\nrule r: true -> B <- 1\ntarget: B == 1\n"
        )
    with pytest.raises(ParseError) as err:
        parse_boolean_program("bp 1\nbit B init 0\nwhat is this\ntarget: B == 1\n")
    assert err.value.line == 3


def test_bp_literal_past_the_int_digit_limit_is_a_parse_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = (limit or 4300) + 1
    text = f"bp 1\n  var r1 in [-{'9' * digits}, 5] init 0\ntarget: r1 == 0\n"
    if limit:
        with pytest.raises(ParseError, match=f"literal of {digits} digits") as err:
            parse_boolean_program(text)
        assert (err.value.line, err.value.column) == (2, 15)
    else:
        assert parse_boolean_program(text).variables[0].lo == 1 - 10**digits


def test_bp_round_trip_structure(example_instance):
    prog = parse_boolean_program(emit_boolean_program(example_instance))
    assert [v.name for v in prog.variables] == ["r1", "r2", "B"]
    assert [r.name for r in prog.rules] == ["x1", "x2", "x3", "b"]
    assert prog.rules[0].updates == (("+=", "r1", -2), ("+=", "r2", 1))
    assert set(prog.target) == {("B", 1), ("r1", 0), ("r2", 0)}
