import itertools
import random

import pytest

from ilpath import automaton
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
    step,
)
from ilpath.corpus import random_instance
from ilpath.decomposition import schedule
from ilpath.instance import IlpError, IlpInstance, ParseError, Solution, evaluate
from ilpath.oracle import enumerate_solutions


@pytest.fixture
def parity():
    return IlpInstance(coeffs=((2,),), rhs=(1,), var_names=("x",))


def test_residue_bounds_default(example_instance):
    # multiplier * (n+1) * max(max|a|, |b|) per constraint
    assert residue_bounds(example_instance) == (24, 16)
    assert residue_bounds(example_instance, multiplier=3) == (36, 24)
    with pytest.raises(IlpError):
        residue_bounds(example_instance, multiplier=0)


def test_steinitz_bounds_exact_values(example_instance, parity):
    # d * max(max|a|, |b|) per constraint with d = min(m, n+1)
    assert steinitz_bounds(example_instance) == (6, 4)
    assert residue_bounds(example_instance) == (24, 16)
    assert steinitz_bounds(parity) == (2,)
    # a zero row with b_j = 0 pins its residue to 0
    inst = IlpInstance(coeffs=((0, 0), (1, -1)), rhs=(0, 0), var_names=("x1", "x2"))
    assert steinitz_bounds(inst) == (0, 2)


def test_step_examples(example_instance, parity):
    assert step(example_instance, (0, (0, 0)), "x1") == (0, (-2, 1))
    zero = IlpInstance(coeffs=((1,),), rhs=(0,), var_names=("x1",))
    assert step(zero, (0, (0,)), "b") == (1, (0,))
    assert step(parity, (0, (0,)), "b") == (1, (-1,))
    # a second b is disabled
    assert step(parity, (1, (0,)), "b") is None
    with pytest.raises(IlpError, match="unknown symbol"):
        step(parity, (0, (0,)), "nope")


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
    res = check_feasible(parity, max_states=3)
    assert res.status == automaton.INCONCLUSIVE


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
            delta = inst.column(inst.var_names.index(symbol) + 1)
        r = tuple(v + d for v, d in zip(r, delta))
        if any(abs(v) > bound for v, bound in zip(r, bounds)):
            return False
    return used == 1 and not any(r)


def test_witness_is_shortest_and_lex_least():
    """Exhaustive word enumeration on the bounds that decided confirms BFS
    minimality on tiny systems."""
    cases = [
        IlpInstance(coeffs=((3, -2),), rhs=(1,), var_names=("x1", "x2")),
        IlpInstance(coeffs=((1, -1), (1, 1)), rhs=(0, 2), var_names=("x1", "x2")),
        IlpInstance(coeffs=((2, -3),), rhs=(-4,), var_names=("x1", "x2")),
        # acceptance corpus random[101]: x1 x1 x3 b leaves the Steinitz bound 5
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
        rank = {symbol: k for k, symbol in enumerate(alphabet)}
        same_length = [
            word
            for word in itertools.product(alphabet, repeat=len(res.witness))
            if _accepts(inst, res.bounds, word)
        ]
        # tie-break among shortest words: variables in declaration order, then b
        assert min(same_length, key=lambda w: [rank[s] for s in w]) == res.witness
    assert res.witness == ("x1", "x2", "x2", "b")


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


def test_interpreter_generic_engine_agrees(monkeypatch, example_instance, parity):
    """Force the generic guarded-command engine and compare verdicts."""
    monkeypatch.setattr(automaton, "_as_counter_search", lambda prog: None)
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
    # a guard over a counter is outside the recognized shape but must
    # still be interpreted correctly
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
    text = emit_boolean_program(parity)
    assert interpret_boolean_program(text, max_states=2).status == automaton.INCONCLUSIVE


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


def test_bp_round_trip_structure(example_instance):
    prog = parse_boolean_program(emit_boolean_program(example_instance))
    assert [v.name for v in prog.variables] == ["r1", "r2", "B"]
    assert [r.name for r in prog.rules] == ["x1", "x2", "x3", "b"]
    assert prog.rules[0].updates == (("+=", "r1", -2), ("+=", "r2", 1))
    assert set(prog.target) == {("B", 1), ("r1", 0), ("r2", 0)}
