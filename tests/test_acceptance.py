"""Acceptance suite: every release criterion as one test, one printed line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines; two plain tests next to criterion 5 check the Steinitz
bounds the search decides on against the paper bounds and the oracle.  The
random corpus is fixed by seed; boxes, bounds and tolerances are pinned here
and nowhere else.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ilpath import automaton as aut
from ilpath import decomposition as dec
from ilpath.corpus import random_instance
from ilpath.instance import Solution, evaluate, parse_instance
from ilpath.oracle import enumerate_solutions
from ilpath.solution_graph import SolutionGraph, build_graph, sol_of, validate_graph
from tests.conftest import INSTANCE_DIR

CORPUS_SEED = 20250809
CORPUS_SIZE = 500
CORPUS_BOX = 8
SIZE_FACTOR = 200  # bytes allowed per unit of n + m + nonzeros in criterion 7


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL - {title}")
        raise
    print(f"ACCEPTANCE {num} PASS - {title}")


@pytest.fixture(scope="module")
def corpus():
    """The 500 pinned random instances plus the shipped examples."""
    rng = random.Random(CORPUS_SEED)
    instances = [
        (f"random[{k}]", random_instance(rng, 4, 3, 3, 5)) for k in range(CORPUS_SIZE)
    ]
    for path in sorted(INSTANCE_DIR.glob("*.ilp")):
        instances.append((path.name, parse_instance(path.read_text())))
    return instances


@pytest.fixture(scope="module")
def corpus_solutions(corpus):
    return {name: enumerate_solutions(inst, CORPUS_BOX) for name, inst in corpus}


@pytest.fixture(scope="module")
def corpus_feasibility(corpus):
    return {name: aut.check_feasible(inst) for name, inst in corpus}


def test_criterion_1_worked_example_reproduction(example_instance):
    with criterion(1, "worked example traces and target tables reproduce exactly"):
        t0 = time.perf_counter()
        sol = Solution((5, 3, 1))
        trace = dec.schedule(example_instance, sol)
        assert trace.c_after_reduce == (
            (0, 2, 4),
            (0, 4, 3),
            (0, 1, 2),
            (0, 3, 1),
            (0, 0, 0),
        )
        assert tuple(r[0] for r in trace.r_after_reduce) == (2, 3, 1, 2, 0)
        # second residue derived from the exact counter identity (the
        # published figure prints the unscaled numerators instead)
        assert tuple(r[1] for r in trace.r_after_reduce) == (0, -1, 0, -1, 0)

        sf = dec.build_special_form(example_instance, sol, trace)
        assert tuple(t[1:] for t in sf.open_targets[0]) == (
            (0, 2, 0),
            (0, 3, 0),
            (0, 1, 0),
            (0, 2, 0),
            (0, 0, 0),
        )
        assert tuple(t[1:] for t in sf.open_targets[1]) == (
            (0, -1, 1),
            (0, -2, 1),
            (0, -1, 1),
            (0, -2, 1),
            (0, 0, 0),
        )
        assert tuple(s[0] for s in sf.residue_splits[1]) == (
            Fraction(4, 5),
            Fraction(3, 5),
            Fraction(2, 5),
            Fraction(1, 5),
            0,
        )
        assert tuple(s[1] for s in sf.residue_splits[1]) == (
            Fraction(-4, 5),
            Fraction(-8, 5),
            Fraction(-2, 5),
            Fraction(-6, 5),
            0,
        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"worked example took {elapsed:.3f}s"


def test_criterion_2_width_bound_over_corpus(corpus):
    with criterion(2, "every corpus solution decomposes within the width bound"):
        t0 = time.perf_counter()
        violations = []
        solutions_checked = 0
        for name, inst in corpus:
            if not name.startswith("random["):
                continue
            bound = 2 * inst.num_vars - (0 if any(inst.rhs) else 1)
            for sol in enumerate_solutions(inst, CORPUS_BOX).solutions:
                trace = dec.schedule(inst, sol)
                sf = dec.build_special_form(inst, sol, trace)
                pd = dec.decompose(sf)
                verdict = dec.validate_decomposition(sf.graph, pd)
                if not verdict.ok:
                    violations.append(f"{name} {sol.values}: {verdict.violation}")
                if verdict.width > bound:
                    violations.append(
                        f"{name} {sol.values}: width {verdict.width} > {bound}"
                    )
                if dec.max_label_occupancy(sf.graph, pd) > 2:
                    violations.append(f"{name} {sol.values}: >2 same-label vertices")
                solutions_checked += 1
        elapsed = time.perf_counter() - t0
        assert violations == []
        assert solutions_checked > 1000  # the corpus is not degenerate
        assert elapsed < 60.0, f"corpus sweep took {elapsed:.1f}s"
        print(
            f"  (criterion 2: {solutions_checked} solutions, {elapsed:.1f}s)", end=" "
        )


def test_criterion_3_graph_semantics(corpus, corpus_solutions, example_instance):
    with criterion(3, "graph round-trip, validation, and mutation rejection"):
        for name, inst in corpus:
            for sol in corpus_solutions[name].solutions:
                g = build_graph(inst, sol)
                assert validate_graph(inst, g).ok, (name, sol.values)
                assert sol_of(g).values == sol.values, (name, sol.values)

        g = build_graph(example_instance, Solution((5, 3, 1)))
        ones = g.vertices_with_label(1)
        merged = list(g.labels)
        merged[g.vertices_with_label(2)[0]] = 1
        mutations = [
            SolutionGraph(g.num_vars, g.num_constraints, tuple(merged), g.edges),
            SolutionGraph(g.num_vars, g.num_constraints, g.labels, g.edges[1:]),
            SolutionGraph(
                g.num_vars,
                g.num_constraints,
                g.labels,
                g.edges[1:] + ((ones[0], ones[1], 1),),
            ),
        ]
        for k, mutated in enumerate(mutations):
            assert not validate_graph(example_instance, mutated).ok, f"mutation {k}"


def test_criterion_4_automaton_soundness(corpus, corpus_feasibility):
    with criterion(4, "every accepted witness spells an exact solution"):
        feasible = 0
        for name, inst in corpus:
            result = corpus_feasibility[name]
            if result.status == aut.FEASIBLE:
                values = aut.parikh(result.witness, inst.var_names)
                assert not any(evaluate(inst, values)), name
                feasible += 1
        assert feasible > 50


def test_criterion_5_automaton_oracle_agreement(
    corpus, corpus_solutions, corpus_feasibility
):
    with criterion(5, "automaton and oracle verdicts agree over the corpus"):
        findings = []
        for name, inst in corpus:
            result = corpus_feasibility[name]
            assert result.status != aut.INCONCLUSIVE, name
            if corpus_solutions[name].solutions and result.status == aut.INFEASIBLE:
                findings.append(
                    f"{name}: oracle-feasible but automaton-infeasible "
                    f"(Steinitz bounds {result.bounds})"
                )
        assert findings == [], findings


def test_steinitz_bounds_within_paper_bounds(corpus):
    # the inclusion is why deciding on the Steinitz bounds keeps every
    # verdict of the paper construction
    for name, inst in corpus:
        steinitz, paper = aut.steinitz_bounds(inst), aut.residue_bounds(inst)
        assert all(s <= p for s, p in zip(steinitz, paper)), (name, steinitz, paper)


def test_witness_length_at_most_one_plus_min_total(corpus_solutions, corpus_feasibility):
    for name, sset in corpus_solutions.items():
        if sset.solutions:
            least = min(sum(sol.values) for sol in sset.solutions)
            assert len(corpus_feasibility[name].witness) <= 1 + least, name


def test_criterion_6_schedule_words(corpus, corpus_solutions):
    with criterion(6, "schedule words are accepted and count back to the solution"):
        for name, inst in corpus:
            machine = aut.CounterAutomaton(inst)
            for sol in corpus_solutions[name].solutions:
                trace = dec.schedule(inst, sol)
                word = aut.schedule_to_word(inst, trace)
                assert aut.parikh(word, inst.var_names) == sol.values, name
                assert machine.accepts(word), (name, sol.values)


def test_criterion_7_boolean_program(corpus, corpus_feasibility):
    with criterion(7, "program reachability matches, text grows linearly"):
        for name, inst in corpus:
            text = aut.emit_boolean_program(inst)
            verdict = aut.interpret_boolean_program(text)
            assert verdict.status != aut.INCONCLUSIVE, name
            assert (verdict.status == aut.REACHABLE) == (
                corpus_feasibility[name].status == aut.FEASIBLE
            ), name
            nonzeros = sum(1 for row in inst.coeffs for a in row if a) + sum(
                1 for b in inst.rhs if b
            )
            budget = SIZE_FACTOR * (inst.num_vars + inst.num_constraints + nonzeros)
            assert len(text.encode()) <= budget, (name, len(text), budget)


def test_criterion_8_counter_invariants(corpus, corpus_solutions):
    with criterion(8, "counter ranges and the residue identity hold on every run"):
        for name, inst in corpus:
            for sol in corpus_solutions[name].solutions:
                trace = dec.schedule(inst, sol)
                breaches = dec.check_schedule_invariants(inst, sol, trace)
                assert breaches == [], (name, sol.values, breaches[:3])
