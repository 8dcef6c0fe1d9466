"""Tests for the benchmark's own code: generators, checkers and span arithmetic."""

import dataclasses
import random

import pytest

import checks
import spans
import workloads
from ilpath import decomposition, solution_graph
from ilpath.instance import IlpInstance, Solution


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_repeat_for_a_seed(name):
    make = workloads.WORKLOADS[name].make
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_presentation_keeps_the_solutions():
    rng = random.Random(5)
    coeffs, rhs = ((1, -2, 3), (0, 1, -1)), (2, 1)
    new_coeffs, new_rhs, order = workloads.present(coeffs, rhs, rng)
    for x in checks.box_solutions(coeffs, rhs, 4):
        assert checks.mat_vec(new_coeffs, [x[c] for c in order]) == new_rhs
    assert checks.count_box_solutions(coeffs, rhs, 4) == checks.count_box_solutions(
        new_coeffs, new_rhs, 4)


def test_box_solutions_brute_force():
    coeffs, rhs = ((2, -1, 1),), (3,)
    expected = [
        (a, b, c) for a in range(4) for b in range(4) for c in range(4)
        if 2 * a - b + c == 3
    ]
    assert checks.box_solutions(coeffs, rhs, 3) == expected


def _decide_case(coeffs, rhs):
    names = ("x1", "x2", "x3")[: len(coeffs[0])]
    text = workloads.ilp_text(coeffs, rhs, names, random.Random(0))
    return workloads.DecideCase(text, coeffs, rhs, names,
                                checks.count_box_solutions(coeffs, rhs, 10))


def test_decide_checker_rejects_a_witness_missing_a_letter():
    case = _decide_case(((2, -1, 0), (0, 1, 1)), (3, 2))
    inst, feas, vector = workloads.send_decide(case)
    assert feas.status == "feasible"
    assert checks.check_decide(case, (inst, feas, vector)) == []
    short = list(feas.witness)
    short.remove("x1")
    bad = dataclasses.replace(feas, witness=tuple(short))
    assert checks.check_decide(case, (inst, bad, vector))


def test_decide_checker_rejects_a_wrong_infeasible_verdict():
    case = _decide_case(((1, 1),), (4,))
    inst, feas, vector = workloads.send_decide(case)
    assert checks.check_decide(case, (inst, feas, vector)) == []
    bad = dataclasses.replace(feas, status="infeasible", witness=None)
    assert checks.check_decide(case, (inst, bad, None))


def _worked_case():
    inst = IlpInstance(workloads.WORKED_COEFFS, (0, 0), ("x1", "x2", "x3"))
    return workloads.UnaryCase(inst, Solution(workloads.WORKED_SOLUTION))


def test_unary_checker_rejects_a_decomposition_missing_a_bag():
    case = _worked_case()
    result = workloads.send_unary(case)
    assert checks.check_unary(case, result) == []
    bags = result.decomposition.bags
    for k in range(len(bags)):
        pd = decomposition.PathDecomposition(bags[:k] + bags[k + 1:])
        assert checks.check_unary(case, dataclasses.replace(result, decomposition=pd))


def test_unary_checker_rejects_a_graph_missing_an_edge():
    case = _worked_case()
    result = workloads.send_unary(case)
    g = result.graph
    broken = solution_graph.SolutionGraph(g.num_vars, g.num_constraints, g.labels, g.edges[1:])
    assert checks.check_unary(case, dataclasses.replace(result, graph=broken))


def test_verify_checker_rejects_breaches_and_missed_solutions():
    inst = IlpInstance(((1, -1),), (0,), ("x1", "x2"))
    case = workloads.VerifyCase(inst, checks.count_box_solutions(inst.coeffs, inst.rhs, 10))
    summary = workloads.send_verify(case)
    assert checks.check_verify(case, summary) == []
    assert checks.check_verify(case, {**summary, "breaches": ["made up"]})
    assert checks.check_verify(case, {**summary, "automaton_verdict": "infeasible"})
    assert checks.check_verify(case, {**summary, "oracle_solutions": 0})


def test_self_times_on_a_span_tree():
    #  0 [0, 10]: children 1 [1, 4] and 3 [5, 9]; 1 has child 2 [2, 3]
    starts, ends, parents = [0, 1, 2, 5], [10, 4, 3, 9], [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents, range(4)) == {0: 3, 1: 2, 2: 1, 3: 4}


def test_tracer_nests_library_calls_and_uninstalls():
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.request = 0
        workloads.send_unary(_worked_case())
    finally:
        tracer.uninstall()
    assert decomposition.validate_graph is solution_graph.validate_graph
    assert not hasattr(decomposition.build_special_form, "__wrapped__")
    names = tracer.names
    inner = [i for i, name in enumerate(names) if name == "solution_graph.validate_graph"
             and names[tracer.parents[i]] == "decomposition.build_special_form"]
    assert inner, "validate_graph inside build_special_form was not traced"
    layers = spans.layer_metrics(tracer, tracer.spans(0, 1))
    assert layers["solution_graph.vertices"] == 10
    assert layers["decomposition.bags"] >= 1
    total = sum(tracer.ends[i] - tracer.starts[i]
                for i, p in enumerate(tracer.parents) if p == -1)
    own = sum(layers[f"{name}.self_s"] for name in spans.SELF_TIMED)
    assert own == pytest.approx(total)
