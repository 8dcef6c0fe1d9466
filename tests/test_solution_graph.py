import random
import re
from collections import Counter

import pytest

from ilpath.corpus import random_instance
from ilpath.instance import IlpError, IlpInstance, Solution, evaluate
from ilpath.oracle import enumerate_solutions
from ilpath.solution_graph import (
    SolutionGraph,
    build_graph,
    from_dot,
    sol_of,
    to_dot,
    validate_graph,
)


def degree_profile(g, vid):
    """j-degree counter for one vertex."""
    counts = Counter()
    for u, v, j in g.edges:
        if vid in (u, v):
            counts[j] += 1
    return counts


def test_build_graph_worked_example(example_instance):
    g = build_graph(example_instance, Solution((5, 3, 1)))
    assert g.num_vertices == 5 + 3 + 1 + 1
    assert len(g.vertices_with_label(0)) == 1
    v0 = g.vertices_with_label(0)[0]
    assert degree_profile(g, v0) == Counter()
    for vid in g.vertices_with_label(1):
        assert degree_profile(g, vid) == Counter({1: 2, 2: 1})
    for vid in g.vertices_with_label(2):
        assert degree_profile(g, vid) == Counter({1: 3, 2: 2})
    for vid in g.vertices_with_label(3):
        assert degree_profile(g, vid) == Counter({1: 1, 2: 1})
    assert validate_graph(example_instance, g).ok


def test_build_graph_zero_solution():
    inst = IlpInstance(coeffs=((1,),), rhs=(0,), var_names=("x1",))
    g = build_graph(inst, Solution((0,)))
    assert g.labels == (0,)
    assert g.edges == ()
    assert sol_of(g).values == (0,)


def test_build_graph_matched_pair():
    inst = IlpInstance(coeffs=((1, -1),), rhs=(0,), var_names=("x1", "x2"))
    g = build_graph(inst, Solution((2, 2)))
    assert g.num_vertices == 5
    assert len(g.edges) == 2
    for u, v, j in g.edges:
        assert j == 1
        assert {g.labels[u], g.labels[v]} == {1, 2}


def test_build_graph_rejects_non_solution(example_instance):
    with pytest.raises(IlpError, match="not a solution"):
        build_graph(example_instance, Solution((1, 1, 1)))


def test_validate_rejects_same_label_edge(example_instance):
    g = build_graph(example_instance, Solution((5, 3, 1)))
    ones = g.vertices_with_label(1)
    mutated = SolutionGraph(
        g.num_vars,
        g.num_constraints,
        g.labels,
        g.edges[1:] + ((ones[0], ones[1], 1),),
    )
    verdict = validate_graph(example_instance, mutated)
    assert not verdict.ok
    assert verdict.condition == 3


def test_validate_rejects_edge_deletion(example_instance):
    g = build_graph(example_instance, Solution((5, 3, 1)))
    first_j1 = next(k for k, e in enumerate(g.edges) if e[2] == 1)
    mutated = SolutionGraph(
        g.num_vars,
        g.num_constraints,
        g.labels,
        g.edges[:first_j1] + g.edges[first_j1 + 1:],
    )
    verdict = validate_graph(example_instance, mutated)
    assert not verdict.ok
    assert verdict.condition == 4


def test_validate_rejects_label_merge(example_instance):
    g = build_graph(example_instance, Solution((5, 3, 1)))
    victim = g.vertices_with_label(2)[0]
    labels = list(g.labels)
    labels[victim] = 1
    mutated = SolutionGraph(g.num_vars, g.num_constraints, tuple(labels), g.edges)
    assert not validate_graph(example_instance, mutated).ok


def test_validate_rejects_zero_vertex_miscount(example_instance):
    g = build_graph(example_instance, Solution((5, 3, 1)))
    labels = list(g.labels)
    labels[g.vertices_with_label(0)[0]] = 1
    mutated = SolutionGraph(g.num_vars, g.num_constraints, tuple(labels), g.edges)
    verdict = validate_graph(example_instance, mutated)
    assert not verdict.ok
    assert verdict.condition == 1


def test_validate_rejects_out_of_range_labels(example_instance):
    g = build_graph(example_instance, Solution((0, 0, 0)))
    bad_vertex = SolutionGraph(3, 2, (0, 9), ())
    assert validate_graph(example_instance, bad_vertex).condition == 1
    bad_edge = SolutionGraph(3, 2, (0, 1, 2), ((1, 2, 7),))
    assert validate_graph(example_instance, bad_edge).condition == 2


def test_isolated_vertices_with_zero_column_are_members():
    inst = IlpInstance(coeffs=((1, 0),), rhs=(0,), var_names=("x1", "x2"))
    g = build_graph(inst, Solution((0, 3)))
    assert validate_graph(inst, g).ok
    assert sol_of(g).values == (0, 3)


def test_soundness_of_membership(example_instance):
    g = build_graph(example_instance, Solution((5, 3, 1)))
    assert evaluate(example_instance, sol_of(g)) == (0, 0)


def test_round_trip_over_random_instances():
    rng = random.Random(11)
    checked = 0
    for _ in range(120):
        inst = random_instance(rng, max_vars=3, max_constraints=2)
        for sol in enumerate_solutions(inst, 4).solutions:
            g = build_graph(inst, sol)
            assert validate_graph(inst, g).ok
            assert sol_of(g).values == sol.values
            checked += 1
    assert checked > 50


def test_dot_round_trip(example_instance):
    g = build_graph(example_instance, Solution((5, 3, 1)))
    text = to_dot(g, example_instance)
    back = from_dot(text)
    assert back.num_vars == g.num_vars
    assert back.num_constraints == g.num_constraints
    assert back.labels == g.labels
    assert sorted(back.edges) == sorted(g.edges)


def test_dot_keeps_isolated_zero_vertex():
    inst = IlpInstance(coeffs=((1, -1),), rhs=(0,), var_names=("x1", "x2"))
    g = build_graph(inst, Solution((1, 1)))
    text = to_dot(g)
    assert 'v0 [label="0"]' in text
    assert from_dot(text).labels == g.labels


@pytest.mark.parametrize(
    "line", ['v1 [label="0"];', "n=5;", "m=2;"], ids=["vertex", "n", "m"]
)
def test_from_dot_rejects_a_repeated_declaration(line):
    inst = IlpInstance(coeffs=((1, -1),), rhs=(0,), var_names=("x1", "x2"))
    lines = to_dot(build_graph(inst, Solution((1, 1)))).splitlines()
    lines.insert(-1, "  " + line)
    with pytest.raises(IlpError, match=re.escape(line)):
        from_dot("\n".join(lines))


def test_from_dot_rejects_an_unknown_graph_attribute():
    text = 'graph g {\n n=1;\n m=1;\n foo=7;\n v0 [label="0"];\n}\n'
    with pytest.raises(IlpError, match=re.escape("foo=7;")):
        from_dot(text)
