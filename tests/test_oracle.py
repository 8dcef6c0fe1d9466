import random

import pytest

from ilpath import _kernels
from ilpath.corpus import random_instance
from ilpath.instance import IlpError, IlpInstance, evaluate
from ilpath.oracle import enumerate_solutions, solutions_to_csv


def test_enumerate_hand_checked():
    inst = IlpInstance(coeffs=((1, 1),), rhs=(2,), var_names=("x1", "x2"))
    found = enumerate_solutions(inst, 3)
    assert [s.values for s in found.solutions] == [(0, 2), (1, 1), (2, 0)]
    assert found.complete


def test_enumerate_parity_empty():
    inst = IlpInstance(coeffs=((2,),), rhs=(1,), var_names=("x",))
    found = enumerate_solutions(inst, 10)
    assert found.solutions == ()
    assert found.complete


def test_enumerate_example_contains_known_solutions(example_instance):
    found = enumerate_solutions(example_instance, 6)
    values = {s.values for s in found.solutions}
    assert (5, 3, 1) in values
    assert (0, 0, 0) in values


def test_solutions_are_exhaustive_and_exact():
    rng = random.Random(5)
    for _ in range(25):
        inst = random_instance(rng, max_vars=3, max_constraints=2)
        found = enumerate_solutions(inst, 4)
        assert found.complete
        listed = {s.values for s in found.solutions}
        import itertools

        direct = {
            values
            for values in itertools.product(range(5), repeat=inst.num_vars)
            if not any(evaluate(inst, values))
        }
        assert listed == direct


def test_first_solution_is_lexicographically_first():
    inst = IlpInstance(coeffs=((1, 1),), rhs=(2,), var_names=("x1", "x2"))
    found = enumerate_solutions(inst, 3)
    assert found.solutions[0].values == (0, 2)


def test_box_zero_too_small_is_complete_and_empty():
    inst = IlpInstance(coeffs=((1, 1),), rhs=(2,), var_names=("x1", "x2"))
    found = enumerate_solutions(inst, 0)
    assert found.complete
    assert found.solutions == ()


def test_zero_rhs_first_solution_is_all_zeros(example_instance):
    found = enumerate_solutions(example_instance, 6)
    assert found.solutions[0].values == (0, 0, 0)


def test_budget_yields_partial_result():
    inst = IlpInstance(coeffs=((0, 0),), rhs=(0,), var_names=("x", "y"))
    found = enumerate_solutions(inst, 9, max_nodes=25)
    assert not found.complete
    assert 0 < len(found.solutions) < 100
    assert list(found.solutions) == sorted(found.solutions, key=lambda s: s.values)
    starved = enumerate_solutions(inst, 9, max_nodes=1)
    assert not starved.complete
    assert starved.solutions == ()


def test_enumerate_box_degenerate_boxes():
    assert _kernels.enumerate_box(((1, 1),), (0,), 0, 1000) == (True, 2, [(0, 0)])
    assert _kernels.enumerate_box(((1, -1),), (0,), 0, 1000) == (True, 2, [(0, 0)])
    assert _kernels.enumerate_box(((2,),), (4,), 2, 1000) == (True, 3, [(2,)])


def test_enumerate_box_budget_accounting():
    """On an all-zero row every leaf is a solution; the budget counts nodes."""
    grid = [(i, j) for i in range(10) for j in range(10)]
    for budget, found in ((1, 0), (3, 2), (17, 15), (99, 90)):
        complete, nodes, sols = _kernels.enumerate_box(((0, 0),), (0,), 9, budget)
        assert (complete, nodes, sols) == (False, budget + 1, grid[:found])


def test_monotone_in_box():
    rng = random.Random(6)
    for _ in range(30):
        inst = random_instance(rng)
        small = enumerate_solutions(inst, 3)
        if small.solutions:
            assert small.solutions[0] in enumerate_solutions(inst, 6).solutions


def test_negative_box_rejected(example_instance):
    with pytest.raises(IlpError):
        enumerate_solutions(example_instance, -1)


def test_csv_export():
    inst = IlpInstance(coeffs=((1, 1),), rhs=(2,), var_names=("left", "right"))
    text = solutions_to_csv(enumerate_solutions(inst, 2))
    lines = text.strip().splitlines()
    assert lines[0] == "left,right"
    assert lines[1:] == ["0,2", "1,1", "2,0"]
