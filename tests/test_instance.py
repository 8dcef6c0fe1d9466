import random

import pytest

from ilpath.instance import (
    Constraint,
    IlpError,
    IlpInstance,
    ParseError,
    Solution,
    evaluate,
    parse_instance,
    strip_slack,
    to_standard_form,
)
from ilpath.oracle import enumerate_solutions


def test_parse_example_document():
    inst = parse_instance("-2 x1 + 3 x2 + 1 x3 = 0 ; 1 x1 + -2 x2 + 1 x3 = 0")
    assert inst.coeffs == ((-2, 3, 1), (1, -2, 1))
    assert inst.rhs == (0, 0)
    assert inst.var_names == ("x1", "x2", "x3")
    assert inst.slack_mask == (False, False, False)


def test_parse_single_identity():
    inst = parse_instance("1 x1 = 0")
    assert inst.coeffs == ((1,),)
    assert inst.rhs == (0,)


def test_parse_inequality_gains_slack_column():
    inst = parse_instance("1 x1 + 1 x2 <= 2")
    assert inst.coeffs == ((1, 1, 1),)
    assert inst.rhs == (2,)
    assert inst.slack_mask == (False, False, True)
    assert inst.var_names[:2] == ("x1", "x2")


def test_parse_variable_order_is_first_appearance():
    inst = parse_instance("2 z + 1 a = 3\n1 a + 1 q = 1")
    assert inst.var_names == ("z", "a", "q")
    assert inst.coeffs == ((2, 1, 0), (0, 1, 1))  # absent variables padded with 0


def test_parse_comments_blank_lines_and_signs():
    text = """
    # heading comment
    -1 u + - 2 v = -3

    + 3 u + -1 v >= 0
    """
    inst = parse_instance(text)
    assert inst.coeffs[0][:2] == (-1, -2)
    assert inst.rhs == (-3, 0)
    # the >= row gets a -1 slack coefficient
    assert inst.coeffs[1] == (3, -1, -1)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_instance("1 x1 = 0\n2 x2 = $")
    assert err.value.line == 2
    assert "unexpected character" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_instance("x1 = 0")
    assert "integer coefficient" in str(err.value)
    assert err.value.line == 1
    assert err.value.column == 1

    with pytest.raises(ParseError, match="duplicate variable 'x1'"):
        parse_instance("1 x1 + 2 x1 = 3")

    with pytest.raises(ParseError, match="no constraints"):
        parse_instance("# only a comment\n\n")

    with pytest.raises(ParseError, match="reserved"):
        parse_instance("1 b = 0")

    with pytest.raises(ParseError, match="expected relation"):
        parse_instance("1 x1 2 x2 = 0")


def test_standard_form_slack_signs():
    le = to_standard_form([Constraint((1,), "<=", 3)], ("x1",))
    assert le.coeffs == ((1, 1),)
    assert le.rhs == (3,)
    ge = to_standard_form([Constraint((1,), ">=", 2)], ("x1",))
    assert ge.coeffs == ((1, -1),)
    assert ge.rhs == (2,)
    eq = to_standard_form([Constraint((1, 2), "=", 5)], ("x1", "x2"))
    assert eq.coeffs == ((1, 2),)
    assert eq.slack_mask == (False, False)


def test_standard_form_avoids_name_collisions():
    inst = to_standard_form(
        [Constraint((1, 0), "<=", 1), Constraint((0, 1), ">=", 0)], ("_s1", "x")
    )
    assert len(set(inst.var_names)) == 4
    assert inst.var_names[0] == "_s1"


def test_evaluate_examples(example_instance):
    assert evaluate(example_instance, (5, 3, 1)) == (0, 0)
    assert evaluate(example_instance, (0, 0, 0)) == (0, 0)
    two = IlpInstance(coeffs=((2,),), rhs=(1,), var_names=("x",))
    assert evaluate(two, (1,)) == (1,)


def test_evaluate_rejects_bad_assignments(example_instance):
    with pytest.raises(IlpError, match="3 variables"):
        evaluate(example_instance, (1, 2))
    with pytest.raises(IlpError, match="non-negative"):
        evaluate(example_instance, (-1, 0, 0))
    with pytest.raises(IlpError, match="plain integer"):
        evaluate(example_instance, (1.5, 0, 0))


def test_exactness_with_huge_coefficients():
    big = 10**30
    inst = IlpInstance(coeffs=((big, -1),), rhs=(0,), var_names=("x", "y"))
    assert evaluate(inst, (3, 3 * big)) == (0,)


def test_instance_validation():
    with pytest.raises(IlpError, match="at least one constraint"):
        IlpInstance(coeffs=(), rhs=(), var_names=("x",))
    with pytest.raises(IlpError, match="reserved"):
        IlpInstance(coeffs=((1,),), rhs=(0,), var_names=("b",))
    with pytest.raises(IlpError, match="duplicate"):
        IlpInstance(coeffs=((1, 1),), rhs=(0,), var_names=("x", "x"))
    with pytest.raises(IlpError, match="plain integer"):
        IlpInstance(coeffs=((1.0,),), rhs=(0,), var_names=("x",))


def test_zero_rows_are_permitted():
    inst = IlpInstance(coeffs=((0, 0),), rhs=(0,), var_names=("x", "y"))
    assert evaluate(inst, (4, 7)) == (0,)
    bad = IlpInstance(coeffs=((0, 0),), rhs=(1,), var_names=("x", "y"))
    assert evaluate(bad, (4, 7)) == (-1,)


def test_extended_column_and_sign_accessors(example_instance):
    assert example_instance.coeff(1, 0) == 0  # -b_1
    assert example_instance.coeff(1, 1) == -2
    assert example_instance.column(1) == (-2, 1)
    assert example_instance.max_abs_coeff(1) == 3


def test_solution_type():
    s = Solution((5, 3, 1))
    assert s.max_value == 5
    with pytest.raises(IlpError):
        Solution((-1,))


def test_strip_slack_projects_converted_columns():
    inst = parse_instance("1 x1 + 1 x2 <= 2")
    assert strip_slack(inst, (1, 1, 0)) == (("x1", 1), ("x2", 1))


def _direct_relation_check(rows, rels, rhs, values):
    for row, rel, b in zip(rows, rels, rhs):
        lhs = sum(a * v for a, v in zip(row, values))
        if rel == "=" and lhs != b:
            return False
        if rel == "<=" and not lhs <= b:
            return False
        if rel == ">=" and not lhs >= b:
            return False
    return True


def test_standard_form_preserves_feasibility():
    """Solutions transfer both ways between a system and its slack form."""
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(m)]
        rels = [rng.choice(["=", "<=", ">="]) for _ in range(m)]
        rhs = [rng.randint(-3, 3) for _ in range(m)]
        names = tuple(f"v{i}" for i in range(n))
        std = to_standard_form(
            [Constraint(r, rel, b) for r, rel, b in zip(rows, rels, rhs)], names
        )

        box = 3
        slack_box = max(
            box, max(abs(b) + sum(abs(a) for a in row) * box for row, b in zip(rows, rhs))
        )

        # original -> standard: every directly-verified assignment extends
        # with slack values to a standard-form solution
        import itertools

        direct_feasible = []
        for values in itertools.product(range(box + 1), repeat=n):
            if _direct_relation_check(rows, rels, rhs, values):
                direct_feasible.append(values)
        for values in direct_feasible:
            slacks = []
            for row, rel, b in zip(rows, rels, rhs):
                lhs = sum(a * v for a, v in zip(row, values))
                if rel == "<=":
                    slacks.append(b - lhs)
                elif rel == ">=":
                    slacks.append(lhs - b)
            assert not any(evaluate(std, tuple(values) + tuple(slacks)))

        # standard -> original: user-variable part of any oracle solution
        # satisfies the original relations
        found = enumerate_solutions(std, slack_box)
        for sol in found.solutions:
            user = sol.values[:n]
            if all(v <= box for v in user):
                assert _direct_relation_check(rows, rels, rhs, user)
        assert bool(direct_feasible) == any(
            all(v <= box for v in sol.values[:n]) for sol in found.solutions
        )
