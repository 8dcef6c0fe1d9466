"""The three workloads: seeded request sets and the request each one sends.

A workload is a list of cases made from ``--seed`` plus a ``send`` function
that performs one request through the public library functions the
matching CLI subcommand calls.  ``send`` is looked up through the library's
module attributes at call time, so the tracer in ``spans`` sees every call.

Random ILPs have a heavy-tailed cost: in the acceptance-corpus family the
3% slowest draws take 80% of the search time.  Fresh draws per seed would
make every figure depend on which few heavy instances a seed happens to
contain.  So each workload runs a fixed population, and the seed picks how
it is presented: variable order and names, row order and signs, text layout
and request order.  These changes keep the solution set, up to the
renaming, and the reachable state space.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from ilpath import automaton, cli, decomposition, instance, solution_graph

import checks

#: The acceptance corpus: seed and family of ``tests/test_acceptance.py``.
CORPUS_SEED = 20250809
DECIDE_POPULATION = 200
#: ``ilpath verify --random 100 --seed 7``.
VERIFY_SEED = 7
VERIFY_POPULATION = 100
VERIFY_BOX = 10
#: Box of the benchmark's own search that backs an ``infeasible`` verdict.
DECIDE_BOX = 10

UNARY_SEED = 1
UNARY_DRAWS = 97
UNARY_MAX_TOTAL = 2000
#: The worked example with solution (5, 3, 1), scaled.
WORKED_COEFFS = ((-2, 3, 1), (1, -2, 1))
WORKED_SOLUTION = (5, 3, 1)
WORKED_SCALES = (25, 100, 400)

_NAME_PREFIXES = "pqstuvwxyz"  # never "b", which the automaton reserves


def corpus_draw(rng: random.Random, max_vars=4, max_constraints=3, coeff_bound=3, rhs_bound=5):
    """One ``(coeffs, rhs)`` draw of the ``ilpath.corpus.random_instance`` recipe.

    The benchmark owns its copy so that its inputs cannot change under it.
    """
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_constraints)
    coeffs = tuple(
        tuple(rng.randint(-coeff_bound, coeff_bound) for _ in range(n)) for _ in range(m)
    )
    rhs = tuple(rng.randint(-rhs_bound, rhs_bound) for _ in range(m))
    return coeffs, rhs


def present(coeffs, rhs, rng: random.Random):
    """A seeded isomorphic copy of ``A x = b``.

    Permutes the columns and rows and negates some rows.  Returns the new
    ``(coeffs, rhs)`` and the column order: new column ``k`` is old column
    ``order[k]``.
    """
    m, n = len(coeffs), len(coeffs[0])
    order = list(range(n))
    rng.shuffle(order)
    rows = list(range(m))
    rng.shuffle(rows)
    signs = [rng.choice((1, -1)) for _ in rows]
    new_coeffs = tuple(
        tuple(s * coeffs[r][c] for c in order) for r, s in zip(rows, signs)
    )
    new_rhs = tuple(s * rhs[r] for r, s in zip(rows, signs))
    return new_coeffs, new_rhs, order


def names_for(n: int, rng: random.Random) -> tuple[str, ...]:
    prefix = rng.choice(_NAME_PREFIXES)
    return tuple(f"{prefix}{i}" for i in range(1, n + 1))


def ilp_text(coeffs, rhs, names, rng: random.Random) -> str:
    """ILP-v1 text for ``A x = b``; every variable is written in every row,
    zeros included, so the parser sees the variables in ``names`` order."""
    rows = []
    for row, b in zip(coeffs, rhs):
        parts = [f"{row[0]} {names[0]}"]
        for c, name in zip(row[1:], names[1:]):
            if c < 0 and rng.random() < 0.5:
                parts.append(f"- {-c} {name}")
            else:
                parts.append(f"+ {c} {name}")
        rows.append(" ".join(parts) + f" = {b}")
    text = rows[0]
    for line in rows[1:]:
        text += (" ; " if rng.random() < 0.5 else "\n") + line
    return text + "\n"


# --------------------------------------------------------------------------
# decide: parse, then check_feasible, then parikh (ilpath check / solve)


@dataclass(frozen=True)
class DecideCase:
    text: str
    coeffs: tuple
    rhs: tuple
    names: tuple
    box_solutions: int  # solutions of the benchmark's own search in [0, DECIDE_BOX]^n


def make_decide(seed: int) -> list[DecideCase]:
    population = random.Random(CORPUS_SEED)
    draws = [corpus_draw(population) for _ in range(DECIDE_POPULATION)]
    rng = random.Random(seed)
    cases = []
    for coeffs, rhs in draws:
        coeffs, rhs, _order = present(coeffs, rhs, rng)
        names = names_for(len(coeffs[0]), rng)
        cases.append(DecideCase(
            ilp_text(coeffs, rhs, names, rng), coeffs, rhs, names,
            checks.count_box_solutions(coeffs, rhs, DECIDE_BOX),
        ))
    rng.shuffle(cases)
    return cases


def send_decide(case: DecideCase):
    inst = instance.parse_instance(case.text)
    result = automaton.check_feasible(inst)
    vector = None
    if result.witness is not None:
        vector = automaton.parikh(result.witness, inst.var_names)
    return inst, result, vector


def tally_decide(result) -> Counter:
    _inst, feas, _vector = result
    return Counter({f"verdict.{feas.status}": 1, "search_states": feas.states_explored})


# --------------------------------------------------------------------------
# unary: schedule, special form, decomposition and graph (ilpath decompose + graph)


@dataclass(frozen=True)
class UnaryCase:
    inst: instance.IlpInstance
    solution: instance.Solution


def _kernel_vector(coeffs, rng: random.Random):
    """A nonzero x >= 0 with A x = 0 and entries at most 3, or None."""
    found = checks.box_solutions(coeffs, (0,) * len(coeffs), 3)
    nonzero = [x for x in found if any(x)]
    return rng.choice(nonzero) if nonzero else None


def _unary_draw(total: int, homogeneous: bool, rng: random.Random):
    """``(coeffs, x)`` with coefficients in [-3, 3] and sum(x) close to ``total``."""
    while True:
        n = rng.randint(2 if homogeneous else 1, 4)
        m = rng.randint(1, 3)
        coeffs = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m))
        if not homogeneous:
            cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
            x = tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [total]))
            return coeffs, x
        y = _kernel_vector(coeffs, rng)
        if y is not None:
            scale = max(1, round(total / sum(y)))
            return coeffs, tuple(scale * v for v in y)


def make_unary(seed: int) -> list[UnaryCase]:
    """``UNARY_DRAWS`` draws plus the scaled worked example.

    The draw sizes are stratified: draw ``k`` has ``sum(x)`` log-uniform in
    the ``k``-th of ``UNARY_DRAWS`` equal slices of ``[1, UNARY_MAX_TOTAL]``
    on a log scale, so that the sizes, which set the quadratic layers'
    cost, cover the range evenly.  Even draws have ``b = 0``.
    """
    population = random.Random(UNARY_SEED)
    raw = []
    for k in range(UNARY_DRAWS):
        u = (k + population.random()) / UNARY_DRAWS
        total = max(1, round(math.exp(u * math.log(UNARY_MAX_TOTAL))))
        raw.append(_unary_draw(total, k % 2 == 0, population))
    for scale in WORKED_SCALES:
        raw.append((WORKED_COEFFS, tuple(scale * v for v in WORKED_SOLUTION)))
    rng = random.Random(seed)
    cases = []
    for coeffs, x in raw:
        rhs = checks.mat_vec(coeffs, x)
        coeffs, rhs, order = present(coeffs, rhs, rng)
        names = names_for(len(order), rng)
        inst = instance.IlpInstance(coeffs, rhs, names)
        cases.append(UnaryCase(inst, instance.Solution(tuple(x[c] for c in order))))
    rng.shuffle(cases)
    return cases


@dataclass
class UnaryResult:
    special_form: decomposition.SpecialFormGraph
    decomposition: decomposition.PathDecomposition
    valid: bool
    listing: str
    graph: solution_graph.SolutionGraph
    graph_valid: bool
    dot: str


def send_unary(case: UnaryCase) -> UnaryResult:
    inst, sol = case.inst, case.solution
    trace = decomposition.schedule(inst, sol)
    sf = decomposition.build_special_form(inst, sol, trace)
    pd = decomposition.decompose(sf)
    verdict = decomposition.validate_decomposition(sf.graph, pd)
    listing = pd.to_json()
    g = solution_graph.build_graph(inst, sol)
    graph_verdict = solution_graph.validate_graph(inst, g)
    dot = solution_graph.to_dot(g, inst)
    return UnaryResult(sf, pd, verdict.ok, listing, g, graph_verdict.ok, dot)


def tally_unary(result: UnaryResult) -> Counter:
    return Counter({
        "vertices": result.graph.num_vertices,
        "edges": len(result.graph.edges),
        "bags": len(result.decomposition.bags),
    })


# --------------------------------------------------------------------------
# verify: the whole cross-check pipeline (ilpath verify)


@dataclass(frozen=True)
class VerifyCase:
    inst: instance.IlpInstance
    box_solutions: int  # solutions of the benchmark's own search in [0, VERIFY_BOX]^n


def make_verify(seed: int) -> list[VerifyCase]:
    population = random.Random(VERIFY_SEED)
    draws = [corpus_draw(population) for _ in range(VERIFY_POPULATION)]
    rng = random.Random(seed)
    cases = []
    for coeffs, rhs in draws:
        coeffs, rhs, _order = present(coeffs, rhs, rng)
        names = names_for(len(coeffs[0]), rng)
        cases.append(VerifyCase(
            instance.IlpInstance(coeffs, rhs, names),
            checks.count_box_solutions(coeffs, rhs, VERIFY_BOX),
        ))
    rng.shuffle(cases)
    return cases


def send_verify(case: VerifyCase) -> dict:
    return cli.verify_instance(case.inst, box=VERIFY_BOX)


def tally_verify(summary: dict) -> Counter:
    return Counter({
        f"verdict.{summary['automaton_verdict']}": 1,
        f"program.{summary['program_verdict']}": 1,
        "oracle_solutions": summary["oracle_solutions"],
        "breaches": len(summary["breaches"]),
    })


@dataclass(frozen=True)
class Workload:
    make: Callable[[int], list]
    send: Callable
    check: Callable[[object, object], list]
    tally: Callable[[object], Counter]


WORKLOADS = {
    "decide": Workload(make_decide, send_decide, checks.check_decide, tally_decide),
    "unary": Workload(make_unary, send_unary, checks.check_unary, tally_unary),
    "verify": Workload(make_verify, send_verify, checks.check_verify, tally_verify),
}
