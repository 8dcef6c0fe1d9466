"""Command-line front end.

Exit codes: 0 feasible (or all checks passed), 1 infeasible (or a check
failed), 2 usage or parse error, 3 inconclusive (a search budget ran out).
Every subcommand builds one report; `--json` prints it as JSON instead of
the human rendering, and both carry exactly the same values.

Each subcommand imports the library modules it runs when it starts, so a
process loads only what its subcommand needs; the parser reads its
defaults from `_kernels` alone.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING

from ilpath import __version__, _kernels

if TYPE_CHECKING:
    from ilpath.instance import IlpInstance, Solution

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_STATUS_EXIT = {
    _kernels.FEASIBLE: EXIT_FEASIBLE,
    _kernels.INFEASIBLE: EXIT_INFEASIBLE,
    _kernels.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    _kernels.INFEASIBLE_WITHIN_BOX: EXIT_INFEASIBLE,
    _kernels.BUDGET_EXCEEDED: EXIT_INCONCLUSIVE,
}


class _Report:
    """Accumulates one run's results; renders as text or JSON."""

    def __init__(self, subcommand: str, as_json: bool = False):
        self.data = {"subcommand": subcommand, "timings": {}, "outputs": []}
        self.as_json = as_json
        self.artifact_on_stdout = False
        self._t0 = time.perf_counter()

    def set(self, **kwargs):
        self.data.update(kwargs)

    def instance_summary(self, inst: IlpInstance):
        lo_a, hi_a, lo_b, hi_b = inst.coefficient_range()
        self.data["instance"] = {
            "num_vars": inst.num_vars,
            "num_constraints": inst.num_constraints,
            "coeff_range": [lo_a, hi_a],
            "rhs_range": [lo_b, hi_b],
            "slack_vars": sum(inst.slack_mask),
            "var_names": list(inst.var_names),
        }

    def timing(self, name: str, seconds: float):
        self.data["timings"][name] = round(seconds, 6)

    def output_file(self, path: str):
        self.data["outputs"].append(path)

    def finish(self, exit_code: int) -> int:
        self.data["exit_code"] = exit_code
        self.timing("total", time.perf_counter() - self._t0)
        if self.as_json:
            import json

            print(json.dumps(self.data, indent=2))
        else:
            # keep stdout clean for piping whenever an artifact went there
            stream = sys.stderr if self.artifact_on_stdout else sys.stdout
            self._render(self.data, "", stream=stream)
        return exit_code

    def _render(self, value, indent: str, key: str | None = None, stream=sys.stdout):
        label = f"{indent}{key}: " if key is not None else indent
        if isinstance(value, dict):
            if key is not None:
                print(f"{indent}{key}:", file=stream)
            for k, v in value.items():
                self._render(v, indent + ("  " if key is not None else ""), k, stream)
        elif isinstance(value, list) and value and (
            isinstance(value[0], (dict, list))
            # multi-word strings joined by spaces would run together
            or any(isinstance(v, str) and any(map(str.isspace, v)) for v in value)
        ):
            print(f"{indent}{key}:", file=stream)
            for v in value:
                self._render(v, indent + "  ", stream=stream)
        else:
            if isinstance(value, list):
                value = " ".join(str(v) for v in value)
            print(f"{label}{value}", file=stream)


def _load_instance(path: str) -> IlpInstance:
    from ilpath.instance import parse_instance

    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


def _parse_solution(text: str, inst: IlpInstance) -> Solution:
    from ilpath.instance import IlpError, Solution, evaluate

    parts = [p for chunk in text.split(",") for p in chunk.split()]
    try:
        values = tuple(int(p) for p in parts)
    except ValueError:
        raise IlpError(f"solution must be a list of integers, got {text!r}")
    if len(values) != inst.num_vars:
        raise IlpError(
            f"solution has {len(values)} entries, instance has {inst.num_vars} variables"
        )
    sol = Solution(values)
    residual = evaluate(inst, sol)
    if any(residual):
        raise IlpError(f"assignment is not a solution (residual {residual})")
    return sol


def _write_or_print(text: str, path: str | None, report: _Report, key: str):
    """Send an artifact to a file, or stdout, or (in JSON mode) into the
    report under ``key`` so that stdout stays parseable."""
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        report.output_file(path)
    elif report.as_json:
        report.set(**{key: text})
    else:
        report.artifact_on_stdout = True
        print(text, end="")


def _non_negative_int(text: str) -> int:
    """argparse type for counts and budgets: a plain integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ilpath",
        description="Decide ILP feasibility and materialize solution graphs, "
        "path decompositions, counter automata and guarded-command programs.",
    )
    parser.add_argument("--version", action="version", version=f"ilpath {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("file", help="ILP-v1 instance file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    def add_search_opts(p):
        p.add_argument(
            "--max-states", type=_non_negative_int,
            default=_kernels.DEFAULT_MAX_STATES,
            help="state budget for the search (default %(default)s)",
        )

    p = sub.add_parser("check", help="decide feasibility via state reachability")
    add_common(p)
    add_search_opts(p)

    p = sub.add_parser("solve", help="like check, but report a witness assignment")
    add_common(p)
    add_search_opts(p)

    p = sub.add_parser("graph", help="emit the DOT solution graph for an assignment")
    add_common(p)
    p.add_argument("--solution", required=True, help="comma-separated values")
    p.add_argument("-o", "--output", help="write DOT here instead of stdout")

    p = sub.add_parser("decompose", help="bags, width and counter trace for an assignment")
    add_common(p)
    p.add_argument("--solution", required=True, help="comma-separated values")
    p.add_argument("--format", choices=("json", "text"), default="json",
                   help="bag listing format (default %(default)s)")
    p.add_argument("-o", "--output", help="write the bag listing here instead of stdout")

    p = sub.add_parser("automaton", help="export the explicit reachable state graph")
    add_common(p)
    p.add_argument(
        "--max-states", type=_non_negative_int, default=_kernels.DEFAULT_EXPORT_STATES,
        help="refuse to export more states than this (default %(default)s)",
    )
    p.add_argument("--format", choices=("dot", "text"), default="dot")
    p.add_argument("-o", "--output", help="write the export here instead of stdout")

    p = sub.add_parser("emit-bp", help="print the BP-v1 guarded-command program")
    add_common(p)
    p.add_argument("-o", "--output", help="write the program here instead of stdout")

    p = sub.add_parser("oracle", help="brute-force solutions inside a box")
    add_common(p)
    p.add_argument("--box", type=_non_negative_int, default=_kernels.DEFAULT_BOX,
                   help="per-variable upper bound (default %(default)s)")
    p.add_argument("--max-nodes", type=_non_negative_int,
                   default=_kernels.DEFAULT_MAX_NODES)
    p.add_argument("--csv", help="write all solutions found to this CSV file")

    p = sub.add_parser(
        "verify",
        help="cross-check oracle, graphs, decompositions, words and programs",
    )
    p.add_argument("file", nargs="?", help="ILP-v1 instance file")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--box", type=_non_negative_int, default=_kernels.DEFAULT_BOX)
    p.add_argument("--random", type=_non_negative_int, metavar="N", default=0,
                   help="also verify N random small instances")
    p.add_argument("--seed", type=int, default=0, help="seed for --random")
    p.add_argument("--max-states", type=_non_negative_int,
                   default=_kernels.DEFAULT_MAX_STATES)

    return parser


def _cmd_check(args, report: _Report, want_solution: bool) -> int:
    from ilpath import automaton
    from ilpath.instance import strip_slack

    inst = _load_instance(args.file)
    report.instance_summary(inst)
    t0 = time.perf_counter()
    result = automaton.check_feasible(inst, max_states=args.max_states)
    report.timing("search", time.perf_counter() - t0)
    report.set(
        verdict=result.status,
        states_explored=result.states_explored,
        residue_bounds=list(result.bounds),
        bound_rule=automaton.BOUND_RULE,
        bound_d=result.d,
        backend=_kernels.backend_name(),
    )
    if result.witness is not None:
        report.set(witness=list(result.witness))
        values = automaton.parikh(result.witness, inst.var_names)
        report.set(witness_parikh=list(values))
        if want_solution:
            report.set(solution={name: v for name, v in strip_slack(inst, values)})
    return _STATUS_EXIT[result.status]


def _cmd_graph(args, report: _Report) -> int:
    from ilpath.solution_graph import build_graph, to_dot, validate_graph

    inst = _load_instance(args.file)
    report.instance_summary(inst)
    sol = _parse_solution(args.solution, inst)
    g = build_graph(inst, sol)
    verdict = validate_graph(inst, g)
    report.set(
        vertices=g.num_vertices,
        edges=len(g.edges),
        validated=verdict.ok,
    )
    _write_or_print(to_dot(g, inst), args.output, report, "dot")
    return EXIT_FEASIBLE


def _cmd_decompose(args, report: _Report) -> int:
    from ilpath import decomposition

    inst = _load_instance(args.file)
    report.instance_summary(inst)
    sol = _parse_solution(args.solution, inst)
    trace = decomposition.schedule(inst, sol)
    sf = decomposition.build_special_form(inst, sol, trace)
    pd = decomposition.decompose(sf)
    verdict = decomposition.validate_decomposition(sf.graph, pd)
    report.set(
        width=pd.width,
        bags=[sorted(b) for b in pd.bags],
        valid=verdict.ok,
        width_bound=2 * inst.num_vars - (0 if any(inst.rhs) else 1),
        trace={
            "s_l": trace.s_l,
            "steps": [
                "reduce" if s == decomposition.REDUCE else inst.var_names[s - 1]
                for s in trace.steps
            ],
            "c_after_reduce": [list(c) for c in trace.c_after_reduce],
            "r_after_reduce": [list(r) for r in trace.r_after_reduce],
        },
    )
    listing = pd.to_json() if args.format == "json" else pd.to_text()
    _write_or_print(listing, args.output, report, "bag_listing")
    return EXIT_FEASIBLE if verdict.ok else EXIT_INFEASIBLE


def _cmd_automaton(args, report: _Report) -> int:
    from ilpath import automaton

    inst = _load_instance(args.file)
    report.instance_summary(inst)
    try:
        ag = automaton.export_automaton(inst, max_states=args.max_states)
    except automaton.StateLimitExceeded as exc:
        report.set(error=str(exc))
        return EXIT_INCONCLUSIVE
    report.set(states=len(ag.states), transitions=len(ag.transitions),
               finals=list(ag.finals))
    text = (
        automaton.automaton_to_dot(ag)
        if args.format == "dot"
        else automaton.automaton_to_text(ag)
    )
    _write_or_print(text, args.output, report, "export")
    return EXIT_FEASIBLE


def _cmd_emit_bp(args, report: _Report) -> int:
    from ilpath import automaton

    inst = _load_instance(args.file)
    report.instance_summary(inst)
    text = automaton.emit_boolean_program(inst)
    report.set(bytes=len(text.encode()))
    _write_or_print(text, args.output, report, "program")
    return EXIT_FEASIBLE


def _cmd_oracle(args, report: _Report) -> int:
    from ilpath import oracle

    inst = _load_instance(args.file)
    report.instance_summary(inst)
    t0 = time.perf_counter()
    sset = oracle.enumerate_solutions(inst, args.box, args.max_nodes)
    report.timing("enumeration", time.perf_counter() - t0)
    if sset.solutions:
        status = oracle.FEASIBLE
    elif sset.complete:
        status = oracle.INFEASIBLE_WITHIN_BOX
    else:
        status = oracle.BUDGET_EXCEEDED
    report.set(
        verdict=status,
        box=args.box,
        solutions_found=len(sset.solutions),
        complete=sset.complete,
        nodes_explored=sset.nodes_explored,
        backend=_kernels.backend_name(),
    )
    if sset.solutions:
        report.set(first_solution=list(sset.solutions[0].values))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(oracle.solutions_to_csv(sset))
        report.output_file(args.csv)
    return _STATUS_EXIT[status]


def verify_instance(
    inst: IlpInstance,
    box: int,
    *,
    max_states: int = _kernels.DEFAULT_MAX_STATES,
) -> dict:
    """Full cross-check pipeline for one instance.

    Enumerates the oracle solutions inside the box and pushes each one
    through graph construction, validation, decomposition, width and
    occupancy checks, and the schedule-to-word round trip; then compares
    the `check_feasible` verdict (Steinitz bounds) against the oracle and
    the reachability of the emitted program (paper residue bounds) against
    that verdict.  Returns a summary dict with a ``breaches`` list (empty
    when everything agrees), the states each search discovered
    (``automaton_states``, ``program_states``) and the engine that decided
    the program's reachability (``program_engine``: ``sparse`` or
    ``dense``).  ``unchecked`` names each cross-check that a budget
    skipped: ``oracle box`` when the enumeration stopped before covering
    the box, ``witness`` and ``bound finding`` when `check_feasible` ended
    inconclusive, and ``program agreement`` when either search did.
    """
    from ilpath import automaton, decomposition, oracle
    from ilpath.instance import IlpError, evaluate
    from ilpath.solution_graph import build_graph, sol_of, validate_graph

    breaches: list[str] = []
    unchecked: list[str] = []
    summary: dict = {"breaches": breaches}

    sset = oracle.enumerate_solutions(inst, box)
    summary["oracle_solutions"] = len(sset.solutions)
    summary["oracle_complete"] = sset.complete
    if not sset.complete:
        unchecked.append("oracle box")

    feas = automaton.check_feasible(inst, max_states=max_states)
    summary["automaton_verdict"] = feas.status
    summary["automaton_states"] = feas.states_explored
    if feas.status == automaton.INCONCLUSIVE:
        unchecked += ["witness", "bound finding"]
    if feas.status == automaton.FEASIBLE:
        values = automaton.parikh(feas.witness, inst.var_names)
        if any(evaluate(inst, values)):
            breaches.append("witness word does not spell a solution")
    if sset.solutions and feas.status == automaton.INFEASIBLE:
        breaches.append(
            "bound finding: oracle found a solution but the search reports "
            f"infeasible on the Steinitz bounds {list(feas.bounds)} (d = {feas.d})"
        )

    for sol in sset.solutions:
        tag = f"solution {sol.values}"
        g = build_graph(inst, sol)
        verdict = validate_graph(inst, g)
        if not verdict:
            breaches.append(f"{tag}: graph validation failed ({verdict.message})")
            continue
        if sol_of(g).values != sol.values:
            breaches.append(f"{tag}: graph does not round-trip")
        trace = decomposition.schedule(inst, sol)
        for breach in decomposition.check_schedule_invariants(inst, sol, trace):
            breaches.append(f"{tag}: {breach}")
        sf = decomposition.build_special_form(inst, sol, trace)
        pd = decomposition.decompose(sf)
        dverdict = decomposition.validate_decomposition(sf.graph, pd)
        if not dverdict:
            breaches.append(f"{tag}: decomposition invalid ({dverdict.violation})")
        bound = 2 * inst.num_vars - (0 if any(inst.rhs) else 1)
        if dverdict.width > bound:
            breaches.append(f"{tag}: width {dverdict.width} exceeds bound {bound}")
        if decomposition.max_label_occupancy(sf.graph, pd) > 2:
            breaches.append(f"{tag}: more than 2 same-label vertices in a bag")
        try:
            word = automaton.schedule_to_word(inst, trace)
        except IlpError as exc:
            breaches.append(f"{tag}: bound finding: {exc}")
        else:
            if automaton.parikh(word, inst.var_names) != sol.values:
                breaches.append(f"{tag}: schedule word has the wrong letter counts")

    bp = automaton.interpret_boolean_program(
        automaton.emit_boolean_program(inst), max_states
    )
    summary["program_verdict"] = bp.status
    summary["program_states"] = bp.states_explored
    summary["program_engine"] = bp.engine
    agree = (bp.status == automaton.REACHABLE) == (feas.status == automaton.FEASIBLE)
    if feas.status != automaton.INCONCLUSIVE and bp.status != automaton.INCONCLUSIVE:
        if not agree:
            breaches.append(
                f"program reachability ({bp.status}) on the paper residue bounds "
                f"disagrees with the Steinitz-bound search ({feas.status})"
            )
    else:
        unchecked.append("program agreement")
    summary["unchecked"] = unchecked
    return summary


def _cmd_verify(args, report: _Report) -> int:
    import random

    from ilpath import corpus
    from ilpath.instance import IlpError

    if not args.file and not args.random:
        raise IlpError("verify needs an instance file, --random N, or both")
    runs = []
    if args.file:
        inst = _load_instance(args.file)
        report.instance_summary(inst)
        runs.append((args.file, inst))
    rng = random.Random(args.seed)
    for k in range(args.random):
        runs.append((f"random[{k}]", corpus.random_instance(rng)))

    total_breaches = 0
    results = []
    for name, inst in runs:
        summary = verify_instance(inst, args.box, max_states=args.max_states)
        summary["name"] = name
        total_breaches += len(summary["breaches"])
        results.append(summary)
    report.set(
        instances_checked=len(runs),
        total_breaches=total_breaches,
        box=args.box,
        results=results,
        backend=_kernels.backend_name(),
    )
    return EXIT_FEASIBLE if total_breaches == 0 else EXIT_INFEASIBLE


_COMMANDS = {
    "check": lambda args, report: _cmd_check(args, report, want_solution=False),
    "solve": lambda args, report: _cmd_check(args, report, want_solution=True),
    "graph": _cmd_graph,
    "decompose": _cmd_decompose,
    "automaton": _cmd_automaton,
    "emit-bp": _cmd_emit_bp,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    report = _Report(args.subcommand, as_json=args.json)
    from ilpath.instance import IlpError

    try:
        code = _COMMANDS[args.subcommand](args, report)
    except (IlpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return report.finish(code)


if __name__ == "__main__":
    sys.exit(main())
