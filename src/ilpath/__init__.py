"""ILP feasibility through unary solution graphs, width-bounded path
decompositions and bounded-counter automata, cross-validated by a
brute-force oracle.

The public names below load on first use: ``import ilpath`` imports no
submodule, and ``ilpath.check_feasible`` imports ``ilpath.automaton`` (and
what it needs) the first time it is read.  A name is looked up in its
defining module on every read and never stored here, so ``ilpath.X`` is
always ``ilpath.<module>.X``, also while something rebinds the latter.
"""

import importlib

__version__ = "0.1.0"

#: Defining module of each public name, in ``__all__`` order.
_EXPORTS = {
    "instance": (
        "Constraint",
        "IlpError",
        "IlpInstance",
        "ParseError",
        "Solution",
        "evaluate",
        "parse_instance",
        "strip_slack",
        "to_standard_form",
    ),
    "solution_graph": (
        "GraphVerdict",
        "SolutionGraph",
        "build_graph",
        "from_dot",
        "sol_of",
        "to_dot",
        "validate_graph",
    ),
    "decomposition": (
        "PathDecomposition",
        "ScheduleTrace",
        "SpecialFormGraph",
        "build_special_form",
        "check_schedule_invariants",
        "decompose",
        "max_label_occupancy",
        "schedule",
        "validate_decomposition",
    ),
    "automaton": (
        "AutomatonGraph",
        "CounterAutomaton",
        "FeasibilityResult",
        "StateLimitExceeded",
        "check_feasible",
        "emit_boolean_program",
        "export_automaton",
        "interpret_boolean_program",
        "parikh",
        "parse_boolean_program",
        "residue_bounds",
        "schedule_to_word",
        "steinitz_bounds",
    ),
    "oracle": (
        "SolutionSet",
        "enumerate_solutions",
        "solutions_to_csv",
    ),
    "_kernels": ("backend_name",),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module 'ilpath' has no attribute {name!r}")
    return getattr(importlib.import_module(f"ilpath.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
