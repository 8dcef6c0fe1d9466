import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import ilpath

SRC = pathlib.Path(ilpath.__file__).resolve().parent.parent
REPO_ROOT = SRC.parent


def test_package_exports_exactly_its_public_names():
    """Every name in `__all__` resolves, and nothing else public does."""
    for name in ilpath.__all__:
        assert hasattr(ilpath, name), name
    public = {
        name
        for name in dir(ilpath)
        if not name.startswith("_") and not inspect.ismodule(getattr(ilpath, name))
    }
    assert public == set(ilpath.__all__) - {"__version__"}
    assert len(ilpath.__all__) == 43


def test_star_import_binds_each_name_of_its_defining_module():
    namespace: dict = {}
    exec("from ilpath import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ilpath.__all__)
    for name in set(ilpath.__all__) - {"__version__"}:
        value = getattr(ilpath, name)
        assert value.__module__.startswith("ilpath."), name
        assert value is getattr(sys.modules[value.__module__], name), name
        assert namespace[name] is value, name


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        ilpath.no_such_name


#: Runs in a fresh interpreter; prints the modules that one step newly loaded.
_COLD_START = """
import contextlib, io, sys

def step(run):
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        run()
    print(" ".join(sorted(set(sys.modules) - before)))

def parser():
    global ilpath
    import ilpath, ilpath.cli
    ilpath.cli.build_parser()

step(parser)
step(lambda: ilpath.cli.main(["check", "instances/example.ilp"]))
"""


def test_a_fresh_process_loads_only_what_its_subcommand_runs():
    run = subprocess.run(
        [sys.executable, "-c", _COLD_START],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    parser_step, check_step = (set(line.split()) for line in run.stdout.splitlines())

    assert {m for m in parser_step if m.startswith("ilpath")} == {
        "ilpath", "ilpath.cli", "ilpath._kernels",
    }
    assert not parser_step & {"dataclasses", "fractions", "csv", "json"}

    assert "ilpath.automaton" in check_step
    assert not check_step & {
        "ilpath.decomposition", "ilpath.solution_graph", "ilpath.oracle", "fractions", "csv",
    }
