"""Which public functions of groupquant no command and no benchmark reaches.

The test runs the CLI invocations of the numpy-only CI job and one tiny pass
of each benchmark workload (perfbench/workloads.py) in this process under
`sys.setprofile`, and collects the public module-level functions and public
methods of groupquant that were never entered. That set must equal
UNREACHED: a new function that nothing runs fails the test, and so does a
listed one that a command starts to reach. Each listed name says why it
stays, and some other test calls it.
"""

import contextlib
import functools
import importlib
import inspect
import io
import pkgutil
import re
import shlex
import sys
from pathlib import Path

import numpy as np

import groupquant
from groupquant import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import worker  # noqa: E402

worker.import_library()

import workloads  # noqa: E402

WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
CLI_STEP = "One small run of each CLI command"

# the CLI_STEP step of the numpy-only CI job, pinned by
# test_cli_runs_are_the_ci_step
CLI_RUNS = [
    ["--cmd", "table1"],
    ["--cmd", "table1", "--t", "8"],
    ["--cmd", "resolution-u1"],
    ["--cmd", "resolution-u1", "--t", "1000"],
    ["--cmd", "moyal-fit"],
    ["--cmd", "sw-props", "--j", "2"],
    ["--cmd", "sw-props", "--j", "12"],
    ["--cmd", "bohr-props"],
]

_GLOBAL = ("global KN/Weyl calculus, run by tests only until the global-su2 "
           "workload runs it with the benchmark's maintenance change "
           "(decided in ROADMAP item 11; the change is item 6)")

UNREACHED = {
    "symbols.identity_symbol": _GLOBAL,
    "symbols.function_symbol": _GLOBAL,
    "symbols.momentum_symbol": _GLOBAL,
    "symbols.weyl_quantize": _GLOBAL,
    "heat.measure_equiv_ratio": "the paper's measure equivalence on T*SU(2) "
                                "as t -> 0; no command reports it",
    "localcalc.local_quantize": "the local calculus's entry point; "
                                "ensemble_order_fit runs its two halves, "
                                "_operators and _assemble",
    "orbits.lower_symbol": "Berezin lower symbol on the orbit; sw-props "
                           "reports the SW and Berezin maps only",
    "bohr.RationalLattice.contains": "membership of a caller's point; the "
                                     "calculus forms its points as indices",
    "bohr.FiniteSupportFn.data": "read-side view {exact point: value}; the "
                                 "calculus works on the index arrays",
    "bohr.BohrSymbol.coeffs": "read-side view {exact frequency: coefficient}; "
                              "the calculus works on the index arrays",
    "bohr.asymptotic_product": "the Newton-series product of equivariant "
                               "symbols; bohr-props checks the exact one",
    "groups.rep_matrix": "one irrep matrix at one element; the dense test "
                         "oracles and perfbench/test_smoke.py call it",
    "groups.quat_identity": "perfbench/test_smoke.py's tracer test calls it",
    "peterweyl.PWSpace.E": "the dense basis, read by perfbench's traced "
                           "basis_mb metric and by the dense test oracles",
}


def _public_functions():
    """{"module.function" or "module.Class.method": code object} over the
    public names that each groupquant module defines."""
    out = {}
    for info in pkgutil.iter_modules(groupquant.__path__):
        module = importlib.import_module("groupquant." + info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(
                    obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out["%s.%s" % (info.name, name)] = obj.__code__
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if isinstance(fn, (staticmethod, classmethod)):
                        fn = fn.__func__
                    elif isinstance(fn, property):
                        fn = fn.fget
                    elif isinstance(fn, functools.cached_property):
                        fn = fn.func
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        out["%s.%s.%s" % (info.name, name, attr)] = (
                            fn.__code__)
    return out


def _entered_code():
    """Code objects entered by the CLI runs and one tiny pass of each
    workload; the previous profile function is restored afterwards."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in CLI_RUNS:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
        for setup, run in workloads.WORKLOADS.values():
            chk = workloads.Checks()
            run(setup("tiny"), np.random.default_rng(0), chk)
            assert not chk.op_errors, chk.op_errors
    finally:
        sys.setprofile(previous)
    return entered


def test_unreached_functions_are_the_listed_ones():
    entered = _entered_code()
    unreached = {name for name, code in _public_functions().items()
                 if code not in entered}
    assert unreached == set(UNREACHED)


def _ci_step_commands(text, step):
    """argv of each `groupquant` line in the run block of the workflow step
    named `step`, read as text: from its `- name:` line to the next one."""
    lines = iter(text.splitlines())
    for line in lines:
        if line.strip() == "- name: " + step:
            break
    else:
        raise AssertionError("no step %r in the workflow" % step)
    out = []
    for line in lines:
        if line.strip().startswith("- name:"):
            break
        words = shlex.split(line)
        if words[:1] == ["groupquant"]:
            out.append(words[1:])
    return out


def test_cli_runs_are_the_ci_step():
    assert _ci_step_commands(WORKFLOW.read_text(), CLI_STEP) == CLI_RUNS


def test_listed_functions_are_tested_elsewhere():
    me = Path(__file__).resolve()
    text = "\n".join(p.read_text() for p in sorted(me.parent.glob("*.py"))
                     if p != me)
    missing = [name for name in UNREACHED if not re.search(
        r"\.%s\b" % name.rsplit(".", 1)[1], text)]
    assert missing == []
