"""Fast smoke test of the benchmark itself, at the tiny workload sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

worker.import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402
from groupquant import _kernels, groups, heat, localcalc, orbits  # noqa: E402
from groupquant.peterweyl import PWSpace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *argv):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_present_with_its_unit(name, trace):
    out = _run(ROOT, "--workload", name, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def _tiny_pass(name, seed):
    setup, run = workloads.WORKLOADS[name]
    chk = workloads.Checks()
    run(setup("tiny"), np.random.default_rng(seed), chk)
    return chk


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_residuals(name):
    a, b = _tiny_pass(name, 11), _tiny_pass(name, 11)
    assert a.results and a.results == b.results


def _scaled(fn, factor):
    return lambda *args, **kwargs: fn(*args, **kwargs) * factor


# one library result per workload, made wrong by a small relative error
WRONG = {
    "local-moyal": (localcalc, "fit_slope", 1.5),
    "global-su2": (PWSpace, "analysis", 1 + 1e-6),
    "sw-orbit": (orbits, "sw_quantize", 1 + 1e-6),
    "heat-table": (heat, "itn_denominator", 1.01),
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_wrong_result_raises_fail_frac(name, monkeypatch):
    clean = _tiny_pass(name, 3)
    owner, attr, factor = WRONG[name]
    monkeypatch.setattr(owner, attr, _scaled(getattr(owner, attr), factor))
    broken = _tiny_pass(name, 3)
    assert broken.fail_frac() > clean.fail_frac()
    assert broken.unexpected()


def test_tracer_follows_every_binding_and_restores_it():
    original = groups.wigner_D_euler_grid
    q = groups.quat_identity()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # groups bound wigner_D_euler_grid by name at import time
        assert groups.wigner_D_euler_grid is not original
        groups.rep_matrix(groups.SU2, 3, q)
    finally:
        tracer.uninstall()
    assert groups.wigner_D_euler_grid is original
    assert _kernels.wigner_d_grid.__module__ == "groupquant._kernels"
    names = [tracer.names[i] for i in tracer.span_name]
    assert names == ["groups.rep_matrix", "groups.quat_to_euler",
                     "wigner.wigner_D_euler_grid", "_kernels.wigner_d_grid"]
    assert list(tracer.span_parent) == [-1, 0, 0, 2]
    totals = tracer.totals()
    assert totals["wigner.d_entries"] == 9 and totals["wigner.max_2j"] == 2
    assert totals["groups.calls"] == 2
    span_s = tracer.span_end[0] - tracer.span_start[0]
    self_s = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    assert self_s == pytest.approx(span_s)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "heat-table", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
