"""Command-line front end: exit codes, formats, determinism."""

import argparse
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from groupquant import cli
from groupquant.cli import main


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "groupquant.cli"] + args,
                          capture_output=True, text=True)


def test_table1_single_cell(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["--cmd", "table1", "--t", "2", "--n", "3",
               "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "t,n,I,expected,rel_err"
    assert len(rows) == 2
    t, n, val, expected, rel = rows[1].split(",")
    assert abs(float(val) - 3.0) < 1e-6
    assert float(rel) < 2e-3


def test_table1_full_grid(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["--cmd", "table1", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 26  # header + 25 cells
    assert all(float(r.split(",")[4]) < 2e-3 for r in rows[1:])


# I(t, n) of the default table1 grid, one row per t in (1, 2, e, pi, 4) and
# one column per n = 1..5, as the panel-by-panel quadrature computed them
# before the nodes of a refinement level were evaluated in one pass
TABLE1_ADAPTIVE = [
    [0.12500000000000003, 0.25, 0.3749999999999999, 0.5, 0.625],
    [1.0000000000000004, 2.0000000000000004, 3.0, 4.000000000000001,
     4.999999999999999],
    [2.510692115421454, 5.021384230813516, 7.532076346205093,
     10.042768461600703, 12.55346057699768],
    [3.875784586481858, 7.751569171020538, 11.627353755663947,
     15.503138340544314, 19.378922925497417],
    [8.000000454818398, 16.000000254629136, 24.00000015062656,
     32.000000109289886, 40.00000008629604],
]


def test_table1_pinned_values(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["--cmd", "table1", "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
    ts = [1.0, 2.0, math.e, math.pi, 4.0]
    assert [(float(r[0]), int(r[1])) for r in rows] == [
        (t, n) for t in ts for n in range(1, 6)]
    refs = [v for row in TABLE1_ADAPTIVE for v in row]
    for r, ref in zip(rows, refs, strict=True):
        assert abs(float(r[2]) - ref) <= 1e-12 * ref


def test_table1_forced_failure(tmp_path, capsys):
    # t = 4, n = 1 deviates from t^3 n / 8 by 5.7e-8 relative
    out = tmp_path / "t.csv"
    rc = main(["--cmd", "table1", "--tol", "1e-9", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "FAIL" in err and "rel_err" in err


def test_table1_has_no_fixed_panel_option(capsys):
    # --quad-degree ran I(t, n) on fixed panels with no convergence check
    with pytest.raises(SystemExit) as exc:
        main(["--cmd", "table1", "--quad-degree", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --quad-degree" in capsys.readouterr().err


def test_table1_rejects_large_t(tmp_path, capsys):
    # above the denominator's checked range: no CSV, not a row of inf
    out = tmp_path / "t.csv"
    rc = main(["--cmd", "table1", "--t", "1000", "--n", "5", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert capsys.readouterr().err.count("\n") == 1


def test_table1_rejection_is_one_line():
    proc = run_cli(["--cmd", "table1", "--t", "1000", "--n", "5"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr and "t <= 16" in proc.stderr


def test_table1_rejects_nan_t(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["--cmd", "table1", "--t", "nan", "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "needs a finite t > 0" in err


@pytest.mark.parametrize("t", ["-1", "0", "nan", "inf", "5000"])
def test_resolution_u1_rejects_bad_t(t, tmp_path, capsys):
    # t <= 0, t not finite, and t where theta3 underflows (above about
    # 2980): no JSON and a one-line message, exit status 2
    out = tmp_path / "r.json"
    rc = main(["--cmd", "resolution-u1", "--t", t, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert capsys.readouterr().err.count("\n") == 1


def test_resolution_u1_rejection_is_one_line():
    proc = run_cli(["--cmd", "resolution-u1", "--t", "nan"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr and "finite t > 0" in proc.stderr


def test_resolution_u1(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["--cmd", "resolution-u1", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["passed"]
    assert [r["t"] for r in rep["results"]] == [0.5, 1.0, 2.0]
    assert all(r["rel_err"] < 1e-4 for r in rep["results"])
    assert rep["seed"] == 0 and rep["tolerance"] == 1e-4


def test_sw_props_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["--cmd", "sw-props", "--j", "1.5", "--seed", "7",
                 "--out", str(out1)]) == 0
    assert main(["--cmd", "sw-props", "--j", "1.5", "--seed", "7",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rep = json.loads(out1.read_text())
    assert rep["passed"] and rep["seed"] == 7
    assert all(v < 1e-9 for k, v in rep["results"].items()
               if k != "k_rate_slope")


def test_report_writes_numpy_scalars_as_python_values(tmp_path):
    # json writes a float64 as a float; np.bool_ and np.int64 go through
    # .item(): the bytes are those of the same report in Python values
    def report(f, b, i):
        return {"x": f, "nested": {"flag": b, "list": [i, f, {"k": b}]},
                "pair": (f, i)}

    args = argparse.Namespace(cmd="bohr-props", seed=3, out=None)
    paths = []
    for name, (f, b, i) in (
            ("py", (0.1 + 0.2, False, 7)),
            ("np", (np.float64(0.1) + np.float64(0.2), np.bool_(False),
                    np.int64(7)))):
        args.out = str(tmp_path / name)
        assert cli._report(args, np.float64(1e-13), report(f, b, i), b,
                           j=f) == 1
        paths.append(tmp_path / name)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    rep = json.loads(paths[1].read_text())
    assert rep["results"]["nested"]["list"] == [7, 0.30000000000000004,
                                                {"k": False}]
    assert rep["j"] == 0.1 + 0.2 and rep["passed"] is False


@pytest.mark.parametrize("argv", [
    ["--cmd", "table1", "--t", "2", "--n", "3"],
    ["--cmd", "resolution-u1", "--t", "1.0"],
    ["--cmd", "moyal-fit", "--eps-list", "0.25,0.125"],
    ["--cmd", "sw-props", "--j", "1"],
    ["--cmd", "bohr-props"]], ids=lambda argv: argv[1])
def test_commands_are_deterministic(tmp_path, argv):
    # the same arguments and seed write the same bytes; a fresh process,
    # with its own hash seed, is checked in CI
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        main(argv + ["--seed", "4", "--out", str(out)])
    assert outs[0].read_bytes() == outs[1].read_bytes()


def _sw_props_errors(tmp_path, j):
    out = tmp_path / "a.json"
    assert main(["--cmd", "sw-props", "--j", j, "--seed", "0",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    return {k: v for k, v in rep["results"].items() if k != "k_rate_slope"}


def test_sw_props_large_spin(tmp_path):
    # 2j = 24: Delta by harmonic transform missed 1e-9 here (1.6e-6)
    assert all(v < 1e-9 for v in _sw_props_errors(tmp_path, "12").values())


@pytest.mark.parametrize("j", ["16", "24", "32", "64"])
def test_sw_props_larger_spin(tmp_path, j):
    # 2j = 32, 48: spins where float Racah sums lost digits; 2j = 64:
    # comparing Q^SW with Q^B(S^{1/2} f) amplified the rounding of the
    # harmonic analysis by up to 2^{2j} (3.9e-11 here); 2j = 128, the largest
    # accepted
    errors = _sw_props_errors(tmp_path, j)
    assert all(v < 1e-9 for v in errors.values())
    assert errors["berezin_relation"] < 1e-12


@pytest.mark.parametrize("j", ["0.3", "-1", "-0.5", "nan", "inf", "64.5",
                               "65"])
def test_sw_props_rejects_invalid_spin(j, capsys):
    # 0.3 used to run as j = 0.5 and -1 to fail inside matmul; above
    # j = 64 no spin is checked
    with pytest.raises(SystemExit) as exc:
        main(["--cmd", "sw-props", "--j", j])
    assert exc.value.code == 2
    assert "multiple of 1/2" in capsys.readouterr().err


def test_moyal_fit_pinned(tmp_path):
    out = tmp_path / "m.json"
    assert main(["--cmd", "moyal-fit", "--eps-list", "0.25,0.125,0.0625",
                 "--seed", "0", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] and rep["eps_list"] == [0.25, 0.125, 0.0625]
    # seed-0 slopes of the per-eps route that quantized each symbol afresh
    pinned = {"U1": (2.0435276294154554, 1.1526236337173381),
              "SU2": (2.0127013051425156, 0.9996316393394042)}
    for group, (moyal, dirac) in pinned.items():
        res = rep["results"][group]
        assert abs(res["moyal_slope"] - moyal) < 1e-9
        assert abs(res["dirac_slope"] - dirac) < 1e-9


@pytest.mark.parametrize("eps_list", ["0.25", "0.25,0.25", "2,1",
                                      "0.25,-0.125", "0.25,nan", "0.25,inf",
                                      "0.25,x"])
def test_moyal_fit_rejects_degenerate_eps_list(eps_list, capsys):
    # one distinct eps used to fit a slope through one point (a numpy
    # RankWarning and a made-up slope); eps outside (0, 1] ended in a
    # traceback after every operator was built
    with pytest.raises(SystemExit) as exc:
        main(["--cmd", "moyal-fit", "--eps-list", eps_list])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage: groupquant" in err and "--eps-list" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("eps_list", [[0.25], [0.25, 0.25], [2.0, 1.0],
                                      [0.25, -0.125], [0.25, math.nan]])
def test_order_fit_rejects_degenerate_eps_list_first(eps_list, monkeypatch):
    from groupquant import localcalc as L

    def no_work(*args):
        raise AssertionError("operators built before the eps check")

    monkeypatch.setattr(L, "_operators", no_work)
    monkeypatch.setattr(L, "symbol_product", no_work)
    with pytest.raises(ValueError, match="two distinct eps"):
        L.ensemble_order_fit([(None, None)], eps_list, None, 4, None)
    with pytest.raises(ValueError, match="two distinct eps"):
        L.fit_slope(eps_list, [1.0] * len(eps_list))


def test_bohr_props(tmp_path):
    out = tmp_path / "b.json"
    assert main(["--cmd", "bohr-props", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"]
    assert rep["results"]["twisted_vs_composition"] < 1e-13


# bohr-props of the Fraction-keyed implementation that preceded the lattice
# indices, seeds 0-9: (twisted_vs_composition, adjoint_pairing,
# young_inequality_slack); newton_exactness read 0.0 for each
BOHR_PROPS_PINNED = [
    (9.155133597044475e-16, 0.0, 3.5835639391984224),
    (1.2560739669470201e-15, 0.0, 1.892889084590614),
    (1.831026719408895e-15, 0.0, 1.7747976471034153),
    (3.3766115072321297e-16, 0.0, 2.3947307977710026),
    (4.441434166503682e-16, 0.0, 1.0893481468830126),
    (2.7755575615628914e-16, 0.0, 2.863951870795708),
    (3.1401849173675503e-16, 0.0, 3.1299966371579653),
    (2.482534153247273e-16, 0.0, 3.112084862712094),
    (8.881784197001252e-16, 0.0, 2.7244324931027366),
    (4.577566798522237e-16, 0.0, 2.415881400642542),
]


@pytest.mark.parametrize("seed", range(10))
def test_bohr_props_pinned(tmp_path, seed):
    # the exact quantities stay byte-identical; the two residuals stay
    # below tolerance and within 1e-15 of the earlier route's
    out = tmp_path / "b.json"
    assert main(["--cmd", "bohr-props", "--seed", str(seed),
                 "--out", str(out)]) == 0
    res = json.loads(out.read_text())["results"]
    twisted, adjoint, slack = BOHR_PROPS_PINNED[seed]
    assert res["newton_exactness"] == 0.0
    assert res["young_inequality_slack"] == slack
    for key, ref in (("twisted_vs_composition", twisted),
                     ("adjoint_pairing", adjoint)):
        assert res[key] < 1e-13 and abs(res[key] - ref) <= 1e-15


@pytest.mark.parametrize("cmd", sorted(cli.COMMANDS))
@pytest.mark.parametrize("arg", [("--seed", "-1"), ("--tol", "nan"),
                                 ("--tol", "inf"), ("--tol", "0"),
                                 ("--tol", "-1")])
def test_commands_refuse_negative_seed_and_bad_tol(cmd, arg, capsys):
    # --seed -1 ended in a traceback in moyal-fit, sw-props and bohr-props;
    # table1 --tol nan passed a gate that could not fail, and the JSON
    # commands wrote "tolerance": NaN, which is not JSON
    with pytest.raises(SystemExit) as exc:
        main(["--cmd", cmd, *arg])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage: groupquant" in err and arg[0] in err
    assert "Traceback" not in err


def _refuse_constant(name):
    raise ValueError("%s is not JSON" % name)


@pytest.mark.parametrize("cmd", ["resolution-u1", "moyal-fit", "sw-props",
                                 "bohr-props"])
def test_default_reports_are_strict_json(cmd, tmp_path):
    out = tmp_path / "report.json"
    main(["--cmd", cmd, "--out", str(out)])
    rep = json.loads(out.read_text(), parse_constant=_refuse_constant)
    assert rep["command"] == cmd


def test_unknown_command():
    with pytest.raises(SystemExit):
        main(["--cmd", "nonsense"])


def test_module_entry_point():
    res = run_cli(["--cmd", "resolution-u1", "--t", "1.0"])
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["passed"]
