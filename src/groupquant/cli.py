"""Command-line front end: table reproduction and property suites.

Commands (via --cmd):
  table1          I(t, n) over t in {1, 2, e, pi, 4}, n in 1..5 (CSV)
  resolution-u1   phase-space resolution constant C_t^{-1} = t (JSON)
  moyal-fit       semiclassical slope fits on U(1) and SU(2) (JSON)
  sw-props        Stratonovich-Weyl property suite at spin j (JSON)
  bohr-props      Bohr-lattice calculus property suite (JSON)

Every JSON report records the seed and the tolerance each number was
tested against; floats are emitted with 17 significant digits so runs are
byte-identical given (config, seed).
"""

import argparse
import json
import math
import sys

import numpy as np


def _dump(obj):
    def walk(v):
        if isinstance(v, dict):
            return {k: walk(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [walk(x) for x in v]
        if isinstance(v, (np.floating, float)):
            return float("%.17g" % float(v))
        if isinstance(v, (np.integer,)):
            return int(v)
        if isinstance(v, (np.bool_,)):
            return bool(v)
        return v
    return json.dumps(walk(obj), indent=1, sort_keys=True)


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text + "\n")


def cmd_table1(args):
    from .heat import resolution_integral_su2
    ts = [args.t] if args.t is not None else [1.0, 2.0, math.e, math.pi, 4.0]
    ns = [args.n] if args.n is not None else [1, 2, 3, 4, 5]
    tol = args.tol if args.tol is not None else 2e-3
    panels = args.quad_degree  # fixed coarse panel count when given
    rows = [("t", "n", "I", "expected", "rel_err")]
    status = 0
    first_fail = None
    for t in ts:
        for n in ns:
            val = resolution_integral_su2(t, n, n_panels=panels)
            expected = t ** 3 * n / 8.0
            rel = abs(val - expected) / expected
            rows.append((repr(float(t)), n, repr(float(val)),
                         repr(float(expected)), repr(float(rel))))
            if rel >= tol and first_fail is None:
                first_fail = (t, n, rel)
                status = 1
    text = "\n".join(",".join(str(x) for x in row) for row in rows)
    _emit(text, args.out)
    if first_fail:
        sys.stderr.write("FAIL at t=%r n=%r rel_err=%.3e (tol %.1e)\n"
                         % (first_fail + (tol,)))
    return status


def cmd_resolution_u1(args):
    from .heat import resolution_constant_u1
    tol = args.tol if args.tol is not None else 1e-4
    ts = [args.t] if args.t is not None else [0.5, 1.0, 2.0]
    report = {"command": "resolution-u1", "seed": args.seed,
              "tolerance": tol, "results": []}
    ok = True
    for t in ts:
        val = resolution_constant_u1(t)
        rel = abs(val - t) / t
        passed = rel < tol
        ok = ok and passed
        report["results"].append({"t": t, "C_t_inverse": val,
                                  "rel_err": rel, "passed": passed})
    report["passed"] = ok
    _emit(_dump(report), args.out)
    return 0 if ok else 1


def moyal_fit_u1(rng, eps_list, n_pairs=3):
    """Ensemble slope fit for real random oscillatory symbols on U(1)."""
    from . import groups as G
    from . import localcalc as L
    from . import symbols as S
    from .peterweyl import PWSpace
    gpw = S.make_g_space(G.U1, 1, quad_degree=30)
    gout = S.make_g_space(G.U1, 4, quad_degree=30)
    pw = PWSpace(G.U1, 22, quad_degree=60)
    pts = np.arange(-2, 3)

    def rand_u1():
        c = rng.standard_normal((5, gpw.dim)) + 1j * rng.standard_normal(
            (5, gpw.dim))
        s = L.LocalSymbol(G.U1, 0.2, pts, c, gpw)
        return L.symbol_add(s.scaled(0.5), s.conjugated().scaled(0.5))

    pairs = [(rand_u1(), rand_u1()) for _ in range(n_pairs)]
    return L.ensemble_order_fit(pairs, eps_list, pw, 16, gout)


def moyal_fit_su2(rng, eps_list, n_pairs=2):
    """Ensemble slope fit for z-axis oscillatory symbols on SU(2)."""
    from . import groups as G
    from . import localcalc as L
    from . import symbols as S
    from .peterweyl import PWSpace
    gpw2 = S.make_g_space(G.SU2, 2, quad_degree=6)
    gout2 = S.make_g_space(G.SU2, 5, quad_degree=8)
    pw2 = PWSpace(G.SU2, 8, quad_degree=10)
    zpts = np.array([[0, 0, -1], [0, 0, 0], [0, 0, 1]])

    def rand_su2():
        c = rng.standard_normal((3, gpw2.dim)) + 1j * rng.standard_normal(
            (3, gpw2.dim))
        s = L.LocalSymbol(G.SU2, 0.5, zpts, c, gpw2)
        return L.symbol_add(s.scaled(0.5), s.conjugated().scaled(0.5))

    pairs = [(rand_su2(), rand_su2()) for _ in range(n_pairs)]
    return L.ensemble_order_fit(pairs, eps_list, pw2, 4, gout2)


def cmd_moyal_fit(args):
    tol = args.tol if args.tol is not None else 0.2
    eps_list = ([float(x) for x in args.eps_list.split(",")]
                if args.eps_list else [0.25, 0.125, 0.0625, 0.03125])
    rng = np.random.default_rng(args.seed)
    report = {"command": "moyal-fit", "seed": args.seed,
              "eps_list": eps_list, "tolerance": tol, "results": {}}

    ms, ds, mres, dres = moyal_fit_u1(rng, eps_list)
    report["results"]["U1"] = {
        "moyal_slope": ms, "dirac_slope": ds,
        "moyal_residuals": mres, "dirac_residuals": dres,
        "passed": bool(abs(ms - 2) < tol and abs(ds - 1) < tol)}

    ms2, ds2, mres2, dres2 = moyal_fit_su2(rng, eps_list)
    report["results"]["SU2"] = {
        "moyal_slope": ms2, "dirac_slope": ds2,
        "moyal_residuals": mres2, "dirac_residuals": dres2,
        "passed": bool(abs(ms2 - 2) < tol and abs(ds2 - 1) < tol)}
    ok = report["results"]["U1"]["passed"] and report["results"]["SU2"]["passed"]
    report["passed"] = bool(ok)
    _emit(_dump(report), args.out)
    return 0 if ok else 1


def cmd_sw_props(args):
    from . import orbits as O
    tol = args.tol if args.tol is not None else 1e-9
    twoj = int(round(2 * args.j)) if args.j is not None else 4
    rng = np.random.default_rng(args.seed)
    spec = O.OrbitSpec(twoj)
    d = spec.d
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    B = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    WA, WB = O.sw_symbol(spec, A), O.sw_symbol(spec, B)
    results = {}
    results["roundtrip"] = float(np.abs(O.sw_quantize(spec, WA) - A).max())
    results["unit_symbol"] = float(
        np.abs(O.sw_symbol(spec, np.eye(d)) - 1).max())
    results["adjoint"] = float(
        np.abs(O.sw_symbol(spec, A.conj().T) - WA.conj()).max())
    results["reality"] = float(
        np.abs(O.sw_symbol(spec, (A + A.conj().T) / 2).imag).max())
    results["tracial"] = float(abs(
        np.trace(A.conj().T @ B)
        - np.sum(spec.weights * WA.conj() * WB)))
    tp = O.sw_twisted_product(spec, WA, WB)
    results["twisted_vs_matrix"] = float(
        np.abs(tp - O.sw_symbol(spec, A @ B)).max())
    f = spec.harmonics(min(2, twoj))[:, 0].real.astype(complex)
    results["berezin_relation"] = O.berezin_sw_residual(spec, f)
    results["k_rate_slope"] = O.k_rate_slope([8, 16, 32, 64])
    ok = all(v < tol for k, v in results.items()
             if k not in ("k_rate_slope",))
    ok = ok and abs(results["k_rate_slope"] - 1.0) < 0.2
    report = {"command": "sw-props", "seed": args.seed, "j": twoj / 2.0,
              "tolerance": tol, "results": results, "passed": bool(ok)}
    _emit(_dump(report), args.out)
    return 0 if ok else 1


def cmd_bohr_props(args):
    from . import bohr as B
    tol = args.tol if args.tol is not None else 1e-13
    rng = np.random.default_rng(args.seed)
    results = {}

    def rand_state(lat, n=5):
        ms = rng.integers(-8, 9, size=n)
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return B.FiniteSupportFn([(lat.point(int(m)), v)
                                  for m, v in zip(ms, vals)])

    lat_s = B.RationalLattice(1.0, 0.25)
    lat_t = B.RationalLattice(2.0 / 3.0, 0.5)
    sig = B.EquivariantSymbol(lat_s, {
        0: lambda lam: 1.0 + 0.3 * lam,
        1: lambda lam: 0.5 - 0.2 * lam,
        -1: lambda lam: 0.1 * lam * lam}).to_bohr_symbol()
    tau = B.EquivariantSymbol(lat_t, {
        0: lambda lam: 2.0 - lam,
        2: lambda lam: 0.4 + 0.1 * lam}).to_bohr_symbol()
    eps = 0.5
    phi = rand_state(B.RationalLattice(1.0 / 3.0))
    lhs = B.apply_symbol(B.twisted_product(sig, tau, eps), phi, eps)
    rhs = B.apply_symbol(sig, B.apply_symbol(tau, phi, eps), eps)
    results["twisted_vs_composition"] = lhs.norm_diff(rhs)
    results["adjoint_pairing"] = float(B.adjoint_pairing_residual(
        sig, rand_state(lat_s), rand_state(lat_s), eps))
    val, bound = B.discrete_taylor(lambda x: x ** 2 - 3 * x, 0.7, 1.5, 0.5, 2)
    results["newton_exactness"] = abs(val - ((0.7 + 1.5) ** 2
                                             - 3 * (0.7 + 1.5)))
    h = {(0.0, 0.0): 1.0, (1.0, 0.5): 0.3, (0.5, 1.0): -0.2}
    lhsn, boundn = B.apply_kernel_norm_check(h, rand_state(
        B.RationalLattice(0.5)), 2)
    results["young_inequality_slack"] = float(boundn - lhsn)
    ok = (results["twisted_vs_composition"] < tol
          and results["adjoint_pairing"] < tol
          and results["newton_exactness"] < 1e-12
          and results["young_inequality_slack"] >= 0)
    report = {"command": "bohr-props", "seed": args.seed, "tolerance": tol,
              "results": results, "passed": bool(ok)}
    _emit(_dump(report), args.out)
    return 0 if ok else 1


COMMANDS = {
    "table1": cmd_table1,
    "resolution-u1": cmd_resolution_u1,
    "moyal-fit": cmd_moyal_fit,
    "sw-props": cmd_sw_props,
    "bohr-props": cmd_bohr_props,
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="groupquant",
        description="desk-scale checks for quantization calculi on "
                    "compact groups")
    p.add_argument("--cmd", required=True, choices=sorted(COMMANDS))
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--quad-degree", type=int, default=None)
    p.add_argument("--j", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--eps-list", default=None,
                   help="comma-separated epsilon values for moyal-fit")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return COMMANDS[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
