"""Command-line front end: table reproduction and property suites.

Commands (via --cmd):
  table1          I(t, n) over t in {1, 2, e, pi, 4}, n in 1..5 (CSV)
  resolution-u1   phase-space resolution constant C_t^{-1} = t (JSON)
  moyal-fit       semiclassical slope fits on U(1) and SU(2) (JSON)
  sw-props        Stratonovich-Weyl property suite at spin j (JSON)
  bohr-props      Bohr-lattice calculus property suite (JSON)

Every JSON report goes through one writer, `_report`, and always carries
`command`, `seed`, `tolerance` (what each number was tested against),
`results` and `passed`; floats are written as their round-trip repr, so
runs are byte-identical given (config, seed). table1 and resolution-u1
write nothing and exit 2, with a one-line message, for a t they cannot
evaluate: t <= 0 or not finite; for table1 also t above 16 or n < 1, the
range its I(t, n) is checked on; for resolution-u1 also t above about
2980, where theta3 underflows and C_t does not converge. An argument
outside its range (--seed below 0, --tol not finite and > 0, --j,
--eps-list) ends in argparse's usage message and exit status 2.
"""

import argparse
import json
import math
import sys

import numpy as np


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text + "\n")


def _report(args, tol, results, passed, **extra):
    """Write the JSON report of args.cmd, the entries of extra beside its
    five standing ones, and return the exit status: 0 if passed, else 1."""
    report = dict(extra, command=args.cmd, seed=args.seed, tolerance=tol,
                  results=results, passed=bool(passed))
    _emit(json.dumps(report, indent=1, sort_keys=True,
                     default=lambda v: v.item()), args.out)
    return 0 if passed else 1


def cmd_table1(args):
    from .heat import resolution_integral_su2
    ts = [args.t] if args.t is not None else [1.0, 2.0, math.e, math.pi, 4.0]
    ns = [args.n] if args.n is not None else [1, 2, 3, 4, 5]
    tol = args.tol if args.tol is not None else 2e-3
    rows = [("t", "n", "I", "expected", "rel_err")]
    first_fail = None
    for t in ts:
        for n in ns:
            try:
                val = resolution_integral_su2(t, n)
            except ValueError as exc:   # t or n outside the checked range
                sys.stderr.write("groupquant: %s\n" % exc)
                return 2
            expected = t ** 3 * n / 8.0
            rel = abs(val - expected) / expected
            rows.append((repr(float(t)), n, repr(float(val)),
                         repr(float(expected)), repr(float(rel))))
            if rel >= tol and first_fail is None:
                first_fail = (t, n, rel)
    text = "\n".join(",".join(str(x) for x in row) for row in rows)
    _emit(text, args.out)
    if first_fail:
        sys.stderr.write("FAIL at t=%r n=%r rel_err=%.3e (tol %.1e)\n"
                         % (first_fail + (tol,)))
    return 1 if first_fail else 0


def cmd_resolution_u1(args):
    from .heat import QuadratureConvergenceError, resolution_constant_u1
    tol = args.tol if args.tol is not None else 1e-4
    ts = [args.t] if args.t is not None else [0.5, 1.0, 2.0]
    results = []
    for t in ts:
        try:
            val = resolution_constant_u1(t)
        except ValueError as exc:   # t <= 0 or not finite
            sys.stderr.write("groupquant: %s\n" % exc)
            return 2
        except QuadratureConvergenceError as exc:   # theta3 underflows
            sys.stderr.write("groupquant: C_t at t = %r: %s\n" % (t, exc))
            return 2
        rel = abs(val - t) / t
        results.append({"t": t, "C_t_inverse": val, "rel_err": rel,
                        "passed": rel < tol})
    return _report(args, tol, results, all(r["passed"] for r in results))


def _moyal_fit(rng, eps_list, n_pairs, group, step, pts, bands, in_band):
    """Ensemble slope fit for real random symbols at the lattice points pts;
    bands are the (band, quad_degree) of the g-space, the product space and
    the operator space."""
    from . import localcalc as L
    from .peterweyl import space
    gpw, gout, pw = (space(group, b, q) for b, q in bands)

    def rand():
        shape = (len(pts), gpw.dim)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        s = L.LocalSymbol(group, step, pts, c, gpw)
        return L.symbol_add(s.scaled(0.5), s.conjugated().scaled(0.5))

    pairs = [(rand(), rand()) for _ in range(n_pairs)]
    return L.ensemble_order_fit(pairs, eps_list, pw, in_band, gout)


def moyal_fit_u1(rng, eps_list, n_pairs=3):
    """Ensemble slope fit for real random oscillatory symbols on U(1)."""
    from .groups import U1
    return _moyal_fit(rng, eps_list, n_pairs, U1, 0.2, np.arange(-2, 3),
                      ((1, 30), (4, 30), (22, 60)), 16)


def moyal_fit_su2(rng, eps_list, n_pairs=2):
    """Ensemble slope fit for z-axis oscillatory symbols on SU(2)."""
    from .groups import SU2
    zpts = np.array([[0, 0, -1], [0, 0, 0], [0, 0, 1]])
    return _moyal_fit(rng, eps_list, n_pairs, SU2, 0.5, zpts,
                      ((2, 6), (5, 8), (8, 10)), 4)


def cmd_moyal_fit(args):
    tol = args.tol if args.tol is not None else 0.2
    eps_list = args.eps_list or [0.25, 0.125, 0.0625, 0.03125]
    rng = np.random.default_rng(args.seed)
    results = {}
    for group, fit in (("U1", moyal_fit_u1), ("SU2", moyal_fit_su2)):
        ms, ds, mres, dres = fit(rng, eps_list)
        results[group] = {
            "moyal_slope": ms, "dirac_slope": ds,
            "moyal_residuals": mres, "dirac_residuals": dres,
            "passed": abs(ms - 2) < tol and abs(ds - 1) < tol}
    return _report(args, tol, results,
                   all(r["passed"] for r in results.values()),
                   eps_list=eps_list)


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
    return _report(args, tol, results, ok, j=twoj / 2.0)


def cmd_bohr_props(args):
    from . import bohr as B
    tol = args.tol if args.tol is not None else 1e-13
    rng = np.random.default_rng(args.seed)
    results = {}

    def rand_state(lat, n=5):
        ms = rng.integers(-8, 9, size=n)
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return B.FiniteSupportFn.on_lattice(lat, ms, vals)

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
    return _report(args, tol, results, ok)


COMMANDS = {
    "table1": cmd_table1,
    "resolution-u1": cmd_resolution_u1,
    "moyal-fit": cmd_moyal_fit,
    "sw-props": cmd_sw_props,
    "bohr-props": cmd_bohr_props,
}


def _checked(convert, valid, refusal):
    """An argparse type: convert(text), refused with the message refusal
    (exit status 2) unless valid(value)."""
    def parse(text):
        value = convert(text)
        if not valid(value):
            raise argparse.ArgumentTypeError("%s, got %s" % (refusal, text))
        return value
    parse.__name__ = convert.__name__     # argparse: "invalid int value"
    return parse


def _eps_list(text):
    """--eps-list: comma-separated eps, at least two distinct and all in
    (0, 1], the range of moyal-fit's slope fits."""
    from .localcalc import _check_eps_list
    try:
        eps_list = [float(x) for x in text.split(",")]
        _check_eps_list(eps_list)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return eps_list


# built once per process: main runs many times in one process (the benchmark
# and the tests call it in-process)
PARSER = argparse.ArgumentParser(
    prog="groupquant",
    description="desk-scale checks for quantization calculi on compact groups")
PARSER.add_argument("--cmd", required=True, choices=sorted(COMMANDS))
PARSER.add_argument("--out", default=None, help="output path (default stdout)")
PARSER.add_argument("--seed", default=0, type=_checked(
    int, lambda seed: seed >= 0, "seed must be >= 0"))
PARSER.add_argument("--tol", default=None, type=_checked(
    float, lambda tol: math.isfinite(tol) and tol > 0,
    "tolerance must be finite and > 0"))
# j = 64 is the largest spin checked on seeds 0-9: there twisted_vs_matrix,
# whose rounding grows with the spin, reaches 5.9e-10 of the 1e-9 tolerance
PARSER.add_argument("--j", default=None, type=_checked(
    float, lambda j: (math.isfinite(j) and 0 <= j <= 64
                      and 2 * j == round(2 * j)),
    "spin j must be a multiple of 1/2 in [0, 64]"),
    help="sw-props: spin j, a multiple of 1/2 in [0, 64]")
PARSER.add_argument("--t", type=float, default=None)
PARSER.add_argument("--n", type=int, default=None)
PARSER.add_argument("--eps-list", type=_eps_list, default=None,
                    help="moyal-fit: comma-separated epsilon values, at "
                         "least two distinct, all in (0, 1]")


def main(argv=None):
    args = PARSER.parse_args(argv)
    return COMMANDS[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
