"""The four benchmark workloads: set-up, one pass, and the checks that end it.

A workload is ``(setup, run)``. ``setup(size)`` builds what a user builds
before solving (quadratures, Peter-Weyl spaces, orbit grids) and returns it
in a dict. ``run(fx, rng, chk)`` makes one full pass on inputs drawn from
``rng`` and records every correctness check in ``chk``. The library only
sees the generated inputs; the seed stays in the benchmark.

A pass is a list of operations: groups of library calls that end in checks.
An operation that raises counts as failed and adds the failed check
``<operation>.raised``; the pass goes on with the next operation.

Tolerances are the library's own: the CLI's (slope 0.2, sw-props 1e-9,
Table 1 rel_err 2e-3, resolution-u1 1e-4, bohr-props 1e-13/1e-12) or the
test suite's for the same identity.
"""

import contextlib
import io
import json
import math

import numpy as np

from groupquant import bohr as B
from groupquant import cli
from groupquant import groups as G
from groupquant import heat as H
from groupquant import orbits as O
from groupquant import symbols as S
from groupquant.peterweyl import PWSpace
from groupquant.u1smoothing import TwistedSpace

# sw-props checks that miss the CLI's 1e-9 at the baseline for every seed:
# the log-factorial Wigner d sum loses digits as the spin grows (2j = 16:
# twisted product 1.2e-9..1.8e-9; 2j = 24: 2.6e-8..1.4e-6). They count in
# fail_frac, but do not make a run incorrect.
KNOWN_MISSES = frozenset({
    "sw-props.2j=16.twisted_vs_matrix",
    "sw-props.2j=24.roundtrip",
    "sw-props.2j=24.unit_symbol",
    "sw-props.2j=24.tracial",
    "sw-props.2j=24.twisted_vs_matrix",
})

# Checks whose outcome at the baseline is decided by the seed (seeds 100-129):
# the U(1) moyal-fit slopes come from a 3-pair ensemble whose Dirac slope
# converges to 1.175 against the CLI's 1 +- 0.2, so 11 of 30 seeds miss it
# (the Moyal slope: 3 of 30); sw-props' tracial residual at 2j = 16 reaches
# 0.86 of its 1e-9. They run at the same tolerance and every miss is listed,
# but neither fail_frac nor correctness counts them: a miss there moves with
# the seed, not with the code. So is the SU(2) overlap hermiticity: the
# character series cancels at small t and large |X| (t = 0.32, |X| = 2.1:
# overlap 1.5e-7 with an asymmetry of 1.4e-10), once in about 3000 draws.
SEED_DEPENDENT = frozenset({
    "moyal-fit.U1.moyal_slope",
    "moyal-fit.U1.dirac_slope",
    "sw-props.2j=16.tracial",
    "overlap-su2.hermiticity",
})


class Checks:
    """Named residuals against tolerances, and the operations that made
    them."""

    def __init__(self):
        self.results = {}      # name -> (value, tolerance, passed)
        self.ops = 0
        self.op_errors = {}    # operation name -> repr of the exception

    def below(self, name, value, tol):
        value = float(value)
        self.results[name] = (value, tol, bool(value < tol))

    def near(self, name, value, target, tol):
        self.below(name, abs(float(value) - target), tol)

    def at_least(self, name, value, floor):
        value = float(value)
        self.results[name] = (value, floor, bool(value >= floor))

    def op(self, name, fn):
        self.ops += 1
        try:
            fn()
        except Exception as exc:  # a raising operation is a failed check
            self.op_errors[name] = repr(exc)
            self.results[name + ".raised"] = (math.nan, 0.0, False)

    def failed(self):
        return sorted(k for k, (_, _, ok) in self.results.items() if not ok)

    def fail_frac(self):
        """(failed + 1) / (checks + 2) over the checks not in SEED_DEPENDENT:
        the add-one estimate of the failure rate, above zero when none
        failed."""
        counted = [k for k in self.results if k not in SEED_DEPENDENT]
        failed = [k for k in counted if not self.results[k][2]]
        return (len(failed) + 1) / (len(counted) + 2)

    def unexpected(self):
        return [k for k in self.failed()
                if k not in KNOWN_MISSES and k not in SEED_DEPENDENT]


def _cli_results(argv):
    """Run one CLI command in this process and return its "results" block."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv)
    return json.loads(buf.getvalue())["results"]


def _rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# local-moyal: the moyal-fit command, symbol pairs drawn from the seed
# ---------------------------------------------------------------------------

def setup_local_moyal(size):
    if size == "tiny":
        return {"eps": [0.25, 0.125, 0.0625], "pairs": (1, 1)}
    return {"eps": [0.25, 0.125, 0.0625, 0.03125], "pairs": (3, 2)}


def run_local_moyal(fx, rng, chk):
    tol = 0.2   # the CLI's slope tolerance
    for group, fit, n_pairs in (("U1", cli.moyal_fit_u1, fx["pairs"][0]),
                                ("SU2", cli.moyal_fit_su2, fx["pairs"][1])):
        def fit_op(group=group, fit=fit, n_pairs=n_pairs):
            ms, ds, _, _ = fit(rng, fx["eps"], n_pairs=n_pairs)
            chk.near("moyal-fit.%s.moyal_slope" % group, ms, 2.0, tol)
            chk.near("moyal-fit.%s.dirac_slope" % group, ds, 1.0, tol)
        chk.op("moyal-fit." + group, fit_op)


# ---------------------------------------------------------------------------
# global-su2: dense Peter-Weyl transforms and the global KN / Weyl calculus
# ---------------------------------------------------------------------------

def setup_global_su2(size):
    tiny = size == "tiny"
    return {
        "big": PWSpace(G.SU2, 4 if tiny else 12),
        "kn_g": S.make_g_space(G.SU2, 2, quad_degree=5),
        "kn_pw": PWSpace(G.SU2, 5 if tiny else 8,
                         quad_degree=6 if tiny else 9),
        "kn_h": G.su2_quadrature(5),
        "kn_out": S.make_g_space(G.SU2, 3, quad_degree=6),
        "kn_pi": 3 if tiny else 4,
        "w2_g": S.make_g_space(G.SU2, 2, quad_degree=5 if tiny else 6),
        "w2_h": G.su2_quadrature(5 if tiny else 6),
        "w2_pw": PWSpace(G.SU2, 2 if tiny else 3,
                         quad_degree=5 if tiny else 6),
        "w2_pi": 2 if tiny else 3,
        "w1_g": S.make_g_space(G.U1, 4, quad_degree=40),
        # the test suite's U(1) Weyl sizes; smaller ones lose the 1e-9
        "w1_pw": PWSpace(G.U1, 28, quad_degree=80),
        "w1_h": G.u1_quadrature(130),
        "w1_pi": 24,
    }


def _su2_profile_symbol(gpw, pi_band, rng, s=0.3, kmax=2):
    """sigma(n, g) = e^{-s lam_n} sum_k a_k lam_n^k u_k(g) 1_n: a smooth
    profile in the Casimir, so the right kernel is concentrated at 1."""
    us = [gpw.synthesis(_crandn(rng, gpw.dim)) for _ in range(kmax + 1)]
    a = rng.standard_normal(kmax + 1)
    vals = {}
    for n in G.irrep_labels(G.SU2, pi_band):
        lam = G.casimir(G.SU2, n)
        prof = math.exp(-s * lam) * sum(a[k] * lam ** k * us[k]
                                        for k in range(kmax + 1))
        vals[n] = prof[:, None, None] * np.eye(n)
    return S.MatrixSymbol(G.SU2, pi_band, gpw, vals)


def _u1_profile_symbol(gpw, pi_band, rng, s=0.07, kmax=3):
    """Gaussian profile in j, as the test suite uses for the U(1) Weyl path."""
    us = [gpw.synthesis(_crandn(rng, gpw.dim)) for _ in range(kmax + 1)]
    a = rng.standard_normal(kmax + 1)
    vals = {}
    for j in G.irrep_labels(G.U1, pi_band):
        prof = math.exp(-s * j * j) * sum(a[k] * j ** k * us[k]
                                          for k in range(kmax + 1))
        vals[j] = prof[:, None, None]
    return S.MatrixSymbol(G.U1, pi_band, gpw, vals)


def run_global_su2(fx, rng, chk):
    big = fx["big"]

    def pw_roundtrip():
        c = _crandn(rng, big.dim, 4)
        chk.below("pw.roundtrip", _rel(big.analysis(big.synthesis(c)), c),
                  1e-10)

    def kn_roundtrip_compose():
        gpw, pw, pi = fx["kn_g"], fx["kn_pw"], fx["kn_pi"]
        sa = S.random_symbol(G.SU2, pi, gpw, rng)
        sb = S.random_symbol(G.SU2, pi, gpw, rng)
        A = S.kn_quantize(sa, pw)
        back = S.kn_symbol(A, pi, gpw)
        chk.below("kn.roundtrip", back.max_abs_diff(sa), 1e-10)
        chk.below("kn.projection", back.projection_residual, 1e-10)
        comp = S.kn_compose(sa, sb, fx["kn_h"])
        Bm = S.kn_quantize(sb, pw).matrix
        oracle = S.kn_symbol(S.TruncatedOperator(pw, A.matrix @ Bm), pi,
                             fx["kn_out"])
        chk.below("kn.compose", max(
            np.abs(oracle.values_at_quad(lab, comp.quad)
                   - comp.values[lab]).max() for lab in comp.values), 1e-9)

    def weyl_su2():
        gpw, hq, pw, pi = fx["w2_g"], fx["w2_h"], fx["w2_pw"], fx["w2_pi"]
        sym = _su2_profile_symbol(gpw, pi, rng)
        kern = S.weyl_deform(sym, hq)
        op = S.kernel_quantize(kern, pw, hq).matrix
        # the deformed kernel read as a KN symbol quantizes to the same matrix
        kn = S.kn_quantize(S.MatrixSymbol(G.SU2, pi, gpw, kern.K), pw).matrix
        chk.below("weyl-su2.kernel_vs_kn", _rel(op, kn), 1e-9)
        opc = S.kernel_quantize(S.weyl_deform(sym.adjoint(), hq), pw, hq)
        chk.below("weyl-su2.reality", _rel(op.conj().T, opc.matrix), 1e-9)

    def weyl_u1():
        gpw, hq, pw, pi = fx["w1_g"], fx["w1_h"], fx["w1_pw"], fx["w1_pi"]
        sym = _u1_profile_symbol(gpw, pi, rng)
        op = S.kernel_quantize(S.weyl_deform(sym, hq), pw, hq)
        back = S.weyl_symbol(op, pi, gpw, hq)
        scale = max(np.abs(v).max() for v in sym.values.values())
        chk.below("weyl-u1.roundtrip", back.max_abs_diff(sym) / scale, 1e-9)
        opc = S.kernel_quantize(S.weyl_deform(sym.adjoint(), hq), pw, hq)
        chk.below("weyl-u1.reality", _rel(op.matrix.conj().T, opc.matrix),
                  1e-9)

    chk.op("pw", pw_roundtrip)
    chk.op("kn", kn_roundtrip_compose)
    chk.op("weyl-su2", weyl_su2)
    chk.op("weyl-u1", weyl_u1)


# ---------------------------------------------------------------------------
# sw-orbit: sw-props at large spin, SWF transform and group convolution
# ---------------------------------------------------------------------------

def setup_sw_orbit(size):
    tiny = size == "tiny"
    twojs = (0, 1) if tiny else (0, 1, 2)
    return {
        "props_2j": (2, 4) if tiny else (8, 16, 24),
        "quad": G.su2_quadrature(5 if tiny else 8),
        "specs": [O.OrbitSpec(t) for t in twojs],
        "pw": PWSpace(G.SU2, len(twojs), quad_degree=5 if tiny else 8),
    }


def run_sw_orbit(fx, rng, chk):
    tol = 1e-9   # sw-props' tolerance
    seed = int(rng.integers(2 ** 31))

    for twoj in fx["props_2j"]:
        def props(twoj=twoj):
            res = _cli_results(["--cmd", "sw-props", "--j", str(twoj / 2),
                                "--seed", str(seed)])
            for key, val in sorted(res.items()):
                name = "sw-props.2j=%d.%s" % (twoj, key)
                if key == "k_rate_slope":
                    chk.near(name, val, 1.0, 0.2)
                else:
                    chk.below(name, val, tol)
        chk.op("sw-props.2j=%d" % twoj, props)

    def swf():
        quad, specs, pw = fx["quad"], fx["specs"], fx["pw"]
        coef, coef2 = _crandn(rng, pw.dim), _crandn(rng, pw.dim)
        E = pw.eval_basis(quad.quats)
        psi, phi = E @ coef, E @ coef2
        tr = O.swf_transform(psi, quad, specs)
        chk.below("swf.inverse", _rel(O.swf_inverse(tr, quad, specs), psi),
                  1e-10)
        lhs, rhs = O.swf_parseval(psi, tr, quad, specs)
        chk.below("swf.parseval", abs(lhs - rhs) / abs(lhs), 1e-10)
        conv = O.group_convolution(psi, coef2, pw, quad)
        tr_conv = O.swf_transform(conv, quad, specs)
        tr_phi = O.swf_transform(phi, quad, specs)
        chk.below("swf.convolution", max(
            np.abs(tr_conv[s.twoj] - O.sw_twisted_product(
                s, tr[s.twoj], tr_phi[s.twoj])).max() for s in specs), 1e-9)

    chk.op("swf", swf)


# ---------------------------------------------------------------------------
# heat-table: Table 1 on a seeded t grid, overlaps, Schur, Bohr, smoothing
# ---------------------------------------------------------------------------

def setup_heat_table(size):
    tiny = size == "tiny"
    return {
        "n_t": 2 if tiny else 20,
        "n_u1": 2 if tiny else 6,
        "n_overlap": 5 if tiny else 150,
        "schur_n": 3 if tiny else 8,
        "n_schur_t": 1 if tiny else 3,
        "n_bohr": 2 if tiny else 40,
        "twisted": [TwistedSpace(0.3, j0=j0) for j0 in (0.0, 0.3)],
    }


def run_heat_table(fx, rng, chk):
    def table1():
        # one t per stratum of [1, 4]: the cost of a cell depends on t
        # (2.7x across the range), the pass's total should not
        n_t = fx["n_t"]
        for t in 1.0 + 3.0 * (np.arange(n_t) + rng.uniform(size=n_t)) / n_t:
            worst = 0.0
            for n in range(1, 6):
                if n == 3:
                    val, imag = H.resolution_integral_su2(
                        t, n, return_imag_residual=True)
                    chk.below("table1.t=%.4f.imag_residual" % t, imag, 1e-8)
                else:
                    val = H.resolution_integral_su2(t, n)
                expected = t ** 3 * n / 8.0
                worst = max(worst, abs(val - expected) / expected)
            chk.below("table1.t=%.4f.rel_err" % t, worst, 2e-3)

    def resolution_u1():
        ts = rng.uniform(0.5, 2.0, fx["n_u1"])
        chk.below("resolution-u1.rel_err", max(
            abs(H.resolution_constant_u1(t) - t) / t for t in ts), 1e-4)

    def overlaps():
        w_u1 = w_norm = w_herm = 0.0
        js = np.arange(-80, 81)
        for _ in range(fx["n_overlap"]):
            t = rng.uniform(0.3, 1.5)
            pu = H.HeatParams(G.U1, t)
            p1, p2 = rng.uniform(0, 2 * math.pi, 2)
            l1, l2 = rng.uniform(-1, 1, 2)
            ov = H.coherent_overlap(pu, H.PolarPoint.u1(p1, l1),
                                    H.PolarPoint.u1(p2, l2))
            direct = np.sum(np.exp(-t * js * js + 1j * js * (p2 - p1)
                                   - js * (l1 + l2)))
            scale = math.sqrt(np.sum(np.exp(-t * js * js - 2 * js * l1))
                              * np.sum(np.exp(-t * js * js - 2 * js * l2)))
            w_u1 = max(w_u1, abs(ov - direct) / scale)
            ps = H.HeatParams(G.SU2, t)
            z, w = (H.PolarPoint.su2(G.quat_normalize(rng.standard_normal(4)),
                                     0.7 * rng.standard_normal(3))
                    for _ in range(2))
            zz = H.coherent_overlap(ps, z, z)
            norm = H.su2_overlap_norm(t, float(np.linalg.norm(z.X)))
            w_norm = max(w_norm, abs(zz - norm) / norm)
            o1, o2 = H.coherent_overlap(ps, z, w), H.coherent_overlap(ps, w, z)
            w_herm = max(w_herm, abs(o1 - np.conj(o2)) / max(1.0, abs(o1)))
        chk.below("overlap-u1.theta_vs_series", w_u1, 1e-11)
        chk.below("overlap-su2.norm_series", w_norm, 1e-10)
        chk.below("overlap-su2.hermiticity", w_herm, 1e-11)

    def schur():
        for t in rng.uniform(0.5, 2.0, fx["n_schur_t"]):
            chk.below("schur.t=%.4f" % t, max(
                H.schur_residual_su2(t, n)[1]
                for n in range(1, fx["schur_n"] + 1)), 1e-6)

    def bohr_props():
        runs = [_cli_results(["--cmd", "bohr-props",
                              "--seed", str(int(rng.integers(2 ** 31)))])
                for _ in range(fx["n_bohr"])]
        for key, tol in (("twisted_vs_composition", 1e-13),
                         ("adjoint_pairing", 1e-13),
                         ("newton_exactness", 1e-12)):
            chk.below("bohr-props." + key, max(r[key] for r in runs), tol)
        chk.at_least("bohr-props.young_inequality_slack",
                     min(r["young_inequality_slack"] for r in runs), 0.0)
        lat = B.RationalLattice(1.0, 0.0)
        states = [B.FiniteSupportFn(
            [(lat.point(int(m)), complex(*rng.standard_normal(2)))
             for m in rng.integers(-8, 9, size=5)]) for _ in range(20)]
        amp = rng.uniform(0.2, 1.0, 3)
        sig = B.EquivariantSymbol(lat, {
            0: lambda lam: amp[0] * np.exp(-0.2 * lam ** 2),
            1: lambda lam: amp[1] * np.exp(-0.1 * lam ** 2),
            -2: lambda lam: amp[2] * np.exp(-0.3 * lam ** 2)}).to_bohr_symbol()
        rep = B.sobolev_bound_check(sig, 1.0, 0.0, 2, states)
        chk.below("bohr.sobolev_ratio_over_constant",
                  rep["empirical_max_ratio"] / rep["theoretical_constant"],
                  1.0 + 1e-12)

    def smoothing():
        for sp in fx["twisted"]:
            tag = "twisted.j0=%.1f." % sp.j0
            samples = list(zip(rng.uniform(0, 2 * math.pi, 4),
                               rng.uniform(-0.5, 0.5, 4)))
            modes = [(int(m), k) for m, k in zip(rng.integers(-3, 4, 3),
                                                 rng.uniform(-1.3, 1.3, 3))]
            chk.below(tag + "heat_multiplier", max(
                sp.heat_multiplier_residual(m, k, samples)
                for m, k in modes), 1e-9)
            chk.below(tag + "closed_vs_quadrature", max(
                np.abs(sp.berezin_mode(m, k)
                       - sp.berezin_mode_quadrature(m, k)).max()
                for m, k in modes), 1e-12)
            wick = [sp.wick_residuals(a, b, samples)
                    for a, b in ((1, 0), (0, 1), (2, 1), (1, 2), (2, 2))]
            chk.below(tag + "wick_identification", max(r[0] for r in wick),
                      1e-12)
            chk.below(tag + "wick_multiplier", max(r[1] for r in wick), 1e-10)
            kn_modes = [(m, k, complex(*rng.standard_normal(2)))
                        for m, k in modes]
            A = sp.kn_operator(kn_modes)
            chk.below(tag + "kn_lower_symbol", max(
                abs(sp.lower_symbol(A, phi, l)
                    - sp.kn_lower_symbol_formula(kn_modes, phi, l))
                for phi, l in samples), 1e-8)

    chk.op("table1", table1)
    chk.op("resolution-u1", resolution_u1)
    chk.op("overlaps", overlaps)
    chk.op("schur", schur)
    chk.op("bohr", bohr_props)
    chk.op("smoothing", smoothing)


WORKLOADS = {
    "local-moyal": (setup_local_moyal, run_local_moyal),
    "global-su2": (setup_global_su2, run_global_su2),
    "sw-orbit": (setup_sw_orbit, run_sw_orbit),
    "heat-table": (setup_heat_table, run_heat_table),
}
