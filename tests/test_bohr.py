"""Bohr-lattice pseudo-differential calculus."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupquant import bohr as B

RNG = np.random.default_rng(41)


def rand_state(lat, n=5, span=8):
    ms = RNG.integers(-span, span + 1, size=n)
    vals = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
    return B.FiniteSupportFn([(lat.point(int(m)), v)
                              for m, v in zip(ms, vals)])


def test_bohr_mean():
    assert B.bohr_mean({1.3: 1.0}, {1.3: 1.0}) == 1.0
    assert B.bohr_mean({1.3: 1.0}, {0.9: 1.0}) == 0.0
    f = {1.0: 2.0, math.sqrt(2): 3.0}
    assert B.bohr_mean({math.sqrt(2): 1.0}, f) == 3.0


def test_sobolev_norm():
    d0 = B.FiniteSupportFn([(0.0, 1.0)])
    assert B.sobolev_norm(d0, 3.0, 2) == 1.0
    d1 = B.FiniteSupportFn([(1.0, 1.0)])
    assert abs(B.sobolev_norm(d1, 2.0, 1) - 2.0) < 1e-14
    # counterexample function 1/n at 1/n: p > 1 norms stay bounded on
    # truncations, the p = 1 partial sums diverge (harmonic series)
    prev_p1 = 0.0
    for N in (10, 100, 1000):
        phi = B.FiniteSupportFn([(1.0 / n, 1.0 / n) for n in range(1, N + 1)])
        n1 = B.sobolev_norm(phi, 5.0, 1)
        n2 = B.sobolev_norm(phi, 5.0, 2)
        assert n2 < 8.0
        assert n1 > prev_p1 + 0.5  # keeps growing like log N
        prev_p1 = n1


def test_sobolev_monotonicity_and_nesting():
    phi = rand_state(B.RationalLattice(0.5, 0.3))
    for s, sp in ((2.0, 1.0), (1.0, -1.0)):
        assert B.sobolev_norm(phi, sp, 2) <= B.sobolev_norm(phi, s, 2) + 1e-12
    for p, pp in ((1, 2), (2, math.inf)):
        assert B.sobolev_norm(phi, 1.0, pp) <= B.sobolev_norm(phi, 1.0, p) \
            + 1e-12


def test_lattice_arithmetic():
    lat = B.RationalLattice(1.0, 0.0)
    other = B.RationalLattice(2.0 / 3.0, 0.0)
    comb = lat.combined_with(other)
    assert abs(comb.lam0 - 1.0 / 3.0) < 1e-12
    # exact: a float spacing or offset reads as the simplest rational that
    # rounds to it, so either order gives the same lattice
    a = B.RationalLattice(1.0, 0.25)
    b = B.RationalLattice(2.0 / 3.0, 0.5)
    assert b == B.RationalLattice(Fraction(2, 3), Fraction(1, 2))
    assert a.combined_with(b) == B.RationalLattice(Fraction(1, 3),
                                                   Fraction(3, 4))
    assert b.combined_with(a) == a.combined_with(b)
    assert float(B.RationalLattice(math.sqrt(2)).lam0) == math.sqrt(2)
    # 20 random rational pairs: spacing lam0/q, offset (q j0 + p j0') mod 1
    for _ in range(20):
        p = int(RNG.integers(1, 12))
        q = int(RNG.integers(1, 12))
        g = math.gcd(p, q)
        p, q = p // g, q // g
        lam0 = float(RNG.uniform(0.2, 2.0))
        j0 = float(RNG.uniform(0, 1))
        j0p = float(RNG.uniform(0, 1))
        a = B.RationalLattice(lam0, j0)
        b = B.RationalLattice(lam0 * p / q, j0p)
        c = a.combined_with(b)
        assert abs(c.lam0 - lam0 / q) < 1e-9
        assert abs((c.j0 - (q * j0 + p * j0p)) % 1.0) % 1.0 < 1e-9 \
            or abs(((c.j0 - (q * j0 + p * j0p)) % 1.0) - 1.0) < 1e-9
        # sum of lattice points lands on the combined lattice
        s = a.point(int(RNG.integers(-5, 6))) + b.point(int(RNG.integers(-5, 6)))
        assert c.contains(s)


def test_lattice_irrational_ratio_raises():
    # spacings 1 and sqrt 2 read as 1 and a rational of denominator about
    # 9e7: their ratio is no rational of small terms, so no combined lattice
    one, root2 = B.RationalLattice(1.0), B.RationalLattice(math.sqrt(2))
    for a, b in ((one, root2), (root2, one),
                 (B.RationalLattice(math.pi, 0.5), B.RationalLattice(math.e))):
        with pytest.raises(ValueError):
            a.combined_with(b)
    # an irrational spacing still combines with a rational multiple of it:
    # ratio 2/3, so spacing sqrt(2)/3 and offset (3 * 0 + 2 * 1/2) mod 1
    c = root2.combined_with(B.RationalLattice(2 * math.sqrt(2) / 3, 0.5))
    assert c.lam0 == root2.lam0 / 3 and c.j0 == 0


def test_apply_symbol_multiplier():
    # sigma(x, lam) = |lam|: multiplication operator
    sig = B.BohrSymbol({0.0: lambda lam: abs(lam)})
    phi = B.FiniteSupportFn([(1.5, 2.0), (-0.5, 1.0 + 1j)])
    out = B.apply_symbol(sig, phi, eps=0.7)
    assert abs(out[1.5] - 1.5 * 2.0) < 1e-14
    assert abs(out[-0.5] - 0.5 * (1.0 + 1j)) < 1e-14


def test_apply_symbol_shift():
    # sigma(x, lam) = e^{i lam0 x}: support shifts by -eps lam0
    lam0 = 0.8
    sig = B.BohrSymbol({lam0: lambda lam: 1.0})
    phi = B.FiniteSupportFn([(1.0, 1.0), (2.0, 3.0)])
    out = B.apply_symbol(sig, phi, eps=1.0)
    assert sorted(out.support()) == pytest.approx([1.0 - lam0, 2.0 - lam0])
    assert abs(out[1.0 - lam0] - 1.0) < 1e-14
    assert abs(out[2.0 - lam0] - 3.0) < 1e-14


def test_apply_symbol_lattice_mapping():
    # lam0 = 1, j0 = 0 symbol on a (2/3, 0) state: output spacing 1/3
    lat = B.RationalLattice(1.0, 0.0)
    sym = B.EquivariantSymbol(lat, {1: lambda lam: 1.0,
                                    -1: lambda lam: 0.5}).to_bohr_symbol()
    phi = B.FiniteSupportFn([(2.0 / 3.0 * m, 1.0) for m in (-1, 0, 2)])
    out = B.apply_symbol(sym, phi, eps=1.0)
    target = B.RationalLattice(1.0 / 3.0, 0.0)
    for lam in out.support():
        assert target.contains(lam)


def test_adjoint():
    lat = B.RationalLattice(0.7, 0.2)
    sig = B.EquivariantSymbol(lat, {
        0: lambda lam: 1.0 + 1j * lam,
        1: lambda lam: np.exp(-0.1 * lam * lam),
        -2: lambda lam: 0.3 * lam}).to_bohr_symbol()
    for _ in range(5):
        p1, p2 = rand_state(lat), rand_state(lat)
        assert B.adjoint_pairing_residual(sig, p1, p2, eps=0.5) < 1e-13
    # real zero-frequency symbol is self-adjoint
    real_sig = B.BohrSymbol({0.0: lambda lam: lam * lam})
    assert B.adjoint_pairing_residual(real_sig, rand_state(lat),
                                      rand_state(lat)) < 1e-13
    # double adjoint restores the action
    dd = sig.conjugate().conjugate()
    phi = rand_state(lat)
    assert B.apply_symbol(dd, phi, 0.5).norm_diff(
        B.apply_symbol(sig, phi, 0.5)) < 1e-13


def test_twisted_product_exact():
    lat_s = B.RationalLattice(1.0, 0.25)
    lat_t = B.RationalLattice(2.0 / 3.0, 0.5)
    sig = B.EquivariantSymbol(lat_s, {
        0: lambda lam: 1.0 + 0.3 * lam,
        1: lambda lam: 0.5 - 0.2 * lam,
        -1: lambda lam: 0.1 * lam * lam}).to_bohr_symbol()
    tau = B.EquivariantSymbol(lat_t, {
        0: lambda lam: 2.0 - lam,
        2: lambda lam: 0.4 + 0.1 * lam}).to_bohr_symbol()
    for eps in (1.0, 0.5, 0.25):
        rho = B.twisted_product(sig, tau, eps)
        for _ in range(4):
            phi = rand_state(B.RationalLattice(1.0 / 3.0))
            lhs = B.apply_symbol(rho, phi, eps)
            rhs = B.apply_symbol(sig, B.apply_symbol(tau, phi, eps), eps)
            assert lhs.support() == rhs.support()  # exact Fraction keys
            assert lhs.norm_diff(rhs) < 1e-13


def test_twisted_product_unit_and_commutative():
    unit = B.BohrSymbol({0.0: lambda lam: 1.0})
    sig = B.BohrSymbol({0.7: lambda lam: lam, 0.0: lambda lam: 2.0})
    phi = B.FiniteSupportFn([(0.5, 1.0), (1.5, -2.0j)])
    out1 = B.apply_symbol(B.twisted_product(unit, sig, 0.5), phi, 0.5)
    out2 = B.apply_symbol(sig, phi, 0.5)
    assert out1.norm_diff(out2) < 1e-14
    # zero-frequency symbols commute (pointwise product in lam)
    a = B.BohrSymbol({0.0: lambda lam: lam + 1.0})
    b = B.BohrSymbol({0.0: lambda lam: lam * lam})
    ab = B.twisted_product(a, b, 0.5)
    for lam in (0.3, -1.2):
        assert abs(ab.coeffs.get(0.0)(lam)
                   - (lam + 1.0) * lam * lam) < 1e-14


def test_twisted_product_associative():
    lat = B.RationalLattice(0.5, 0.0)
    syms = [B.EquivariantSymbol(lat, {
        0: (lambda c: lambda lam: c + lam)(i),
        1: (lambda c: lambda lam: c * lam)(i + 0.5)}).to_bohr_symbol()
        for i in range(3)]
    eps = 0.5
    ab_c = B.twisted_product(B.twisted_product(syms[0], syms[1], eps),
                             syms[2], eps)
    a_bc = B.twisted_product(syms[0],
                             B.twisted_product(syms[1], syms[2], eps), eps)
    phi = rand_state(lat)
    assert B.apply_symbol(ab_c, phi, eps).norm_diff(
        B.apply_symbol(a_bc, phi, eps)) < 1e-12


def test_discrete_taylor():
    # exact on polynomials of degree <= N
    val, r = B.discrete_taylor(lambda x: x * x, 0.3, 2.5, 0.5, 2)
    assert abs(val - (0.3 + 2.5) ** 2) < 1e-12
    assert r < 1e-12
    # cubic with N = 2: remainder within the stated bound
    f = lambda x: x ** 3
    val, bound = B.discrete_taylor(f, 0.2, 1.5, 0.5, 2)
    assert abs(val - f(0.2 + 1.5)) <= bound + 1e-12
    assert bound > 0
    # lam' = 0
    val, r = B.discrete_taylor(np.cos, 0.7, 0.0, 0.25, 3)
    assert val == np.cos(0.7) and r == 0.0
    with pytest.raises(ValueError):
        B.discrete_taylor(np.cos, 0.0, 0.3, 0.2, 1)


def test_asymptotic_product_polynomial_exact():
    # spacing ratios 2 and 3/2 (the CLI's lattices)
    for lam0_t in (0.5, 2.0 / 3.0):
        lat_s = B.RationalLattice(1.0, 0.25)
        lat_t = B.RationalLattice(lam0_t, 0.5)
        sig = B.EquivariantSymbol(lat_s, {0: lambda lam: 1.0 + 0.3 * lam,
                                          1: lambda lam: 0.5 * lam ** 2,
                                          -1: lambda lam: 0.2 - lam})
        tau = B.EquivariantSymbol(lat_t, {0: lambda lam: 2.0 - lam ** 2,
                                          2: lambda lam: 0.4 + lam})
        eps = 0.5
        exact = B.twisted_product(sig.to_bohr_symbol(),
                                  tau.to_bohr_symbol(), eps)
        phi = B.FiniteSupportFn([(0.5 * m, np.exp(1j * m))
                                 for m in range(-3, 4)])
        ref = B.apply_symbol(exact, phi, eps)
        scale = B.sobolev_norm(ref, 0.0, math.inf)
        out = B.apply_symbol(
            B.asymptotic_product(sig, tau, eps, 3).to_bohr_symbol(), phi, eps)
        assert out.norm_diff(ref) < 1e-12 * scale
        # N = 0 term: pointwise product at the shifted offsets
        out0 = B.apply_symbol(
            B.asymptotic_product(sig, tau, eps, 0).to_bohr_symbol(), phi, eps)
        base_s = eps / 2.0 * lat_t.lam0 * lat_t.j0
        base_t = -eps / 2.0 * lat_s.lam0 * lat_s.j0
        lead = {}
        for ms, cs in sig.chat.items():
            for mt, ct in tau.chat.items():
                nu = -(lat_s.point(ms) + lat_t.point(mt))
                fn = (lambda cs=cs, ct=ct: lambda lam: cs(lam + base_s)
                      * ct(lam + base_t))()
                prev = lead.get(nu)
                lead[nu] = fn if prev is None else \
                    (lambda p, t: lambda lam: p(lam) + t(lam))(prev, fn)
        out0b = B.apply_symbol(B.BohrSymbol(lead), phi, eps)
        assert out0.norm_diff(out0b) < 1e-12 * scale


def test_asymptotic_product_gaussian_improves():
    lat_s = B.RationalLattice(1.0, 0.25)
    lat_t = B.RationalLattice(0.5, 0.5)
    sig = B.EquivariantSymbol(lat_s, {0: lambda lam: np.exp(-0.3 * lam ** 2),
                                      1: lambda lam: np.exp(-(lam - 0.5) ** 2)})
    tau = B.EquivariantSymbol(lat_t, {0: lambda lam: np.exp(-0.2 * lam ** 2),
                                      1: lambda lam: 0.5 * np.exp(-lam ** 2)})
    eps = 0.5
    exact = B.twisted_product(sig.to_bohr_symbol(), tau.to_bohr_symbol(), eps)
    phi = B.FiniteSupportFn([(0.5 * m, np.exp(1j * m)) for m in range(-3, 4)])
    ref = B.apply_symbol(exact, phi, eps)
    res = []
    for N in (0, 2, 4):
        out = B.apply_symbol(
            B.asymptotic_product(sig, tau, eps, N).to_bohr_symbol(), phi, eps)
        res.append(out.norm_diff(ref))
    assert res[2] < res[1] < res[0]


def test_young_bound():
    ident = {(0.0, 0.0): 1.0, (1.0, 1.0): 1.0}
    c1, c2 = B.young_bound(ident)
    assert c1 == 1.0 and c2 == 1.0
    phi = B.FiniteSupportFn([(0.0, 1.0), (1.0, 1.0)])
    lhs, bound = B.apply_kernel_norm_check(ident, phi, 2)
    assert abs(lhs - bound) < 1e-14  # equality case
    # rank-1 kernel: C1 = ||a||_inf ||b||_1 pattern
    a = {0.0: 2.0, 1.0: -1.0}
    b = {0.0: 0.5, 0.5: 1.5}
    h = {(la, lb): va * vb for la, va in a.items() for lb, vb in b.items()}
    c1, c2 = B.young_bound(h)
    assert abs(c1 - max(abs(v) for v in a.values())
               * sum(abs(v) for v in b.values())) < 1e-14
    assert abs(c2 - max(abs(v) for v in b.values())
               * sum(abs(v) for v in a.values())) < 1e-14
    # random sparse kernels: inequality with nonnegative slack
    for _ in range(50):
        h = {(float(RNG.integers(-4, 5)) * 0.5,
              float(RNG.integers(-4, 5)) * 0.5):
             complex(*RNG.standard_normal(2)) for _ in range(6)}
        phi = rand_state(B.RationalLattice(0.5), n=4)
        for p in (1, 2, 3, math.inf):
            lhs, bound = B.apply_kernel_norm_check(h, phi, p)
            assert lhs <= bound + 1e-12


def test_sobolev_bound_check():
    lat = B.RationalLattice(1.0, 0.0)
    # |lam| multiplier: m = 1, delta = 0, t = m = 1 admissible
    sig = B.EquivariantSymbol(
        lat, {0: lambda lam: abs(lam)}).to_bohr_symbol()
    sig.m, sig.rho, sig.delta = 1.0, 1.0, 0.0
    states = [rand_state(lat) for _ in range(50)]
    rep = B.sobolev_bound_check(sig, 1.0, 1.0, 2, states)
    assert rep["passed"]
    # sigma == 1: ratio 1 below the constant
    one = B.EquivariantSymbol(lat, {0: lambda lam: 1.0}).to_bohr_symbol()
    rep1 = B.sobolev_bound_check(one, 0.5, 0.0, 2, states)
    assert rep1["passed"] and rep1["empirical_max_ratio"] <= \
        rep1["theoretical_constant"]
    # random equivariant symbol with Gaussian coefficients
    sig2 = B.EquivariantSymbol(lat, {
        0: lambda lam: np.exp(-0.2 * lam ** 2),
        1: lambda lam: 0.5 * np.exp(-0.1 * lam ** 2),
        -2: lambda lam: 0.25 * np.exp(-0.3 * lam ** 2)}).to_bohr_symbol()
    sig2.m, sig2.rho, sig2.delta = 0.0, 1.0, 0.0
    rep2 = B.sobolev_bound_check(sig2, 1.0, 0.0, 2, states)
    assert rep2["passed"]
    # infeasible (s, t, r): explicit error
    bad = B.EquivariantSymbol(lat, {0: lambda lam: 1.0}).to_bohr_symbol()
    bad.m, bad.rho, bad.delta = 2.0, 0.0, 1.0
    with pytest.raises(ValueError):
        B.sobolev_bound_check(bad, 0.0, 0.0, 2, states)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-6, 6),
                          st.floats(-2, 2, allow_nan=False),
                          st.floats(-2, 2, allow_nan=False)),
                min_size=1, max_size=6))
def test_sobolev_monotone_property(entries):
    phi = B.FiniteSupportFn([(0.4 * m, complex(re, im))
                             for m, re, im in entries])
    n21 = B.sobolev_norm(phi, 2.0, 1)
    n11 = B.sobolev_norm(phi, 1.0, 1)
    n22 = B.sobolev_norm(phi, 2.0, 2)
    assert n11 <= n21 + 1e-12
    assert n22 <= n21 + 1e-12


def test_boundary_keys_mean_and_young():
    # keys are exact rationals: sums of lattice points coincide exactly,
    # also on a spacing at a 7-digit rounding boundary
    lat = B.RationalLattice(0.12345675)
    s = lat.point(3) + lat.point(-2)
    assert s == lat.point(1)
    assert B.bohr_mean({lat.point(1): 1.0}, {s: 1.0}) == 1.0
    assert B.young_bound({(lat.point(1), 0.0): 1.0,
                          (s, 1.0): 1.0}) == (2.0, 1.0)
    # distinct floats are distinct frequencies, however close
    a, b = 0.12345675 + 3e-12, 0.12345675 - 3e-12
    assert B.bohr_mean({a: 1.0}, {b: 1.0}) == 0.0
