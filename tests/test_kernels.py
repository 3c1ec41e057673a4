"""_kernels against independent oracles (scipy expm and direct sums)."""

import math

import mpmath
import numpy as np
from scipy.linalg import expm

from groupquant import _kernels as K
from groupquant.wigner import su2_generator


def test_wigner_kernel_oracle():
    beta = np.array([0.0, 0.31, 1.2, np.pi])
    for twoj in (1, 2, 5, 12, 32, 64, 128, 256):
        d = K.wigner_d_grid(twoj, beta)
        for i, b in enumerate(beta):
            ref = expm(b * su2_generator(twoj, 1)).real
            assert np.abs(d[i] - ref).max() < 1e-12
            assert np.abs(d[i] @ d[i].T - np.eye(twoj + 1)).max() < 1e-12


def _itn_denominator_sum(p, t):
    """sum_m m e^{-(p - t m/2)^2/t} in floats over every m whose exponent
    is above -40: |m| <= 2 max|p|/t + 2 sqrt(40/t) + 2."""
    mmax = int(2.0 * np.abs(p).max() / t + 2.0 * math.sqrt(40.0 / t)) + 2
    return sum(m * np.exp(-(p - t * m / 2.0) ** 2 / t)
               for m in range(-mmax, mmax + 1))


def test_itn_denominator_oracle():
    p = np.array([0.4, 1.7])
    ref = _itn_denominator_sum(p, 1.3)
    assert np.abs(K.itn_denominator(p, 1.3) - ref).max() < 1e-14
    # p of both signs, S odd in p
    for t in (0.3, 1.0):
        p = np.linspace(-14.0, 16.0, 801)
        ref = _itn_denominator_sum(p, t)
        val = K.itn_denominator(p, t)
        assert np.abs(val - ref).max() < 1e-14 * np.abs(ref).max()
        assert np.array_equal(K.itn_denominator(-p, t), -val)


def _itn_denominator_mp(p, t):
    """sum_m m e^{-(p - t m/2)^2/t} at 40 digits over every m whose
    exponent is above -60."""
    mmax = int(2.0 * abs(p) / t + 2.0 * math.sqrt(60.0 / t)) + 2
    with mpmath.workdps(40):
        p, t = mpmath.mpf(p), mpmath.mpf(t)
        return mpmath.fsum(m * mpmath.exp(-(p - t * m / 2) ** 2 / t)
                           for m in range(-mmax, mmax + 1))


def test_itn_denominator_mp_oracle():
    # next to p = 0 the m-sum pairs +-m terms of size e^{-t m^2/4} into a
    # value of order p: the dual form keeps every digit there
    # up to ITN_T_MAX, the range resolution_integral_su2 accepts
    for t in (0.3, 1.0, 4.0, 8.0, K.ITN_T_MAX):
        p = np.array([1e-6, -1e-6, 1e-3, -1e-3, 0.37, -1.9, 2.3 * t,
                      -3.1 * t, 4.7 * t, 5.0 * t, -5.0 * t])
        ref = np.array([float(_itn_denominator_mp(x, t)) for x in p])
        val = K.itn_denominator(p, t)
        assert (np.abs(val - ref) / np.abs(ref)).max() < 1e-14


def _norm_series_mp(mu, t):
    """(value, sum of |terms|) of sum_n n e^{-t(n^2-1)/4} sinh(n mu)/sinh(mu)
    at 40 digits; where sinh(mu) vanishes chi_n is its limit
    n cosh(n mu)/cosh(mu)."""
    with mpmath.workdps(40):
        mu = mpmath.mpc(mu)
        s = mpmath.sinh(mu)

        def chi(n):
            if abs(s) > 1e-30:
                return mpmath.sinh(n * mu) / s
            return n * mpmath.cosh(n * mu) / mpmath.cosh(mu)

        def term(n):
            return n * mpmath.exp(-t * (n * n - 1) / 4) * chi(n)

        return (mpmath.nsum(term, [1, mpmath.inf]),
                mpmath.nsum(lambda n: abs(term(n)), [1, mpmath.inf]))


def test_norm_series_oracle():
    # real h (0 is the limit chi_n = n), complex mu, the antipode i pi, and
    # h = 20 at t = 1, where sinh(n h) alone overflows past n = 35
    cases = [(1.3, 0.8), (0.0, 0.8), (0.7, 3.0), (20.0, 1.0),
             (0.3 + 2.9j, 0.4), (-1.2 - 7.0j, 0.6), (2.1 + 0.4j, 0.32),
             (1j * math.pi, 0.5), (1j * math.pi, 0.3)]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for mu, t in cases:
            ref, scale = _norm_series_mp(mu, t)
            val = K.su2_norm_series(np.array([mu]), t)[0]
            assert abs(val - complex(ref)) <= 1e-14 * float(scale)
            assert np.isrealobj(val) == isinstance(mu, float)
        # an array of points gives the values of the points one by one
        h = np.array([1.3, 0.0, 0.7, -1.3])
        one = [K.su2_norm_series(np.array([x]), 0.8)[0] for x in h]
        assert np.allclose(K.su2_norm_series(h, 0.8), one,
                           rtol=1e-15, atol=0.0)
        # h = 20 at t = 0.5: the sum is 2.6e341, beyond the double range;
        # it comes back as inf with no intermediate overflow
        ref, _ = _norm_series_mp(20.0, 0.5)
        assert ref.real > 100 * mpmath.mpf(np.finfo(float).max)
        assert K.su2_norm_series(np.array([20.0]), 0.5)[0] == np.inf


def _su2_characters_mp(mu, nmax):
    """[(chi_n(mu), sum of |terms|)] for n = 1..nmax, chi_n = sum_{j<n}
    e^{(n-1-2j) mu}, at 30 digits."""
    with mpmath.workdps(30):
        mu = mpmath.mpc(mu)
        e = {k: mpmath.exp(k * mu) for k in range(1 - nmax, nmax)}
        terms = [[e[n - 1 - 2 * j] for j in range(n)]
                 for n in range(1, nmax + 1)]
        return [(mpmath.fsum(t), mpmath.fsum(abs(x) for x in t))
                for t in terms]


def test_su2_characters_mp_oracle():
    # real, imaginary and complex mu with |Re mu| <= 15, |Im mu| <= 10, and
    # the removable singularities of sinh(n mu)/sinh(mu) at 0 and i pi k
    rng = np.random.default_rng(1504)
    re, im = rng.uniform(-15, 15, 20), rng.uniform(-10, 10, 20)
    cases = [0.0, 1e-9, 0.4, 1.8, 5.0, 1j * math.pi, 1e-9 + 1j * math.pi,
             -1e-9 + 2j * math.pi, *re, *(1j * im),
             *(re + 1j * rng.uniform(-10, 10, 20))]
    nmax = 40
    for mu in cases:
        phase, s = K._su2_characters(mu, nmax)
        assert np.isrealobj(s) == isinstance(mu, float)
        n = np.arange(1, nmax + 1)
        chi = np.exp((n - 1) * abs(mu.real)) * phase * s
        for got, (ref, scale) in zip(chi, _su2_characters_mp(mu, nmax)):
            assert abs(got - complex(ref)) <= 1e-13 * float(scale)
    # the antipode, where sinh(mu) vanishes: chi_n = n (-1)^{n-1}
    phase, s = K._su2_characters(1j * math.pi, nmax)
    n = np.arange(1, nmax + 1)
    assert np.all(np.abs(phase * s - n * (-1.0) ** (n - 1)) <= 1e-14 * n)


def test_gauss_legendre_cached_rule():
    from numpy.polynomial.legendre import leggauss
    for n in (1, 14, 24, 80, 220):
        x, w = K._gauss_legendre(n)
        ref_x, ref_w = leggauss(n)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        assert not x.flags.writeable and not w.flags.writeable
        assert K._gauss_legendre(n)[0] is x
