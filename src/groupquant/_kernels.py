"""Hot numeric kernels, vectorized over their grid argument in numpy.

wigner_d_grid takes Wigner small-d from the spectrum of J_y, whose
J_+ ladder `_raising` also gives `wigner.angular_momentum`;
su2_norm_series, the one SU(2) heat-kernel series, and itn_denominator, the
m-sum of Table 1's integrand in its Poisson-dual form, are the series behind
the heat-kernel coherent-state tables; each docstring states its length
rule. tests/test_kernels.py checks each one against an independent oracle.
`_gauss_legendre` is the one cached source of Gauss-Legendre rules for the
quadratures of the package.
"""

import functools
import math

import numpy as np

# largest t for which itn_denominator is checked against 40-digit m-sums
ITN_T_MAX = 16.0


def _raising(twoj):
    """J_+ in the m = j..-j basis: J_+ |j m> = sqrt((j - m)(j + m + 1)) |j m+1>,
    the entry at (k - 1, k) being sqrt(k (2j + 1 - k))."""
    k = np.arange(1, twoj + 1)
    return np.diag(np.sqrt(k * (twoj + 1.0 - k)), 1)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    """The n-point Gauss-Legendre rule (nodes, weights) on [-1, 1], built
    once per n as read-only arrays. numpy.polynomial is imported on first
    use: importing it with this module would cost every importer."""
    from numpy.polynomial.legendre import leggauss
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


# spins whose J_y eigenbases stay cached: a benchmark pass reads at most 8;
# an OrbitSpec reads its own spin's only, for d(beta)
_JY_CACHE = 64


@functools.lru_cache(maxsize=_JY_CACHE)
def _jy_eigh(twoj):
    """(lambda, V) with J_y = V diag(lambda) V^*; lambda is exactly m = -j..j.
    The _JY_CACHE most recently used spins are kept."""
    jp = _raising(twoj)
    _, V = np.linalg.eigh((jp - jp.T) / 2j)
    lam = np.arange(-twoj, twoj + 1, 2) / 2.0
    lam.flags.writeable = V.flags.writeable = False
    return lam, V


def wigner_d_grid(twoj, beta):
    """Wigner small-d on a beta grid, d(beta) = exp(-i beta J_y) =
    V exp(-i beta Lambda) V^* from the spectrum of J_y (Feng, Wang, Yang &
    Jin, Phys. Rev. E 92, 043307 (2015)), evaluated once per distinct beta.

    out[b, i, col] = d^j_{m_i m_col}(beta_b), m ordered j, j-1, ..., -j.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    lam, V = _jy_eigh(twoj)
    nodes, inverse = np.unique(beta, return_inverse=True)
    phase = np.exp(-1j * np.multiply.outer(nodes, lam))
    d = ((V * phase[:, None, :]) @ V.conj().T).real
    return d[inverse.ravel()]


def itn_denominator(p, t):
    """S(p) = sum_m m e^{-(p - t m/2)^2 / t} over all integers m, by its
    Poisson dual (the Fourier transform of x e^{-(p - t x/2)^2/t}):

    S(p) = sqrt(4 pi/t) (2/t) [p + 2 sum_{k >= 1} q^{k^2} (p cos(4 pi k p/t)
    - 2 pi k sin(4 pi k p/t))], q = e^{-4 pi^2/t}.

    Every term is odd in p and, as |sin y| <= |y|, at most |p| (1 + 2 x_k)
    in modulus, x_k = 4 pi^2 k^2/t: near p = 0 the terms are of the order
    of the value, where the m-sum cancels +-m terms of size e^{-t m^2/4}
    down to it. Length rule: the sum runs to K = floor(sqrt(48 t)/(2 pi)) + 1
    (2-4 terms for 1 <= t <= 8). Every omitted k has x_k > 48, so the
    omitted part of the bracket is at most 2 sum_{k > K} (1 + 2 x_k)
    e^{-x_k} |p| < 3e-21 sqrt(t) |p|, against its k = 0 term p.

    Range: within 1e-14 relative of 40-digit m-sums for t <= ITN_T_MAX = 16.
    Above it the bracket cancels more and more digits: 1.7e-14 at t = 32,
    1.6e-11 at 64, 7.0e-5 at 128 on the same points.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float)).ravel()
    t = float(t)
    k = np.arange(1.0, int(math.sqrt(48.0 * t) / (2.0 * math.pi)) + 2)
    theta = np.multiply.outer(p, 4.0 * math.pi * k / t)
    dual = ((p[:, None] * np.cos(theta) - 2.0 * math.pi * k * np.sin(theta))
            @ np.exp(-4.0 * math.pi ** 2 * k * k / t))
    return math.sqrt(4.0 * math.pi / t) * (2.0 / t) * (p + 2.0 * dual)


def _su2_characters(mu, nmax):
    """(phase_n, s_n), n = 1..nmax on a new first axis: chi_n(mu) =
    sinh(n mu)/sinh(mu) = e^{(n-1)|Re mu|} phase_n s_n. mu is reduced by
    i pi k (k nearest Im mu / pi), as chi_n(mu + i pi k) = (-1)^{k(n-1)}
    chi_n(mu), and folded to Re delta = |Re mu| (chi_n is even): s_n =
    (-1)^{k(n-1)} sum_{j<n} e^{-2 j delta} has terms of modulus <= 1, no
    division and no limit at mu = 0 or i pi; phase_n = e^{i(n-1) Im delta}.
    Each exponential is the product of those of j hi and j lo, delta = hi +
    lo with hi on 26 bits (Veltkamp), both exact: the rounding of j delta,
    which grows with j, does not enter. Real mu stays real."""
    mu = np.asarray(mu)
    j = np.arange(nmax, dtype=float).reshape((-1,) + (1,) * mu.ndim)
    if np.iscomplexobj(mu):
        k = np.rint(mu.imag / np.pi)
        delta = mu - 1j * np.pi * k
        delta = np.where(delta.real < 0, -delta, delta)
        sign = 1.0 - 2.0 * (k * j % 2)
    else:
        delta, sign = np.abs(mu.astype(float)), 1.0
    hi = 134217729.0 * delta
    hi = hi - (hi - delta)
    lo = delta - hi
    s = sign * np.cumsum(np.exp(-2.0 * j * hi) * np.exp(-2.0 * j * lo), axis=0)
    if np.iscomplexobj(mu):
        return np.exp(1j * j * hi.imag) * np.exp(1j * j * lo.imag), s
    return 1.0, s


def su2_norm_series(mu, t):
    """sum_{n >= 1} n e^{-t (n^2 - 1)/4} chi_n(mu), chi_n(mu) =
    sinh(n mu)/sinh(mu), over an array of real or complex mu: the SU(2)
    heat kernel rho_{2t} at the element with eigenvalues e^{+-mu}.

    With the characters of `_su2_characters`, a = |Re mu|, c = 2a/t and
    C = (a - t/2)^2/t >= 0, the weights are n e^{-t(n^2-1)/4 + (n-1)a} =
    n e^{-t(n - c)^2/4} e^C: the first factor is at most n, and the value is
    e^{log(sum) + C}, so nothing overflows before the value does (beyond the
    double range it is inf, in its phase when complex). Length rule: the sum
    runs to N = floor(max c + 2 sqrt(L/t)) + 2, L = 40; as |s_n| <= n, every
    term past N obeys |term_n| <= n^2 e^{C - L - (n - N) sqrt(L t)}, with
    e^{-40} = 4.2e-18.
    """
    mu = np.atleast_1d(np.asarray(mu))
    t = float(t)
    a = np.abs(mu.real)
    nmax = int(2.0 * a.max(initial=0.0) / t + 2.0 * math.sqrt(40.0 / t)) + 2
    phase, s = _su2_characters(mu, nmax)
    n = np.arange(1.0, nmax + 1).reshape((-1,) + (1,) * mu.ndim)
    w = np.exp(np.log(n) - t * (n - 2.0 * a / t) ** 2 / 4.0)
    total = np.sum(w * phase * s, axis=0)
    with np.errstate(over="ignore"):
        return np.exp(np.log(total) + (a - t / 2.0) ** 2 / t)
