"""Hot numeric kernels, vectorized over their grid argument in numpy.

wigner_d_grid sums the factored Wigner small-d formula in log-factorials;
itn_denominator and su2_norm_series are the truncated series behind the
heat-kernel coherent-state tables. tests/test_kernels.py checks each one
against an independent oracle.
"""

import math

import numpy as np


def _logfact_table(nmax):
    t = np.zeros(nmax + 1)
    for n in range(2, nmax + 1):
        t[n] = t[n - 1] + math.log(n)
    return t


def wigner_d_grid(twoj, beta):
    """Wigner small-d on a beta grid: stable factored sum with log-factorials.

    out[b, i, col] = d^j_{m_i m_col}(beta_b), m ordered j, j-1, ..., -j.
    """
    beta = np.ascontiguousarray(np.atleast_1d(np.asarray(beta, dtype=float)))
    logfact = _logfact_table(2 * twoj + 1)
    n = twoj + 1
    nb = beta.shape[0]
    out = np.zeros((nb, n, n))
    c = np.cos(beta / 2.0)
    s = np.sin(beta / 2.0)
    for i in range(n):
        two_mp = twoj - 2 * i
        for col in range(n):
            two_m = twoj - 2 * col
            jpm = (twoj + two_m) // 2
            jmm = (twoj - two_m) // 2
            jpmp = (twoj + two_mp) // 2
            jmmp = (twoj - two_mp) // 2
            lognorm = 0.5 * (logfact[jpm] + logfact[jmm]
                             + logfact[jpmp] + logfact[jmmp])
            diff = (two_mp - two_m) // 2
            kmin = max(0, -diff)
            kmax = min(jpm, jmmp)
            acc = np.zeros(nb)
            for kk in range(kmin, kmax + 1):
                pcos = jpm + jmmp - 2 * kk
                psin = diff + 2 * kk
                logden = (logfact[jpm - kk] + logfact[kk]
                          + logfact[jmmp - kk] + logfact[diff + kk])
                sign = -1.0 if (diff + kk) % 2 else 1.0
                acc += sign * math.exp(lognorm - logden) \
                    * c ** pcos * s ** psin
            out[:, i, col] = acc
    return out


def itn_denominator(p, t, mmax):
    """S(p) = sum_{m != 0, |m| <= mmax} m exp(-(p - t m/2)^2 / t)."""
    p = np.ascontiguousarray(np.atleast_1d(np.asarray(p, dtype=float)))
    t, mmax = float(t), int(mmax)
    out = np.zeros(p.shape[0])
    for m in range(-mmax, mmax + 1):
        if m == 0:
            continue
        d = p - 0.5 * t * m
        out += m * np.exp(-d * d / t)
    return out


def su2_norm_series(h, t, nmax):
    """sum_n n e^{-t (n^2 - 1)/4} sinh(n h)/sinh(h), stable for small and
    large h."""
    h = np.ascontiguousarray(np.atleast_1d(np.asarray(h, dtype=float)))
    t = float(t)
    ha = np.abs(h)
    small = ha < 1e-6
    out = np.zeros(h.shape[0])
    ns = np.arange(1, int(nmax) + 1)
    if small.any():
        hs = ha[small]
        w = ns * np.exp(-t * (ns * ns - 1) / 4.0)
        out[small] = np.einsum(
            "n,nk->k", w * ns,
            1.0 + np.outer(ns * ns - 1, hs * hs) / 6.0)
    big = ~small
    if big.any():
        hb = ha[big]
        lw = (np.log(ns)[:, None] - (t * (ns * ns - 1) / 4.0)[:, None]
              + np.outer(ns - 1, hb))
        ratio = (1.0 - np.exp(-2.0 * np.outer(ns, hb))) \
            / (1.0 - np.exp(-2.0 * hb))[None, :]
        out[big] = np.einsum("nk->k", np.exp(lw) * ratio)
    return out
