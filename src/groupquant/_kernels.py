"""Hot numeric kernels, vectorized over their grid argument in numpy.

wigner_d_grid takes Wigner small-d from the spectrum of J_y, whose
J_+ ladder `_raising` also gives `wigner.angular_momentum`;
itn_denominator and su2_norm_series are the truncated series behind the
heat-kernel coherent-state tables. tests/test_kernels.py checks each one
against an independent oracle. `_gauss_legendre` is the one cached source
of Gauss-Legendre rules for the quadratures of the package.
"""

import functools

import numpy as np


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


@functools.lru_cache(maxsize=None)
def _jy_eigh(twoj):
    """(lambda, V) with J_y = V diag(lambda) V^*; lambda is exactly m = -j..j."""
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


# (nodes x m) entries per temporary of itn_denominator: 128 KB of float64,
# so a refinement level adds no more than about 0.5 MB to the peak RSS
_BLOCK = 1 << 14


def itn_denominator(p, t, mmax):
    """S(p) = sum_{m != 0, |m| <= mmax} m exp(-(p - t m/2)^2 / t).

    The terms +-m are paired, S(p) = sum_{m=1}^{mmax} m (e^{-(p - tm/2)^2/t}
    - e^{-(p + tm/2)^2/t}), and contracted over m by one matrix-vector
    product: one vectorised call for all nodes of a quadrature level,
    processed in blocks of nodes so that the (nodes x m) temporaries hold
    at most _BLOCK entries.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float)).ravel()
    t, mmax = float(t), int(mmax)
    m = np.arange(1, mmax + 1, dtype=float)
    shift = 0.5 * t * m
    out = np.empty(p.shape[0])
    step = max(1, _BLOCK // max(mmax, 1))
    for lo in range(0, p.shape[0], step):
        pb = p[lo:lo + step, None]
        out[lo:lo + step] = (np.exp(-(pb - shift) ** 2 / t)
                             - np.exp(-(pb + shift) ** 2 / t)) @ m
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
