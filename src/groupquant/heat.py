"""Heat kernels, coherent-state overlaps and resolution-of-unity integrals.

Complexified points are handled through the right polar decomposition
z = g e^{iX}. Overlaps reduce to the analytically continued heat kernel
rho_{2t}(z'^{-1} zbar), whose SU(2) characters are sinh(n mu)/sinh(mu) in
the complex torus parameter mu. On SU(2) only cosh(mu) = tr(z^dag z')/2
enters, and it is taken in closed form from the quaternions of g, g' and
from X, X', with no 2x2 matrix: each of its terms is written so that
swapping z and z' gives its exact conjugate. cmath.acosh and the norm
series take conjugate arguments to conjugate values, so the SU(2) overlaps
are exactly Hermitian: coherent_overlap(w, z) is conj(coherent_overlap(z,
w)) to the last bit.

Each group has one heat-kernel series: theta3 on U(1), rho_t(phi) =
theta3(phi/2pi | it/2pi), which also gives the U(1) overlaps and, on arrays
of quadrature nodes, the denominator of the resolution integrand; and
`_kernels.su2_norm_series` on SU(2), whose docstring states its i pi
reduction of mu, its length rule and tail bound.

All group integrals use the probability Haar measure. The resolution-of-
unity constants are stated in that convention: the U(1) phase-space
constant satisfies C_t^{-1} = t. The SU(2) integral I(t, n) divides by the
m-sum of `_kernels.itn_denominator`, evaluated in its Poisson-dual form
over k: the k = 0 term alone gives exactly t^3 n / 8, and the k >= 1
terms, of order e^{-4 pi^2 k^2 / t}, make the deviation that `table1`
prints (5.7e-8 relative at (t, n) = (4, 1), 3.4e-4 at (8, 1)).

`schur_residual_su2` folds the radial integral of the SU(2) resolution
operator into one diagonal R; the angular integral of D(g_theta) diag(R)
D(g_theta)^* keeps only its diagonal, a Gauss-Legendre sum in cos beta of
Wigner small-d squared against R.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import groups as G
from ._kernels import (ITN_T_MAX, _gauss_legendre, itn_denominator,
                       su2_norm_series, wigner_d_grid)
from .theta import theta3, theta3_dz


class QuadratureConvergenceError(RuntimeError):
    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True)
class HeatParams:
    group: str
    t: float

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("heat time must be positive")


@dataclass(frozen=True)
class PolarPoint:
    """Point Phi(g, X) = g e^{iX} of the complexified group."""
    group: str
    g: object = None          # GroupElement
    X: object = None          # float (U1) or 3-vector (SU2)

    @staticmethod
    def u1(phi, l):
        return PolarPoint(G.U1, G.GroupElement.u1(phi), float(l))

    @staticmethod
    def su2(q, X):
        return PolarPoint(G.SU2, G.GroupElement.su2(q), np.asarray(X, float))


def _su2_half_trace(z, zp):
    """cosh(mu) = tr(z^dag z')/2 for z = g e^{iX}, z' = g' e^{iX'}, from the
    quaternions and X as Python floats.

    With r = conj(q) q' (U(q)^dag U(q') = U(r)), c = cosh(h/2) and s =
    sinh(h/2)/h (1/2 at h = |X| = 0), and the same primed for z':
    tr(z^dag z')/2 = c c' r0 + s s' (r0 X.X' + r.(X' x X))
    - i (c s' r.X' + s c' r.X). Swapping z and z' negates r's vector part
    and the triple product exactly, so every term is the exact conjugate."""
    q0, q1, q2, q3 = (float(v) for v in z.g.quat)
    p0, p1, p2, p3 = (float(v) for v in zp.g.quat)
    r0 = q0 * p0 + (q1 * p1 + q2 * p2 + q3 * p3)
    r1 = (q0 * p1 - p0 * q1) - (q2 * p3 - q3 * p2)
    r2 = (q0 * p2 - p0 * q2) - (q3 * p1 - q1 * p3)
    r3 = (q0 * p3 - p0 * q3) - (q1 * p2 - q2 * p1)
    x1, x2, x3 = (float(v) for v in z.X)
    y1, y2, y3 = (float(v) for v in zp.X)

    def cosh_sinhc(h):
        return math.cosh(h / 2.0), (math.sinh(h / 2.0) / h if h else 0.5)

    c, s = cosh_sinhc(math.hypot(x1, x2, x3))
    cp, sp = cosh_sinhc(math.hypot(y1, y2, y3))
    dot = x1 * y1 + x2 * y2 + x3 * y3
    triple = (r1 * (y2 * x3 - y3 * x2) + r2 * (y3 * x1 - y1 * x3)
              + r3 * (y1 * x2 - y2 * x1))
    im = (c * sp * (r1 * y1 + r2 * y2 + r3 * y3)
          + s * cp * (r1 * x1 + r2 * x2 + r3 * x3))
    return complex(c * cp * r0 + s * sp * (r0 * dot + triple), -im)


def coherent_overlap(params, z, zp):
    """(Psi_z, Psi_z') = rho_{2t}((z^dag z')^{-1}), analytically continued.

    The bar in the heat-kernel identity is the antiholomorphic extension of
    the identity map of G, so z'^{-1} zbar = (z^dag z')^{-1} with the plain
    matrix adjoint; at z = z' this is e^{-2iX} and the norm series results.
    On SU(2), z^dag z' is in SL(2, C), so it and its inverse share the
    trace 2 cosh(mu); the series is even in mu and holds at mu = i pi. mu
    is cmath.acosh of the closed-form half trace `_su2_half_trace`, so
    coherent_overlap(w, z) is exactly conj(coherent_overlap(z, w)). The
    half trace is real at X = X' = 0 and at g' = +-g, and so is the
    overlap, a real polynomial in it: the series' imaginary rounding there,
    of the same sign in both orders, is dropped.
    """
    t = params.t
    if params.group == G.U1:
        phi, l = z.g.angle, float(z.X)
        phip, lp = zp.g.angle, float(zp.X)
        # sum_j e^{-t j^2} e^{i j (phi' - phi)} e^{-j (l + l')}
        zz = ((phip - phi) + 1j * (l + lp)) / (2 * math.pi)
        return theta3(zz, 1j * t / math.pi)
    ch = _su2_half_trace(z, zp)
    val = su2_norm_series(cmath.acosh(ch), t)[0]
    return val if ch.imag else val.real + 0j


def su2_overlap_norm(t, h):
    """|Psi_{Phi(g, X)}|^2 for |X| = h: sum_n n e^{-t(n^2-1)/4} sinh(nh)/sinh(h)."""
    return float(su2_norm_series(float(h), t)[0])


# ---------------------------------------------------------------------------
# U(1) resolution constant
# ---------------------------------------------------------------------------

def _panel_gl(f, levels):
    """Composite 24-point Gauss-Legendre value of each level, a list of
    segments (a, b, n_panels) of n_panels equal panels of [a, b]: the sum of
    its segments' values, in order. The panels of every segment come from
    one vectorised construction, with np.linspace's edges i (b - a)/n_panels
    + a (b last), and f is called once, on all of their 24 nodes each. Each
    segment is summed on its own rows, as one level alone would be: one
    matrix product over every panel rounds some panel sums differently."""
    x, w = _gauss_legendre(24)
    segments = [seg for level in levels for seg in level]
    a, b, n = (np.array(v) for v in zip(*segments))
    start = np.cumsum(n) - n
    seg = np.repeat(np.arange(len(segments)), n)
    i = np.arange(n.sum()) - start[seg]
    step = ((b - a) / n)[seg]
    left = i * step + a[seg]
    right = np.where(i + 1 < n[seg], (i + 1) * step + a[seg], b[seg])
    mid, half = (left + right) / 2.0, (right - left) / 2.0
    vals = f((mid[:, None] + half[:, None] * x).ravel()).reshape(-1, 24)
    sums = iter([half[j:j + k] @ (vals[j:j + k] @ w)
                 for j, k in zip(start, n)])
    return [sum(next(sums) for _ in level) for level in levels]


def _level_values(f, levels):
    """The value of each level in turn, for `_refined`: the first two
    levels, which every refinement reads, share one `_panel_gl` call; each
    later level makes its own."""
    yield from _panel_gl(f, levels[:2])
    for level in levels[2:]:
        yield from _panel_gl(f, [level])


def _refined(levels, tol, what):
    """The first value of levels within tol (relative above 1) of the one
    before it; QuadratureConvergenceError with the last difference if none."""
    prev = math.inf
    for val in levels:
        diff, prev = abs(val - prev), val
        if diff <= tol * max(1.0, abs(val)):
            return val
    raise QuadratureConvergenceError(
        "%s quadrature did not converge" % what, diff)


def resolution_constant_u1(t):
    """C_t^{-1} = sqrt(t/pi) int e^{-l^2/t} / theta3(l/t | i pi/t) dl.

    Numerically C_t^{-1} = t. The integrand is sqrt(pi/t) times the k = 0
    piece of the Gaussian partition of unity e^{-l^2/t} / sum_k
    e^{-(l - k t)^2/t}: near sqrt(pi/t) out to |l| ~ t/2, where it falls to
    0 within O(1) in l. The window |l| <= t/2 + 9 sqrt(t) covers that fall,
    and the panel counts grow with it so that the finest level's panels are
    at most 4 long. Adaptive panel refinement until two levels agree to
    1e-8 (relative above 1); raises QuadratureConvergenceError with the
    achieved difference on failure, and with an infinite one where theta3
    underflows to 0 (e^{-t/4} at |l| = t/2, for t above about 2980).
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError("C_t needs a finite t > 0; got t = %r" % t)
    width = t / 2.0 + 9.0 * math.sqrt(t)
    scale = max(1, math.ceil(width / 256.0))

    def f(l):
        den = theta3(l / t, 1j * math.pi / t).real
        if not den.all():
            raise QuadratureConvergenceError(
                "resolution integrand is 0/0 in double precision", math.inf)
        return np.exp(-l * l / t) / den

    levels = [[(-width, width, scale * n_panels)]
              for n_panels in (8, 16, 32, 64, 128)]
    return _refined((math.sqrt(t / math.pi) * val
                     for val in _level_values(f, levels)),
                    1e-8, "resolution constant")


# ---------------------------------------------------------------------------
# SU(2) resolution integral I(t, n)
# ---------------------------------------------------------------------------

def itn_theta_integrand(p, t, n):
    """Complex integrand of I(t, n) through the theta'-denominator, at a
    scalar or an array of p.

    Normalized so the integral reproduces the tabulated values t^3 n / 8:
    with the standard theta3 convention, e^{-p^2/t} theta3'(p/(2 pi i) |
    i t/(4 pi)) = 2 pi i sum_m m e^{-(p - t m/2)^2 / t}, so the prefactor
    is 2 pi i rather than the 2i of a convention that scales z by pi.
    """
    num = 2j * math.pi * p * p * np.exp(-(p - t * n / 2.0) ** 2 / t)
    den = theta3_dz(p / (2j * math.pi), 1j * t / (4 * math.pi)) \
        * np.exp(-p * p / t)
    return num / den


def resolution_integral_su2(t, n, return_imag_residual=False):
    """I(t, n) = int p^2 e^{-(p - tn/2)^2/t} / sum_m m e^{-(p - tm/2)^2/t} dp.

    The k = 0 term of the denominator's Poisson dual (itn_denominator)
    alone gives t^3 n / 8; the value differs from it by the k >= 1 terms.
    The real form of the integrand is the fast path: the levels of 16 and
    32 panels, which every refinement reads, take their Gauss-Legendre
    nodes on both sides of p = 0 from one `_panel_gl` call and their
    denominators from one vectorised itn_denominator call; each later level
    makes one call of its own. The imaginary residual is measured from the
    complex theta3' form on a sample of nodes. The adaptive refinement
    stops when two levels agree to 1e-9 (relative above 1); when no two of
    its levels agree it raises QuadratureConvergenceError with the last
    difference. t must be at most ITN_T_MAX = 16, the range over which
    itn_denominator is checked; above it ValueError.
    """
    if not (math.isfinite(t) and t > 0 and n >= 1):
        raise ValueError("I(t, n) needs a finite t > 0 and n >= 1; got "
                         "t = %r, n = %r" % (t, n))
    if t > ITN_T_MAX:
        raise ValueError("I(t, n) needs t <= %g, where its denominator is "
                         "accurate; got t = %r" % (ITN_T_MAX, t))
    center = t * n / 2.0
    width = 13.0 * math.sqrt(t)
    lo, hi = center - width, center + width

    def f(p):
        return p * p * np.exp(-(p - center) ** 2 / t) / itn_denominator(p, t)

    def level(npan):
        # keep p = 0 a panel edge: the integrand has a removable point there
        if lo < 0.0 < hi:
            k = max(1, int(round(npan * (0.0 - lo) / (hi - lo))))
            return [(lo, 0.0, k), (0.0, hi, npan - k + 1)]
        return [(lo, hi, npan)]

    levels = [level(npan) for npan in (16, 32, 64, 128)]
    val = _refined(_level_values(f, levels), 1e-9, "I(t,n)")
    if not return_imag_residual:
        return val
    sample = np.linspace(center - 2 * math.sqrt(t), center + 2 * math.sqrt(t), 7)
    vals = itn_theta_integrand(sample[np.abs(sample) > 1e-6 * math.sqrt(t)],
                               t, n)
    resid = np.abs(vals.imag).max() / np.abs(vals.real).max()
    return val, resid


# ---------------------------------------------------------------------------
# Schur property of the phase-space resolution operator (SU(2))
# ---------------------------------------------------------------------------

def schur_residual_su2(t, n):
    """Numerically integrated resolution operator on the irrep n and its
    deviation from a multiple of the identity.

    A = int_g dX rho_{2t}(e^{-2iX})^{-1} pi_n(e^{2iX}), X = h nhat: the 80
    Gauss-Legendre radial nodes fold into R[m] = sum_r w_r h_r^2 e^{2 h_r m}
    / N(h_r), N the norm series; then A = int_{S^2} D(g_theta) diag(R)
    D(g_theta)^* dtheta, whose alpha integral keeps the diagonal: A =
    diag(2 pi sum_b w_b sum_m d_km(beta_b)^2 R[m]), by the (n + 1)-point
    Gauss-Legendre rule in cos beta, exact for d_km^2, of degree n - 1.
    Returns (A, residual), residual = ||A - (tr A / n) 1||_F / |tr A|.

    Schur's lemma makes A a multiple of 1 whatever R is, so the residual
    sees the angular half only; the radial half is the multiple, tr A / n =
    4 pi e^{t (n^2 - 1) / 4} I(t, n) / n, I = `resolution_integral_su2`.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("require an integer n >= 1; got n = %r" % (n,))
    if not t > 0:
        raise ValueError("require t > 0; got t = %r" % (t,))
    h_max = t * n / 2.0 + 12.0 * math.sqrt(t) + 2.0
    x, wx = _gauss_legendre(80)
    h = (x + 1.0) * h_max / 2.0
    wh = wx * h_max / 2.0
    m = np.arange(n - 1, -n, -2) / 2.0
    R = (h * h * wh / su2_norm_series(h, t)) @ np.exp(2.0 * np.outer(h, m))
    c, wc = _gauss_legendre(n + 1)
    d = wigner_d_grid(n - 1, np.arccos(c))
    diag = 2 * math.pi * np.einsum("b,bkm,m->k", wc, d * d, R)
    return np.diag(diag), float(np.linalg.norm(diag - diag.mean())
                                / abs(diag.sum()))


# ---------------------------------------------------------------------------
# Measure equivalence on SU(2) phase space
# ---------------------------------------------------------------------------

def measure_equiv_ratio(t, X):
    """(2 pi t)^3 |Psi_{Phi(g,X)}|^2 nu_t sigma / vol; tends to 1 as t -> 0.

    Uses the polar density e^{-t/4} e^{-|X|^2/t} (pi t)^{-3/2} sinh|X|/|X|
    (the normalization pinned so the product of all factors is asymptotically
    the scaled Liouville density) and the overlap norm series.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    h = float(np.linalg.norm(np.asarray(X, float)))
    norm = su2_overlap_norm(t, h)
    eta = math.sinh(h) / h if h else 1.0
    dens = (math.pi * t) ** -1.5 * math.exp(-t / 4.0) * math.exp(-h * h / t)
    return (2 * math.pi * t) ** 3 * norm * dens * eta / G.VOL_SU2
