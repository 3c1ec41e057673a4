"""Heat kernels, coherent-state overlaps and resolution-of-unity integrals.

Complexified points are handled through the right polar decomposition
z = g e^{iX}; for SU(2) the factor e^{iX} is the positive Hermitian matrix
exp(|X| (Xhat . sigma)/2). Overlaps reduce to the analytically continued
heat kernel rho_{2t}(z'^{-1} zbar), whose SU(2) characters are
sinh(n mu)/sinh(mu) in the complex torus parameter mu.

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
D(g_theta)^* is then an operator-field integral of `orbits` on the orbit's
product grid, with no Wigner D matrix at the nodes.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import groups as G
from ._kernels import (ITN_T_MAX, _gauss_legendre, itn_denominator,
                       su2_norm_series)
from .orbits import OrbitSpec, _from_field
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


def _su2_complex_point(p):
    """2x2 matrix of z = g e^{iX}: U(g) H with H = exp((X . sigma)/2) =
    cosh(h/2) 1 + (sinh(h/2)/h) (X . sigma), h = |X|; the factor is its
    limit 1/2 at h = 0."""
    x1, x2, x3 = (float(c) for c in p.X)
    h = math.hypot(x1, x2, x3)
    c, s = math.cosh(h / 2.0), (math.sinh(h / 2.0) / h if h else 0.5)
    H = np.array([[c + s * x3, s * complex(x1, -x2)],
                  [s * complex(x1, x2), c - s * x3]])
    return G.quat_to_su2(np.asarray(p.g.quat, float)) @ H


def coherent_overlap(params, z, zp):
    """(Psi_z, Psi_z') = rho_{2t}((z^dag z')^{-1}), analytically continued.

    The bar in the heat-kernel identity is the antiholomorphic extension of
    the identity map of G, so z'^{-1} zbar = (z^dag z')^{-1} with the plain
    matrix adjoint; at z = z' this is e^{-2iX} and the norm series results.
    On SU(2), z^dag z' is in SL(2, C), so it and its inverse share the
    trace 2 cosh(mu); the series is even in mu and holds at mu = i pi.
    """
    t = params.t
    if params.group == G.U1:
        phi, l = z.g.angle, float(z.X)
        phip, lp = zp.g.angle, float(zp.X)
        # sum_j e^{-t j^2} e^{i j (phi' - phi)} e^{-j (l + l')}
        zz = ((phip - phi) + 1j * (l + lp)) / (2 * math.pi)
        return theta3(zz, 1j * t / math.pi)
    m = np.conj(_su2_complex_point(z).T) @ _su2_complex_point(zp)
    return su2_norm_series(np.arccosh((m[0, 0] + m[1, 1]) / 2), t)[0]


def su2_overlap_norm(t, h):
    """|Psi_{Phi(g, X)}|^2 for |X| = h: sum_n n e^{-t(n^2-1)/4} sinh(nh)/sinh(h)."""
    return float(su2_norm_series(float(h), t)[0])


# ---------------------------------------------------------------------------
# U(1) resolution constant
# ---------------------------------------------------------------------------

def _panel_gl(f, a, b, n_panels):
    """Composite 24-point Gauss-Legendre rule on n_panels equal panels of
    [a, b]; f is called once, on all 24 n_panels nodes."""
    x, w = _gauss_legendre(24)
    edges = np.linspace(a, b, n_panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    vals = f((mid[:, None] + half[:, None] * x).ravel())
    return half @ (vals.reshape(n_panels, -1) @ w)


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
    if t <= 0:
        raise ValueError("t must be positive")
    width = t / 2.0 + 9.0 * math.sqrt(t)
    scale = max(1, math.ceil(width / 256.0))

    def f(l):
        den = theta3(l / t, 1j * math.pi / t).real
        if not den.all():
            raise QuadratureConvergenceError(
                "resolution integrand is 0/0 in double precision", math.inf)
        return np.exp(-l * l / t) / den

    return _refined((math.sqrt(t / math.pi)
                     * _panel_gl(f, -width, width, scale * n_panels)
                     for n_panels in (8, 16, 32, 64, 128)),
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
    The real form of the integrand is the fast path: each refinement level
    evaluates the denominator by one vectorised itn_denominator call per
    side of p = 0, over all of that side's Gauss-Legendre nodes. The
    imaginary residual is measured from the complex theta3' form on a
    sample of nodes. The adaptive refinement stops when two levels agree to
    1e-9 (relative above 1); when no two of its levels agree it raises
    QuadratureConvergenceError with the last difference. t must be at most
    ITN_T_MAX = 16, the range over which itn_denominator is checked; above
    it ValueError.
    """
    if t <= 0 or n < 1:
        raise ValueError("require t > 0 and n >= 1")
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
            return (_panel_gl(f, lo, 0.0, k) +
                    _panel_gl(f, 0.0, hi, npan - k + 1))
        return _panel_gl(f, lo, hi, npan)

    val = _refined(map(level, (16, 32, 64, 128)), 1e-9, "I(t,n)")
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
    D(g_theta)^* dtheta is 4 pi / n times `orbits._from_field` of the field
    1 on OrbitSpec(n - 1)'s table of R, mass n, exact to degree 2n against
    the entries' 2(n - 1); its alpha sum keeps frequency 0, the diagonal.
    Returns (A, residual), residual = ||A - (tr A / n) 1||_F / |tr A|.

    Schur's lemma makes A a multiple of 1 whatever R is, so the residual
    sees the angular half only; the radial half is the multiple, tr A / n =
    4 pi e^{t (n^2 - 1) / 4} I(t, n) / n, I = `resolution_integral_su2`.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("require an integer n >= 1; got n = %r" % (n,))
    if not t > 0:
        raise ValueError("require t > 0; got t = %r" % (t,))
    spec = OrbitSpec(n - 1)
    h_max = t * n / 2.0 + 12.0 * math.sqrt(t) + 2.0
    x, wx = _gauss_legendre(80)
    h = (x + 1.0) * h_max / 2.0
    wh = wx * h_max / 2.0
    m = np.arange(spec.twoj, -spec.twoj - 1, -2) / 2.0
    R = (h * h * wh / su2_norm_series(h, t)) @ np.exp(2.0 * np.outer(h, m))
    A = (4 * math.pi / n) * _from_field(
        *spec._operator_tables(R), np.ones(spec.n_nodes),
        spec.weights).reshape(n, n)
    tr = np.trace(A)
    resid = np.linalg.norm(A - (tr / n) * np.eye(n)) / abs(tr)
    return A, float(resid)


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
