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
"""

import math
from dataclasses import dataclass

import numpy as np

from . import groups as G
from ._kernels import _gauss_legendre, itn_denominator, su2_norm_series
from .theta import theta3, theta3_dz
from .wigner import wigner_D_euler_grid


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


def heat_kernel(params, g):
    """rho_t(g) = sum_pi d_pi e^{-t lam_pi / 2} chi_pi(g); on SU(2) from the
    half angle atan2(|v|, w) of q = (w, v), accurate next to 1 and -1."""
    t = params.t
    if params.group == G.U1:
        phi = g.angle if isinstance(g, G.GroupElement) else float(g)
        return theta3(phi / (2 * math.pi), 1j * t / (2 * math.pi)).real
    q = np.asarray(g.quat if isinstance(g, G.GroupElement) else g, float)
    half = math.atan2(float(np.linalg.norm(q[1:])), float(q[0]))
    return float(su2_norm_series(1j * half, t / 2.0)[0].real)


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


def resolution_constant_u1(t, tol=1e-8):
    """C_t^{-1} = sqrt(t/pi) int e^{-l^2/t} / theta3(l/t | i pi/t) dl.

    Numerically C_t^{-1} = t. Adaptive panel refinement; raises
    QuadratureConvergenceError with the achieved tolerance on failure.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    width = 9.0 * math.sqrt(t)

    def f(l):
        return np.exp(-l * l / t) / theta3(l / t, 1j * math.pi / t).real

    prev = None
    for n_panels in (8, 16, 32, 64, 128):
        val = math.sqrt(t / math.pi) * _panel_gl(f, -width, width, n_panels)
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            return val
        prev = val
    raise QuadratureConvergenceError(
        "resolution constant quadrature did not converge",
        abs(val - prev))


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


def resolution_integral_su2(t, n, tol=1e-9, return_imag_residual=False,
                            n_panels=None):
    """I(t, n) = int p^2 e^{-(p - tn/2)^2/t} / sum_m m e^{-(p - tm/2)^2/t} dp.

    The k = 0 term of the denominator's Poisson dual (itn_denominator)
    alone gives t^3 n / 8; the value differs from it by the k >= 1 terms.
    The real form of the integrand is the fast path: each refinement level
    evaluates the denominator by one vectorised itn_denominator call per
    side of p = 0, over all of that side's Gauss-Legendre nodes. The
    imaginary residual is measured from the complex theta3' form on a
    sample of nodes. A fixed n_panels skips the adaptive refinement and its
    convergence check (coarse-quadrature escape hatch for the CLI).
    """
    if t <= 0 or n < 1:
        raise ValueError("require t > 0 and n >= 1")
    center = t * n / 2.0
    width = 13.0 * math.sqrt(t)
    lo, hi = center - width, center + width

    def f(p):
        return p * p * np.exp(-(p - center) ** 2 / t) / itn_denominator(p, t)

    # keep p = 0 a panel edge: the integrand has a removable point there
    prev = None
    val = None
    adaptive = n_panels is None
    schedule = (16, 32, 64, 128) if adaptive else (n_panels,)
    for npan in schedule:
        if lo < 0.0 < hi:
            k = max(1, int(round(npan * (0.0 - lo) / (hi - lo))))
            val = (_panel_gl(f, lo, 0.0, k) +
                   _panel_gl(f, 0.0, hi, npan - k + 1))
        else:
            val = _panel_gl(f, lo, hi, npan)
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            break
        prev = val
    else:
        if adaptive:
            raise QuadratureConvergenceError(
                "I(t,n) quadrature did not converge", abs(val - prev))
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

def sphere_grid(l_exact):
    """(theta, phi) product grid integrating spherical harmonics l <= l_exact
    exactly; returns (theta, phi, weights) with sum(weights) = 4 pi."""
    n_theta = l_exact // 2 + 1
    n_phi = l_exact + 1
    x, wx = _gauss_legendre(n_theta)
    theta = np.arccos(x)
    phi = 2 * math.pi * np.arange(n_phi) / n_phi
    T, P = np.meshgrid(theta, phi, indexing="ij")
    W = np.repeat(wx[:, None], n_phi, axis=1) * (2 * math.pi / n_phi)
    return T.ravel(), P.ravel(), W.ravel()


def schur_residual_su2(t, n, n_radial=80, l_margin=4):
    """Numerically integrated resolution operator on the irrep n and its
    deviation from a multiple of the identity.

    A = int_g dX rho_{2t}(e^{-2iX})^{-1} pi_n(e^{2iX}) evaluated in spherical
    coordinates (Weyl integration on the Lie algebra); returns (A, residual)
    with residual = ||A - (tr A / n) 1||_F / |tr A|.
    """
    twoj = n - 1
    j = twoj / 2.0
    theta, phi, wsph = sphere_grid(2 * twoj + l_margin)
    D = wigner_D_euler_grid(twoj, phi, theta, np.zeros_like(phi))
    h_max = t * (2 * j + 1) / 2.0 + 12.0 * math.sqrt(t) + 2.0
    x, wx = _gauss_legendre(n_radial)
    h = (x + 1.0) * h_max / 2.0
    wh = wx * h_max / 2.0
    norm = su2_norm_series(h, t)
    m = np.arange(twoj, -twoj - 1, -2) / 2.0
    # radial x sphere assembly: D diag(e^{2 h m}) D^dagger
    rad = (h * h * wh / norm)[:, None] * np.exp(2.0 * np.outer(h, m))
    ang = np.einsum("s,sma,sna->amn", wsph, D, D.conj())
    A = np.einsum("ra,amn->mn", rad, ang)
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
