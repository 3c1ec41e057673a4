r"""Local (epsilon-scaled) Kohn-Nirenberg and Weyl calculus on T*G.

Local symbols are finite trigonometric polynomials in the momentum,

    sigma(theta, g) = sum_p m_p(g) e^{-i theta(Y_p)}  +  sum_k theta_k q_k(g),

with Y_p on a uniform lattice inside the injectivity set U = exp^{-1}(G \ {-1})
and band-limited coefficient functions. Equivalently the momentum-side
inverse Fourier data sigma_check^1 is a finite sum of point masses (plus a
first-order distribution at 0 for the linear part), which makes every
operation of the calculus exact: quantization is a finite sum of
multiplication and translation operators,

    (Q_eps sigma Psi)(g) = sum_p j(eps Y_p)^2 m_p(g) Psi(e^{-eps Y_p} g) + ...

with j the Haar Jacobian of exp (j = 1 for U(1), sin(|X|/2)/(|X|/2) for
SU(2)); the Weyl variant evaluates the coefficients at the geodesic midpoint
e^{-eps Y_p/2} g.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import groups as G
from .peterweyl import PWSpace

KN = "KN"
WEYL = "Weyl"

_EPS_KEY = 1e-9


class SymbolClassError(ValueError):
    """Operation leaves the finite trig (+ linear momentum) symbol class."""


def haar_jacobian_sq(group, Y):
    """j(X)^2 at X = Y, the density of Haar against Lebesgue via exp."""
    if group == G.U1:
        return np.ones(np.shape(Y)[:-1] if np.ndim(Y) > 1 else np.shape(Y))
    h = np.linalg.norm(np.atleast_2d(Y), axis=-1)
    out = np.ones_like(h)
    nz = h > 1e-12
    out[nz] = (np.sin(h[nz] / 2.0) / (h[nz] / 2.0)) ** 2
    return out


@dataclass
class LocalSymbol:
    group: str
    step: float
    points: np.ndarray            # (P,) ints for U(1), (P, dim) ints for SU(2)
    coeffs: np.ndarray            # (P, dim_g) PW coefficients of m_p
    g_pw: PWSpace
    poly: dict = field(default_factory=dict)  # k -> (dim_g,) coeffs of theta_k

    def __post_init__(self):
        self.points = np.atleast_1d(np.asarray(self.points))
        if self.group == G.SU2 and self.points.ndim == 1:
            self.points = self.points.reshape(-1, 3)
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        lim = math.pi if self.group == G.U1 else 2 * math.pi
        if self.points.size and np.max(np.abs(self.lattice())) >= lim:
            raise SymbolClassError(
                "momentum-side support leaves the injectivity set")

    def lattice(self):
        return self.step * self.points

    @property
    def n_dirs(self):
        return 1 if self.group == G.U1 else 3

    def has_theta_dependence(self):
        if self.poly:
            return True
        mass = np.abs(self.coeffs).max(axis=-1) if self.coeffs.size else []
        pts = np.atleast_2d(self.points.reshape(len(self.points), -1))
        return any(m > 0 and np.any(p != 0) for m, p in zip(mass, pts))

    def scaled(self, c):
        return LocalSymbol(self.group, self.step, self.points.copy(),
                           c * self.coeffs, self.g_pw,
                           {k: c * v for k, v in self.poly.items()})

    def conjugated(self):
        """Complex conjugate symbol: Y -> -Y with conjugate coefficients."""
        return LocalSymbol(self.group, self.step, -self.points,
                           np.conj(self.coeffs), self.g_pw,
                           {k: _conj_coeff(self.g_pw, v)
                            for k, v in self.poly.items()})


def _conj_coeff(g_pw, coef):
    return g_pw.analysis(np.conj(g_pw.synthesis(coef)))


def _prune_poly(poly):
    return {k: v for k, v in poly.items() if np.abs(v).max() > 0.0}


def symbol_add(a, b):
    if abs(a.step - b.step) > _EPS_KEY * max(a.step, b.step):
        raise SymbolClassError("incompatible lattice steps")
    pts = np.concatenate([np.atleast_2d(a.points.reshape(len(a.points), -1)),
                          np.atleast_2d(b.points.reshape(len(b.points), -1))])
    coeffs = np.concatenate([a.coeffs, b.coeffs])
    pts, coeffs = _merge_lattice(pts, coeffs)
    poly = dict(a.poly)
    for k, v in b.poly.items():
        poly[k] = poly.get(k, 0) + v
    out_pts = pts[:, 0] if a.group == G.U1 else pts
    return LocalSymbol(a.group, a.step, out_pts, coeffs, a.g_pw,
                       _prune_poly(poly))


def _merge_lattice(pts, coeffs):
    seen = {}
    out_p, out_c = [], []
    for p, c in zip(pts, coeffs):
        key = tuple(int(x) for x in p)
        if key in seen:
            out_c[seen[key]] = out_c[seen[key]] + c
        else:
            seen[key] = len(out_p)
            out_p.append(p)
            out_c.append(c.copy())
    return np.array(out_p), np.array(out_c)


def _coeff_product(g_pw_in_a, ca, g_pw_in_b, cb, g_pw_out):
    """PW coefficients of the pointwise product, on g_pw_out's band."""
    quad = g_pw_out.quad
    pts = quad.angles if g_pw_out.group == G.U1 else quad.quats
    va = g_pw_in_a.eval_basis(pts) @ ca
    vb = g_pw_in_b.eval_basis(pts) @ cb
    return g_pw_out.analysis(va * vb)


def symbol_product(a, b, g_pw_out):
    """Pointwise product sigma * tau within the finite class."""
    a_dep, b_dep = a.has_theta_dependence(), b.has_theta_dependence()
    if a.poly and b.poly:
        raise SymbolClassError("product of two momentum-linear symbols is "
                               "quadratic in theta")
    if (a.poly and _has_lattice_dep(b)) or (b.poly and _has_lattice_dep(a)):
        raise SymbolClassError("momentum-linear times oscillatory factor "
                               "leaves the finite class")
    pa = np.atleast_2d(a.points.reshape(len(a.points), -1))
    pb = np.atleast_2d(b.points.reshape(len(b.points), -1))
    pts, coeffs = [], []
    for i, p in enumerate(pa):
        for k, q in enumerate(pb):
            pts.append(p + q)
            coeffs.append(_coeff_product(a.g_pw, a.coeffs[i],
                                         b.g_pw, b.coeffs[k], g_pw_out))
    pts, coeffs = _merge_lattice(np.array(pts), np.array(coeffs))
    poly = {}
    for src, other in ((a, b), (b, a)):
        for k, v in src.poly.items():
            # other is theta-independent here (single lattice point at 0)
            tot = 0
            for i in range(len(other.points)):
                tot = tot + _coeff_product(src.g_pw, v, other.g_pw,
                                           other.coeffs[i], g_pw_out)
            poly[k] = poly.get(k, 0) + tot
    out_pts = pts[:, 0] if a.group == G.U1 else pts
    return LocalSymbol(a.group, a.step, out_pts, coeffs, g_pw_out,
                       _prune_poly(poly))


def _has_lattice_dep(s):
    pts = np.atleast_2d(s.points.reshape(len(s.points), -1))
    mass = np.abs(s.coeffs).max(axis=-1) if s.coeffs.size else np.zeros(0)
    return any(m > 0 and np.any(p != 0) for m, p in zip(mass, pts))


def theta_derivative(s, k):
    """d/d theta_k: multiplies trig data by -i Y_k, turns theta_k q into q."""
    Y = s.lattice()
    Yk = Y if s.group == G.U1 else Y[:, k]
    coeffs = (-1j * Yk)[:, None] * s.coeffs
    out = LocalSymbol(s.group, s.step, s.points.copy(), coeffs, s.g_pw, {})
    if k in s.poly:
        zero = np.zeros((1,) + (3,) if s.group == G.SU2 else (1,), dtype=int)
        extra = LocalSymbol(s.group, s.step,
                            zero if s.group == G.SU2 else np.zeros(1, int),
                            s.poly[k][None, :], s.g_pw, {})
        out = symbol_add(out, extra)
    return out


def right_derivative_symbol(s, k):
    """R_k applied to all coefficient functions."""
    R = s.g_pw.right_derivative(k)
    return LocalSymbol(s.group, s.step, s.points.copy(),
                       s.coeffs @ R.T, s.g_pw,
                       {kk: R @ v for kk, v in s.poly.items()})


def poisson_bracket(a, b, g_pw_out):
    """{sigma, tau} = <d_theta sigma, R tau> - <R sigma, d_theta tau>
    + {sigma, tau}_-  on T*G (right-translation trivialization)."""
    terms = []
    for k in range(a.n_dirs):
        da = theta_derivative(a, k)
        rb = right_derivative_symbol(b, k)
        terms.append(symbol_product(da, rb, g_pw_out))
        ra = right_derivative_symbol(a, k)
        db = theta_derivative(b, k)
        terms.append(symbol_product(ra, db, g_pw_out).scaled(-1.0))
    out = terms[0]
    for t in terms[1:]:
        out = symbol_add(out, t)
    minus = _lie_poisson_part(a, b, g_pw_out)
    if minus is not None:
        out = symbol_add(out, minus)
    return out


def _lie_poisson_part(a, b, g_pw_out):
    """{f, f'}_-(theta) = -theta([d_theta f, d_theta f']); None when zero."""
    if a.group == G.U1:
        return None
    a_latt, b_latt = _has_lattice_dep(a), _has_lattice_dep(b)
    if a_latt or b_latt:
        # vanishes when all momentum directions are parallel
        dirs = np.concatenate([np.atleast_2d(a.points), np.atleast_2d(b.points)])
        dirs = dirs[np.any(dirs != 0, axis=1)]
        if len(dirs) and np.linalg.matrix_rank(dirs) > 1:
            raise SymbolClassError("Lie-Poisson part of oscillatory symbols "
                                   "with non-parallel momentum support "
                                   "leaves the finite class")
        if a.poly or b.poly:
            raise SymbolClassError("mixed oscillatory / momentum-linear "
                                   "Lie-Poisson part is unsupported")
        return None
    if not (a.poly and b.poly):
        return None
    eps_t = np.zeros((3, 3, 3))
    for i, jj, kk in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps_t[i, jj, kk] = 1.0
        eps_t[i, kk, jj] = -1.0
    poly = {}
    for m in range(3):
        tot = None
        for k in range(3):
            for l in range(3):
                if eps_t[k, l, m] == 0 or k not in a.poly or l not in b.poly:
                    continue
                c = eps_t[k, l, m] * _coeff_product(
                    a.g_pw, a.poly[k], b.g_pw, b.poly[l], g_pw_out)
                tot = c if tot is None else tot + c
        if tot is not None:
            poly[m] = -tot  # minus Lie-Poisson sign
    if not poly:
        return None
    zero = np.zeros((1, 3), int)
    return LocalSymbol(a.group, a.step, zero,
                       np.zeros((1, g_pw_out.dim), complex), g_pw_out, poly)


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def _exp_element(group, Y):
    if group == G.U1:
        return G.GroupElement.u1(float(np.asarray(Y).reshape(-1)[0]))
    return G.GroupElement.su2(G.quat_exp(np.asarray(Y, float)))


def local_quantize(s, eps, pw, variant=KN):
    """Matrix of Q_eps(sigma) on the truncated Peter-Weyl space."""
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    if variant not in (KN, WEYL):
        raise ValueError("variant must be KN or Weyl")
    quad_pts = pw.quad.angles if s.group == G.U1 else pw.quad.quats
    E_g = s.g_pw.eval_basis(quad_pts)
    A = np.zeros((pw.dim, pw.dim), dtype=complex)
    Y = np.atleast_2d(s.lattice().reshape(len(s.points), -1))
    jfac = haar_jacobian_sq(s.group, eps * Y)
    for p in range(len(s.points)):
        c = s.coeffs[p]
        if variant == WEYL:
            # coefficient at the geodesic midpoint: m_p(e^{-eps Y/2} g)
            U = s.g_pw.left_translation(_exp_element(s.group, eps * Y[p] / 2.0))
            c = U @ c
        M = pw.multiplication_operator(E_g @ c)
        T = pw.left_translation(_exp_element(s.group, eps * Y[p]))
        A += jfac[p] * (M @ T)
    for k, q in s.poly.items():
        Mq = pw.multiplication_operator(E_g @ q)
        R = pw.right_derivative(k if s.group == G.SU2 else 0)
        A += -1j * eps * (Mq @ R)
        if variant == WEYL:
            Rg = s.g_pw.right_derivative(k if s.group == G.SU2 else 0)
            A += -1j * eps * 0.5 * pw.multiplication_operator(E_g @ (Rg @ q))
    return A


def kernel_cutoff(phi, s, dphi0=None, fd_step=1e-6):
    """H(phi) sigma: multiply the momentum-side data by phi pointwise.

    phi is a callable on the Lie algebra (scalar argument for U(1), 3-vector
    for SU(2)). The momentum-linear part picks up phi(0) theta_k q_k plus
    i (d_k phi)(0) q_k at frequency zero; derivatives of phi at 0 are taken
    from dphi0 if given, else by central differences.
    """
    Y = np.atleast_2d(s.lattice().reshape(len(s.points), -1))
    vals = np.array([phi(y if s.group == G.SU2 else float(y[0])) for y in Y])
    coeffs = vals[:, None] * s.coeffs
    out = LocalSymbol(s.group, s.step, s.points.copy(), coeffs, s.g_pw, {})
    if s.poly:
        zero_arg = np.zeros(3) if s.group == G.SU2 else 0.0
        phi0 = phi(zero_arg)
        poly = {k: phi0 * v for k, v in s.poly.items()}
        out = LocalSymbol(s.group, s.step, out.points, out.coeffs, s.g_pw, poly)
        for k, q in s.poly.items():
            if dphi0 is not None:
                dk = dphi0[k]
            else:
                e = np.zeros(3) if s.group == G.SU2 else None
                if s.group == G.SU2:
                    e[k] = fd_step
                    dk = (phi(e) - phi(-e)) / (2 * fd_step)
                else:
                    dk = (phi(fd_step) - phi(-fd_step)) / (2 * fd_step)
            zero = (np.zeros((1, 3), int) if s.group == G.SU2
                    else np.zeros(1, int))
            extra = LocalSymbol(s.group, s.step, zero,
                                (1j * dk) * q[None, :], s.g_pw, {})
            out = symbol_add(out, extra)
    return out


# ---------------------------------------------------------------------------
# semiclassical residuals and slope fits
# ---------------------------------------------------------------------------

def _op_norm(M):
    return np.linalg.svd(M, compute_uv=False)[0]


def product_residuals(a, b, eps, pw, in_band, g_pw_out,
                      moyal_variant=WEYL, dirac_variant=KN):
    """(moyal, dirac) residual operator norms at one eps.

    moyal: || Q(a) Q(b) - Q(ab - (i eps/2){a,b}) || with the Weyl variant;
    dirac: || (i/eps)[Q(a), Q(b)] - Q({a,b}) || with the KN variant.
    Restricted to input modes within in_band so band truncation is exact.
    """
    mask = pw.band_mask(in_band)
    ab = symbol_product(a, b, g_pw_out)
    br = poisson_bracket(a, b, g_pw_out)

    Qa = local_quantize(a, eps, pw, moyal_variant)
    Qb = local_quantize(b, eps, pw, moyal_variant)
    approx = symbol_add(ab, br.scaled(-0.5j * eps))
    Qapprox = local_quantize(approx, eps, pw, moyal_variant)
    moyal = _op_norm((Qa @ Qb - Qapprox)[:, mask])

    Qa = local_quantize(a, eps, pw, dirac_variant)
    Qb = local_quantize(b, eps, pw, dirac_variant)
    Qbr = local_quantize(br, eps, pw, dirac_variant)
    dirac = _op_norm(((1j / eps) * (Qa @ Qb - Qb @ Qa) - Qbr)[:, mask])
    return moyal, dirac


def fit_slope(eps_list, residuals):
    x = np.log(np.asarray(eps_list, float))
    y = np.log(np.asarray(residuals, float))
    return float(np.polyfit(x, y, 1)[0])


def semiclassical_order_fit(a, b, eps_list, pw, in_band, g_pw_out,
                            moyal_variant=WEYL, dirac_variant=KN):
    """Least-squares slopes of log-residual vs log(eps).

    Returns (moyal_slope, dirac_slope, moyal_residuals, dirac_residuals).
    """
    if len(eps_list) < 3:
        raise ValueError("need at least 3 epsilon points for a slope fit")
    moy, dir_ = [], []
    for eps in eps_list:
        m, d = product_residuals(a, b, eps, pw, in_band, g_pw_out,
                                 moyal_variant, dirac_variant)
        moy.append(m)
        dir_.append(d)
    return fit_slope(eps_list, moy), fit_slope(eps_list, dir_), moy, dir_


def ensemble_order_fit(pairs, eps_list, pw, in_band, g_pw_out,
                       moyal_variant=WEYL, dirac_variant=KN):
    """Slope fit on RMS-aggregated residuals over several symbol pairs.

    Aggregation keeps the leading-order coefficient away from accidental
    near-cancellations of a single random draw.
    """
    moy = np.zeros(len(eps_list))
    dir_ = np.zeros(len(eps_list))
    for a, b in pairs:
        for i, eps in enumerate(eps_list):
            m, d = product_residuals(a, b, eps, pw, in_band, g_pw_out,
                                     moyal_variant, dirac_variant)
            moy[i] += m * m
            dir_[i] += d * d
    moy, dir_ = np.sqrt(moy), np.sqrt(dir_)
    return (fit_slope(eps_list, moy), fit_slope(eps_list, dir_),
            list(moy), list(dir_))


# ---------------------------------------------------------------------------
# U(1) geodesic-midpoint kernel comparison
# ---------------------------------------------------------------------------

def u1_symbol_from_samples(fun, step, n_points, g_pw):
    """LocalSymbol from samples of a smooth momentum kernel fun(Y, grid).

    fun maps a lattice ordinate Y to coefficient-function values on the
    g_pw quadrature grid; the Riemann weight (the lattice step) is absorbed
    into the stored coefficients.
    """
    points = np.arange(-n_points, n_points + 1)
    coeffs = []
    for p in points:
        vals = fun(step * p, g_pw.quad.angles)
        coeffs.append(g_pw.analysis(np.asarray(vals, complex)) * step)
    return LocalSymbol(G.U1, step, points, np.array(coeffs), g_pw)


def u1_midpoint_operator(fun, eps, pw):
    """Operator matrix from the midpoint kernel
    K(x, g) = eps^{-1} fun(eps^{-1} X_{g x^{-1}}, exp(-X/2) g)."""
    ang = pw.quad.angles
    w = pw.quad.weights
    X = ang[:, None] - ang[None, :]           # angle of g x^{-1}: rows g
    X = (X + math.pi) % (2 * math.pi) - math.pi
    mid = ang[:, None] - X / 2.0
    Kv = fun(X / eps, mid) / eps
    # (B Psi)(g) = int K(x, g) Psi(x) dx_Riemann = 2 pi sum_k w_k K(x_k, g) ...
    rows = G.VOL_U1 * (Kv * w[None, :]) @ (pw.E)
    return pw._EW @ rows
