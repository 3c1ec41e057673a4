r"""Local (epsilon-scaled) Kohn-Nirenberg and Weyl calculus on T*G.

Local symbols are finite trigonometric polynomials in the momentum,

    sigma(theta, g) = sum_p m_p(g) e^{-i theta(Y_p)}  +  sum_k theta_k q_k(g),

with Y_p = step * p on a uniform lattice inside the injectivity set
U = exp^{-1}(G \ {-1}) (|Y| < pi on U(1), |Y| < 2 pi on SU(2)) and
band-limited coefficient functions. Both groups store the integer points p
as one (P, n_dirs) array, n_dirs = dim g = 1 or 3. Equivalently the
momentum-side inverse Fourier data sigma_check^1 is a finite sum of point
masses (plus a first-order distribution at 0 for the linear part), which
makes every operation of the calculus exact: quantization is a finite sum
of multiplication and translation operators,

    (Q_eps sigma Psi)(g) = sum_p j(eps Y_p)^2 m_p(g) Psi(e^{-eps Y_p} g) + ...

with j the Haar Jacobian of exp (j = 1 for U(1), sin(|X|/2)/(|X|/2) for
SU(2)); the Weyl variant evaluates the coefficients at the geodesic midpoint
e^{-eps Y_p/2} g.

As operators, with T_v the left translation and M_f the multiplication by
f, two identities put the eps dependence into translations alone:

    T_v M_f T_v^* = M_{f(v^{-1} .)}     (midpoint coefficients),
    M_{R_k q} = [R_k, M_q]               (the Weyl linear term).

Quantization is therefore split: the multiplication operators of a symbol's
coefficients are built once, free of eps and of the variant, and each eps
and variant only applies the block-diagonal T_v and R_k to them
(`local_quantize`). The semiclassical fits reuse them across every eps.

Two more facts keep the fits to what their residuals read. The KN and
Weyl translations of a point p are both e^{eps step k / 2}, k = 2p or p,
so one table of irrep blocks per eps serves every symbol and variant of a
fit. And a coefficient of g-band g maps band <= in_band into band <= the
product band in_band (+) g, while T_v and R_k keep bands: Q(b)[:, in-band]
has no rows beyond that band, and a product Q(a) Q(b)[:, in-band] reads
Q(a) on those columns only (`ensemble_order_fit`). Multiplication
operators, and with them the products of coefficient functions, are built
from the coefficients, on the entries of that triangle rule alone
(`PWSpace.multiplication_operator`): the calculus makes no transform.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import groups as G
from .peterweyl import PWSpace, _generators, _product_band

KN = "KN"
WEYL = "Weyl"

_EPS_KEY = 1e-9


class SymbolClassError(ValueError):
    """Operation leaves the finite trig (+ linear momentum) symbol class."""


def haar_jacobian_sq(group, Y):
    """j(X)^2 at the rows X of Y, (P, n_dirs): the density of Haar measure
    against Lebesgue measure through exp (1 on U(1))."""
    h = np.linalg.norm(Y, axis=-1)
    out = np.ones_like(h)
    if group == G.SU2:
        nz = h > 1e-12
        out[nz] = (np.sin(h[nz] / 2.0) / (h[nz] / 2.0)) ** 2
    return out


@dataclass
class LocalSymbol:
    """Lattice points, (P, n_dirs) ints with n_dirs = 1 on U(1) and 3 on
    SU(2) (a 1-D array is read as one column), and the PW coefficients of
    m_p and of the momentum-linear q_k: one row of g_pw.dim per point, one
    (g_pw.dim,) vector per k, else ValueError. The lattice must lie in the
    injectivity set: |Y_p| < pi on U(1) and |Y_p| < 2 pi on SU(2), else
    SymbolClassError."""
    group: str
    step: float
    points: np.ndarray            # (P, n_dirs) ints
    coeffs: np.ndarray            # (P, dim_g) PW coefficients of m_p
    g_pw: PWSpace
    poly: dict = field(default_factory=dict)  # k -> (dim_g,) coeffs of theta_k

    def __post_init__(self):
        self.points = np.asarray(self.points).reshape(-1, self.n_dirs)
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        P, dim = len(self.points), self.g_pw.dim
        if self.coeffs.shape != (P, dim):
            raise ValueError("coeffs has shape %s; %d points and g_pw.dim = "
                             "%d need (%d, %d)" % (self.coeffs.shape, P, dim,
                                                   P, dim))
        for k, v in self.poly.items():
            if np.shape(v) != (dim,):
                raise ValueError("poly[%r] has shape %s; g_pw.dim = %d needs "
                                 "(%d,)" % (k, np.shape(v), dim, dim))
        lim = math.pi if self.group == G.U1 else 2 * math.pi
        if (self.points.size
                and np.linalg.norm(self.lattice(), axis=1).max() >= lim):
            raise SymbolClassError(
                "momentum-side support leaves the injectivity set")

    def lattice(self):
        return self.step * self.points

    @property
    def n_dirs(self):
        return 1 if self.group == G.U1 else 3

    def scaled(self, c):
        return LocalSymbol(self.group, self.step, self.points.copy(),
                           c * self.coeffs, self.g_pw,
                           {k: c * v for k, v in self.poly.items()})

    def conjugated(self):
        """Complex conjugate symbol: Y -> -Y with conjugate coefficients
        (the q_k by g_pw's conjugation map, as functions)."""
        g = self.g_pw
        return LocalSymbol(self.group, self.step, -self.points,
                           np.conj(self.coeffs), g,
                           {k: g._dual_sign * np.conj(v[g._dual_index])
                            for k, v in self.poly.items()})


def _at_zero(s, g_pw, coef, poly=None):
    """The symbol m_0 + sum_k theta_k q_k with the one lattice point 0, on
    s's group and lattice step: g_pw coefficients coef of m_0, poly of q_k."""
    return LocalSymbol(s.group, s.step, np.zeros((1, s.n_dirs), int),
                       np.asarray(coef)[None, :], g_pw, poly or {})


def _prune_poly(poly):
    return {k: v for k, v in poly.items() if np.abs(v).max() > 0.0}


def _check_steps(a, b):
    """Sums and products of lattice points need one lattice step."""
    if abs(a.step - b.step) > _EPS_KEY * max(a.step, b.step):
        raise SymbolClassError("incompatible lattice steps")


def symbol_add(a, b):
    _check_steps(a, b)
    pts, coeffs = _merge_lattice(np.concatenate([a.points, b.points]),
                                 np.concatenate([a.coeffs, b.coeffs]))
    poly = dict(a.poly)
    for k, v in b.poly.items():
        poly[k] = poly.get(k, 0) + v
    return LocalSymbol(a.group, a.step, pts, coeffs, a.g_pw,
                       _prune_poly(poly))


def _merge_lattice(pts, coeffs):
    """One row per distinct lattice point, in order of first appearance,
    with the coefficients of its repeats summed."""
    merged = {}
    for p, c in zip(pts, coeffs):
        key = tuple(p)
        merged[key] = merged[key] + c if key in merged else c.copy()
    return (np.array(list(merged), dtype=int),
            np.array(list(merged.values())).reshape(-1, coeffs.shape[-1]))


def _coeff_products(g_pw_a, ca, g_pw_b, cb, g_pw_out):
    """PW coefficients, on g_pw_out's band, of the pointwise products of
    each row of ca with each row of cb: shape (len(ca), len(cb), dim), by
    ca's multiplication operators on the columns of b's band, b's basis in
    b's order. ValueError if either band exceeds g_pw_out's."""
    ca, cb = np.atleast_2d(ca), np.atleast_2d(cb)
    M = g_pw_out.multiplication_operator(g_pw_a, ca, g_pw_b.band)
    return cb @ M.transpose(0, 2, 1)


def symbol_product(a, b, g_pw_out):
    """Pointwise product sigma * tau within the finite class."""
    _check_steps(a, b)
    if a.poly and b.poly:
        raise SymbolClassError("product of two momentum-linear symbols is "
                               "quadratic in theta")
    if (a.poly and _has_lattice_dep(b)) or (b.poly and _has_lattice_dep(a)):
        raise SymbolClassError("momentum-linear times oscillatory factor "
                               "leaves the finite class")
    pts = (a.points[:, None] + b.points[None, :]).reshape(-1, a.n_dirs)
    coeffs = _coeff_products(a.g_pw, a.coeffs, b.g_pw, b.coeffs, g_pw_out)
    pts, coeffs = _merge_lattice(pts, coeffs.reshape(len(pts), -1))
    poly = {}
    for src, other in ((a, b), (b, a)):
        for k, v in src.poly.items():
            # other is theta-independent here (single lattice point at 0)
            tot = _coeff_products(src.g_pw, v, other.g_pw, other.coeffs,
                                  g_pw_out)[0].sum(axis=0)
            poly[k] = poly.get(k, 0) + tot
    return LocalSymbol(a.group, a.step, pts, coeffs, g_pw_out,
                       _prune_poly(poly))


def _has_lattice_dep(s):
    """Whether a nonzero coefficient sits at a lattice point other than 0."""
    return bool(np.any(np.any(s.points != 0, axis=1)
                       & np.any(s.coeffs != 0, axis=1)))


def theta_derivative(s, k):
    """d/d theta_k: multiplies trig data by -i Y_k, turns theta_k q into q."""
    coeffs = (-1j * s.lattice()[:, k])[:, None] * s.coeffs
    out = LocalSymbol(s.group, s.step, s.points.copy(), coeffs, s.g_pw, {})
    if k in s.poly:
        out = symbol_add(out, _at_zero(s, s.g_pw, s.poly[k]))
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
    """{f, f'}_-(theta) = -theta([d_theta f, d_theta f']); None when zero.

    For momentum-linear f = theta_k q_k, f' = theta_l q'_l the bracket
    [tau_k, tau_l] = eps_klm tau_m gives -eps_klm q_k q'_l theta_m."""
    if a.group == G.U1:
        return None
    if _has_lattice_dep(a) or _has_lattice_dep(b):
        # vanishes when all momentum directions are parallel
        dirs = np.concatenate([a.points, b.points])
        dirs = dirs[np.any(dirs != 0, axis=1)]
        if len(dirs) and np.linalg.matrix_rank(dirs) > 1:
            raise SymbolClassError("Lie-Poisson part of oscillatory symbols "
                                   "with non-parallel momentum support "
                                   "leaves the finite class")
        if a.poly or b.poly:
            raise SymbolClassError("mixed oscillatory / momentum-linear "
                                   "Lie-Poisson part is unsupported")
        return None
    poly = {}
    for k, l, m in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        for sign, i, j in ((1.0, k, l), (-1.0, l, k)):
            if i in a.poly and j in b.poly:
                poly[m] = poly.get(m, 0) - sign * _coeff_products(
                    a.g_pw, a.poly[i], b.g_pw, b.poly[j], g_pw_out)[0, 0]
    if not poly:
        return None
    return _at_zero(a, g_pw_out, np.zeros(g_pw_out.dim, complex), poly)


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def _exp_points(group, Y):
    """exp(Y) for the rows of Y: angles (U(1)) or quaternions (SU(2))."""
    return Y[:, 0] if group == G.U1 else G.quat_exp(Y)


def _operators(s, pw, in_band=None):
    """The eps- and variant-free half of Q_eps(sigma): the multiplication
    operators M_p of the lattice coefficients m_p, (P, dim, n), and M_q of
    the momentum-linear coefficients q_k, {k: (dim, n)}, on the n columns
    `cols` of pw's basis: those of `pw.band_mask(in_band)`, or all; one
    `multiplication_operator` stack."""
    mults = pw.multiplication_operator(
        s.g_pw, np.vstack([s.coeffs, *s.poly.values()]), in_band)
    P = len(s.coeffs)
    cols = slice(None) if in_band is None else pw.band_mask(in_band)
    return mults[:P], dict(zip(s.poly, mults[P:])), cols


def _translation_keys(items):
    """The table of the left translations T_v of each (symbol, variant) of
    items. The KN point p translates by v = e^{eps Y_p}, the Weyl point p
    by its square root e^{eps Y_p / 2}; both are e^{eps step k / 2}, with
    the key k = 2p (KN) or p (Weyl), and (eps (step 2p)) / 2 = eps (step p)
    exactly in floating point. Returns the distinct (step, k), one per row,
    and for each item the rows of its points; neither depends on eps."""
    if any(v not in (KN, WEYL) for _, v in items):
        raise ValueError("variant must be KN or Weyl")
    keys = [np.column_stack([np.full(len(s.points), s.step),
                             s.points if v == WEYL else 2 * s.points])
            for s, v in items]
    table, rows = np.unique(np.concatenate(keys), axis=0, return_inverse=True)
    ends = np.cumsum([len(k) for k in keys])[:-1]
    return table, np.split(rows.ravel(), ends)


def _translations(table, eps, pw):
    """The blocks conj D(e^{eps step k / 2}) per label, (K, d, d), at the
    rows (step, k) of a `_translation_keys` table: one batched `pw._reps`."""
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    Y = table[:, :1] * table[:, 1:]
    return [D.conj() for D in pw._reps(_exp_points(pw.group, eps * Y / 2.0))]


def _assemble(s, ops, eps, pw, variant, T, rows):
    """Q_eps(sigma)[:, cols] from ops = _operators(s, pw, ...) by
    block-diagonal translations alone (see local_quantize): the blocks of
    s's points are the rows `rows` of the `_translations` T."""
    mults, lin, cols = ops
    weyl = variant == WEYL
    jfac = haar_jacobian_sq(s.group, eps * s.lattice())
    if s.group == G.U1:
        # T_p = diag(t_p) and R = diag(i n): one einsum over the points
        t = np.concatenate(T, axis=1)[rows, :, 0]
        r = 1j * np.array(pw.labels)
        tw = jfac[:, None] * t[:, cols]
        out = (np.einsum("pi,pij,pj->ij", t, mults, tw) if weyl
               else np.einsum("pij,pj->ij", mults, tw))
        for M in lin.values():
            MR = M * r[cols]
            out += ((-0.5j * eps) * (MR + r[:, None] * M) if weyl
                    else (-1j * eps) * MR)
        return out
    T = [D[rows] for D in T]
    if weyl:
        mults = pw._kron_rows(T, mults)
    out = pw._kron_cols(mults, [jfac[:, None, None] * D for D in T])
    for k, M in lin.items():
        # R_k has blocks kron(dpi(tau_k)^T, 1)
        R = [X.T[None] for X in _generators(pw.group, pw.labels, k)]
        MR = pw._kron_cols(M[None], R)
        out += ((-0.5j * eps) * (MR + pw._kron_rows(R, M[None])[0]) if weyl
                else (-1j * eps) * MR)
    return out


def local_quantize(s, eps, pw, variant=KN):
    """Matrix of Q_eps(sigma) on the truncated Peter-Weyl space.

    Each lattice point adds j_p^2 M_p T_p: the multiplication operator
    M_p = M_{m_p} times the left translation T_p = T_{h_p}, h_p = e^{eps Y_p}.
    Each momentum-linear term adds -i eps M_q R_k. The Weyl variant takes
    m_p at the geodesic midpoint, m_p(e^{-eps Y_p/2} g), and adds
    -(i eps/2) M_{R_k q}. Two identities keep the unshifted M_p and M_q:

        T_v M_f T_v^* = M_{f(v^{-1} .)}, and T_{sqrt h}^* T_h = T_{sqrt h}:
            the Weyl point term is j_p^2 T_{sqrt h_p} M_p T_{sqrt h_p};
        M_{R_k q} = [R_k, M_q]:
            the Weyl linear term is -(i eps/2) (M_q R_k + R_k M_q).

    So Q_eps is the composition of two parts. `_operators` builds M_p and
    M_q, which depend on neither eps nor the variant; `_assemble` applies
    the block-diagonal T and R to them, one irrep block at a time (on U(1)
    both are diagonal phases: one einsum over the points). It reads the
    blocks of T from a table, `_translations`, one batched evaluation of
    the irreps at the distinct e^{eps step k / 2} (`_translation_keys`).
    `ensemble_order_fit` builds the first part once per symbol, on the
    columns its products read, and runs the second for every eps and both
    variants, with one table per eps for all its symbols.
    """
    table, (rows,) = _translation_keys([(s, variant)])
    T = _translations(table, eps, pw)
    return _assemble(s, _operators(s, pw), eps, pw, variant, T, rows)


# ---------------------------------------------------------------------------
# semiclassical residuals and slope fits
# ---------------------------------------------------------------------------

def _op_norm(M):
    """sigma_max(M), from the top eigenvalue of the smaller Gram matrix."""
    gram = M.conj().T @ M if M.shape[0] >= M.shape[1] else M @ M.conj().T
    return math.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0))


def _check_eps_list(eps_list):
    """ValueError unless eps_list holds at least two distinct finite eps,
    all in (0, 1]: a slope needs two abscissae."""
    e = np.asarray(eps_list, float)
    if not (np.all(np.isfinite(e)) and np.all((0 < e) & (e <= 1))
            and len(np.unique(e)) >= 2):
        raise ValueError("eps_list needs at least two distinct eps, all in "
                         "(0, 1], got %s" % e.tolist())


def fit_slope(eps_list, residuals):
    _check_eps_list(eps_list)
    x = np.log(np.asarray(eps_list, float))
    y = np.log(np.asarray(residuals, float))
    return float(np.polyfit(x, y, 1)[0])


def ensemble_order_fit(pairs, eps_list, pw, in_band, g_pw_out):
    """Slope fits of the (moyal, dirac) residual operator norms over eps,
    RMS-aggregated over several symbol pairs (a, b):

        moyal: || Q(a) Q(b) - Q(ab) + (i eps/2) Q({a,b}) ||, Weyl variant;
        dirac: || (i/eps)[Q(a), Q(b)] - Q({a,b}) ||, KN variant;

    on the input modes within in_band, so band truncation is exact.
    Aggregation keeps the leading-order coefficient away from accidental
    near-cancellations of a single random draw. eps_list needs two
    distinct eps in (0, 1] at least (ValueError, before any work).

    Only what the residuals read is built (module docstring): with g the
    larger g-band of a and b, reach = in_band (+) g (`_product_band`,
    capped at pw's band) and r = band_mask(reach), Q(a) Q(b)[:, in-band] =
    Q(a)[:, r] Q(b)[r, in-band], so Q(a) and Q(b) are built on the columns
    r, a prefix of whole irrep blocks on SU(2), and Q(ab) and Q({a,b}) on
    the in-band ones. Per pair the multiplication operators of a, b, ab and
    {a,b} are built once and assembled for every eps and both variants,
    and per eps the translation blocks of all seven assemblies come from
    one table (`_translations`).
    """
    _check_eps_list(eps_list)
    cols = pw.band_mask(in_band)
    sq = np.zeros((2, len(eps_list)))
    for a, b in pairs:
        ab = symbol_product(a, b, g_pw_out)
        br = poisson_bracket(a, b, g_pw_out)
        reach = min(pw.band, _product_band(pw.group, in_band,
                                           max(a.g_pw.band, b.g_pw.band)))
        r = pw.band_mask(reach)
        c = cols[r]
        syms = (a, b, ab, br)
        ops = [_operators(s, pw, band)
               for s, band in zip(syms, (reach, reach, in_band, in_band))]
        table, rows = _translation_keys([(s, WEYL) for s in syms]
                                        + [(s, KN) for s in (a, b, br)])
        for i, eps in enumerate(eps_list):
            T = _translations(table, eps, pw)
            Qa, Qb, Qab, Qbr = (_assemble(s, o, eps, pw, WEYL, T, rw)
                                for s, o, rw in zip(syms, ops, rows))
            moyal = Qa @ Qb[r][:, c] - Qab + (0.5j * eps) * Qbr
            Qa, Qb, Qbr = (_assemble(syms[j], ops[j], eps, pw, KN, T, rw)
                           for j, rw in zip((0, 1, 3), rows[4:]))
            dirac = ((1j / eps) * (Qa @ Qb[r][:, c] - Qb @ Qa[r][:, c])
                     - Qbr)
            sq[:, i] += [_op_norm(moyal) ** 2, _op_norm(dirac) ** 2]
    moy, dir_ = np.sqrt(sq)
    return (fit_slope(eps_list, moy), fit_slope(eps_list, dir_),
            list(moy), list(dir_))
