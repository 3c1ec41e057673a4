"""Global Kohn-Nirenberg and Weyl matrix-symbol calculus on U(1) and SU(2).

A matrix symbol assigns to every irrep label pi (up to a band) a matrix-
valued function of g, sampled on a Haar quadrature grid and band-limited in
g. Operators act on a truncated Peter-Weyl space. The quantization is

    (A Psi)(g) = sum_pi d_pi tr( pi(g)^* sigma(pi, g) Psihat(pi) ),
    Psihat(pi) = int Psi(g) pi(g) dg,

the symbol of an operator is sigma_A(pi, g) = (pi A pi^*)(g), and its left
convolution kernel is F(h, g) = sum_pi d_pi tr(pi(h)^* sigma(pi, g)). The
Weyl deformation twists that kernel by the group square root,
F^W(h, g) = F^R(h, sqrt(h)^{-1} g), so both Weyl directions reduce to the
Kohn-Nirenberg calculus and one shift:

    Weyl quantization = KN quantization o deform(sqrt(h)^{-1}),
    Weyl symbol       = deform(sqrt(h)) o KN symbol,

where deform(v) Fourier-transforms F(h, v_h g) in h. Square roots are taken
through the exponential with rotation angle in (-pi, pi); kernels carrying
mass at the branch locus (angle pi) are rejected.

Three identities keep the KN paths cheap. Schur orthogonality limits
kn_quantize to the columns within the symbol's pi-band. By Schur's
conjugation identity conj(e_i) = s_i e_ibar (peterweyl), kn_quantize and
kn_symbol read Psihat_i(pi) and pi^* off an index map, so that
kn_quantize's columns are sums of multiplication-operator columns, formed
from the symbol's coefficients. Left translation of
coefficients, rho(h^{-1} g) = rho(h)^* rho(g), lets kn_compose translate a
band-limited symbol without evaluating it at the points h^{-1} g.

deform reuses the last two on the g-band coefficients of F(h, .) at the h
nodes, which v shifts block by block: e_(pi,a,b)(v g) = sqrt(d) sum_c
pi(v)_ac pi(g)_cb. With j = (pi, m, n), conj(pi(h)_mn) = s_j e_jbar(h) /
sqrt(d) makes both h sums transforms of a PWSpace hp on the h-grid: F(h, .)
is hp's synthesis of sqrt(d) sigma's coefficients, signed and moved to jbar;
int dh F(h, .) pi(h)_mn is s_j / sqrt(d) times hp's analysis at jbar.

Every grid sum is a transform of `peterweyl.space`'s space of the band it
needs on that grid, so the grids that deform, kn_compose and values_at_quad
are handed must be group_quadratures; others raise ValueError.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .peterweyl import _BLOCK, PWSpace, space

# Weyl kernels with more relative mass than _BRANCH_TOL within _BRANCH_MARGIN
# of the square-root branch locus are rejected
_BRANCH_TOL = 1e-12
_BRANCH_MARGIN = 0.2


class BranchLocusError(ValueError):
    def __init__(self, mass, tol):
        super().__init__(
            "kernel mass %.3e at the square-root branch locus exceeds %.1e"
            % (mass, tol))
        self.mass = mass


@dataclass
class MatrixSymbol:
    """sigma(pi, g) for labels up to pi_band, on the grid of g_pw.quad.

    projection_residual is what kn_symbol and weyl_symbol dropped outside
    the g-band when they projected an operator's symbol onto g_pw, relative
    to the largest symbol value; it is 0 for symbols built from grid data.
    """
    group: str
    pi_band: int
    g_pw: PWSpace
    values: dict = field(default_factory=dict)  # label -> (N, d, d)
    projection_residual: float = 0.0

    @property
    def labels(self):
        return self.group.labels(self.pi_band)

    @property
    def quad(self):
        return self.g_pw.quad

    def adjoint(self):
        """sigma^*(pi, g) = sigma(pi, g)^dagger pointwise."""
        return MatrixSymbol(self.group, self.pi_band, self.g_pw,
                            {lab: np.conj(np.swapaxes(v, 1, 2))
                             for lab, v in self.values.items()})

    def _coefficient_stack(self, run):
        """The coefficients of the labels of a run side by side, (dim_g, sum
        of d^2) with d^2 columns per label: one analysis."""
        return self.g_pw.analysis(np.concatenate(
            [self.values[lab].reshape(self.quad.n_nodes, -1) for lab in run],
            axis=1))

    def values_at_quad(self, lab, quad):
        """sigma(lab, .) at a group_quadrature's nodes, else ValueError."""
        gs = space(self.group, self.g_pw.band, quad.exactness_degree)
        gs._check_grid(quad)
        d = self.group.dim(lab)
        return gs.synthesis(self._coefficient_stack([lab])).reshape(-1, d, d)

    def max_abs_diff(self, other):
        return max(np.abs(self.values[lab] - other.values[lab]).max()
                   for lab in self.values)


def make_g_space(group, g_band, quad_degree):
    return space(group, g_band, quad_degree)


def identity_symbol(group, pi_band, g_pw):
    return function_symbol(group, pi_band, g_pw, np.ones(g_pw.quad.n_nodes))


def function_symbol(group, pi_band, g_pw, f_grid):
    """sigma_f(pi, g) = f(g) 1."""
    vals = {}
    for lab in group.labels(pi_band):
        d = group.dim(lab)
        vals[lab] = f_grid[:, None, None] * np.eye(d, dtype=complex)
    return MatrixSymbol(group, pi_band, g_pw, vals)


def momentum_symbol(group, pi_band, g_pw, eps, direction=0):
    """sigma_{P_X}(pi, g) = i eps dpi(X), X = tau_direction (or 1 for U(1))."""
    n = g_pw.quad.n_nodes
    return MatrixSymbol(group, pi_band, g_pw, {
        lab: np.repeat(1j * eps * group.generator(lab, direction)[None], n,
                       axis=0) for lab in group.labels(pi_band)})


def random_symbol(group, pi_band, g_pw, rng):
    """Band-limited random symbol (g-band = g_pw.band) with standard complex
    Gaussian coefficients, drawn per label, real parts then imaginary parts;
    one synthesis."""
    labels = group.labels(pi_band)
    draws = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in
             [(g_pw.dim, group.dim(lab) ** 2) for lab in labels]]
    return MatrixSymbol(group, pi_band, g_pw, _label_views(
        group, labels, g_pw.synthesis(np.concatenate(draws, axis=1))))


@dataclass
class TruncatedOperator:
    pw: PWSpace
    matrix: np.ndarray
    truncation_error: float = 0.0


@dataclass
class ConvolutionKernel:
    """Left kernel F(h, g) in double Fourier form: K[pi](g)_{mn} with
    F(h, g) = sum_pi d_pi tr(pi(h)^* K[pi](g)), sampled on g_pw.quad; K is
    the KN symbol of the operator rho_L(F)."""
    group: str
    h_band: int
    g_pw: PWSpace
    K: dict = field(default_factory=dict)  # label -> (N_g, d, d)


# ---------------------------------------------------------------------------
# quantization / dequantization
# ---------------------------------------------------------------------------

def _label_runs(group, labels, n_nodes):
    """The labels in runs of consecutive ones whose stacks of values at
    n_nodes nodes, n_nodes by the sum of their d^2, hold at most
    peterweyl._BLOCK entries; one label at least per run."""
    runs, size = [], 0
    for lab in labels:
        d2 = group.dim(lab) ** 2
        if not runs or (size + d2) * n_nodes > _BLOCK:
            runs, size = runs + [[]], 0
        runs[-1].append(lab)
        size += d2
    return runs


def _label_views(group, labels, stack):
    """{label: (rows, d, d) view} of a stack (rows, sum of d^2) that holds
    the labels' matrices side by side, d^2 columns per label."""
    views, o = {}, 0
    for lab in labels:
        d = group.dim(lab)
        views[lab] = stack[:, o:o + d * d].reshape(-1, d, d)
        o += d * d
    return views


def _stack_dims(group, run):
    """The irrep dimension d of each column of a stack of the labels of a
    run: d^2 columns per label."""
    d = np.array([group.dim(lab) for lab in run])
    return np.repeat(d, d * d)


def kn_quantize(sym, pw):
    """Matrix of the Kohn-Nirenberg operator on the truncated PW space.

    Column i reads e_i only through Psihat_i(pi) = int e_i(g) pi(g) dg,
    which by Schur orthogonality vanishes unless the label of e_i is dual
    to pi (SU(2) labels are self-dual; the dual of the U(1) label j is -j):
    labels without a dual in pw add nothing, and the columns outside
    pw.band_mask(sym.pi_band) are exactly zero.

    The others are columns of multiplication operators. By conj(pi_nm) =
    s_(pi,n,m) e_bar(pi,n,m) / sqrt(d) (peterweyl's conjugation map),
    column bar(pi,p,m) is sqrt(d) s_(pi,p,m) times the coefficients of
    sum_n sigma(pi, .)_np conj(pi_nm), that is

        Q[:, bar(pi,p,m)] = s_(pi,p,m) sum_n s_(pi,n,m)
                            M_(sigma_np)[:, bar(pi,n,m)],

    M_f the multiplication operator of f (`PWSpace.multiplication_operator`)
    and sigma_np the entry function g -> sigma(pi, g)_np. One analysis
    gives every entry function's g-band coefficients; then, per run of
    labels of one dimension (all of U(1)'s labels are one), each entry
    function reads the d columns bar(pi,n,m), m = 0..d-1, on the entries
    that the selection rule of the g-band admits: rows whose label and
    twice-weights differ from the column's by at most the largest
    twice-weight of the g-band (`PWSpace._entries`, summed over the beta
    nodes as multiplication_operator sums them). No function is evaluated
    on pw's grid. The runs' labels are closed under duality, so a run's
    columns are its own blocks.

    The rows reach the product band of the labels and the g-band. Where
    that fits in pw.band nothing is dropped, and truncation_error is 0.0.
    Above, the columns are the same quadrature sums on the space of the
    product band on pw's grid, and truncation_error is the grid maximum of
    what their rows above pw.band hold, relative to the grid maximum of
    the columns, synthesised in stacks of `_label_runs`.
    """
    gs = pw._band_space(sym.g_pw.band)
    group, g, q = sym.group, sym.g_pw.band, pw.quad.exactness_degree
    labels = [lab for lab in sym.labels if lab in pw.offsets]
    if not labels:
        return TruncatedOperator(pw, np.zeros((pw.dim, pw.dim), dtype=complex))
    reach = group.product_band(max(abs(lab) for lab in labels), g)
    rs = pw if reach <= pw.band else space(group, reach, q)
    rows = np.flatnonzero(rs.band_mask(reach))
    full = np.zeros((rs.dim, pw.dim), dtype=complex)    # rs's rows
    C = sym._coefficient_stack(labels)
    n_beta = pw.quad.shape[1]
    for k, labs, s, d in pw._block_runs(pw.offsets[labels[0]], C.shape[1]):
        first = pw._runs[k][0][labs.start]
        lo, o = rs.offsets[first], pw.offsets[first]
        _, _, r, c, freq, weights, modes = rs._entries(
            (lo, lo + s.stop - s.start), reach, g)
        # F[(pi, n, p), freq, beta]: the entry functions' (alpha, gamma)
        # Fourier coefficients at each beta node
        F = modes.T @ (C[:, s].T[:, :, None] * gs._dtable.T)
        # entry (row, bar(pi,n,m)) reads sigma_np for every p and adds to
        # column bar(pi,p,m); j = (pi, n, m) counts from the run's first
        j = rs._dual_index[lo + c] - lo
        m = j % d
        out = (j - j % (d * d) + m)[:, None] + d * np.arange(d)
        func = (j - m)[:, None] + np.arange(d)
        vals = np.empty(out.shape, dtype=complex)
        step = max(1, _BLOCK // (d * n_beta))
        for e in range(0, len(j), step):
            x = slice(e, e + step)
            vals[x] = (F[func[x], freq[x, None]]
                       @ weights[:, x].T[:, :, None])[..., 0]
        vals *= rs._dual_sign[lo + out] * rs._dual_sign[lo + j][:, None]
        np.add.at(full, (rows[r, None], o + rs._dual_index[lo + out] - lo),
                  vals)
    if rs is pw:
        return TruncatedOperator(pw, full)
    kept = rs.band_mask(pw.band)
    resid = scale = 0.0
    for run in _label_runs(group, labels, pw.quad.n_nodes):
        blk = slice(pw.offsets[run[0]],
                    pw.offsets[run[-1]] + group.dim(run[-1]) ** 2)
        cols = full[:, blk, None]
        if cols[~kept].any():      # and the rows above pw.band alone
            cols = np.concatenate([cols, np.where(kept[:, None, None], 0,
                                                  cols)], axis=2)
        v = rs.synthesis(cols)
        scale = max(scale, np.abs(v[..., 0]).max())
        resid = max(resid, np.abs(v[..., 1:]).max(initial=0.0))
    # rs's rows within pw.band are pw's, in order
    return TruncatedOperator(pw, full[kept],
                             truncation_error=resid / max(scale, 1e-300))


def kn_symbol(op, pi_band, g_pw):
    """sigma_A(pi, g) = (pi A pi^*)(g), projected onto the g_pw band.

    The largest value dropped outside the g-band, relative to the largest
    symbol value over all labels, is returned as the symbol's
    projection_residual; it vanishes for operators in the band-limited
    calculus.

    The labels go in stacks (`_label_runs` on the operator's grid) of four
    transforms each: the synthesis of A applied to pi^*'s entries, the
    analysis and synthesis on the g-band, and the synthesis on g_pw. pi
    multiplies from the left out of pw's factor tables
    (`PWSpace._rep_products`).
    """
    pw = op.pw
    labels = pw.group.labels(pi_band)
    missing = [lab for lab in labels if lab not in pw.offsets]
    if missing:
        raise ValueError("operator band too small for label %r" % missing[0])
    gs = pw._band_space(g_pw.band)
    vals = {}
    resid = scale = 0.0
    for run in _label_runs(pw.group, labels, pw.quad.n_nodes):
        # A applied to the entries (pi^*)_{nm} = conj(D_mn) = s_j e_jbar /
        # sqrt(d), j = (pi, m, n): the signed dual columns of A
        j = np.concatenate([pw.block(lab, np.arange(pw.dim)).T.ravel()
                            for lab in run])
        W = pw.synthesis(op.matrix[:, pw._dual_index[j]] * (
            pw._dual_sign[j] / np.sqrt(_stack_dims(pw.group, run))))
        sig = pw._rep_products(W, run)
        coef = gs.analysis(sig)
        resid = max(resid, np.abs(gs.synthesis(coef) - sig).max())
        scale = max(scale, np.abs(sig).max())
        vals.update(_label_views(pw.group, run, g_pw.synthesis(coef)))
    return MatrixSymbol(pw.group, pi_band, g_pw, vals,
                        projection_residual=resid / max(scale, 1e-300))


def kn_compose(sa, sb, h_quad):
    """Direct composition integral
    sigma_{AB}(pi, g) = int dh F_A(h, g) pi(h) sigma_B(pi, h^{-1} g)
    on sa's grid, for labels up to min(sa.pi_band, sb.pi_band).

    An h-quadrature independent of the operator-product route, which the
    tests and the benchmark check it against; it moves to the test oracles
    once the benchmark stops calling it (ROADMAP item 6). Left translation
    acts on sb's g-band coefficients: rho(h^{-1} g) = rho(h)^* rho(g), so
    the block of irrep rho of sigma_B(pi, h^{-1} .) is conj(rho(h)) @ c_rho,
    and pi(h) multiplies each coefficient from the left. The kernel has
    rank sum d^2 over sa's labels (30 at pi-band 4 on SU(2)): F_A(h, g) =
    sum_r U_r(h) V_r(g), r = (pi', p, q), U_r = d' conj(pi'(h)_pq) and V_r
    = sigma_A(pi', g)_pq. So the h-sum never forms F_A on the (h, g) double
    grid: it is G[r, pi (x) conj rho] = sum_h w_h U_r(h) pi(h)_mk
    conj(rho(h))_xa, one matrix product per (pi, rho) pair of labels, and
    Q[g, i] = sum_r V_r(g) (G c_B)[r, i] with c_B sb's coefficients. Then
    sigma_AB(pi, g) = sum_i e_i(g) Q[g, i] with sb's basis at sa's nodes.

    h_quad must be a group_quadrature exact for conj(pi'(h)) pi(h)
    conj(rho(h)), pi' up to sa.pi_band, pi up to the result's band, rho up
    to sb.g_pw.band, the group's exact_degree of their product band; else
    ValueError. On U(1): 2 * degree >= the sum of the three bands; on
    SU(2), whose bands count dimensions: 2 * degree >= that sum - 1.
    """
    if sa.group != sb.group:
        raise ValueError("group mismatch")
    group = sa.group
    pi_band = min(sa.pi_band, sb.pi_band)
    need = group.exact_degree(group.product_band(group.product_band(
        sa.pi_band, pi_band), sb.g_pw.band))
    if h_quad.exactness_degree < need:
        raise ValueError(
            "h quadrature of degree %d is not exact for the composition "
            "integrand; it needs degree %d" % (h_quad.exactness_degree, need))
    g_pw, gq = sb.g_pw, sa.quad
    N_h, N_g = h_quad.n_nodes, gq.n_nodes
    hs = space(group, max(sa.pi_band, g_pw.band), h_quad.exactness_degree)
    hs._check_grid(h_quad)
    Dh = dict(zip(hs.labels, (D for run in hs._reps(h_quad.nodes)
                              for D in run)))

    # F_A(h, g) = sum_r U_r(h) V_r(g), r = (pi', p, q): weighted U, (r, h)
    wU = np.concatenate([group.dim(lab) * Dh[lab].conj().reshape(N_h, -1)
                         for lab in sa.values], axis=1).T * h_quad.weights
    V = np.concatenate([v.reshape(N_g, -1) for v in sa.values.values()],
                       axis=1)
    E = g_pw.eval_basis(gq.nodes)
    VE = (V[:, :, None] * E[:, None, :]).reshape(N_g, -1)   # (g, (r, i))

    labels = group.labels(pi_band)
    coefs = _label_views(group, labels, sb._coefficient_stack(labels))
    out = {}
    for lab, CB in coefs.items():             # CB: (dim_g, d, d)
        d = group.dim(lab)
        GC = np.empty((len(wU), g_pw.dim, d, d), dtype=complex)
        for lab2 in g_pw.labels:
            d2 = group.dim(lab2)
            blk = slice(g_pw.offsets[lab2], g_pw.offsets[lab2] + d2 * d2)
            # G[r, (x, m), (k, a)] = sum_h w_h U_r(h) conj(rho(h))_xa pi(h)_mk
            P = (Dh[lab2].conj()[:, :, None, None, :]
                 * Dh[lab][:, None, :, :, None])
            Gr = (wU @ P.reshape(N_h, -1)).reshape(-1, d * d2)
            # (G C)[r, (x, b), m, n] = sum_(k, a) G[r, (x, m), (k, a)]
            # c_(rho, a, b)[k, n]
            C = CB[blk].reshape(d2, d2, d, d).transpose(2, 0, 1, 3)
            GC[:, blk] = (Gr @ C.reshape(d * d2, -1)).reshape(
                -1, d2, d, d2, d).transpose(0, 1, 3, 2, 4).reshape(
                -1, d2 * d2, d, d)
        out[lab] = (VE @ GC.reshape(-1, d * d)).reshape(N_g, d, d)
    return MatrixSymbol(group, pi_band, sa.g_pw, out)


# ---------------------------------------------------------------------------
# square roots and the Weyl deformation
# ---------------------------------------------------------------------------

def sqrt_elements(group, quad):
    """Pointwise square roots exp(log(h) / 2) of the quadrature nodes h,
    angle in (-pi, pi)."""
    return group.exp(group.log(quad.nodes) / 2.0)


def branch_mass(group, quad, coef):
    """Relative Haar mass of a kernel within _BRANCH_MARGIN of the branch
    locus, angle pi: group.cos_angle (cos of the U(1) angle, or the SU(2)
    real part cos(|X|/2)) below -cos(_BRANCH_MARGIN). coef holds F(h, .)'s
    g-band coefficients at quad's nodes: int |F(h, g)|^2 dg = |coef[h]|^2."""
    m_h = quad.weights * np.einsum("hi,hi->h", coef, coef.conj()).real
    near = m_h[group.cos_angle(quad.nodes) < -math.cos(_BRANCH_MARGIN)]
    return float(np.sum(near)) / max(float(np.sum(m_h)), 1e-300)


def _kernel_coefficients(sym, h_quad, band):
    """(hp, the g-band coefficients of F(h, .) at the h nodes, (N_h, dim_g)),
    hp the space of `band` on h_quad. ValueError unless h_quad is hp's grid
    of degree `band` at least: a coarser grid aliases the Weyl sums."""
    if h_quad.exactness_degree < band:
        raise ValueError("h quadrature of degree %d aliases the Weyl kernel;"
                         " it needs degree %d"
                         % (h_quad.exactness_degree, band))
    hp = space(sym.group, band, h_quad.exactness_degree)
    hp._check_grid(h_quad)
    C = np.zeros((hp.dim, sym.g_pw.dim), dtype=complex)
    for run in _label_runs(sym.group, sym.labels, sym.quad.n_nodes):
        d = _stack_dims(sym.group, run)
        o = hp.offsets[run[0]]
        C[o:o + len(d)] = (np.sqrt(d) * sym._coefficient_stack(run)).T
    return hp, hp.synthesis(hp._dual_sign[:, None] * C[hp._dual_index])


def _deform(sym, h_quad, s, pi_band):
    """int dh F(h, sqrt(h)^s g) pi(h) for pi up to pi_band, s = +-1; kernels
    with more than _BRANCH_TOL mass at the branch locus are rejected."""
    group, g_pw = sym.group, sym.g_pw
    hp, coef = _kernel_coefficients(sym, h_quad, max(sym.pi_band, pi_band))
    mass = branch_mass(group, h_quad, coef)
    if mass > _BRANCH_TOL:
        raise BranchLocusError(mass, _BRANCH_TOL)
    v = sqrt_elements(group, h_quad)
    DvT = [np.swapaxes(D, -1, -2)
           for D in g_pw._reps(v if s > 0 else group.inv(v))]
    A = hp.analysis(g_pw._kron_rows(DvT, coef[:, :, None])[:, :, 0])
    labels = group.labels(pi_band)
    j = np.flatnonzero(hp.band_mask(pi_band))     # the labels' whole blocks
    scale = hp._dual_sign[j] / np.sqrt(_stack_dims(group, labels))
    return _label_views(group, labels, g_pw.synthesis(
        (scale[:, None] * A[hp._dual_index[j]]).T))


def weyl_deform(sym, h_quad):
    """Weyl kernel F^W(h, g) = F^R(h, sqrt(h)^{-1} g) in double Fourier form.

    Rejects symbols whose right kernel carries more than _BRANCH_TOL
    relative mass near the square-root branch locus.
    """
    K = _deform(sym, h_quad, -1, sym.pi_band)
    return ConvolutionKernel(sym.group, sym.pi_band, sym.g_pw, K)


def kernel_quantize(kernel, pw, h_quad):
    """rho_L(F): (A Psi)(g) = int dh F(h, g) Psi(h^{-1} g) on the PW space.

    kernel.K is the KN symbol of rho_L(F), so this is kn_quantize: columns
    of multiplication operators by the entries of K's g-band coefficients,
    with no h-sum and no grid. h_quad is not read; the parameter stays for
    the callers that pass it.
    """
    return kn_quantize(MatrixSymbol(kernel.group, kernel.h_band,
                                    kernel.g_pw, kernel.K), pw)


def weyl_quantize(sym, pw, h_quad):
    return kernel_quantize(weyl_deform(sym, h_quad), pw, h_quad)


def weyl_symbol(op, pi_band, g_pw, h_quad):
    """sigma^W_A(pi, g) = int dh F_A(h, sqrt(h) g) pi(h), with F_A the left
    kernel of the KN symbol of A over the whole operator band."""
    kn = kn_symbol(op, op.pw.band, g_pw)
    return MatrixSymbol(op.pw.group, pi_band, g_pw,
                        _deform(kn, h_quad, 1, pi_band),
                        projection_residual=kn.projection_residual)
