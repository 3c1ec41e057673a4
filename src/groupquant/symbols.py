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
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import groups as G
from .peterweyl import PWSpace


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
        return G.irrep_labels(self.group, self.pi_band)

    @property
    def quad(self):
        return self.g_pw.quad

    def copy_map(self, fn):
        return MatrixSymbol(self.group, self.pi_band, self.g_pw,
                            {lab: fn(lab, v) for lab, v in self.values.items()})

    def adjoint(self):
        """sigma^*(pi, g) = sigma(pi, g)^dagger pointwise."""
        return self.copy_map(lambda lab, v: np.conj(np.swapaxes(v, 1, 2)))

    def coefficients(self, lab):
        """g-band-limited PW coefficients of sigma(lab, .)_{mn}: (dim_g, d, d)."""
        return self.g_pw.analysis(self.values[lab])

    def values_at_quad(self, lab, quad):
        """Re-evaluate sigma(lab, .) on another quadrature's nodes."""
        coef = self.coefficients(lab)
        pts = quad.angles if self.group == G.U1 else quad.quats
        E = self.g_pw.eval_basis(pts)
        return np.tensordot(E, coef, axes=(1, 0))

    def max_abs_diff(self, other):
        return max(np.abs(self.values[lab] - other.values[lab]).max()
                   for lab in self.values)


def make_g_space(group, g_band, quad_degree=None):
    return PWSpace(group, g_band, quad_degree=quad_degree)


def identity_symbol(group, pi_band, g_pw):
    vals = {}
    n = g_pw.quad.n_nodes
    for lab in G.irrep_labels(group, pi_band):
        d = G.dim(group, lab)
        vals[lab] = np.broadcast_to(np.eye(d, dtype=complex),
                                    (n, d, d)).copy()
    return MatrixSymbol(group, pi_band, g_pw, vals)


def function_symbol(group, pi_band, g_pw, f_grid):
    """sigma_f(pi, g) = f(g) 1."""
    vals = {}
    for lab in G.irrep_labels(group, pi_band):
        d = G.dim(group, lab)
        vals[lab] = f_grid[:, None, None] * np.eye(d, dtype=complex)
    return MatrixSymbol(group, pi_band, g_pw, vals)


def momentum_symbol(group, pi_band, g_pw, eps, direction=0):
    """sigma_{P_X}(pi, g) = i eps dpi(X), X = tau_direction (or 1 for U(1))."""
    from .wigner import su2_generator
    vals = {}
    n = g_pw.quad.n_nodes
    for lab in G.irrep_labels(group, pi_band):
        if group == G.U1:
            blk = np.array([[1j * lab]], dtype=complex)
        else:
            blk = su2_generator(lab - 1, direction)
        vals[lab] = np.broadcast_to(1j * eps * blk,
                                    (n,) + blk.shape).copy()
    return MatrixSymbol(group, pi_band, g_pw, vals)


def random_symbol(group, pi_band, g_pw, rng, hermitian=False, scale=1.0):
    """Band-limited random symbol (g-band = g_pw.band)."""
    vals = {}
    for lab in G.irrep_labels(group, pi_band):
        d = G.dim(group, lab)
        coef = scale * (rng.standard_normal((g_pw.dim, d, d))
                        + 1j * rng.standard_normal((g_pw.dim, d, d)))
        v = g_pw.synthesis(coef)
        if hermitian:
            v = (v + np.conj(np.swapaxes(v, 1, 2))) / 2.0
        vals[lab] = v
    return MatrixSymbol(group, pi_band, g_pw, vals)


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

def kn_quantize(sym, pw):
    """Matrix of the Kohn-Nirenberg operator on the truncated PW space."""
    quad = pw.quad
    w = quad.weights
    # Psihat_i(pi) = sum_k w_k E[k, i] D[pi][k]
    out_vals = np.zeros((pw.dim, quad.n_nodes), dtype=complex)
    for lab in sym.labels:
        d = G.dim(sym.group, lab)
        D = quad.rep_grid(lab)
        psihat = np.einsum("k,ki,kmn->imn", w, pw.E, D)
        sig = sym.values_at_quad(lab, quad)
        out_vals += d * np.einsum("knm,knp,ipm->ik", D.conj(), sig, psihat,
                                  optimize=True)
    coeffs = pw.analysis(out_vals.T)          # (dim, basis)
    resid = np.abs(out_vals.T - pw.synthesis(coeffs)).max()
    scale = max(np.abs(out_vals).max(), 1e-300)
    return TruncatedOperator(pw, coeffs, truncation_error=resid / scale)


def kn_symbol(op, pi_band, g_pw):
    """sigma_A(pi, g) = (pi A pi^*)(g), projected onto the g_pw band.

    The largest value dropped outside the g-band, relative to the largest
    symbol value over all labels, is returned as the symbol's
    projection_residual; it vanishes for operators in the band-limited
    calculus.
    """
    pw = op.pw
    quad = pw.quad
    pts = quad.angles if pw.group == G.U1 else quad.quats
    E_small = g_pw.eval_basis(pts)
    EW_small = (E_small.conj() * quad.weights[:, None]).T
    vals = {}
    resid = scale = 0.0
    for lab in G.irrep_labels(pw.group, pi_band):
        if lab not in pw.labels:
            raise ValueError("operator band too small for label %r" % lab)
        d = G.dim(pw.group, lab)
        D = quad.rep_grid(lab)
        # columns of pi^*: (pi^*)_{mn}(g) = conj(D_{nm}(g))
        F = np.conj(np.swapaxes(D, 1, 2)).reshape(quad.n_nodes, d * d)
        C = pw.analysis(F)                    # (dim_pw, d*d)
        W = pw.synthesis(op.matrix @ C)       # (N, d*d)
        sig = np.einsum("kmn,knp->kmp", D, W.reshape(quad.n_nodes, d, d))
        coef = EW_small @ sig.reshape(quad.n_nodes, d * d)
        proj = (E_small @ coef).reshape(quad.n_nodes, d, d)
        resid = max(resid, np.abs(proj - sig).max())
        scale = max(scale, np.abs(sig).max())
        vals[lab] = (g_pw.E @ coef).reshape(g_pw.quad.n_nodes, d, d)
    return MatrixSymbol(pw.group, pi_band, g_pw, vals,
                        projection_residual=resid / max(scale, 1e-300))


def kn_compose(sa, sb, h_quad, h_chunk=64):
    """Direct composition integral
    sigma_{AB}(pi, g) = int dh F_A(h, g) pi(h) sigma_B(pi, h^{-1} g).

    Independent of the operator-product route; h_quad must be exact for the
    combined h-band (A's pi-band + target pi + B's g-band).
    """
    if sa.group != sb.group:
        raise ValueError("group mismatch")
    group = sa.group
    gq = sa.quad
    pts_h = h_quad.angles if group == G.U1 else h_quad.quats
    wh = h_quad.weights
    N_h, N_g = h_quad.n_nodes, gq.n_nodes

    # F_A on the (h, g) double grid
    FA = np.zeros((N_h, N_g), dtype=complex)
    for lab in sa.labels:
        d = G.dim(group, lab)
        Dh = h_quad.rep_grid(lab)
        FA += d * np.einsum("hnm,gnm->hg", Dh.conj(), sa.values[lab],
                            optimize=True)

    out = {}
    pi_band = min(sa.pi_band, sb.pi_band)
    for lab in G.irrep_labels(group, pi_band):
        d = G.dim(group, lab)
        Dh = h_quad.rep_grid(lab)
        CB = sb.coefficients(lab)             # (dim_g, d, d)
        acc = np.zeros((N_g, d, d), dtype=complex)
        for start in range(0, N_h, h_chunk):
            sl = slice(start, min(start + h_chunk, N_h))
            shift = _eval_left_shifted(sb.g_pw, CB, h_quad, sl, gq)
            acc += np.einsum("h,hg,hmn,hgnp->gmp", wh[sl], FA[sl],
                             Dh[sl], shift, optimize=True)
        out[lab] = acc
    return MatrixSymbol(group, pi_band, sa.g_pw, out)


def _eval_left_shifted(g_pw, coef, h_quad, h_slice, gq):
    """Values f(h^{-1} g) for PW coefficient data f, over (h in slice, g grid).

    coef has shape (dim_g, d, d); returns (n_h, N_g, d, d).
    """
    group = g_pw.group
    n_h = h_slice.stop - h_slice.start
    out = np.zeros((n_h, gq.n_nodes) + coef.shape[1:], dtype=complex)
    for lab2 in g_pw.labels:
        d2 = G.dim(group, lab2)
        o = g_pw.offsets[lab2]
        c = coef[o:o + d2 * d2].reshape((d2, d2) + coef.shape[1:])
        Dh2 = h_quad.rep_grid(lab2)[h_slice]
        Dg2 = gq.rep_grid(lab2)
        out += math.sqrt(d2) * np.einsum("hca,gcb,ab...->hg...",
                                         Dh2.conj(), Dg2, c, optimize=True)
    return out


# ---------------------------------------------------------------------------
# square roots and the Weyl deformation
# ---------------------------------------------------------------------------

def sqrt_elements(group, quad):
    """Pointwise square roots of the quadrature nodes, angle in (-pi, pi)."""
    if group == G.U1:
        phi = np.where(quad.angles > math.pi, quad.angles - 2 * math.pi,
                       quad.angles)
        return phi / 2.0  # angles of sqrt(h)
    X = G.quat_log(quad.quats)
    return G.quat_exp(X / 2.0)


def branch_mass(group, quad, F_hg, margin=0.2):
    """Relative kernel mass within `margin` of the branch locus (angle pi)."""
    w = quad.weights
    m_h = np.einsum("hg,hg->h", np.abs(F_hg) ** 2,
                    np.broadcast_to(1.0, F_hg.shape))
    if group == G.U1:
        ang = np.abs(np.where(quad.angles > math.pi,
                              quad.angles - 2 * math.pi, quad.angles))
        near = ang > math.pi - margin
    else:
        ang = np.linalg.norm(G.quat_log(quad.quats), axis=1)
        near = ang > 2 * math.pi - 2 * margin
    total = float(np.sum(w * m_h))
    if total == 0.0:
        return 0.0
    return float(np.sum(w[near] * m_h[near])) / total


def kernel_values(sym, h_quad, s=0):
    """F(h, sqrt(h)^s g) on the (h_quad, sym.quad) double grid, s in
    {0, -1, +1}, with F(h, g) = sum_pi d_pi tr(pi(h)^* sigma(pi, g)).

    The shift acts on the g-band PW coefficients of F(h, .) through
    e_(pi,a,b)(v g) = sqrt(d_pi) sum_c pi(v)_{ac} pi(g)_{cb}.
    """
    if s not in (-1, 0, 1):
        raise ValueError("shift exponent must be -1, 0 or +1")
    group, g_pw = sym.group, sym.g_pw
    N_h = h_quad.n_nodes
    coef = np.zeros((N_h, g_pw.dim), dtype=complex)  # F(h, .) coefficients
    for lab in sym.labels:
        d = G.dim(group, lab)
        Dh = h_quad.rep_grid(lab).conj().reshape(N_h, d * d)
        coef += d * Dh @ sym.coefficients(lab).reshape(g_pw.dim, d * d).T
    if s:
        v = sqrt_elements(group, h_quad)
        if s < 0:
            v = -v if group == G.U1 else G.quat_inv(v)
        Ev = g_pw.eval_basis(v)                 # sqrt(d) pi(v_h) blocks
        for lab2 in g_pw.labels:
            d2 = G.dim(group, lab2)
            blk = slice(g_pw.offsets[lab2], g_pw.offsets[lab2] + d2 * d2)
            Dv = Ev[:, blk].reshape(N_h, d2, d2) / math.sqrt(d2)
            c = coef[:, blk].reshape(N_h, d2, d2)
            coef[:, blk] = np.einsum("hac,hab->hcb", Dv, c).reshape(N_h, -1)
    return coef @ g_pw.E.T


def _deform(sym, h_quad, s, pi_band, branch_tol):
    """int dh F(h, sqrt(h)^s g) pi(h) for pi up to pi_band, after rejecting
    kernels F(h, g) with more than branch_tol mass at the branch locus."""
    mass = branch_mass(sym.group, h_quad, kernel_values(sym, h_quad))
    if mass > branch_tol:
        raise BranchLocusError(mass, branch_tol)
    FwT = (kernel_values(sym, h_quad, s) * h_quad.weights[:, None]).T
    out = {}
    for lab in G.irrep_labels(sym.group, pi_band):
        Dh = h_quad.rep_grid(lab)
        out[lab] = (FwT @ Dh.reshape(h_quad.n_nodes, -1)).reshape(
            (FwT.shape[0],) + Dh.shape[1:])
    return out


def weyl_deform(sym, h_quad, branch_tol=1e-12):
    """Weyl kernel F^W(h, g) = F^R(h, sqrt(h)^{-1} g) in double Fourier form.

    Rejects symbols whose right kernel carries more than branch_tol relative
    mass near the square-root branch locus.
    """
    K = _deform(sym, h_quad, -1, sym.pi_band, branch_tol)
    return ConvolutionKernel(sym.group, sym.pi_band, sym.g_pw, K)


def kernel_quantize(kernel, pw, h_quad):
    """rho_L(F): (A Psi)(g) = int dh F(h, g) Psi(h^{-1} g) on the PW space.

    kernel.K is the KN symbol of rho_L(F), so this is kn_quantize. h_quad is
    not read; the parameter stays for the callers that pass it.
    """
    return kn_quantize(MatrixSymbol(kernel.group, kernel.h_band,
                                    kernel.g_pw, kernel.K), pw)


def weyl_quantize(sym, pw, h_quad, branch_tol=1e-12):
    return kernel_quantize(weyl_deform(sym, h_quad, branch_tol), pw, h_quad)


def weyl_symbol(op, pi_band, g_pw, h_quad, branch_tol=1e-12):
    """sigma^W_A(pi, g) = int dh F_A(h, sqrt(h) g) pi(h), with F_A the left
    kernel of the KN symbol of A over the whole operator band."""
    kn = kn_symbol(op, op.pw.band, g_pw)
    return MatrixSymbol(op.pw.group, pi_band, g_pw,
                        _deform(kn, h_quad, 1, pi_band, branch_tol),
                        projection_residual=kn.projection_residual)


# ---------------------------------------------------------------------------
# serialization (bit-exact roundtrip via repr floats)
# ---------------------------------------------------------------------------

def symbol_to_json(sym):
    payload = {
        "group": sym.group,
        "pi_band": sym.pi_band,
        "g_band": sym.g_pw.band,
        "grid_degree": sym.quad.exactness_degree,
        "values": {},
    }
    for lab, v in sym.values.items():
        inter = np.empty(v.shape + (2,))
        inter[..., 0] = v.real
        inter[..., 1] = v.imag
        payload["values"][str(lab)] = {
            "shape": list(v.shape),
            "data": [repr(x) for x in inter.ravel().tolist()],
        }
    return json.dumps(payload)


def symbol_from_json(text):
    payload = json.loads(text)
    g_pw = PWSpace(payload["group"], payload["g_band"],
                   quad_degree=payload["grid_degree"])
    vals = {}
    for lab_s, rec in payload["values"].items():
        flat = np.array([float(x) for x in rec["data"]])
        inter = flat.reshape(tuple(rec["shape"]) + (2,))
        vals[int(lab_s)] = inter[..., 0] + 1j * inter[..., 1]
    return MatrixSymbol(payload["group"], payload["pi_band"], g_pw, vals)
