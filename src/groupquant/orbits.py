"""Stratonovich-Weyl calculus on SU(2) coadjoint orbits.

The spin-j orbit is the sphere of radius j (weight units); its Liouville
measure is normalized to total mass d = 2j+1. Coherent vectors come from
the ZYZ section g_theta = R_z(alpha) R_y(beta) (gamma = 0), so that the
momentum map J_i(v) = <v, J_i v> satisfies J(v_theta) = j * nhat(theta)
exactly. The overlap kernel K(theta, theta') = |<v_theta, v_theta'>|^2 =
cos^{4j}(gamma/2) is rotation invariant and acts diagonally on spherical
harmonics with eigenvalues

    k_l = (d/2) int_{-1}^{1} ((1+x)/2)^{2j} P_l(x) dx,   k_0 = 1,

and the Stratonovich-Weyl operator field is Delta(theta) = K^{-1/2} P_theta
realized by the harmonic rescaling k_l^{-1/2}.
"""

import csv
import json
import math

import numpy as np
from scipy.special import sph_harm_y

from . import groups as G
from .wigner import angular_momentum, wigner_D_euler_grid, clebsch_gordan


def kernel_eigenvalues(twoj, lmax=None):
    """k_l = (2j)! (2j+1)! / ((2j-l)! (2j+l+1)!) for 0 <= l <= lmax.

    Closed form of the Funk-Hecke integral (d/2) int ((1+x)/2)^{2j} P_l dx,
    in log-factorials so the deep tail (k ~ 1e-20 at l = 2j = 32) keeps its
    sign and monotonicity; the quadrature and Clebsch-Gordan evaluations
    serve as independent oracles in the tests.
    """
    if lmax is None:
        lmax = twoj
    lg = math.lgamma
    out = np.empty(lmax + 1)
    for l in range(lmax + 1):
        out[l] = math.exp(lg(twoj + 1) + lg(twoj + 2)
                          - lg(twoj - l + 1) - lg(twoj + l + 2))
    return out


class OrbitSpec:
    def __init__(self, twoj, L=None):
        self.twoj = twoj
        self.d = twoj + 1
        self.j = twoj / 2.0
        self.L = 2 * twoj + 2 if L is None else L
        n_beta = self.L // 2 + 2
        n_alpha = self.L + 2
        x, wx = np.polynomial.legendre.leggauss(n_beta)
        beta = np.arccos(x)
        alpha = 2 * math.pi * np.arange(n_alpha) / n_alpha
        B, A = np.meshgrid(beta, alpha, indexing="ij")
        W = np.repeat(wx[:, None], n_alpha, axis=1) / (2.0 * n_alpha)
        self.beta = B.ravel()
        self.alpha = A.ravel()
        self.weights = self.d * W.ravel()      # total mass d
        self.n_nodes = len(self.weights)
        sb = np.sin(self.beta)
        self.nhat = np.stack([sb * np.cos(self.alpha),
                              sb * np.sin(self.alpha),
                              np.cos(self.beta)], axis=-1)
        D = wigner_D_euler_grid(twoj, self.alpha, self.beta,
                                np.zeros_like(self.alpha))
        self.coherent = D[:, :, 0]             # v_theta = D e_{highest}
        self.k_l = kernel_eigenvalues(twoj)
        self._Y = {}
        self._delta = None

    def harmonics(self, l):
        """Y_{lm}(theta) on the grid, shape (N, 2l+1), m = -l..l."""
        if l not in self._Y:
            cols = [sph_harm_y(l, m, self.beta, self.alpha)
                    for m in range(-l, l + 1)]
            self._Y[l] = np.stack(cols, axis=-1)
        return self._Y[l]

    def orthonormality_residual(self):
        worst = 0.0
        for l in range(0, self.L + 1):
            Yl = self.harmonics(l)
            for lp in range(l, min(self.L - l, self.L) + 1):
                Yp = self.harmonics(lp)
                g = np.einsum("a,am,an->mn", self.weights, Yl.conj(), Yp)
                expect = (self.d / (4 * math.pi)) * np.eye(2 * l + 1) \
                    if l == lp else 0.0
                worst = max(worst, np.abs(g - expect).max())
        return worst

    # -- harmonic analysis on the orbit (band l <= L/2 exact) ---------------

    def sh_analysis(self, field, lmax):
        """Coefficients c_{lm} with field = sum c_{lm} Y_{lm}."""
        out = []
        for l in range(lmax + 1):
            Yl = self.harmonics(l)
            out.append(np.einsum("a,am,a...->m...", self.weights, Yl.conj(),
                                 field) * (4 * math.pi / self.d))
        return out

    def sh_synthesis(self, coeffs):
        shape = coeffs[0].shape[1:] if coeffs[0].ndim > 1 else ()
        out = np.zeros((self.n_nodes,) + shape, dtype=complex)
        for l, c in enumerate(coeffs):
            out += np.einsum("am,m...->a...", self.harmonics(l), c)
        return out

    def rescale_harmonics(self, field, factors, lmax=None):
        """Apply sum_l factors[l] * (projection on degree l)."""
        if lmax is None:
            lmax = self.twoj
        coeffs = self.sh_analysis(field, lmax)
        return self.sh_synthesis([factors[l] * c
                                  for l, c in enumerate(coeffs)])

    # -- Stratonovich-Weyl operator field ------------------------------------

    def delta_field(self):
        """Delta(theta_a) as an (N, d, d) array."""
        if self._delta is None:
            P = np.einsum("am,an->amn", self.coherent, self.coherent.conj())
            # lower symbol of E_{mn} is conj(v_m) v_n = P[a, n, m]
            L_field = np.swapaxes(P, 1, 2).reshape(self.n_nodes, -1)
            W_field = self.rescale_harmonics(L_field, self.k_l ** -0.5)
            # Delta(theta)_{nm} = W_{E_{mn}}(theta)
            self._delta = np.swapaxes(
                W_field.reshape(self.n_nodes, self.d, self.d), 1, 2)
        return self._delta


def coherent_vector(spec, alpha, beta):
    D = wigner_D_euler_grid(spec.twoj, np.atleast_1d(alpha),
                            np.atleast_1d(beta), np.zeros(1))
    return D[0, :, 0]


def momentum_map(twoj, v):
    """J_i(v) = <v, J_i v>; equals j * nhat for coherent vectors."""
    J = angular_momentum(twoj)
    return np.array([np.real(np.conj(v) @ (Ji @ v)) for Ji in J])


def lower_symbol(spec, A):
    """L_A(theta) = <v_theta, A v_theta>."""
    return np.einsum("am,mn,an->a", spec.coherent.conj(), A, spec.coherent)


def upper_symbol_from_lower(spec, L_field):
    """U_A with K U_A = L_A, by harmonic rescaling with k_l^{-1}."""
    return spec.rescale_harmonics(L_field, 1.0 / spec.k_l)


def sw_symbol(spec, A):
    """W_A(theta) = tr(Delta(theta) A)."""
    return np.einsum("anm,mn->a", spec.delta_field(), A)


def sw_quantize(spec, W_field):
    """A = int W(theta) Delta(theta) dmu."""
    return np.einsum("a,a,anm->nm", spec.weights, W_field,
                     spec.delta_field())


def berezin_quantize(spec, field):
    """Q^B(f) = int f(theta) P_theta dmu."""
    return np.einsum("a,a,am,an->mn", spec.weights, field,
                     spec.coherent, spec.coherent.conj())


def berezin_sw_residual(spec, field):
    """|| Q^SW(f) - Q^B(S^{1/2} f) || where S is the lower-to-upper map.

    With the overlap kernel normalized so its harmonic eigenvalues are the
    k_l <= 1 (upper-to-lower smoothing), the lower-to-upper rescaling is
    k_l^{-1}, and the Berezin comparison reads Q^SW = Q^B(k^{-1/2}-rescale).
    """
    lhs = sw_quantize(spec, field)
    rhs = berezin_quantize(spec, spec.rescale_harmonics(field,
                                                        spec.k_l ** -0.5))
    return float(np.abs(lhs - rhs).max())


def sw_twisted_product(spec, WA, WB):
    """(W_A * W_B)(theta) through the triple-kernel contraction
    tr(Delta(theta) Delta(theta') Delta(theta'')) W_A(theta') W_B(theta''),
    evaluated by contracting the primed integrals first."""
    D = spec.delta_field()
    MA = np.einsum("a,a,anm->nm", spec.weights, WA, D)
    MB = np.einsum("a,a,anm->nm", spec.weights, WB, D)
    return np.einsum("anm,mp,pn->a", D, MA, MB)


def k_operator(spec, field):
    """(K f)(theta) = int |<v_theta, v_theta'>|^2 f dmu (direct kernel)."""
    cosg = np.clip(spec.nhat @ spec.nhat.T, -1.0, 1.0)
    for i in range(spec.n_nodes):
        cosg[i, i] = 1.0
    kern = ((1.0 + cosg) / 2.0) ** spec.twoj
    return kern @ (spec.weights * field)


def cg_kernel_eigenvalue(twoj, l):
    """k_l from the squared Clebsch-Gordan coefficient:
    k_l = C(j, j; j, -j | l, 0)^2 * d / (2l + 1)."""
    j = twoj / 2.0
    c = clebsch_gordan(j, j, l, j, -j, 0.0)
    return c * c * (twoj + 1) / (2 * l + 1)


# ---------------------------------------------------------------------------
# Stratonovich-Weyl-Fourier transform
# ---------------------------------------------------------------------------

def e_kernel(spec, quad):
    """E(g; pi, theta) = tr(Delta(theta) pi(g)) on (group grid, orbit grid)."""
    D = quad.rep_grid(spec.twoj + 1)
    return np.einsum("anm,kmn->ka", spec.delta_field(), D)


def swf_transform(psi_grid, quad, specs):
    """F_SW[Psi](pi, theta) = W of Psihat(pi) for each orbit in specs."""
    out = {}
    for spec in specs:
        D = quad.rep_grid(spec.twoj + 1)
        psihat = np.einsum("k,k,kmn->mn", quad.weights, psi_grid, D)
        out[spec.twoj] = sw_symbol(spec, psihat)
    return out


def swf_inverse(transform, quad, specs):
    """Psi(g) = sum_pi d_pi int conj(E(g; pi, theta)) F(pi, theta) dmu."""
    out = np.zeros(quad.n_nodes, dtype=complex)
    for spec in specs:
        E = e_kernel(spec, quad)
        out += spec.d * np.einsum("ka,a,a->k", E.conj(), spec.weights,
                                  transform[spec.twoj])
    return out


def swf_parseval(psi_grid, transform, quad, specs):
    lhs = np.sum(quad.weights * np.abs(psi_grid) ** 2)
    rhs = sum(spec.d * np.sum(spec.weights
                              * np.abs(transform[spec.twoj]) ** 2)
              for spec in specs)
    return lhs, rhs


def group_convolution(psi_grid, phi_coeffs, pw, quad):
    """(Psi * Phi)(g) = int Psi(h) Phi(h^{-1} g) dh on the grid of quad."""
    out = np.zeros(quad.n_nodes, dtype=complex)
    chunk = 128
    for start in range(0, quad.n_nodes, chunk):
        sl = slice(start, min(start + chunk, quad.n_nodes))
        hq = quad.quats[sl]
        pts = G.quat_mul(G.quat_inv(hq)[:, None, :], quad.quats[None, :, :])
        E = pw.eval_basis(pts.reshape(-1, 4)) @ phi_coeffs
        out += np.einsum("h,h,hg->g", quad.weights[sl], psi_grid[sl],
                         E.reshape(sl.stop - sl.start, quad.n_nodes))
    return out


def momentum_scaled_label(twoj, k):
    """Orbit label 2(j/eps) of the momentum-scaled transform, eps = 1/k.

    The scaling convention keeps scaled weights on the integer-spin
    sub-lattice: eps^{-1} j must be an integer unless eps = 1 (the identity
    relabeling), otherwise the label is rejected.
    """
    if k < 1 or int(k) != k:
        raise ValueError("eps must be 1/k with integer k >= 1")
    if k == 1:
        return twoj
    if (k * twoj) % 2:
        raise ValueError(
            "scaled weight %g/2 leaves the eps-sub-lattice of integer spins"
            % (k * twoj))
    return k * twoj


# ---------------------------------------------------------------------------
# Cartan powers and semiclassical rates
# ---------------------------------------------------------------------------

def cartan_power_residual(twoj, k, quat):
    """| <v_{k lam}, pi_{k lam}(g) v_{k lam}> - <v_lam, pi_lam(g) v_lam>^k |."""
    a, b, c = G.quat_to_euler(np.atleast_2d(quat))
    lhs = wigner_D_euler_grid(k * twoj, a, b, c)[0, 0, 0]
    rhs = wigner_D_euler_grid(twoj, a, b, c)[0, 0, 0] ** k
    return abs(lhs - rhs)


def k_flow_deviation(twoj, field_l):
    """|k_l - 1| for the degree-l eigenfield: ||K_j f - f||_inf / ||f||_inf."""
    return abs(kernel_eigenvalues(twoj, lmax=field_l)[field_l] - 1.0)


def k_rate_slope(twoj_list, field_l=2):
    xs = np.log([1.0 / (t / 2.0) for t in twoj_list])
    ys = np.log([k_flow_deviation(t, field_l) for t in twoj_list])
    return float(np.polyfit(xs, ys, 1)[0])


# ---------------------------------------------------------------------------
# export helpers
# ---------------------------------------------------------------------------

def field_to_csv(spec, field, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["beta", "alpha", "re", "im"])
        for b, a, v in zip(spec.beta, spec.alpha, field):
            w.writerow([repr(float(b)), repr(float(a)),
                        repr(float(np.real(v))), repr(float(np.imag(v)))])


def coefficients_to_json(spec, field, lmax=None):
    if lmax is None:
        lmax = spec.twoj
    coeffs = spec.sh_analysis(field, lmax)
    payload = {"twoj": spec.twoj, "lmax": lmax, "coefficients": {}}
    for l, c in enumerate(coeffs):
        payload["coefficients"][str(l)] = [
            [repr(float(x.real)), repr(float(x.imag))] for x in np.ravel(c)]
    return json.dumps(payload)
