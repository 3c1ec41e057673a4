"""Stratonovich-Weyl calculus on SU(2) coadjoint orbits.

The spin-j orbit is the sphere of radius j (weight units); its Liouville
measure is normalized to total mass d = 2j+1. The coherent vector at
theta = (alpha, beta) is column 0 of D(alpha, beta, 0), on the ZYZ section
g_theta = R_z(alpha) R_y(beta) (gamma = 0); `OrbitSpec.coherent` holds it
at every node. The momentum map J_i(v) = <v, J_i v> satisfies
J(v_theta) = j * nhat(theta) exactly. The overlap kernel
K(theta, theta') = |<v_theta, v_theta'>|^2 = cos^{4j}(gamma/2) is rotation
invariant and acts diagonally on spherical harmonics with eigenvalues

    k_l = (d/2) int_{-1}^{1} ((1+x)/2)^{2j} P_l(x) dx,   k_0 = 1,

and the Stratonovich-Weyl operator field is Delta(theta) = K^{-1/2} P_theta.
K commutes with rotations, so the field is equivariant,
Delta(theta) = D(g_theta) Delta_0 D(g_theta)^*, with Delta_0 diagonal in
closed form (Varilly & Gracia-Bondia, Ann. Phys. 190 (1989) 107):

    Delta_0[m] = sum_{l <= 2j} (2l+1)/d <j m; l 0|j m>,

Clebsch-Gordan coefficients in the Condon-Shortley phase. The k_l^{-1/2}
of K^{-1/2} cancels against <j j; l 0|j j>, whose square is k_l. Up to the
factor sqrt(d/(2l+1)), l -> <j m; l 0|j m> is the Gram polynomial of
degree l on the d points m = j..-j, so Delta_0 comes from the eigenvectors
of that family's d x d Jacobi matrix (Golub & Welsch, Math. Comp. 23
(1969) 221; `OrbitSpec._sw_tables`), with no Clebsch-Gordan coefficient.

With gamma = 0, D_{km}(alpha, beta, 0) = e^{-i m_k alpha} d_{km}(beta), so
the field factors over the product grid of n_beta Gauss-Legendre and
n_alpha uniform nodes (N = n_beta n_alpha):

    Delta(alpha, beta)_{kl} = e^{-i (m_k - m_l) alpha} Delta~(beta)_{kl},
    Delta~(beta) = d(beta) Delta_0 d(beta)^T,

real and symmetric. The calculus holds two tables, never the (N, d, d)
field: Delta~ on the beta nodes, (n_beta, d^2) real, and the phases
P[c, (k, l)] = e^{-i (m_k - m_l) alpha_c}, (n_alpha, d^2). Each symbol map
is then one matrix product between them (27 x 625 and 52 x 625 entries at
2j = 24, where the field has 1404 x 625).

The Stratonovich-Weyl-Fourier transform of Psi on SU(2) is, per orbit, the
symbol W of its Fourier coefficient int Psi(g) pi(g) dg on a Haar grid
(`swf_transform`); its kernel E(g; pi, theta) = tr(Delta(theta) pi(g)) is
never formed.
"""

import math

import numpy as np

from ._kernels import _gauss_legendre, wigner_d_grid
from .wigner import angular_momentum


def kernel_eigenvalues(twoj, lmax=None):
    """k_l = (2j)! (2j+1)! / ((2j-l)! (2j+l+1)!) for 0 <= l <= lmax.

    Closed form of the Funk-Hecke integral (d/2) int ((1+x)/2)^{2j} P_l dx,
    as the quotient of the exact integers (2j)!/(2j-l)! and
    (2j+l+1)!/(2j+1)!, so each k_l is correctly rounded, down to the deep
    tail (k ~ 1e-20 at l = 2j = 32); the quadrature and Clebsch-Gordan
    evaluations serve as independent oracles in the tests.
    """
    if lmax is None:
        lmax = twoj
    return np.array([math.perm(twoj, l) / math.perm(twoj + l + 1, l)
                     for l in range(lmax + 1)])


class OrbitSpec:
    def __init__(self, twoj):
        if not isinstance(twoj, (int, np.integer)) or twoj < 0:
            raise ValueError("twoj = 2j must be a non-negative integer, got %r"
                             % (twoj,))
        self.twoj = twoj
        self.d = twoj + 1
        self.j = twoj / 2.0
        self.L = 2 * twoj + 2
        n_beta = self.L // 2 + 2
        n_alpha = self.L + 2
        x, wx = _gauss_legendre(n_beta)
        beta = np.arccos(x)
        alpha = 2 * math.pi * np.arange(n_alpha) / n_alpha
        self.beta_nodes, self.alpha_nodes = beta, alpha
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
        # d(beta) on the beta nodes, (n_beta, d, d); v_theta = D e_{highest},
        # v_theta[m] = e^{-i m alpha} d_{mj}(beta)
        self._d_beta = wigner_d_grid(twoj, beta)
        m = np.arange(twoj, -twoj - 1, -2) / 2.0
        self.coherent = (self._d_beta[:, None, :, 0]
                         * np.exp(-1j * np.multiply.outer(alpha, m))
                         ).reshape(self.n_nodes, self.d)
        self.k_l = kernel_eigenvalues(twoj)
        self._Y = None
        self._sw = None

    def harmonics(self, l):
        """Y_{lm}(theta) on the grid, shape (N, 2l+1), m = -l..l: a column
        slice of the harmonic matrix."""
        return self._harmonic_matrix(l)[:, l * l:(l + 1) ** 2]

    def _harmonic_matrix(self, lmax):
        """(N, (L + 1)^2) matrix of all Y_lm with l <= L, for an L of at
        least max(lmax, 2j), columns ordered by l and then m = -l..l:
        Y_lm(beta, alpha) = sqrt((2l+1)/4pi) e^{i m alpha} d^l_{m0}(beta),
        with d on the beta nodes only. Cached; a larger lmax rebuilds it."""
        if self._Y is None or self._Y.shape[1] < (lmax + 1) ** 2:
            ls = range(max(lmax, self.twoj) + 1)
            d = np.concatenate(
                [math.sqrt((2 * l + 1) / (4 * math.pi))
                 * wigner_d_grid(2 * l, self.beta_nodes)[:, ::-1, l]
                 for l in ls], axis=1)
            m = np.concatenate([np.arange(-l, l + 1) for l in ls])
            phase = np.exp(1j * np.multiply.outer(self.alpha_nodes, m))
            self._Y = (d[:, None] * phase).reshape(self.n_nodes, len(m))
        return self._Y

    # -- harmonic analysis on the orbit (band l <= L/2 exact) ---------------

    def sh_analysis(self, field, lmax):
        """Coefficients c_{lm} with field = sum c_{lm} Y_{lm}, as a list of
        (2l+1, ...) arrays for l <= lmax: one matrix product with the
        harmonic matrix."""
        field = np.asarray(field)
        Y = self._harmonic_matrix(lmax)[:, :(lmax + 1) ** 2]
        wf = (self.weights * (4 * math.pi / self.d))[:, None] \
            * field.reshape(self.n_nodes, -1)
        c = np.conj(Y.T @ np.conj(wf))
        return [c[l * l:(l + 1) ** 2].reshape((2 * l + 1,) + field.shape[1:])
                for l in range(lmax + 1)]

    def sh_synthesis(self, coeffs):
        """Field sum_{lm} c_{lm} Y_{lm} from sh_analysis's list of (2l+1, ...)
        coefficient arrays: one matrix product with the harmonic matrix."""
        lmax = len(coeffs) - 1
        tail = np.shape(coeffs[0])[1:]
        c = np.concatenate([np.reshape(cl, (2 * l + 1, -1))
                            for l, cl in enumerate(coeffs)])
        Y = self._harmonic_matrix(lmax)[:, :(lmax + 1) ** 2]
        return (Y @ c).reshape((self.n_nodes,) + tail)

    def rescale_harmonics(self, field, factors):
        """Apply sum_l factors[l] * (projection on degree l), l <= 2j."""
        coeffs = self.sh_analysis(field, self.twoj)
        return self.sh_synthesis([factors[l] * c
                                  for l, c in enumerate(coeffs)])

    # -- Stratonovich-Weyl operator field ------------------------------------

    def _sw_tables(self):
        """(Delta~, P) of the factored field, built once: Delta~[b] =
        d(beta_b) Delta_0 d(beta_b)^T raveled to (n_beta, d^2), real, with

        Delta_0[m] = sum_l (2l+1)/d <j m; l 0|j m>
                   = sum_l sqrt((2l+1)/d) c_l(m)

        for m = j..-j, and P[c, (k, l)] = e^{-i (m_k - m_l) alpha_c} =
        e^{i (k - l) alpha_c}, (n_alpha, d^2). The field at node (b, c) is
        Delta~[b] * P[c], elementwise.

        The c_l are the polynomials of degree l orthonormal on the d points
        m (Gram's discrete Chebyshev polynomials), with c_l(j) > 0, and
        <j m; l 0|j m> = sqrt(d/(2l+1)) c_l(m). They are the eigenvectors
        of the Jacobi matrix with zero diagonal and off-diagonal
        b_l = l sqrt((d^2 - l^2)/(4 (4l^2 - 1))), l = 1..d-1, whose
        eigenvalues are the m (Golub & Welsch, Math. Comp. 23 (1969) 221).
        An eigenvector with positive c_0 entry solves the three-term
        recurrence with positive b_l, so its c_l have positive leading
        coefficients, hence c_l(j) > 0; the c_l(j) themselves reach 1e-38
        at 2j = 128, too small to take signs from."""
        if self._sw is None:
            ls = np.arange(self.d)
            l = ls[1:]
            b = l * np.sqrt((self.d ** 2 - l ** 2) / (4.0 * (4 * l ** 2 - 1)))
            c = np.linalg.eigh(np.diag(b, 1) + np.diag(b, -1))[1][:, ::-1]
            delta0 = np.sqrt((2 * ls + 1) / self.d) @ (c * np.sign(c[0]))
            db = self._d_beta
            table = (db * delta0) @ np.swapaxes(db, 1, 2)
            phase = np.exp(1j * np.multiply.outer(
                self.alpha_nodes, np.subtract.outer(ls, ls)))
            self._sw = (table.reshape(len(db), -1),
                        phase.reshape(len(self.alpha_nodes), -1))
        return self._sw


def momentum_map(twoj, v):
    """J_i(v) = <v, J_i v>; equals j * nhat for coherent vectors."""
    J = angular_momentum(twoj)
    return np.array([np.real(np.conj(v) @ (Ji @ v)) for Ji in J])


def lower_symbol(spec, A):
    """L_A(theta) = <v_theta, A v_theta>."""
    v = spec.coherent
    return ((v.conj() @ A) * v).sum(1)


def upper_symbol_from_lower(spec, L_field):
    """U_A with K U_A = L_A, by harmonic rescaling with k_l^{-1}."""
    return spec.rescale_harmonics(L_field, 1.0 / spec.k_l)


def sw_symbol(spec, A):
    """W_A(theta) = tr(Delta(theta) A) = sum_{kl} P[c, kl] Delta~[b, kl]
    A_{lk} at node (b, c): the (n_beta, d^2) table times A^T, then one
    matrix product with the (n_alpha, d^2) phase table, raveled in the
    grid's (beta, alpha) order."""
    table, phase = spec._sw_tables()
    return ((table * A.T.ravel()) @ phase.T).ravel()


def sw_quantize(spec, W_field):
    """A = int W(theta) Delta(theta) dmu: the weighted field as an
    (n_beta, n_alpha) matrix times the (n_alpha, d^2) phase table, then
    summed over beta against the (n_beta, d^2) table."""
    table, phase = spec._sw_tables()
    wW = (spec.weights * W_field).reshape(len(table), -1)
    return (table * (wW @ phase)).sum(0).reshape(spec.d, spec.d)


def berezin_quantize(spec, field):
    """Q^B(f) = int f(theta) P_theta dmu."""
    v = spec.coherent
    return ((spec.weights * field)[:, None] * v).T @ v.conj()


def berezin_sw_residual(spec, field):
    """|| Q^B(f) - Q^SW(S^{-1/2} f) || where S is the lower-to-upper map.

    With the overlap kernel normalized so its harmonic eigenvalues are the
    k_l <= 1 (upper-to-lower smoothing), the lower-to-upper rescaling is
    k_l^{-1}, and the Berezin comparison reads Q^SW = Q^B(k^{-1/2}-rescale).
    S^{1/2} is invertible on degrees l <= 2j, so this is Q^B = Q^SW(
    k^{1/2}-rescale): its factors are at most 1, where the k_l^{-1/2}
    (about 2^{2j} at l = 2j) would amplify the rounding of the harmonic
    analysis.
    """
    lhs = berezin_quantize(spec, field)
    rhs = sw_quantize(spec, spec.rescale_harmonics(field, spec.k_l ** 0.5))
    return float(np.abs(lhs - rhs).max())


def sw_twisted_product(spec, WA, WB):
    """(W_A * W_B)(theta) = W of Q^SW(W_A) Q^SW(W_B): the triple-kernel
    integral tr(Delta(theta) Delta(theta') Delta(theta'')) W_A(theta')
    W_B(theta'') with the primed integrals done first, so two quantizations
    and one symbol, each one matrix product with the factored field's
    (n_beta, d^2) and (n_alpha, d^2) tables."""
    return sw_symbol(spec, sw_quantize(spec, WA) @ sw_quantize(spec, WB))


# ---------------------------------------------------------------------------
# Stratonovich-Weyl-Fourier transform
# ---------------------------------------------------------------------------

def swf_transform(psi_grid, quad, specs):
    """F_SW[Psi](pi, theta) = W of Psihat(pi) for each orbit in specs."""
    out = {}
    for spec in specs:
        D = quad.rep_grid(spec.twoj + 1)
        psihat = np.einsum("k,k,kmn->mn", quad.weights, psi_grid, D)
        out[spec.twoj] = sw_symbol(spec, psihat)
    return out


def swf_inverse(transform, quad, specs):
    """Psi(g) = sum_pi d_pi int conj(E(g; pi, theta)) F(pi, theta) dmu.

    Delta(theta) is Hermitian, so conj(E(g; pi, theta)) = tr(Delta(theta)
    pi(g)^*) and the orbit integral is d_pi tr(Q^SW(F) pi(g)^*): one
    quantization per orbit and one matrix product with the group nodes'
    conj(pi(g)), raveled to (n_g, d^2)."""
    out = np.zeros(quad.n_nodes, dtype=complex)
    for spec in specs:
        D = quad.rep_grid(spec.twoj + 1)
        A = sw_quantize(spec, transform[spec.twoj])
        out += spec.d * (D.conj().reshape(quad.n_nodes, -1) @ A.ravel())
    return out


def swf_parseval(psi_grid, transform, quad, specs):
    lhs = np.sum(quad.weights * np.abs(psi_grid) ** 2)
    rhs = sum(spec.d * np.sum(spec.weights
                              * np.abs(transform[spec.twoj]) ** 2)
              for spec in specs)
    return lhs, rhs


def group_convolution(psi_grid, phi_coeffs, pw, quad):
    """(Psi * Phi)(g) = int Psi(h) Phi(h^{-1} g) dh on the grid of quad.

    Phi is band-limited with Peter-Weyl coefficients phi_coeffs, so
    Phi(h^{-1} g) = sum sqrt(d) C_ab conj(D_ca(h)) D_cb(g) and the integral
    is, per irrep, D(g) paired with sqrt(d) Psihat C, where
    Psihat = int Psi(h) conj(D(h)) dh.
    """
    out = np.zeros(quad.n_nodes, dtype=complex)
    wpsi = quad.weights * psi_grid
    for lab in pw.labels:
        D = quad.rep_grid(lab)
        d = D.shape[1]
        psihat = np.tensordot(wpsi, D.conj(), axes=(0, 0))
        B = math.sqrt(d) * psihat @ pw.block(lab, phi_coeffs)
        out += D.reshape(quad.n_nodes, d * d) @ B.ravel()
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
# semiclassical rates
# ---------------------------------------------------------------------------

def k_flow_deviation(twoj, field_l):
    """|k_l - 1| for the degree-l eigenfield: ||K_j f - f||_inf / ||f||_inf."""
    return abs(kernel_eigenvalues(twoj, lmax=field_l)[field_l] - 1.0)


def k_rate_slope(twoj_list, field_l=2):
    xs = np.log([1.0 / (t / 2.0) for t in twoj_list])
    ys = np.log([k_flow_deviation(t, field_l) for t in twoj_list])
    return float(np.polyfit(xs, ys, 1)[0])
