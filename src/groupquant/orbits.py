"""Stratonovich-Weyl and Berezin calculi on SU(2) coadjoint orbits.

The spin-j orbit is the sphere of radius j (weight units); its Liouville
measure is normalized to total mass d = 2j+1. On the ZYZ section g_theta =
R_z(alpha) R_y(beta), the coherent vector at theta = (alpha, beta) is
v_theta = D(g_theta) e_j, its projector P_theta = D(g_theta) E_jj
D(g_theta)^*, E_jj = diag(1, 0, ..., 0). The overlap kernel
K(theta, theta') = |<v_theta, v_theta'>|^2 = cos^{4j}(gamma/2) is rotation
invariant and acts diagonally on spherical harmonics with eigenvalues

    k_l = (d/2) int_{-1}^{1} ((1+x)/2)^{2j} P_l(x) dx,   k_0 = 1,

and the Stratonovich-Weyl operator field is Delta(theta) = K^{-1/2} P_theta,
so the Berezin quantization int f P_theta dmu is Q^SW(K^{1/2} f).
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

Every map uses one layout on the product grid of n_beta Gauss-Legendre and
n_alpha uniform nodes (N = n_beta n_alpha): its field, never formed on the
N nodes, is F[b, c; k] = T_k(beta_b) e^{i f_k alpha_c}. A table holds the
phases P, (n_alpha, F), of the F distinct frequencies f; the real T,
(F, R, n_beta), in R slots per frequency (zero where it has fewer
coefficients); and each coefficient's slot. As D_{km}(alpha, beta, 0) =
e^{-i m_k alpha} d_{km}(beta), an operator field D(g_theta) F_0
D(g_theta)^* has k = (k, l), T_k = (d F_0 d^T)_{kl} and f = k - l, with F_0
= Delta_0 (Stratonovich-Weyl) or E_jj (Berezin); the harmonics Y_lm have
k = (l, m), T_k = sqrt((2l+1)/4pi) d^l_{m0}(beta) and f = m, l <= L/2. The
symbols tr(Delta A), <v, A v> = tr(P_theta A) and the harmonic synthesis
are `_to_field` of coefficients, T x summed per frequency, then times P^T;
the quantizations int W Delta dmu, int f P_theta dmu and the harmonic
analysis (conjugate phases) are `_from_field`, its transpose.

The Stratonovich-Weyl-Fourier transform of Psi on SU(2) is, per orbit, the
symbol W of its Fourier coefficient int Psi(g) pi(g) dg on a Haar grid
(`swf_transform`), read off one Peter-Weyl analysis; its inverse is one
quantization per orbit and one synthesis (`swf_inverse`). Neither forms
the kernel E(g; pi, theta) = tr(Delta(theta) pi(g)). By the convolution
theorem, the coefficient block of a group convolution Psi * Phi is
A C / sqrt(d), A the analysis block of Psi and C the coefficient block of
Phi (`group_convolution`).
"""

import functools
import math

import numpy as np

from . import groups as G
from ._kernels import _gauss_legendre, wigner_d_grid
from .peterweyl import space


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


def _to_field(T, P, slots, x):
    """sum_k T[f_k, s_k, b] P[c, f_k] x[k, ...] at node (b, c), (N, ...), for
    slots[k] = f_k R + s_k: x in its slots as real pairs, times T, then P^T."""
    x = np.asarray(x)
    F, R, n_beta = T.shape
    X = np.zeros((F * R, x[0].size), dtype=complex)
    X[slots] = x.reshape(len(x), -1)
    Y = (T.swapaxes(1, 2) @ X.reshape(F, R, -1).view(float)).view(complex)
    field = (P @ Y.reshape(F, -1)).reshape(len(P), n_beta, -1)
    return field.swapaxes(0, 1).reshape((-1,) + x.shape[1:])


def _from_field(T, P, slots, field, w):
    """sum_{(b, c)} w[(b, c)] T[f_k, s_k, b] P[c, f_k] field[(b, c), ...],
    shape (K, ...): per trailing index, P^T times the weighted field, then
    T times that per frequency, read off at the slots."""
    field = np.asarray(field)
    F, R, n_beta = T.shape
    wf = (w[:, None] * field.reshape(len(w), -1)).reshape(n_beta, len(P), -1)
    Z = (P.T @ wf.swapaxes(0, 1).reshape(len(P), -1)).reshape(F, n_beta, -1)
    S = (T @ Z.view(float)).view(complex)
    return S.reshape(F * R, -1)[slots].reshape((-1,) + field.shape[1:])


def _legendre_table(beta, lmax):
    """T[lmax + m, l, b] = sqrt((2l+1)/4pi) d^l_{m0}(beta_b) for |m| <= l <=
    lmax, else 0: the normalized associated Legendre recurrence in l for all
    m at once, on T / sin^m beta so that no power of sin beta underflows
    (Holmes & Featherstone, J. Geodesy 76 (2002) 279); d^l_{-m0} = (-1)^m."""
    x, u = np.cos(beta), np.sin(beta)
    m = np.arange(lmax + 1)
    sectoral = np.cumprod(np.r_[1 / math.sqrt(4 * math.pi),
                                -np.sqrt((2 * m[1:] + 1) / (2.0 * m[1:]))])
    n, k = np.tril_indices(lmax + 1, -1)     # (l, m) with m < l, by l
    a = np.sqrt((4.0 * n * n - 1) / ((n - k) * (n + k)))[:, None]
    b = np.sqrt(((n - 1.0) ** 2 - k * k) / (4.0 * (n - 1) ** 2 - 1))[:, None]
    T = np.zeros((2 * lmax + 1, lmax + 1, len(x)))
    Q = T[lmax:]
    prev = cur = np.zeros((lmax + 1, len(x)))
    for l in range(lmax + 1):
        r = slice(l * (l - 1) // 2, l * (l + 1) // 2)
        Q[:l, l] = a[r] * (x * cur[:l] - b[r] * prev[:l])
        Q[l, l] = sectoral[l]
        prev, cur = cur, Q[:, l]
    Q *= u ** m[:, None, None]
    np.multiply(Q[:0:-1], (-1.0) ** m[:0:-1, None, None], out=T[:lmax])
    return T


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
        # d(beta) on the beta nodes, (n_beta, d, d); e^{i f alpha}, |f| <= 2j
        self._d_beta = wigner_d_grid(twoj, beta)
        self._phases = np.exp(1j * np.multiply.outer(
            alpha, np.arange(-twoj, twoj + 1)))
        self.k_l = kernel_eigenvalues(twoj)
        self._harmonic = None

    # -- harmonic analysis on the orbit (band l <= L/2 exact) ---------------

    def harmonics(self, l):
        """Y_{lm}(theta) on the grid, shape (N, 2l+1), m = -l..l, any l."""
        table = _legendre_table(self.beta_nodes, l)[:, l].T
        phase = np.exp(1j * np.multiply.outer(self.alpha_nodes,
                                              np.arange(-l, l + 1)))
        return (table[:, None] * phase).reshape(self.n_nodes, 2 * l + 1)

    def _harmonic_tables(self, lmax):
        """(T, P, slots) of the Y_lm, l <= lmax, by l, then m = -l..l. The
        grid integrates degree L exactly, so the transforms are exact up to
        lmax = L/2 and alias above; the table to L/2 is built once."""
        if not 0 <= lmax <= self.L // 2:
            raise ValueError("lmax = %r is outside the orbit grid's exact "
                             "band 0..%d" % (lmax, self.L // 2))
        top = self.L // 2
        if self._harmonic is None:
            l = np.repeat(np.arange(top + 1), 2 * np.arange(top + 1) + 1)
            m = np.arange(len(l)) - l * l - l
            self._harmonic = (
                _legendre_table(self.beta_nodes, top),
                np.exp(1j * np.multiply.outer(self.alpha_nodes, m[l == top])),
                (m + top) * (top + 1) + l)
        T, P, slots = self._harmonic
        return T, P, slots[:(lmax + 1) ** 2]

    def sh_analysis(self, field, lmax):
        """Coefficients c_{lm} with field = sum c_{lm} Y_{lm}, as a list of
        (2l+1, ...) arrays for l <= lmax <= L/2."""
        c = np.conj(_from_field(*self._harmonic_tables(lmax), np.conj(field),
                                self.weights * (4 * math.pi / self.d)))
        return [c[l * l:(l + 1) ** 2] for l in range(lmax + 1)]

    def sh_synthesis(self, coeffs):
        """Field sum c_{lm} Y_{lm} of sh_analysis's coefficients, l <= L/2."""
        return _to_field(*self._harmonic_tables(len(coeffs) - 1),
                         np.concatenate(coeffs))

    def rescale_harmonics(self, field, factors):
        """Apply sum_l factors[l] * (projection on degree l), l <= 2j."""
        coeffs = self.sh_analysis(field, self.twoj)
        return self.sh_synthesis([factors[l] * c
                                  for l, c in enumerate(coeffs)])

    # -- operator fields: Stratonovich-Weyl and the coherent projectors ------

    def _operator_tables(self, f0):
        """(T, P, slots) of the field D(g_theta) diag(f0) D(g_theta)^*: the
        real d(beta) diag(f0) d(beta)^T, entry (k, l) in slot k of k - l."""
        db = self._d_beta
        k, l = np.divmod(np.arange(self.d ** 2), self.d)
        T = np.zeros((2 * self.d - 1, self.d, len(db)))
        T[k - l + self.twoj, k] = ((db * f0) @ np.swapaxes(db, 1, 2)).reshape(
            len(db), -1).T
        return T, self._phases, (k - l + self.twoj) * self.d + k

    @functools.cached_property
    def _sw_tables(self):
        """The Stratonovich-Weyl field's tables: f0 = Delta_0, Delta_0[m] =
        sum_l sqrt((2l+1)/d) c_l(m) with c_l the Gram polynomials, c_l(j) > 0.
        They are the eigenvectors of the Jacobi matrix with zero diagonal and
        off-diagonal b_l = l sqrt((d^2 - l^2)/(4 (4l^2 - 1))), l = 1..d-1,
        whose eigenvalues are the m = j..-j. An eigenvector with positive c_0
        entry solves the three-term recurrence with positive b_l, so its c_l
        have positive leading coefficients, hence c_l(j) > 0; the c_l(j)
        themselves reach 1e-38 at 2j = 128, too small to take signs from."""
        ls = np.arange(self.d)
        l = ls[1:]
        b = l * np.sqrt((self.d ** 2 - l ** 2) / (4.0 * (4 * l ** 2 - 1)))
        c = np.linalg.eigh(np.diag(b, 1) + np.diag(b, -1))[1][:, ::-1]
        return self._operator_tables(
            np.sqrt((2 * ls + 1) / self.d) @ (c * np.sign(c[0])))

    @functools.cached_property
    def _berezin_tables(self):
        """The projector field's tables: Delta_0 -> E_jj."""
        return self._operator_tables(np.eye(self.d)[0])


def lower_symbol(spec, A):
    """L_A(theta) = <v_theta, A v_theta> = tr(P_theta A)."""
    return _to_field(*spec._berezin_tables, A.T.ravel())


def sw_symbol(spec, A):
    """W_A(theta) = tr(Delta(theta) A)."""
    return _to_field(*spec._sw_tables, A.T.ravel())


def sw_quantize(spec, W_field):
    """A = int W(theta) Delta(theta) dmu."""
    return _from_field(*spec._sw_tables, W_field,
                       spec.weights).reshape(spec.d, spec.d)


def berezin_quantize(spec, field):
    """Q^B(f) = int f(theta) P_theta dmu."""
    return _from_field(*spec._berezin_tables, field,
                       spec.weights).reshape(spec.d, spec.d)


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
    W_B(theta'') with the primed integrals done first."""
    return sw_symbol(spec, sw_quantize(spec, WA) @ sw_quantize(spec, WB))


# ---------------------------------------------------------------------------
# Stratonovich-Weyl-Fourier transform
# ---------------------------------------------------------------------------

def swf_transform(psi_grid, quad, specs):
    """F_SW[Psi](pi, theta) = W of Psihat(pi) for each orbit in specs, with
    Psihat(pi) = int Psi(g) pi(g) dg read off the analysis of conj Psi on
    quad, a group_quadrature: the conjugate of pi's block over sqrt(d)."""
    pw = space(G.SU2, max(spec.d for spec in specs), quad.exactness_degree)
    pw._check_grid(quad)
    c = pw.analysis(np.conj(psi_grid))
    return {spec.twoj: sw_symbol(spec, pw.block(spec.d, c).conj()
                                 / math.sqrt(spec.d)) for spec in specs}


def swf_inverse(transform, quad, specs):
    """Psi(g) = sum_pi d_pi int conj(E(g; pi, theta)) F(pi, theta) dmu =
    sum_pi d_pi tr(Q^SW(F) pi(g)^*), Delta(theta) being Hermitian: the
    conjugate of one synthesis on quad, a group_quadrature, of the blocks
    sqrt(d) conj(Q^SW(F))."""
    pw = space(G.SU2, max(spec.d for spec in specs), quad.exactness_degree)
    pw._check_grid(quad)
    c = np.zeros(pw.dim, dtype=complex)
    for spec in specs:
        pw.block(spec.d, c)[:] = math.sqrt(spec.d) * np.conj(
            sw_quantize(spec, transform[spec.twoj]))
    return pw.synthesis(c).conj()


def swf_parseval(psi_grid, transform, quad, specs):
    lhs = np.sum(quad.weights * np.abs(psi_grid) ** 2)
    rhs = sum(spec.d * np.sum(spec.weights
                              * np.abs(transform[spec.twoj]) ** 2)
              for spec in specs)
    return lhs, rhs


def group_convolution(psi_grid, phi_coeffs, pw, quad):
    """(Psi * Phi)(g) = int Psi(h) Phi(h^{-1} g) dh on pw's grid, which quad
    must be (ValueError otherwise). Phi has Peter-Weyl coefficients
    phi_coeffs, so Phi(h^{-1} g) = sum sqrt(d) C_ab conj(D_ca(h)) D_cb(g),
    and the block of Psi * Phi is A C / sqrt(d), A that of pw.analysis(Psi).
    """
    pw._check_grid(quad)
    a = pw.analysis(psi_grid)
    blocks = [pw.block(lab, a) @ pw.block(lab, phi_coeffs)
              for lab in pw.labels]
    return pw.synthesis(np.concatenate(
        [B.ravel() / math.sqrt(len(B)) for B in blocks]))


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
