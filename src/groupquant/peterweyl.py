"""Truncated Peter-Weyl spaces: the finite shadows of operators on C(G).

A PWSpace carries the orthonormal basis e_{(pi,a,b)} = sqrt(d_pi) D^pi_{ab}
for labels up to a band, a Haar quadrature exact enough to analyze the
products that arise, and the standard operators on that basis.

Translations and right derivatives are block diagonal: one Kronecker block
kron(X, 1) or kron(1, X) per irrep, X acting on the first or the second
index of D_{ab}. The public methods return them as dense matrices;
`_kron_times` applies kron(X, 1) blocks to the rows of a matrix one irrep
at a time without forming them.

A multiplication operator is the quadrature sum EW diag(f) E reordered.
On U(1) it is the circulant of the DFT of f. On SU(2) the quadrature is a
product grid (uniform alpha and gamma, Gauss-Legendre in cos beta), so the
sum splits into a 2-D DFT over (alpha, gamma) and a short sum over the beta
nodes: the separation of Kostelec & Rockmore, "FFTs on the Rotation Group",
J. Fourier Anal. Appl. 14 (2008) 145.
"""

import math

import numpy as np

from . import groups as G
from .wigner import su2_generator, wigner_D_euler_grid


class PWSpace:
    def __init__(self, group, band, quad_degree=None):
        self.group = group
        self.band = band
        if quad_degree is None:
            quad_degree = 2 * band + 2 if group == G.U1 else band + 2
        self.quad = G.group_quadrature(group, quad_degree)
        self.labels = G.irrep_labels(group, band)
        self.index = []
        self.offsets = {}
        for lab in self.labels:
            d = G.dim(group, lab)
            self.offsets[lab] = len(self.index)
            for a in range(d):
                for b in range(d):
                    self.index.append((lab, a, b))
        self.dim = len(self.index)
        self.E = self._basis_matrix(self.quad)
        self._EW = (self.E.conj() * self.quad.weights[:, None]).T
        self._grid_tables = None   # built by the first SU(2) multiplication

    def _basis_matrix(self, quad):
        """Basis matrix on any quadrature's nodes, from its cached rep_grid."""
        cols = []
        for lab in self.labels:
            d = G.dim(self.group, lab)
            D = quad.rep_grid(lab)
            cols.append(math.sqrt(d) * D.reshape(quad.n_nodes, d * d))
        return np.concatenate(cols, axis=1)

    def _reps(self, quats_or_angles):
        """Irrep matrices per label at arbitrary group elements: a list of
        (M, d, d) arrays, one batched evaluation per label."""
        if self.group == G.U1:
            phi = np.asarray(quats_or_angles)
            return [np.exp(1j * lab * phi)[:, None, None] for lab in self.labels]
        euler = G.quat_to_euler(quats_or_angles)
        return [wigner_D_euler_grid(lab - 1, *euler) for lab in self.labels]

    # -- transforms ---------------------------------------------------------

    def analysis(self, values):
        """Grid values (N,...) -> coefficients; exact for band-limited data."""
        return np.tensordot(self._EW, values, axes=(1, 0))

    def synthesis(self, coeffs):
        return np.tensordot(self.E, coeffs, axes=(1, 0))

    def eval_basis(self, quats_or_angles):
        """Basis matrix at arbitrary group elements, shape (M, dim)."""
        cols = [math.sqrt(D.shape[1]) * D.reshape(len(D), -1)
                for D in self._reps(quats_or_angles)]
        return np.concatenate(cols, axis=1)

    def band_mask(self, band):
        """Boolean mask of basis indices with irrep label within `band`."""
        if self.group == G.U1:
            return np.array([abs(lab) <= band for lab, _, _ in self.index])
        return np.array([lab <= band for lab, _, _ in self.index])

    def block(self, lab, mat):
        """Coefficient slice of one irrep as a (d, d) matrix view."""
        d = G.dim(self.group, lab)
        o = self.offsets[lab]
        return mat[o:o + d * d].reshape(d, d)

    # -- block-diagonal operators -------------------------------------------

    def _element(self, h):
        if isinstance(h, G.GroupElement):
            return h
        if self.group == G.SU2:
            return G.GroupElement.su2(h)
        return G.GroupElement.u1(h)

    def _generators(self, k):
        """dpi(X) per label, X = tau_k (SU(2)) or X = 1 (U(1))."""
        if self.group == G.U1:
            return [np.array([[1j * lab]]) for lab in self.labels]
        return [su2_generator(lab - 1, k) for lab in self.labels]

    def _kron_blocks(self, blocks, first=True):
        """Dense block-diagonal matrix with kron(X, 1) per label, or
        kron(1, X) when not `first`."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for lab, X in zip(self.labels, blocks):
            d = len(X)
            o = self.offsets[lab]
            one = np.eye(d)
            out[o:o + d * d, o:o + d * d] = (np.kron(X, one) if first
                                             else np.kron(one, X))
        return out

    def _kron_times(self, blocks, mat):
        """_kron_blocks(blocks) @ mat for a vector or a matrix, one irrep
        block of rows at a time: each block is one (d, d) @ (d, d * cols)."""
        out = np.empty(np.shape(mat), dtype=complex)
        for lab, X in zip(self.labels, blocks):
            d = len(X)
            o = self.offsets[lab]
            rows = mat[o:o + d * d]
            out[o:o + d * d] = (X @ rows.reshape(d, -1)).reshape(rows.shape)
        return out

    # -- standard operators as matrices on the coefficient basis ------------

    def left_translation(self, h):
        """(U_h Psi)(g) = Psi(h^{-1} g): c'_{cb} = sum_a D_{ac}(h^{-1}) c_{ab}."""
        h = self._element(h)
        return self._kron_blocks(
            [G.rep_matrix(self.group, lab, h).conj() for lab in self.labels])

    def right_translation(self, h):
        """(U^R_h Psi)(g) = Psi(g h): c'_{ac} = sum_b c_{ab} D_{cb}(h)."""
        h = self._element(h)
        return self._kron_blocks(
            [G.rep_matrix(self.group, lab, h) for lab in self.labels],
            first=False)

    def right_derivative(self, k=0):
        """R_X for X = tau_k (SU(2)) or X = 1 (U(1)): d/ds Psi(e^{sX} g)."""
        return self._kron_blocks([X.T for X in self._generators(k)])

    def multiplication_operator(self, grid_values):
        """Matrix of Psi -> f * Psi from samples of f on the quadrature grid.

        Equal to EW diag(f) E. U(1): M[j, j'] = fft(f)[j - j' mod n] / n.
        SU(2): with F the inverse DFT of f over alpha and gamma,
        M[(n,a,b), (n',a',b')] = sum_beta w_beta sqrt(n) d^n_ab(beta)
        sqrt(n') d^n'_a'b'(beta) F[2(m_a - m_a'), beta, 2(m_b - m_b')].
        """
        f = np.asarray(grid_values, dtype=complex)
        if self.group == G.U1:
            lab = np.array(self.labels)
            return np.fft.fft(f)[np.subtract.outer(lab, lab) % len(f)] / len(f)
        shift, basis, weights = self._product_grid_tables()
        n_alpha, n_beta, n_gamma = self.quad.shape
        F = np.fft.ifft2(f.reshape(self.quad.shape), axes=(0, 2))
        F = F.transpose(1, 0, 2).reshape(n_beta, n_alpha * n_gamma)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for Fb, e, w in zip(F, basis, weights):
            out += np.outer(w * e, e) * Fb[shift]
        return out

    def _product_grid_tables(self):
        """(shift, basis, weights) of the SU(2) product-grid sum: the flat
        (alpha, gamma) frequency index of each matrix entry, sqrt(d) d(beta)
        per beta node and mode, and the beta weights."""
        if self._grid_tables is None:
            n_alpha, n_beta, n_gamma = self.quad.shape
            two_ma = np.array([lab - 1 - 2 * a for lab, a, _ in self.index])
            two_mb = np.array([lab - 1 - 2 * b for lab, _, b in self.index])
            shift = (np.subtract.outer(two_ma, two_ma) % n_alpha * n_gamma
                     + np.subtract.outer(two_mb, two_mb) % n_gamma)
            # alpha_0 = gamma_0 = 0, so E there is the real sqrt(d) d(beta)
            basis = self.E.reshape(n_alpha, n_beta, n_gamma, self.dim)[0, :, 0]
            weights = self.quad.weights.reshape(self.quad.shape).sum(axis=(0, 2))
            self._grid_tables = (shift, np.ascontiguousarray(basis.real),
                                 weights)
        return self._grid_tables
