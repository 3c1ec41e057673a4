"""Truncated Peter-Weyl spaces: the finite shadows of operators on C(G).

A PWSpace carries the orthonormal basis e_{(pi,a,b)} = sqrt(d_pi) D^pi_{ab}
for labels up to a band, a Haar quadrature exact enough to analyze the
products that arise, and the standard operator blocks (translations, right
derivatives, multiplication operators) as dense matrices on that basis.
"""

import math

import numpy as np

from . import groups as G
from .wigner import su2_generator


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

    def _basis_matrix(self, quad):
        cols = []
        for lab in self.labels:
            d = G.dim(self.group, lab)
            D = quad.rep_grid(lab)
            cols.append(math.sqrt(d) * D.reshape(quad.n_nodes, d * d))
        return np.concatenate(cols, axis=1)

    # -- transforms ---------------------------------------------------------

    def analysis(self, values):
        """Grid values (N,...) -> coefficients; exact for band-limited data."""
        return np.tensordot(self._EW, values, axes=(1, 0))

    def synthesis(self, coeffs):
        return np.tensordot(self.E, coeffs, axes=(1, 0))

    def eval_basis(self, quats_or_angles):
        """Basis matrix at arbitrary group elements, shape (M, dim)."""
        cols = []
        for lab in self.labels:
            d = G.dim(self.group, lab)
            if self.group == G.U1:
                D = np.exp(1j * lab * np.asarray(quats_or_angles))[:, None, None]
            else:
                from .wigner import wigner_D_euler_grid
                D = wigner_D_euler_grid(lab - 1,
                                        *G.quat_to_euler(quats_or_angles))
            cols.append(math.sqrt(d) * D.reshape(len(D), d * d))
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

    # -- standard operators as matrices on the coefficient basis ------------

    def left_translation(self, h):
        """(U_h Psi)(g) = Psi(h^{-1} g)."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for lab in self.labels:
            d = G.dim(self.group, lab)
            o = self.offsets[lab]
            Dh = G.rep_matrix(self.group, lab,
                              h if isinstance(h, G.GroupElement)
                              else G.GroupElement.su2(h) if self.group == G.SU2
                              else G.GroupElement.u1(h))
            Dinv = Dh.conj().T
            # c'_{cb} = sum_a D_{ac}(h^{-1}) c_{ab}
            out[o:o + d * d, o:o + d * d] = np.kron(Dinv.T, np.eye(d))
        return out

    def right_translation(self, h):
        """(U^R_h Psi)(g) = Psi(g h)."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for lab in self.labels:
            d = G.dim(self.group, lab)
            o = self.offsets[lab]
            Dh = G.rep_matrix(self.group, lab,
                              h if isinstance(h, G.GroupElement)
                              else G.GroupElement.su2(h) if self.group == G.SU2
                              else G.GroupElement.u1(h))
            # c'_{ac} = sum_b c_{ab} D_{cb}(h)
            out[o:o + d * d, o:o + d * d] = np.kron(np.eye(d), Dh)
        return out

    def right_derivative(self, k=0):
        """R_X for X = tau_k (SU(2)) or X = 1 (U(1)): d/ds Psi(e^{sX} g)."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for lab in self.labels:
            d = G.dim(self.group, lab)
            o = self.offsets[lab]
            if self.group == G.U1:
                gen = np.array([[1j * lab]])
            else:
                gen = su2_generator(lab - 1, k)
            out[o:o + d * d, o:o + d * d] = np.kron(gen.T, np.eye(d))
        return out

    def multiplication_operator(self, grid_values):
        """Matrix of Psi -> f * Psi from samples of f on the quadrature grid."""
        return self._EW @ (grid_values[:, None] * self.E)
