"""Truncated Peter-Weyl spaces: the finite shadows of operators on C(G).

A PWSpace carries the orthonormal basis e_{(pi,a,b)} = sqrt(d_pi) D^pi_{ab}
for labels up to a band, a Haar quadrature exact enough to analyze the
products that arise, and the standard operators on that basis.

Left translations and right derivatives are block diagonal: one Kronecker
block kron(X, 1) per irrep, X acting on the first index of D_{ab}.
`right_derivative` returns its blocks as one dense matrix; `_kron_rows` and
`_kron_cols` apply kron(X, 1) blocks to the rows or the columns of a stack
of matrices one irrep at a time without forming them, which is how the
local calculus translates.

On SU(2) the quadrature is a product grid: uniform alpha and gamma on
[0, 4pi), Gauss-Legendre in cos beta. The basis separates on it,

    e_(n,a,b)(alpha, beta, gamma) = e^{-i m_a alpha} sqrt(n) d^n_ab(beta)
                                    e^{-i m_b gamma},

the separation of variables of Kostelec & Rockmore, "FFTs on the Rotation
Group", J. Fourier Anal. Appl. 14 (2008) 145. The space keeps only its
factors: the phase tables e^{-i m alpha} and e^{-i m gamma} over the 2B - 1
twice-weights 2m, and one real d-table sqrt(n) d^n_ab(beta), (n_beta, dim).
`synthesis` sums first over the modes of each row twice-weight 2m_a,
against the d-table times the gamma phases, then over the row
twice-weights by one matrix product with the alpha phase table; `analysis`
takes the quadrature sum in the reverse order. Both are the dense sums
E @ c and _EW @ f reordered, equal to them for any grid values, at O(B^5)
operations per column against O(B^6). On U(1) both are one FFT.

`_rep_products` multiplies a stack of matrices at the nodes by the irreps
out of the factors, without forming them; data of band b on the grid of
degree q is transformed, unpadded, by the memoised `space(group, b, q)`.
Outside this module only `symbols.kn_compose`, the composition oracle,
evaluates a basis at nodes: sb's `eval_basis` at sa's nodes. E and _EW,
the dense basis and analysis matrices, are cached for the oracles alone.

Complex conjugation permutes the basis up to sign. By conj(D^n_ab) =
(-1)^{a-b} D^n_{n-1-a, n-1-b} on SU(2) and conj(e^{ij phi}) = e^{-ij phi}
on U(1), conj(e_i) = s_i e_ibar: ibar is the reversed flat index within the
block of the dual label (n on SU(2), -j on U(1)) and s_i = (-1)^{a+b} (1 on
U(1)). `_dual_index` and `_dual_sign` hold the map. It holds at every node,
so for any grid values v with analysis c, that of conj v is s conj(c[ibar]).

A multiplication operator is the quadrature sum _EW diag(f) E reordered,
formed from f's coefficients: on U(1) their Toeplitz matrix; on SU(2) a
short sum over the beta nodes, against the d-table, of f's (alpha, gamma)
Fourier coefficients at each beta, which are its coefficients times its
own d-table. A band-g f admits only entries with |j - j'| <= g (U(1)), or
|n - n'|, |2m_a - 2m_a'|, |2m_b - 2m_b'| <= g - 1 (SU(2)): O(g^3) of them
per column against dim are computed; the rest are exact zeros.
"""

import functools
import math

import numpy as np

from . import groups as G
from ._kernels import wigner_d_grid
from .wigner import su2_generator, wigner_D_euler_grid

# complex entries of the per-block temporaries of the SU(2) transforms
# (4 MB): a transform of many columns, or at a large band, runs over blocks
# of beta nodes instead of making temporaries of the size of its output.
# The KN calculus (symbols) stacks as many labels' grid values as fit in it.
_BLOCK = 1 << 18


def _product_band(group, band_1, band_2):
    """The band of a product of functions of bands band_1 and band_2:
    n_1 + n_2 - 1 on SU(2), whose labels are irrep dimensions, and
    j_1 + j_2 on U(1)."""
    return band_1 + band_2 - 1 if group == G.SU2 else band_1 + band_2


def _generators(group, labels, k):
    """dpi(X) per label, X = tau_k (SU(2)) or X = 1 (U(1))."""
    if group == G.U1:
        return [np.array([[1j * lab]]) for lab in labels]
    return [su2_generator(lab - 1, k) for lab in labels]


@functools.lru_cache(maxsize=32)
def space(group, band, quad_degree):
    """The PWSpace of (group, band, quad_degree), shared: do not change it."""
    return PWSpace(group, band, quad_degree)


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
        # the conjugation map conj(e_i) = s_i e_ibar (module docstring)
        sizes = [G.dim(group, n) ** 2 for n in self.labels]
        ends = [self.offsets[n] + self.offsets[-n if group == G.U1 else n]
                + k - 1 for n, k in zip(self.labels, sizes)]
        self._dual_index = (np.repeat(np.array(ends, dtype=int), sizes)
                            - np.arange(self.dim))
        self._dual_sign = (-1.0) ** np.array([a + b for _, a, b in self.index])
        self._abs_label = np.repeat(np.abs(self.labels), sizes)
        self._entry_cache = {}
        if group == G.SU2:
            self._euler_tables()

    def _euler_tables(self):
        """The factors of the SU(2) basis on the Euler product grid.

        Twice-weights 2m = B - 1 - u are indexed by u = 0..2B-2, so label n
        occupies u = B - n, B - n + 2, ..., B + n - 2. `_pad` lists, per u,
        the modes (n, a, b) whose row weight is u, padded with the index dim
        to a common length; `_pad_v` is the column weight u of each entry.
        """
        B, shape = self.band, self.quad.shape
        alpha, beta, gamma = (x.reshape(shape) for x in self.quad.euler)
        W = self.quad.weights.reshape(shape)
        m = np.arange(B - 1, -B, -1) / 2.0
        self._phase_a = np.exp(-1j * np.multiply.outer(alpha[:, 0, 0], m))
        self._phase_g = np.exp(-1j * np.multiply.outer(gamma[0, 0, :], m))
        self._ana_a = (self._phase_a.conj() * W.sum(axis=(1, 2))[:, None]).T
        self._ana_g = (self._phase_g.conj() * W.sum(axis=(0, 1))[:, None]).T
        self._w_beta = W.sum(axis=(0, 2))
        self._dtable = np.concatenate(
            [math.sqrt(n) * wigner_d_grid(n - 1, beta[0, :, 0]).reshape(
                shape[1], n * n) for n in self.labels], axis=1)
        u = np.array([B - n + 2 * a for n, a, _ in self.index])
        v = np.array([B - n + 2 * b for n, _, b in self.index])
        counts = np.bincount(u, minlength=2 * B - 1)
        order = np.argsort(u, kind="stable")
        slot = np.arange(self.dim) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
        self._pad = np.full((2 * B - 1, counts.max()), self.dim)
        self._pad[u[order], slot] = order
        self._pad_v = np.append(v, 0)[self._pad]

    @functools.cached_property
    def E(self):
        """Dense basis matrix (N, dim), `eval_basis` at the nodes: built on
        first use, for the dense oracles."""
        return self.eval_basis(self.quad.angles if self.group == G.U1
                               else self.quad.quats)

    @functools.cached_property
    def _EW(self):
        """Dense analysis matrix conj(E)^T diag(w), built on first use."""
        return (self.E.conj() * self.quad.weights[:, None]).T

    def _rep_products(self, stack, labels, conj=False):
        """Per node g and label, D(g) @ v(g) for the label's block v of the
        grid stack (N, sum of d^2): one (d, d) matrix per node and label,
        the labels consecutive ones of this space, in order; with conj,
        v(g)^T @ conj(D(g)). No irrep is formed at the nodes. On U(1) D is
        the phase e^{i lab phi}. On SU(2) the factors of D_mn = e^{-i m_m
        alpha} d_mn(beta) e^{-i m_n gamma} act in turn: the phase of the
        contracted index n multiplies the stack, the d-table contracts it,
        one real matrix product per beta node, and the phase of m
        multiplies the result."""
        if self.group == G.U1:
            lab = np.array(labels)
            return stack * np.exp((-1j if conj else 1j)
                                  * np.multiply.outer(self.quad.angles, lab))
        n_alpha, n_beta, n_gamma = shape = self.quad.shape
        out = np.empty(stack.shape, dtype=complex)
        for lab in labels:
            o = self.offsets[lab]
            s = slice(o - self.offsets[labels[0]],
                      o - self.offsets[labels[0]] + lab * lab)  # in the stack
            u = np.arange(self.band - lab, self.band + lab - 1, 2)
            d = self._dtable[:, o:o + lab * lab].reshape(
                n_beta, lab, lab) / math.sqrt(lab)
            a, g = self._phase_a[:, u].T, self._phase_g[:, u].T   # (n, node)
            # the blocks of stack and out as (beta, n, p, alpha, gamma)
            v, w = (x[:, s].reshape(shape + (lab, lab)).transpose(
                1, 3, 4, 0, 2) for x in (stack, out))
            if conj:   # sum_n v_np conj(D_nm): conjugate phases, d transposed
                pre, d, post = (a.conj()[:, None, :, None], d.swapaxes(1, 2),
                                g.conj()[:, None, None, :])
                w = w.swapaxes(1, 2)                      # written at (p, m)
            else:      # sum_n D_mn v_np (docstring's factors of D_mn)
                pre, post = g[:, None, None, :], a[:, None, :, None]
            Y = np.multiply(v, pre, out=np.empty(v.shape, dtype=complex))
            Z = (d @ Y.view(float).reshape(n_beta, lab, -1)).view(complex)
            np.multiply(Z.reshape(Y.shape), post, out=w)
        return out

    def _band_space(self, band):
        """`space` of a band up to this one's (else ValueError) on its grid."""
        if band > self.band:
            raise ValueError("coefficient band %d exceeds the target band %d"
                             % (band, self.band))
        return space(self.group, band, self.quad.exactness_degree)

    def _check_grid(self, quad):
        """ValueError unless quad has this space's nodes and weights, the
        grid that its transforms sum over."""
        nodes = "angles" if self.group == G.U1 else "quats"
        if not all(np.array_equal(getattr(self.quad, a), getattr(quad, a))
                   for a in ("weights", nodes)):
            raise ValueError("the quadrature must be group_quadrature(%r, %d)"
                             % (self.group, self.quad.exactness_degree))

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
        """Grid values (N, ...) -> coefficients (dim, ...): the quadrature
        sum c_i = sum_k w_k conj(e_i(g_k)) values_k, exact for band-limited
        data. U(1): one FFT. SU(2): the weighted alpha sum at every row
        twice-weight u, one matrix product with the alpha analysis table;
        then per u the sum over the (beta, gamma) nodes against
        w_beta sqrt(n) d^n_ab(beta) e^{i m_b gamma} w_gamma for the modes of
        row weight u, in the cheaper of two orders (`_many_columns`)."""
        v = np.asarray(values)
        if v.shape[:1] != (self.quad.n_nodes,):
            raise ValueError("grid values need quad.n_nodes = %d rows, got "
                             "shape %s" % (self.quad.n_nodes, v.shape))
        tail = v.shape[1:]
        v = v.reshape(len(v), -1)
        if self.group == G.U1:
            lab = np.array(self.labels)
            out = np.fft.fft(v, axis=0)[lab % len(v)] / len(v)
            return out.reshape((self.dim,) + tail)
        n_alpha, _, n_gamma = self.quad.shape
        n_cols = v.shape[1]
        v = v.reshape(n_alpha, -1)
        wd = self._padded_d() * self._w_beta[:, None]     # (u, beta, slot)
        ag = self._ana_g[self._pad_v]                     # (u, slot, gamma)
        acc = 0.0
        for ks in self._beta_blocks(n_cols):
            T = (self._ana_a @ v[:, ks.start * n_gamma * n_cols:
                                 ks.stop * n_gamma * n_cols]).reshape(
                len(ag), -1, n_gamma, n_cols)         # (u, beta, gamma, col)
            if self._many_columns(n_cols):
                N = wd[:, ks].transpose(0, 2, 1)[..., None] * ag[:, :, None]
                acc = acc + N.reshape(N.shape[:2] + (-1,)) @ T.reshape(
                    len(T), -1, n_cols)
            else:
                acc = acc + np.einsum("ukj,ukjc->ujc", wd[:, ks],
                                      ag[:, None] @ T)
        out = np.empty((self.dim + 1, n_cols), dtype=complex)
        out[self._pad] = acc
        return out[:-1].reshape((self.dim,) + tail)

    def synthesis(self, coeffs):
        """Coefficients (dim, ...) -> grid values (N, ...), the sum
        sum_i e_i(g_k) coeffs_i: per row twice-weight u the sum against
        sqrt(n) d^n_ab(beta) e^{-i m_b gamma} over the modes of row weight
        u, in the cheaper of two orders (`_many_columns`), then the alpha
        sum, one matrix product with the alpha phase table."""
        c = np.asarray(coeffs)
        tail = c.shape[1:]
        c = c.reshape(self.dim, -1)
        if self.group == G.U1:
            n = self.quad.n_nodes
            spec = np.zeros((n, c.shape[1]), dtype=complex)
            np.add.at(spec, np.array(self.labels) % n, c)
            return (np.fft.ifft(spec, axis=0) * n).reshape((n,) + tail)
        n_alpha, _, n_gamma = self.quad.shape
        n_cols = c.shape[1]
        cpad = np.append(c, np.zeros((1, n_cols)), axis=0)[self._pad]
        d = self._padded_d()                              # (u, beta, slot)
        pg = self._phase_g[:, self._pad_v].transpose(1, 0, 2)[:, None]
        out = np.empty((n_alpha, self.quad.n_nodes // n_alpha * n_cols),
                       dtype=complex)
        for ks in self._beta_blocks(n_cols):
            if self._many_columns(n_cols):
                M = d[:, ks, None, :] * pg            # (u, beta, gamma, slot)
                X = M.reshape(len(M), -1, M.shape[-1]) @ cpad
            else:
                X = pg @ (d[:, ks, :, None] * cpad[:, None])
            np.matmul(self._phase_a, X.reshape(len(X), -1),
                      out=out[:, ks.start * n_gamma * n_cols:
                              ks.stop * n_gamma * n_cols])
        return out.reshape((self.quad.n_nodes,) + tail)

    def _many_columns(self, n_cols):
        """Whether a transform of n_cols columns forms the products of the
        d-table and the gamma phases, (u, beta, gamma, slot), and contracts
        them with the columns in one matrix product per u; otherwise it
        multiplies the d-table into the columns, (u, beta, slot, column),
        and applies the gamma phases by a matrix product per (u, beta). The
        first costs n_gamma and the second n_cols multiplications per
        (u, beta, slot) entry, next to the same matrix-product work."""
        return n_cols > self.quad.shape[2]

    def _padded_d(self):
        """The d-table per row twice-weight, (2B-1, n_beta, slots), zero in
        the padding slots."""
        d = np.append(self._dtable, np.zeros((len(self._dtable), 1)), axis=1)
        return d[:, self._pad].transpose(1, 0, 2)

    def _beta_blocks(self, n_cols):
        """Slices of beta nodes whose temporaries, (u, beta) times one of
        (gamma, slot), (slot, column) or (gamma, column), hold about _BLOCK
        entries; one node at least."""
        P, slots = self._pad.shape
        n_beta, n_gamma = self.quad.shape[1:]
        step = max(1, _BLOCK // (P * max(n_gamma * slots, slots * n_cols,
                                          n_gamma * n_cols)))
        return [slice(k, min(k + step, n_beta))
                for k in range(0, n_beta, step)]

    def eval_basis(self, quats_or_angles):
        """Basis matrix at arbitrary group elements, shape (M, dim)."""
        cols = [math.sqrt(D.shape[1]) * D.reshape(len(D), -1)
                for D in self._reps(quats_or_angles)]
        return np.concatenate(cols, axis=1)

    def band_mask(self, band):
        """Boolean mask of basis indices with irrep label within `band`
        (|j| <= band on U(1))."""
        return self._abs_label <= band

    def block(self, lab, mat):
        """Coefficient slice of one irrep as a (d, d) matrix view."""
        d = G.dim(self.group, lab)
        o = self.offsets[lab]
        return mat[o:o + d * d].reshape(d, d)

    # -- block-diagonal operators -------------------------------------------

    def _kron_rows(self, blocks, mats):
        """kron(X_p, 1) @ mats[p] for a stack: blocks per label (P, d, d),
        mats (P, dim, n); one irrep block of rows at a time, each a batch of
        (d, d) @ (d, d * n)."""
        out = np.empty(mats.shape, dtype=complex)
        for lab, X in zip(self.labels, blocks):
            d = X.shape[-1]
            o = self.offsets[lab]
            rows = mats[:, o:o + d * d]
            out[:, o:o + d * d] = (X @ rows.reshape(len(X), d, -1)).reshape(
                rows.shape)
        return out

    def _kron_cols(self, mats, blocks):
        """sum_p mats[p] @ kron(X_p, 1) on the columns mats holds: mats
        (P, rows, n), blocks per label (P, d, d). The n columns are the
        first n basis indices, whole irrep blocks (on SU(2) a `band_mask`
        is such a prefix). One irrep block of columns at a time, as one
        matrix product over (p, x): out[r, (a, b)] = sum mats[p, r, (x, b)]
        X_p[x, a]."""
        P, rows, n = mats.shape
        out = np.empty((rows, n), dtype=complex)
        for lab, X in zip(self.labels, blocks):
            d = X.shape[-1]
            o = self.offsets[lab]
            if o >= n:
                break
            cols = mats[:, :, o:o + d * d].reshape(P, rows, d, d)
            prod = cols.transpose(1, 3, 0, 2).reshape(rows * d, P * d) @ (
                X.reshape(P * d, d))                      # (r, b), a
            out[:, o:o + d * d] = prod.reshape(rows, d, d).transpose(
                0, 2, 1).reshape(rows, d * d)
        return out

    # -- standard operators as matrices on the coefficient basis ------------

    def right_derivative(self, k=0):
        """R_X for X = tau_k (SU(2)) or X = 1 (U(1)): d/ds Psi(e^{sX} g), the
        dense block-diagonal matrix with kron(dpi(X)^T, 1) per label."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for lab, X in zip(self.labels,
                          _generators(self.group, self.labels, k)):
            d = len(X)
            o = self.offsets[lab]
            out[o:o + d * d, o:o + d * d] = np.kron(X.T, np.eye(d))
        return out

    def multiplication_operator(self, g_pw, coeffs, in_band=None):
        """Matrices of Psi -> f * Psi, a stack (rows, dim, n), for the f
        whose g_pw coefficients c are the rows of coeffs.

        Each equals EW diag(f) E. U(1): M[j, j'] = c_{j - j'}. SU(2):
        M[(n,a,b), (n',a',b')] = sum_beta w_beta sqrt(n) d^n_ab(beta)
        sqrt(n') d^n'_a'b'(beta) F[beta, 2(m_a - m_a'), 2(m_b - m_b')], with
        F[beta, 2m_a, 2m_b] = sum_n c_(n,a,b) sqrt(n) d^n_ab(beta). Only the
        entries that g = g_pw.band admits (module docstring) are computed,
        the rest are exactly 0; with `in_band` only the n columns of
        `band_mask(in_band)`. ValueError if g or in_band exceeds this band,
        or coeffs is not (rows, g_pw.dim).
        """
        g_space = self._band_space(g_pw.band)
        c = np.asarray(coeffs)
        if c.ndim != 2 or c.shape[1] != g_space.dim:
            raise ValueError("coefficients of band %d need shape (rows, %d), "
                             "got %s" % (g_pw.band, g_space.dim, c.shape))
        in_band = self.band if in_band is None else in_band
        if in_band > self.band:
            raise ValueError("in_band %d exceeds the band %d"
                             % (in_band, self.band))
        n_cols, rows, cols, freq, weights, modes = self._entries(
            in_band, g_pw.band)
        d = 1.0 if self.group == G.U1 else g_space._dtable
        F = (c[:, None, :] * d) @ modes           # (row, beta, frequency)
        out = np.zeros((len(c), self.dim, n_cols), dtype=complex)
        for o, f in zip(out, F):
            o[rows, cols] = np.einsum("be,be->e", weights, f[:, freq])
        return out

    def _entries(self, in_band, g):
        """Per (in_band, g), built on first use: the column count; per
        entry that a band-g f admits, its row, column, frequency and beta
        weights (w_beta e_i(beta) e_j(beta) on SU(2), 1 on U(1)); and the
        one-hot map from f's modes to frequencies, the flat weight pairs
        (2m_a, 2m_b), (j, 0) on U(1)."""
        if (in_band, g) not in self._entry_cache:
            cols = np.flatnonzero(self.band_mask(in_band))
            q = np.array([(n, n, 0) if self.group == G.U1 else
                          (n, n - 1 - 2 * a, n - 1 - 2 * b)
                          for n, a, b in self.index])
            lim = g - (self.group == G.SU2)
            w = 2 * lim + 1
            diff = q[:, None] - q[cols]
            rows, cs = np.nonzero(np.abs(diff).max(axis=2) <= lim)
            d = diff[rows, cs]
            # the weight pair (x, y) has flat frequency (x + lim) w + y + lim
            flat = lambda pairs: pairs @ [w, 1] + lim * (w + 1)
            self._entry_cache[in_band, g] = (
                len(cols), rows, cs, flat(d[:, 1:]),
                np.ones((1, len(rows))) if self.group == G.U1 else
                self._w_beta[:, None] * self._dtable[:, rows]
                * self._dtable[:, cols[cs]],
                np.eye(w * w)[flat(q[self.band_mask(g), 1:])])
        return self._entry_cache[in_band, g]
