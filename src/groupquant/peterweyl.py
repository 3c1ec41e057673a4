"""Truncated Peter-Weyl spaces: the finite shadows of operators on C(G).

A PWSpace carries the orthonormal basis e_{(pi,a,b)} = sqrt(d_pi) D^pi_{ab}
for labels up to a band, a Haar quadrature exact enough to analyze the
products that arise, and the standard operators on that basis.

Left translations and right derivatives are block diagonal: one Kronecker
block kron(X, 1) per irrep, X acting on the first index of D_{ab}.
`right_derivative` returns its blocks as one dense matrix; `_kron_rows` and
`_kron_cols` apply kron(X, 1) blocks to the rows or the columns of a stack
of matrices without forming them, one batched product per run of
consecutive labels of one dimension (all of U(1)'s labels are one run),
which is how the local calculus translates. Blocks come as one (L, P, d, d)
array per run (`_reps`).

The quadrature is an Euler product grid (groups): uniform alpha and gamma
on [0, 4pi), Gauss-Legendre in cos beta on SU(2); on U(1) the grid of shape
(n, 1, 1) with alpha = phi. The basis separates on it,

    e_(n,a,b)(alpha, beta, gamma) = e^{-i m_a alpha} sqrt(d) d^n_ab(beta)
                                    e^{-i m_b gamma},

the separation of variables of Kostelec & Rockmore, "FFTs on the Rotation
Group", J. Fourier Anal. Appl. 14 (2008) 145. The space keeps only its
factors: the phase tables e^{-i m alpha} and e^{-i m gamma} over the
twice-weights 2m of its modes, and one real d-table sqrt(d) d^n_ab(beta),
(n_beta, dim). On U(1) e_j = e^{i j phi} has 2m_a = -2j, 2m_b = 0 and d = 1.
`synthesis` sums first over the modes of each row twice-weight 2m_a,
against the d-table times the gamma phases, then over the row
twice-weights by one matrix product with the alpha phase table; `analysis`
takes the quadrature sum in the reverse order. Both are the dense sums
E @ c and _EW @ f reordered, equal to them for any grid values, at O(B^5)
operations per column against O(B^6) on SU(2).

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
formed from f's coefficients: a short sum over the beta nodes, against the
d-table, of f's (alpha, gamma) Fourier coefficients at each beta, which are
its coefficients times its own d-table (on U(1) their Toeplitz matrix). An
f whose coefficients hold band g admits only entries whose labels and
twice-weights differ by at most the largest twice-weight of band g: O(g^3)
per column on SU(2); the rest are exact zeros.
"""

import functools
import math

import numpy as np

from . import groups as G

# complex entries of the per-block temporaries of the SU(2) transforms
# (4 MB): a transform of many columns, or at a large band, runs over blocks
# of beta nodes instead of making temporaries of the size of its output.
# The KN calculus (symbols) stacks as many labels' grid values as fit in it.
_BLOCK = 1 << 18


@functools.lru_cache(maxsize=32)
def space(group, band, quad_degree):
    """The PWSpace of (group, band, quad_degree), shared: do not change it."""
    return PWSpace(group, band, quad_degree)


class PWSpace:
    def __init__(self, group, band, quad_degree=None):
        self.group = group
        self.band = band
        if quad_degree is None:
            quad_degree = group.default_degree(band)
        self.quad = G.group_quadrature(group, quad_degree)
        self.labels = group.labels(band)
        self.index = []
        self.offsets = {}
        self._runs = []    # (labels, d, offset): consecutive labels of one d
        for lab in self.labels:
            d = group.dim(lab)
            self.offsets[lab] = len(self.index)
            if self._runs and self._runs[-1][1] == d:
                self._runs[-1][0].append(lab)
            else:
                self._runs.append(([lab], d, len(self.index)))
            for a in range(d):
                for b in range(d):
                    self.index.append((lab, a, b))
        self.dim = len(self.index)
        # the conjugation map conj(e_i) = s_i e_ibar (module docstring)
        sizes = [group.dim(n) ** 2 for n in self.labels]
        ends = [self.offsets[n] + self.offsets[group.dual(n)] + k - 1
                for n, k in zip(self.labels, sizes)]
        self._dual_index = (np.repeat(np.array(ends, dtype=int), sizes)
                            - np.arange(self.dim))
        self._dual_sign = (-1.0) ** np.array([a + b for _, a, b in self.index])
        self._abs_label = np.repeat(np.abs(self.labels), sizes)
        self._entry_cache, self._run_cache = {}, {}
        self._euler_tables()

    def _euler_tables(self):
        """The factors of the basis on the Euler product grid.

        The distinct twice-weights 2m of the modes' rows and columns, in
        descending order, are indexed by u (on SU(2) 2m = B - 1 - u, u =
        0..2B-2); `_u` and `_v` are the indices of each mode's row and
        column weight, and `_weights` the two twice-weights, (dim, 2).
        `_pad` lists, per u, the modes (n, a, b) whose row weight is u,
        padded with the index dim to a common length; `_pad_v` is the
        column weight u of each entry, and `_dpad` the d-table per u, (u,
        n_beta, slots), zero in the padding slots.
        """
        shape = self.quad.shape
        alpha, beta, gamma = (x.reshape(shape) for x in self.quad.euler)
        w_alpha, self._w_beta, w_gamma = self.quad.axis_weights
        factors = [self.group.euler_factors(lab, beta[0, :, 0])
                   for lab in self.labels]
        rows = np.concatenate([np.repeat(r, len(r)) for r, _, _ in factors])
        cols = np.concatenate([np.tile(c, len(c)) for _, c, _ in factors])
        self._weights = np.column_stack([rows, cols])
        tw, at = np.unique(np.concatenate([rows, cols]), return_inverse=True)
        u, v = self._u, self._v = np.split(len(tw) - 1 - at.ravel(), 2)
        m = tw[::-1] / 2.0
        self._phase_a = np.exp(-1j * np.multiply.outer(alpha[:, 0, 0], m))
        self._phase_g = np.exp(-1j * np.multiply.outer(gamma[0, 0, :], m))
        self._ana_a = (self._phase_a.conj() * w_alpha[:, None]).T
        self._ana_g = (self._phase_g.conj() * w_gamma[:, None]).T
        self._dtable = np.concatenate(
            [math.sqrt(len(r)) * d.reshape(shape[1], -1)
             for r, _, d in factors], axis=1)
        counts = np.bincount(u, minlength=len(tw))
        order = np.argsort(u, kind="stable")
        slot = np.arange(self.dim) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
        self._pad = np.full((len(tw), counts.max()), self.dim)
        self._pad[u[order], slot] = order
        self._pad_v = np.append(v, 0)[self._pad]
        self._dpad = np.append(self._dtable, np.zeros((shape[1], 1)),
                               axis=1)[:, self._pad].transpose(1, 0, 2)

    @functools.cached_property
    def E(self):
        """Dense basis matrix (N, dim), `eval_basis` at the nodes: built on
        first use, for the dense oracles."""
        return self.eval_basis(self.quad.nodes)

    @functools.cached_property
    def _EW(self):
        """Dense analysis matrix conj(E)^T diag(w), built on first use."""
        return (self.E.conj() * self.quad.weights[:, None]).T

    def _rep_products(self, stack, labels, conj=False):
        """Per node g and label, D(g) @ v(g) for the label's block v of the
        grid stack (N, sum of d^2): one (d, d) matrix per node and label,
        the labels consecutive ones of this space, in order; with conj,
        v(g)^T @ conj(D(g)). No irrep is formed at the nodes: the factors
        of D_mn = e^{-i m_m alpha} d_mn(beta) e^{-i m_n gamma} act in turn,
        one run of labels of one dimension at a time. The phase of the
        contracted index n multiplies the stack, the d-table contracts it,
        one real matrix product per beta node and label, and the phase of m
        multiplies the result."""
        shape, n_beta = self.quad.shape, self.quad.shape[1]
        out = np.empty(stack.shape, dtype=complex)
        for k, labs, s, d in self._block_runs(self.offsets[labels[0]],
                                              stack.shape[1]):
            o = self._runs[k][2] + labs.start * d * d
            n = labs.stop - labs.start
            # the row weights of the rows and the column weights of the
            # columns of each label's block, (n, d), and its phases
            first = o + d * d * np.arange(n)[:, None]
            a = self._phase_a[:, self._u[first + d * np.arange(d)]]
            g = self._phase_g[:, self._v[first + np.arange(d)]]
            a = a.transpose(1, 2, 0)[:, None, :, None, :, None]
            g = g.transpose(1, 2, 0)[:, None, :, None, None, :]
            D = self._dtable[:, o:o + n * d * d].reshape(
                n_beta, n, d, d).swapaxes(0, 1) / math.sqrt(d)
            # the blocks of stack and out as (label, beta, n, p, alpha, gamma)
            v, w = (x[:, s].reshape(shape + (n, d, d)).transpose(
                3, 1, 4, 5, 0, 2) for x in (stack, out))
            if conj:   # sum_n v_np conj(D_nm): conjugate phases, d transposed
                pre, D, post = a.conj(), D.swapaxes(2, 3), g.conj()
                w = w.swapaxes(2, 3)                      # written at (p, m)
            else:      # sum_n D_mn v_np (docstring's factors of D_mn)
                pre, post = g, a
            Y = np.multiply(v, pre, out=np.empty(v.shape, dtype=complex))
            Z = (D @ Y.view(float).reshape(n, n_beta, d, -1)).view(complex)
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
        if not all(np.array_equal(getattr(self.quad, a), getattr(quad, a))
                   for a in ("weights", "nodes")):
            raise ValueError("the quadrature must be group_quadrature(%r, %d)"
                             % (self.group, self.quad.exactness_degree))

    def _reps(self, points):
        """Irrep matrices at arbitrary group elements: per run of labels of
        one dimension (`_runs`), an (L, M, d, d) array of the L labels'
        matrices."""
        return self.group.irreps(self.labels, points)

    # -- transforms ---------------------------------------------------------

    def analysis(self, values):
        """Grid values (N, ...) -> coefficients (dim, ...): the quadrature
        sum c_i = sum_k w_k conj(e_i(g_k)) values_k, exact for band-limited
        data: the weighted alpha sum at every row twice-weight u, one
        matrix product with the alpha analysis table; then per u the sum
        over the (beta, gamma) nodes against w_beta sqrt(d) d^n_ab(beta)
        e^{i m_b gamma} w_gamma for the modes of row weight u, in the
        cheaper of two orders (`_many_columns`)."""
        v = np.asarray(values)
        if v.shape[:1] != (self.quad.n_nodes,):
            raise ValueError("grid values need quad.n_nodes = %d rows, got "
                             "shape %s" % (self.quad.n_nodes, v.shape))
        tail = v.shape[1:]
        n_alpha, _, n_gamma = self.quad.shape
        n_cols = math.prod(tail)
        v = v.reshape(n_alpha, -1)
        wd = self._dpad * self._w_beta[:, None]           # (u, beta, slot)
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
        sqrt(d) d^n_ab(beta) e^{-i m_b gamma} over the modes of row weight
        u, in the cheaper of two orders (`_many_columns`), then the alpha
        sum, one matrix product with the alpha phase table."""
        c = np.asarray(coeffs)
        tail = c.shape[1:]
        c = c.reshape(self.dim, -1)
        n_alpha, _, n_gamma = self.quad.shape
        n_cols = c.shape[1]
        cpad = np.append(c, np.zeros((1, n_cols)), axis=0)[self._pad]
        d = self._dpad                                    # (u, beta, slot)
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

    def eval_basis(self, points):
        """Basis matrix at arbitrary group elements, shape (M, dim)."""
        cols = [math.sqrt(D.shape[-1]) * D.swapaxes(0, 1).reshape(
            D.shape[1], -1) for D in self._reps(points)]
        return np.concatenate(cols, axis=1)

    def band_mask(self, band):
        """Boolean mask of basis indices with irrep label within `band`
        (|j| <= band on U(1))."""
        return self._abs_label <= band

    def block(self, lab, mat):
        """Coefficient slice of one irrep as a (d, d) matrix view."""
        d = self.group.dim(lab)
        o = self.offsets[lab]
        return mat[o:o + d * d].reshape(d, d)

    # -- block-diagonal operators -------------------------------------------

    def _block_runs(self, lo, n):
        """(k, labels, cols, d) per run k of labels of one dimension d that
        the basis indices lo..lo + n - 1, whole irrep blocks, meet: the
        slice of the run's labels among them, and the slice of their basis
        indices relative to lo; built on first use."""
        if (lo, n) not in self._run_cache:
            out = self._run_cache[lo, n] = []
            for k, (labs, d, o) in enumerate(self._runs):
                a, b = max(o, lo), min(o + len(labs) * d * d, lo + n)
                if a < b:
                    out.append((k, slice((a - o) // (d * d),
                                         (b - o) // (d * d)),
                                slice(a - lo, b - lo), d))
        return self._run_cache[lo, n]

    def _kron_rows(self, blocks, mats, lo=0):
        """kron(X_p, 1) @ mats[p] on the rows mats holds, the basis indices
        lo, lo + 1, ... in whole irrep blocks: blocks per run (L, P, d, d)
        (`_reps`), mats (P, m, n); per run one batched product of the (d, d)
        blocks with the (d, d * n) rows."""
        P, m, n = mats.shape
        out = np.empty(mats.shape, dtype=complex)
        for k, labs, s, d in self._block_runs(lo, m):
            X = blocks[k][labs].swapaxes(0, 1)
            out[:, s] = (X @ mats[:, s].reshape(P, len(X[0]), d, -1)).reshape(
                P, -1, n)
        return out

    def _kron_cols(self, mats, blocks, lo=0):
        """sum_p mats[p] @ kron(X_p, 1) on the columns mats holds, the basis
        indices lo, lo + 1, ... in whole irrep blocks (a `band_mask`): mats
        (P, rows, n), blocks per run (L, P, d, d). Per run one batched
        matrix product over (p, x): out[r, (a, b)] = sum mats[p, r, (x, b)]
        X_p[x, a]."""
        P, rows, n = mats.shape
        out = np.empty((rows, n), dtype=complex)
        for k, labs, s, d in self._block_runs(lo, n):
            X = blocks[k][labs]
            L = len(X)
            cols = mats[:, :, s].reshape(P, rows, L, d, d)
            prod = cols.transpose(2, 1, 4, 0, 3).reshape(L, rows * d, P * d) @ (
                X.reshape(L, P * d, d))                   # (l, (r, b), a)
            out[:, s] = prod.reshape(L, rows, d, d).transpose(
                1, 0, 3, 2).reshape(rows, -1)
        return out

    # -- standard operators as matrices on the coefficient basis ------------

    def right_derivative(self, k=0):
        """R_X for X = tau_k (SU(2)) or X = 1 (U(1)): d/ds Psi(e^{sX} g), the
        dense block-diagonal matrix with kron(dpi(X)^T, 1) per label."""
        return self._kron_rows(self._generator_blocks(k),
                               np.eye(self.dim)[None])[0]

    def _generator_blocks(self, k):
        """dpi(X)^T per run, (L, 1, d, d): the blocks of `right_derivative`
        for `_kron_rows` and `_kron_cols`."""
        return [np.stack([self.group.generator(lab, k).T for lab in labs])[
            :, None] for labs, _, _ in self._runs]

    def _held_band(self, coeffs):
        """Largest |label| of a nonzero column of coeffs, else the smallest."""
        return int(self._abs_label[np.any(coeffs, axis=0)].max(
            initial=self._abs_label.min()))

    def multiplication_operator(self, g_pw, coeffs, in_band=None,
                                out_band=None):
        """Matrices of Psi -> f * Psi, a stack (rows, m, n), for the f
        whose g_pw coefficients c are the rows of coeffs.

        Each equals EW diag(f) E. U(1): M[j, j'] = c_{j - j'}. SU(2):
        M[(n,a,b), (n',a',b')] = sum_beta w_beta sqrt(n) d^n_ab(beta)
        sqrt(n') d^n'_a'b'(beta) F[beta, 2(m_a - m_a'), 2(m_b - m_b')], with
        F[beta, 2m_a, 2m_b] = sum_n c_(n,a,b) sqrt(n) d^n_ab(beta). Only the
        entries that g = g_pw._held_band(c) admits (module docstring) are
        computed, the rest are 0; only the n columns of band_mask(in_band)
        and the m rows of band_mask(out_band). ValueError if g_pw.band,
        in_band or out_band exceeds this band, or coeffs is not (rows, dim).
        """
        self._band_space(g_pw.band)
        c = np.asarray(coeffs)
        if c.ndim != 2 or c.shape[1] != g_pw.dim:
            raise ValueError("coefficients of band %d need shape (rows, %d), "
                             "got %s" % (g_pw.band, g_pw.dim, c.shape))
        in_band, out_band = (self.band if b is None else b
                             for b in (in_band, out_band))
        for name, band in (("in_band", in_band), ("out_band", out_band)):
            if band > self.band:
                raise ValueError("%s %d exceeds the band %d"
                                 % (name, band, self.band))
        g = g_pw._held_band(c)
        n_rows, n_cols, rows, cols, freq, weights, modes = self._entries(
            in_band, out_band, g)
        d = self._band_space(g)._dtable
        F = (c[:, None, g_pw.band_mask(g)] * d) @ modes  # (row, beta, freq)
        out = np.zeros((len(c), n_rows, n_cols), dtype=complex)
        for o, f in zip(out, F):
            o[rows, cols] = np.einsum("be,be->e", weights, f[:, freq])
        return out

    def _entries(self, in_band, out_band, g):
        """Per (in_band, out_band, g), built on first use: the row and
        column counts; per entry that a band-g f admits, its row, column,
        frequency and beta weights w_beta e_i(beta) e_j(beta); and the
        one-hot map from f's modes to frequencies, the flat twice-weight
        pairs (2m_a, 2m_b). An entry is admitted when its labels and
        twice-weights differ by at most lim, the largest twice-weight of
        band g: g - 1 on SU(2), 2g on U(1), where the labels' bound follows
        from the weights'."""
        if (in_band, out_band, g) not in self._entry_cache:
            rsel, cols = (np.flatnonzero(self.band_mask(b))
                          for b in (out_band, in_band))
            q = np.column_stack([[n for n, _, _ in self.index],
                                 self._weights])
            lim = np.abs(q[self.band_mask(g), 1:]).max()
            w = 2 * lim + 1
            diff = q[rsel, None] - q[cols]
            rows, cs = np.nonzero(np.abs(diff).max(axis=2) <= lim)
            d = diff[rows, cs]
            # the weight pair (x, y) has flat frequency (x + lim) w + y + lim
            flat = lambda pairs: pairs @ [w, 1] + lim * (w + 1)
            self._entry_cache[in_band, out_band, g] = (
                len(rsel), len(cols), rows, cs, flat(d[:, 1:]),
                self._w_beta[:, None] * self._dtable[:, rsel[rows]]
                * self._dtable[:, cols[cs]],
                np.eye(w * w)[flat(q[self.band_mask(g), 1:])])
        return self._entry_cache[in_band, out_band, g]
