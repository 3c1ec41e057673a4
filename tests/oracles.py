"""Dense routes to the basis on a grid, for the test oracles only.

The library multiplies by irrep matrices on a quadrature grid only inside
`peterweyl` (`PWSpace._rep_products`, from the space's factor tables,
without forming them) and moves data of a small band onto a larger grid
by that band's own transforms. These helpers keep the direct routes beside
them: every irrep matrix from `wigner_D_euler_grid` at the grid's Euler
angles, the dense basis matrix they make, and zero padding of coefficients
into a larger basis.
"""

import math

import numpy as np

from groupquant import groups as G
from groupquant.wigner import wigner_D_euler_grid


def rep_grid(quad, label):
    """Irrep matrices of `label` at every node of quad, (N, d, d)."""
    if quad.group == G.U1:
        return np.exp(1j * label * quad.angles)[:, None, None]
    return wigner_D_euler_grid(label - 1, *quad.euler)


def basis_matrix(pw, quad):
    """pw's basis sqrt(d) D_ab at quad's nodes, (N, pw.dim)."""
    return np.concatenate(
        [math.sqrt(G.dim(pw.group, lab))
         * rep_grid(quad, lab).reshape(quad.n_nodes, -1)
         for lab in pw.labels], axis=1)


def sub_rows(pw, sub):
    """The row of pw's basis that holds each basis index of `sub`, a space
    of the same group and no larger band: a label's basis functions are the
    same in both spaces, at other offsets."""
    assert sub.band <= pw.band
    return np.array([pw.offsets[lab] - sub.offsets[lab] + i
                     for i, (lab, _, _) in enumerate(sub.index)])


def pad(pw, sub, coeffs):
    """Coefficients (sub.dim, ...) on `sub`'s basis zero-padded into pw's,
    (pw.dim, ...)."""
    c = np.asarray(coeffs)
    out = np.zeros((pw.dim,) + c.shape[1:], dtype=complex)
    out[sub_rows(pw, sub)] = c
    return out
