"""Dense and matrix routes, for the test oracles only.

The library multiplies by irrep matrices on a quadrature grid only inside
`peterweyl` (`PWSpace._rep_products`, from the space's factor tables,
without forming them) and moves data of a small band onto a larger grid
by that band's own transforms. These helpers keep the direct routes beside
them: every irrep matrix from `wigner_D_euler_grid` at the grid's Euler
angles, the dense basis matrix they make, and zero padding of coefficients
into a larger basis.

`heat.coherent_overlap` takes the half trace tr(z^dag z')/2 on SU(2) in
closed form, from quaternions and X; the 2x2 matrices of the complexified
points z = g e^{iX} stay here, as the route it is checked against.
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
        [math.sqrt(pw.group.dim(lab))
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


def quat_to_su2(q):
    """SU(2) matrices [[a, b], [-conj b, conj a]] of unit quaternions (...,
    4), a = q0 - i q3, b = -q2 - i q1: q0 - i (q1, q2, q3) . sigma."""
    q = np.asarray(q, dtype=float)
    a = q[..., 0] - 1j * q[..., 3]
    b = -q[..., 2] - 1j * q[..., 1]
    m = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    m[..., 0, 0] = a
    m[..., 0, 1] = b
    m[..., 1, 0] = -np.conj(b)
    m[..., 1, 1] = np.conj(a)
    return m


def su2_complex_point(p):
    """2x2 matrix of z = g e^{iX}, p a heat.PolarPoint on SU(2): U(g) H with
    H = exp((X . sigma)/2) = cosh(h/2) 1 + (sinh(h/2)/h) (X . sigma), h =
    |X|; the factor is its limit 1/2 at h = 0."""
    x1, x2, x3 = (float(c) for c in p.X)
    h = math.hypot(x1, x2, x3)
    c, s = math.cosh(h / 2.0), (math.sinh(h / 2.0) / h if h else 0.5)
    H = np.array([[c + s * x3, s * complex(x1, -x2)],
                  [s * complex(x1, x2), c - s * x3]])
    return quat_to_su2(np.asarray(p.g.quat, float)) @ H
