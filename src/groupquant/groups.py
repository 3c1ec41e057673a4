"""Group elements, irrep bookkeeping and Haar quadratures for U(1) and SU(2).

SU(2) elements are stored as unit quaternions q = (w, x, y, z) corresponding
to the matrix w*1 - i(x sig_x + y sig_y + z sig_z); Euler angles are derived
on demand (gamma = 0 branch at the poles). The Lie algebra carries the
orthonormal basis tau_k = -i sig_k/2, so exp(h n tau) has rotation angle h
with period 4pi and -1 sits at h = 2pi. U(1) elements are angles phi, and
its Lie algebra coordinates are (N, 1) arrays.

Haar measure is normalized to total mass 1 everywhere (vol(G) = 1
convention); the Riemannian volumes 2*pi and 16*pi^2 are exposed as
constants for the places that need the unnormalized measure.

`U1` and `SU2` are the two group objects, each equal to its name as a str.
The other modules read all that differs between the groups from them: the
irreps (labels, dim, casimir, dual, trivial), the bands of products and the
quadrature degree exact for a band (product_band, exact_degree), the Haar
quadrature and the fields that hold points (quadrature, default_degree,
node_field, element_field), an irrep on the Euler grid (euler_factors:
twice-weights of its rows and columns, its d-table), irrep matrices at
points (irreps: one (L, M, d, d) array per run of consecutive labels of one
dimension) and generators (generator), the Lie algebra coordinates (n_dirs;
(N, 1) on U(1)) with exp, log, inv and injectivity_radius, the cosine of a
point's angle, -1 at the branch locus -1 of log (cos_angle), the Jacobian
j(Y)^2 of exp (haar_density) and the structure constants (structure: (k, l,
m) with [tau_k, tau_l] = tau_m, none on U(1)). Both quadratures are Euler
product grids; U(1)'s has shape (n, 1, 1) with alpha = phi, and its
d-tables are 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _gauss_legendre, wigner_d_grid
from .wigner import su2_generator, wigner_D_euler_grid

VOL_U1 = 2 * math.pi
VOL_SU2 = 16 * math.pi ** 2

MAX_QUAD_NODES = 4_000_000


class QuadratureResourceError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# quaternions (N,4) arrays; scalar inputs accepted everywhere
# ---------------------------------------------------------------------------

def quat_identity():
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_mul(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w1, x1, y1, z1 = np.moveaxis(a, -1, 0)
    w2, x2, y2, z2 = np.moveaxis(b, -1, 0)
    return np.stack([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ], axis=-1)


def quat_inv(q):
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_exp(X):
    """exp of X = (X1, X2, X3) in the tau basis; rotation angle |X|."""
    X = np.asarray(X, dtype=float)
    h = np.linalg.norm(X, axis=-1)
    half = h / 2.0
    w = np.cos(half)
    s = np.where(h > 1e-12, np.sin(half) / np.where(h > 1e-12, h, 1.0), 0.5)
    return np.stack([w, s * X[..., 0], s * X[..., 1], s * X[..., 2]], axis=-1)


def quat_log(q):
    """Inverse of quat_exp with |X| in [0, 2pi); X at -1 is ill-defined."""
    q = np.asarray(q, dtype=float)
    w = np.clip(q[..., 0], -1.0, 1.0)
    v = q[..., 1:]
    vn = np.linalg.norm(v, axis=-1)
    half = np.arctan2(vn, w)  # in [0, pi]
    scale = np.where(vn > 1e-14, 2.0 * half / np.where(vn > 1e-14, vn, 1.0), 2.0)
    return scale[..., None] * v


def quat_to_euler(q):
    """ZYZ Euler angles with gamma = 0 on the beta in {0, pi} branch."""
    q = np.atleast_2d(np.asarray(q, dtype=float))
    a = q[:, 0] - 1j * q[:, 3]
    b = -q[:, 2] - 1j * q[:, 1]
    beta = 2.0 * np.arctan2(np.abs(b), np.abs(a))
    regular = (np.abs(a) > 1e-13) & (np.abs(b) > 1e-13)
    apg = np.where(np.abs(a) > 1e-13, -2.0 * np.angle(a), 0.0)
    amg = np.where(np.abs(b) > 1e-13, -2.0 * np.angle(-b), 0.0)
    alpha = np.where(regular, 0.5 * (apg + amg), apg + amg)
    gamma = np.where(regular, 0.5 * (apg - amg), 0.0)
    return alpha, beta, gamma


def euler_to_quat(alpha, beta, gamma):
    alpha, beta, gamma = np.broadcast_arrays(
        np.asarray(alpha, float), np.asarray(beta, float), np.asarray(gamma, float))
    zero = np.zeros_like(alpha)
    za = np.stack([np.cos(alpha / 2), zero, zero, np.sin(alpha / 2)], axis=-1)
    yb = np.stack([np.cos(beta / 2), zero, np.sin(beta / 2), zero], axis=-1)
    zg = np.stack([np.cos(gamma / 2), zero, zero, np.sin(gamma / 2)], axis=-1)
    return quat_mul(quat_mul(za, yb), zg)


# ---------------------------------------------------------------------------
# the group objects
# ---------------------------------------------------------------------------

class _Group(str):
    """A compact group that compares equal to its name (module docstring)."""

    structure = ()

    def product_band(self, band_1, band_2):
        """Labels above the trivial one add: n_1 + n_2 - 1 on SU(2)."""
        return band_1 + band_2 - self.trivial

    def exact_degree(self, band):
        return (band + 1 + self.trivial) // 2


class _U1(_Group):
    trivial, n_dirs, injectivity_radius = 0, 1, math.pi
    node_field, element_field = "angles", "angle"

    def dim(self, label):
        return 1

    def casimir(self, label):
        return float(label) ** 2

    def labels(self, band):
        return list(range(-band, band + 1))

    def dual(self, label):
        return -label

    def default_degree(self, band):
        return 2 * band + 2

    def quadrature(self, degree):
        return u1_quadrature(degree)

    def euler_factors(self, label, beta):
        rows, cols = np.array([-2 * label]), np.zeros(1, int)
        return rows, cols, np.ones((len(beta), 1, 1))

    def irreps(self, labels, angles):
        return [np.exp(1j * np.multiply.outer(
            labels, np.reshape(angles, -1)))[..., None, None]]

    def generator(self, label, k):
        return np.array([[1j * label]])

    def exp(self, Y):
        return Y[..., 0]

    def log(self, angles):
        return np.where(angles > math.pi, angles - 2 * math.pi, angles)[:, None]

    def inv(self, angles):
        return -angles

    def cos_angle(self, angles):
        return np.cos(angles)

    def haar_density(self, Y):
        return np.ones(np.shape(Y)[:-1])


class _SU2(_Group):
    trivial, n_dirs, injectivity_radius = 1, 3, 2 * math.pi
    node_field, element_field = "quats", "quat"
    structure = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    exp, log, inv = (staticmethod(quat_exp), staticmethod(quat_log),
                     staticmethod(quat_inv))

    def dim(self, label):
        if label < 1:
            raise ValueError("SU(2) label must be >= 1")
        return label

    def casimir(self, label):
        return (label ** 2 - 1) / 4.0

    def labels(self, band):
        return list(range(1, band + 1))

    def dual(self, label):
        return label

    def default_degree(self, band):
        return band + 2

    def quadrature(self, degree):
        return su2_quadrature(degree)

    def euler_factors(self, label, beta):
        w = np.arange(label - 1, -label, -2)
        return w, w, wigner_d_grid(label - 1, beta)

    def irreps(self, labels, quats):
        euler = quat_to_euler(quats)
        return [wigner_D_euler_grid(n - 1, *euler)[None] for n in labels]

    def cos_angle(self, quats):
        return quats[:, 0]

    def generator(self, label, k):
        return su2_generator(label - 1, k)

    def haar_density(self, Y):
        h = np.linalg.norm(Y, axis=-1)
        out = np.ones_like(h)
        nz = h > 1e-12
        out[nz] = (np.sin(h[nz] / 2.0) / (h[nz] / 2.0)) ** 2
        return out


U1 = _U1("U1")
SU2 = _SU2("SU2")


def casimir(group, label):
    """Positive Laplace eigenvalue: j^2 for U(1), (n^2-1)/4 for SU(2)."""
    return group.casimir(label)


def irrep_labels(group, band):
    return group.labels(band)


# ---------------------------------------------------------------------------
# group elements (thin wrapper; internals stay vectorized)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    group: str
    angle: float = 0.0                      # U(1)
    quat: tuple = (1.0, 0.0, 0.0, 0.0)      # SU(2)

    @staticmethod
    def u1(phi):
        return GroupElement(U1, angle=float(phi) % (2 * math.pi))

    @staticmethod
    def su2(q):
        q = np.asarray(q, dtype=float)
        nrm = np.linalg.norm(q)
        if abs(nrm - 1.0) > 1e-12:
            if abs(nrm - 1.0) > 1e-6:
                raise ValueError("quaternion norm deviates from 1: %g" % nrm)
            q = q / nrm
        return GroupElement(SU2, quat=tuple(q))


def rep_matrix(group, label, g):
    """Unitary irrep matrix at g, a GroupElement or a point; U(1):
    [e^{i j phi}], SU(2): Wigner D."""
    if isinstance(g, GroupElement):
        g = getattr(g, group.element_field)
    return group.irreps([label], g)[0][0, 0]


# ---------------------------------------------------------------------------
# Haar quadratures
# ---------------------------------------------------------------------------

@dataclass
class Quadrature:
    """Haar quadrature with sum(weights) = 1 (vol(G) = 1 convention), on
    an Euler product grid: nodes in C order over (alpha, beta, gamma)."""
    group: str
    exactness_degree: int
    weights: np.ndarray
    angles: np.ndarray = None     # U(1): node angles
    quats: np.ndarray = None      # SU(2): node quaternions (N,4)
    euler: tuple = None           # (alpha, beta, gamma) arrays
    shape: tuple = None           # (n_alpha, n_beta, n_gamma) axes
    axis_weights: tuple = None    # per axis, the weights summed over the
                                  # other two: 1 on U(1)'s beta and gamma

    @property
    def n_nodes(self):
        return len(self.weights)

    @property
    def nodes(self):
        """The node array, angles or quaternions: group.node_field."""
        return getattr(self, self.group.node_field)


def u1_quadrature(degree):
    """Uniform grid, exact for Schur pairs with |j|, |j'| <= degree; the
    Euler grid of shape (n, 1, 1) with alpha = phi."""
    n = 2 * degree + 1
    if n > MAX_QUAD_NODES:
        raise QuadratureResourceError("U(1) grid of %d nodes exceeds cap" % n)
    phi = 2 * math.pi * np.arange(n) / n
    w, zero, one = np.full(n, 1.0 / n), np.zeros(n), np.ones(1)
    return Quadrature(U1, degree, w, angles=phi, euler=(phi, zero, zero),
                      shape=(n, 1, 1), axis_weights=(w, one, one))


def su2_quadrature(degree):
    """Product rule exact for Schur pairs of irreps with n, n' <= degree.

    Gauss-Legendre in cos(beta), uniform alpha and gamma on [0, 4pi)
    (covering SU(2) twice; the weight normalization absorbs the factor 2).
    Exact for all Peter-Weyl modes with 2j <= 2*(degree-1). Nodes are in C
    order over (alpha, beta, gamma), and `shape` records the three axes.
    """
    k = max(2 * (degree - 1), 1)
    n_ang = k + 1
    n_beta = (k + 2) // 2 + 1
    total = n_ang * n_ang * n_beta
    if total > MAX_QUAD_NODES:
        raise QuadratureResourceError(
            "SU(2) grid of %d nodes exceeds cap; lower the degree" % total)
    x, wx = _gauss_legendre(n_beta)
    beta = np.arccos(x)
    ang = 4 * math.pi * np.arange(n_ang) / n_ang
    A, B, C = np.meshgrid(ang, beta, ang, indexing="ij")
    WA, WB, WC = np.meshgrid(np.full(n_ang, 1.0 / n_ang), wx / 2.0,
                             np.full(n_ang, 1.0 / n_ang), indexing="ij")
    alpha = A.ravel()
    betas = B.ravel()
    gamma = C.ravel()
    W = WA * WB * WC
    quats = euler_to_quat(alpha, betas, gamma)
    return Quadrature(SU2, degree, W.ravel(), quats=quats,
                      euler=(alpha, betas, gamma), shape=A.shape,
                      axis_weights=tuple(W.sum(axis=axes) for axes in
                                         ((1, 2), (0, 2), (0, 1))))


def group_quadrature(group, exactness_degree):
    if exactness_degree < 1:
        raise ValueError("exactness degree must be >= 1")
    return group.quadrature(exactness_degree)
