"""Representation kernel: irreps, characters, quadratures, Verma norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from groupquant import groups as G
from groupquant.wigner import su2_generator, wigner_D_euler_grid
from oracles import quat_to_su2, rep_grid

RNG = np.random.default_rng(20240907)


def random_quats(n):
    return G.quat_normalize(RNG.standard_normal((n, 4)))


def test_dim_and_casimir():
    assert G.U1.dim(-7) == 1
    assert G.SU2.dim(5) == 5
    assert G.casimir(G.U1, 3) == 9.0
    assert G.casimir(G.SU2, 4) == (16 - 1) / 4.0


def test_u1_character_examples():
    g = G.GroupElement.u1(math.pi / 2)
    assert abs(G.rep_matrix(G.U1, 2, g)[0, 0] - (-1.0)) < 1e-14
    phi = 0.83
    assert abs(np.trace(G.rep_matrix(G.U1, 3, G.GroupElement.u1(phi)))
               - np.exp(3j * phi)) < 1e-14


def test_su2_identity_and_z_rotation():
    e = G.GroupElement.su2(G.quat_identity())
    assert np.abs(G.rep_matrix(G.SU2, 2, e) - np.eye(2)).max() < 1e-14
    th = 1.234
    g = G.GroupElement.su2(G.quat_exp(np.array([0.0, 0.0, th])))
    D = G.rep_matrix(G.SU2, 3, g)
    expect = np.diag([np.exp(-1j * th), 1.0, np.exp(1j * th)])
    assert np.abs(D - expect).max() < 1e-13


def test_rep_matrix_exponential_oracle():
    # D(exp X) against the matrix-exponential of sum X_k dpi(tau_k)
    for n in (2, 3, 4, 6):
        for _ in range(3):
            X = RNG.standard_normal(3)
            g = G.GroupElement.su2(G.quat_exp(X))
            D = G.rep_matrix(G.SU2, n, g)
            ref = expm(sum(X[k] * su2_generator(n - 1, k) for k in range(3)))
            assert np.abs(D - ref).max() < 1e-12


def test_homomorphism_and_unitarity():
    for n in range(1, 9):
        qa, qb = random_quats(100), random_quats(100)
        Da = wigner_D_euler_grid(n - 1, *G.quat_to_euler(qa))
        Db = wigner_D_euler_grid(n - 1, *G.quat_to_euler(qb))
        Dab = wigner_D_euler_grid(n - 1, *G.quat_to_euler(G.quat_mul(qa, qb)))
        prod = np.einsum("kab,kbc->kac", Da, Db)
        assert np.linalg.norm((prod - Dab).reshape(100, -1),
                              axis=1).max() < 1e-11
        uni = np.einsum("kab,kcb->kac", Da, Da.conj())
        assert np.abs(uni - np.eye(n)).max() < 1e-12


def test_character_class_function():
    for n in (2, 3, 5):
        g, h = random_quats(1)[0], random_quats(1)[0]
        conj = G.quat_mul(G.quat_mul(h, g), G.quat_inv(h))
        c1 = np.trace(G.rep_matrix(G.SU2, n, G.GroupElement.su2(g)))
        c2 = np.trace(G.rep_matrix(G.SU2, n, G.GroupElement.su2(conj)))
        assert abs(c1 - c2) < 1e-12


def _schur_orthogonality_residual(quad, max_label):
    """Worst deviation from Schur orthogonality over irreps <= max_label."""
    labels = G.irrep_labels(quad.group, max_label)
    worst = 0.0
    for la in labels:
        Da = rep_grid(quad, la)
        for lb in labels:
            Db = rep_grid(quad, lb)
            gram = np.einsum("k,kmn,kpq->mnpq", quad.weights, Da, Db.conj())
            if la == lb:
                d = quad.group.dim(la)
                expect = np.einsum("mp,nq->mnpq",
                                   np.eye(d), np.eye(d)) / d
                worst = max(worst, np.abs(gram - expect).max())
            else:
                worst = max(worst, np.abs(gram).max())
    return worst


def test_u1_quadrature():
    quad = G.u1_quadrature(5)
    assert quad.n_nodes == 11
    assert abs(quad.weights.sum() - 1.0) < 1e-14
    assert _schur_orthogonality_residual(quad, 5) < 1e-12


def test_su2_quadrature():
    quad = G.su2_quadrature(4)
    assert abs(quad.weights.sum() - 1.0) < 1e-13
    # C order over the product axes (alpha, beta, gamma)
    alpha, beta, gamma = (x.reshape(quad.shape) for x in quad.euler)
    assert np.prod(quad.shape) == quad.n_nodes
    assert np.all(alpha == alpha[:, :1, :1])
    assert np.all(beta == beta[:1, :, :1])
    assert np.all(gamma == gamma[:1, :1, :])
    assert _schur_orthogonality_residual(quad, 4) < 1e-12


def test_quadrature_resource_error():
    with pytest.raises(G.QuadratureResourceError):
        G.su2_quadrature(400)
    with pytest.raises(ValueError):
        G.group_quadrature(G.U1, 0)


def verma_norm_sq(lam, k):
    """prod_{l=1..k} l*(lam+1-l); 1 at k=0; null vector at k = lam+1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    out = 1.0
    for l in range(1, k + 1):
        out *= l * (lam + 1 - l)
    return out


def test_verma_norm_sq():
    assert verma_norm_sq(2.0, 0) == 1.0
    assert verma_norm_sq(2.0, 3) == 0.0          # null vector at k = lam+1
    # integral lam: zero from the null vector onward; non-integral lam turns
    # negative past k = lam + 1 (no compatible Hilbert structure)
    assert verma_norm_sq(2.0, 4) == 0.0
    assert verma_norm_sq(2.5, 4) < 0.0
    assert verma_norm_sq(2.5, 2) > 0.0
    # integral highest weight keeps positivity up to the null vector
    lam = 3.0
    for k in range(4):
        assert verma_norm_sq(lam, k) > 0.0
    assert verma_norm_sq(lam, 4) == 0.0
    with pytest.raises(ValueError):
        verma_norm_sq(1.0, -1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False),
       st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False))
def test_quaternion_normalization_roundtrip(w, x, y, z):
    q = np.array([w, x, y, z])
    if np.linalg.norm(q) < 1e-3:
        return
    q = G.quat_normalize(q)
    a, b, c = G.quat_to_euler(q[None, :])
    q2 = G.euler_to_quat(a, b, c)[0]
    assert np.abs(quat_to_su2(q2) - quat_to_su2(q)).max() < 1e-12
