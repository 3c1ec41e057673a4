"""Representation kernel: irreps, characters, CG, quadratures, Verma norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from sympy import Rational
from sympy.physics.wigner import clebsch_gordan as exact_cg

from groupquant import groups as G
from groupquant.wigner import (angular_momentum, clebsch_gordan,
                               su2_generator, wigner_D_euler_grid)

RNG = np.random.default_rng(20240907)


def random_quats(n):
    return G.quat_normalize(RNG.standard_normal((n, 4)))


def test_dim_and_casimir():
    assert G.dim(G.U1, -7) == 1
    assert G.dim(G.SU2, 5) == 5
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


def test_clebsch_gordan_examples():
    assert abs(clebsch_gordan(0.5, 0.5, 0, 0.5, -0.5, 0)
               - 1 / math.sqrt(2)) < 1e-14
    assert abs(clebsch_gordan(1, 1, 2, 1, 1, 2) - 1.0) < 1e-14
    assert clebsch_gordan(1, 1, 2, 1, 0, 0) == 0.0  # m3 != m1 + m2
    with pytest.raises(ValueError):
        clebsch_gordan(0.3, 0.5, 0.5, 0.1, 0.5, 0.5)


def _cg_matrix(twoj1, twoj2, twoj3):
    """CG block C[(i1, i2), i3] = <j1 m1 j2 m2 | j3 m3> mapping V_{j3} into
    V_{j1} (x) V_{j2}, m = j..-j ordering, first tensor index slowest."""
    n1, n2 = twoj1 + 1, twoj2 + 1
    out = np.zeros((n1 * n2, twoj3 + 1))
    for i1 in range(n1):
        for i2 in range(n2):
            two_m3 = twoj1 + twoj2 - 2 * (i1 + i2)
            if abs(two_m3) <= twoj3:
                out[i1 * n2 + i2, (twoj3 - two_m3) // 2] = clebsch_gordan(
                    twoj1 / 2.0, twoj2 / 2.0, twoj3 / 2.0,
                    twoj1 / 2.0 - i1, twoj2 / 2.0 - i2, two_m3 / 2.0)
    return out


def test_clebsch_gordan_tensor_oracle():
    # diagonalize the total spin on V_{j1} (x) V_{j2}; CG columns must give
    # eigenvectors of J^2 with the right eigenvalue and match inner products
    for twoj1, twoj2 in ((1, 1), (2, 1), (2, 2)):
        j1, j2 = twoj1 / 2.0, twoj2 / 2.0
        J1 = angular_momentum(twoj1)
        J2 = angular_momentum(twoj2)
        d1, d2 = twoj1 + 1, twoj2 + 1
        Jtot = [np.kron(J1[k], np.eye(d2)) + np.kron(np.eye(d1), J2[k])
                for k in range(3)]
        J2tot = sum(Jk @ Jk for Jk in Jtot)
        for twoj3 in range(abs(twoj1 - twoj2), twoj1 + twoj2 + 1, 2):
            j3 = twoj3 / 2.0
            C = _cg_matrix(twoj1, twoj2, twoj3)
            # columns lie in the j3(j3+1) eigenspace and are orthonormal
            assert np.abs(J2tot @ C - j3 * (j3 + 1) * C).max() < 1e-12
            assert np.abs(C.T @ C - np.eye(twoj3 + 1)).max() < 1e-12


def test_clebsch_gordan_sympy_oracle():
    # 100 seeded admissible cases with j <= 100 against sympy's exact values
    rng = np.random.default_rng(20261018)
    cases = 0
    while cases < 100:
        twoj1, twoj2 = (int(x) for x in rng.integers(0, 201, 2))
        twoj3 = int(rng.integers(abs(twoj1 - twoj2),
                                 min(twoj1 + twoj2, 200) + 1))
        twom1 = twoj1 - 2 * int(rng.integers(0, twoj1 + 1))
        twom2 = twoj2 - 2 * int(rng.integers(0, twoj2 + 1))
        if (twoj1 + twoj2 + twoj3) % 2 or abs(twom1 + twom2) > twoj3:
            continue
        twos = (twoj1, twoj2, twoj3, twom1, twom2, twom1 + twom2)
        ref = float(exact_cg(*(Rational(x, 2) for x in twos)))
        assert abs(clebsch_gordan(*(x / 2.0 for x in twos)) - ref) < 1e-14
        cases += 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(-4, 4),
       st.integers(-4, 4))
def test_cg_completeness(twoj1, twoj2, twom1, twom2):
    if abs(twom1) > twoj1 or abs(twom2) > twoj2:
        return
    if (twoj1 + twom1) % 2 or (twoj2 + twom2) % 2:
        return
    j1, j2 = twoj1 / 2.0, twoj2 / 2.0
    m1, m2 = twom1 / 2.0, twom2 / 2.0
    total = 0.0
    for twoj3 in range(abs(twoj1 - twoj2), twoj1 + twoj2 + 1, 2):
        if abs(twom1 + twom2) > twoj3:
            continue
        total += clebsch_gordan(j1, j2, twoj3 / 2.0, m1, m2, m1 + m2) ** 2
    assert abs(total - 1.0) < 1e-12


def _schur_orthogonality_residual(quad, max_label):
    """Worst deviation from Schur orthogonality over irreps <= max_label."""
    labels = G.irrep_labels(quad.group, max_label)
    worst = 0.0
    for la in labels:
        Da = quad.rep_grid(la)
        for lb in labels:
            Db = quad.rep_grid(lb)
            gram = np.einsum("k,kmn,kpq->mnpq", quad.weights, Da, Db.conj())
            if la == lb:
                d = G.dim(quad.group, la)
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


def test_verma_norm_sq():
    assert G.verma_norm_sq(2.0, 0) == 1.0
    assert G.verma_norm_sq(2.0, 3) == 0.0          # null vector at k = lam+1
    # integral lam: zero from the null vector onward; non-integral lam turns
    # negative past k = lam + 1 (no compatible Hilbert structure)
    assert G.verma_norm_sq(2.0, 4) == 0.0
    assert G.verma_norm_sq(2.5, 4) < 0.0
    assert G.verma_norm_sq(2.5, 2) > 0.0
    # integral highest weight keeps positivity up to the null vector
    lam = 3.0
    for k in range(4):
        assert G.verma_norm_sq(lam, k) > 0.0
    assert G.verma_norm_sq(lam, 4) == 0.0
    with pytest.raises(ValueError):
        G.verma_norm_sq(1.0, -1)


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
    assert np.abs(G.quat_to_su2(q2) - G.quat_to_su2(q)).max() < 1e-12
