"""U(1)-equivariant Berezin / Kohn-Nirenberg smoothing identities."""

import math

import numpy as np
import pytest

from groupquant.u1smoothing import TwistedSpace

SAMPLES = [(0.4, 0.2), (1.7, -0.3), (3.0, 0.5), (5.1, 0.1)]


@pytest.fixture(scope="module", params=[0.0, 0.3])
def space(request):
    return TwistedSpace(0.3, j0=request.param)


def test_resolution_of_unity(space):
    A = space.berezin_mode(0, 0.0)
    assert np.abs(A - np.eye(space.dim)).max() < 1e-14


def test_closed_form_vs_quadrature(space):
    for (m, kappa) in [(0, 0.0), (2, 1.3), (-1, 0.7)]:
        A1 = space.berezin_mode(m, kappa)
        A2 = space.berezin_mode_quadrature(m, kappa)
        assert np.abs(A1 - A2).max() < 1e-12


def test_heat_multiplier(space):
    # lower symbol of Q^B(mode) = e^{-t(m^2+kappa^2)/2} mode
    for (m, kappa) in [(0, 0.0), (1, 0.0), (2, 1.3), (-1, 0.8), (3, -1.1)]:
        assert space.heat_multiplier_residual(m, kappa, SAMPLES) < 1e-9


def test_heat_multiplier_cos_phi():
    # f = cos(phi), t = 0.5 -> e^{-1/4} cos(phi)
    sp = TwistedSpace(0.5)
    A = 0.5 * (sp.berezin_mode(1, 0.0) + sp.berezin_mode(-1, 0.0))
    for phi, l in SAMPLES:
        lhs = sp.lower_symbol(A, phi, l)
        assert abs(lhs - math.exp(-0.25) * math.cos(phi)) < 1e-8


def test_heat_multiplier_defect_law():
    # the identity carries theta-image corrections O(e^{-pi^2/t})
    resid = []
    for t in (0.6, 0.45, 0.3):
        sp = TwistedSpace(t, j0=0.3)
        resid.append(sp.heat_multiplier_residual(2, 1.3, SAMPLES))
    ratios = [resid[i] / math.exp(-math.pi ** 2 / t)
              for i, t in enumerate((0.6, 0.45, 0.3))]
    assert all(1.0 < r < 60.0 for r in ratios)
    assert resid[2] < resid[1] < resid[0]


def test_constant_symbol(space):
    assert abs(space.lower_symbol(space.berezin_mode(0, 0.0), 0.7, 0.25)
               - 1.0) < 1e-13


def test_annihilation_eigenrelation(space):
    # X_t c(phi, l) = xi c(phi, l), xi = e^{-l + i phi}
    X = space.annihilation()
    for phi, l in SAMPLES:
        c = space.coherent_coeffs(phi, l)
        resid = X @ c - np.exp(-l + 1j * phi) * c
        assert np.abs(resid).max() / np.abs(c).max() < 1e-10


def test_wick_relation(space):
    for (a, b) in [(1, 0), (0, 1), (2, 1), (1, 2), (2, 2)]:
        r1, r2 = space.wick_residuals(a, b, SAMPLES)
        assert r1 < 1e-12   # Q^B(xi^a xibar^b) == X^a (X*)^b
        assert r2 < 1e-10   # lower symbol picks up e^{2 t a b}


def test_kn_smoothing_formula(space):
    modes = [(1, 0.7, 0.8 + 0.2j), (0, 1.1, 0.5), (-2, 0.0, 0.3 - 0.4j)]
    A = space.kn_operator(modes)
    for phi, l in SAMPLES:
        lhs = space.lower_symbol(A, phi, l)
        rhs = space.kn_lower_symbol_formula(modes, phi, l)
        assert abs(lhs - rhs) < 1e-8
    assert abs(space.lower_symbol(space.kn_operator([(0, 0.0, 1.0)]),
                                  0.9, -0.2) - 1.0) < 1e-12


def test_equivariant_weyl_element_orthogonality(space):
    # tr(W(phi,k)^* W(phi',k')) on the discrete (phi, k) grid reproduces the
    # delta-pattern (cyclic mode model, N-point angle grid)
    N = space.dim
    phis = 2 * math.pi * np.arange(N) / N

    def weyl(phi, k):
        # W(phi, k) = sum_m e^{-i m phi} |k + m><k| on the cyclic model
        W = np.zeros((N, N), dtype=complex)
        col = k + space.J
        for m in range(-space.J, space.J + 1):
            W[(col + m) % N, col] = np.exp(-1j * m * phi)
        return W

    for (p1, k1, p2, k2) in [(0, 0, 0, 0), (0, 0, 3, 0), (2, 1, 2, 1),
                             (2, 1, 2, -2), (4, -1, 1, -1)]:
        tr = np.einsum("ij,ij->", weyl(phis[p1], k1).conj(),
                       weyl(phis[p2], k2))
        expect = N if (p1 == p2 and k1 == k2) else 0.0
        assert abs(tr - expect) < 1e-10
