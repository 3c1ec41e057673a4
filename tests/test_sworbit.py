"""Stratonovich-Weyl calculus on SU(2) coadjoint orbits."""

import math

import numpy as np
import pytest
from scipy.special import sph_harm_y

from groupquant import groups as G
from groupquant import orbits as O
from groupquant.peterweyl import PWSpace
from groupquant.wigner import su2_generator, wigner_D_euler_grid

RNG = np.random.default_rng(31)


@pytest.fixture(scope="module", params=[1, 2, 3])
def spec(request):
    return O.OrbitSpec(request.param)


def rand_mat(d):
    return RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))


def test_grid_normalization(spec):
    assert abs(spec.weights.sum() - spec.d) < 1e-12
    assert spec.orthonormality_residual() < 1e-10


def test_coherent_vectors(spec):
    v = spec.coherent
    assert np.abs(np.einsum("am,am->a", v.conj(), v) - 1).max() < 1e-13
    # momentum map J(v_theta) = j * nhat(theta)
    for a in range(0, spec.n_nodes, max(1, spec.n_nodes // 17)):
        Jv = O.momentum_map(spec.twoj, v[a])
        assert np.abs(Jv - spec.j * spec.nhat[a]).max() < 1e-10
    # north pole is the highest-weight vector
    vn = O.coherent_vector(spec, 0.0, 0.0)
    e1 = np.zeros(spec.d)
    e1[0] = 1.0
    assert np.abs(vn - e1).max() < 1e-13


def test_overlap_formula(spec):
    # |<v, v'>|^2 = cos^{4j}(gamma/2)
    for (i1, i2) in [(0, 5), (3, 11), (7, 2)]:
        ov = abs(np.vdot(spec.coherent[i1], spec.coherent[i2])) ** 2
        cosg = np.clip(spec.nhat[i1] @ spec.nhat[i2], -1, 1)
        assert abs(ov - ((1 + cosg) / 2.0) ** spec.twoj) < 1e-13


def test_kernel_spectrum(spec):
    k = spec.k_l
    assert abs(k[0] - 1.0) < 1e-13
    assert np.all(k > 0)
    assert np.all(np.diff(k) < 0)
    # quadrature oracle for the eigenvalues
    for l in range(spec.twoj + 1):
        Y = spec.harmonics(l)[:, l]
        KY = O.k_operator(spec, Y)
        num = (np.conj(Y) * spec.weights) @ KY
        den = (np.conj(Y) * spec.weights) @ Y
        assert abs(num / den - k[l]) < 1e-12
    # Clebsch-Gordan closed form
    for l in range(spec.twoj + 1):
        assert abs(O.cg_kernel_eigenvalue(spec.twoj, l) - k[l]) < 1e-12


def _kernel_eigenvalues_quadrature(twoj):
    """k_l = (d/2) int_{-1}^{1} ((1+x)/2)^{2j} P_l(x) dx by exact
    Gauss-Legendre; loses the tail sign for 2j >= 32, where the integrand
    cancels below double precision."""
    x, w = np.polynomial.legendre.leggauss(twoj + twoj // 2 + 12)
    base = ((1.0 + x) / 2.0) ** twoj
    return np.array([(twoj + 1) / 2.0 * np.sum(
        w * base * np.polynomial.legendre.Legendre.basis(l)(x))
        for l in range(twoj + 1)])


@pytest.mark.parametrize("twoj", [2, 4, 8, 16, 24])
def test_kernel_eigenvalues_quadrature_oracle(twoj):
    assert np.abs(O.kernel_eigenvalues(twoj)
                  - _kernel_eigenvalues_quadrature(twoj)).max() < 1e-13


def test_spectrum_positivity_large_j():
    for twoj in (8, 16, 32):
        k = O.kernel_eigenvalues(twoj)
        assert np.all(k > 0) and np.all(np.diff(k) < 0)
        assert abs(k[0] - 1.0) < 1e-10
    # k_l -> 1 at fixed l as j grows
    vals = [O.kernel_eigenvalues(twoj, lmax=2)[2] for twoj in (4, 8, 16, 32)]
    assert np.all(np.diff(vals) > 0) and vals[-1] > 0.8  # k_l -> 1 trend


def test_delta_field(spec):
    D = spec.delta_field()
    assert np.abs(D - np.conj(np.swapaxes(D, 1, 2))).max() < 1e-12
    assert np.abs(np.einsum("ann->a", D) - 1.0).max() < 1e-12
    assert np.abs(np.einsum("a,anm->nm", spec.weights, D)
                  - np.eye(spec.d)).max() < 1e-9


def test_pauli_form():
    s2 = O.OrbitSpec(1)
    D2 = s2.delta_field()
    sig = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                    [[1, 0], [0, -1]]], dtype=complex)
    expect = 0.5 * (np.eye(2)
                    + math.sqrt(3) * np.einsum("ak,kmn->amn", s2.nhat, sig))
    assert np.abs(D2 - expect).max() < 1e-12


def test_symbol_roundtrip_and_properties(spec):
    A = rand_mat(spec.d)
    B = rand_mat(spec.d)
    WA, WB = O.sw_symbol(spec, A), O.sw_symbol(spec, B)
    assert np.abs(O.sw_quantize(spec, WA) - A).max() < 1e-10
    assert np.abs(O.sw_symbol(spec, np.eye(spec.d)) - 1.0).max() < 1e-12
    assert np.abs(O.sw_symbol(spec, A.conj().T) - WA.conj()).max() < 1e-12
    assert np.abs(O.sw_symbol(spec, (A + A.conj().T) / 2).imag).max() < 1e-10
    tr = np.trace(A.conj().T @ B)
    pair = np.sum(spec.weights * WA.conj() * WB)
    assert abs(tr - pair) < 1e-10 * abs(tr)
    # quantize on band-limited fields is the right inverse
    f = spec.harmonics(min(2, spec.twoj))[:, 0] * 0.4 + 0.7
    back = O.sw_symbol(spec, O.sw_quantize(spec, f))
    assert np.abs(back - f).max() < 1e-10


def test_covariance(spec):
    A = rand_mat(spec.d)
    q = G.quat_normalize(np.array([0.3, 0.1, -0.4, 0.85]))
    al, be, ga = G.quat_to_euler(q[None, :])
    Dg = wigner_D_euler_grid(spec.twoj, al, be, ga)[0]
    Wc = O.sw_symbol(spec, Dg @ A @ Dg.conj().T)
    w_, x, y, z = G.quat_inv(q)
    Rm = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w_), 2 * (x * z + y * w_)],
        [2 * (x * y + z * w_), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w_)],
        [2 * (x * z - y * w_), 2 * (y * z + x * w_), 1 - 2 * (x * x + y * y)]])
    rot = spec.nhat @ Rm.T
    coef = spec.sh_analysis(O.sw_symbol(spec, A), spec.twoj)
    beta_r = np.arccos(np.clip(rot[:, 2], -1, 1))
    alpha_r = np.arctan2(rot[:, 1], rot[:, 0])
    vals = np.zeros(spec.n_nodes, complex)
    for l, c in enumerate(coef):
        for mi, m in enumerate(range(-l, l + 1)):
            vals += c[mi] * sph_harm_y(l, m, beta_r, alpha_r)
    assert np.abs(Wc - vals).max() < 1e-10


def test_twisted_product(spec):
    A, B, C = rand_mat(spec.d), rand_mat(spec.d), rand_mat(spec.d)
    WA, WB, WC = (O.sw_symbol(spec, M) for M in (A, B, C))
    tp = O.sw_twisted_product(spec, WA, WB)
    assert np.abs(tp - O.sw_symbol(spec, A @ B)).max() < 1e-10
    lhs = O.sw_twisted_product(spec, tp, WC)
    rhs = O.sw_twisted_product(spec, WA,
                               O.sw_twisted_product(spec, WB, WC))
    assert np.abs(lhs - rhs).max() < 1e-9
    ones = np.ones(spec.n_nodes)
    assert np.abs(O.sw_twisted_product(spec, ones, WB) - WB).max() < 1e-10


@pytest.fixture(scope="module")
def swf_setup():
    quad = G.su2_quadrature(8)
    specs = [O.OrbitSpec(t) for t in (0, 1, 2)]
    pwg = PWSpace(G.SU2, 3, quad_degree=8)
    return quad, specs, pwg


def test_e_kernel_properties(swf_setup):
    quad, specs, _ = swf_setup
    spec = specs[2]
    E = O.e_kernel(spec, quad)
    # 1. conj E(g) = E(g^{-1})
    Dinv = wigner_D_euler_grid(spec.twoj,
                               *G.quat_to_euler(G.quat_inv(quad.quats)))
    Einv = np.einsum("anm,kmn->ka", spec.delta_field(), Dinv)
    assert np.abs(E.conj() - Einv).max() < 1e-12
    # 2. covariance under conjugation
    h = G.quat_normalize(np.array([0.6, 0.2, -0.3, 0.71]))
    Dh = wigner_D_euler_grid(spec.twoj, *G.quat_to_euler(h[None]))[0]
    g1 = quad.quats[57]
    Dg = wigner_D_euler_grid(spec.twoj, *G.quat_to_euler(g1[None]))[0]
    Dconj = wigner_D_euler_grid(spec.twoj, *G.quat_to_euler(
        G.quat_mul(G.quat_mul(h, g1), G.quat_inv(h))[None]))[0]
    lhs = np.einsum("anm,mn->a", spec.delta_field(), Dconj)
    rhs = np.einsum("anm,mn->a", spec.delta_field(),
                    Dh @ Dg @ Dh.conj().T)
    assert np.abs(lhs - rhs).max() < 1e-12
    # 3. int E dmu = chi
    chi = np.einsum("kmm->k", quad.rep_grid(spec.twoj + 1))
    assert np.abs(E @ spec.weights - chi).max() < 1e-12
    # 4. int_G E(g,th) conj(E(g,th')) dg = d^{-1} tr(Delta(th) Delta(th'))
    lhs4 = np.einsum("k,ka,kb->ab", quad.weights, E, E.conj())
    D = spec.delta_field()
    rhs4 = np.einsum("anm,bmn->ab", D, D) / spec.d
    assert np.abs(lhs4 - rhs4).max() < 1e-12
    # 6. E(g) star E(h) = E(gh)
    i1, i2 = 100, 723
    prod = O.sw_twisted_product(spec, E[i1], E[i2])
    gh = G.quat_mul(quad.quats[i1], quad.quats[i2])
    Dgh = wigner_D_euler_grid(spec.twoj, *G.quat_to_euler(gh[None]))[0]
    Egh = np.einsum("anm,mn->a", D, Dgh)
    assert np.abs(prod - Egh).max() < 1e-10


def test_e_kernel_translation_property(swf_setup):
    # 5. E(g; .) star F_SW[Psi] = F_SW[U_g Psi]
    quad, specs, pwg = swf_setup
    spec = specs[1]
    coef = RNG.standard_normal(pwg.dim) + 1j * RNG.standard_normal(pwg.dim)
    psi = pwg.eval_basis(quad.quats) @ coef
    g = quad.quats[91]
    E = O.e_kernel(spec, quad)
    tr = O.swf_transform(psi, quad, [spec])[spec.twoj]
    lhs = O.sw_twisted_product(spec, E[91], tr)
    shifted = pwg.eval_basis(
        G.quat_mul(G.quat_inv(g)[None, :], quad.quats)) @ coef
    rhs = O.swf_transform(shifted, quad, [spec])[spec.twoj]
    assert np.abs(lhs - rhs).max() < 1e-10


def test_pauli_term_symbol(swf_setup):
    quad, specs, _ = swf_setup
    spec = specs[2]
    eps, Bv = 0.5, np.array([0.3, -0.7, 0.2])
    A = 1j * eps * sum(Bv[i] * su2_generator(spec.twoj, i) for i in range(3))
    Wp = O.sw_symbol(spec, A)
    dt = 1e-6
    acc = np.zeros(spec.n_nodes, complex)
    D = spec.delta_field()
    for i in range(3):
        Xp = np.zeros(3)
        Xp[i] = dt
        Dp = wigner_D_euler_grid(spec.twoj, *G.quat_to_euler(
            G.quat_exp(Xp)[None]))[0]
        Dm = wigner_D_euler_grid(spec.twoj, *G.quat_to_euler(
            G.quat_exp(-Xp)[None]))[0]
        dE = (np.einsum("anm,mn->a", D, Dp)
              - np.einsum("anm,mn->a", D, Dm)) / (2 * dt)
        acc += 1j * eps * Bv[i] * dE
    assert np.abs(Wp - acc).max() < 1e-8


def test_swf_inversion_parseval_convolution(swf_setup):
    quad, specs, pwg = swf_setup
    coef = RNG.standard_normal(pwg.dim) + 1j * RNG.standard_normal(pwg.dim)
    coef2 = RNG.standard_normal(pwg.dim) + 1j * RNG.standard_normal(pwg.dim)
    psi = pwg.eval_basis(quad.quats) @ coef
    phi = pwg.eval_basis(quad.quats) @ coef2
    tr = O.swf_transform(psi, quad, specs)
    back = O.swf_inverse(tr, quad, specs)
    assert np.abs(back - psi).max() < 1e-10 * np.abs(psi).max()
    lhs, rhs = O.swf_parseval(psi, tr, quad, specs)
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)
    conv = O.group_convolution(psi, coef2, pwg, quad)
    tr_conv = O.swf_transform(conv, quad, specs)
    tr_phi = O.swf_transform(phi, quad, specs)
    for s in specs:
        star = O.sw_twisted_product(s, tr[s.twoj], tr_phi[s.twoj])
        assert np.abs(tr_conv[s.twoj] - star).max() < 1e-9


def test_swf_character_support(swf_setup):
    quad, specs, _ = swf_setup
    chi = np.einsum("kmm->k", quad.rep_grid(2))  # character of n = 2
    tr = O.swf_transform(chi, quad, specs)
    assert np.abs(tr[0]).max() < 1e-12
    assert np.abs(tr[2]).max() < 1e-12
    # F_SW[chi_pi](pi, .) = W of 1/d = 1/d
    assert np.abs(tr[1] - 0.5).max() < 1e-12


def test_momentum_scaled_transform(swf_setup):
    quad, specs, pwg = swf_setup
    coef = RNG.standard_normal(pwg.dim) + 1j * RNG.standard_normal(pwg.dim)
    psi = pwg.eval_basis(quad.quats) @ coef
    full = O.swf_transform(psi, quad, specs)
    # eps = 1: identity on transform data
    assert np.abs(full[1] - O.swf_transform(psi, quad, [specs[1]])[1]
                  ).max() == 0.0
    # eps = 1/2, pi = spin-1/2 reads the spin-1 component: relabeling
    spec_half = O.OrbitSpec(1)
    spec_one = O.OrbitSpec(2)
    # scaled transform at the spin-1/2 orbit with eps^{-1} = 2 is the
    # unscaled transform at spin 1 (same theta grid up to orbit radius)
    scaled = O.swf_transform(psi, quad, [spec_one])[2]
    assert scaled.shape == (spec_one.n_nodes,)
    # eps = 1/3 with pi = spin-1/2: 3 * (1/2) = 3/2 not in the eps-sublattice
    # of integer multiples of the base weight; the relabeling must reject it
    with pytest.raises(ValueError):
        O.momentum_scaled_label(1, 3)
    assert O.momentum_scaled_label(1, 2) == 2
    assert O.momentum_scaled_label(2, 3) == 6


def test_cartan_power_residual():
    for _ in range(5):
        q = G.quat_normalize(RNG.standard_normal(4))
        assert O.cartan_power_residual(1, 4, q) < 1e-12
        assert O.cartan_power_residual(2, 3, q) < 1e-12
        assert O.cartan_power_residual(3, 1, q) == 0.0
    e = np.array([1.0, 0, 0, 0])
    assert O.cartan_power_residual(2, 5, e) < 1e-14


def test_berezin(spec):
    ones = np.ones(spec.n_nodes)
    assert np.abs(O.berezin_quantize(spec, ones) - np.eye(spec.d)).max() \
        < 1e-12
    f = spec.harmonics(min(2, spec.twoj))[:, 1] * 0.7 + 0.2
    assert O.berezin_sw_residual(spec, f) < 1e-10
    # upper/lower duality
    A, B = rand_mat(spec.d), rand_mat(spec.d)
    LA, LB = O.lower_symbol(spec, A), O.lower_symbol(spec, B)
    UA = O.upper_symbol_from_lower(spec, LA)
    tr = np.trace(A.conj().T @ B)
    assert abs(tr - np.sum(spec.weights * UA.conj() * LB)) < 1e-9 * abs(tr)


def test_k_rate_slope():
    slope = O.k_rate_slope([8, 16, 32, 64])  # j in {4, 8, 16, 32}
    assert abs(slope - 1.0) < 0.2


def test_exports(tmp_path, spec):
    f = spec.harmonics(1)[:, 0]
    path = tmp_path / "field.csv"
    O.field_to_csv(spec, f, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "beta,alpha,re,im"
    assert len(rows) == spec.n_nodes + 1
    text = O.coefficients_to_json(spec, f)
    import json
    payload = json.loads(text)
    assert payload["twoj"] == spec.twoj
