"""Stratonovich-Weyl calculus on SU(2) coadjoint orbits."""

import functools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import sph_harm_y
from sympy import Rational
from sympy.physics.wigner import clebsch_gordan as exact_cg

from groupquant import groups as G
from groupquant import orbits as O
from groupquant._kernels import wigner_d_grid
from groupquant.peterweyl import PWSpace
from groupquant.wigner import (angular_momentum, su2_generator,
                               wigner_D_euler_grid)
from oracles import rep_grid

RNG = np.random.default_rng(31)


@pytest.fixture(scope="module", params=[1, 2, 3])
def spec(request):
    return O.OrbitSpec(request.param)


def rand_mat(d):
    return RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))


def _coherent(spec):
    """The coherent vectors v_theta, column 0 of D(alpha, beta, 0), at every
    node: the dense (N, d) array that the library does not hold."""
    return wigner_D_euler_grid(spec.twoj, spec.alpha, spec.beta,
                               np.zeros(spec.n_nodes))[:, :, 0]


def momentum_map(twoj, v):
    """J_i(v) = <v, J_i v>; equals j * nhat for coherent vectors."""
    J = angular_momentum(twoj)
    return np.array([np.real(np.conj(v) @ (Ji @ v)) for Ji in J])


def _orthonormality_residual_loop(spec):
    """The Gram residual degree pair by degree pair, l <= l', l + l' <= L."""
    worst = 0.0
    for l in range(spec.L + 1):
        Yl = spec.harmonics(l)
        for lp in range(l, spec.L - l + 1):
            g = np.einsum("a,am,an->mn", spec.weights, Yl.conj(),
                          spec.harmonics(lp))
            expect = (spec.d / (4 * math.pi)) * np.eye(2 * l + 1) \
                if l == lp else 0.0
            worst = max(worst, np.abs(g - expect).max())
    return worst


def test_grid_normalization(spec):
    assert abs(spec.weights.sum() - spec.d) < 1e-12
    assert _orthonormality_residual_loop(spec) < 1e-10


@pytest.mark.parametrize("twoj", [2.5, -1, 1.0, "2"])
def test_orbit_spec_rejects_invalid_spin(twoj):
    with pytest.raises(ValueError):
        O.OrbitSpec(twoj)


def test_orbit_spec_accepts_numpy_int():
    s = O.OrbitSpec(np.int64(3))
    assert s.d == 4 and _coherent(s).shape == (s.n_nodes, 4)


@pytest.mark.parametrize("twoj", [1, 4, 24])
def test_harmonics_oracle(twoj):
    s = O.OrbitSpec(twoj)
    for l in range(twoj + 1):
        ref = np.stack([sph_harm_y(l, m, s.beta, s.alpha)
                        for m in range(-l, l + 1)], axis=-1)
        assert np.abs(s.harmonics(l) - ref).max() < 1e-12


def _d_column_full_matrix(spec, l):
    """sqrt((2l+1)/4pi) d^l_{m0}(beta), m = -l..l, read off the full
    (2l+1)^2 Wigner d matrix at each beta node."""
    return math.sqrt((2 * l + 1) / (4 * math.pi)) * wigner_d_grid(
        2 * l, spec.beta_nodes)[:, ::-1, l]


@pytest.mark.parametrize("twoj", [24, 64])
def test_harmonic_columns_full_matrix_oracle(twoj):
    # the tables of the transforms (l <= L/2), and the degree above them
    s = O.OrbitSpec(twoj)
    table, phase = s._harmonic_tables(s.L // 2)
    ls = range(s.L // 2 + 1)
    ref = np.concatenate([_d_column_full_matrix(s, l) for l in ls], axis=1)
    assert np.abs(table - ref).max() < 1e-13
    m = np.concatenate([np.arange(-l, l + 1) for l in ls])
    assert np.array_equal(phase, np.exp(1j * np.multiply.outer(
        s.alpha_nodes, m)))
    l = s.L // 2 + 1
    ref = _d_column_full_matrix(s, l)[:, None] * np.exp(
        1j * np.multiply.outer(s.alpha_nodes, np.arange(-l, l + 1)))
    assert np.abs(s.harmonics(l) - ref.reshape(s.n_nodes, -1)).max() < 1e-13


@pytest.mark.parametrize("twoj", [1, 4])
def test_sh_transforms_reject_aliased_band(twoj):
    # the grid integrates Y_lm conj(Y_l'm') exactly only for l, l' <= L/2;
    # above, analysis of a synthesis missed random coefficients by order 1
    # (0.93 at 2j = 1, lmax = 3; 3.2 at 2j = 4, lmax = 10)
    s = O.OrbitSpec(twoj)
    rng = np.random.default_rng(100 + twoj)
    top = s.L // 2
    c = [rng.standard_normal(2 * l + 1) + 1j * rng.standard_normal(2 * l + 1)
         for l in range(2 * top + 1)]
    back = s.sh_analysis(s.sh_synthesis(c[:top + 1]), top)
    assert max(np.abs(b - x).max() for b, x in zip(back, c)) < 1e-13
    for lmax in (top + 1, 2 * top):
        with pytest.raises(ValueError):
            s.sh_synthesis(c[:lmax + 1])
        with pytest.raises(ValueError):
            s.sh_analysis(np.ones(s.n_nodes), lmax)


# Per-degree oracles for the harmonic transforms: one einsum per l against
# the (N, 2l+1) harmonics of that degree.

def _sh_analysis_loop(spec, field, lmax):
    return [np.einsum("a,am,a...->m...", spec.weights,
                      spec.harmonics(l).conj(), field) * (4 * math.pi / spec.d)
            for l in range(lmax + 1)]


def _sh_synthesis_loop(spec, coeffs):
    return sum(np.einsum("am,m...->a...", spec.harmonics(l), c)
               for l, c in enumerate(coeffs))


@pytest.mark.parametrize("twoj", [1, 4, 24])
def test_sh_transforms_loop_oracle(twoj):
    s = O.OrbitSpec(twoj)
    rng = np.random.default_rng(twoj)
    for tail in [(), (3,), (2, 2)]:
        field = (rng.standard_normal((s.n_nodes,) + tail)
                 + 1j * rng.standard_normal((s.n_nodes,) + tail))
        for lmax in (0, twoj, s.L // 2):
            got = s.sh_analysis(field, lmax)
            ref = _sh_analysis_loop(s, field, lmax)
            scale = max(np.abs(r).max() for r in ref)
            assert len(got) == lmax + 1
            for g, r in zip(got, ref):
                assert g.shape == r.shape
                assert np.abs(g - r).max() < 1e-13 * scale
            ref = _sh_synthesis_loop(s, got)
            back = s.sh_synthesis(got)
            assert back.shape == field.shape
            assert np.abs(back - ref).max() < 1e-13 * np.abs(ref).max()


def test_coherent_vectors(spec):
    v = _coherent(spec)
    assert np.abs(np.einsum("am,am->a", v.conj(), v) - 1).max() < 1e-13
    # momentum map J(v_theta) = j * nhat(theta)
    for a in range(0, spec.n_nodes, max(1, spec.n_nodes // 17)):
        Jv = momentum_map(spec.twoj, v[a])
        assert np.abs(Jv - spec.j * spec.nhat[a]).max() < 1e-10
    # north pole is the highest-weight vector
    vn = wigner_D_euler_grid(spec.twoj, *np.zeros((3, 1)))[0, :, 0]
    e1 = np.zeros(spec.d)
    e1[0] = 1.0
    assert np.abs(vn - e1).max() < 1e-13


def test_overlap_formula(spec):
    # |<v, v'>|^2 = cos^{4j}(gamma/2)
    v = _coherent(spec)
    for (i1, i2) in [(0, 5), (3, 11), (7, 2)]:
        ov = abs(np.vdot(v[i1], v[i2])) ** 2
        cosg = np.clip(spec.nhat[i1] @ spec.nhat[i2], -1, 1)
        assert abs(ov - ((1 + cosg) / 2.0) ** spec.twoj) < 1e-13


def _k_operator(spec, field):
    """(K f)(theta) = int |<v_theta, v_theta'>|^2 f dmu (direct kernel)."""
    cosg = np.clip(spec.nhat @ spec.nhat.T, -1.0, 1.0)
    np.fill_diagonal(cosg, 1.0)
    kern = ((1.0 + cosg) / 2.0) ** spec.twoj
    return kern @ (spec.weights * field)


def _cg_kernel_eigenvalue(twoj, l):
    """k_l from the squared Clebsch-Gordan coefficient:
    k_l = C(j, j; j, -j | l, 0)^2 * d / (2l + 1), sympy's exact value."""
    j = Rational(twoj, 2)
    return float(exact_cg(j, j, l, j, -j, 0) ** 2 * (twoj + 1) / (2 * l + 1))


@functools.cache
def _cg_diagonal(twoj):
    """<j m; l 0|j m> as an (l, m) array, l = 0..2j and m = j..-j, from
    sympy's exact values."""
    j = Rational(twoj, 2)
    return np.array([[float(exact_cg(j, l, j, j - i, 0, j - i))
                      for i in range(twoj + 1)] for l in range(twoj + 1)])


def test_kernel_spectrum(spec):
    k = spec.k_l
    assert abs(k[0] - 1.0) < 1e-13
    assert np.all(k > 0)
    assert np.all(np.diff(k) < 0)
    # quadrature oracle for the eigenvalues
    for l in range(spec.twoj + 1):
        Y = spec.harmonics(l)[:, l]
        KY = _k_operator(spec, Y)
        num = (np.conj(Y) * spec.weights) @ KY
        den = (np.conj(Y) * spec.weights) @ Y
        assert abs(num / den - k[l]) < 1e-12
    # Clebsch-Gordan closed forms; the second, k_l = <j j; l 0|j j>^2,
    # cancels the k_l^{-1/2} of K^{-1/2} in Delta_0
    for l in range(spec.twoj + 1):
        assert abs(_cg_kernel_eigenvalue(spec.twoj, l) - k[l]) < 1e-12
    assert np.abs(_cg_diagonal(spec.twoj)[:, 0] ** 2 - k).max() < 1e-15


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


# The dense field: D(g_theta) Delta_0 D(g_theta)^* on every node, (N, d, d),
# the oracle for the factored tables of orbits.py.

def _delta0(twoj):
    """Delta_0[m] = sum_l k_l^{-1/2} (2l+1)/d <j j; l 0|j j> <j m; l 0|j m>
    for m = j..-j, with sympy's exact Clebsch-Gordan coefficients."""
    d = twoj + 1
    ls = np.arange(d)
    cg = _cg_diagonal(twoj)
    return (O.kernel_eigenvalues(twoj) ** -0.5 * (2 * ls + 1) / d
            * cg[:, 0]) @ cg


def _delta0_recurrence(twoj):
    """Delta_0[m] = sum_l sqrt((2l+1)/d) c_l(m), with the Gram polynomials
    c_l from their three-term recurrence in 80-digit arithmetic, which
    absorbs the digits the forward recurrence loses (c_l(j) reaches 1e-38
    at 2j = 128)."""
    d = twoj + 1
    with mpmath.workdps(80):
        m = [mpmath.mpf(twoj - 2 * i) / 2 for i in range(d)]
        b = [mpmath.mpf(0)] + [l * mpmath.sqrt(mpmath.mpf(d * d - l * l)
                                               / (4 * (4 * l * l - 1)))
                               for l in range(1, d)]
        prev, cur = [0] * d, [1 / mpmath.sqrt(d)] * d
        total = [mpmath.mpf(1) / d] * d
        for l in range(1, d):
            prev, cur = cur, [(mi * c - b[l - 1] * p) / b[l]
                              for mi, c, p in zip(m, cur, prev)]
            total = [t + mpmath.sqrt(mpmath.mpf(2 * l + 1) / d) * c
                     for t, c in zip(total, cur)]
        return np.array([float(t) for t in total])


def _table_delta0(spec):
    """Delta_0 read back from the first row of the Delta~ table."""
    db = spec._d_beta[0]
    table = spec._sw_tables[0][0].reshape(spec.d, spec.d)
    return np.diag(db.T @ table @ db)


def _delta_field(spec):
    D = wigner_D_euler_grid(spec.twoj, spec.alpha, spec.beta,
                            np.zeros(spec.n_nodes))
    return (D * _delta0(spec.twoj)) @ np.swapaxes(D.conj(), 1, 2)


def _rel(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


def _e_kernel_dense(spec, quad):
    """E(g; pi, theta) = tr(Delta(theta) pi(g)) on (group grid, orbit grid),
    from the dense field."""
    flat = _delta_field(spec).reshape(spec.n_nodes, -1)   # [a, (n, m)]
    Dt = np.swapaxes(rep_grid(quad, spec.d), 1, 2).reshape(quad.n_nodes, -1)
    return Dt @ flat.T


ORACLE_2J = [0, 1, 4, 17, 24]


def test_sw_tables_large_spin():
    # 2j = 128: the Racah sums overflowed a float here; the sign of each
    # c_l must come from its c_0 entry, not from the tiny c_l(j)
    s = O.OrbitSpec(128)
    assert np.abs(_table_delta0(s) - _delta0_recurrence(128)).max() < 1e-12
    assert np.abs(O.sw_symbol(s, np.eye(s.d)) - 1).max() < 1e-12
    A = rand_mat(s.d)
    assert np.abs(O.sw_quantize(s, O.sw_symbol(s, A)) - A).max() < 1e-10


@pytest.mark.parametrize("twoj", ORACLE_2J)
def test_sw_maps_dense_oracle(twoj):
    s = O.OrbitSpec(twoj)
    assert np.abs(_table_delta0(s) - _delta0(twoj)).max() < 1e-13
    rng = np.random.default_rng(200 + twoj)
    flat = _delta_field(s).reshape(s.n_nodes, -1)   # [a, (n, m)]
    A = rng.standard_normal((s.d, s.d)) + 1j * rng.standard_normal((s.d,
                                                                     s.d))
    assert _rel(O.sw_symbol(s, A), flat @ A.T.ravel()) < 1e-13
    W = (rng.standard_normal(s.n_nodes)
         + 1j * rng.standard_normal(s.n_nodes))
    assert _rel(O.sw_quantize(s, W),
                ((s.weights * W) @ flat).reshape(s.d, s.d)) < 1e-13


@pytest.mark.parametrize("twoj", ORACLE_2J)
def test_swf_dense_oracle(twoj):
    s = O.OrbitSpec(twoj)
    quad = G.su2_quadrature(3)
    rng = np.random.default_rng(300 + twoj)
    E = _e_kernel_dense(s, quad)
    psi = (rng.standard_normal(quad.n_nodes)
           + 1j * rng.standard_normal(quad.n_nodes))
    F = O.swf_transform(psi, quad, [s])[twoj]
    assert _rel(F, (quad.weights * psi) @ E) < 1e-13
    assert _rel(O.swf_inverse({twoj: F}, quad, [s]),
                s.d * E.conj() @ (s.weights * F)) < 1e-13


@pytest.mark.parametrize("twoj", ORACLE_2J)
def test_coherent_dense_oracle(twoj):
    # the Berezin maps against the dense projector field P_theta = v v^*
    s = O.OrbitSpec(twoj)
    v = _coherent(s)
    flat = np.einsum("am,an->amn", v, v.conj()).reshape(s.n_nodes, -1)
    rng = np.random.default_rng(400 + twoj)
    A = rng.standard_normal((s.d, s.d)) + 1j * rng.standard_normal((s.d,
                                                                     s.d))
    assert _rel(O.lower_symbol(s, A), flat @ A.T.ravel()) < 1e-13
    f = (rng.standard_normal(s.n_nodes)
         + 1j * rng.standard_normal(s.n_nodes))
    assert _rel(O.berezin_quantize(s, f),
                ((s.weights * f) @ flat).reshape(s.d, s.d)) < 1e-13


# 2j = 0 is left out: there d = 1, and every per-node array, the weights
# included, holds N d^2 entries
@pytest.mark.parametrize("twoj", ORACLE_2J[1:])
def test_no_dense_field_held(twoj):
    s = O.OrbitSpec(twoj)
    O.sw_quantize(s, O.sw_symbol(s, np.eye(s.d)))
    f = s.rescale_harmonics(np.ones(s.n_nodes), s.k_l)
    O.lower_symbol(s, O.berezin_quantize(s, f))
    held = [(name, a) for name, v in vars(s).items()
            for a in (v if isinstance(v, tuple) else (v,))
            if isinstance(a, np.ndarray)]
    assert max(a.size for _, a in held) < s.n_nodes * s.d ** 2
    # no coherent vectors and no harmonic matrix: only the nodes and the
    # weights have a row per node
    assert {name for name, a in held if a.shape[:1] == (s.n_nodes,)} == {
        "alpha", "beta", "nhat", "weights"}


def test_delta_field(spec):
    D = _delta_field(spec)
    assert np.abs(D - np.conj(np.swapaxes(D, 1, 2))).max() < 1e-12
    assert np.abs(np.einsum("ann->a", D) - 1.0).max() < 1e-12
    assert np.abs(np.einsum("a,anm->nm", spec.weights, D)
                  - np.eye(spec.d)).max() < 1e-9


def _delta_field_harmonic(spec):
    """Delta = K^{-1/2} P by spherical-harmonic analysis and synthesis of
    the projector field; loses digits as the spin grows (3.4e-8 against the
    equivariant closed form at 2j = 24)."""
    v = _coherent(spec)
    P = np.einsum("am,an->amn", v, v.conj())
    # lower symbol of E_{mn} is conj(v_m) v_n = P[a, n, m]
    L_field = np.swapaxes(P, 1, 2).reshape(spec.n_nodes, -1)
    W_field = spec.rescale_harmonics(L_field, spec.k_l ** -0.5)
    # Delta(theta)_{nm} = W_{E_{mn}}(theta)
    return np.swapaxes(W_field.reshape(spec.n_nodes, spec.d, spec.d), 1, 2)


@pytest.mark.parametrize("twoj", [1, 2, 3, 8])
def test_delta_field_harmonic_oracle(twoj):
    s = O.OrbitSpec(twoj)
    assert np.abs(_delta_field(s) - _delta_field_harmonic(s)).max() < 1e-12


def test_pauli_form():
    s2 = O.OrbitSpec(1)
    D2 = _delta_field(s2)
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


def _group_convolution_nodes(psi_grid, phi_coeffs, pw, quad):
    """(Psi * Phi)(g) by evaluating Phi at all N^2 node products h^{-1} g."""
    out = np.zeros(quad.n_nodes, dtype=complex)
    chunk = 128
    for start in range(0, quad.n_nodes, chunk):
        sl = slice(start, min(start + chunk, quad.n_nodes))
        hq = quad.quats[sl]
        pts = G.quat_mul(G.quat_inv(hq)[:, None, :], quad.quats[None, :, :])
        E = pw.eval_basis(pts.reshape(-1, 4)) @ phi_coeffs
        out += np.einsum("h,h,hg->g", quad.weights[sl], psi_grid[sl],
                         E.reshape(sl.stop - sl.start, quad.n_nodes))
    return out


def _group_convolution_rep_grid(psi_grid, phi_coeffs, pw, quad):
    """(Psi * Phi)(g) per irrep: D(g) paired with sqrt(d) Psihat C, where
    Psihat = int Psi(h) conj(D(h)) dh, from the irrep matrices at every
    node of quad."""
    out = np.zeros(quad.n_nodes, dtype=complex)
    wpsi = quad.weights * psi_grid
    for lab in pw.labels:
        D = rep_grid(quad, lab)
        d = D.shape[1]
        psihat = np.tensordot(wpsi, D.conj(), axes=(0, 0))
        B = math.sqrt(d) * psihat @ pw.block(lab, phi_coeffs)
        out += D.reshape(quad.n_nodes, d * d) @ B.ravel()
    return out


def test_group_convolution_rep_grid_oracle(swf_setup):
    quad, _, pwg = swf_setup
    coef = RNG.standard_normal(pwg.dim) + 1j * RNG.standard_normal(pwg.dim)
    coef2 = RNG.standard_normal(pwg.dim) + 1j * RNG.standard_normal(pwg.dim)
    psi = pwg.eval_basis(quad.quats) @ coef
    ref = _group_convolution_rep_grid(psi, coef2, pwg, quad)
    conv = O.group_convolution(psi, coef2, pwg, quad)
    assert np.abs(conv - ref).max() < 1e-13 * np.abs(ref).max()


def test_group_convolution_rejects_other_grid(swf_setup):
    quad, _, pwg = swf_setup
    other = G.su2_quadrature(quad.exactness_degree + 1)
    psi = np.ones(other.n_nodes, dtype=complex)
    with pytest.raises(ValueError, match="group_quadrature"):
        O.group_convolution(psi, np.ones(pwg.dim), pwg, other)


def test_group_convolution_nodes_oracle(swf_setup):
    quad, _, pwg = swf_setup
    coef = RNG.standard_normal(pwg.dim) + 1j * RNG.standard_normal(pwg.dim)
    coef2 = RNG.standard_normal(pwg.dim) + 1j * RNG.standard_normal(pwg.dim)
    psi = pwg.eval_basis(quad.quats) @ coef
    ref = _group_convolution_nodes(psi, coef2, pwg, quad)
    conv = O.group_convolution(psi, coef2, pwg, quad)
    assert np.abs(conv - ref).max() < 1e-12 * np.abs(ref).max()


def test_e_kernel_properties(swf_setup):
    quad, specs, _ = swf_setup
    spec = specs[2]
    E = _e_kernel_dense(spec, quad)
    # 1. conj E(g) = E(g^{-1})
    Dinv = wigner_D_euler_grid(spec.twoj,
                               *G.quat_to_euler(G.quat_inv(quad.quats)))
    D = _delta_field(spec)
    Einv = np.einsum("anm,kmn->ka", D, Dinv)
    assert np.abs(E.conj() - Einv).max() < 1e-12
    # 2. covariance under conjugation
    h = G.quat_normalize(np.array([0.6, 0.2, -0.3, 0.71]))
    Dh = wigner_D_euler_grid(spec.twoj, *G.quat_to_euler(h[None]))[0]
    g1 = quad.quats[57]
    Dg = wigner_D_euler_grid(spec.twoj, *G.quat_to_euler(g1[None]))[0]
    Dconj = wigner_D_euler_grid(spec.twoj, *G.quat_to_euler(
        G.quat_mul(G.quat_mul(h, g1), G.quat_inv(h))[None]))[0]
    lhs = np.einsum("anm,mn->a", D, Dconj)
    rhs = np.einsum("anm,mn->a", D, Dh @ Dg @ Dh.conj().T)
    assert np.abs(lhs - rhs).max() < 1e-12
    # 3. int E dmu = chi
    chi = np.einsum("kmm->k", rep_grid(quad, spec.twoj + 1))
    assert np.abs(E @ spec.weights - chi).max() < 1e-12
    # 4. int_G E(g,th) conj(E(g,th')) dg = d^{-1} tr(Delta(th) Delta(th'))
    lhs4 = np.einsum("k,ka,kb->ab", quad.weights, E, E.conj())
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
    E = _e_kernel_dense(spec, quad)
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
    D = _delta_field(spec)
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
    chi = np.einsum("kmm->k", rep_grid(quad, 2))  # character of n = 2
    tr = O.swf_transform(chi, quad, specs)
    assert np.abs(tr[0]).max() < 1e-12
    assert np.abs(tr[2]).max() < 1e-12
    # F_SW[chi_pi](pi, .) = W of 1/d = 1/d
    assert np.abs(tr[1] - 0.5).max() < 1e-12


def momentum_scaled_label(twoj, k):
    """Orbit label 2(j/eps) of the momentum-scaled transform, eps = 1/k.

    The scaling convention keeps scaled weights on the integer-spin
    sub-lattice: eps^{-1} j must be an integer unless eps = 1 (the identity
    relabeling), otherwise the label is rejected.
    """
    if k < 1 or int(k) != k:
        raise ValueError("eps must be 1/k with integer k >= 1")
    if k == 1:
        return twoj
    if (k * twoj) % 2:
        raise ValueError(
            "scaled weight %g/2 leaves the eps-sub-lattice of integer spins"
            % (k * twoj))
    return k * twoj


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
        momentum_scaled_label(1, 3)
    assert momentum_scaled_label(1, 2) == 2
    assert momentum_scaled_label(2, 3) == 6


def _cartan_power_residual(twoj, k, quat):
    """| <v_{k lam}, pi_{k lam}(g) v_{k lam}> - <v_lam, pi_lam(g) v_lam>^k |."""
    a, b, c = G.quat_to_euler(np.atleast_2d(quat))
    lhs = wigner_D_euler_grid(k * twoj, a, b, c)[0, 0, 0]
    rhs = wigner_D_euler_grid(twoj, a, b, c)[0, 0, 0] ** k
    return abs(lhs - rhs)


def test_cartan_power_residual():
    for _ in range(5):
        q = G.quat_normalize(RNG.standard_normal(4))
        assert _cartan_power_residual(1, 4, q) < 1e-12
        assert _cartan_power_residual(2, 3, q) < 1e-12
        assert _cartan_power_residual(3, 1, q) == 0.0
    e = np.array([1.0, 0, 0, 0])
    assert _cartan_power_residual(2, 5, e) < 1e-14


def upper_symbol_from_lower(spec, L_field):
    """U_A with K U_A = L_A, by harmonic rescaling with k_l^{-1}."""
    return spec.rescale_harmonics(L_field, 1.0 / spec.k_l)


def test_berezin(spec):
    ones = np.ones(spec.n_nodes)
    assert np.abs(O.berezin_quantize(spec, ones) - np.eye(spec.d)).max() \
        < 1e-12
    f = spec.harmonics(min(2, spec.twoj))[:, 1] * 0.7 + 0.2
    assert O.berezin_sw_residual(spec, f) < 1e-10
    # upper/lower duality
    A, B = rand_mat(spec.d), rand_mat(spec.d)
    LA, LB = O.lower_symbol(spec, A), O.lower_symbol(spec, B)
    UA = upper_symbol_from_lower(spec, LA)
    tr = np.trace(A.conj().T @ B)
    assert abs(tr - np.sum(spec.weights * UA.conj() * LB)) < 1e-9 * abs(tr)


def test_k_rate_slope():
    slope = O.k_rate_slope([8, 16, 32, 64])  # j in {4, 8, 16, 32}
    assert abs(slope - 1.0) < 0.2
