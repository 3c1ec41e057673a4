"""Global KN/Weyl matrix-symbol calculus and the local epsilon-scaled one."""

import math

import numpy as np
import pytest

from groupquant import groups as G
from groupquant import localcalc as L
from groupquant import symbols as S
from groupquant.peterweyl import PWSpace
from groupquant.wigner import su2_generator

RNG = np.random.default_rng(77)


@pytest.fixture(scope="module")
def u1_spaces():
    gpw = S.make_g_space(G.U1, 4, quad_degree=40)
    pw = PWSpace(G.U1, 16, quad_degree=50)
    return gpw, pw


@pytest.fixture(scope="module")
def su2_spaces():
    gpw = S.make_g_space(G.SU2, 2, quad_degree=5)
    pw = PWSpace(G.SU2, 8, quad_degree=9)
    return gpw, pw


def test_identity_symbol(u1_spaces):
    gpw, pw = u1_spaces
    sym = S.identity_symbol(G.U1, 6, gpw)
    op = S.kn_quantize(sym, pw)
    mask = pw.band_mask(6)
    assert np.abs(op.matrix[:, mask] - np.eye(pw.dim)[:, mask]).max() < 1e-12
    assert op.truncation_error < 1e-12


def test_function_and_momentum_symbols(u1_spaces):
    gpw, pw = u1_spaces
    mask = pw.band_mask(6)
    coef = RNG.standard_normal(gpw.dim) + 1j * RNG.standard_normal(gpw.dim)
    symf = S.function_symbol(G.U1, 6, gpw, gpw.synthesis(coef))
    opf = S.kn_quantize(symf, pw)
    mult = pw.multiplication_operator(gpw.eval_basis(pw.quad.angles) @ coef)
    assert np.abs((opf.matrix - mult)[:, mask]).max() < 1e-12
    symp = S.momentum_symbol(G.U1, 6, gpw, 0.25)
    opp = S.kn_quantize(symp, pw)
    assert np.abs((opp.matrix + 1j * 0.25 * pw.right_derivative())
                  [:, mask]).max() < 1e-12


def test_commutator_symbol(u1_spaces):
    # sigma of [P_X, f] is -i eps (R_X f) 1
    gpw, pw = u1_spaces
    eps = 0.5
    coef = RNG.standard_normal(gpw.dim) + 1j * RNG.standard_normal(gpw.dim)
    f_pw = gpw.eval_basis(pw.quad.angles) @ coef
    Mf = pw.multiplication_operator(f_pw)
    P = -1j * eps * pw.right_derivative()
    comm = S.TruncatedOperator(pw, P @ Mf - Mf @ P)
    sig = S.kn_symbol(comm, 4, gpw)
    Rf = gpw.synthesis(gpw.right_derivative() @ coef)
    for lab, v in sig.values.items():
        assert np.abs(v[:, 0, 0] - (-1j * eps) * Rf).max() < 1e-10


def _roundtrip(group, gpw, pw, pi_band):
    sym = S.random_symbol(group, pi_band, gpw, RNG)
    op = S.kn_quantize(sym, pw)
    back = S.kn_symbol(op, pi_band, gpw)
    return back.max_abs_diff(sym), back.projection_residual


def test_roundtrip_u1(u1_spaces):
    gpw, pw = u1_spaces
    d, p = _roundtrip(G.U1, gpw, pw, 6)
    assert d < 1e-10 and p < 1e-10


def test_roundtrip_su2(su2_spaces):
    gpw, pw = su2_spaces
    d, p = _roundtrip(G.SU2, gpw, pw, 4)
    assert d < 1e-10 and p < 1e-10


def _compose_check(group, gpw, pw, pi_band, h_quad, g2):
    sa = S.random_symbol(group, pi_band, gpw, RNG)
    sb = S.random_symbol(group, pi_band, gpw, RNG)
    comp = S.kn_compose(sa, sb, h_quad)
    A = S.kn_quantize(sa, pw).matrix
    B = S.kn_quantize(sb, pw).matrix
    oracle = S.kn_symbol(S.TruncatedOperator(pw, A @ B), pi_band, g2)
    worst = 0.0
    for lab in comp.values:
        o = oracle.values_at_quad(lab, comp.quad)
        worst = max(worst, np.abs(o - comp.values[lab]).max())
    return worst


def test_compose_oracle_u1(u1_spaces):
    gpw, pw = u1_spaces
    h_quad = G.u1_quadrature(16)
    g2 = S.make_g_space(G.U1, 8, quad_degree=40)
    assert _compose_check(G.U1, gpw, pw, 6, h_quad, g2) < 1e-9


def test_compose_oracle_su2(su2_spaces):
    gpw, pw = su2_spaces
    h_quad = G.su2_quadrature(5)
    g2 = S.make_g_space(G.SU2, 3, quad_degree=6)
    assert _compose_check(G.SU2, gpw, pw, 4, h_quad, g2) < 1e-9


def test_compose_elementary_su2(su2_spaces):
    gpw, pw = su2_spaces
    h_quad = G.su2_quadrature(5)
    eps = 0.5
    sx = S.momentum_symbol(G.SU2, 4, gpw, eps, direction=0)
    sy = S.momentum_symbol(G.SU2, 4, gpw, eps, direction=1)
    cc = S.kn_compose(sx, sy, h_quad)
    for lab, v in cc.values.items():
        expect = (1j * eps) ** 2 * (su2_generator(lab - 1, 0)
                                    @ su2_generator(lab - 1, 1))
        assert np.abs(v - expect).max() < 1e-12
    # sigma_f sigma_f' = f f' identity (constant test functions)
    c1 = np.zeros(gpw.dim, complex)
    c1[0] = 1.7
    f1 = gpw.synthesis(c1)
    sf = S.function_symbol(G.SU2, 4, gpw, f1)
    cc2 = S.kn_compose(sf, sf, h_quad)
    for lab, v in cc2.values.items():
        d = G.dim(G.SU2, lab)
        expect = (f1 ** 2)[:, None, None] * np.eye(d)
        assert np.abs(v - expect).max() < 1e-10


def test_left_right_covariance_su2(su2_spaces):
    gpw, pw = su2_spaces
    sym = S.random_symbol(G.SU2, 4, gpw, RNG)
    op = S.kn_quantize(sym, pw)
    h = G.GroupElement.su2(G.quat_normalize([0.3, -0.2, 0.5, 0.9]))
    Uh = pw.left_translation(h)
    sig_c = S.kn_symbol(S.TruncatedOperator(
        pw, Uh @ op.matrix @ Uh.conj().T), 4, gpw)
    hq_inv = G.quat_inv(np.array(h.quat))
    E_sh = gpw.eval_basis(G.quat_mul(hq_inv[None, :], gpw.quad.quats))
    worst = 0.0
    for lab in sig_c.values:
        Dh = G.rep_matrix(G.SU2, lab, h)
        shifted = np.tensordot(E_sh, sym.coefficients(lab), axes=(1, 0))
        expect = np.einsum("mn,knp,pq->kmq", Dh, shifted, Dh.conj().T)
        worst = max(worst, np.abs(sig_c.values[lab] - expect).max())
    assert worst < 1e-10
    URh = pw.right_translation(h)
    sig_r = S.kn_symbol(S.TruncatedOperator(
        pw, URh @ op.matrix @ URh.conj().T), 4, gpw)
    E_sh2 = gpw.eval_basis(G.quat_mul(gpw.quad.quats,
                                      np.array(h.quat)[None, :]))
    worst = 0.0
    for lab in sig_r.values:
        expect = np.tensordot(E_sh2, sym.coefficients(lab), axes=(1, 0))
        worst = max(worst, np.abs(sig_r.values[lab] - expect).max())
    assert worst < 1e-10


def test_adjoint_property_su2(su2_spaces):
    # sigma_{A*}(pi, g) = [ int dh F_A(h, h g) pi(h) ]^dagger
    gpw, pw = su2_spaces
    sym = S.random_symbol(G.SU2, 3, gpw, RNG)
    op = S.kn_quantize(sym, pw)
    sig_star = S.kn_symbol(S.TruncatedOperator(pw, op.matrix.conj().T),
                           3, gpw)
    h_quad = G.su2_quadrature(6)
    gq = gpw.quad
    # F_A(h, hg) with F_A from the band-limited symbol of A
    pts = G.quat_mul(h_quad.quats[:, None, :], gq.quats[None, :, :])
    worst = 0.0
    FA_shift = np.zeros((h_quad.n_nodes, gq.n_nodes), dtype=complex)
    E_sh = gpw.eval_basis(pts.reshape(-1, 4))
    for lab in sym.values:
        d = G.dim(G.SU2, lab)
        Dh = h_quad.rep_grid(lab)
        coef = sym.coefficients(lab)
        vals = np.tensordot(E_sh, coef, axes=(1, 0)).reshape(
            h_quad.n_nodes, gq.n_nodes, d, d)
        FA_shift += d * np.einsum("hnm,hgnm->hg", Dh.conj(), vals,
                                  optimize=True)
    for lab in sig_star.values:
        Dh = h_quad.rep_grid(lab)
        rhs = np.einsum("h,hg,hmn->gmn", h_quad.weights, FA_shift, Dh,
                        optimize=True)
        rhs = np.conj(np.swapaxes(rhs, 1, 2))
        lhs = sig_star.values_at_quad(lab, gq)
        worst = max(worst, np.abs(lhs - rhs).max())
    assert worst < 1e-9


def test_hs_pairing(su2_spaces):
    gpw, pw = su2_spaces
    sa = S.random_symbol(G.SU2, 4, gpw, RNG)
    sb = S.random_symbol(G.SU2, 4, gpw, RNG)
    A = S.kn_quantize(sa, pw).matrix
    B = S.kn_quantize(sb, pw).matrix
    hs_op = np.einsum("ij,ij->", A.conj(), B)
    hs_sym = 0.0
    for lab in sa.values:
        d = G.dim(G.SU2, lab)
        hs_sym += d * np.einsum("k,kmn,kmn->", sa.quad.weights,
                                sa.values[lab].conj(), sb.values[lab])
    assert abs(hs_op - hs_sym) < 1e-10 * abs(hs_op)


def test_symbol_json_roundtrip(su2_spaces):
    gpw, _ = su2_spaces
    sym = S.random_symbol(G.SU2, 3, gpw, RNG)
    text = S.symbol_to_json(sym)
    back = S.symbol_from_json(text)
    for lab in sym.values:
        assert np.array_equal(sym.values[lab], back.values[lab])  # bit exact
    assert S.symbol_to_json(back) == text


# ---------------------------------------------------------------------------
# Weyl deformation (global)
# ---------------------------------------------------------------------------

def gaussian_profile_symbol(gpw, pi_band, s, rng, kmax=3):
    """Smooth-profile symbol whose right kernel avoids the branch locus:
    e^{-s C_pi} sum_k a_k x_pi^k u_k(g) 1_pi with C_pi the Casimir and
    x_pi = j on U(1), x_pi = C_pi on SU(2)."""
    group = gpw.group
    us = [gpw.synthesis(rng.standard_normal(gpw.dim)
                        + 1j * rng.standard_normal(gpw.dim))
          for _ in range(kmax + 1)]
    a = rng.standard_normal(kmax + 1)
    vals = {}
    for lab in G.irrep_labels(group, pi_band):
        lam = G.casimir(group, lab)
        x = lab if group == G.U1 else lam
        prof = math.exp(-s * lam) * sum(a[k] * (x ** k) * us[k]
                                        for k in range(kmax + 1))
        vals[lab] = prof[:, None, None] * np.eye(G.dim(group, lab))
    return S.MatrixSymbol(group, pi_band, gpw, vals)


@pytest.fixture(scope="module")
def weyl_u1():
    gpw = S.make_g_space(G.U1, 4, quad_degree=40)
    pw = PWSpace(G.U1, 28, quad_degree=80)
    hq = G.u1_quadrature(130)
    return gpw, pw, hq


def test_weyl_reality_u1(weyl_u1):
    gpw, pw, hq = weyl_u1
    rng = np.random.default_rng(12)
    for _ in range(5):
        sym = gaussian_profile_symbol(gpw, 24, 0.07, rng)
        op = S.kernel_quantize(S.weyl_deform(sym, hq), pw, hq)
        opc = S.kernel_quantize(S.weyl_deform(sym.adjoint(), hq), pw, hq)
        scale = np.abs(op.matrix).max()
        assert np.abs(op.matrix.conj().T - opc.matrix).max() < 1e-9 * scale


def test_weyl_hermitian_symbol(weyl_u1):
    gpw, pw, hq = weyl_u1
    rng = np.random.default_rng(13)
    sym = gaussian_profile_symbol(gpw, 24, 0.07, rng)
    vals = {j: (v + np.conj(v)) / 2 for j, v in sym.values.items()}
    symh = S.MatrixSymbol(G.U1, 24, gpw, vals)
    op = S.kernel_quantize(S.weyl_deform(symh, hq), pw, hq).matrix
    assert np.abs(op - op.conj().T).max() < 1e-9 * np.abs(op).max()


def test_weyl_symbol_roundtrip(weyl_u1):
    gpw, pw, hq = weyl_u1
    rng = np.random.default_rng(14)
    sym = gaussian_profile_symbol(gpw, 24, 0.07, rng)
    op = S.kernel_quantize(S.weyl_deform(sym, hq), pw, hq)
    back = S.weyl_symbol(op, 24, gpw, hq)
    scale = max(np.abs(sym.values[j]).max() for j in sym.values)
    assert back.max_abs_diff(sym) < 1e-9 * scale
    # band-limited operator: nothing drops outside the g-band, also at the
    # labels where the symbol is rounding noise
    assert back.projection_residual < 1e-12


def test_weyl_branch_rejection(weyl_u1):
    gpw, pw, hq = weyl_u1
    rng = np.random.default_rng(15)
    vals = {}
    for j in range(-24, 25):
        c = rng.standard_normal(gpw.dim) + 1j * rng.standard_normal(gpw.dim)
        vals[j] = math.exp(-0.07 * j * j) * gpw.synthesis(c)[:, None, None]
    bad = S.MatrixSymbol(G.U1, 24, gpw, vals)
    with pytest.raises(S.BranchLocusError):
        S.weyl_deform(bad, hq)


# Brute-force oracles for the Weyl routes: an h-quadrature of the left
# kernel, and the operator's Schwartz kernel K_A(x, y) = sum e_i(y) A_ij
# conj(e_j(x)) read at shifted grid points. Both avoid the KN identities
# the library uses; they run over chunks of h nodes to bound memory.

_H_CHUNK = 64


def _h_chunks(h_quad):
    for start in range(0, h_quad.n_nodes, _H_CHUNK):
        yield slice(start, min(start + _H_CHUNK, h_quad.n_nodes))


def _inverse(group, a):
    return -a if group == G.U1 else G.quat_inv(a)


def _times_grid(group, a, gq):
    """The points a_k g for elements a_k and every node g of gq, k-major."""
    if group == G.U1:
        return (a[:, None] + gq.angles[None, :]).ravel()
    return G.quat_mul(a[:, None, :], gq.quats[None, :, :]).reshape(-1, 4)


def _schwartz_kernel(op, xs, ys):
    """K_A(x_p, y_p) at point pairs."""
    Ex = op.pw.eval_basis(xs)
    Ey = op.pw.eval_basis(ys)
    return np.einsum("pi,ij,pj->p", Ey, op.matrix, Ex.conj(), optimize=True)


def _kernel_quantize_oracle(kern, pw, h_quad):
    """rho_L(F) as (A Psi)(g) = int dh F(h, g) Psi(h^{-1} g) by quadrature."""
    group, gq = kern.group, kern.g_pw.quad
    F = sum(G.dim(group, lab) * np.einsum("hnm,gnm->hg",
                                          h_quad.rep_grid(lab).conj(), Kv)
            for lab, Kv in kern.K.items())
    h_inv = _inverse(group, h_quad.angles if group == G.U1 else h_quad.quats)
    out_vals = np.zeros((gq.n_nodes, pw.dim), dtype=complex)
    for sl in _h_chunks(h_quad):
        shift = pw.eval_basis(_times_grid(group, h_inv[sl], gq))
        out_vals += np.einsum("h,hg,hgi->gi", h_quad.weights[sl], F[sl],
                              shift.reshape(F[sl].shape + (pw.dim,)))
    E = pw.eval_basis(gq.angles if group == G.U1 else gq.quats)
    return (E.conj() * gq.weights[:, None]).T @ out_vals


def _left_kernel_oracle(op, h_quad, gq):
    """F_A(h, g) = K_A(h^{-1} g, g) on the double grid."""
    group = op.pw.group
    g_pts = gq.angles if group == G.U1 else gq.quats
    h_inv = _inverse(group, h_quad.angles if group == G.U1 else h_quad.quats)
    out = np.zeros((h_quad.n_nodes, gq.n_nodes), dtype=complex)
    for sl in _h_chunks(h_quad):
        n = sl.stop - sl.start
        ys = np.concatenate([g_pts] * n)
        out[sl] = _schwartz_kernel(op, _times_grid(group, h_inv[sl], gq),
                                   ys).reshape(n, gq.n_nodes)
    return out


def _weyl_symbol_oracle(op, pi_band, g_pw, h_quad):
    """sigma^W_A(pi, g) = int dh K_A(sqrt(h)^{-1} g, sqrt(h) g) pi(h)."""
    group, gq = op.pw.group, g_pw.quad
    roots = S.sqrt_elements(group, h_quad)
    vals = np.zeros((h_quad.n_nodes, gq.n_nodes), dtype=complex)
    for sl in _h_chunks(h_quad):
        r = roots[sl]
        vals[sl] = _schwartz_kernel(
            op, _times_grid(group, _inverse(group, r), gq),
            _times_grid(group, r, gq)).reshape(len(r), gq.n_nodes)
    return {lab: np.einsum("h,hg,hmn->gmn", h_quad.weights, vals,
                           h_quad.rep_grid(lab), optimize=True)
            for lab in G.irrep_labels(group, pi_band)}


def _max_rel(a, b):
    """max |a - b| / max |a| over arrays or over the values of two dicts."""
    if isinstance(a, dict):
        return (max(np.abs(a[k] - b[k]).max() for k in a)
                / max(np.abs(v).max() for v in a.values()))
    return np.abs(a - b).max() / np.abs(a).max()


@pytest.mark.parametrize("group", [G.U1, G.SU2])
def test_weyl_routes_match_oracles(group, request):
    rng = np.random.default_rng(16)
    if group == G.U1:
        gpw, pw, hq = request.getfixturevalue("weyl_u1")
        pi_band, s = 24, 0.07
    else:
        gpw = S.make_g_space(G.SU2, 2, quad_degree=6)
        pw = PWSpace(G.SU2, 3, quad_degree=6)
        hq = G.su2_quadrature(6)
        pi_band, s = 3, 0.3
    sym = gaussian_profile_symbol(gpw, pi_band, s, rng)
    kern = S.weyl_deform(sym, hq)
    op = S.kernel_quantize(kern, pw, hq)
    assert _max_rel(op.matrix, _kernel_quantize_oracle(kern, pw, hq)) < 1e-12
    # the branch check reads F_A off the KN symbol over the operator band
    F_A = S.kernel_values(S.kn_symbol(op, pw.band, gpw), hq)
    assert _max_rel(_left_kernel_oracle(op, hq, gpw.quad), F_A) < 1e-12
    back = S.weyl_symbol(op, pi_band, gpw, hq)
    oracle = _weyl_symbol_oracle(op, pi_band, gpw, hq)
    assert _max_rel(oracle, back.values) < 1e-12


def test_weyl_element_orthogonality_u1():
    # discretized delta-pattern d^{-1} delta_{jj'} delta_h(h') on the cyclic
    # N-point model (modes mod N, h on the matching uniform grid):
    # tr(op(W_{j;h})^* op(W_{j';h'})) = N delta_{jj'} delta_{hh'}
    J = 6
    N = 2 * J + 1
    phis = 2 * math.pi * np.arange(N) / N
    js = np.arange(-J, J + 1)

    def weyl_element(j, phi_h):
        # (rho(F^W(j;h)) Psi)(g) = e^{i j (phi - phi_h/2)} Psi(phi - phi_h)
        A = np.zeros((N, N), dtype=complex)
        for col, j0 in enumerate(js):
            row = (col + j) % N
            A[row, col] = np.exp(-1j * phi_h * (j / 2.0 + j0))
        return A

    for (j1, h1, j2, h2) in [(2, 1, 2, 1), (2, 1, 2, 3), (2, 1, 3, 1),
                             (-1, 0, -1, 0), (0, 2, 0, 5), (3, 4, 3, 4)]:
        A = weyl_element(j1, phis[h1])
        B = weyl_element(j2, phis[h2])
        tr = np.einsum("ij,ij->", A.conj(), B)
        expect = N if (j1 == j2 and h1 == h2) else 0.0
        assert abs(tr - expect) < 1e-10


# ---------------------------------------------------------------------------
# local calculus
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def local_u1():
    gpw = S.make_g_space(G.U1, 3, quad_degree=30)
    pw = PWSpace(G.U1, 24, quad_degree=60)
    return gpw, pw


def test_local_elementary(local_u1):
    gpw, pw = local_u1
    fc = RNG.standard_normal(gpw.dim) + 1j * RNG.standard_normal(gpw.dim)
    sf = L.LocalSymbol(G.U1, 0.5, np.array([0]), fc[None, :], gpw)
    Qf = L.local_quantize(sf, 0.25, pw, L.KN)
    QfW = L.local_quantize(sf, 0.25, pw, L.WEYL)
    Mf = pw.multiplication_operator(gpw.eval_basis(pw.quad.angles) @ fc)
    assert np.abs(Qf - Mf).max() < 1e-12
    assert np.abs(Qf - QfW).max() < 1e-14  # Weyl == KN for theta-free symbols
    qc = gpw.analysis(np.ones(gpw.quad.n_nodes, complex))
    sx = L.LocalSymbol(G.U1, 0.5, np.array([0]),
                       np.zeros((1, gpw.dim), complex), gpw, {0: qc})
    Qx = L.local_quantize(sx, 0.25, pw, L.KN)
    QxW = L.local_quantize(sx, 0.25, pw, L.WEYL)
    assert np.abs(Qx + 1j * 0.25 * pw.right_derivative()).max() < 1e-13
    assert np.abs(Qx - QxW).max() < 1e-14  # constant coefficient: R q = 0


def test_local_elementary_su2():
    gpw = S.make_g_space(G.SU2, 2, quad_degree=5)
    pw = PWSpace(G.SU2, 5, quad_degree=7)
    fc = RNG.standard_normal(gpw.dim) + 1j * RNG.standard_normal(gpw.dim)
    zero = np.zeros((1, 3), int)
    sf = L.LocalSymbol(G.SU2, 0.5, zero, fc[None, :], gpw)
    Qf = L.local_quantize(sf, 0.5, pw, L.KN)
    Mf = pw.multiplication_operator(gpw.eval_basis(pw.quad.quats) @ fc)
    assert np.abs(Qf - Mf).max() < 1e-12
    assert np.abs(Qf - L.local_quantize(sf, 0.5, pw, L.WEYL)).max() < 1e-14
    qc = gpw.analysis(np.ones(gpw.quad.n_nodes, complex))
    for k in range(3):
        sx = L.LocalSymbol(G.SU2, 0.5, zero,
                           np.zeros((1, gpw.dim), complex), gpw, {k: qc})
        Qx = L.local_quantize(sx, 0.5, pw, L.KN)
        assert np.abs(Qx + 1j * 0.5 * pw.right_derivative(k)).max() < 1e-12
        QxW = L.local_quantize(sx, 0.5, pw, L.WEYL)
        assert np.abs(Qx - QxW).max() < 1e-13


def test_poisson_bracket_identities(local_u1):
    gpw, pw = local_u1
    gout = S.make_g_space(G.U1, 6, quad_degree=30)
    eps = 0.25
    fc = RNG.standard_normal(gpw.dim) + 1j * RNG.standard_normal(gpw.dim)
    sf = L.LocalSymbol(G.U1, 0.5, np.array([0]), fc[None, :], gpw)
    qc = gpw.analysis(np.ones(gpw.quad.n_nodes, complex))
    sx = L.LocalSymbol(G.U1, 0.5, np.array([0]),
                       np.zeros((1, gpw.dim), complex), gpw, {0: qc})
    # {sigma_X, sigma_f} = R_X f
    br = L.poisson_bracket(sx, sf, gout)
    Qbr = L.local_quantize(br, eps, pw, L.KN)
    Rf = pw.multiplication_operator(
        gpw.eval_basis(pw.quad.angles) @ (gpw.right_derivative() @ fc))
    mask = pw.band_mask(18)
    assert np.abs((Qbr - Rf)[:, mask]).max() < 1e-11
    # {sigma, sigma} = 0
    pts = np.arange(-2, 3)
    cs = RNG.standard_normal((5, gpw.dim)) + 1j * RNG.standard_normal(
        (5, gpw.dim))
    s1 = L.LocalSymbol(G.U1, 0.4, pts, cs, gpw)
    z = L.poisson_bracket(s1, s1, gout)
    assert np.abs(z.coeffs).max() < 1e-12


def test_poisson_bracket_lie_part_su2():
    gpw = S.make_g_space(G.SU2, 1, quad_degree=4)
    gout = S.make_g_space(G.SU2, 2, quad_degree=5)
    qc = gpw.analysis(np.ones(gpw.quad.n_nodes, complex))
    zero = np.zeros((1, 3), int)
    zvals = np.zeros((1, gpw.dim), complex)
    sx = L.LocalSymbol(G.SU2, 0.5, zero, zvals, gpw, {0: qc})
    sy = L.LocalSymbol(G.SU2, 0.5, zero, zvals, gpw, {1: qc})
    br = L.poisson_bracket(sx, sy, gout)
    # {theta_x, theta_y} = -theta([tau_x, tau_y]) = -theta_z
    assert set(br.poly) == {2}
    ones = gout.synthesis(br.poly[2])
    assert np.abs(ones + 1.0).max() < 1e-12
    # quantized Dirac identity: (i/eps)[Qx, Qy] = Q({x,y}) exactly
    pw = PWSpace(G.SU2, 5, quad_degree=7)
    eps = 0.5
    Qx = L.local_quantize(sx, eps, pw, L.KN)
    Qy = L.local_quantize(sy, eps, pw, L.KN)
    Qbr = L.local_quantize(br, eps, pw, L.KN)
    mask = pw.band_mask(4)
    resid = ((1j / eps) * (Qx @ Qy - Qy @ Qx) - Qbr)[:, mask]
    assert np.abs(resid).max() < 1e-12


def test_kernel_cutoff(local_u1):
    gpw, pw = local_u1
    pts = np.arange(-2, 3)
    cs = RNG.standard_normal((5, gpw.dim)) + 1j * RNG.standard_normal(
        (5, gpw.dim))
    qc = gpw.analysis(np.ones(gpw.quad.n_nodes, complex))
    s = L.LocalSymbol(G.U1, 0.4, pts, cs, gpw, {0: qc})
    out = L.kernel_cutoff(lambda y: 1.0, s)
    assert np.abs(out.coeffs - s.coeffs).max() == 0.0
    assert np.abs(out.poly[0] - s.poly[0]).max() == 0.0
    # phi = 1 + c Y: H(phi) sigma = sigma + c i d_theta sigma
    c = 0.37
    out2 = L.kernel_cutoff(lambda y: 1.0 + c * y, s, dphi0={0: c})
    expect = L.symbol_add(s, L.theta_derivative(s, 0).scaled(1j * c))
    Qo = L.local_quantize(out2, 0.25, pw, L.KN)
    Qe = L.local_quantize(expect, 0.25, pw, L.KN)
    assert np.abs(Qo - Qe).max() < 1e-12
    # phi(0) = 0 and flat at 0 suppresses the frequency-zero mass
    out3 = L.kernel_cutoff(lambda y: 0.0 if abs(y) < 1e-12 else 1.0, s,
                           dphi0={0: 0.0})
    i0 = [i for i, p in enumerate(out3.points) if p == 0][0]
    assert np.abs(out3.coeffs[i0]).max() == 0.0
    if 0 in out3.poly:
        assert np.abs(out3.poly[0]).max() == 0.0


def test_scaling_consistency(local_u1):
    gpw, pw = local_u1
    pts = np.arange(-2, 3)
    cs = RNG.standard_normal((5, gpw.dim)) + 1j * RNG.standard_normal(
        (5, gpw.dim))
    s1 = L.LocalSymbol(G.U1, 0.4, pts, cs, gpw)
    s2 = L.LocalSymbol(G.U1, 0.4, 2 * pts, cs, gpw)  # sigma(2 theta)
    for variant in (L.KN, L.WEYL):
        Q1 = L.local_quantize(s1, 0.5, pw, variant)
        Q2 = L.local_quantize(s2, 0.25, pw, variant)
        assert np.abs(Q1 - Q2).max() < 1e-13


def test_support_invariant():
    gpw = S.make_g_space(G.U1, 1, quad_degree=10)
    with pytest.raises(L.SymbolClassError):
        L.LocalSymbol(G.U1, 1.0, np.array([4]),
                      np.ones((1, gpw.dim), complex), gpw)


def test_midpoint_kernel():
    def bump(Y, phis):
        Y = np.asarray(Y)
        return np.exp(-Y ** 2 / 0.32) * (1 + 0.3 * np.cos(np.asarray(phis)))

    pwm = PWSpace(G.U1, 30, quad_degree=100)
    gsm = S.make_g_space(G.U1, 1, quad_degree=10)
    sym = L.u1_symbol_from_samples(bump, 0.05, 60, gsm)
    for eps in (0.25, 0.125):
        QW = L.local_quantize(sym, eps, pwm, L.WEYL)
        B = L.u1_midpoint_operator(bump, eps, pwm)
        assert np.abs(QW - B).max() < 1e-10 * np.abs(QW).max()


def test_semiclassical_slopes_u1():
    from groupquant.cli import moyal_fit_u1
    rng = np.random.default_rng(0)
    ms, ds, mres, dres = moyal_fit_u1(rng, [0.25, 0.125, 0.0625, 0.03125])
    assert abs(ms - 2.0) < 0.2
    assert abs(ds - 1.0) < 0.2
    assert all(mres[i + 1] < mres[i] for i in range(3))
    assert all(dres[i + 1] < dres[i] for i in range(3))


def test_von_neumann_symmetrized_identity(local_u1):
    # sigma = tau: the order-eps term vanishes identically ({s,s} = 0), so
    # Q(s)Q(s) - Q(s*s) is already O(eps^2)
    gpw, pw = local_u1
    gout = S.make_g_space(G.U1, 6, quad_degree=30)
    pts = np.arange(-2, 3)
    cs = RNG.standard_normal((5, gpw.dim)) + 1j * RNG.standard_normal(
        (5, gpw.dim))
    s = L.LocalSymbol(G.U1, 0.3, pts, cs, gpw)
    s = L.symbol_add(s.scaled(0.5), s.conjugated().scaled(0.5))
    br = L.poisson_bracket(s, s, gout)
    assert np.abs(br.coeffs).max() < 1e-12
    res = []
    for eps in (0.25, 0.125, 0.0625):
        Q = L.local_quantize(s, eps, pw, L.WEYL)
        Qss = L.local_quantize(L.symbol_product(s, s, gout), eps, pw, L.WEYL)
        mask = pw.band_mask(16)
        res.append(np.linalg.svd((Q @ Q - Qss)[:, mask],
                                 compute_uv=False)[0])
    slope = L.fit_slope([0.25, 0.125, 0.0625], res)
    assert slope > 1.7
