"""Global KN/Weyl matrix-symbol calculus and the local epsilon-scaled one."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from groupquant import groups as G
from groupquant import localcalc as L
from groupquant import orbits as O
from groupquant import symbols as S
from groupquant.peterweyl import PWSpace
from groupquant.wigner import su2_generator
from oracles import basis_matrix, pad, rep_grid, sub_rows

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
    mult = pw.multiplication_operator(gpw, coef[None])[0]
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
    Mf = pw.multiplication_operator(gpw, coef[None])[0]
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


@pytest.mark.parametrize("spaces,pi_band", [("u1_spaces", 6),
                                           ("su2_spaces", 4)])
def test_random_symbol_is_one_synthesis(spaces, pi_band, request,
                                        monkeypatch):
    # the same draws as a synthesis per label, made as one
    gpw = request.getfixturevalue(spaces)[0]
    rng = np.random.default_rng(pi_band)
    loop = {}
    for lab in G.irrep_labels(gpw.group, pi_band):
        shape = (gpw.dim,) + (gpw.group.dim(lab),) * 2
        loop[lab] = gpw.synthesis(rng.standard_normal(shape)
                                  + 1j * rng.standard_normal(shape))
    calls = []

    def spy(self, *args, _f=PWSpace.synthesis):
        calls.append(self)
        return _f(self, *args)
    monkeypatch.setattr(PWSpace, "synthesis", spy)
    sym = S.random_symbol(gpw.group, pi_band, gpw,
                          np.random.default_rng(pi_band))
    assert calls == [gpw]
    assert _max_rel(loop, sym.values) < 1e-14


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
        d = G.SU2.dim(lab)
        expect = (f1 ** 2)[:, None, None] * np.eye(d)
        assert np.abs(v - expect).max() < 1e-10


# Loop oracles for the two KN hot paths: the composition integral with
# sigma_B(pi, h^{-1} g) evaluated densely on the (h, g) double grid, over
# chunks of h nodes, and the quantization with every column evaluated,
# without the Schur support of Psihat.

def _eval_left_shifted(g_pw, coef, h_quad, h_slice, gq):
    """Values f(h^{-1} g) for PW coefficient data f, over (h in slice, g
    grid); coef (dim_g, d, d), result (n_h, N_g, d, d)."""
    group = g_pw.group
    n_h = h_slice.stop - h_slice.start
    out = np.zeros((n_h, gq.n_nodes) + coef.shape[1:], dtype=complex)
    for lab2 in g_pw.labels:
        d2 = group.dim(lab2)
        o = g_pw.offsets[lab2]
        c = coef[o:o + d2 * d2].reshape((d2, d2) + coef.shape[1:])
        Dh2 = rep_grid(h_quad, lab2)[h_slice]
        Dg2 = rep_grid(gq, lab2)
        out += math.sqrt(d2) * np.einsum("hca,gcb,ab...->hg...",
                                         Dh2.conj(), Dg2, c, optimize=True)
    return out


def _kn_compose_loop(sa, sb, h_quad):
    group, gq = sa.group, sa.quad
    wh = h_quad.weights
    FA = np.zeros((h_quad.n_nodes, gq.n_nodes), dtype=complex)
    for lab in sa.labels:
        FA += group.dim(lab) * np.einsum(
            "hnm,gnm->hg", rep_grid(h_quad, lab).conj(), sa.values[lab],
            optimize=True)
    out = {}
    pi_band = min(sa.pi_band, sb.pi_band)
    for lab in G.irrep_labels(group, pi_band):
        d = group.dim(lab)
        Dh = rep_grid(h_quad, lab)
        CB = sb.g_pw.analysis(sb.values[lab])
        acc = np.zeros((gq.n_nodes, d, d), dtype=complex)
        for sl in _h_chunks(h_quad):
            shift = _eval_left_shifted(sb.g_pw, CB, h_quad, sl, gq)
            acc += np.einsum("h,hg,hmn,hgnp->gmp", wh[sl], FA[sl],
                             Dh[sl], shift, optimize=True)
        out[lab] = acc
    return out


def _kn_quantize_all_columns(sym, pw):
    """(matrix, truncation_error) with every column of the operator built."""
    quad = pw.quad
    E_g = basis_matrix(sym.g_pw, quad)
    out_vals = np.zeros((pw.dim, quad.n_nodes), dtype=complex)
    for lab in sym.labels:
        D = rep_grid(quad, lab)
        psihat = pw.analysis(D.conj()).conj()
        sig = np.tensordot(E_g, sym.g_pw.analysis(sym.values[lab]),
                           axes=(1, 0))
        out_vals += sym.group.dim(lab) * np.einsum(
            "knm,knp,ipm->ik", D.conj(), sig, psihat, optimize=True)
    coeffs = pw.analysis(out_vals.T)
    resid = np.abs(out_vals.T - pw.synthesis(coeffs)).max()
    return coeffs, resid / max(np.abs(out_vals).max(), 1e-300)


@pytest.mark.parametrize("group,pi_band,g_bands,g_degrees,h_degree", [
    (G.U1, 6, (4, 4), (40, 40), 8),
    (G.U1, 6, (4, 4), (40, 40), 16),
    (G.SU2, 4, (2, 2), (5, 5), 5),
    (G.SU2, 4, (2, 2), (5, 5), 6),
    (G.U1, 6, (4, 7), (40, 30), 10),      # sa and sb on different g-spaces
    (G.SU2, 4, (2, 3), (5, 6), 5)])
def test_kn_compose_matches_loop(group, pi_band, g_bands, g_degrees,
                                 h_degree):
    rng = np.random.default_rng(h_degree)
    ga, gb = (S.make_g_space(group, b, quad_degree=q)
              for b, q in zip(g_bands, g_degrees))
    sa = S.random_symbol(group, pi_band, ga, rng)
    sb = S.random_symbol(group, pi_band, gb, rng)
    h_quad = G.group_quadrature(group, h_degree)
    comp = S.kn_compose(sa, sb, h_quad)
    assert comp.g_pw is ga and comp.pi_band == pi_band
    assert _max_rel(_kn_compose_loop(sa, sb, h_quad), comp.values) < 1e-12


@pytest.mark.parametrize("group,pi_band,g_band,g_degree,need", [
    (G.U1, 6, 4, 40, 8), (G.SU2, 4, 2, 5, 5)])
def test_kn_compose_rejects_inexact_h_quad(group, pi_band, g_band, g_degree,
                                           need):
    # one degree below the rule the loop oracle is off by O(10) absolute;
    # at the rule the result agrees with a finer h-grid to rounding
    rng = np.random.default_rng(need)
    gpw = S.make_g_space(group, g_band, quad_degree=g_degree)
    sa = S.random_symbol(group, pi_band, gpw, rng)
    sb = S.random_symbol(group, pi_band, gpw, rng)
    ref = S.kn_compose(sa, sb, G.group_quadrature(group, need + 3)).values
    low = G.group_quadrature(group, need - 1)
    with pytest.raises(ValueError, match="needs degree %d" % need):
        S.kn_compose(sa, sb, low)
    assert _max_rel(ref, _kn_compose_loop(sa, sb, low)) > 1e-3
    exact = G.group_quadrature(group, need)
    assert _max_rel(ref, S.kn_compose(sa, sb, exact).values) < 1e-12


@pytest.mark.parametrize("spaces,pi_band,h_degree", [
    ("u1_spaces", 6, 8), ("su2_spaces", 4, 5)])
def test_kn_compose_makes_no_rep_products(spaces, pi_band, h_degree,
                                          request, monkeypatch):
    # the composition oracle takes its h-side irreps from `_reps` at the
    # h nodes, not from the factor tables of the kn_quantize/kn_symbol
    # route that it checks
    gpw = request.getfixturevalue(spaces)[0]
    rng = np.random.default_rng(h_degree)
    sa, sb = (S.random_symbol(gpw.group, pi_band, gpw, rng) for _ in "ab")
    calls = []

    def spy(self, *args, _f=PWSpace._rep_products, **kwargs):
        calls.append(self)
        return _f(self, *args, **kwargs)
    monkeypatch.setattr(PWSpace, "_rep_products", spy)
    S.kn_compose(sa, sb, G.group_quadrature(gpw.group, h_degree))
    assert calls == []


@pytest.fixture(scope="module")
def su2_band3():
    return S.make_g_space(G.SU2, 2, quad_degree=5), PWSpace(G.SU2, 3)


# the last two put pi-labels above pw.band: they have no dual columns
@pytest.mark.parametrize("spaces,pi_band", [
    ("u1_spaces", 6), ("weyl_u1", 24), ("su2_spaces", 4), ("su2_spaces", 8),
    ("su2_band3", 5), ("u1_spaces", 18)])
def test_kn_quantize_matches_all_columns(spaces, pi_band, request):
    gpw, pw = request.getfixturevalue(spaces)[:2]
    sym = S.random_symbol(gpw.group, pi_band, gpw,
                          np.random.default_rng(pi_band))
    op = S.kn_quantize(sym, pw)
    matrix, trunc = _kn_quantize_all_columns(sym, pw)
    assert _max_rel(matrix, op.matrix) < 1e-12
    assert abs(op.truncation_error - trunc) < 1e-12
    assert not op.matrix[:, ~pw.band_mask(pi_band)].any()


@pytest.mark.parametrize("spaces,pi_band", [("u1_spaces", 6),
                                           ("su2_spaces", 4)])
def test_kn_quantize_rows_end_at_product_band(spaces, pi_band, request):
    # the cases above whose product band lies below pw.band: the oracle's
    # rows beyond it are rounding, so kn_quantize analyses up to it only
    gpw, pw = request.getfixturevalue(spaces)[:2]
    sym = S.random_symbol(gpw.group, pi_band, gpw,
                          np.random.default_rng(pi_band))
    reach = pw.group.product_band(pi_band, gpw.band)
    assert reach < pw.band
    matrix, _ = _kn_quantize_all_columns(sym, pw)
    out = ~pw.band_mask(reach)
    assert np.abs(matrix[out]).max() <= 1e-14 * np.abs(matrix).max()
    assert not S.kn_quantize(sym, pw).matrix[out].any()


@pytest.mark.parametrize("spaces,pi_band", [("weyl_u1", 24),
                                           ("su2_spaces", 4)])
def test_kn_transform_count_is_fixed(spaces, pi_band, request, monkeypatch):
    # every label goes into one stack: the transforms per call do not grow
    # with the number of labels
    gpw, pw = request.getfixturevalue(spaces)[:2]
    calls = {"analysis": 0, "synthesis": 0}
    for name in calls:
        def spy(self, *args, _f=getattr(PWSpace, name), _n=name):
            calls[_n] += 1
            return _f(self, *args)
        monkeypatch.setattr(PWSpace, name, spy)

    def counts(f, *args):
        calls.update(dict.fromkeys(calls, 0))
        f(*args)
        return dict(calls)

    rng = np.random.default_rng(pi_band)
    seen = []
    for band in (1, pi_band):
        sym = S.random_symbol(gpw.group, band, gpw, rng)
        op = S.kn_quantize(sym, pw)
        seen.append([counts(S.kn_quantize, sym, pw),
                     counts(S.kn_symbol, op, band, gpw)])
    assert seen[0] == seen[1]
    for c in seen[1]:
        assert c["analysis"] + c["synthesis"] == 4


def test_kn_round_trip_keeps_no_grid_matrices():
    # the irrep matrices on the operator's grid are built per label and
    # dropped: no cache of them outlives the calls (labels 1-9 at operator
    # band 10 would be 29 MB)
    gpw = S.make_g_space(G.SU2, 2, 4)
    pw = PWSpace(G.SU2, 10)
    sym = S.random_symbol(G.SU2, 9, gpw, np.random.default_rng(10))
    tracemalloc.start()
    try:
        op = S.kn_quantize(sym, pw)
        S.kn_symbol(op, 9, gpw)
        del op
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 5e6


def _kn_symbol_by_analysis(op, pi_band, g_pw):
    """(values, projection_residual) of kn_symbol with A applied to the
    analysed columns of pi^*, conj(D_nm) on the grid."""
    pw, quad = op.pw, op.pw.quad
    vals, resid, scale = {}, 0.0, 0.0
    for lab in G.irrep_labels(pw.group, pi_band):
        d = pw.group.dim(lab)
        D = rep_grid(quad, lab)
        F = np.conj(np.swapaxes(D, 1, 2)).reshape(quad.n_nodes, d * d)
        W = pw.synthesis(op.matrix @ pw.analysis(F))
        sig = np.einsum("kmn,knp->kmp", D, W.reshape(quad.n_nodes, d, d))
        coef = pw.analysis(sig)[sub_rows(pw, g_pw)]
        proj = pw.synthesis(pad(pw, g_pw, coef))
        resid = max(resid, np.abs(proj - sig).max())
        scale = max(scale, np.abs(sig).max())
        vals[lab] = g_pw.synthesis(coef)
    return vals, resid / scale


@pytest.mark.parametrize("spaces,pi_band", [
    ("u1_spaces", 6), ("u1_spaces", 16), ("su2_spaces", 4),
    ("su2_spaces", 8)])
def test_kn_symbol_matches_analysis_route(spaces, pi_band, request):
    # a random dense operator lies outside the band-limited calculus: the
    # projection drops most of its symbol, and both routes drop the same
    gpw, pw = request.getfixturevalue(spaces)
    rng = np.random.default_rng(pi_band)
    op = S.TruncatedOperator(pw, _crand(rng, pw.dim, pw.dim))
    sym = S.kn_symbol(op, pi_band, gpw)
    vals, resid = _kn_symbol_by_analysis(op, pi_band, gpw)
    assert sym.projection_residual > 0.1
    assert _max_rel(vals, sym.values) < 1e-12
    assert abs(sym.projection_residual - resid) < 1e-12


def test_left_right_covariance_su2(su2_spaces):
    gpw, pw = su2_spaces
    sym = S.random_symbol(G.SU2, 4, gpw, RNG)
    op = S.kn_quantize(sym, pw)
    h = G.GroupElement.su2(G.quat_normalize([0.3, -0.2, 0.5, 0.9]))
    # U_h as the local calculus applies it: kron(conj D(h), 1) blocks by
    # _kron_rows, which is (U_h Psi)(g) = Psi(h^{-1} g) at every node
    hq_inv = G.quat_inv(np.array(h.quat))
    Uh = _left_translation(pw, h.quat)
    c = _crand(np.random.default_rng(294), pw.dim)
    psi_sh = pw.eval_basis(G.quat_mul(hq_inv[None, :], pw.quad.quats)) @ c
    assert (np.abs(pw.eval_basis(pw.quad.quats) @ (Uh @ c) - psi_sh).max()
            < 1e-12 * np.abs(psi_sh).max())
    sig_c = S.kn_symbol(S.TruncatedOperator(
        pw, Uh @ op.matrix @ Uh.conj().T), 4, gpw)
    E_sh = gpw.eval_basis(G.quat_mul(hq_inv[None, :], gpw.quad.quats))
    worst = 0.0
    for lab in sig_c.values:
        Dh = G.rep_matrix(G.SU2, lab, h)
        shifted = np.tensordot(E_sh, sym.g_pw.analysis(sym.values[lab]),
                               axes=(1, 0))
        expect = np.einsum("mn,knp,pq->kmq", Dh, shifted, Dh.conj().T)
        worst = max(worst, np.abs(sig_c.values[lab] - expect).max())
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
        d = G.SU2.dim(lab)
        Dh = rep_grid(h_quad, lab)
        coef = sym.g_pw.analysis(sym.values[lab])
        vals = np.tensordot(E_sh, coef, axes=(1, 0)).reshape(
            h_quad.n_nodes, gq.n_nodes, d, d)
        FA_shift += d * np.einsum("hnm,hgnm->hg", Dh.conj(), vals,
                                  optimize=True)
    for lab in sig_star.values:
        Dh = rep_grid(h_quad, lab)
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
        d = G.SU2.dim(lab)
        hs_sym += d * np.einsum("k,kmn,kmn->", sa.quad.weights,
                                sa.values[lab].conj(), sb.values[lab])
    assert abs(hs_op - hs_sym) < 1e-10 * abs(hs_op)


# ---------------------------------------------------------------------------
# Weyl deformation (global)
# ---------------------------------------------------------------------------

def gaussian_profile_symbol(gpw, pi_band, s, rng, kmax=3):
    """Smooth-profile symbol e^{-s C_pi} sum_k a_k x_pi^k u_k(g) 1_pi with
    C_pi the Casimir and x_pi = j on U(1), x_pi = C_pi on SU(2). The profile
    does not keep the right kernel off the branch locus: on SU(2) (seed 16,
    g-band 2, pi-band 3, s = 0.3) branch_mass reads 0 on the h-grids of
    degree 6 and 8, which have no node within its margin, but 1.3e-2 at
    degree 10 and 5.3e-3 at degree 14."""
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
        vals[lab] = prof[:, None, None] * np.eye(group.dim(lab))
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
    op = S.weyl_quantize(sym, pw, hq)
    assert _max_rel(S.kernel_quantize(S.weyl_deform(sym, hq), pw, hq).matrix,
                    op.matrix) < 1e-12
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


@pytest.mark.parametrize("group", [G.U1, G.SU2])
def test_weyl_rejects_aliasing_h_grid(group, request):
    # the Weyl sums are transforms of the h-space of band max(the symbol's
    # pi-band, the output's): an h-grid of lower degree aliases them. At
    # the U(1) sizes below, weyl_quantize was off by 1.0 relative at
    # degree 12 and by 1.8e-5 at degree 20; from degree 24 it agrees with
    # degree 130 to rounding
    rng = np.random.default_rng(20)
    if group == G.U1:
        gpw, pw, fine = request.getfixturevalue("weyl_u1")
        pi_band, s = 24, 0.07
    else:
        gpw = S.make_g_space(G.SU2, 2, quad_degree=6)
        pw = PWSpace(G.SU2, 4, quad_degree=6)
        pi_band, s, fine = 3, 0.3, None
    sym = gaussian_profile_symbol(gpw, pi_band, s, rng)
    low = G.group_quadrature(group, pi_band - 1)
    with pytest.raises(ValueError, match="needs degree %d" % pi_band):
        S.weyl_quantize(sym, pw, low)
    hq = G.group_quadrature(group, pi_band)
    kern = S.weyl_deform(sym, hq)
    assert _max_rel(_deform_rep_grid(sym, hq, -1, pi_band), kern.K) < 1e-13
    op = S.kernel_quantize(kern, pw, hq)
    if fine is not None:
        assert _max_rel(S.weyl_quantize(sym, pw, fine).matrix,
                        op.matrix) < 1e-12
    # weyl_symbol deforms the KN symbol over the whole operator band
    with pytest.raises(ValueError, match="needs degree %d" % pw.band):
        S.weyl_symbol(op, pi_band, gpw, G.group_quadrature(group,
                                                           pw.band - 1))
    S.weyl_symbol(op, pi_band, gpw, G.group_quadrature(group, pw.band))


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
    F = sum(group.dim(lab) * np.einsum("hnm,gnm->hg",
                                          rep_grid(h_quad, lab).conj(), Kv)
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
                           rep_grid(h_quad, lab), optimize=True)
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
    F_A = kernel_values(S.kn_symbol(op, pw.band, gpw), hq)
    assert _max_rel(_left_kernel_oracle(op, hq, gpw.quad), F_A) < 1e-12
    back = S.weyl_symbol(op, pi_band, gpw, hq)
    oracle = _weyl_symbol_oracle(op, pi_band, gpw, hq)
    assert _max_rel(oracle, back.values) < 1e-12


def kernel_values(sym, h_quad):
    """F(h, g) = sum_pi d_pi tr(pi(h)^* sigma(pi, g)) on the (h_quad,
    sym.quad) double grid; h_quad must be a group_quadrature."""
    _, coef = S._kernel_coefficients(sym, h_quad, sym.pi_band)
    return sym.g_pw.synthesis(coef.T).T


# The rep_grid route of the Weyl deformation: F(h, g) and its h-integral
# from the irrep matrices on the whole h-grid, one (N_h, N_g) grid of values
# per shift, against which the PWSpace route on the h-grid is checked.

def _kernel_values_rep_grid(sym, h_quad, s=0):
    """F(h, sqrt(h)^s g) on the (h_quad, sym.quad) double grid."""
    group, g_pw = sym.group, sym.g_pw
    coef = sum(group.dim(lab) * rep_grid(h_quad, lab).conj().reshape(
        h_quad.n_nodes, -1) @ g_pw.analysis(sym.values[lab]).reshape(
            g_pw.dim, -1).T for lab in sym.labels)
    if s:
        v = S.sqrt_elements(group, h_quad)
        if s < 0:
            v = _inverse(group, v)
        DvT = [np.swapaxes(D, -1, -2) for D in g_pw._reps(v)]
        coef = g_pw._kron_rows(DvT, coef[:, :, None])[:, :, 0]
    return g_pw.synthesis(coef.T).T


def _deform_rep_grid(sym, h_quad, s, pi_band):
    """int dh F(h, sqrt(h)^s g) pi(h) as sum_h w_h F(h, g) pi(h)."""
    FwT = (_kernel_values_rep_grid(sym, h_quad, s)
           * h_quad.weights[:, None]).T
    return {lab: np.einsum("gh,hmn->gmn", FwT, rep_grid(h_quad, lab))
            for lab in G.irrep_labels(sym.group, pi_band)}


@pytest.mark.parametrize("group", [G.U1, G.SU2])
def test_weyl_deformation_matches_rep_grid_route(group, request):
    rng = np.random.default_rng(17)
    if group == G.U1:
        gpw, pw, hq = request.getfixturevalue("weyl_u1")
        pi_band, s, out_band = 24, 0.07, 20
    else:
        gpw = S.make_g_space(G.SU2, 2, quad_degree=6)
        pw = PWSpace(G.SU2, 5, quad_degree=8)
        hq = G.su2_quadrature(6)
        pi_band, s, out_band = 3, 0.3, 2
    sym = gaussian_profile_symbol(gpw, pi_band, s, rng)
    kern = S.weyl_deform(sym, hq)
    assert _max_rel(_deform_rep_grid(sym, hq, -1, pi_band), kern.K) < 1e-13
    assert _max_rel(_kernel_values_rep_grid(sym, hq),
                    kernel_values(sym, hq)) < 1e-13
    # weyl_symbol deforms the KN symbol over the whole operator band, above
    # both output bands
    op = S.kernel_quantize(kern, pw, hq)
    kn = S.kn_symbol(op, pw.band, gpw)
    for band in (out_band, pi_band):
        back = S.weyl_symbol(op, band, gpw, hq)
        assert _max_rel(_deform_rep_grid(kn, hq, 1, band),
                        back.values) < 1e-13


def test_branch_mass_is_haar_weighted():
    # g-band 3 on a degree-5 grid, whose Gauss-Legendre weights differ: the
    # branch mass weighs |F(h, g)|^2 by Haar measure in g as well as in h
    rng = np.random.default_rng(18)
    gpw = S.make_g_space(G.SU2, 3, 5)
    hq = G.su2_quadrature(10)
    sym = S.random_symbol(G.SU2, 2, gpw, rng)
    F = _kernel_values_rep_grid(sym, hq)
    m_h = hq.weights * (np.abs(F) ** 2 @ gpw.quad.weights)
    angle = np.linalg.norm(G.quat_log(hq.quats), axis=1)
    oracle = m_h[angle > 2 * math.pi - 2 * S._BRANCH_MARGIN].sum() / m_h.sum()
    with pytest.raises(S.BranchLocusError) as err:
        S.weyl_deform(sym, hq)
    assert abs(err.value.mass - oracle) < 1e-12 * oracle


def test_weyl_rejects_other_h_grids():
    # the h sums, values_at_quad and the SWF transforms run as transforms
    # of peterweyl.space on group_quadrature's grid: any other nodes, or the
    # same nodes under another degree, raise
    u1 = G.u1_quadrature(20)
    su2 = G.su2_quadrature(6)
    rot = G.quat_exp(np.array([0.3, -0.2, 0.5]))
    others = [
        dataclasses.replace(u1, angles=u1.angles + 0.1),
        dataclasses.replace(u1, exactness_degree=19),
        dataclasses.replace(su2, quats=G.quat_mul(rot, su2.quats)),
        dataclasses.replace(su2, exactness_degree=5),
    ]
    specs = [O.OrbitSpec(t) for t in (0, 1)]
    tr = O.swf_transform(np.ones(su2.n_nodes), su2, specs)
    for hq in others:
        gpw = S.make_g_space(hq.group, 1, 3)
        sym = S.random_symbol(hq.group, 2, gpw, np.random.default_rng(19))
        calls = [lambda: S.weyl_deform(sym, hq),
                 lambda: kernel_values(sym, hq),
                 lambda: sym.values_at_quad(1, hq),
                 lambda: S.kn_compose(sym, sym, hq)]
        if hq.group == G.SU2:
            calls += [lambda: O.swf_transform(np.ones(hq.n_nodes), hq, specs),
                      lambda: O.swf_inverse(tr, hq, specs)]
        for call in calls:
            with pytest.raises(ValueError, match="group_quadrature"):
                call()


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


# Dense oracles for the local calculus: the quadrature sum EW diag(f) E
# as one matrix product, and Q_eps(sigma) as a sum of dense M_p @ T_p with
# T_p built from G.rep_matrix and R_k the public right-derivative matrix.

def _multiplication_dense(pw, f):
    E = basis_matrix(pw, pw.quad)
    return (E.conj() * pw.quad.weights[:, None]).T @ (f[:, None] * E)


def _exp_element(group, Y):
    if group == G.U1:
        return G.GroupElement.u1(float(Y[0]))
    return G.GroupElement.su2(G.quat_exp(Y))


def _left_translation_dense(pw, h):
    """(U_h Psi)(g) = Psi(h^{-1} g): c'_{cb} = sum_a conj(D_ac(h)) c_ab, a
    dense kron(conj D(h), 1) block per label."""
    out = np.zeros((pw.dim, pw.dim), dtype=complex)
    for lab in pw.labels:
        D = G.rep_matrix(pw.group, lab, h).conj()
        o, n = pw.offsets[lab], len(D) ** 2
        out[o:o + n, o:o + n] = np.kron(D, np.eye(len(D)))
    return out


def _local_quantize_dense(s, eps, pw, variant):
    E_g = s.g_pw.eval_basis(pw.quad.angles if s.group == G.U1
                            else pw.quad.quats)
    A = np.zeros((pw.dim, pw.dim), dtype=complex)
    Y = np.atleast_2d(s.lattice().reshape(len(s.points), -1))
    jfac = s.group.haar_density(eps * Y)
    for p in range(len(s.points)):
        c = s.coeffs[p]
        if variant == L.WEYL:
            c = _left_translation_dense(
                s.g_pw, _exp_element(s.group, eps * Y[p] / 2.0)) @ c
        M = _multiplication_dense(pw, E_g @ c)
        A += jfac[p] * (M @ _left_translation_dense(
            pw, _exp_element(s.group, eps * Y[p])))
    for k, q in s.poly.items():
        kk = k if s.group == G.SU2 else 0
        A += -1j * eps * (_multiplication_dense(pw, E_g @ q)
                          @ pw.right_derivative(kk))
        if variant == L.WEYL:
            Rq = s.g_pw.right_derivative(kk) @ q
            A += -1j * eps * 0.5 * _multiplication_dense(pw, E_g @ Rq)
    return A


def _exact_f_band(pw):
    """The largest band g of f for which pw's grid, of exactness degree q,
    integrates conj(e_i) f e_j exactly for all basis pairs: 2 band + g <=
    2q on U(1), 2 (band - 1) + g - 1 <= 2 (q - 1) on SU(2)."""
    q = pw.quad.exactness_degree
    return 2 * (q - pw.band) + (pw.group == G.SU2)


@pytest.mark.parametrize("group,band,degree", [
    *[(G.U1, b, None) for b in range(1, 9)],
    *[(G.SU2, b, None) for b in range(1, 9)],
    (G.U1, 22, 60), (G.SU2, 2, 6), (G.SU2, 5, 8), (G.SU2, 8, 10)])
def test_multiplication_operator_oracle(group, band, degree):
    pw = PWSpace(group, band, quad_degree=degree)
    g_pw = PWSpace(group, min(band, _exact_f_band(pw)))
    rng = np.random.default_rng(band)
    c = _crand(rng, 3, g_pw.dim)
    f = basis_matrix(g_pw, pw.quad) @ c.T
    in_band = max(1, band // 2)
    cols = pw.band_mask(in_band)
    M = pw.multiplication_operator(g_pw, c)
    Mc = pw.multiplication_operator(g_pw, c, in_band)
    assert M.shape == (3, pw.dim, pw.dim)
    assert Mc.shape == (3, pw.dim, cols.sum())
    for r in range(3):
        oracle = _multiplication_dense(pw, f[:, r])
        assert _max_rel(oracle, M[r]) < 1e-13
        assert _max_rel(oracle[:, cols], Mc[r]) < 1e-13
        # a stack's operators are those of its rows one at a time
        one, = pw.multiplication_operator(g_pw, c[r:r + 1])
        assert np.abs(one - M[r]).max() <= 1e-15 * np.abs(one).max()


def _selection_rule(pw, g):
    """Entries of a multiplication operator that a band-g f can make
    nonzero: |j - j'| <= g on U(1); |n - n'|, |2m_a - 2m_a'| and
    |2m_b - 2m_b'| all <= g - 1 on SU(2)."""
    if pw.group == G.U1:
        q = np.array([[lab] for lab, _, _ in pw.index])
        return np.abs(q - q.T) <= g
    q = np.array([(n, n - 1 - 2 * a, n - 1 - 2 * b) for n, a, b in pw.index])
    return np.abs(q[:, None] - q[None]).max(axis=2) <= g - 1


@pytest.mark.parametrize("group", [G.U1, G.SU2])
@pytest.mark.parametrize("band", range(1, 9))
def test_multiplication_operator_selection_rule(group, band):
    # a grid that integrates conj(e_i) f e_j exactly for every f band g <=
    # band, so that the dense quadrature sum obeys the rule too
    pw = PWSpace(group, band, quad_degree=band + (band + 1) // 2)
    assert _exact_f_band(pw) >= band
    E = basis_matrix(pw, pw.quad)
    rng = np.random.default_rng(band)
    cols = pw.band_mask(max(1, band // 2))
    for g in range(1, band + 1):
        g_pw = PWSpace(group, g)
        c = _crand(rng, 1, g_pw.dim)
        f = basis_matrix(g_pw, pw.quad) @ c[0]
        oracle = (E.conj() * pw.quad.weights[:, None]).T @ (f[:, None] * E)
        rule = _selection_rule(pw, g)
        M, = pw.multiplication_operator(g_pw, c)
        assert np.all(M[~rule] == 0)
        assert _max_rel(oracle, M) < 1e-13
        Mc, = pw.multiplication_operator(g_pw, c, max(1, band // 2))
        assert np.all(Mc[~rule[:, cols]] == 0)
        assert _max_rel(oracle[:, cols], Mc) < 1e-13


@pytest.mark.parametrize("group", [G.U1, G.SU2])
def test_multiplication_operator_rejects_what_does_not_fit(group):
    pw, g_pw, above = (PWSpace(group, b) for b in (3, 2, 4))
    with pytest.raises(ValueError, match="exceeds the target band"):
        pw.multiplication_operator(above, np.zeros((1, above.dim)))
    with pytest.raises(ValueError, match="in_band 4 exceeds the band 3"):
        pw.multiplication_operator(g_pw, np.zeros((1, g_pw.dim)), 4)
    for c in (np.zeros((1, g_pw.dim + 1)), np.zeros(g_pw.dim),
              np.zeros((1, 1, g_pw.dim))):
        with pytest.raises(ValueError, match=r"\(rows, %d\)" % g_pw.dim):
            pw.multiplication_operator(g_pw, c)
    empty = pw.multiplication_operator(g_pw, np.zeros((0, g_pw.dim)))
    assert empty.shape == (0, pw.dim, pw.dim)


@pytest.mark.parametrize("group,band,degree", [(G.U1, 22, 60),
                                                (G.SU2, 8, 10)])
def test_multiplication_operator_reads_the_band_coefficients_hold(
        group, band, degree):
    # coefficients declared on band 5 but nonzero up to band 2 only: the
    # operator is that of band 2's space, built on the entries band 2
    # admits, and on the rows up to in_band (+) 2 it is the whole operator
    pw = PWSpace(group, band, quad_degree=degree)
    g_lo, g_hi = (PWSpace(group, b) for b in (2, 5))
    c_lo = _crand(np.random.default_rng(band), 3, g_lo.dim)
    c_hi = np.zeros((3, g_hi.dim), complex)
    c_hi[:, g_hi.band_mask(2)] = c_lo
    assert g_hi._held_band(c_hi) == 2
    in_band = band // 2
    out_band = group.product_band(in_band, 2)
    rows = pw.band_mask(out_band)
    assert not rows.all()
    full = pw.multiplication_operator(g_lo, c_lo, in_band)
    assert np.all(full[:, ~rows] == 0)
    for g_pw, c in ((g_lo, c_lo), (g_hi, c_hi)):
        M = pw.multiplication_operator(g_pw, c, in_band, out_band)
        assert M.shape == (3, rows.sum(), pw.band_mask(in_band).sum())
        assert _max_rel(full[:, rows], M) < 1e-14
    assert {g for _, _, g in pw._entry_cache} == {2}
    with pytest.raises(ValueError, match="out_band %d exceeds the band %d"
                       % (band + 1, band)):
        pw.multiplication_operator(g_lo, c_lo, in_band, band + 1)


@pytest.mark.parametrize("group,band", [(G.U1, 6), (G.SU2, 5)])
def test_kron_rows_on_a_row_prefix(group, band):
    # a stack that holds the first m rows only, whole irrep blocks, gets
    # the first m rows of the product on all rows
    pw = PWSpace(group, band)
    rng = np.random.default_rng(band)
    blocks = [_crand(rng, len(labs), 2, d, d) for labs, d, _ in pw._runs]
    mats = _crand(rng, 2, pw.dim, 7)
    full = pw._kron_rows(blocks, mats)
    for lab in pw.labels:
        m = pw.offsets[lab] + group.dim(lab) ** 2
        assert np.array_equal(pw._kron_rows(blocks, mats[:, :m]),
                              full[:, :m])


@pytest.mark.parametrize("group,bands", [(G.U1, ((2, 30), (4, 30))),
                                         (G.SU2, ((2, 6), (5, 8)))])
def test_products_refuse_a_band_below_the_product(group, bands):
    # a and b of band 2 have a product of band 4 (U(1)) or 3 (SU(2)): on a
    # band-2 g_pw_out symbol_product used to return its projection without
    # saying so: for these symbols it dropped 0.45 (U(1)) and 0.68 (SU(2))
    # of the product's coefficient norm
    g2, g_big = (S.make_g_space(group, *b) for b in bands)
    rng = np.random.default_rng(33)
    a, b = (_random_local(group, g2, rng) for _ in range(2))
    for product in (L.symbol_product, L.poisson_bracket):
        with pytest.raises(ValueError, match="bands 2 and 2 exceeds the "
                                             "band 2 of g_pw_out"):
            product(a, b, g2)
    # the bands that the coefficients hold decide: a constant declared on
    # band 2 times b fits on band 2, and is the product on the larger band
    const = L.LocalSymbol(group, a.step, a.points, a.coeffs
                          * g2.band_mask(int(group == G.SU2)), g2)
    ab, ab_big = (L.symbol_product(const, b, g) for g in (g2, g_big))
    assert np.array_equal(ab.points, ab_big.points)
    assert np.all(ab_big.coeffs[:, ~g_big.band_mask(2)] == 0)
    assert _max_rel(ab_big.coeffs[:, g_big.band_mask(2)], ab.coeffs) < 1e-13


def test_poisson_bracket_checks_the_bands_of_its_lie_part():
    # momentum-linear a = theta_3 q, b = theta_1 q' with q, q' of band 3
    # and R_1 q = R_3 q' = 0 exactly: every product of the bracket's terms
    # fits on band 3, but the Lie-Poisson part -q q' theta_2 holds band 5,
    # all of it above band 3, and its projection on band 3 is 0
    g3 = S.make_g_space(G.SU2, 3, quad_degree=6)
    o = g3.offsets[3]
    q, qp = np.zeros((2, g3.dim), complex)
    q[[o, o + 6]] = 1.0, -1.0         # (a, b) = (0, 0) and (2, 0)
    qp[o + 3] = 1.0                   # (a, b) = (1, 0): weight m_a = 0
    assert not np.any(g3.right_derivative(0) @ q)
    assert not np.any(g3.right_derivative(2) @ qp)
    a, b = (L.LocalSymbol(G.SU2, 0.5, np.zeros((1, 3), int),
                          np.zeros((1, g3.dim)), g3, {k: v})
            for k, v in ((2, q), (0, qp)))
    with pytest.raises(ValueError, match="bands 3 and 3 exceeds the band 3"):
        L.poisson_bracket(a, b, g3)


@pytest.mark.parametrize("group,degree", [(G.U1, 12), (G.SU2, 4)])
def test_grid_values_of_wrong_length_raise(group, degree):
    pw = PWSpace(group, 3, quad_degree=degree)
    n = pw.quad.n_nodes
    for v in (np.ones(n + 3), np.ones(n - 1), np.ones((n - 1, 2))):
        with pytest.raises(ValueError, match="quad.n_nodes"):
            pw.analysis(v)
    assert pw.analysis(np.ones((n, 2))).shape == (pw.dim, 2)


@pytest.mark.parametrize("group,g_band,band,degree", [
    (G.U1, 3, 11, 30), (G.SU2, 2, 5, 8)])
def test_kn_calculus_refuses_a_g_band_above_the_operator_band(
        group, g_band, band, degree):
    # a symbol's g-band above the operator band would alias on the
    # operator's grid
    g_pw = PWSpace(group, g_band)
    pw = PWSpace(group, band, quad_degree=degree)
    sym = S.random_symbol(group, 1, pw, np.random.default_rng(g_band))
    with pytest.raises(ValueError, match="exceeds the target band"):
        S.kn_quantize(sym, g_pw)
    op = S.TruncatedOperator(g_pw, np.eye(g_pw.dim, dtype=complex))
    with pytest.raises(ValueError, match="exceeds the target band"):
        S.kn_symbol(op, 1, pw)


def test_local_quantize_oracle(local_u1):
    gpw, pw = local_u1
    rng = np.random.default_rng(5)
    cs = rng.standard_normal((5, gpw.dim)) + 1j * rng.standard_normal(
        (5, gpw.dim))
    q = rng.standard_normal(gpw.dim) + 1j * rng.standard_normal(gpw.dim)
    s_u1 = L.LocalSymbol(G.U1, 0.4, np.arange(-2, 3), cs, gpw, {0: q})
    gpw2 = S.make_g_space(G.SU2, 2, quad_degree=5)
    pw2 = PWSpace(G.SU2, 5, quad_degree=7)
    pts = np.array([[1, 0, 0], [0, 1, -1], [0, 0, 0], [-1, 1, 1], [0, 0, 2]])
    cs2 = rng.standard_normal((5, gpw2.dim)) + 1j * rng.standard_normal(
        (5, gpw2.dim))
    poly = {k: rng.standard_normal(gpw2.dim) for k in (0, 2)}
    s_su2 = L.LocalSymbol(G.SU2, 0.5, pts, cs2, gpw2, poly)
    # z-axis points at moyal-fit's SU(2) band and degree
    gpw3 = S.make_g_space(G.SU2, 2, quad_degree=6)
    pw3 = PWSpace(G.SU2, 8, quad_degree=10)
    zpts = np.array([[0, 0, -1], [0, 0, 0], [0, 0, 1]])
    cs3 = rng.standard_normal((3, gpw3.dim)) + 1j * rng.standard_normal(
        (3, gpw3.dim))
    s_z = L.LocalSymbol(G.SU2, 0.5, zpts, cs3, gpw3,
                        {2: rng.standard_normal(gpw3.dim)})
    for s, space in ((s_u1, pw), (s_su2, pw2), (s_z, pw3)):
        for variant in (L.KN, L.WEYL):
            for eps in (0.5, 0.25):
                oracle = _local_quantize_dense(s, eps, space, variant)
                Q = L.local_quantize(s, eps, space, variant)
                assert _max_rel(oracle, Q) < 1e-12


def test_local_elementary(local_u1):
    gpw, pw = local_u1
    fc = RNG.standard_normal(gpw.dim) + 1j * RNG.standard_normal(gpw.dim)
    sf = L.LocalSymbol(G.U1, 0.5, np.array([0]), fc[None, :], gpw)
    Qf = L.local_quantize(sf, 0.25, pw, L.KN)
    QfW = L.local_quantize(sf, 0.25, pw, L.WEYL)
    Mf = pw.multiplication_operator(gpw, fc[None])[0]
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
    Mf = pw.multiplication_operator(gpw, fc[None])[0]
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
    Rf = pw.multiplication_operator(gpw, [gpw.right_derivative() @ fc])[0]
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


def _poisson_bracket_all_directions(a, b, g_pw_out):
    """{a, b} with the term pair of every direction k formed, whether or
    not a or b moves in it, and summed with the Lie part."""
    terms = []
    for k in range(a.n_dirs):
        terms.append(L.symbol_product(L.theta_derivative(a, k),
                                      L.right_derivative_symbol(b, k),
                                      g_pw_out))
        terms.append(L.symbol_product(L.right_derivative_symbol(a, k),
                                      L.theta_derivative(b, k),
                                      g_pw_out).scaled(-1.0))
    out = terms[0]
    for t in terms[1:]:
        out = L.symbol_add(out, t)
    minus = L._lie_poisson_part(a, b, g_pw_out)
    return out if minus is None else L.symbol_add(out, minus)


def _by_point(s):
    """s's coefficient rows and theta_k terms keyed by lattice point and k."""
    out = {("m", tuple(p)): c for p, c in zip(s.points, s.coeffs)}
    out.update({("q", k): v for k, v in s.poly.items()})
    return out


def _symbol_at(rng, group, step, pts, g_pw, poly_dirs=()):
    """A random symbol at the lattice points pts, with theta_k terms for
    the k of poly_dirs."""
    return L.LocalSymbol(group, step, pts, _crand(rng, len(pts), g_pw.dim),
                         g_pw, {k: _crand(rng, g_pw.dim) for k in poly_dirs})


def _bracket_pairs(group):
    """(a, b, g_pw_out) pairs: moyal-fit's own, off-axis and single-axis
    oscillatory ones, and momentum-linear ones."""
    rng = np.random.default_rng(11)
    fit = "moyal_fit_u1" if group == G.U1 else "moyal_fit_su2"
    pairs, _, _, _, gout = _fit_arguments(fit, 1)
    out = [(a, b, gout) for a, b in pairs]
    g_pw, step = pairs[0][0].g_pw, pairs[0][0].step
    zero = np.zeros((1, 1 if group == G.U1 else 3), int)
    const = _symbol_at(rng, group, step, zero, g_pw)
    if group == G.U1:
        osc = _symbol_at(rng, group, step, np.arange(-2, 3)[:, None], g_pw)
        lin = _symbol_at(rng, group, step, zero, g_pw, (0,))
        return out + [(osc, const, gout), (const, osc, gout),
                      (lin, const, gout), (const, lin, gout)]
    line = np.arange(-1, 2)[:, None]
    off = [_symbol_at(rng, group, 0.4, line * [1, 2, -1], g_pw)
           for _ in range(2)]
    xs = _symbol_at(rng, group, step, line * [1, 0, 0], g_pw)
    lin = [_symbol_at(rng, group, step, zero, g_pw, ks)
           for ks in ((0,), (1, 2))]
    # theta_x and theta_y, as in test_poisson_bracket_lie_part_su2
    ones = g_pw.analysis(np.ones(g_pw.quad.n_nodes, complex))
    sx, sy = (L.LocalSymbol(group, step, zero, np.zeros((1, g_pw.dim)), g_pw,
                            {k: ones}) for k in (0, 1))
    return out + [(off[0], off[1], gout), (xs, const, gout),
                  (const, xs, gout), (lin[0], lin[1], gout),
                  (lin[0], const, gout), (sx, sy, gout)]


@pytest.mark.parametrize("group", [G.U1, G.SU2])
def test_poisson_bracket_matches_all_directions(group):
    # poisson_bracket skips the directions in which neither symbol moves;
    # the loop over every direction is the oracle, point by point
    for a, b, gout in _bracket_pairs(group):
        got = _by_point(L.poisson_bracket(a, b, gout))
        ref = _by_point(_poisson_bracket_all_directions(a, b, gout))
        scale = max(np.abs(v).max() for v in ref.values())
        zero = np.zeros(gout.dim)
        for key in set(got) | set(ref):
            err = np.abs(got.get(key, zero) - ref.get(key, zero)).max()
            assert err <= 1e-15 * scale, (key, err, scale)


def test_poisson_bracket_of_non_parallel_symbols_is_refused():
    # the Lie part of oscillatory symbols with non-parallel momentum
    # support leaves the finite class, with or without the skipped terms
    rng = np.random.default_rng(12)
    g_pw = S.make_g_space(G.SU2, 2, quad_degree=6)
    gout = S.make_g_space(G.SU2, 5, quad_degree=8)
    line = np.arange(-1, 2)[:, None]
    a = _symbol_at(rng, G.SU2, 0.5, line * [1, 0, 0], g_pw)
    b = _symbol_at(rng, G.SU2, 0.5, line * [0, 1, 1], g_pw)
    for bracket in (L.poisson_bracket, _poisson_bracket_all_directions):
        with pytest.raises(L.SymbolClassError, match="non-parallel"):
            bracket(a, b, gout)


@pytest.mark.parametrize("group", [G.U1, G.SU2])
def test_poisson_bracket_of_theta_independent_symbols_is_zero(group):
    # neither symbol moves in any direction: the zero symbol at 0, on
    # g_pw_out, even with zero coefficient rows away from 0
    rng = np.random.default_rng(13)
    n_dirs = 1 if group == G.U1 else 3
    g_pw = (S.make_g_space(G.U1, 1, quad_degree=30) if group == G.U1
            else S.make_g_space(G.SU2, 2, quad_degree=6))
    gout = (S.make_g_space(G.U1, 4, quad_degree=30) if group == G.U1
            else S.make_g_space(G.SU2, 5, quad_degree=8))
    zero = np.zeros((1, n_dirs), int)
    a = _symbol_at(rng, group, 0.5, zero, g_pw)
    b = _symbol_at(rng, group, 0.5, np.concatenate([zero, zero + 1]), g_pw)
    b.coeffs[1] = 0.0
    for x, y in ((a, b), (b, a), (a, a)):
        br = L.poisson_bracket(x, y, gout)
        assert br.g_pw is gout and br.poly == {}
        assert np.array_equal(br.points, zero)
        assert not br.coeffs.any()


_FD_STEP = 1e-6   # central-difference step of kernel_cutoff's d_k phi(0)


def kernel_cutoff(phi, s):
    """H(phi) sigma: multiply the momentum-side data by phi pointwise.

    phi is a callable on the Lie algebra (scalar argument for U(1), 3-vector
    for SU(2)). The momentum-linear part picks up phi(0) theta_k q_k plus
    i (d_k phi)(0) q_k at frequency zero, with d_k phi(0) by central
    differences of step _FD_STEP.
    """
    def at(y):
        return phi(float(y[0]) if s.group == G.U1 else y)

    coeffs = np.array([at(y) for y in s.lattice()])[:, None] * s.coeffs
    phi0 = at(np.zeros(s.n_dirs)) if s.poly else 0.0
    out = L.LocalSymbol(s.group, s.step, s.points.copy(), coeffs, s.g_pw,
                        {k: phi0 * v for k, v in s.poly.items()})
    for k, q in s.poly.items():
        e = _FD_STEP * np.eye(s.n_dirs)[k]
        dk = (at(e) - at(-e)) / (2 * _FD_STEP)
        out = L.symbol_add(out, L._at_zero(s, s.g_pw, (1j * dk) * q))
    return out


def test_kernel_cutoff(local_u1):
    gpw, pw = local_u1
    pts = np.arange(-2, 3)
    cs = RNG.standard_normal((5, gpw.dim)) + 1j * RNG.standard_normal(
        (5, gpw.dim))
    qc = gpw.analysis(np.ones(gpw.quad.n_nodes, complex))
    s = L.LocalSymbol(G.U1, 0.4, pts, cs, gpw, {0: qc})
    out = kernel_cutoff(lambda y: 1.0, s)
    assert np.abs(out.coeffs - s.coeffs).max() == 0.0
    assert np.abs(out.poly[0] - s.poly[0]).max() == 0.0
    # phi = c Y: H(phi) sigma = c i d_theta sigma; with phi = 1 above, this
    # is H(1 + c Y) by linearity. Central differences of c Y are exact up to
    # the rounding of c Y itself
    c = 0.37
    out2 = kernel_cutoff(lambda y: c * y, s)
    expect = L.theta_derivative(s, 0).scaled(1j * c)
    Qo = L.local_quantize(out2, 0.25, pw, L.KN)
    Qe = L.local_quantize(expect, 0.25, pw, L.KN)
    assert np.abs(Qo - Qe).max() < 1e-12
    # phi(0) = 0 and flat at 0 suppresses the frequency-zero mass
    out3 = kernel_cutoff(lambda y: 0.0 if abs(y) < 1e-12 else 1.0, s)
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


def u1_symbol_from_samples(fun, step, n_points, g_pw):
    """LocalSymbol from samples of a smooth momentum kernel fun(Y, grid).

    fun maps a lattice ordinate Y to coefficient-function values on the
    g_pw quadrature grid; the Riemann weight (the lattice step) is absorbed
    into the stored coefficients.
    """
    points = np.arange(-n_points, n_points + 1)
    coeffs = []
    for p in points:
        vals = fun(step * p, g_pw.quad.angles)
        coeffs.append(g_pw.analysis(np.asarray(vals, complex)) * step)
    return L.LocalSymbol(G.U1, step, points, np.array(coeffs), g_pw)


def u1_midpoint_operator(fun, eps, pw):
    """Operator matrix from the midpoint kernel
    K(x, g) = eps^{-1} fun(eps^{-1} X_{g x^{-1}}, exp(-X/2) g)."""
    ang = pw.quad.angles
    X = ang[:, None] - ang[None, :]           # angle of g x^{-1}: rows g
    X = (X + math.pi) % (2 * math.pi) - math.pi
    mid = ang[:, None] - X / 2.0
    Kv = fun(X / eps, mid) / eps
    # (B e_j)(g) = int K(x, g) e_j(x) dx_Riemann = 2 pi sum_k w_k K(x_k, g)
    # e_j(x_k), and e_j = s_j conj(e_jbar): 2 pi s_j times the analysis of
    # K(., g) at jbar; the matrix is the analysis of those images
    images = G.VOL_U1 * (pw._dual_sign[:, None]
                         * pw.analysis(Kv.T)[pw._dual_index]).T
    return pw.analysis(images)


def test_midpoint_kernel():
    def bump(Y, phis):
        Y = np.asarray(Y)
        return np.exp(-Y ** 2 / 0.32) * (1 + 0.3 * np.cos(np.asarray(phis)))

    pwm = PWSpace(G.U1, 30, quad_degree=100)
    gsm = S.make_g_space(G.U1, 1, quad_degree=10)
    sym = u1_symbol_from_samples(bump, 0.05, 60, gsm)
    for eps in (0.25, 0.125):
        QW = L.local_quantize(sym, eps, pwm, L.WEYL)
        B = u1_midpoint_operator(bump, eps, pwm)
        assert np.abs(QW - B).max() < 1e-10 * np.abs(QW).max()


def test_semiclassical_slopes_u1():
    from groupquant.cli import moyal_fit_u1
    rng = np.random.default_rng(0)
    ms, ds, mres, dres = moyal_fit_u1(rng, [0.25, 0.125, 0.0625, 0.03125])
    assert abs(ms - 2.0) < 0.2
    assert abs(ds - 1.0) < 0.2
    assert all(mres[i + 1] < mres[i] for i in range(3))
    assert all(dres[i + 1] < dres[i] for i in range(3))


def test_semiclassical_slopes_su2():
    from groupquant.cli import moyal_fit_su2
    rng = np.random.default_rng(0)
    ms, ds, mres, dres = moyal_fit_su2(rng, [0.25, 0.125, 0.0625], n_pairs=1)
    assert abs(ms - 2.0) < 0.2
    assert abs(ds - 1.0) < 0.2
    # seed-0 slopes of the dense per-lattice-point route
    assert abs(ms - 1.9929650291082532) < 1e-9
    assert abs(ds - 1.0068962661570169) < 1e-9


def _product_residuals_loop(a, b, eps, pw, in_band, g_pw_out):
    """(moyal, dirac) residual norms at one eps from six quantizations of
    whole symbols: Weyl Q(a), Q(b), Q(ab - (i eps/2){a,b}); KN Q(a), Q(b),
    Q({a,b})."""
    mask = pw.band_mask(in_band)
    ab = L.symbol_product(a, b, g_pw_out)
    br = L.poisson_bracket(a, b, g_pw_out)
    Qa = L.local_quantize(a, eps, pw, L.WEYL)
    Qb = L.local_quantize(b, eps, pw, L.WEYL)
    approx = L.symbol_add(ab, br.scaled(-0.5j * eps))
    Qapprox = L.local_quantize(approx, eps, pw, L.WEYL)
    moyal = L._op_norm((Qa @ Qb - Qapprox)[:, mask])
    Qa = L.local_quantize(a, eps, pw, L.KN)
    Qb = L.local_quantize(b, eps, pw, L.KN)
    Qbr = L.local_quantize(br, eps, pw, L.KN)
    dirac = L._op_norm(((1j / eps) * (Qa @ Qb - Qb @ Qa) - Qbr)[:, mask])
    return moyal, dirac


@pytest.mark.parametrize("shape,rank", [
    ((40, 7), None), ((7, 40), None), ((30, 20), 1), ((12, 12), 0)])
def test_op_norm_is_largest_singular_value(shape, rank):
    rng = np.random.default_rng(shape[0])
    M = _crand(rng, *shape)
    if rank == 1:
        M = np.outer(_crand(rng, shape[0]), _crand(rng, shape[1]))
    elif rank == 0:
        M = np.zeros(shape, dtype=complex)
    ref = np.linalg.norm(M, 2)
    assert abs(L._op_norm(M) - ref) <= 1e-13 * max(ref, 1.0)
    # a stack (2, 3, m, n) takes one call: a norm per matrix
    stack = np.array([[M, 2 * M, M.conj()], [M[::-1], -M, 0 * M]])
    refs = np.array([[ref, 2 * ref, ref], [ref, ref, 0.0]])
    assert np.abs(L._op_norm(stack) - refs).max() <= 1e-13 * max(ref, 1.0)


def _spy_transforms(monkeypatch):
    """The list to which every later PWSpace.analysis or synthesis call
    appends its name."""
    calls = []
    for name in ("analysis", "synthesis"):
        def spy(self, *args, _f=getattr(PWSpace, name), _n=name):
            calls.append(_n)
            return _f(self, *args)
        monkeypatch.setattr(PWSpace, name, spy)
    return calls


@pytest.mark.parametrize("group", [G.U1, G.SU2])
def test_coeff_products_match_the_transform_route(
        monkeypatch, layout_spaces, group):
    # the oracle synthesises both factors on gout's grid, multiplies the
    # values and analyses the product
    gpw, gout = layout_spaces[group]
    rng = np.random.default_rng(29)
    c, zero = _crand(rng, 3, gpw.dim), np.zeros((2, gpw.dim), complex)
    c_out = _crand(rng, 2, gout.dim)

    def transform_route(g_a, ca, g_b, cb):
        va, vb = (gout._band_space(g.band).synthesis(x.T)
                  for g, x in ((g_a, ca), (g_b, cb)))
        return np.moveaxis(
            gout.analysis(va[:, :, None] * vb[:, None, :]), 0, -1)

    factors = [(gpw, c, gpw, c[::-1]), (gpw, c, gout, c_out),
               (gout, c_out, gpw, c)]
    oracles = [transform_route(*f) for f in factors]
    calls = _spy_transforms(monkeypatch)
    for f, oracle in zip(factors, oracles):
        assert _max_rel(oracle, L._coeff_products(*f, gout)) < 1e-13
    for ca, cb in ((c, zero), (zero, c), (zero, zero)):
        out = L._coeff_products(gpw, ca, gpw, cb, gout)
        assert out.shape == (len(ca), len(cb), gout.dim)
        assert np.all(out == 0)
    assert calls == []
    # a factor's band above gout's is refused, whichever factor it is
    big = np.zeros((2, gout.dim))
    with pytest.raises(ValueError, match="exceeds"):
        L._coeff_products(gout, big, gpw, c, gpw)
    with pytest.raises(ValueError, match="exceeds"):
        L._coeff_products(gpw, c, gout, big, gpw)


@pytest.mark.parametrize("fit", ["moyal_fit_u1", "moyal_fit_su2"])
def test_moyal_fit_makes_no_transform(monkeypatch, fit):
    # the local calculus multiplies through coefficients: its operators
    # and products need no values on a grid
    from groupquant import cli
    calls = _spy_transforms(monkeypatch)
    getattr(cli, fit)(np.random.default_rng(0), [0.25, 0.125])
    assert calls == []


@pytest.mark.parametrize("seed", [0, 13])
@pytest.mark.parametrize("fit", ["moyal_fit_u1", "moyal_fit_su2"])
def test_ensemble_fit_matches_loop(monkeypatch, fit, seed):
    # the fit shares each symbol's operators across eps and variants; the
    # loop quantizes every symbol afresh at every eps
    from groupquant import cli
    calls = []

    def spy(*args):
        calls.append(args)
        return fit_pairs(*args)

    fit_pairs = L.ensemble_order_fit
    monkeypatch.setattr(L, "ensemble_order_fit", spy)
    eps_list = [0.25, 0.125, 0.0625, 0.03125]
    _, _, mres, dres = getattr(cli, fit)(np.random.default_rng(seed),
                                         eps_list)
    (pairs, _, pw, in_band, g_pw_out), = calls
    for i, eps in enumerate(eps_list):
        loop = np.array([_product_residuals_loop(a, b, eps, pw, in_band,
                                                 g_pw_out)
                         for a, b in pairs])
        moyal, dirac = np.sqrt((loop ** 2).sum(axis=0))
        assert abs(mres[i] - moyal) < 1e-9 * moyal
        assert abs(dres[i] - dirac) < 1e-9 * dirac


def _fit_arguments(fit, seed):
    """(pairs, eps_list, pw, in_band, g_pw_out) with which cli.<fit> calls
    ensemble_order_fit on a seed, captured without running the fit."""
    from groupquant import cli
    calls = []
    original = L.ensemble_order_fit
    L.ensemble_order_fit = lambda *args: calls.append(args)
    try:
        getattr(cli, fit)(np.random.default_rng(seed), [0.25, 0.125])
    finally:
        L.ensemble_order_fit = original
    return calls[0]


@pytest.mark.parametrize("fit", ["moyal_fit_u1", "moyal_fit_su2"])
def test_quantized_columns_reach_product_band(fit):
    # Q(s)[:, band <= in_band] has no rows above in_band (+) g-band: the
    # fit builds Q(a) and Q(b) on the columns up to that band only
    pairs, _, pw, in_band, _ = _fit_arguments(fit, 3)
    a, b = pairs[0]
    g_pw = a.g_pw
    rng = np.random.default_rng(4)
    pts = (np.arange(-2, 3)[:, None] if pw.group == G.U1
           else np.array([[1, 0, 0], [0, 1, -1], [0, 0, 0], [-1, 1, 1]]))
    cs = rng.standard_normal((len(pts), g_pw.dim)) + 1j * rng.standard_normal(
        (len(pts), g_pw.dim))
    poly = {k: rng.standard_normal(g_pw.dim) + 1j * rng.standard_normal(
        g_pw.dim) for k in range(pts.shape[1])}
    linear = L.LocalSymbol(pw.group, a.step, pts, cs, g_pw, poly)
    reach = pw.group.product_band(in_band, g_pw.band)
    assert reach < pw.band
    out, cols = ~pw.band_mask(reach), pw.band_mask(in_band)
    assert out.any()
    for s in (a, b, linear):
        for variant in (L.KN, L.WEYL):
            for eps in (0.25, 0.03125):
                Q = L.local_quantize(s, eps, pw, variant)
                assert np.abs(Q[out][:, cols]).max() < 1e-14 * np.abs(Q).max()


@pytest.mark.parametrize("fit", ["moyal_fit_u1", "moyal_fit_su2"])
def test_order_fit_makes_one_translation_table_per_pair(fit, monkeypatch):
    from groupquant import cli
    rows, checks = [], []
    reps, factor_band = PWSpace._reps, L._factor_band

    def spy_reps(self, quats_or_angles):
        rows.append(len(quats_or_angles))
        return reps(self, quats_or_angles)

    def spy_factor_band(*args):
        checks.append(args)
        return factor_band(*args)

    monkeypatch.setattr(PWSpace, "_reps", spy_reps)
    monkeypatch.setattr(L, "_factor_band", spy_factor_band)
    eps_list = [0.25, 0.125, 0.0625, 0.03125]
    getattr(cli, fit)(np.random.default_rng(0), eps_list, n_pairs=2)
    # three band checks per pair, one each for ab, {a,b} and the fit's
    # bands: none per term of the bracket
    assert len(checks) == 3 * 2
    # one table per pair for every eps
    if fit == "moyal_fit_u1":
        # k = -4..4 (Weyl points of a, b, ab and {a,b}, and twice the KN
        # points of a and b) and +-6, +-8 (twice the KN points of {a,b})
        assert rows == [13 * len(eps_list)] * 2
    else:
        # the 27 translations that the 7
        # assemblies of a, b, ab and {a,b} apply are 7 distinct elements
        # e^{eps step k/2} per eps, k = 0, +-1, +-2 (Weyl points) and +-4
        # (twice the KN points of {a,b}) on the z axis
        assert rows == [7 * len(eps_list)] * 2


@pytest.mark.parametrize("fit", ["moyal_fit_u1", "moyal_fit_su2"])
def test_translation_table_matches_local_quantize(fit):
    pairs, _, pw, _, g_pw_out = _fit_arguments(fit, 5)
    a, b = pairs[0]
    ab = L.symbol_product(a, b, g_pw_out)
    br = L.poisson_bracket(a, b, g_pw_out)
    items = ([(s, L.WEYL) for s in (a, b, ab, br)]
             + [(s, L.KN) for s in (a, b, br)])
    table, rows = L._translation_keys(items)
    eps_list = (0.25, 0.0625)
    for eps, T in zip(eps_list, L._translations(table, eps_list, pw)):
        for (s, variant), rw in zip(items, rows):
            Q = L._assemble(s, L._operators(s, pw), eps, pw, variant, T, rw)
            assert np.array_equal(Q, L.local_quantize(s, eps, pw, variant))


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


@pytest.mark.parametrize("group, g_band, degree", [(G.U1, 3, 30),
                                                   (G.SU2, 2, 5)])
def test_conjugated_linear_part(group, g_band, degree):
    # the momentum-linear part theta_k q_k conjugates to theta_k conj(q_k),
    # pointwise on the g grid; the lattice points flip sign
    rng = np.random.default_rng(5)
    gpw = S.make_g_space(group, g_band, quad_degree=degree)
    n_dirs = 1 if group == G.U1 else 3
    pts = rng.integers(-2, 3, size=(3, n_dirs))
    cs = rng.standard_normal((3, gpw.dim)) + 1j * rng.standard_normal(
        (3, gpw.dim))
    poly = {k: rng.standard_normal(gpw.dim) + 1j * rng.standard_normal(
        gpw.dim) for k in range(n_dirs)}
    s = L.LocalSymbol(group, 0.3, pts, cs, gpw, poly)
    c = s.conjugated()
    assert np.array_equal(c.points, -s.points)
    assert set(c.poly) == set(s.poly)
    for k, v in s.poly.items():
        assert np.abs(gpw.synthesis(c.poly[k])
                      - np.conj(gpw.synthesis(v))).max() < 1e-12


# ---------------------------------------------------------------------------
# lattice-point layout: (P, n_dirs) points on both groups
# ---------------------------------------------------------------------------

# Test-side oracles: the per-group routes the layout replaced, with U(1)
# points of shape (P,) and SU(2) points of shape (P, 3).

def _merge_lattice_per_group(group, pts, coeffs):
    seen = {}
    out_p, out_c = [], []
    for p, c in zip(pts, coeffs):
        key = tuple(int(x) for x in p)
        if key in seen:
            out_c[seen[key]] = out_c[seen[key]] + c
        else:
            seen[key] = len(out_p)
            out_p.append(p)
            out_c.append(c.copy())
    out_p = np.array(out_p)
    return (out_p[:, 0] if group == G.U1 else out_p), np.array(out_c)


def _lie_poisson_eps_tensor(a, b, g_pw_out):
    eps_t = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps_t[i, j, k] = 1.0
        eps_t[i, k, j] = -1.0
    poly = {}
    for m in range(3):
        tot = None
        for k in range(3):
            for l in range(3):
                if eps_t[k, l, m] == 0 or k not in a.poly or l not in b.poly:
                    continue
                c = eps_t[k, l, m] * L._coeff_products(
                    a.g_pw, a.poly[k], b.g_pw, b.poly[l], g_pw_out)[0, 0]
                tot = c if tot is None else tot + c
        if tot is not None:
            poly[m] = -tot
    return poly


def _haar_jacobian_sq_per_group(group, Y):
    if group == G.U1:
        return np.ones(np.shape(Y)[:-1] if np.ndim(Y) > 1 else np.shape(Y))
    h = np.linalg.norm(np.atleast_2d(Y), axis=-1)
    out = np.ones_like(h)
    nz = h > 1e-12
    out[nz] = (np.sin(h[nz] / 2.0) / (h[nz] / 2.0)) ** 2
    return out


def _crand(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_local(group, g_pw, rng):
    """Random symbol of six points drawn from the box |p_i| <= 2, so that
    points repeat; U(1) points given as a 1-D array."""
    n = 1 if group == G.U1 else 3
    pts = rng.integers(-2, 3, size=(6, n))
    return L.LocalSymbol(group, 0.3, pts[:, 0] if n == 1 else pts,
                         _crand(rng, 6, g_pw.dim), g_pw)


@pytest.fixture(scope="module")
def layout_spaces():
    return {G.U1: (S.make_g_space(G.U1, 2, quad_degree=20),
                   S.make_g_space(G.U1, 4, quad_degree=20)),
            G.SU2: (S.make_g_space(G.SU2, 1, quad_degree=4),
                    S.make_g_space(G.SU2, 2, quad_degree=5))}


@pytest.mark.parametrize("group", [G.U1, G.SU2])
def test_local_symbol_rejects_coefficients_that_do_not_fit(
        layout_spaces, group):
    # two points with one coefficient row used to build, and a product
    # with a symbol of one point and two rows paired mismatched rows
    gpw, _ = layout_spaces[group]
    pts = np.zeros((2, 1 if group == G.U1 else 3), int)
    pts[1, 0] = 1
    for rows, width in ((1, gpw.dim), (3, gpw.dim), (2, gpw.dim + 1)):
        with pytest.raises(ValueError, match=r"2 points and g_pw.dim = %d "
                           r"need \(2, %d\)" % (gpw.dim, gpw.dim)):
            L.LocalSymbol(group, 0.5, pts, np.zeros((rows, width)), gpw)
    for q in (np.zeros(gpw.dim + 1), np.zeros((1, gpw.dim))):
        with pytest.raises(ValueError, match=r"poly\[0\] .* needs \(%d,\)"
                           % gpw.dim):
            L.LocalSymbol(group, 0.5, pts, np.zeros((2, gpw.dim)), gpw,
                          {0: q})
    # a symbol of no points has no coefficient rows, and so has a sum of two
    empty = L.LocalSymbol(group, 0.5, pts[:0], np.zeros((0, gpw.dim)), gpw)
    assert L.symbol_add(empty, empty).coeffs.shape == (0, gpw.dim)


def test_u1_points_either_shape(layout_spaces):
    gpw, _ = layout_spaces[G.U1]
    pw = PWSpace(G.U1, 10, quad_degree=30)
    rng = np.random.default_rng(151)
    cs = _crand(rng, 5, gpw.dim)
    flat = L.LocalSymbol(G.U1, 0.4, np.arange(-2, 3), cs, gpw)
    column = L.LocalSymbol(G.U1, 0.4, np.arange(-2, 3)[:, None], cs, gpw)
    assert flat.points.shape == column.points.shape == (5, 1)
    assert np.array_equal(flat.points, column.points)
    assert np.array_equal(flat.coeffs, column.coeffs)
    for variant in (L.KN, L.WEYL):
        assert np.array_equal(L.local_quantize(flat, 0.5, pw, variant),
                              L.local_quantize(column, 0.5, pw, variant))


@pytest.mark.parametrize("group", [G.U1, G.SU2])
def test_operations_keep_layout(group, layout_spaces):
    gpw, gout = layout_spaces[group]
    rng = np.random.default_rng(152)
    n = 1 if group == G.U1 else 3
    a, b = (_random_local(group, gpw, rng) for _ in range(2))
    # the bracket needs parallel momentum support on SU(2): the z axis
    za, zb = a, b
    if group == G.SU2:
        zpts = np.array([[0, 0, -1], [0, 0, 0], [0, 0, 1], [0, 0, 1]])
        za, zb = (L.LocalSymbol(G.SU2, 0.3, zpts, _crand(rng, 4, gpw.dim),
                                gpw) for _ in range(2))
    for out in (L.symbol_add(a, b), L.symbol_product(a, b, gout),
                L.poisson_bracket(za, zb, gout)):
        assert out.points.ndim == 2 and out.points.shape[1] == n
        assert len(np.unique(out.points, axis=0)) == len(out.points)
        assert len(out.coeffs) == len(out.points)


@pytest.mark.parametrize("group", [G.U1, G.SU2])
def test_merge_matches_per_group_oracle(group, layout_spaces):
    gpw, gout = layout_spaces[group]
    rng = np.random.default_rng(153)
    n = 1 if group == G.U1 else 3
    for _ in range(5):
        a, b = (_random_local(group, gpw, rng) for _ in range(2))
        pts, coeffs = _merge_lattice_per_group(
            group, np.concatenate([a.points, b.points]),
            np.concatenate([a.coeffs, b.coeffs]))
        out = L.symbol_add(a, b)
        assert np.array_equal(out.points, pts.reshape(-1, n))
        assert _max_rel(coeffs, out.coeffs) < 1e-14
        prod = (a.points[:, None] + b.points[None, :]).reshape(-1, n)
        cp = L._coeff_products(a.g_pw, a.coeffs, b.g_pw, b.coeffs, gout)
        pts, coeffs = _merge_lattice_per_group(group, prod,
                                               cp.reshape(len(prod), -1))
        out = L.symbol_product(a, b, gout)
        assert np.array_equal(out.points, pts.reshape(-1, n))
        assert _max_rel(coeffs, out.coeffs) < 1e-14


def test_lie_poisson_matches_eps_tensor(layout_spaces):
    gpw, gout = layout_spaces[G.SU2]
    rng = np.random.default_rng(154)
    zero = np.zeros((1, 3), int)
    zvals = np.zeros((1, gpw.dim), complex)
    for ka, kb in (((0,), (1,)), ((0, 1, 2), (0, 1, 2)), ((2,), (0, 1)),
                   ((1, 2), (1,))):
        a = L.LocalSymbol(G.SU2, 0.5, zero, zvals, gpw,
                          {k: _crand(rng, gpw.dim) for k in ka})
        b = L.LocalSymbol(G.SU2, 0.5, zero, zvals, gpw,
                          {k: _crand(rng, gpw.dim) for k in kb})
        oracle = _lie_poisson_eps_tensor(a, b, gout)
        out = L._lie_poisson_part(a, b, gout)
        assert out.g_pw is gout
        assert np.array_equal(out.points, zero)
        assert not np.any(out.coeffs)
        assert set(out.poly) == set(oracle)
        for m, v in oracle.items():
            assert _max_rel(v, out.poly[m]) < 1e-14


@pytest.mark.parametrize("group", [G.U1, G.SU2])
def test_haar_jacobian_matches_per_group_oracle(group):
    rng = np.random.default_rng(155)
    n = 1 if group == G.U1 else 3
    Y = rng.uniform(-3.0, 3.0, size=(40, n))
    Y[:3] *= np.array([0.0, 1e-14, 1e-13])[:, None]
    got = group.haar_density(Y)
    assert got.shape == (40,)
    assert np.abs(got - _haar_jacobian_sq_per_group(group, Y)).max() < 1e-14


def test_haar_jacobian_below_cutoff():
    # below |X| = 1e-12 j^2 is its limit 1; above it sin(h/2)/(h/2) squared,
    # which agrees with 1 - h^2/12 there to rounding
    tiny = np.array([[0.0, 0.0, 0.0], [1e-13, 0.0, 0.0], [3e-13, -4e-13, 0.0],
                     [0.0, 0.0, 2e-12], [1e-7, 0.0, 0.0]])
    got = G.SU2.haar_density(tiny)
    assert np.array_equal(got[:3], np.ones(3))
    assert np.all(np.isfinite(got))
    h = np.linalg.norm(tiny, axis=1)
    assert np.abs(got - (1.0 - h ** 2 / 12.0)).max() < 1e-15
    assert np.array_equal(G.U1.haar_density(tiny[:, :1]), np.ones(5))


def test_su2_injectivity_uses_the_norm():
    # U = exp^{-1}(SU(2) \ {-1}) is the ball |Y| < 2 pi: |(5, 5, 0)| = 7.07
    # leaves it although every component is below 2 pi
    gpw = S.make_g_space(G.SU2, 1, quad_degree=4)
    gout = S.make_g_space(G.SU2, 2, quad_degree=5)
    ones = np.ones((1, gpw.dim), complex)
    with pytest.raises(L.SymbolClassError):
        L.LocalSymbol(G.SU2, 1.0, [[5, 5, 0]], ones, gpw)
    a = L.LocalSymbol(G.SU2, 1.0, [[5, 0, 0]], ones, gpw)
    b = L.LocalSymbol(G.SU2, 1.0, [[0, 5, 0]], ones, gpw)
    with pytest.raises(L.SymbolClassError):
        L.symbol_product(a, b, gout)
    L.LocalSymbol(G.SU2, 1.0, [[4, 4, 0]], ones, gpw)   # |Y| = 5.66 inside


@pytest.mark.parametrize("op", [L.symbol_product, L.poisson_bracket])
def test_mixed_lattice_steps_raise(op, layout_spaces):
    # steps 0.2 and 0.3 at the points 1 and 1: the product's momentum is
    # 0.5, which no point of either lattice holds
    gpw, gout = layout_spaces[G.U1]
    ones = np.ones((1, gpw.dim), complex)
    a = L.LocalSymbol(G.U1, 0.2, [1], ones, gpw)
    b = L.LocalSymbol(G.U1, 0.3, [1], ones, gpw)
    with pytest.raises(L.SymbolClassError, match="incompatible lattice"):
        op(a, b, gout)


def _theta_theta(group, pw, k, l, eps, h):
    """Q_eps(theta_k theta_l) = -d_k d_l Q_eps(e^{-i theta(Y)}) at Y = 0:
    central second differences of local_quantize at Y = +-h e_k +- h e_l
    (+-2h e_k and 0 when k = l), Richardson-extrapolated from h and h/2."""
    g_pw = S.make_g_space(group, 1, 4)
    one = g_pw.analysis(np.ones(g_pw.quad.n_nodes))[None]

    def second_difference(step):
        out = 0.0
        for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            p = np.zeros(group.n_dirs, int)
            p[k] += a
            p[l] += b
            s = L.LocalSymbol(group, step, p[None], one, g_pw)
            out = out + a * b * L.local_quantize(s, eps, pw, L.KN)
        return -out / (4 * step * step)

    return (4 * second_difference(h / 2) - second_difference(h)) / 3


@pytest.mark.parametrize("group", [G.U1, G.SU2])
def test_kinetic_term_identity(group):
    # Q_eps(theta_k theta_l) = eps^2 (-(R_k R_l + R_l R_k) / 2 + delta_kl c)
    # with c = -d_k d_l j^2(0): 1/6 for j^2 = (sin(|Y|/2) / (|Y|/2))^2 on
    # SU(2), 0 for j^2 = 1 on U(1); summed over k, eps^2 (C + 1/2) on SU(2)
    # and eps^2 n^2 on U(1), C the Casimir of the irrep n
    pw = PWSpace(group, 3 if group == G.SU2 else 4)
    eps, c = 0.5, (1.0 / 6.0 if group == G.SU2 else 0.0)
    R = [pw.right_derivative(k) for k in range(group.n_dirs)]
    total = 0.0
    for k in range(group.n_dirs):
        for l in range(k, group.n_dirs):
            Q = _theta_theta(group, pw, k, l, eps, 1e-3)
            expect = eps ** 2 * (-(R[k] @ R[l] + R[l] @ R[k]) / 2
                                 + (k == l) * c * np.eye(pw.dim))
            assert np.abs(Q - expect).max() < 1e-8 * np.abs(expect).max()
            total = total + (k == l) * Q
    casimir = np.array([G.casimir(group, lab) for lab, _, _ in pw.index])
    expect = eps ** 2 * np.diag(casimir + group.n_dirs * c)
    assert np.abs(total - expect).max() < 1e-8 * np.abs(expect).max()


def _binary_octahedral():
    """The 48 unit quaternions of the binary octahedral group: +-1, +-i,
    +-j, +-k, (+-1 +-i +-j +-k) / 2 and the 24 with two entries +-1/sqrt 2.
    Their rotations map the cubic lattice to itself."""
    out = [s * e for e in np.eye(4) for s in (1, -1)]
    out += [np.array(s) / 2 for s in itertools.product((1, -1), repeat=4)]
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            q = np.zeros(4)
            q[[i, j]] = si / math.sqrt(2), sj / math.sqrt(2)
            out.append(q)
    return np.array(out)


def _left_translation(pw, h):
    """U_h, (U_h Psi)(g) = Psi(h^{-1} g), as the local calculus applies it:
    kron(conj D(h), 1) blocks by _kron_rows."""
    blocks = [D.conj() for D in pw._reps(np.asarray(h)[None])]
    return pw._kron_rows(blocks, np.eye(pw.dim)[None])[0]


@pytest.mark.parametrize("group", [G.U1, G.SU2])
def test_local_calculus_is_covariant(group):
    # U_h Q(m e^{-i theta(Y)}) U_h^* = Q(m(h^{-1} .) e^{-i theta(Ad_h Y)}):
    # on SU(2) for the binary octahedral group, whose Ad maps the lattice
    # to itself; on U(1), where Ad_h = 1, for a few angles
    rng = np.random.default_rng(36)
    if group == G.SU2:
        g_pw, pw = S.make_g_space(G.SU2, 2, 5), PWSpace(G.SU2, 4, 6)
        hs, step = _binary_octahedral(), 0.5
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, -1, 1], [1, 1, -1]])
    else:
        g_pw, pw = S.make_g_space(G.U1, 2, 10), PWSpace(G.U1, 8, 20)
        hs, step = np.array([0.3, 1.7, -2.4, math.pi]), 0.4
        pts = np.arange(-2, 3)[:, None]
    assert len(hs) == (48 if group == G.SU2 else 4)
    s = L.LocalSymbol(group, step, pts, _crand(rng, len(pts), g_pw.dim), g_pw)
    Q = {v: L.local_quantize(s, 0.7, pw, v) for v in (L.KN, L.WEYL)}
    for h in hs:
        if group == G.SU2:
            Y = G.quat_log(G.quat_mul(G.quat_mul(h, G.quat_exp(
                s.lattice())), G.quat_inv(h)))
            moved = np.rint(Y / step).astype(int)
            assert np.abs(Y - step * moved).max() < 1e-12
        else:
            moved = pts
        Ug = _left_translation(g_pw, h)
        sh = L.LocalSymbol(group, step, moved, s.coeffs @ Ug.T, g_pw)
        U = _left_translation(pw, h)
        for v, Qv in Q.items():
            got = U @ Qv @ U.conj().T
            assert (np.abs(got - L.local_quantize(sh, 0.7, pw, v)).max()
                    < 1e-13 * np.abs(Qv).max())
