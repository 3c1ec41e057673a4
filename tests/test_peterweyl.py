"""Peter-Weyl transforms against the dense basis, and their cost at large
bands."""

import tracemalloc

import numpy as np
import pytest

from groupquant import groups as G
from groupquant.peterweyl import PWSpace, space
from oracles import rep_grid

# (group, band, quad_degree) of every space the CLI and the benchmark
# build, next to bands 1-8 at their default degree
SPACES = [
    *[(G.U1, b, None) for b in range(1, 9)],
    *[(G.SU2, b, None) for b in range(1, 9)],
    (G.U1, 1, 30), (G.U1, 4, 30), (G.U1, 4, 40), (G.U1, 22, 60),
    (G.U1, 28, 80), (G.U1, 5, 2),
    (G.SU2, 2, 5), (G.SU2, 2, 6), (G.SU2, 3, 6), (G.SU2, 5, 6),
    (G.SU2, 3, 8), (G.SU2, 5, 8), (G.SU2, 8, 9), (G.SU2, 8, 10),
    (G.SU2, 12, 14), (G.SU2, 4, 3),
]


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("group,band,degree", SPACES)
def test_pw_transforms_dense_oracle(group, band, degree):
    pw = PWSpace(group, band, quad_degree=degree)
    rng = np.random.default_rng(band)
    # the dense sums _EW @ v and E @ c; (G.U1, 5, 2) and (G.SU2, 4, 3)
    # alias, so the agreement does not rest on band-limited data. 40
    # columns exceed every n_gamma here: the other order of the SU(2) sums
    for tail in [(), (3,), (2, 2), (40,)]:
        v = _crandn(rng, pw.quad.n_nodes, *tail)
        c = _crandn(rng, pw.dim, *tail)
        got = pw.analysis(v)
        assert got.shape == (pw.dim,) + tail
        assert _rel(got, np.tensordot(pw._EW, v, axes=(1, 0))) < 1e-12
        got = pw.synthesis(c)
        assert got.shape == (pw.quad.n_nodes,) + tail
        assert _rel(got, np.tensordot(pw.E, c, axes=(1, 0))) < 1e-12


@pytest.mark.parametrize("degree", [9, 10])
def test_pw_transforms_many_columns(degree):
    # 204 columns, as kn_quantize transforms at band 8, run over several
    # blocks of beta nodes
    pw = PWSpace(G.SU2, 8, quad_degree=degree)
    assert len(pw._beta_blocks(pw.dim)) > 1
    rng = np.random.default_rng(degree)
    v = _crandn(rng, pw.quad.n_nodes, pw.dim)
    c = _crandn(rng, pw.dim, pw.dim)
    assert _rel(pw.analysis(v), pw._EW @ v) < 1e-12
    assert _rel(pw.synthesis(c), pw.E @ c) < 1e-12


def _roundtrip(pw, rng):
    c = _crandn(rng, pw.dim, 4)
    return _rel(pw.analysis(pw.synthesis(c)), c)


def test_pw_band12_builds_no_dense_basis():
    pw = PWSpace(G.SU2, 12)
    assert _roundtrip(pw, np.random.default_rng(12)) < 1e-12
    assert not {"E", "_EW", "_shift"} & set(pw.__dict__)


def test_pw_band16_roundtrip_memory():
    tracemalloc.start()
    try:
        pw = PWSpace(G.SU2, 16)
        err = _roundtrip(pw, np.random.default_rng(16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err < 1e-12
    assert peak < 50e6


def test_pw_band24_roundtrip():
    pw = PWSpace(G.SU2, 24)
    assert pw.dim == 4900
    assert _roundtrip(pw, np.random.default_rng(24)) < 1e-12


@pytest.mark.parametrize("group,band,degree", SPACES)
def test_conjugation_map(group, band, degree):
    # conj(e_i) = s_i e_ibar at every node, so the analysis of conjugated
    # grid values is read off the map even where (G.U1, 5, 2) and
    # (G.SU2, 4, 3) alias
    pw = PWSpace(group, band, quad_degree=degree)
    bar, s = pw._dual_index, pw._dual_sign
    assert np.array_equal(bar[bar], np.arange(pw.dim))
    assert np.array_equal(s[bar], s)
    assert _rel(s * pw.E[:, bar], pw.E.conj()) < 1e-14
    v = _crandn(np.random.default_rng(band), pw.quad.n_nodes, 3)
    assert _rel(s[:, None] * pw.analysis(v)[bar].conj(),
                pw.analysis(v.conj())) < 1e-14


@pytest.mark.parametrize("group,band,degree", SPACES)
def test_band_mask_matches_index_loop(group, band, degree):
    pw = PWSpace(group, band, quad_degree=degree)
    for b in range(band + 2):
        assert np.array_equal(pw.band_mask(b), np.array(
            [abs(lab) <= b for lab, _, _ in pw.index]))


@pytest.mark.parametrize("group,band", [
    (group, band) for group in (G.U1, G.SU2) for band in range(1, 17)])
def test_rep_products_oracle(group, band):
    # against the irreps of wigner_D_euler_grid at the grid's Euler angles
    # (U(1): the exponential): D(g) v(g) and v(g)^T conj(D(g)) for one
    # stack of every label on a coarse grid, since the products are taken
    # node by node; and D, the product with the identity, label by label
    # on the space's own grid
    coarse = PWSpace(group, band, quad_degree=3)
    N = coarse.quad.n_nodes
    v = _crandn(np.random.default_rng(band), N, coarse.dim)
    left, right = coarse._rep_products(v, coarse.labels), (
        coarse._rep_products(v, coarse.labels, conj=True))
    for lab in coarse.labels:
        D, d = rep_grid(coarse.quad, lab), group.dim(lab)
        blk = slice(coarse.offsets[lab], coarse.offsets[lab] + d * d)
        V = v[:, blk].reshape(N, d, d)
        assert _rel(left[:, blk].reshape(N, d, d), D @ V) < 1e-13
        assert _rel(right[:, blk].reshape(N, d, d),
                    np.swapaxes(V, 1, 2) @ D.conj()) < 1e-13
    pw = PWSpace(group, band)
    for lab in pw.labels:
        d = group.dim(lab)
        eye = np.broadcast_to(np.eye(d).ravel(), (pw.quad.n_nodes, d * d))
        assert np.abs(pw._rep_products(eye, [lab]).reshape(-1, d, d)
                      - rep_grid(pw.quad, lab)).max() < 1e-14


def test_space_is_memoised():
    pw = space(G.SU2, 3, 6)
    assert space(G.SU2, 3, 6) is pw
    assert pw.band == 3 and pw.quad.exactness_degree == 6
    assert space(G.SU2, 3, 7) is not pw
