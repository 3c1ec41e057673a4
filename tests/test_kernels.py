"""_kernels against independent oracles (scipy expm and direct sums)."""

import numpy as np
from scipy.linalg import expm

from groupquant import _kernels as K
from groupquant.wigner import su2_generator


def test_wigner_kernel_oracle():
    beta = np.array([0.0, 0.31, 1.2, np.pi])
    for twoj in (1, 2, 5, 12):
        d = K.wigner_d_grid(twoj, beta)
        for i, b in enumerate(beta):
            ref = expm(b * su2_generator(twoj, 1)).real
            assert np.abs(d[i] - ref).max() < 1e-12


def test_itn_denominator_oracle():
    p = np.array([0.4, 1.7])
    t, mmax = 1.3, 25
    ref = np.array([sum(m * np.exp(-(pp - t * m / 2.0) ** 2 / t)
                        for m in range(-mmax, mmax + 1)) for pp in p])
    assert np.abs(K.itn_denominator(p, t, mmax) - ref).max() < 1e-14


def test_norm_series_oracle():
    h, t, nmax = 1.3, 0.8, 40
    ref = sum(n * np.exp(-t * (n * n - 1) / 4.0)
              * np.sinh(n * h) / np.sinh(h) for n in range(1, nmax + 1))
    val = K.su2_norm_series(np.array([h]), t, nmax)[0]
    assert abs(val - ref) < 1e-12 * ref
    # stable small-h limit: value n^2-weighted sum
    v0 = K.su2_norm_series(np.array([0.0]), t, nmax)[0]
    ref0 = sum(n * n * np.exp(-t * (n * n - 1) / 4.0)
               for n in range(1, nmax + 1))
    assert abs(v0 - ref0) < 1e-12 * ref0
