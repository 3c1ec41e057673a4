"""Wigner D-matrices and angular momentum operators for SU(2).

Conventions used throughout the package:
  * spin j = (n-1)/2 for the n-dimensional irrep, weight basis ordered
    m = j, j-1, ..., -j (highest weight first);
  * group elements act through D^j(g) with D^j(exp(theta*tau_z)) =
    diag(e^{-i m theta}), tau_k = -i sigma_k / 2;
  * ZYZ Euler angles: g = exp(alpha tau_z) exp(beta tau_y) exp(gamma tau_z),
    D^j_{m'm} = e^{-i m' alpha} d^j_{m'm}(beta) e^{-i m gamma}.

Wigner d comes from the spectrum of J_y (`_kernels.wigner_d_grid`) and
(Jx, Jy, Jz) from the same J_+ ladder.
"""

import numpy as np

from ._kernels import _raising, wigner_d_grid


def angular_momentum(twoj):
    """Hermitian (Jx, Jy, Jz) in the m = j..-j basis."""
    jp = _raising(twoj)
    jx = (jp + jp.T) / 2.0
    jy = (jp - jp.T) / 2j
    jz = np.diag(np.arange(twoj, -twoj - 1, -2) / 2.0)
    return jx.astype(complex), jy, jz.astype(complex)


def su2_generator(twoj, k):
    """dpi(tau_k) = -i J_k for the basis tau_k = -i sigma_k/2."""
    return -1j * angular_momentum(twoj)[k]


def wigner_D_euler_grid(twoj, alpha, beta, gamma):
    """D^j for arrays of Euler triples -> (N, n, n)."""
    m = np.arange(twoj, -twoj - 1, -2) / 2.0
    d = wigner_d_grid(twoj, beta)
    pa = np.exp(-1j * np.multiply.outer(alpha, m))
    pg = np.exp(-1j * np.multiply.outer(gamma, m))
    return pa[:, :, None] * d * pg[:, None, :]
