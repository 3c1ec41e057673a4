"""Wigner D-matrices and Clebsch-Gordan coefficients for SU(2).

Conventions used throughout the package:
  * spin j = (n-1)/2 for the n-dimensional irrep, weight basis ordered
    m = j, j-1, ..., -j (highest weight first);
  * group elements act through D^j(g) with D^j(exp(theta*tau_z)) =
    diag(e^{-i m theta}), tau_k = -i sigma_k / 2;
  * ZYZ Euler angles: g = exp(alpha tau_z) exp(beta tau_y) exp(gamma tau_z),
    D^j_{m'm} = e^{-i m' alpha} d^j_{m'm}(beta) e^{-i m gamma};
  * Clebsch-Gordan coefficients in the Condon-Shortley phase.

Wigner d comes from the spectrum of J_y (`_kernels.wigner_d_grid`) and
(Jx, Jy, Jz) from the same J_+ ladder; Clebsch-Gordan coefficients are
Racah's sum in exact integers, rounded once.
"""

import math

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


def _is_half_integer(x, tol=1e-9):
    return abs(2 * x - round(2 * x)) < tol


def clebsch_gordan(j1, j2, j3, m1, m2, m3):
    """<j1 m1 j2 m2 | j3 m3> in the Condon-Shortley convention."""
    for x in (j1, j2, j3, m1, m2, m3):
        if not _is_half_integer(x):
            raise ValueError("angular momenta must be (half-)integers: %r" % (x,))
    if abs(m1) > j1 + 1e-9 or abs(m2) > j2 + 1e-9 or abs(m3) > j3 + 1e-9:
        raise ValueError("|m| exceeds j")
    two = lambda x: int(round(2 * x))
    tj1, tj2, tj3 = two(j1), two(j2), two(j3)
    tm1, tm2, tm3 = two(m1), two(m2), two(m3)
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj3 + tm3) % 2:
        raise ValueError("m must have the same parity as j")
    if tm1 + tm2 != tm3:
        return 0.0
    if tj3 > tj1 + tj2 or tj3 < abs(tj1 - tj2) or (tj1 + tj2 + tj3) % 2:
        return 0.0

    # Racah's formula in exact integers, CG = sign(S) sqrt(P S^2) rounded
    # once: S = sum_k (-1)^k / (k! (a-k)! (b-k)! (c-k)! (e+k)! (g+k)!) is
    # summed over the common denominator M, the product of the largest
    # of each factorial, which every term's denominator divides
    f = math.factorial
    a, b, c = (tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    e, g = (tj3 - tj2 + tm1) // 2, (tj3 - tj1 - tm2) // 2
    kmin, kmax = max(0, -e, -g), min(a, b, c)
    M = (f(kmax) * f(a - kmin) * f(b - kmin) * f(c - kmin) * f(e + kmax)
         * f(g + kmax))
    s = sum((-1) ** k * (M // (f(k) * f(a - k) * f(b - k) * f(c - k)
                               * f(e + k) * f(g + k)))
            for k in range(kmin, kmax + 1))
    h = lambda twice: f(twice // 2)
    p_num = ((tj3 + 1) * h(tj3 + tj1 - tj2) * h(tj3 - tj1 + tj2) * f(a)
             * h(tj3 + tm3) * h(tj3 - tm3) * h(tj1 - tm1) * h(tj1 + tm1)
             * h(tj2 - tm2) * h(tj2 + tm2))
    p_den = h(tj1 + tj2 + tj3 + 2)
    return math.copysign(math.sqrt(p_num * s * s / (p_den * M * M)), s)
