"""Wigner D-matrices and Clebsch-Gordan coefficients for SU(2).

Conventions used throughout the package:
  * spin j = (n-1)/2 for the n-dimensional irrep, weight basis ordered
    m = j, j-1, ..., -j (highest weight first);
  * group elements act through D^j(g) with D^j(exp(theta*tau_z)) =
    diag(e^{-i m theta}), tau_k = -i sigma_k / 2;
  * ZYZ Euler angles: g = exp(alpha tau_z) exp(beta tau_y) exp(gamma tau_z),
    D^j_{m'm} = e^{-i m' alpha} d^j_{m'm}(beta) e^{-i m gamma};
  * Clebsch-Gordan coefficients in the Condon-Shortley phase.
"""

import math

import numpy as np

from ._kernels import wigner_d_grid


def angular_momentum(twoj):
    """Hermitian (Jx, Jy, Jz) in the m = j..-j basis."""
    j = twoj / 2.0
    m = np.arange(twoj, -twoj - 1, -2) / 2.0
    n = twoj + 1
    jp = np.zeros((n, n))
    for k in range(1, n):
        mm = m[k]  # J+ |j m> = sqrt(j(j+1)-m(m+1)) |j m+1>
        jp[k - 1, k] = math.sqrt(j * (j + 1) - mm * (mm + 1))
    jm = jp.T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2j
    jz = np.diag(m).astype(complex)
    return jx.astype(complex), jy.astype(complex), jz


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


_LOGFACT = [0.0]


def _logfact(n):
    while len(_LOGFACT) <= n:
        _LOGFACT.append(_LOGFACT[-1] + math.log(len(_LOGFACT)))
    return _LOGFACT[n]


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

    # Racah's formula, accumulated with log-factorials
    def lf(twice):
        if twice % 2 or twice < 0:
            raise ValueError("negative or non-integer factorial argument")
        return _logfact(twice // 2)

    pref = 0.5 * (math.log(tj3 + 1.0)
                  + lf(tj3 + tj1 - tj2) + lf(tj3 - tj1 + tj2)
                  + lf(tj1 + tj2 - tj3) - lf(tj1 + tj2 + tj3 + 2)
                  + lf(tj3 + tm3) + lf(tj3 - tm3)
                  + lf(tj1 - tm1) + lf(tj1 + tm1)
                  + lf(tj2 - tm2) + lf(tj2 + tm2))
    kmin = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    kmax = min((tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = 0.0
    for k in range(kmin, kmax + 1):
        logden = (_logfact(k)
                  + lf(tj1 + tj2 - tj3 - 2 * k)
                  + lf(tj1 - tm1 - 2 * k)
                  + lf(tj2 + tm2 - 2 * k)
                  + lf(tj3 - tj2 + tm1 + 2 * k)
                  + lf(tj3 - tj1 - tm2 + 2 * k))
        term = math.exp(pref - logden)
        total += -term if k % 2 else term
    return total


def cg_matrix(twoj1, twoj2, twoj3):
    """CG block mapping V_{j3} into V_{j1} (x) V_{j2}.

    Returns C with C[(i1, i2), i3] = <j1 m1 j2 m2 | j3 m3>, indices in the
    m = j..-j ordering, first tensor index slowest.
    """
    n1, n2, n3 = twoj1 + 1, twoj2 + 1, twoj3 + 1
    out = np.zeros((n1 * n2, n3))
    for i1 in range(n1):
        m1 = (twoj1 - 2 * i1) / 2.0
        for i2 in range(n2):
            m2 = (twoj2 - 2 * i2) / 2.0
            m3 = m1 + m2
            if abs(m3) > twoj3 / 2.0 + 1e-9:
                continue
            i3 = int(round((twoj3 / 2.0 - m3)))
            out[i1 * n2 + i2, i3] = clebsch_gordan(
                twoj1 / 2.0, twoj2 / 2.0, twoj3 / 2.0, m1, m2, m3)
    return out
