"""U(1)-equivariant Berezin and Kohn-Nirenberg smoothing identities.

Works on the twisted Hilbert space with basis |j + j0>, j in Z, truncated
to |j| <= J. Coherent vectors at the phase-space point (phi, l) have
coefficients

    c_j(phi, l) = e^{j l} e^{-i j phi} e^{-t j j0} e^{-t j^2 / 2},

the annihilation operator is X_t = e^{-t/2} U(1) e^{-t J} with
X_t |xi, j0> = xi |xi, j0>, xi = e^{-l + i phi}, and the Berezin
quantization of a phase-space Fourier mode e^{i m phi} e^{i kappa l} has
the closed-form matrix

    (Q^B)_{j1, j1 - m} = exp(-t (j1^2 + j2^2)/2 + t (j1 + j2 + i kappa)^2/4
                             + i j0 t kappa),   j2 = j1 - m.

Its lower symbol is the heat-evolved mode e^{-t(m^2 + kappa^2)/2} f. The
Laurent mode xi^a xibar^b = e^{i (a - b) phi} e^{-(a + b) l} is the mode at
imaginary kappa = i (a + b), where the exponent above is term for term that
of the Laurent monomial; its lower symbol carries e^{2 t a b} instead.
"""

import math

import numpy as np

from ._kernels import _gauss_legendre
from .theta import theta3


class TwistedSpace:
    def __init__(self, t, j0=0.0):
        if t <= 0:
            raise ValueError("t must be positive")
        self.t = t
        self.j0 = j0 % 1.0
        self.J = int(math.ceil(math.sqrt(80.0 / t))) + 8
        self.js = np.arange(-self.J, self.J + 1)

    @property
    def dim(self):
        return 2 * self.J + 1

    def _band(self, m, logs):
        """Matrix with exp(logs) at (j1, j1 - m), logs given at every row
        label j1; rows whose column j1 - m is out of range stay zero."""
        logs = logs[max(m, 0):self.dim + min(m, 0)]
        return np.diag(np.exp(logs + 0j), -m)[:self.dim, :self.dim]

    def coherent_coeffs(self, phi, l):
        """c_j(phi, l), shape (..., dim) for arrays phi, l of one shape."""
        j, t, j0 = self.js, self.t, self.j0
        phi, l = np.asarray(phi)[..., None], np.asarray(l)[..., None]
        return np.exp(j * l - 1j * j * phi - t * j * j0 - t * j * j / 2.0)

    def annihilation(self):
        """X_t = e^{-t/2} U(1) e^{-tJ}: shifts |j+j0> up with weight."""
        return self._band(1, -self.t / 2.0 - self.t * (self.js - 1 + self.j0))

    def lower_symbol(self, A, phi, l):
        """<c, A c> / <c, c> at (phi, l), elementwise over arrays."""
        c = self.coherent_coeffs(phi, l)
        return ((c.conj() * (c @ A.T)).sum(-1)
                / (c.conj() * c).real.sum(-1))[()]

    # -- Berezin quantization -------------------------------------------------

    def berezin_mode(self, m, kappa):
        """Closed-form Q^B of f(phi', l') = e^{i m phi'} e^{i kappa l'}; at
        kappa = i (a + b), m = a - b it is Q^B(xi^a xibar^b)."""
        t, j0, j1 = self.t, self.j0, self.js
        return self._band(m, -t * (j1 * j1 + (j1 - m) ** 2) / 2.0 + t * (
            2 * j1 - m + 1j * kappa) ** 2 / 4.0 + 1j * j0 * t * kappa)

    def berezin_mode_quadrature(self, m, kappa):
        """Q^B of the same mode by explicit (phi', l') quadrature.

        Independent route for the closed form: uniform angle grid times
        Gauss-Legendre on a 24-sigma momentum window with the twisted
        Gaussian weight e^{-(l' - j0 t)^2/t} / sqrt(pi t): 4J + |m| + 8
        angles and 220 momentum nodes.
        """
        t, j0 = self.t, self.j0
        n_phi = 4 * self.J + abs(m) + 8
        phis = 2 * math.pi * np.arange(n_phi) / n_phi
        half = 12.0 * math.sqrt(t) + abs(self.js).max() * t
        x, w = _gauss_legendre(220)
        ls = j0 * t + half * x
        wl = w * half * np.exp(-(ls - j0 * t) ** 2 / t) / math.sqrt(math.pi * t)
        cj = np.exp(np.outer(self.js, ls) - t * self.js[:, None] * j0
                    - t * self.js[:, None] ** 2 / 2.0)
        ph = np.exp(-1j * np.outer(self.js, phis))
        fphi = np.exp(1j * m * phis) / n_phi
        fl = np.exp(1j * kappa * ls) * wl
        # A = sum_{phi', l'} f |c><c|: the phi' and l' sums factor
        Aphi = (ph * fphi) @ ph.conj().T
        return ((cj * fl) @ cj.T) * Aphi

    def heat_multiplier_residual(self, m, kappa, samples):
        """max | L_{Q^B(mode)} - e^{-t(m^2+kappa^2)/2} mode | over samples."""
        phi, l = np.asarray(samples, float).reshape(-1, 2).T
        lhs = self.lower_symbol(self.berezin_mode(m, kappa), phi, l)
        rhs = (math.exp(-self.t * (m * m + kappa * kappa) / 2.0)
               * np.exp(1j * m * phi + 1j * kappa * l))
        return np.abs(lhs - rhs).max(initial=0.0)

    # -- Wick / anti-Wick relation -------------------------------------------

    def wick_residuals(self, a, b, samples):
        """(anti-Wick identification, Wick multiplier) residuals.

        Checks Q^B(xi^a xibar^b) == X^a (X*)^b and the lower-symbol
        relation L = e^{2 t a b} xi^a xibar^b.
        """
        A = self.berezin_mode(a - b, 1j * (a + b))
        X = self.annihilation()
        B = np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(
            X.conj().T, b)
        # interior block (power chains truncate at the edges), entrywise
        # relative: the entries span many orders of magnitude
        sl = slice(a + b, self.dim - a - b)
        num = np.abs(A - B)[sl, sl]
        den = np.abs(A)[sl, sl] + np.abs(B)[sl, sl] + 1e-300
        r1 = (num / den).max()
        phi, l = np.asarray(samples, float).reshape(-1, 2).T
        xi = np.exp(-l + 1j * phi)
        lhs = self.lower_symbol(A, phi, l)
        rhs = math.exp(2 * self.t * a * b) * xi ** a * np.conj(xi) ** b
        return r1, (np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)).max(
            initial=0.0)

    # -- Kohn-Nirenberg smoothing ---------------------------------------------

    def kn_operator(self, modes):
        """A_{sigma,t} for sigma_t(phi, k) = sum s e^{i m phi}
        e^{i kappa t (k + j0)}: matrix <j+m| A |j> = sum s e^{i kappa t (j+j0)}."""
        t, j0 = self.t, self.j0
        return sum((s * self._band(m, 1j * kappa * t * (self.js - m + j0))
                    for (m, kappa, s) in modes),
                   np.zeros((self.dim, self.dim), dtype=complex))

    def kn_lower_symbol_formula(self, modes, phi, l):
        """Gaussian-sum formula for L^t_{A_{sigma,t}} at (phi, l):

        sqrt(2)/(2 pi theta3) sum_k int dphi' sigma_t(phi',k)
          e^{-((l - t(k+j0))^2 + (phi-phi')^2)/(2t)}
          e^{i (phi - phi')(l - t(k+j0))/t},

        with the phi'-integral done in closed form per mode, elementwise
        over arrays phi, l.
        """
        t, j0 = self.t, self.j0
        phi, l = np.asarray(phi, float), np.asarray(l, float)
        th = theta3((l / t - j0), 1j * math.pi / t).real
        kwin = int(math.ceil((np.abs(l).max() + 14 * math.sqrt(t)) / t)) + 2
        tk = t * (np.arange(-kwin, kwin + 1) + j0)
        mom = l[..., None] - tk
        # the phi' integral is sqrt(2 pi t) e^{i m phi - t (m - mom/t)^2/2}
        total = sum(s * np.exp(
            1j * kappa * tk - mom * mom / (2 * t)
            + 1j * m * phi[..., None] - t * (m - mom / t) ** 2 / 2.0).sum(-1)
            for (m, kappa, s) in modes)
        return (math.sqrt(t / math.pi) / th * total)[()]
