"""Pseudo-differential calculus on rational lattices in the Bohr
compactification of the line.

States are finitely supported maps lambda -> C (the momentum or "volume"
representation); symbols are finite trigonometric polynomials in the
position with momentum-dependent coefficients,

    sigma(x, lam) = sum_nu c_nu(lam) e^{i nu x},

so that the partial Bohr transform is sigma_hat^1(lam', lam) = c_{-lam'}(lam)
and the Weyl-type quantization

    (A_sigma Phi)(lam) = sum_{lam'} sigma_hat^1((lam - lam')/eps,
                                               (lam + lam')/2) Phi(lam')

is an exact finite sum. Frequency and support keys are exact rationals
(fractions.Fraction; a float key converts without rounding, and a float
lookup finds the equal Fraction key), so sums of lattice points agree
exactly whatever route forms them; coefficient callables receive floats.
Equivariant symbols carry their rational lattice explicitly.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def _accumulate(coeffs, nu, c):
    """coeffs[nu] += c for coefficient callables lam -> C."""
    prev = coeffs.get(nu)
    coeffs[nu] = c if prev is None else (lambda lam: prev(lam) + c(lam))


class FiniteSupportFn:
    """Finitely supported map lambda -> C in d(R)."""

    def __init__(self, pairs=()):
        sums = {}
        for lam, val in (pairs.items() if hasattr(pairs, "items") else pairs):
            sums[lam] = sums.get(lam, 0j) + val
        self.data = {lam if isinstance(lam, Fraction) else Fraction(lam):
                     complex(v) for lam, v in sums.items() if v != 0}

    def __getitem__(self, lam):
        return self.data.get(lam, 0.0 + 0.0j)

    def items(self):
        return self.data.items()

    def inner(self, other):
        """l^2 pairing (self, other) = sum conj(self) other."""
        return sum(np.conj(v) * other[lam] for lam, v in self.items())

    def norm_diff(self, other):
        keys = list(self.data.keys()) + [k for k in other.data.keys()
                                         if k not in self.data]
        return max((abs(self[k] - other[k]) for k in keys), default=0.0)


def sobolev_norm(phi, s, p):
    """|| phi ||_{(s, p)} = (sum (<lam>^s |phi(lam)|)^p)^{1/p}; p = inf -> sup."""
    if p != math.inf and p < 1:
        raise ValueError("p must be in [1, inf]")
    terms = [(1.0 + float(lam) ** 2) ** (s / 2.0) * abs(v)
             for lam, v in phi.items()]
    if not terms:
        return 0.0
    if p == math.inf:
        return max(terms)
    return float(np.sum(np.asarray(terms) ** p) ** (1.0 / p))


def _simplest_between(lo, hi):
    """The Fraction of least denominator in [lo, hi] (continued fractions)."""
    n = math.floor(lo)
    if n == lo or n + 1 <= hi:
        return Fraction(n if n == lo else n + 1)
    return n + 1 / _simplest_between(1 / (hi - n), 1 / (lo - n))


def _rational(x):
    """x as a Fraction; a float stands for the simplest rational that rounds
    to it (2.0 / 3.0 -> 2/3), so that sums of points of lattices given by
    floats land exactly on their combined lattice."""
    if not isinstance(x, float):
        return Fraction(x)
    half = Fraction(math.ulp(x)) / 2
    return _simplest_between(Fraction(x) - half, Fraction(x) + half)


# Two spacings given as floats fix their ratio only to about an ulp: over
# 20000 draws of float spacings lam0 and lam0 p/q (p, q < 200) the ratio of
# the lattices' rationals deviates from p/q by at most 3.3e-16 relative. A
# spacing ratio is read as the simplest rational within _RATIO_TOL of it and
# accepted when both its terms are at most _MAX_RATIO_TERM. Distinct
# rationals with such terms lie at least 2^-24 apart relative, far beyond
# the tolerance, so the reading is unique; an irrational ratio comes that
# close to one with probability about 2^-19 (1 and sqrt 2 do not).
_RATIO_TOL = Fraction(1, 2 ** 44)
_MAX_RATIO_TERM = 2 ** 12


@dataclass(frozen=True)
class RationalLattice:
    """Z^{j0}_{lam0} = lam0 (Z + j0), with lam0 and j0 stored as exact
    Fractions (j0 reduced mod 1; a float reads as _rational says)."""
    lam0: Fraction
    j0: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "lam0", _rational(self.lam0))
        object.__setattr__(self, "j0", _rational(self.j0) % 1)
        if self.lam0 <= 0:
            raise ValueError("lattice spacing must be positive")

    def point(self, m):
        return self.lam0 * (m + self.j0)

    def contains(self, lam):
        """Whether lam is within 1e-9 (in units of lam0) of the lattice."""
        r = lam / self.lam0 - self.j0
        return abs(r - round(r)) < 1e-9

    def combined_with(self, other):
        """Lattice containing the sum set, for a rational spacing ratio.

        With other.lam0 / lam0 = p / q in lowest terms the sum lands on
        spacing lam0 / q and offset (q j0 + p j0') mod 1. The ratio is read
        as _RATIO_TOL and _MAX_RATIO_TERM say; ValueError if it is not
        such a rational (spacings 1 and sqrt 2).
        """
        ratio = other.lam0 / self.lam0
        frac = _simplest_between(ratio * (1 - _RATIO_TOL),
                                 ratio * (1 + _RATIO_TOL))
        p, q = frac.numerator, frac.denominator
        if max(p, q) > _MAX_RATIO_TERM:
            raise ValueError("lattice spacings %s and %s are not relatively "
                             "rational" % (self.lam0, other.lam0))
        return RationalLattice(self.lam0 / q, q * self.j0 + p * other.j0)


class BohrSymbol:
    """sigma(x, lam) = sum_nu c_nu(lam) e^{i nu x} with callable coefficients.

    Order data (m, rho, delta) is carried for the boundedness checks; an
    equivariant symbol also records its frequency lattice.
    """

    def __init__(self, coefficients, order=(0.0, 1.0, 0.0), lattice=None):
        self.coeffs = {}
        for nu, c in coefficients.items():
            _accumulate(self.coeffs, Fraction(nu), c)
        self.m, self.rho, self.delta = order
        self.lattice = lattice
        if lattice is not None:
            for nu in self.coeffs.keys():
                if not RationalLattice(lattice.lam0, -lattice.j0).contains(nu):
                    raise ValueError(
                        "frequency %r off the equivariant lattice" % (nu,))

    def frequencies(self):
        return sorted(self.coeffs.keys())

    def partial_transform(self, lamp, lam):
        """sigma_hat^1(lam', lam) = c_{-lam'}(lam)."""
        c = self.coeffs.get(-lamp)
        return c(lam) if c is not None else 0.0

    def conjugate(self):
        """Symbol of the formal adjoint: conj coefficients, negated freqs
        (the support lattice offset flips to (-j0) mod 1)."""
        lat = self.lattice
        if lat is not None:
            lat = RationalLattice(lat.lam0, -lat.j0)
        return BohrSymbol({-nu: (lambda f: (lambda lam: np.conj(f(lam))))(c)
                           for nu, c in self.coeffs.items()},
                          (self.m, self.rho, self.delta), lat)


def bohr_mean(f, g):
    """(f, g)_Bohr = lim (2T)^{-1} int conj(f) g: matching-frequency sum.

    f, g given as frequency dicts nu -> coefficient of e^{i nu x}.
    """
    return sum(np.conj(v) * g.get(nu, 0.0) for nu, v in f.items())


def apply_symbol(sigma, phi, eps=1.0):
    """(A_sigma Phi)(lam) = sum_nu c_nu(lam' - eps nu / 2) Phi(lam') at
    lam = lam' - eps nu (the exact finite quantization sum)."""
    eps = Fraction(eps)
    shifts = [(eps * nu, float(eps * nu) / 2.0, c)
              for nu, c in sigma.coeffs.items()]
    sums = {}
    for lamp, val in phi.items():
        x = float(lamp)
        for step, half, c in shifts:
            lam = lamp - step
            sums[lam] = sums.get(lam, 0j) + c(x - half) * val
    return FiniteSupportFn(sums)


def adjoint_pairing_residual(sigma, phi1, phi2, eps=1.0):
    """| (A_{conj sigma} phi1, phi2) - (phi1, A_sigma phi2) |."""
    lhs = apply_symbol(sigma.conjugate(), phi1, eps).inner(phi2)
    rhs = phi1.inner(apply_symbol(sigma, phi2, eps))
    return abs(lhs - rhs)


def twisted_product(sigma, tau, eps=1.0):
    """rho with A_rho = A_sigma A_tau:
    c^rho_{mu+nu}(lam) += c^sigma_mu(lam - eps nu/2) c^tau_nu(lam + eps mu/2)."""
    eps = Fraction(eps)
    out = {}
    for mu, cs in sigma.coeffs.items():
        for nu, ct in tau.coeffs.items():
            def term(lam, hs=float(eps * nu) / 2.0, ht=float(eps * mu) / 2.0,
                     cs=cs, ct=ct):
                return cs(lam - hs) * ct(lam + ht)

            _accumulate(out, mu + nu, term)
    lattice = None
    if sigma.lattice is not None and tau.lattice is not None:
        lattice = sigma.lattice.combined_with(tau.lattice)
    return BohrSymbol(out, (sigma.m + tau.m,
                            min(sigma.rho, tau.rho),
                            max(sigma.delta, tau.delta)), lattice)


# ---------------------------------------------------------------------------
# Newton series and the equivariant asymptotic product
# ---------------------------------------------------------------------------

def falling_factorial(x, k):
    out = 1.0
    for i in range(k):
        out *= (x - i)
    return out


def forward_difference(f, lam, step, order):
    """(Delta^order_{lam, step} f)(lam)."""
    return sum((-1.0) ** (order - k) * math.comb(order, k)
               * f(lam + k * step) for k in range(order + 1))


def discrete_taylor(phi, lam, lamp, step, N):
    """Newton series of phi(lam + lamp) to order N on the step lattice.

    lamp must be an integer multiple of step. Returns (value,
    remainder_bound) with the bound max_{|a| = N+1, q in Q(lamp)}
    |n'^{(a)} (Delta^a phi)(lam + q)| over the two-sided window Q.
    """
    ratio = lamp / step
    n = round(ratio)
    if abs(ratio - n) > 1e-9:
        raise ValueError("lamp must lie on the step lattice")
    val = sum(falling_factorial(n, k) / math.factorial(k)
              * forward_difference(phi, lam, step, k) for k in range(N + 1))
    bound = 0.0
    for q in range(-abs(n), abs(n) + 1):
        bound = max(bound, abs(falling_factorial(n, N + 1)
                               / math.factorial(N + 1)
                               * forward_difference(phi, lam + q * step,
                                                    step, N + 1)))
    return val, bound


@dataclass
class EquivariantSymbol:
    """sigma_hat^1 supported on lam0 (Z + j0): index m -> coefficient fn.

    sigma(x, lam) = sum_m chat(m)(lam) e^{-i lam0 (m + j0) x}.
    """
    lattice: RationalLattice
    chat: dict      # int m -> callable lam -> C

    def to_bohr_symbol(self):
        coeffs = {}
        for m, c in self.chat.items():
            nu = -self.lattice.point(m)
            coeffs[nu] = c
        return BohrSymbol(coeffs, lattice=self.lattice)


def asymptotic_product(sig, tau, eps, N):
    """Discrete Weyl-product expansion of two equivariant symbols to order N.

    Implements the Newton-series expansion of the exact twisted product

      rhohat(lam', lam) = sum sighat(lam'', lam + eps/2 (lam' - lam''))
                              tauhat(lam' - lam'', lam - eps/2 lam''),

    expanding both momentum shifts about the offset base points with the
    scaled forward differences Delta_{lam, (eps/2) lam0}; exact when the
    coefficients are polynomials of joint degree <= N.
    """
    lat_s, lat_t = sig.lattice, tau.lattice
    hs, ht = eps / 2.0 * lat_s.lam0, eps / 2.0 * lat_t.lam0
    base_s = eps / 2.0 * lat_t.lam0 * lat_t.j0
    base_t = -eps / 2.0 * lat_s.lam0 * lat_s.j0
    out_chat = {}
    out_lat = lat_s.combined_with(lat_t)
    ratio_s = round(lat_s.lam0 / out_lat.lam0)
    ratio_t = round(lat_t.lam0 / out_lat.lam0)
    for ms, cs in sig.chat.items():
        for mt, ct in tau.chat.items():
            # output frequency: lam0^s (ms + j0^s) + lam0^t (mt + j0^t)
            idx = ms * ratio_s + mt * ratio_t + round(
                (lat_s.j0 * ratio_s + lat_t.j0 * ratio_t) - out_lat.j0)

            def term(lam, ms=ms, mt=mt, cs=cs, ct=ct):
                tot = 0.0
                for n in range(N + 1):
                    for k in range(n + 1):
                        l = n - k
                        a = (falling_factorial(mt, k) / math.factorial(k)
                             * forward_difference(cs, lam + base_s, ht, k))
                        b = (falling_factorial(-ms, l) / math.factorial(l)
                             * forward_difference(ct, lam + base_t, hs, l))
                        tot = tot + a * b
                return tot

            _accumulate(out_chat, idx, term)
    return EquivariantSymbol(out_lat, out_chat)


# ---------------------------------------------------------------------------
# Young and Sobolev bounds
# ---------------------------------------------------------------------------

def young_bound(h_entries):
    """(C1, C2), the largest row sum and the largest column sum of |h|, for
    a kernel given as {(lam, lam'): value}."""
    row, col = {}, {}
    for (lam, lamp), v in h_entries.items():
        row[lam] = row.get(lam, 0.0) + abs(v)
        col[lamp] = col.get(lamp, 0.0) + abs(v)
    return max(row.values(), default=0.0), max(col.values(), default=0.0)


def apply_kernel(h_entries, phi):
    sums = {}
    for (lam, lamp), v in h_entries.items():
        sums[lam] = sums.get(lam, 0j) + v * phi[lamp]
    return FiniteSupportFn(sums)


def _schur_constant(h_entries, p):
    """C1^{1/q} C2^{1/p}, 1/p + 1/q = 1, with (C1, C2) = young_bound: the
    Schur-test bound of the kernel's operator norm on l^p. The row sums C1
    bound it at p = inf, the column sums C2 at p = 1."""
    if not 1 <= p <= math.inf:
        raise ValueError("p must be in [1, inf], got %r" % (p,))
    c1, c2 = young_bound(h_entries)
    inv_p = 1.0 / p
    return c1 ** (1.0 - inv_p) * c2 ** inv_p


def apply_kernel_norm_check(h_entries, phi, p):
    """Empirical Young inequality: returns (lhs, bound)."""
    const = _schur_constant(h_entries, p)
    lhs = sobolev_norm(apply_kernel(h_entries, phi), 0.0, p)
    return lhs, const * sobolev_norm(phi, 0.0, p)


def sobolev_bound_check(sigma, s, t, p, states, eps=1.0):
    """Boundedness h^s_p -> h^{s-t}_p for an equivariant symbol.

    Checks the feasibility condition (exists r >= 0 with delta r <= t - m
    and (1 - delta) r > |m| - 1 + |t| + |s - t|), builds the dominating
    kernel constants C1, C2 over the lattice window |j| <= 40, and verifies
    the empirical ratio ||A Phi||_{(s-t,p)} / ||Phi||_{(s,p)} never exceeds
    2^{|s-t|} C1^{1/q} C2^{1/p} on the supplied states; p in [1, inf].

    With 0 <= delta <= 1 the first condition bounds r from above, by
    (t - m) / delta (no bound when delta = 0 and t >= m), and (1 - delta) r
    does not decrease with r, so r exists iff the bound satisfies the second.
    """
    m, delta = sigma.m, sigma.delta
    if not 0 <= delta <= 1:
        raise ValueError("delta must lie in [0, 1], got %r" % (delta,))
    slack = t - m + 1e-12
    if not (slack >= 0 and (delta == 0 or (1 - delta) * slack / delta
                            > abs(m) - 1 + abs(t) + abs(s - t))):
        raise ValueError(
            "no r >= 0 satisfies delta r <= t - m and "
            "(1 - delta) r > |m| - 1 + |t| + |s - t|")
    lat = sigma.lattice
    if lat is None:
        raise ValueError("sobolev_bound_check needs an equivariant symbol")
    # kernel h(lam'', lam') = <lam''-lam'>^{|s-t|} <lam'>^{-t}
    #                         sigma_hat^1(lam''-lam', (lam''+lam')/2)
    eps = Fraction(eps)
    entries = {}
    pts = [lat.point(mm) for mm in range(-40, 41)]
    for lamp in pts:
        for nu in sigma.frequencies():
            lam2 = lamp - eps * nu
            v = sigma.partial_transform((lam2 - lamp) / eps,
                                        float(lam2 + lamp) / 2.0)
            if v == 0.0:
                continue
            wgt = ((1 + float(lam2 - lamp) ** 2) ** (abs(s - t) / 2.0)
                   * (1 + float(lamp) ** 2) ** (-t / 2.0))
            entries[(lam2, lamp)] = entries.get((lam2, lamp), 0.0) + wgt * v
    const = _schur_constant(entries, p) * 2.0 ** abs(s - t)
    worst = 0.0
    for phi in states:
        num = sobolev_norm(apply_symbol(sigma, phi, eps), s - t, p)
        den = sobolev_norm(phi, s, p)
        if den > 0:
            worst = max(worst, num / den)
    return {"theoretical_constant": const, "empirical_max_ratio": worst,
            "passed": bool(worst <= const * (1 + 1e-12)), "r_feasible": True}
