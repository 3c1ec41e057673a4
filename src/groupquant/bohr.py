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

is an exact finite sum. Frequency and support keys are floats canonicalized
to 1e-12; equivariant symbols carry their rational lattice explicitly.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

_KEY_TOL = 1e-9


def _key(x):
    """Coarse bucket for the two-sided tolerance lookup."""
    v = round(float(x), 7)
    return 0.0 if v == 0 else v


class ToleranceDict:
    """float -> value map with 1e-9 key identification.

    Keys within _KEY_TOL of an existing key merge with it; lookups use a
    coarse rounding bucket plus a neighborhood scan so boundary cases do
    not alias (float keys from different arithmetic routes must coincide).
    """

    def __init__(self):
        self._buckets = {}   # coarse key -> list of exact keys
        self._vals = {}      # exact key -> value

    def _find(self, x):
        x = float(x)
        b = _key(x)
        for bb in (b, _key(x - 2e-8), _key(x + 2e-8)):
            for k in self._buckets.get(bb, ()):
                if abs(k - x) <= _KEY_TOL:
                    return k
        return None

    def get(self, x, default=None):
        k = self._find(x)
        return self._vals[k] if k is not None else default

    def set(self, x, val):
        k = self._find(x)
        if k is None:
            k = float(x)
            self._buckets.setdefault(_key(k), []).append(k)
        self._vals[k] = val

    def pop(self, x):
        k = self._find(x)
        if k is not None:
            self._vals.pop(k)
            self._buckets[_key(k)].remove(k)

    def keys(self):
        return self._vals.keys()

    def items(self):
        return self._vals.items()

    def __contains__(self, x):
        return self._find(x) is not None

    def __len__(self):
        return len(self._vals)


class FiniteSupportFn:
    """Finitely supported map lambda -> C in d(R)."""

    def __init__(self, pairs=()):
        self.data = ToleranceDict()
        for lam, val in (pairs.items() if hasattr(pairs, "items") else pairs):
            self[lam] = self[lam] + val

    def __getitem__(self, lam):
        return self.data.get(lam, 0.0 + 0.0j)

    def __setitem__(self, lam, val):
        if val == 0:
            self.data.pop(lam)
        else:
            self.data.set(lam, complex(val))

    def support(self):
        return sorted(self.data.keys())

    def items(self):
        return self.data.items()

    def __add__(self, other):
        out = FiniteSupportFn(self.data)
        for lam, val in other.items():
            out[lam] = out[lam] + val
        return out

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, c):
        return FiniteSupportFn({lam: c * v for lam, v in self.items()})

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
    terms = [(1.0 + lam * lam) ** (s / 2.0) * abs(v)
             for lam, v in phi.items()]
    if not terms:
        return 0.0
    if p == math.inf:
        return max(terms)
    return float(np.sum(np.asarray(terms) ** p) ** (1.0 / p))


@dataclass(frozen=True)
class RationalLattice:
    """Z^{j0}_{lam0} = lam0 (Z + j0)."""
    lam0: float
    j0: float = 0.0

    def __post_init__(self):
        if self.lam0 <= 0:
            raise ValueError("lattice spacing must be positive")
        object.__setattr__(self, "j0", float(self.j0) % 1.0)

    def point(self, m):
        return self.lam0 * (m + self.j0)

    def contains(self, lam, tol=1e-9):
        r = lam / self.lam0 - self.j0
        return abs(r - round(r)) < tol

    def combined_with(self, other):
        """Lattice containing the sum set, for a rational spacing ratio.

        With other.lam0 / lam0 = p / q in lowest terms the sum lands on
        spacing lam0 / q and offset (q j0 + p j0') mod 1.
        """
        frac = Fraction(other.lam0 / self.lam0).limit_denominator(10 ** 9)
        p, q = frac.numerator, frac.denominator
        if abs(other.lam0 / self.lam0 - p / q) > 1e-9:
            raise ValueError("lattices are not relatively rational")
        return RationalLattice(self.lam0 / q,
                               (q * self.j0 + p * other.j0) % 1.0)


class BohrSymbol:
    """sigma(x, lam) = sum_nu c_nu(lam) e^{i nu x} with callable coefficients.

    Order data (m, rho, delta) is carried for the boundedness checks; an
    equivariant symbol also records its frequency lattice.
    """

    def __init__(self, coefficients, order=(0.0, 1.0, 0.0), lattice=None):
        self.coeffs = ToleranceDict()
        for nu, c in coefficients.items():
            prev = self.coeffs.get(nu)
            if prev is not None:
                c = (lambda p, t: (lambda lam: p(lam) + t(lam)))(prev, c)
            self.coeffs.set(nu, c)
        self.m, self.rho, self.delta = order
        self.lattice = lattice
        if lattice is not None:
            for nu in self.coeffs.keys():
                if not RationalLattice(lattice.lam0,
                                       (-lattice.j0) % 1.0).contains(nu):
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
            lat = RationalLattice(lat.lam0, (-lat.j0) % 1.0)
        return BohrSymbol({-nu: (lambda f: (lambda lam: np.conj(f(lam))))(c)
                           for nu, c in self.coeffs.items()},
                          (self.m, self.rho, self.delta), lat)


def bohr_mean(f, g):
    """(f, g)_Bohr = lim (2T)^{-1} int conj(f) g: matching-frequency sum.

    f, g given as frequency dicts nu -> coefficient of e^{i nu x}.
    """
    fk = {_key(nu): v for nu, v in f.items()}
    gk = {_key(nu): v for nu, v in g.items()}
    return sum(np.conj(v) * gk[nu] for nu, v in fk.items() if nu in gk)


def apply_symbol(sigma, phi, eps=1.0):
    """(A_sigma Phi)(lam) = sum_nu c_nu(lam' - eps nu / 2) Phi(lam') at
    lam = lam' - eps nu (the exact finite quantization sum)."""
    out = FiniteSupportFn()
    for lamp, val in phi.items():
        for nu, c in sigma.coeffs.items():
            lam = lamp - eps * nu
            out[lam] = out[lam] + c((lam + lamp) / 2.0) * val
    return out


def adjoint_pairing_residual(sigma, phi1, phi2, eps=1.0):
    """| (A_{conj sigma} phi1, phi2) - (phi1, A_sigma phi2) |."""
    lhs = apply_symbol(sigma.conjugate(), phi1, eps).inner(phi2)
    rhs = phi1.inner(apply_symbol(sigma, phi2, eps))
    return abs(lhs - rhs)


def twisted_product(sigma, tau, eps=1.0):
    """rho with A_rho = A_sigma A_tau:
    c^rho_{mu+nu}(lam) += c^sigma_mu(lam - eps nu/2) c^tau_nu(lam + eps mu/2)."""
    out = ToleranceDict()
    for mu, cs in sigma.coeffs.items():
        for nu, ct in tau.coeffs.items():
            tot = mu + nu

            def term(lam, mu=mu, nu=nu, cs=cs, ct=ct):
                return cs(lam - eps * nu / 2.0) * ct(lam + eps * mu / 2.0)

            prev = out.get(tot)
            if prev is not None:
                term = (lambda p, t: (lambda lam: p(lam) + t(lam)))(prev, term)
            out.set(tot, term)
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

    def to_bohr_symbol(self, order=(0.0, 1.0, 0.0)):
        coeffs = {}
        for m, c in self.chat.items():
            nu = -self.lattice.point(m)
            coeffs[nu] = c
        return BohrSymbol(coeffs, order, self.lattice)


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

            if idx in out_chat:
                out_chat[idx] = (lambda p, t: (lambda lam: p(lam) + t(lam)))(
                    out_chat[idx], term)
            else:
                out_chat[idx] = term
    return EquivariantSymbol(out_lat, out_chat)


# ---------------------------------------------------------------------------
# Young and Sobolev bounds
# ---------------------------------------------------------------------------

def young_bound(h_entries):
    """(C1, C2) for a kernel given as {(lam, lam'): value}."""
    row, col = {}, {}
    for (lam, lamp), v in h_entries.items():
        row[_key(lam)] = row.get(_key(lam), 0.0) + abs(v)
        col[_key(lamp)] = col.get(_key(lamp), 0.0) + abs(v)
    c1 = max(row.values(), default=0.0)
    c2 = max(col.values(), default=0.0)
    return c1, c2


def apply_kernel(h_entries, phi):
    out = FiniteSupportFn()
    for (lam, lamp), v in h_entries.items():
        out[lam] = out[lam] + v * phi[lamp]
    return out


def apply_kernel_norm_check(h_entries, phi, p):
    """Empirical Young inequality: returns (lhs, bound)."""
    c1, c2 = young_bound(h_entries)
    q = math.inf if p == 1 else (p / (p - 1.0) if p != math.inf else 1.0)
    lhs = sobolev_norm(apply_kernel(h_entries, phi), 0.0, p)
    inv_p = 0.0 if p == math.inf else 1.0 / p
    inv_q = 0.0 if q == math.inf else 1.0 / q
    bound = c1 ** inv_p * c2 ** inv_q * sobolev_norm(phi, 0.0, p)
    return lhs, bound


def sobolev_bound_check(sigma, s, t, p, states, eps=1.0,
                        window=40, r_grid=None):
    """Boundedness h^s_p -> h^{s-t}_p for an equivariant symbol.

    Checks the feasibility condition (exists r >= 0 with delta r <= t - m
    and (1 - delta) r > |m| - 1 + |t| + |s - t|), builds the dominating
    kernel constants C1, C2 over a lattice window, and verifies the
    empirical ratio ||A Phi||_{(s-t,p)} / ||Phi||_{(s,p)} never exceeds
    2^{|s-t|} C1^{1/p} C2^{1/q} on the supplied states.
    """
    m, delta = sigma.m, sigma.delta
    if r_grid is None:
        r_grid = np.linspace(0.0, 60.0, 601)
    feasible = [r for r in r_grid
                if delta * r <= t - m + 1e-12
                and (1 - delta) * r > abs(m) - 1 + abs(t) + abs(s - t)]
    if not feasible:
        raise ValueError(
            "no r >= 0 satisfies delta r <= t - m and "
            "(1 - delta) r > |m| - 1 + |t| + |s - t|")
    lat = sigma.lattice
    if lat is None:
        raise ValueError("sobolev_bound_check needs an equivariant symbol")
    # kernel h(lam'', lam') = <lam''-lam'>^{|s-t|} <lam'>^{-t}
    #                         sigma_hat^1(lam''-lam', (lam''+lam')/2)
    entries = {}
    pts = [lat.point(mm) for mm in range(-window, window + 1)]
    for lamp in pts:
        for nu in sigma.frequencies():
            lam2 = lamp - eps * nu
            v = sigma.partial_transform((lam2 - lamp) / eps,
                                        (lam2 + lamp) / 2.0)
            if v == 0.0:
                continue
            wgt = ((1 + (lam2 - lamp) ** 2) ** (abs(s - t) / 2.0)
                   * (1 + lamp * lamp) ** (-t / 2.0))
            entries[(_key(lam2), _key(lamp))] = \
                entries.get((_key(lam2), _key(lamp)), 0.0) + wgt * v
    c1, c2 = young_bound(entries)
    q = math.inf if p == 1 else p / (p - 1.0)
    inv_p, inv_q = 1.0 / p, (0.0 if q == math.inf else 1.0 / q)
    const = 2.0 ** abs(s - t) * c1 ** inv_p * c2 ** inv_q
    worst = 0.0
    for phi in states:
        num = sobolev_norm(apply_symbol(sigma, phi, eps), s - t, p)
        den = sobolev_norm(phi, s, p)
        if den > 0:
            worst = max(worst, num / den)
    return {"theoretical_constant": const, "empirical_max_ratio": worst,
            "passed": bool(worst <= const * (1 + 1e-12)), "r_feasible": True}
