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

is an exact finite sum.

Points are integer indices on a RationalLattice lam0 (Z + j0). A state is a
lattice, an index array and a value array; a symbol is a frequency lattice,
frequency indices and one coefficient callable per index. An operation
forms its points as integer numerators over one denominator and indexes
them on the coarsest lattice that holds them, so every route to a point
gives the same index. Indices are Python ints in object arrays, exact at
any size (the points 1/n, n <= 1000, need the spacing 1/lcm(1..1000)).
Coefficient callables receive float arrays of lam; a scalar result
broadcasts. Fraction remains at the boundary only: in lam0 and j0, in
reading caller-given keys and eps once (a float reads as the simplest
rational that rounds to it, 0.7 -> 7/10), and in the read-side views
phi[lam], FiniteSupportFn.data and BohrSymbol.coeffs.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


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
    if isinstance(x, float):
        return _simplest_float(x)
    return x if isinstance(x, Fraction) else Fraction(x)


@functools.lru_cache(maxsize=1024)
def _simplest_float(x):
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
    """Z^{j0}_{lam0} = lam0 (Z + j0). The calculus names its points by their
    integer index m; point(m) = lam0 (m + j0) gives the exact Fraction.

    lam0 and j0 are exact Fractions (j0 reduced mod 1), the only ones the
    calculus keeps; a float reads as the simplest rational that rounds to
    it (_rational)."""
    lam0: Fraction
    j0: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "lam0", _rational(self.lam0))
        object.__setattr__(self, "j0", _rational(self.j0) % 1)
        if self.lam0 <= 0:
            raise ValueError("lattice spacing must be positive")
        object.__setattr__(self, "_ratio", self.lam0.as_integer_ratio()
                           + self.j0.as_integer_ratio())

    def point(self, m):
        return self.lam0 * (m + self.j0)

    def contains(self, lam):
        """Whether lam is within 1e-9 (in units of lam0) of the lattice."""
        return self._index(lam) is not None

    def _index(self, lam):
        """The m with point(m) within 1e-9 lam0 of lam, or None."""
        p, q = (lam if isinstance(lam, (float, Fraction)) else Fraction(lam)
                ).as_integer_ratio()
        a, b, jn, jd = self._ratio
        num, den = p * b * jd - jn * q * a, q * a * jd   # lam = point(num/den)
        m = (2 * num + den) // (2 * den)
        return m if abs(num - m * den) * 10 ** 9 < den else None

    @functools.lru_cache(maxsize=256)
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


def _points(*specs):
    """For (lattice, idx, scale) specs, the numerators of the points
    scale * lattice.point(idx) over one denominator, and that denominator."""
    parts = []
    for lat, idx, scale in specs:
        (a, b, jn, jd), (sn, sd) = lat._ratio, scale.as_integer_ratio()
        parts.append((sn * a * (idx * jd + jn), sd * b * jd))
    den = math.lcm(*(d for _, d in parts))
    return [n * (den // d) for n, d in parts], den


def _lattice_of(num, den):
    """The coarsest lattice holding the points num / den (spacing 1 for one
    point), and their indices on it."""
    n0 = num[0] if len(num) else 0
    g = math.gcd(*(num - n0).tolist()) or den
    return _lattice(g, den, n0 % g), num // g


@functools.lru_cache(maxsize=256)
def _lattice(g, den, r):
    """RationalLattice(g / den, r / g), one object per lattice."""
    return RationalLattice(Fraction(g, den), Fraction(r, g))


def _read(keys):
    """_lattice_of for caller-given points, read as _rational says."""
    keys = [_rational(k) for k in keys]
    den = math.lcm(*(k.denominator for k in keys))
    return _lattice_of(np.array([k.numerator * (den // k.denominator)
                                 for k in keys], dtype=object), den)


def _summed(keys, values):
    """The distinct keys in order of first appearance with the summed values
    of each, zero sums dropped; one scatter-add. First appearance is the
    order the earlier dict-keyed states kept, so sums over a state (as in
    sobolev_norm) add in the same order."""
    vals, seen = np.asarray(values, complex), keys.tolist()
    slot = dict(zip(dict.fromkeys(seen), range(len(seen))))
    if len(slot) < len(seen):
        pos = np.fromiter(map(slot.__getitem__, seen), np.intp, len(seen))
        sums = np.empty(len(slot), complex)
        sums.real = np.bincount(pos, vals.real, len(slot))
        sums.imag = np.bincount(pos, vals.imag, len(slot))
        keys, vals = np.array(list(slot), dtype=object), sums
    return keys[vals != 0], vals[vals != 0]


class FiniteSupportFn:
    """Finitely supported map lambda -> C in d(R): vals[i] at the point
    with integer index idx[i] on lattice, each index once, in order of
    first appearance, zero values dropped.

    Built from (lam, value) pairs or a dict, it reads each key once (a
    float as the simplest rational that rounds to it), adds the values of
    equal keys and takes the coarsest lattice holding the keys. The
    read-side views give exact Fraction points: phi[lam] finds lam within
    1e-9 lam0, and data is {point: value}.
    """

    def __init__(self, pairs=()):
        pairs = list(pairs.items() if hasattr(pairs, "items") else pairs)
        self.lattice, idx = _read(lam for lam, _ in pairs)
        self.idx, self.vals = _summed(idx, [v for _, v in pairs])

    @classmethod
    def on_lattice(cls, lattice, indices, values):
        """sum_k values[k] at lattice.point(indices[k])."""
        phi = cls.__new__(cls)
        phi.lattice = lattice
        phi.idx, phi.vals = _summed(np.asarray(indices).astype(object), values)
        return phi

    # phi[lam] is a lookup, not a sequence: without this, iter(phi) and
    # `lam in phi` would call phi[0], phi[1], ... forever
    __iter__ = None

    def __getitem__(self, lam):
        hit = np.flatnonzero(self.idx == self.lattice._index(lam))
        return complex(self.vals[hit[0]]) if len(hit) else 0j

    @property
    def data(self):
        """{exact point: value}."""
        return {self.lattice.point(m): v
                for m, v in zip(self.idx.tolist(), self.vals.tolist())}

    def _keys(self, other):
        return _points((self.lattice, self.idx, 1),
                       (other.lattice, other.idx, 1))[0]

    def inner(self, other):
        """l^2 pairing (self, other) = sum conj(self) other."""
        mine, theirs = (k.tolist() for k in self._keys(other))
        theirs = dict(zip(theirs, other.vals.tolist()))
        return sum(v.conjugate() * theirs.get(k, 0j)
                   for k, v in zip(mine, self.vals.tolist()))

    def norm_diff(self, other):
        """max |self - other| over both supports."""
        _, d = _summed(np.concatenate(self._keys(other)),
                       np.concatenate([self.vals, -other.vals]))
        return float(np.hypot(d.real, d.imag).max(initial=0.0))


def sobolev_norm(phi, s, p):
    """|| phi ||_{(s, p)} = (sum (<lam>^s |phi(lam)|)^p)^{1/p}; p = inf -> sup."""
    if p != math.inf and p < 1:
        raise ValueError("p must be in [1, inf]")
    (lam,), den = _points((phi.lattice, phi.idx, 1))
    # hypot is Python's abs(complex) to the bit; np.abs can differ in it
    terms = ((1.0 + (lam / den).astype(float) ** 2) ** (s / 2.0)
             * np.hypot(phi.vals.real, phi.vals.imag))
    if not len(terms):
        return 0.0
    if p == math.inf:
        return float(terms.max())
    return float(np.sum(terms ** p) ** (1.0 / p))


def _sum_of(terms):
    """lam -> the sum of the callables terms at lam, left to right."""
    if len(terms) == 1:
        return terms[0]
    return lambda lam: sum((t(lam) for t in terms[1:]), terms[0](lam))


class BohrSymbol:
    """sigma(x, lam) = sum_nu c_nu(lam) e^{i nu x} with callable coefficients.

    funcs[i] is c_nu at the frequency nu with integer index idx[i] on the
    lattice freq; it takes a float array of lam, and a scalar result
    broadcasts. From a dict {nu: c} each key is read once (a float as the
    simplest rational that rounds to it), and the coefficients of equal
    keys add; coeffs reads it back as {exact Fraction nu: c_nu}. Order data
    (m, rho, delta) is carried for the boundedness checks; an equivariant
    symbol also records its lattice, which holds -nu for every frequency.
    """

    def __init__(self, coefficients, order=(0.0, 1.0, 0.0)):
        self._set(*_read(coefficients), [[c] for c in coefficients.values()],
                  order, None)

    @classmethod
    def _on(cls, freq, idx, terms, order=(0.0, 1.0, 0.0), lattice=None):
        sigma = cls.__new__(cls)
        sigma._set(freq, idx, terms, order, lattice)
        return sigma

    def _set(self, freq, idx, terms, order, lattice):
        """The coefficient at freq index idx[i] sums the callables terms[i]
        and those of the equal indices."""
        slot = {}
        for m, ts in zip(idx.tolist(), terms):
            slot.setdefault(m, []).extend(ts)
        self.freq, self.lattice = freq, lattice
        self.idx = np.array(list(slot), dtype=object)
        self.funcs = [_sum_of(ts) for ts in slot.values()]
        self.m, self.rho, self.delta = order

    @property
    def coeffs(self):
        return dict(zip((self.freq.point(m) for m in self.idx.tolist()),
                        self.funcs))

    def conjugate(self):
        """Symbol of the formal adjoint: conj coefficients, negated freqs
        (the support lattice offset flips to (-j0) mod 1)."""
        (nu,), den = _points((self.freq, self.idx, -1))
        lat = self.lattice
        if lat is not None:
            lat = RationalLattice(lat.lam0, -lat.j0)
        return BohrSymbol._on(*_lattice_of(nu, den),
                              [[lambda lam, c=c: np.conj(c(lam))]
                               for c in self.funcs],
                              (self.m, self.rho, self.delta), lat)

    def _values(self, lam, half):
        """(c_nu(lam_k - half_nu))_{k, nu}."""
        out = np.empty((len(lam), len(half)), complex)
        for j, (c, h) in enumerate(zip(self.funcs, half)):
            out[:, j] = c(lam - h)
        return out


def apply_symbol(sigma, phi, eps=1.0):
    """(A_sigma Phi)(lam) = sum_nu c_nu(lam' - eps nu / 2) Phi(lam') at
    lam = lam' - eps nu (the exact finite quantization sum)."""
    (lamp, shift), den = _points((phi.lattice, phi.idx, 1),
                                 (sigma.freq, sigma.idx, _rational(eps)))
    vals = sigma._values((lamp / den).astype(float),
                         (shift / den).astype(float) / 2.0)
    lat, idx = _lattice_of((lamp[:, None] - shift[None, :]).ravel(), den)
    return FiniteSupportFn.on_lattice(lat, idx,
                                      (vals * phi.vals[:, None]).ravel())


def adjoint_pairing_residual(sigma, phi1, phi2, eps=1.0):
    """| (A_{conj sigma} phi1, phi2) - (phi1, A_sigma phi2) |."""
    lhs = apply_symbol(sigma.conjugate(), phi1, eps).inner(phi2)
    rhs = phi1.inner(apply_symbol(sigma, phi2, eps))
    return abs(lhs - rhs)


def twisted_product(sigma, tau, eps=1.0):
    """rho with A_rho = A_sigma A_tau:
    c^rho_{mu+nu}(lam) += c^sigma_mu(lam - eps nu/2) c^tau_nu(lam + eps mu/2)."""
    (mu, nu), den = _points((sigma.freq, sigma.idx, 1), (tau.freq, tau.idx, 1))
    eps = _rational(eps)
    half_mu, half_nu = ((x * eps.numerator / (2 * den * eps.denominator))
                        .astype(float).tolist() for x in (mu, nu))
    terms = [[lambda lam, cs=cs, ct=ct, hs=hs, ht=ht:
              cs(lam - hs) * ct(lam + ht)]
             for cs, ht in zip(sigma.funcs, half_mu)
             for ct, hs in zip(tau.funcs, half_nu)]
    lattice = (None if sigma.lattice is None or tau.lattice is None
               else sigma.lattice.combined_with(tau.lattice))
    return BohrSymbol._on(*_lattice_of((mu[:, None] + nu).ravel(), den),
                          terms, (sigma.m + tau.m, min(sigma.rho, tau.rho),
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


def _newton_term(f, lam, step, n, k):
    """(n)_k / k! (Delta^k_step f)(lam): order k of f(lam + n step)."""
    return (falling_factorial(n, k) / math.factorial(k)
            * forward_difference(f, lam, step, k))


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
    val = sum(_newton_term(phi, lam, step, n, k) for k in range(N + 1))
    return val, max(abs(_newton_term(phi, lam + q * step, step, n, N + 1))
                    for q in range(-abs(n), abs(n) + 1))


@dataclass
class EquivariantSymbol:
    """sigma_hat^1 supported on lam0 (Z + j0): index m -> coefficient fn.

    sigma(x, lam) = sum_m chat(m)(lam) e^{-i lam0 (m + j0) x}.
    """
    lattice: RationalLattice
    chat: dict      # int m -> callable lam -> C

    def to_bohr_symbol(self):
        (nu,), den = _points((self.lattice, np.array(
            [int(m) for m in self.chat], dtype=object), -1))
        return BohrSymbol._on(*_lattice_of(nu, den),
                              [[c] for c in self.chat.values()],
                              lattice=self.lattice)


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
    out_lat = lat_s.combined_with(lat_t)
    ratio_s = round(lat_s.lam0 / out_lat.lam0)
    ratio_t = round(lat_t.lam0 / out_lat.lam0)
    # output frequency: lam0^s (ms + j0^s) + lam0^t (mt + j0^t)
    shift = round(lat_s.j0 * ratio_s + lat_t.j0 * ratio_t - out_lat.j0)
    terms = {}
    for ms, cs in sig.chat.items():
        for mt, ct in tau.chat.items():
            def term(lam, ms=ms, mt=mt, cs=cs, ct=ct):
                a = [_newton_term(cs, lam + base_s, ht, mt, k)
                     for k in range(N + 1)]
                b = [_newton_term(ct, lam + base_t, hs, -ms, l)
                     for l in range(N + 1)]
                tot = 0.0
                for n in range(N + 1):
                    for k in range(n + 1):
                        tot = tot + a[k] * b[n - k]
                return tot

            terms.setdefault(ms * ratio_s + mt * ratio_t + shift,
                             []).append(term)
    return EquivariantSymbol(out_lat, {i: _sum_of(ts)
                                       for i, ts in terms.items()})


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
    # at lam' = lat.point(j), |j| <= 40, and lam'' = lam' - eps nu
    j = np.arange(-40, 41).astype(object)
    (lamp, shift), den = _points((lat, j, 1),
                                 (sigma.freq, sigma.idx, _rational(eps)))
    x, step = (lamp / den).astype(float), (shift / den).astype(float)
    h = (sigma._values(x, step / 2.0) * (1 + step ** 2) ** (abs(s - t) / 2.0)
         * ((1 + x ** 2) ** (-t / 2.0))[:, None])
    keys = zip((lamp[:, None] - shift).ravel().tolist(),
               np.repeat(j, len(step)).tolist())
    const = (_schur_constant(dict(zip(keys, h.ravel().tolist())), p)
             * 2.0 ** abs(s - t))
    worst = 0.0
    for phi in states:
        num = sobolev_norm(apply_symbol(sigma, phi, eps), s - t, p)
        den = sobolev_norm(phi, s, p)
        if den > 0:
            worst = max(worst, num / den)
    return {"theoretical_constant": const, "empirical_max_ratio": worst,
            "passed": bool(worst <= const * (1 + 1e-12)), "r_feasible": True}
