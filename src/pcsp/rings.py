"""Exact arithmetic domains for the solver toolkit.

Provides rationals (stdlib Fraction), quadratic integer rings Z[sqrt(q)]
whose elements compare and floor exactly against ints and Fractions, the
product rings Z/d_1 x ... x Z/d_b (Z/M when b = 1) that an affine relaxation
is solved over, with canonical representatives 0 <= v_i < d_i, the
dense-element search used by the ring-feasible LP rounding, and an exact sign
oracle for mixed square-root expressions (used when partition cells compare
coordinates from different rings).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import product
from math import floor, gcd, isqrt, lcm, prod
from typing import Iterable, Sequence

from .inthnf import hnf_sparse


class RingMismatchError(ValueError):
    """Raised when operands belong to different rings."""


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


# typed keys: a cached int radicand must not admit an equal float
@lru_cache(maxsize=64, typed=True)
def validate_radicand(q: int) -> int:
    if not isinstance(q, int):
        raise TypeError("radicand must be an int")
    if q <= 1 or q >= 2 ** 63 or is_perfect_square(q):
        raise ValueError(f"radicand must be a non-square integer in [2, 2^63): {q}")
    return q


def sqrt_bounds(d: int, bits: int) -> tuple[Fraction, Fraction]:
    """Exact rational bounds lo <= sqrt(d) <= hi with hi - lo = 2^-bits."""
    s = isqrt(d << (2 * bits))
    return Fraction(s, 1 << bits), Fraction(s + 1, 1 << bits)


# ---------------------------------------------------------------------------
# Quadratic integers a + b*sqrt(q)
# ---------------------------------------------------------------------------


def quad_sign(a, b, q: int | None) -> int:
    """Exact sign of a + b*sqrt(q) for rational a, b and a non-square q;
    q may be None when b = 0."""
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    # Mixed signs: compare |a| with |b|*sqrt(q) by squaring.
    # Equality a^2 == q b^2 is impossible (q non-square, b != 0).
    if a > 0:
        return 1 if a * a > q * b * b else -1
    return 1 if q * b * b > a * a else -1


@total_ordering
@dataclass(frozen=True)
class QuadElem:
    """Element a + b*sqrt(q) of Z[sqrt(q)], q a fixed non-square positive int."""

    a: int
    b: int
    q: int

    def __post_init__(self):
        validate_radicand(self.q)

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other) -> "QuadElem":
        if isinstance(other, QuadElem):
            if other.q != self.q:
                raise RingMismatchError(f"mixed radicands {self.q} and {other.q}")
            return other
        if isinstance(other, int):
            return QuadElem(other, 0, self.q)
        return NotImplemented  # type: ignore[return-value]

    def sign(self) -> int:
        return quad_sign(self.a, self.b, self.q)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElem(self.a + o.a, self.b + o.b, self.q)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElem(self.a - o.a, self.b - o.b, self.q)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElem(o.a - self.a, o.b - self.b, self.q)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElem(self.a * o.a + self.q * self.b * o.b,
                        self.a * o.b + self.b * o.a, self.q)

    __rmul__ = __mul__

    def __neg__(self):
        return QuadElem(-self.a, -self.b, self.q)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.b == 0 and self.a == other
        if isinstance(other, Fraction):
            return self.b == 0 and Fraction(self.a) == other
        if isinstance(other, QuadElem):
            return self.q == other.q and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.q))

    def __lt__(self, other):
        if isinstance(other, Fraction):
            # a + b sqrt(q) < n/d  <=>  d*a + d*b sqrt(q) < n   (d > 0)
            d, n = other.denominator, other.numerator
            return quad_sign(d * self.a - n, d * self.b, self.q) < 0
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() < 0

    def __floor__(self) -> int:
        if self.b == 0:
            return self.a
        s = isqrt(self.b * self.b * self.q)
        return self.a + s if self.b > 0 else self.a - s - 1

    def __repr__(self):
        return f"QuadElem({self.a}, {self.b}, sqrt{self.q})"


# ---------------------------------------------------------------------------
# Ring context with the cached dense-search base element
# ---------------------------------------------------------------------------


class QuadRing:
    """Context object for Z[sqrt(q)]: constructors plus the cached alpha0."""

    _cache: dict[int, "QuadRing"] = {}

    def __new__(cls, q: int):
        validate_radicand(q)
        inst = cls._cache.get(q)
        if inst is None:
            inst = super().__new__(cls)
            inst.q = q
            inst._alpha0 = None
            cls._cache[q] = inst
        return inst

    def elem(self, a: int, b: int = 0) -> QuadElem:
        return QuadElem(a, b, self.q)

    @property
    def zero(self) -> QuadElem:
        return QuadElem(0, 0, self.q)

    @property
    def one(self) -> QuadElem:
        return QuadElem(1, 0, self.q)

    @property
    def alpha0(self) -> QuadElem:
        """Smallest-coefficient element m + n*sqrt(q) of (1/2, 2/3).

        Scans |n| = 1, 2, ... and stops at the first level with a hit; m is
        forced by n since the window is narrower than 1.  The coefficient norm
        m^2 + n^2 grows with |n| (for |n| >= 1), so the first hit minimises it;
        ties at the same |n| break lexicographically by (norm, m, n).  For
        q = 2 this yields 2 - sqrt(2).
        """
        if self._alpha0 is None:
            lo, hi = Fraction(1, 2), Fraction(2, 3)
            for mag in range(1, 100_000):
                hits = []
                for n in (mag, -mag):
                    # m = floor(1/2 - n sqrt(q)) + 1, halving floor(1 - 2n sqrt(q))
                    m = floor(QuadElem(1, -2 * n, self.q)) // 2 + 1
                    cand = QuadElem(m, n, self.q)
                    if lo < cand and cand < hi:
                        hits.append(((m * m + n * n, m, n), cand))
                if hits:
                    self._alpha0 = min(hits)[1]
                    break
            else:
                raise RuntimeError(f"no dense-search base element found for q={self.q}")
        return self._alpha0

    def __repr__(self):
        return f"QuadRing(sqrt{self.q})"


def _dense_search(p, r, ring: QuadRing) -> tuple[QuadElem, int]:
    """Element of Z[sqrt(q)] strictly inside (p, r) plus the loop count.

    Endpoints may be ints, Fractions, or QuadElems of the same ring.
    The accumulation loop adds alpha0^i whenever the partial sum stays below
    the right endpoint and stops as soon as it clears the left endpoint; the
    iteration count is at most log_alpha0(r - p) + 1 after normalisation.
    """
    if not (p < r):
        raise ValueError("empty interval")
    zero = ring.zero
    if p < zero and zero < r:
        return zero, 0
    if not (zero < r):
        e, it = _dense_search(-r, -p, ring)
        return -e, it
    # Now 0 <= p < r.
    f = floor(p)
    p = p - f
    r = r - f
    one = ring.one
    if one < r:
        return ring.elem(f + 1), 0
    alpha = ring.alpha0
    acc = zero
    power = one
    iters = 0
    while True:
        power = power * alpha
        iters += 1
        cand = acc + power
        if cand < r:
            acc = cand
            if p < acc:
                return acc + f, iters
        if iters > 10_000:
            raise RuntimeError("dense search failed to converge")


def dense_element(p, r, ring: QuadRing) -> QuadElem:
    """Some a in Z[sqrt(q)] with p < a < r (endpoints exact, interval nonempty)."""
    return _dense_search(p, r, ring)[0]


# ---------------------------------------------------------------------------
# Lattice ideals and quotient elements
# ---------------------------------------------------------------------------


class LatticeIdeal:
    """Ideal J = d_1 Z x ... x d_b Z of Z^b, given by generator vectors.

    The ideals of Z^b are exactly the full-rank lattices whose Hermite normal
    form (generators as columns) is diagonal, so the quotient Z^b / J is the
    product ring Z/d_1 x ... x Z/d_b (Z/M when b = 1).  Any generator set
    spanning such a lattice is accepted; any other lattice raises ValueError.
    Coset representatives are canonicalised into the box 0 <= v_i < d_i.
    """

    def __init__(self, generators: Sequence[Sequence[int]]):
        gens = [tuple(int(v) for v in g) for g in generators]
        if not gens:
            raise ValueError("no generators")
        b = len(gens[0])
        if any(len(g) != b for g in gens):
            raise ValueError("generator length mismatch")
        # The generators are the columns; at full rank the Hermite columns
        # past the b-th are zero and column i is zero above row i.
        res = hnf_sparse([{i: v for i, v in enumerate(g) if v} for g in gens],
                         b, len(gens))
        if res.rank != b:
            raise ValueError("lattice is not full rank (quotient would be infinite)")
        h = res.h_cols
        if any(len(h[i]) != 1 for i in range(b)):
            dense = [[col.get(i, 0) for col in h] for i in range(b)]
            raise ValueError(f"lattice is not an ideal of Z^b: Hermite form {dense}")
        self.dim = b
        self.diag = tuple(h[i][i] for i in range(b))

    @property
    def index(self) -> int:
        return prod(self.diag)

    def canonicalize(self, vector: Sequence[int]) -> tuple[int, ...]:
        if len(vector) != self.dim:
            raise ValueError("vector dimension mismatch")
        return tuple(int(x) % d for x, d in zip(vector, self.diag))

    def cosets(self) -> Iterable[tuple[int, ...]]:
        """All canonical representatives (the fundamental box)."""
        return product(*(range(d) for d in self.diag))

    def element(self, vector: Sequence[int]) -> "LatticeQuotientElem":
        return LatticeQuotientElem(self.canonicalize(vector), self)

    def __eq__(self, other):
        return isinstance(other, LatticeIdeal) and self.diag == other.diag

    def __hash__(self):
        return hash(self.diag)

    def __repr__(self):
        return f"LatticeIdeal(dim={self.dim}, diag={self.diag})"


def intersect_ideals(ideals: Sequence[LatticeIdeal]) -> LatticeIdeal:
    """Intersection of ideals of the same Z^b: the ideal whose d_i is the lcm
    of theirs, so its quotient is again a product ring Z/d_1 x ... x Z/d_b."""
    if not ideals:
        raise ValueError("no lattices to intersect")
    b = ideals[0].dim
    if any(j.dim != b for j in ideals):
        raise ValueError("dimension mismatch")
    diag = [lcm(*(j.diag[i] for j in ideals)) for i in range(b)]
    return LatticeIdeal([[d if i == k else 0 for k in range(b)]
                         for i, d in enumerate(diag)])


@dataclass(frozen=True)
class LatticeQuotientElem:
    """Element of the product ring Z^b / J, stored canonically."""

    vector: tuple[int, ...]
    lattice: LatticeIdeal

    def __post_init__(self):
        object.__setattr__(self, "vector", self.lattice.canonicalize(self.vector))

    def reduce_to(self, other: LatticeIdeal) -> "LatticeQuotientElem":
        """Push the element into a coarser quotient; other must contain the
        lattice, that is each of its d_i must divide the lattice's d_i."""
        if any(d % e for d, e in zip(self.lattice.diag, other.diag)):
            raise ValueError(f"{other} does not contain {self.lattice}")
        return LatticeQuotientElem(self.vector, other)


# ---------------------------------------------------------------------------
# Exact sign oracle for sums of rational multiples of square roots
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def squarefree_split(n: int) -> tuple[int, int]:
    """n = s * k^2 with s squarefree; returns (s, k).  n >= 1."""
    s, k = 1, 1
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            if e % 2:
                s *= d
            k *= d ** (e // 2)
        d += 1
    s *= m
    return s, k


class SqrtExpr:
    """Exact element of Q(sqrt(d1), sqrt(d2), ...): dict {squarefree d: coef}.

    The basis {sqrt(d) : d squarefree} is linearly independent over Q, so the
    zero test is coefficient-wise and any nonzero value has a determinable
    sign via interval refinement.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        self.terms: dict[int, Fraction] = {}
        if terms:
            for d, c in terms.items():
                if c:
                    self.terms[d] = self.terms.get(d, Fraction(0)) + c
            self.terms = {d: c for d, c in self.terms.items() if c}

    @staticmethod
    def from_rational(x) -> "SqrtExpr":
        f = Fraction(x)
        return SqrtExpr({1: f} if f else {})

    @staticmethod
    def from_quad(x: QuadElem) -> "SqrtExpr":
        s, k = squarefree_split(x.q)
        return SqrtExpr({1: Fraction(x.a), s: Fraction(x.b * k)})

    @staticmethod
    def promote(x) -> "SqrtExpr":
        if isinstance(x, SqrtExpr):
            return x
        if isinstance(x, (int, Fraction)):
            return SqrtExpr.from_rational(x)
        if isinstance(x, QuadElem):
            return SqrtExpr.from_quad(x)
        raise TypeError(f"cannot promote {type(x).__name__} to SqrtExpr")

    def __add__(self, other):
        o = SqrtExpr.promote(other)
        out = dict(self.terms)
        for d, c in o.terms.items():
            out[d] = out.get(d, Fraction(0)) + c
        return SqrtExpr(out)

    __radd__ = __add__

    def __neg__(self):
        return SqrtExpr({d: -c for d, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-SqrtExpr.promote(other))

    def __rsub__(self, other):
        return SqrtExpr.promote(other) - self

    def __mul__(self, other):
        o = SqrtExpr.promote(other)
        out: dict[int, Fraction] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in o.terms.items():
                g = gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                coef = c1 * c2 * g
                out[d] = out.get(d, Fraction(0)) + coef
        return SqrtExpr(out)

    __rmul__ = __mul__

    def sign(self) -> int:
        if not self.terms:
            return 0
        bits = 32
        while True:
            lo = Fraction(0)
            hi = Fraction(0)
            for d, c in self.terms.items():
                if d == 1:
                    lo += c
                    hi += c
                    continue
                slo, shi = sqrt_bounds(d, bits)
                if c > 0:
                    lo += c * slo
                    hi += c * shi
                else:
                    lo += c * shi
                    hi += c * slo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2
            if bits > 1 << 20:
                raise RuntimeError("sign refinement failed to converge")
