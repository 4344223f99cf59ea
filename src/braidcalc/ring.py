"""Exact coefficient arithmetic and sparse polynomial algebras.

Two coefficient rings share one Scalar representation: a tuple of
Fractions.  The rational ring keeps a single slot; the truncated-series
ring keeps N slots holding the coefficients of 1, h, ..., h^(N-1), all
arithmetic done mod h^N where h is the formal deformation parameter.
Which ring is in force is a run-time value carried by every Scalar;
mixing rings raises RingMismatch.

AlgebraElement is a sparse polynomial in commuting coordinates with
Scalar coefficients, stored as {exponent tuple: Scalar}.  An algebra
may declare one unit polynomial u; elements are then fractions
num / u^du, canonicalized by exact division of num by u.  This is the
smallest extension of the plain polynomial ring in which metrics like
diag(1, 1+x^2) admit exact two-sided inverse witnesses.

Everything here is immutable after construction; all operations are
pure and return fresh objects.
"""

import functools
from fractions import Fraction

from .errors import (
    IndexOutOfRange,
    InverseWitnessInvalid,
    NotInvertible,
    RingMismatch,
    WrongRing,
)


def _frac(v):
    """Coerce ints, Fractions and strings like '3/2' to Fraction."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v.strip())
    assert 0, ("not a rational literal", v)


_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------
# the engine's shared idioms
# ---------------------------------------------------------------------


def _add_terms(out, pairs):
    """Fold (key, coefficient) pairs into the sparse map `out`, dropping
    keys whose coefficients cancel; returns `out`."""
    for k, v in pairs:
        prev = out.get(k)
        if prev is not None:
            v = prev + v
        if v.is_zero():
            out.pop(k, None)
        else:
            out[k] = v
    return out


def _memo(method):
    """Cache a method per instance, keyed by its positional arguments;
    the method never returns None."""
    slot = "_memo_" + method.__name__

    @functools.wraps(method)
    def cached(self, *args):
        try:
            table = self.__dict__[slot]
        except KeyError:
            table = self.__dict__[slot] = {}
        got = table.get(args)
        if got is None:
            got = table[args] = method(self, *args)
        return got

    return cached


def _neumann(one, n, order):
    """Sum of n^k for k < order, stopping at the first zero power: the
    inverse of one - n when n is of positive h-order."""
    out = term = one
    for _ in range(1, order):
        term = term * n
        if term.is_zero():
            break
        out = out + term
    return out


def _exponents_up_to(arity, depth):
    """All exponent tuples of total degree <= depth, ordered by
    (degree, exponent)."""
    out = [()]
    for _ in range(arity):
        out = [e + (k,) for e in out for k in range(depth - sum(e) + 1)]
    out.sort(key=lambda e: (sum(e), e))
    return out


class Ring:
    """Coefficient ring descriptor: exact rationals, or series mod h^order."""

    __slots__ = ("kind", "order")

    def __init__(self, kind, order=1):
        assert kind in ("rational", "series"), kind
        if kind == "rational":
            order = 1
        assert isinstance(order, int) and order >= 1, order
        self.kind = kind
        self.order = order

    @property
    def is_series(self):
        return self.kind == "series"

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.kind == other.kind
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.kind, self.order))

    def __repr__(self):
        if self.kind == "rational":
            return "Ring(rational)"
        return "Ring(series, mod h^%d)" % self.order

    # -- constructors ------------------------------------------------

    def from_coeffs(self, coeffs):
        c = tuple(_frac(v) for v in coeffs)
        assert len(c) == self.order, (len(c), self.order)
        return Scalar(self, c)

    def scalar(self, v):
        """Embed a rational literal as a Scalar of this ring."""
        c = [_frac(v)] + [_ZERO] * (self.order - 1)
        return Scalar(self, tuple(c))

    def zero(self):
        return self.scalar(0)

    def one(self):
        return self.scalar(1)

    def h(self, power=1):
        """The deformation parameter h^power; series ring only."""
        if not self.is_series:
            raise WrongRing("h lives in the truncated-series ring only")
        assert power >= 1, power
        c = [_ZERO] * self.order
        if power < self.order:
            c[power] = _ONE
        return Scalar(self, tuple(c))


RATIONAL = Ring("rational")


class Scalar:
    """Immutable ring element: a rational, or a series coefficient tuple."""

    __slots__ = ("ring", "c")

    def __init__(self, ring, c):
        assert isinstance(c, tuple) and len(c) == ring.order
        self.ring = ring
        self.c = c

    # -- predicates --------------------------------------------------

    def is_zero(self):
        return all(v == 0 for v in self.c)

    def min_h_order(self):
        """Smallest k with a nonzero h^k coefficient; ring order if zero."""
        for k, v in enumerate(self.c):
            if v != 0:
                return k
        return self.ring.order

    # -- arithmetic --------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Scalar) or other.ring != self.ring:
            raise RingMismatch((self.ring, getattr(other, "ring", other)))

    def __add__(self, other):
        self._check(other)
        return Scalar(self.ring, tuple(a + b for a, b in zip(self.c, other.c)))

    def __sub__(self, other):
        self._check(other)
        return Scalar(self.ring, tuple(a - b for a, b in zip(self.c, other.c)))

    def __neg__(self):
        return Scalar(self.ring, tuple(-a for a in self.c))

    def __mul__(self, other):
        self._check(other)
        n = self.ring.order
        if n == 1:
            return Scalar(self.ring, (self.c[0] * other.c[0],))
        a, b = self.c, other.c
        out = [_ZERO] * n
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j in range(n - i):
                bj = b[j]
                if bj != 0:
                    out[i + j] += ai * bj
        return Scalar(self.ring, tuple(out))

    def inverse(self):
        """Exact inverse; series inverses need an invertible h^0 part."""
        if self.ring.order == 1:
            if self.c[0] == 0:
                raise NotInvertible("division by zero")
            return Scalar(self.ring, (1 / self.c[0],))
        a0 = self.c[0]
        if a0 == 0:
            raise NotInvertible("series with zero constant term")
        n = self.ring.order
        b = [1 / a0] + [_ZERO] * (n - 1)
        for k in range(1, n):
            s = _ZERO
            for i in range(1, k + 1):
                s += self.c[i] * b[k - i]
            b[k] = -s / a0
        return Scalar(self.ring, tuple(b))

    def __pow__(self, k):
        assert isinstance(k, int) and k >= 0, k
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    # -- ring changes ------------------------------------------------

    def h0(self):
        """Classical limit: the h^0 coefficient as a rational Scalar."""
        return Scalar(RATIONAL, (self.c[0],))

    def lift(self, ring):
        """Re-embed into `ring`; never allowed to drop nonzero coefficients."""
        if ring == self.ring:
            return self
        assert all(
            v == 0 for v in self.c[ring.order:]
        ), "lift would truncate nonzero coefficients"
        c = list(self.c[: ring.order])
        c += [_ZERO] * (ring.order - len(c))
        return Scalar(ring, tuple(c))

    # -- plumbing ----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.ring == other.ring
            and self.c == other.c
        )

    def __hash__(self):
        return hash((self.ring, self.c))

    def __repr__(self):
        if self.ring.order == 1:
            return str(self.c[0])
        parts = []
        for k, v in enumerate(self.c):
            if v == 0:
                continue
            if k == 0:
                parts.append(str(v))
            elif k == 1:
                parts.append("h" if v == 1 else "%s*h" % v)
            else:
                parts.append("h^%d" % k if v == 1 else "%s*h^%d" % (v, k))
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------
# sparse polynomials, optionally localized at one declared unit
# ---------------------------------------------------------------------


def _map_add(a, b):
    return _add_terms(dict(a), b.items())


def _map_mul(a, b):
    return _add_terms({}, (
        (tuple(x + y for x, y in zip(ea, eb)), ca * cb)
        for ea, ca in a.items()
        for eb, cb in b.items()
    ))


def _map_scale(a, s):
    if s.is_zero():
        return {}
    return {e: c * s for e, c in a.items()}


class PolyAlgebra:
    """Polynomial algebra over a Ring in named commuting coordinates,
    optionally localized at a single declared unit polynomial."""

    __slots__ = ("ring", "names", "unit", "_unit_lead", "_index")

    def __init__(self, ring, names, unit=None):
        assert isinstance(ring, Ring)
        names = tuple(names)
        assert len(set(names)) == len(names), names
        self.ring = ring
        self.names = names
        self._index = {nm: i for i, nm in enumerate(names)}
        if unit is not None:
            unit = {tuple(e): c for e, c in unit.items() if not c.is_zero()}
            assert unit, "declared unit must be nonzero"
            lead = max(unit)
            lead_c = unit[lead]
            # leading coefficient must be invertible for exact division
            self._unit_lead = (lead, lead_c.inverse())
        else:
            self._unit_lead = None
        self.unit = unit

    @property
    def arity(self):
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, PolyAlgebra)
            and self.ring == other.ring
            and self.names == other.names
            and self.unit == other.unit
        )

    def __hash__(self):
        u = None if self.unit is None else frozenset(self.unit.items())
        return hash((self.ring, self.names, u))

    def __repr__(self):
        return "PolyAlgebra(%s; %s)" % (", ".join(self.names), self.ring)

    # -- element constructors ----------------------------------------

    def element(self, num, du=0):
        return AlgebraElement(self, num, du)

    def zero(self):
        return AlgebraElement(self, {}, 0)

    def one(self):
        return AlgebraElement(self, {(0,) * self.arity: self.ring.one()}, 0)

    def scalar(self, v):
        s = v if isinstance(v, Scalar) else self.ring.scalar(v)
        if s.ring != self.ring:
            raise RingMismatch((s.ring, self.ring))
        return AlgebraElement(self, {(0,) * self.arity: s}, 0)

    def coord(self, i):
        if not 0 <= i < self.arity:
            raise IndexOutOfRange(("coordinate", i, self.arity))
        e = [0] * self.arity
        e[i] = 1
        return AlgebraElement(self, {tuple(e): self.ring.one()}, 0)

    def monomial(self, exp, coeff=1):
        exp = tuple(exp)
        assert len(exp) == self.arity and all(k >= 0 for k in exp), exp
        s = coeff if isinstance(coeff, Scalar) else self.ring.scalar(coeff)
        return AlgebraElement(self, {exp: s}, 0)

    def parse_exponent(self, key):
        """Exponent-string keys: '1' (unit), 'x', 'x^2 y', 'y^3'."""
        key = key.strip()
        e = [0] * self.arity
        if key in ("1", ""):
            return tuple(e)
        for atom in key.split():
            if "^" in atom:
                nm, p = atom.split("^")
                p = int(p)
            else:
                nm, p = atom, 1
            if nm not in self._index:
                raise IndexOutOfRange(("coordinate name", nm, self.names))
            e[self._index[nm]] += p
        return tuple(e)

    def from_map(self, m):
        """Build an element from {'x^2 y': '3/2', ...}."""
        num = _add_terms({}, (
            (self.parse_exponent(key),
             val if isinstance(val, Scalar) else self.ring.scalar(val))
            for key, val in m.items()
        ))
        return AlgebraElement(self, num, 0)

    def unit_element(self):
        assert self.unit is not None
        return AlgebraElement(self, dict(self.unit), 0)

    # -- exact division by the declared unit -------------------------

    def _divide_by_unit(self, num):
        """Return num / unit as a coefficient map, or None if not exact."""
        if self._unit_lead is None:
            return None
        lead_e, lead_c_inv = self._unit_lead
        rem = dict(num)
        q = {}
        while rem:
            e = max(rem)
            diff = tuple(a - b for a, b in zip(e, lead_e))
            if any(d < 0 for d in diff):
                return None
            coef = rem[e] * lead_c_inv
            q[diff] = coef
            neg = -coef
            _add_terms(rem, (
                (tuple(a + b for a, b in zip(diff, ue)), neg * uc)
                for ue, uc in self.unit.items()
            ))
        return q


class AlgebraElement:
    """Sparse polynomial num / unit^du with Scalar coefficients."""

    __slots__ = ("algebra", "num", "du", "_hash")

    def __init__(self, algebra, num, du=0):
        assert du >= 0, du
        num = {e: c for e, c in num.items() if not c.is_zero()}
        if not num:
            du = 0
        # canonicalize: cancel unit powers while the numerator divides
        while du > 0:
            q = algebra._divide_by_unit(num)
            if q is None:
                break
            num, du = q, du - 1
        self.algebra = algebra
        self.num = num
        self.du = du
        self._hash = None

    # -- predicates --------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_scalar(self):
        if not self.num:
            return True
        zero_e = (0,) * self.algebra.arity
        return self.du == 0 and set(self.num) == {zero_e}

    def constant_scalar(self):
        """The coefficient of the unit monomial (du must be 0)."""
        assert self.du == 0, "fraction has no plain constant term"
        return self.num.get((0,) * self.algebra.arity, self.algebra.ring.zero())

    def total_degree(self):
        if not self.num:
            return 0
        return max(sum(e) for e in self.num)

    def min_h_order(self):
        """Smallest h power carried by any coefficient; ring order if zero."""
        if not self.num:
            return self.algebra.ring.order
        return min(c.min_h_order() for c in self.num.values())

    # -- arithmetic --------------------------------------------------

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or other.algebra != self.algebra:
            raise RingMismatch((self.algebra, getattr(other, "algebra", other)))

    def _raise_du(self, target_du):
        """Numerator rescaled so the element reads num / unit^target_du."""
        assert target_du >= self.du
        num = self.num
        for _ in range(target_du - self.du):
            num = _map_mul(num, self.algebra.unit)
        return num

    def __add__(self, other):
        self._check(other)
        du = max(self.du, other.du)
        return AlgebraElement(
            self.algebra, _map_add(self._raise_du(du), other._raise_du(du)), du
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgebraElement(
            self.algebra, {e: -c for e, c in self.num.items()}, self.du
        )

    def __mul__(self, other):
        self._check(other)
        return AlgebraElement(
            self.algebra, _map_mul(self.num, other.num), self.du + other.du
        )

    def scale(self, s):
        if not isinstance(s, Scalar):
            s = self.algebra.ring.scalar(s)
        if s.ring != self.algebra.ring:
            raise RingMismatch((s.ring, self.algebra.ring))
        return AlgebraElement(self.algebra, _map_scale(self.num, s), self.du)

    def __pow__(self, k):
        assert isinstance(k, int) and k >= 0
        out = self.algebra.one()
        for _ in range(k):
            out = out * self
        return out

    def deriv(self, j):
        """Partial derivative along coordinate j (quotient rule on du)."""
        if not 0 <= j < self.algebra.arity:
            raise IndexOutOfRange(("coordinate", j, self.algebra.arity))
        scalar = self.algebra.ring.scalar
        dnum = _add_terms({}, (
            (e[:j] + (e[j] - 1,) + e[j + 1:], c * scalar(e[j]))
            for e, c in self.num.items()
            if e[j]
        ))
        if self.du == 0:
            return AlgebraElement(self.algebra, dnum, 0)
        # d(p/u^k) = dp/u^k - k p du/u^(k+1)
        k = self.algebra.ring.scalar(self.du)
        dunit = AlgebraElement(self.algebra, dict(self.algebra.unit), 0).deriv(j)
        part1 = AlgebraElement(
            self.algebra, _map_mul(dnum, self.algebra.unit), self.du + 1
        )
        part2 = AlgebraElement(
            self.algebra, _map_scale(_map_mul(self.num, dunit.num), k), self.du + 1
        )
        return part1 - part2

    def inverse(self):
        """Invert elements of the form (scalar * unit^k) * (1 + O(h)).

        Strips declared-unit factors from the numerator, then inverts the
        remaining scalar-plus-higher-h-order part by a geometric series.
        Raises NotInvertible when the element is not of that shape.
        """
        if self.is_zero():
            raise NotInvertible("zero algebra element")
        alg = self.algebra
        num, uk = dict(self.num), 0
        while True:
            q = alg._divide_by_unit(num)
            if q is None:
                break
            num, uk = q, uk + 1
        rest = AlgebraElement(alg, num, 0)
        zero_e = (0,) * alg.arity
        c0 = rest.num.get(zero_e)
        if c0 is None:
            raise NotInvertible("no invertible scalar-unit factorization")
        # rest = c0 (1 + n) with n of positive h-order
        n_elem = rest.scale(c0.inverse()) - alg.one()
        if not n_elem.is_zero():
            if not alg.ring.is_series:
                raise NotInvertible("non-scalar remainder over the rational ring")
            if min(c.min_h_order() for c in n_elem.num.values()) < 1:
                raise NotInvertible("remainder is not of positive h-order")
        # (1 + n)^(-1) = 1 - n + n^2 - ... truncates since n is O(h)
        inv_rest = _neumann(alg.one(), -n_elem, alg.ring.order)
        inv_rest = inv_rest.scale(c0.inverse())
        # unit^k / 1 -> move to denominator: inverse carries du += uk... and
        # the original du moves to the numerator as unit^du.
        out = AlgebraElement(alg, inv_rest.num, inv_rest.du + uk)
        if self.du:
            unit_pow = alg.unit_element() ** self.du
            out = out * unit_pow
        if not (out * self - alg.one()).is_zero():
            raise InverseWitnessInvalid("inverse verification")
        return out

    # -- ring changes -------------------------------------------------

    def h0(self, target):
        """Classical limit into `target`, a rational-ring sibling algebra."""
        num = {}
        for e, c in self.num.items():
            c0 = c.h0()
            if not c0.is_zero():
                num[e] = c0
        return AlgebraElement(target, num, self.du)

    def lift(self, target):
        """Embed into `target`, a series-ring sibling algebra."""
        num = {e: c.lift(target.ring) for e, c in self.num.items()}
        return AlgebraElement(target, num, self.du)

    # -- plumbing ----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.algebra == other.algebra
            and self.du == other.du
            and self.num == other.num
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.num.items()), self.du))
        return self._hash

    def __repr__(self):
        if not self.num:
            return "0"
        names = self.algebra.names
        parts = []
        for e in sorted(self.num, reverse=True):
            c = self.num[e]
            mono = " ".join(
                nm if k == 1 else "%s^%d" % (nm, k)
                for nm, k in zip(names, e)
                if k
            )
            cs = repr(c)
            if " + " in cs or " - " in cs[1:]:
                cs = "(%s)" % cs
            parts.append(cs if not mono else ("%s*%s" % (cs, mono)))
        s = " + ".join(parts)
        if self.du:
            s = "(%s)/unit^%d" % (s, self.du)
        return s
