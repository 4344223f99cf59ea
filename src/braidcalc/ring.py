"""Exact coefficient arithmetic and sparse polynomial algebras.

Two coefficient rings share one Scalar representation: a tuple of int
numerators over one positive int denominator, in lowest terms.  The
rational ring keeps a single numerator; the truncated-series ring keeps
N numerators for the coefficients of 1, h, ..., h^(N-1), all arithmetic
done mod h^N where h is the formal deformation parameter.
Which ring is in force is a run-time value carried by every Scalar;
mixing rings raises RingMismatch.

_Terms is the sparse linear combination {basis key: coefficient} that
every element type of the engine builds on.  The elements with Scalar
coefficients (AlgebraElement here, HopfElement and TensorElement in
hopf) lift the Scalar layout to the whole element: a map {basis key:
tuple of int numerators} over one positive int denominator shared by
every term, in lowest terms, so that their sums, products and scalings
run on ints and build no Scalar per term.  Their `terms` is a read-only
{key: Scalar} view, built on demand for printing, ring changes and
inverses.

AlgebraElement is a sparse polynomial in commuting coordinates, keyed
by exponent tuples.  An algebra may declare one unit polynomial u;
elements are then fractions terms / u^du, canonicalized by exact
division of the numerator by u.  This is the smallest extension of the
plain polynomial ring in which metrics like diag(1, 1+x^2) admit exact
two-sided inverse witnesses.

Everything here is immutable after construction and all operations are
pure, so results may be shared: an algebra builds its zero, one and
coordinates once, a sum with zero returns the other operand and a
scaling by one returns the element itself.
"""

import functools
import math
import operator
from fractions import Fraction
from itertools import chain
from types import MappingProxyType

from .errors import (
    ArityMismatch,
    IndexOutOfRange,
    InverseWitnessInvalid,
    NotInvertible,
    RingMismatch,
    SchemaError,
    WrongRing,
)


def _frac(v):
    """Coerce ints and Fractions to Fraction."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise SchemaError(("not a rational literal", v))


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


def _mul1(a, b):
    return (a[0] * b[0],)


def _add1(a, b):
    return (a[0] + b[0],)


def _series_mul(a, b):
    """Product of two numerator tuples, truncated mod h^len(a)."""
    order = len(a)
    out = [0] * order
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                if k == order:
                    break
                if bj:
                    out[k] += ai * bj
    return tuple(out)


def _series_add(a, b):
    return tuple(map(operator.add, a, b))


def _h_order(n):
    """Index of the first nonzero numerator; len(n) when all vanish."""
    for k, v in enumerate(n):
        if v:
            return k
    return len(n)


def _fold(out, pairs, add):
    """Fold (key, numerator tuple) pairs into the numerator map `out`,
    `add` adding two tuples, dropping keys whose numerators vanish;
    returns `out`."""
    for k, v in pairs:
        prev = out.get(k)
        if prev is not None:
            v = add(prev, v)
        if any(v):
            out[k] = v
        elif prev is not None:
            del out[k]
    return out


def _times(num, f):
    """Every numerator of the map times the int f."""
    return {k: tuple(x * f for x in v) for k, v in num.items()}


def _scaled(num, n, mul):
    """Every numerator tuple of the map times the tuple n, zero products
    (a truncated series product can vanish) dropped."""
    out = {}
    for k, v in num.items():
        p = mul(v, n)
        if any(p):
            out[k] = p
    return out


def _lowest(num, den):
    """num / den in lowest terms: gcd(den, every numerator) == 1."""
    g = math.gcd(den, *chain.from_iterable(num.values()))
    if g != 1:
        den //= g
        num = {k: tuple(x // g for x in v) for k, v in num.items()}
    return num, den


def _rescale(out, den, d):
    """The numerator map `out` over `den` rescaled to the least common
    denominator of den and d; returns (out, lcm, lcm // d), the last the
    factor that brings numerators over d to the lcm."""
    if d == den:
        return out, den, 1
    lcm = den // math.gcd(den, d) * d
    if lcm != den:
        out = _times(out, lcm // den)
    return out, lcm, lcm // d


def _accumulate(out, den, pairs, d, add):
    """Fold the (key, numerator tuple) pairs of a map over denominator d
    into the map `out` over `den`, rescaling to the least common
    denominator; returns the new (out, den)."""
    out, den, f = _rescale(out, den, d)
    if f != 1:
        pairs = ((k, tuple(x * f for x in v)) for k, v in pairs)
    return _fold(out, pairs, add), den


def _map_mul(a, b, ring):
    """Product of two polynomial numerator maps over `ring`."""
    mul = ring._mul
    pairs = (
        (tuple(map(operator.add, ea, eb)), mul(ca, cb))
        for ea, ca in a.items()
        for eb, cb in b.items()
    )
    if len(a) == 1 or len(b) == 1:
        # a one-term factor shifts exponents injectively: no key repeats
        return {k: c for k, c in pairs if any(c)}
    return _fold({}, pairs, ring._add)


def _memo(method):
    """Cache a method per instance, keyed by its positional arguments,
    in the attribute `_memo_<name>` of the instance; the method never
    returns None."""
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


def _leg_sum(legs, act, u, v, op, total):
    """total + sum c * op(l |> u, r |> v) over the (l, r, c) leg triples
    of a rank-2 tensor, `act(leg, obj)` being the Hopf action.  Leg l is
    applied first, and a term is skipped as soon as either leg gives
    zero; a None total starts from the first surviving term (and stays
    None when none survives)."""
    for l, r, c in legs:
        lu = act(l, u)
        if lu.is_zero():
            continue
        rv = act(r, v)
        if rv.is_zero():
            continue
        term = op(lu, rv).scale(c)
        total = term if total is None else total + term
    return total


def _derive(images, f):
    """The plain vector field with coordinate images `images` applied
    to the polynomial f: sum_j images[j] * df/dx_j."""
    out = f.algebra.zero()
    for j, img in enumerate(images):
        if img.is_zero():
            continue
        df = f.deriv(j)
        if not df.is_zero():
            out = out + img * df
    return out


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


def _exponent(exp, arity):
    """`exp` as a tuple of `arity` non-negative exponents."""
    exp = tuple(exp)
    if len(exp) != arity:
        raise ArityMismatch(("exponent length", len(exp), arity))
    if any(k < 0 for k in exp):
        raise IndexOutOfRange(("negative exponent", exp))
    return exp


class Ring:
    """Coefficient ring descriptor: exact rationals, or series mod h^order."""

    __slots__ = ("kind", "order", "_mul", "_add", "_one")

    def __init__(self, kind, order=1):
        if kind == "rational":
            if type(order) is not int or order != 1:
                raise SchemaError(("a rational ring takes no order", order))
        elif kind != "series":
            raise SchemaError(("ring kind must be rational or series", kind))
        if type(order) is not int or order < 1:
            raise SchemaError(("series ring needs a positive integer order",
                               order))
        self.kind = kind
        self.order = order
        # product and sum of numerator tuples, and the numerators of 1
        if order == 1:
            self._mul, self._add = _mul1, _add1
        else:
            self._mul, self._add = _series_mul, _series_add
        self._one = (1,) + (0,) * (order - 1)

    @property
    def is_series(self):
        return self.kind == "series"

    def __eq__(self, other):
        return other is self or (
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

    def scalar(self, v):
        """Embed a rational literal as a Scalar of this ring."""
        if type(v) is int:
            n, d = v, 1
        else:
            v = _frac(v)
            n, d = v.numerator, v.denominator
        return Scalar(self, (n,) + (0,) * (self.order - 1), d)

    def zero(self):
        return self.scalar(0)

    def one(self):
        return self.scalar(1)

    def h(self, power=1):
        """The deformation parameter h^power; series ring only."""
        if not self.is_series:
            raise WrongRing("h lives in the truncated-series ring only")
        if type(power) is not int or power < 1:
            raise IndexOutOfRange(("h power must be a positive int", power))
        n = [0] * self.order
        if power < self.order:
            n[power] = 1
        return Scalar(self, tuple(n), 1)


RATIONAL = Ring("rational")


class Scalar:
    """Immutable ring element: the rational or truncated series n / d.

    `n` holds the int numerators of 1, h, ..., h^(order-1) and `d` their
    one positive int denominator, in lowest terms: gcd(d, *n) == 1, so
    zero is ((0,) * order, 1) and equal values have equal fields.
    """

    __slots__ = ("ring", "n", "d")

    def __init__(self, ring, n, d):
        """Store n / d, reduced; the caller passes len(n) == ring.order
        and d > 0."""
        if d != 1:
            g = math.gcd(d, *n)
            if g != 1:
                n = tuple(v // g for v in n)
                d //= g
        self.ring = ring
        self.n = n
        self.d = d

    @property
    def c(self):
        """The coefficients of 1, h, ..., h^(order-1) as Fractions."""
        return tuple(Fraction(v, self.d) for v in self.n)

    # -- predicates --------------------------------------------------

    def is_zero(self):
        return not any(self.n)

    # -- arithmetic --------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Scalar) or other.ring != self.ring:
            raise RingMismatch((self.ring, getattr(other, "ring", other)))

    def _add(self, other, sign):
        self._check(other)
        a, b, da, db = self.n, other.n, self.d, other.d
        if da == db:
            return Scalar(self.ring,
                          tuple(x + sign * y for x, y in zip(a, b)), da)
        ka, kb = db, sign * da
        return Scalar(self.ring,
                      tuple(x * ka + y * kb for x, y in zip(a, b)), da * db)

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def __neg__(self):
        return Scalar(self.ring, tuple(-v for v in self.n), self.d)

    def __mul__(self, other):
        self._check(other)
        return Scalar(self.ring, self.ring._mul(self.n, other.n),
                      self.d * other.d)

    def inverse(self):
        """Exact inverse; series inverses need an invertible h^0 part.
        With c = a0 / d the constant term, self = c (1 - n) and n of
        positive h-order, so the inverse is (sum_k n^k) c^-1."""
        ring, a0 = self.ring, self.n[0]
        if not a0:
            raise NotInvertible("division by zero" if ring.order == 1
                                else "series with zero constant term")
        c_inv = ring.scalar(Fraction(self.d, a0))
        one = ring.one()
        return _neumann(one, one - self * c_inv, ring.order) * c_inv

    # -- plumbing ----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.ring == other.ring
            and self.n == other.n
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.ring, self.n, self.d))

    def __repr__(self):
        c = self.c
        if self.ring.order == 1:
            return str(c[0])
        parts = []
        for k, v in enumerate(c):
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
# sparse linear combinations
# ---------------------------------------------------------------------


class _Terms:
    """A finite sum of basis keys with coefficients.

    AlgebraElement, HopfElement, TensorElement and GradedObject share
    this plumbing.  The first three have Scalar coefficients and store
    them fraction-free: `_map` is {key: tuple of int numerators} over
    the one positive int denominator `_den`, kept in lowest terms (gcd
    of `_den` and every numerator is 1; zero is ({}, 1)) with no
    all-zero tuple, so equality and the hash stay structural.
    GradedObject, whose `_scalar_coefficients` is false, stores
    {key: AlgebraElement} in `_map` with `_den` 1.

    Each subclass supplies its product and repr and:
      * `__init__`, validating its keys and passing its terms through
        `_Terms.__init__`, which drops zero coefficients: {key: Scalar}
        terms, or with `den` given, a numerator map with no zero tuple;
      * `_check(other)`, raising its own error for an incompatible operand;
      * `_like(terms, den=None)`, a sibling with the same extra data;
      * `_data`, the extra data that equality and the hash take besides
        the terms, a slot set at construction so that reading it costs
        no call: the algebra (with a unit power), the Lie algebra (with
        a rank) or the grade, so that two elements are one memo key
        only when they are one value;
      * `_ring`, a getter of its coefficient ring.
    """

    __slots__ = ("_map", "_den", "_hash")
    _scalar_coefficients = True

    def __init__(self, terms, den=None):
        if den is None:
            if self._scalar_coefficients:
                terms, den = self._numerators(terms)
            else:
                terms = {k: c for k, c in terms.items() if not c.is_zero()}
                den = 1
        if den != 1:
            terms, den = _lowest(terms, den)
        self._map = terms
        self._den = den
        self._hash = None

    def _numerators(self, terms):
        """A {key: Scalar} map of this element's ring as a numerator map
        over the least common denominator, zeros dropped."""
        ring = self._ring(self)
        den = 1
        for c in terms.values():
            if not isinstance(c, Scalar) or c.ring != ring:
                raise RingMismatch((ring, getattr(c, "ring", c)))
            den = math.lcm(den, c.d)
        return {k: tuple(x * (den // c.d) for x in c.n)
                for k, c in terms.items() if not c.is_zero()}, den

    @property
    def terms(self):
        """{key: coefficient}: for Scalar coefficients a read-only view
        built on demand, not stored; else the stored map."""
        if not self._scalar_coefficients:
            return self._map
        ring, den = self._ring(self), self._den
        return MappingProxyType(
            {k: Scalar(ring, v, den) for k, v in self._map.items()})

    def is_zero(self):
        return not self._map

    def _unit_monomial(self):
        """The key of a unit monomial, one term whose coefficient is
        exactly 1 (numerators of one over denominator 1), else None;
        maps of such a key may return their memoized image as it is."""
        if self._den == 1 and len(self._map) == 1:
            (k, n), = self._map.items()
            if n == self._ring(self)._one:
                return k
        return None

    def _expand(self, images):
        """Sum of c * images(k) over the terms c k, `images` giving
        elements with Scalar coefficients, as (numerator map,
        denominator); for Scalar-coefficient elements only."""
        mul, add = self._ring(self)._mul, self._ring(self)._add
        out, den = {}, 1
        for key, n in self._map.items():
            img = images(key)
            out, den = _accumulate(
                out, den, ((k, mul(n, s)) for k, s in img._map.items()),
                img._den, add)
        return out, den * self._den

    def min_h_order(self):
        """Smallest h power carried by any coefficient; ring order if zero."""
        if not self._map:
            return self._ring(self).order
        if self._scalar_coefficients:
            return min(map(_h_order, self._map.values()))
        return min(c.min_h_order() for c in self._map.values())

    def __add__(self, other):
        self._check(other)
        if not other._map:
            return self
        if not self._map:
            return other
        return self._plus(other)

    def _plus(self, other):
        """The sum of two nonzero compatible operands."""
        if not self._scalar_coefficients:
            return self._like(_add_terms(dict(self._map), other._map.items()))
        return self._like(*_accumulate(dict(self._map), self._den,
                                       other._map.items(), other._den,
                                       self._ring(self)._add))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if not self._scalar_coefficients:
            return self._like({k: -c for k, c in self._map.items()})
        return self._like({k: tuple(-x for x in v)
                           for k, v in self._map.items()}, self._den)

    def scale(self, s):
        """Every coefficient times s, a Scalar or a rational literal; the
        element itself when s is one."""
        ring = self._ring(self)
        if not isinstance(s, Scalar):
            s = ring.scalar(s)
        elif s.ring is not ring and s.ring != ring:
            raise RingMismatch((s.ring, ring))
        if s.d == 1 and s.n == ring._one:
            return self
        if s.is_zero():
            return self._like({})
        if not self._scalar_coefficients:
            return self._like({k: c.scale(s) for k, c in self._map.items()})
        return self._like(_scaled(self._map, s.n, ring._mul), self._den * s.d)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._data == other._data
            and self._den == other._den
            and self._map == other._map
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._data, self._den,
                               frozenset(self._map.items())))
        return self._hash


def _monomials_repr(terms, names, reverse=False):
    """The sum c*x^2 y + ... of a {exponent tuple: Scalar} map, its
    monomials sorted (descending if `reverse`)."""
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms, reverse=reverse):
        mono = " ".join(
            nm if k == 1 else "%s^%d" % (nm, k) for nm, k in zip(names, e) if k
        )
        cs = repr(terms[e])
        if " + " in cs or " - " in cs[1:]:
            cs = "(%s)" % cs
        parts.append("%s*%s" % (cs, mono) if mono else cs)
    return " + ".join(parts)


# ---------------------------------------------------------------------
# sparse polynomials, optionally localized at one declared unit
# ---------------------------------------------------------------------


class PolyAlgebra:
    """Polynomial algebra over a Ring in named commuting coordinates,
    optionally localized at a single declared unit polynomial."""

    __slots__ = ("ring", "names", "unit", "_unit", "_unit_lead", "_hash",
                 "_zero", "_one", "_coords")

    def __init__(self, ring, names, unit=None):
        if not isinstance(ring, Ring):
            raise WrongRing(("not a coefficient ring", ring))
        names = tuple(names)
        if len(set(names)) != len(names):
            raise SchemaError(("duplicate coordinate", names))
        self.ring = ring
        self.names = names
        if unit is not None:
            unit = {tuple(e): c for e, c in unit.items() if not c.is_zero()}
            if not unit:
                raise SchemaError("declared unit must be nonzero")
            if not any(any(e) for e in unit):
                # every element divides by a constant: it localizes nothing
                raise SchemaError("declared unit must not be constant")
        self.unit = unit
        self._hash = hash((ring, names,
                           None if unit is None else frozenset(unit.items())))
        self._unit = self._unit_lead = None
        if unit is not None:
            u = AlgebraElement(self, unit, 0)
            lead = max(u._map)
            # leading coefficient must be invertible for exact division
            inv = Scalar(ring, u._map[lead], 1).inverse()
            self._unit = u
            self._unit_lead = (lead, inv.n, inv.d)
        # the constants, built once: equal memo keys are then mostly the
        # same object, whose hash is cached and which a hit compares by
        # identity
        n = len(names)
        self._zero = AlgebraElement(self, {}, 0, 1)
        self._one = AlgebraElement(self, {(0,) * n: ring._one}, 0, 1)
        self._coords = tuple(
            AlgebraElement(self, {(0,) * i + (1,) + (0,) * (n - 1 - i):
                                  ring._one}, 0, 1)
            for i in range(n))

    @property
    def arity(self):
        return len(self.names)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, PolyAlgebra)
            and self.ring == other.ring
            and self.names == other.names
            and self.unit == other.unit
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "PolyAlgebra(%s; %s)" % (", ".join(self.names), self.ring)

    # -- element constructors ----------------------------------------

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def scalar(self, v):
        s = v if isinstance(v, Scalar) else self.ring.scalar(v)
        if s.ring != self.ring:
            raise RingMismatch((s.ring, self.ring))
        return AlgebraElement(self, {(0,) * self.arity: s}, 0)

    def coord(self, i):
        if not 0 <= i < self.arity:
            raise IndexOutOfRange(("coordinate", i, self.arity))
        return self._coords[i]

    def monomial(self, exp, coeff=1):
        exp = _exponent(exp, self.arity)
        s = coeff if isinstance(coeff, Scalar) else self.ring.scalar(coeff)
        return AlgebraElement(self, {exp: s}, 0)

    def unit_element(self):
        if self._unit is None:
            raise SchemaError(("no declared unit", self))
        return self._unit

    # -- exact division by the declared unit -------------------------

    def _divide_by_unit(self, num):
        """num / unit as (numerator map, denominator) for a numerator map
        num, or None if the division is not exact."""
        if self._unit is None:
            return None
        lead_e, inv, inv_d = self._unit_lead
        unit, ring = self._unit, self.ring
        mul = ring._mul
        # invariant: num = (q * unit numerators + rem) / den
        rem, q, den = dict(num), {}, 1
        while rem:
            e = max(rem)
            diff = tuple(map(operator.sub, e, lead_e))
            if any(d < 0 for d in diff):
                return None
            coef = mul(rem.pop(e), inv)
            if inv_d != 1:
                rem, q, den = _times(rem, inv_d), _times(q, inv_d), den * inv_d
            q[diff] = coef
            neg = tuple(-x for x in coef)
            _fold(rem, (
                (tuple(map(operator.add, diff, ue)), mul(neg, uc))
                for ue, uc in unit._map.items() if ue != lead_e
            ), ring._add)
        if unit._den != 1:
            q = _times(q, unit._den)
        return q, den


class AlgebraElement(_Terms):
    """Sparse polynomial terms / unit^du with Scalar coefficients, keyed
    by exponent tuples; see _Terms for the fraction-free layout."""

    __slots__ = ("algebra", "du", "_data")
    _ring = operator.attrgetter("algebra.ring")

    def __init__(self, algebra, terms, du=0, den=None):
        if type(du) is not int or du < 0:
            raise IndexOutOfRange(("unit power must be a non-negative int",
                                   du))
        self.algebra = algebra
        _Terms.__init__(self, terms, den)
        if not self._map:
            du = 0
        # canonicalize: cancel unit powers while the numerator divides
        while du > 0:
            q = algebra._divide_by_unit(self._map)
            if q is None:
                break
            self._map, self._den = _lowest(q[0], self._den * q[1])
            du -= 1
        self.du = du
        # the pair only when du > 0, sparing most polynomials a tuple
        self._data = (algebra, du) if du else algebra

    def _like(self, terms, den=None):
        return AlgebraElement(self.algebra, terms, self.du, den)

    # -- predicates --------------------------------------------------

    def is_scalar(self):
        if not self._map:
            return True
        zero_e = (0,) * self.algebra.arity
        return self.du == 0 and set(self._map) == {zero_e}

    def constant_scalar(self):
        """The coefficient of the unit monomial (du must be 0)."""
        if self.du:
            raise WrongRing(("fraction has no plain constant term", self))
        ring = self.algebra.ring
        n = self._map.get((0,) * self.algebra.arity)
        return ring.zero() if n is None else Scalar(ring, n, self._den)

    # -- arithmetic --------------------------------------------------

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or (
                other.algebra is not self.algebra
                and other.algebra != self.algebra):
            raise RingMismatch((self.algebra, getattr(other, "algebra", other)))

    def _raise_du(self, target_du):
        """(numerator map, denominator) of the element read as
        terms / unit^target_du."""
        if target_du < self.du:
            raise IndexOutOfRange(("unit power cannot drop", self.du,
                                   target_du))
        num, den = self._map, self._den
        unit = self.algebra._unit
        for _ in range(target_du - self.du):
            num = _map_mul(num, unit._map, self.algebra.ring)
            den *= unit._den
        return num, den

    def _plus(self, other):
        du = max(self.du, other.du)
        num, den = self._raise_du(du)
        pairs, d = other._raise_du(du)
        num, den = _accumulate(dict(num), den, pairs.items(), d,
                               self.algebra.ring._add)
        return AlgebraElement(self.algebra, num, du, den)

    def __mul__(self, other):
        self._check(other)
        return AlgebraElement(
            self.algebra, _map_mul(self._map, other._map, self.algebra.ring),
            self.du + other.du, self._den * other._den)

    def __pow__(self, k):
        if type(k) is not int or k < 0:
            raise IndexOutOfRange(("power must be a non-negative int", k))
        out = self.algebra.one()
        for _ in range(k):
            out = out * self
        return out

    def deriv(self, j):
        """Partial derivative along coordinate j (quotient rule on du)."""
        alg = self.algebra
        if not 0 <= j < alg.arity:
            raise IndexOutOfRange(("coordinate", j, alg.arity))
        # distinct exponents stay distinct, and nonzero numerators nonzero
        dnum = {
            e[:j] + (e[j] - 1,) + e[j + 1:]: tuple(x * e[j] for x in v)
            for e, v in self._map.items()
            if e[j]
        }
        if self.du == 0:
            return AlgebraElement(alg, dnum, 0, self._den)
        # d(p/u^k) = dp/u^k - k p du/u^(k+1)
        unit = alg._unit
        dunit = unit.deriv(j)
        part1 = AlgebraElement(alg, _map_mul(dnum, unit._map, alg.ring),
                               self.du + 1, self._den * unit._den)
        part2 = AlgebraElement(
            alg, _times(_map_mul(self._map, dunit._map, alg.ring), self.du),
            self.du + 1, self._den * dunit._den)
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
        num, den, uk = self._map, self._den, 0
        # an exact division takes the unit's leading exponent off the
        # numerator's (the leading coefficient of the unit is
        # invertible), and that exponent is not zero, the unit not being
        # constant; total degrees of the whole polynomials need not add
        # up over series coefficients, so the leading ones bound the loop
        calls = 1 if alg._unit is None else (
            sum(max(num)) // sum(alg._unit_lead[0]) + 1)
        for _ in range(calls):
            q = alg._divide_by_unit(num)
            if q is None:
                break
            num, den, uk = q[0], den * q[1], uk + 1
        else:
            raise NotInvertible("unit division past its degree bound")
        rest = AlgebraElement(alg, num, 0, den)
        zero_e = (0,) * alg.arity
        c0 = rest.terms.get(zero_e)
        if c0 is None:
            raise NotInvertible("no invertible scalar-unit factorization")
        # rest = c0 (1 + n) with n of positive h-order
        n_elem = rest.scale(c0.inverse()) - alg.one()
        if not n_elem.is_zero():
            if not alg.ring.is_series:
                raise NotInvertible("non-scalar remainder over the rational ring")
            if n_elem.min_h_order() < 1:
                raise NotInvertible("remainder is not of positive h-order")
        # (1 + n)^(-1) = 1 - n + n^2 - ... truncates since n is O(h)
        inv_rest = _neumann(alg.one(), -n_elem, alg.ring.order)
        inv_rest = inv_rest.scale(c0.inverse())
        # unit^k / 1 -> move to denominator: inverse carries du += uk... and
        # the original du moves to the numerator as unit^du.
        out = AlgebraElement(alg, inv_rest._map, inv_rest.du + uk,
                             inv_rest._den)
        if self.du:
            unit_pow = alg.unit_element() ** self.du
            out = out * unit_pow
        if not (out * self - alg.one()).is_zero():
            raise InverseWitnessInvalid("inverse verification")
        return out

    # -- change of algebra --------------------------------------------

    def _remap(self, target, fn):
        """The element of `target` whose exponents are fn(e) for the
        exponents e of this one, fn being injective on them; a term
        whose fn(e) is None drops."""
        num = {}
        for e, v in self._map.items():
            e = fn(e)
            if e is not None:
                num[e] = v
        return AlgebraElement(target, num, self.du, self._den)

    def __repr__(self):
        s = _monomials_repr(self.terms, self.algebra.names, reverse=True)
        if self.du:
            s = "(%s)/unit^%d" % (s, self.du)
        return s
