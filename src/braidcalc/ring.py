"""Exact coefficient arithmetic and sparse polynomial algebras.

Two coefficient rings share one Scalar representation: a tuple of int
numerators over one positive int denominator, in lowest terms.  The
rational ring keeps a single numerator; the truncated-series ring keeps
N numerators for the coefficients of 1, h, ..., h^(N-1), all arithmetic
done mod h^N where h is the formal deformation parameter.
Which ring is in force is a run-time value carried by every Scalar;
mixing rings raises RingMismatch.

_Terms is the sparse linear combination {basis key: coefficient} that
every element type of the engine builds on.  AlgebraElement is the one
defined here: a sparse polynomial in commuting coordinates with Scalar
coefficients, stored as {exponent tuple: Scalar}.  An algebra may
declare one unit polynomial u; elements are then fractions
terms / u^du, canonicalized by exact division of the numerator by u.
This is the smallest extension of the plain polynomial ring in which
metrics like diag(1, 1+x^2) admit exact two-sided inverse witnesses.

Everything here is immutable after construction; all operations are
pure and return fresh objects.
"""

import functools
import math
import operator
from fractions import Fraction

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
    """Coerce ints, Fractions and strings like '3/2' to Fraction."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v.strip())
        except (ValueError, ZeroDivisionError):
            pass
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


def _memo_table(obj, slot):
    """The cache `_memo` keeps on `obj` under the attribute `slot`."""
    try:
        return obj.__dict__[slot]
    except KeyError:
        table = obj.__dict__[slot] = {}
        return table


def _memo(method):
    """Cache a method per instance, keyed by its positional arguments;
    the method never returns None."""
    slot = "_memo_" + method.__name__

    @functools.wraps(method)
    def cached(self, *args):
        table = _memo_table(self, slot)
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


def _braid(legs, act, pairs):
    """The braiding c^R on a list of pure tensors u (x) v: the pairs
    c (l |> v, r |> u) over the (l, r, c) legs of Rinv, skipping a term
    as soon as either leg gives zero."""
    out = []
    for u, v in pairs:
        for l, r, c in legs:
            lv = act(l, v)
            if lv.is_zero():
                continue
            ru = act(r, u)
            if not ru.is_zero():
                out.append((lv.scale(c), ru))
    return out


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

    __slots__ = ("kind", "order")

    def __init__(self, kind, order=1):
        if kind == "rational":
            order = 1
        elif kind != "series":
            raise SchemaError(("ring kind must be rational or series", kind))
        if type(order) is not int or order < 1:
            raise SchemaError(("series ring needs a positive integer order",
                               order))
        self.kind = kind
        self.order = order

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

    def from_coeffs(self, coeffs):
        c = [_frac(v) for v in coeffs]
        if len(c) != self.order:
            raise ArityMismatch(("series coefficients", len(c), self.order))
        d = math.lcm(*(v.denominator for v in c))
        return Scalar(self, tuple(v.numerator * (d // v.denominator)
                                  for v in c), d)

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

    def min_h_order(self):
        """Smallest k with a nonzero h^k coefficient; ring order if zero."""
        for k, v in enumerate(self.n):
            if v:
                return k
        return self.ring.order

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
        a, b = self.n, other.n
        order = len(a)
        if order == 1:
            return Scalar(self.ring, (a[0] * b[0],), self.d * other.d)
        out = [0] * order
        for i, ai in enumerate(a):
            if ai:
                for k, bj in enumerate(b, i):
                    if k == order:
                        break
                    if bj:
                        out[k] += ai * bj
        return Scalar(self.ring, tuple(out), self.d * other.d)

    def inverse(self):
        """Exact inverse; series inverses need an invertible h^0 part."""
        a = self.n
        a0 = a[0]
        if not a0:
            raise NotInvertible("division by zero" if len(a) == 1
                                else "series with zero constant term")
        # (a / d)^-1 = d * sum_k B_k h^k / a0^(k+1), where B_0 = 1 and
        # B_k = -sum_{1<=i<=k} a_i a0^(i-1) B_(k-i); over a0^order,
        # coefficient k carries a0^(order-1-k).
        order = len(a)
        b = [1]
        for k in range(1, order):
            b.append(-sum(a[i] * a0 ** (i - 1) * b[k - i]
                          for i in range(1, k + 1)))
        d, den = self.d, a0 ** order
        if den < 0:
            d, den = -d, -den
        return Scalar(self.ring,
                      tuple(d * bk * a0 ** (order - 1 - k)
                            for k, bk in enumerate(b)),
                      den)

    # -- ring changes ------------------------------------------------

    def h0(self):
        """Classical limit: the h^0 coefficient as a rational Scalar."""
        return Scalar(RATIONAL, self.n[:1], self.d)

    def lift(self, ring):
        """Re-embed into `ring`; never allowed to drop nonzero coefficients."""
        if ring == self.ring:
            return self
        if any(self.n[ring.order:]):
            raise WrongRing(("lift would truncate nonzero coefficients",
                             self, ring))
        n = self.n[:ring.order] + (0,) * (ring.order - self.ring.order)
        return Scalar(ring, n, self.d)

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
    """A finite sum of basis keys with coefficients, held as the map
    `terms` {key: coefficient} of its nonzero coefficients.

    AlgebraElement, HopfElement, TensorElement and GradedObject share
    this plumbing.  Each subclass supplies its product and repr and:
      * `__init__`, validating its keys and passing its terms through
        `_Terms.__init__`, the one zero filter;
      * `_check(other)`, raising its own error for an incompatible operand;
      * `_like(terms)`, a sibling with the same extra data;
      * `_data`, the extra data that equality and the hash take besides
        the terms: a slot set at construction or a class constant, so
        that reading it costs no call;
      * `_ring`, a getter of its coefficient ring.
    Coefficients are Scalars, or AlgebraElements for GradedObject, whose
    `_scalar_coefficients` is false.
    """

    __slots__ = ("terms", "_hash")
    _scalar_coefficients = True

    def __init__(self, terms):
        nonzero = {}
        for k, c in terms.items():
            if not c.is_zero():
                nonzero[k] = c
        self.terms = nonzero
        self._hash = None

    def is_zero(self):
        return not self.terms

    def min_h_order(self):
        """Smallest h power carried by any coefficient; ring order if zero."""
        if not self.terms:
            return self._ring(self).order
        return min(c.min_h_order() for c in self.terms.values())

    def __add__(self, other):
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        return self._plus(other)

    def _plus(self, other):
        """The sum of two nonzero compatible operands."""
        return self._like(_add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, s):
        """Every coefficient times s, a Scalar or a rational literal."""
        ring = self._ring(self)
        if not isinstance(s, Scalar):
            s = ring.scalar(s)
        elif s.ring is not ring and s.ring != ring:
            raise RingMismatch((s.ring, ring))
        if s.is_zero():
            return self._like({})
        if self._scalar_coefficients:
            return self._like({k: c * s for k, c in self.terms.items()})
        return self._like({k: c.scale(s) for k, c in self.terms.items()})

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._data == other._data
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._data, frozenset(self.terms.items())))
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


def _map_mul(a, b):
    return _add_terms({}, (
        (tuple(x + y for x, y in zip(ea, eb)), ca * cb)
        for ea, ca in a.items()
        for eb, cb in b.items()
    ))


class PolyAlgebra:
    """Polynomial algebra over a Ring in named commuting coordinates,
    optionally localized at a single declared unit polynomial."""

    __slots__ = ("ring", "names", "unit", "_unit_lead", "_index", "_hash")

    def __init__(self, ring, names, unit=None):
        assert isinstance(ring, Ring)
        names = tuple(names)
        assert len(set(names)) == len(names), names
        self.ring = ring
        self.names = names
        self._index = {nm: i for i, nm in enumerate(names)}
        if unit is not None:
            unit = {tuple(e): c for e, c in unit.items() if not c.is_zero()}
            if not unit:
                raise SchemaError("declared unit must be nonzero")
            lead = max(unit)
            lead_c = unit[lead]
            # leading coefficient must be invertible for exact division
            self._unit_lead = (lead, lead_c.inverse())
        else:
            self._unit_lead = None
        self.unit = unit
        self._hash = hash((ring, names,
                           None if unit is None else frozenset(unit.items())))

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

    def element(self, terms, du=0):
        return AlgebraElement(self, terms, du)

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
        exp = _exponent(exp, self.arity)
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


class AlgebraElement(_Terms):
    """Sparse polynomial terms / unit^du with Scalar coefficients, keyed
    by exponent tuples."""

    __slots__ = ("algebra", "du", "_data")
    _ring = operator.attrgetter("algebra.ring")

    def __init__(self, algebra, terms, du=0):
        assert du >= 0, du
        _Terms.__init__(self, terms)
        if not self.terms:
            du = 0
        # canonicalize: cancel unit powers while the numerator divides
        while du > 0:
            q = algebra._divide_by_unit(self.terms)
            if q is None:
                break
            self.terms, du = q, du - 1
        self.algebra = algebra
        self.du = du
        # the pair only when du > 0, sparing most polynomials a tuple
        self._data = (algebra, du) if du else algebra

    def _like(self, terms):
        return AlgebraElement(self.algebra, terms, self.du)

    # -- predicates --------------------------------------------------

    def is_scalar(self):
        if not self.terms:
            return True
        zero_e = (0,) * self.algebra.arity
        return self.du == 0 and set(self.terms) == {zero_e}

    def constant_scalar(self):
        """The coefficient of the unit monomial (du must be 0)."""
        assert self.du == 0, "fraction has no plain constant term"
        return self.terms.get((0,) * self.algebra.arity, self.algebra.ring.zero())

    # -- arithmetic --------------------------------------------------

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or other.algebra != self.algebra:
            raise RingMismatch((self.algebra, getattr(other, "algebra", other)))

    def _raise_du(self, target_du):
        """Numerator rescaled so the element reads terms / unit^target_du."""
        assert target_du >= self.du
        num = self.terms
        for _ in range(target_du - self.du):
            num = _map_mul(num, self.algebra.unit)
        return num

    def _plus(self, other):
        du = max(self.du, other.du)
        return AlgebraElement(self.algebra, _add_terms(
            dict(self._raise_du(du)), other._raise_du(du).items()), du)

    def __mul__(self, other):
        self._check(other)
        return AlgebraElement(
            self.algebra, _map_mul(self.terms, other.terms), self.du + other.du
        )

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
            for e, c in self.terms.items()
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
        part2 = AlgebraElement(self.algebra, {
            e: c * k for e, c in _map_mul(self.terms, dunit.terms).items()
        }, self.du + 1)
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
        num, uk = dict(self.terms), 0
        while True:
            q = alg._divide_by_unit(num)
            if q is None:
                break
            num, uk = q, uk + 1
        rest = AlgebraElement(alg, num, 0)
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
        out = AlgebraElement(alg, inv_rest.terms, inv_rest.du + uk)
        if self.du:
            unit_pow = alg.unit_element() ** self.du
            out = out * unit_pow
        if not (out * self - alg.one()).is_zero():
            raise InverseWitnessInvalid("inverse verification")
        return out

    # -- ring changes -------------------------------------------------

    def h0(self, target):
        """Classical limit into `target`, a rational-ring sibling algebra."""
        return AlgebraElement(
            target, {e: c.h0() for e, c in self.terms.items()}, self.du)

    def lift(self, target):
        """Embed into `target`, a series-ring sibling algebra."""
        num = {e: c.lift(target.ring) for e, c in self.terms.items()}
        return AlgebraElement(target, num, self.du)

    def __repr__(self):
        s = _monomials_repr(self.terms, self.algebra.names, reverse=True)
        if self.du:
            s = "(%s)/unit^%d" % (s, self.du)
        return s
