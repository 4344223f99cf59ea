"""H-module algebras, star products and the braiding.

An Action sends each Lie generator to a derivation of the coordinate
algebra (a polynomial vector field, given by its images on
coordinates); PBW monomials act by composing generator actions
left-to-right (leftmost factor outermost).  Compatibility with the
bracket table is verified at construction.

A ModuleAlgebra bundles the action with the Hopf structure and product
*in force*: the envelope's own structure (R = 1(x)1) and the plain
product for a classical instance, or the twist itself, which is the
twisted structure (R_F = F21 Finv), and the star product
a * b = mu (Finv |> (a (x) b)) for a twisted instance, whose coproduct
and antipode (used by every braided formula downstream) are cop_F and
S_F.
"""

import operator
from itertools import product

from .errors import ArityMismatch, BracketIncompatible, RingMismatch, UnknownModule
from .hopf import HopfStructure
from .report import Report, hoisted, violations
from .ring import (
    AlgebraElement,
    _accumulate,
    _derive,
    _exponents_up_to,
    _leg_sum,
    _lowest,
    _memo,
)
from .twist import Twist


class Action:
    """Lie generators acting as derivations on a polynomial algebra."""

    def __init__(self, lie, algebra, images):
        if lie.ring != algebra.ring:
            raise RingMismatch((lie.ring, algebra.ring))
        self.lie = lie
        self.algebra = algebra
        imgs = {}
        for i in range(lie.dim):
            row = tuple(images.get(i, ()) or [algebra.zero()] * algebra.arity)
            if len(row) != algebra.arity:
                raise ArityMismatch((lie.generators[i], len(row)))
            imgs[i] = row
        self.images = imgs
        self._check_bracket_compatibility()

    def _check_bracket_compatibility(self):
        """[D_i, D_j] must equal the action of [x_i, x_j] on coordinates."""
        for i in range(self.lie.dim):
            for j in range(i + 1, self.lie.dim):
                comps = self.lie.bracket_components(i, j)
                for k in range(self.algebra.arity):
                    c = self.algebra.coord(k)
                    lhs = self.deriv(i, self.deriv(j, c)) - self.deriv(
                        j, self.deriv(i, c)
                    )
                    rhs = self.algebra.zero()
                    for l, s in comps.items():
                        rhs = rhs + self.deriv(l, c).scale(s)
                    if lhs != rhs:
                        raise BracketIncompatible(
                            "[%s, %s] acts on %s unlike the commutator of "
                            "their actions" % (self.lie.generators[i],
                                               self.lie.generators[j],
                                               self.algebra.names[k])
                        )

    def deriv(self, i, a):
        """Generator i acting as sum_j image_ij * d(a)/d(coord_j)."""
        return _derive(self.images[i], a)

    @_memo
    def act_monomial(self, exp, a):
        """PBW monomial action: composition, leftmost factor outermost."""
        out = a
        for i in range(len(exp) - 1, -1, -1):
            for _ in range(exp[i]):
                out = self.deriv(i, out)
                if out.is_zero():
                    break
        return out

    def act(self, xi, a):
        """HopfElement action on an algebra element."""
        e = xi._unit_monomial()
        if e is not None:
            return self.act_monomial(e, a)
        out = self.algebra.zero()
        for e, c in xi.terms.items():
            piece = self.act_monomial(e, a)
            if not piece.is_zero():
                out = out + piece.scale(c)
        return out


class ModuleAlgebra:
    """Coordinate algebra + action + the Hopf structure and product in
    force; the one place that tells a twisted instance apart."""

    def __init__(self, action, twist=None):
        self.action = action
        self.lie = action.lie
        self.algebra = action.algebra
        if twist is None:
            twist = Twist.trivial(self.lie)
        self.twist = twist
        self.is_twisted = not twist.is_trivial
        self.hopf = twist if self.is_twisted else HopfStructure(self.lie)

    def __repr__(self):
        return "ModuleAlgebra(%r, twisted=%r)" % (
            self.algebra,
            self.is_twisted,
        )

    # -- product in force ----------------------------------------------

    def mul(self, a, b):
        if not self.is_twisted:
            return a * b
        return self._star(a, b)

    @_memo
    def _star(self, a, b):
        return _leg_sum(self.twist.Finv.pairs(), self.action.act_monomial,
                        a, b, operator.mul, self.algebra.zero())

    # -- braiding --------------------------------------------------------

    def braid_algebra_pairs(self, pairs):
        """c^R on a sum of algebra-element pure tensors:
        sum_i a_i (x) b_i -> sum (Rinv1 |> b_i) (x) (Rinv2 |> a_i),
        skipping a term as soon as either leg gives zero."""
        act, out = self.action.act_monomial, []
        for a, b in pairs:
            if not (isinstance(a, AlgebraElement) and isinstance(b, AlgebraElement)):
                raise UnknownModule((type(a), type(b)))
            for l, r, c in self.hopf.Rinv.pairs():
                lb = act(l, b)
                if lb.is_zero():
                    continue
                ra = act(r, a)
                if not ra.is_zero():
                    out.append((lb.scale(c), ra))
        return out


def expand_pairs(pairs):
    """Canonical form of a sum of pure tensors of algebra elements, for
    equality: a numerator map over one denominator, in lowest terms."""
    out, den = {}, 1
    for a, b in pairs:
        ring = a.algebra.ring
        out, den = _accumulate(out, den, (
            ((ea, a.du, eb, b.du), ring._mul(na, nb))
            for ea, na in a._map.items()
            for eb, nb in b._map.items()
        ), a._den * b._den, ring._add)
    return _lowest(out, den)


# ---------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------


def coordinate_monomials(algebra, max_degree):
    """All plain coordinate monomials of total degree <= max_degree."""
    return [
        algebra.monomial(e) for e in _exponents_up_to(algebra.arity, max_degree)
    ]


def check_module_algebra(M, depth=3, degree=2):
    """Unit law and the Leibniz/coproduct compatibility of the action
    with the product in force (star product against cop_F if twisted)."""
    rep = Report(
        "module-algebra", {"depth": depth, "degree": degree,
                           "twisted": M.is_twisted}
    )
    lie = M.lie
    monos = [lie.monomial(e) for e in lie.monomials_up_to(depth)]
    one = M.algebra.one()
    rep.check("unit-law", "xi |> 1 = eps(xi) 1", violations(
        ("monomial",), product(monos),
        lambda xi: M.action.act(xi, one) == one.scale(xi.counit())))

    elems = coordinate_monomials(M.algebra, degree)

    cases = hoisted(product(monos),
                    [(a, b, M.mul(a, b)) for a, b in product(elems, elems)],
                    lambda xi: M.hopf.coproduct(xi).pairs())
    rep.check("leibniz", "xi |> (a b) = (xi_(1) |> a)(xi_(2) |> b)", violations(
        ("monomial", "a", "b"), cases,
        lambda xi, a, b, ab, cop: M.action.act(xi, ab) == _leg_sum(
            cop, M.action.act_monomial, a, b, M.mul, M.algebra.zero())))
    return rep


def check_braided_commutative(M, degree=2):
    """a b = (Rinv1 |> b)(Rinv2 |> a) for the product and R in force."""
    rep = Report("braided-commutative", {"degree": degree})
    elems = coordinate_monomials(M.algebra, degree)
    Rinv = M.hopf.Rinv.pairs()

    cases = (
        (a, b, M.mul(a, b),
         _leg_sum(Rinv, M.action.act_monomial, b, a, M.mul, M.algebra.zero()))
        for a, b in product(elems, elems)
    )
    rep.check("braided-commutativity", "a b = (Rinv1 |> b)(Rinv2 |> a)",
              violations(("a", "b", "lhs", "rhs"), cases,
                         lambda a, b, lhs, rhs: lhs == rhs))
    return rep


def check_braid_involutive(M, degree=2):
    """c^R applied twice is the identity on algebra pure tensors."""
    rep = Report("braid-involutive", {"degree": degree})
    elems = coordinate_monomials(M.algebra, degree)

    def involutive(a, b):
        twice = M.braid_algebra_pairs(M.braid_algebra_pairs([(a, b)]))
        return expand_pairs(twice) == expand_pairs([(a, b)])

    rep.check("involutive", "c^R . c^R = id",
              violations(("a", "b"), product(elems, elems), involutive))
    return rep


def star_product_suite(M, degree=3):
    """Associativity and classical-limit checks for a twisted product."""
    rep = Report("star-product", {"degree": degree})
    elems = coordinate_monomials(M.algebra, degree)
    # every pair product once: a case reads a b and b c from the table
    table = [[M.mul(a, b) for b in elems] for a in elems]
    n = range(len(elems))
    cases = ((elems[i], elems[j], elems[k], table[i][j], table[j][k])
             for i, j, k in product(n, n, n))
    rep.check("associativity", "(a b) c = a (b c)", violations(
        ("a", "b", "c"), cases,
        lambda a, b, c, ab, bc: M.mul(ab, c) == M.mul(a, bc)))

    rep.extend(check_braided_commutative(M, degree))
    return rep
