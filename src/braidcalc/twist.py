"""Drinfel'd twists, each the Hopf structure it twists the envelope to.

A twist is an invertible rank-2 tensor F over the envelope, of the
shape 1(x)1 + higher h-order, satisfying the 2-cocycle and counit
normalization conditions.  Twisting replaces the coproduct by
cop_F(xi) = F cop(xi) Finv, the antipode by S_F(xi) = beta S(xi)
betainv with beta = mu(id (x) S)(F), and the R-matrix R = 1(x)1 of the
envelope by R_F = F21 Finv.  A `Twist` is that twisted Hopf structure:
it builds beta, R_F and their inverses when it is constructed.

Exponential twists exp(B) of a bivector B with pairwise commuting legs
of positive h-order are built by the truncated exponential series; the
inverse is exp(-B).  Explicit tensors are also accepted (the
falsification fixtures use one with a broken cocycle) with the inverse
computed by a terminating Neumann series.
"""

import operator
from math import factorial

from .errors import (
    BetaNotInvertible,
    CocycleViolation,
    InverseWitnessInvalid,
    NonCommutingLegs,
    RankMismatch,
    WrongRing,
)
from .hopf import (
    HopfStructure,
    TensorElement,
    check_triangular,
    hopf_axioms,
)
from .report import Report, violations
from .ring import _memo, _neumann


def _neumann_inverse(x, unit, error):
    """Inverse of x = unit + O(h) by a terminating Neumann series;
    raises `error` when x is not of that shape."""
    n = unit - x
    if n.min_h_order() < 1:
        raise error
    return _neumann(unit, n, x.lie.ring.order)


class Twist(HopfStructure):
    """Invertible normalized rank-2 tensor F with its exact inverse, and
    the Hopf structure F twists the envelope to: coproduct F cop(xi)
    Finv, antipode beta S(xi) betainv and R-matrix R_F = F21 Finv, the
    twist of R = 1(x)1.  Both maps are memoized per PBW monomial."""

    laws = ("(cop_F (x) id)cop_F = (id (x) cop_F)cop_F",
            "(eps (x) id)cop_F = id = (id (x) eps)cop_F",
            "mu(S_F (x) id)cop_F = eta eps = mu(id (x) S_F)cop_F")
    antipode_keys = ("monomial", "lhs", "rhs")

    def __init__(self, lie, F, Finv):
        if F.rank != 2 or Finv.rank != 2:
            raise RankMismatch("twist must have rank 2")
        unit = TensorElement.unit(lie, 2)
        if F * Finv != unit or Finv * F != unit:
            raise InverseWitnessInvalid("stored twist inverse is wrong")
        self.lie = lie
        self.F = F
        self.Finv = Finv
        # beta = mu (id (x) S) F
        one = lie.unit()
        self.beta = F.map_leg(1, lie.antipode_monomial).contract()
        self.beta_inv = _neumann_inverse(
            self.beta, one, BetaNotInvertible("element is not 1 + O(h)"))
        if self.beta * self.beta_inv != one or self.beta_inv * self.beta != one:
            raise BetaNotInvertible(repr(self.beta))
        self.R, self.Rinv = F.flip() * Finv, F * Finv.flip()
        if self.R * self.Rinv != unit or self.Rinv * self.R != unit:
            raise CocycleViolation("twisted R-matrix inverse mismatch")

    @classmethod
    def trivial(cls, lie):
        unit = TensorElement.unit(lie, 2)
        return cls(lie, unit, unit)

    @classmethod
    def from_tensor(cls, lie, F):
        return cls(lie, F, _neumann_inverse(
            F, TensorElement.unit(lie, 2),
            WrongRing("tensor is not 1(x)1 + O(h); no series inverse")))

    def swapped(self):
        """Roles of F and Finv exchanged (wrong transport direction;
        used by the falsification harness)."""
        return Twist(self.lie, self.Finv, self.F)

    @property
    def is_trivial(self):
        return self.F == TensorElement.unit(self.lie, 2)

    @_memo
    def coproduct_monomial(self, exp):
        """F cop(x^exp) Finv, built as the algebra map it is (conjugation
        by F is multiplicative): F cop(x_j) Finv on a generator or the
        unit, and cop_F(x^(exp - d_j)) cop_F(x_j) for the last letter
        x_j of a longer monomial, a product that needs no reordering."""
        if sum(exp) <= 1:
            return self.F * self.lie.coproduct_monomial(exp) * self.Finv
        j = max(i for i, k in enumerate(exp) if k)
        rest = exp[:j] + (exp[j] - 1,) + exp[j + 1:]
        gen = (0,) * j + (1,) + (0,) * (len(exp) - j - 1)
        return self.coproduct_monomial(rest) * self.coproduct_monomial(gen)

    @_memo
    def antipode_monomial(self, exp):
        """beta S(x^exp) betainv."""
        return self.beta * self.lie.antipode_monomial(exp) * self.beta_inv

    def __repr__(self):
        return "Twist(F=%r)" % (self.F,)


def exp_twist(lie, bivector):
    """exp(bivector) as a Twist; the bivector must be O(h) with pairwise
    commuting legs, so the series truncates and inverts exactly."""
    if not lie.ring.is_series:
        raise WrongRing("exponential twists live over the series ring")
    if bivector.rank != 2:
        raise RankMismatch("bivector must have rank 2")
    if bivector.min_h_order() < 1:
        raise WrongRing("bivector must be of positive h-order")
    involved = set()
    for key in bivector.terms:
        for leg in key:
            for i, k in enumerate(leg):
                if k:
                    involved.add(i)
    for i in sorted(involved):
        for j in sorted(involved):
            if i < j and lie.bracket_components(i, j):
                raise NonCommutingLegs((lie.generators[i], lie.generators[j]))

    def exp_series(b):
        out = TensorElement.unit(lie, 2)
        power = TensorElement.unit(lie, 2)
        for k in range(1, lie.ring.order):
            power = power * b
            if power.is_zero():
                break
            inv_fact = lie.ring.scalar(factorial(k)).inverse()
            out = out + power.scale(inv_fact)
        return out

    return Twist(lie, exp_series(bivector), exp_series(-bivector))


def check_cocycle(twist):
    """2-cocycle, counit normalization, and the inverse cocycle law."""
    lie = twist.lie
    F, Finv = twist.F, twist.Finv
    # the laws are stated in the envelope's own coproduct, not cop_F
    cop_leg = HopfStructure(lie).coproduct_leg
    rep = Report("twist-cocycle")

    rep.check(
        "cocycle",
        "(F (x) 1)(cop (x) id)(F) = (1 (x) F)(id (x) cop)(F)",
        violations(("lhs", "rhs"), [(
            F.embed(3, (0, 1)) * cop_leg(F, 0),
            F.embed(3, (1, 2)) * cop_leg(F, 1),
        )], operator.eq),
    )

    unit1 = TensorElement.unit(lie, 1)
    rep.check(
        "normalization",
        "(eps (x) id)(F) = 1 = (id (x) eps)(F)",
        violations(("eps-left", "eps-right"),
                   [(F.counit_leg(0), F.counit_leg(1))],
                   lambda left, right: left == unit1 and right == unit1),
    )

    rep.check(
        "inverse-cocycle",
        "(cop (x) id)(Finv)(Finv (x) 1) = (id (x) cop)(Finv)(1 (x) Finv)",
        violations(("lhs", "rhs"), [(
            cop_leg(Finv, 0) * Finv.embed(3, (0, 1)),
            cop_leg(Finv, 1) * Finv.embed(3, (1, 2)),
        )], operator.eq),
    )
    return rep


def check_twisted_hopf(twist, depth=3):
    """Hopf axioms for the twisted structure maps plus the full
    triangular suite for R_F against cop_F."""
    rep = Report("twisted-hopf", {"depth": depth})
    hopf_axioms(rep, twist, depth)
    rep.extend(check_triangular(twist, depth=depth))
    return rep
