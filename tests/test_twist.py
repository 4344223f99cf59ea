"""Twist checks: exponential series, cocycle laws, the twisted Hopf
structure.

Frozen expected tensors are computed by hand (independent expansion of
the exponential series and of F21 Finv) before comparing with the
engine.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from braidcalc.cli import Scenario
from braidcalc.errors import (
    BetaNotInvertible,
    InverseWitnessInvalid,
    NonCommutingLegs,
    WrongRing,
)
from braidcalc.hopf import HopfStructure, LieAlgebra, TensorElement, check_hopf
from braidcalc.ring import RATIONAL, Ring, _neumann
from braidcalc.twist import (
    Twist,
    check_cocycle,
    check_twisted_hopf,
    exp_twist,
)


@pytest.fixture
def lie3():
    """Abelian translations over the order-3 series ring."""
    return LieAlgebra(Ring("series", 3), ("P1", "P2"))


@pytest.fixture
def moyal3(lie3):
    ring = lie3.ring
    bivector = pure(lie3.gen(0), lie3.gen(1)).scale(ring.h())
    return exp_twist(lie3, bivector)


def h(ring, k=1):
    return ring.h(k)


def pure(*factors):
    """The pure tensor p1 (x) p2 (x) ... of envelope elements."""
    lie = factors[0].lie
    terms = {(): lie.ring.one()}
    for f in factors:
        terms = {k + (e,): c * s for k, c in terms.items() for e, s in f.terms.items()}
    return TensorElement(lie, len(factors), terms)


class TestExpTwist:
    def test_frozen_exponential_series(self, lie3, moyal3):
        # exp(h P1 (x) P2) = 1(x)1 + h P1(x)P2 + h^2/2 P1^2(x)P2^2 mod h^3
        ring = lie3.ring
        one = lie3.unit()
        p1, p2 = lie3.gen(0), lie3.gen(1)
        expect = (
            pure(one, one)
            + pure(p1, p2).scale(h(ring))
            + pure(p1 * p1, p2 * p2).scale(
                h(ring, 2) * ring.scalar(Fraction(1, 2))
            )
        )
        assert moyal3.F == expect

    def test_inverse_is_exp_of_negated(self, lie3, moyal3):
        ring = lie3.ring
        neg = pure(lie3.gen(0), lie3.gen(1)).scale(-h(ring))
        assert moyal3.Finv == exp_twist(lie3, neg).F
        unit = TensorElement.unit(lie3, 2)
        assert moyal3.F * moyal3.Finv == unit

    def test_wrong_ring_rejected(self):
        lie = LieAlgebra(RATIONAL, ("P1", "P2"))
        biv = pure(lie.gen(0), lie.gen(1))
        with pytest.raises(WrongRing):
            exp_twist(lie, biv)

    def test_zero_order_bivector_rejected(self, lie3):
        biv = pure(lie3.gen(0), lie3.gen(1))
        with pytest.raises(WrongRing):
            exp_twist(lie3, biv)

    def test_wrong_stored_inverse_rejected(self, lie3, moyal3):
        # F itself is no inverse of the exponential twist; a typed error,
        # not an assert, so python -O cannot skip the check
        with pytest.raises(InverseWitnessInvalid):
            Twist(lie3, moyal3.F, moyal3.F)

    def test_non_unit_beta_refused_at_construction(self, lie3):
        # 2(1(x)1) and its inverse pass the witness check, but beta = 2 is
        # not 1 + O(h): a Twist is its twisted Hopf structure, so the
        # refusal comes when the Twist is built
        unit = TensorElement.unit(lie3, 2)
        with pytest.raises(BetaNotInvertible, match=r"not 1 \+ O\(h\)"):
            Twist(lie3, unit.scale(2), unit.scale(Fraction(1, 2)))

    def test_from_tensor_refuses_a_tensor_off_the_unit(self, lie3):
        unit = TensorElement.unit(lie3, 2)
        with pytest.raises(WrongRing, match="no series inverse"):
            Twist.from_tensor(lie3, unit.scale(2))

    def test_noncommuting_legs_rejected(self):
        heis = LieAlgebra(Ring("series", 3), ("X1", "X2", "X3"),
                          {(0, 1): {2: 1}})
        biv = pure(heis.gen(0), heis.gen(1)).scale(heis.ring.h())
        with pytest.raises(NonCommutingLegs):
            exp_twist(heis, biv)


class TestCocycle:
    def test_cocycle_suite_passes(self, moyal3):
        rep = check_cocycle(moyal3)
        assert rep.passed, rep.to_text()

    def test_order4_cocycle(self):
        lie = LieAlgebra(Ring("series", 4), ("P1", "P2"))
        biv = pure(lie.gen(0), lie.gen(1)).scale(lie.ring.h())
        rep = check_cocycle(exp_twist(lie, biv))
        assert rep.passed, rep.to_text()

    def test_broken_cocycle_detected(self, lie3):
        # 1(x)1 + h P1(x)P1 + h P1^2(x)P2 fails the cocycle identity
        ring = lie3.ring
        p1, p2 = lie3.gen(0), lie3.gen(1)
        F = (
            TensorElement.unit(lie3, 2)
            + pure(p1, p1).scale(h(ring))
            + pure(p1 * p1, p2).scale(h(ring))
        )
        tw = Twist.from_tensor(lie3, F)
        rep = check_cocycle(tw)
        names = {c.name for c in rep.failing()}
        assert "cocycle" in names


class TestTwistedHopf:
    def test_beta_frozen(self, lie3, moyal3):
        # beta = sum h^k/k! P1^k S(P2^k) = exp(-h P1 P2)
        ring = lie3.ring
        p1p2 = lie3.gen(0) * lie3.gen(1)
        expect = (
            lie3.unit()
            - p1p2.scale(h(ring))
            + (p1p2 * p1p2).scale(h(ring, 2) * ring.scalar(Fraction(1, 2)))
        )
        assert moyal3.beta == expect
        assert moyal3.beta * moyal3.beta_inv == lie3.unit()

    def test_abelian_coproduct_untwisted(self, lie3, moyal3):
        # cocommutative + abelian: F cop(xi) Finv = cop(xi)
        plain = HopfStructure(lie3)
        for e in lie3.monomials_up_to(3):
            xi = lie3.monomial(e)
            assert moyal3.coproduct(xi) == plain.coproduct(xi)

    def test_frozen_twisted_r_matrix(self, lie3, moyal3):
        # R_F = F21 Finv = exp(h P2 (x) P1) exp(-h P1 (x) P2) mod h^3
        ring = lie3.ring
        one = lie3.unit()
        p1, p2 = lie3.gen(0), lie3.gen(1)
        half = ring.scalar(Fraction(1, 2))
        expect = (
            pure(one, one)
            + pure(p2, p1).scale(h(ring))
            - pure(p1, p2).scale(h(ring))
            + pure(p2 * p2, p1 * p1).scale(h(ring, 2) * half)
            + pure(p1 * p1, p2 * p2).scale(h(ring, 2) * half)
            - pure(p1 * p2, p1 * p2).scale(h(ring, 2))
        )
        assert moyal3.R == expect

    def test_full_twisted_suite_order4(self):
        # acceptance-grade instance: N=4, depth 3
        lie = LieAlgebra(Ring("series", 4), ("P1", "P2"))
        biv = pure(lie.gen(0), lie.gen(1)).scale(lie.ring.h())
        tw = exp_twist(lie, biv)
        rep = check_twisted_hopf(tw, depth=3)
        assert rep.passed, rep.to_text()

    def test_nonabelian_twisted_suite(self):
        # Heisenberg twisted along the commuting pair (X1, X3); the
        # twisted coproduct genuinely differs from the untwisted one.
        heis = LieAlgebra(Ring("series", 3), ("X1", "X2", "X3"),
                          {(0, 1): {2: 1}})
        biv = pure(heis.gen(0), heis.gen(2)).scale(heis.ring.h())
        tw = exp_twist(heis, biv)
        x2 = heis.gen(1)
        assert tw.coproduct(x2) != HopfStructure(heis).coproduct(x2)
        rep = check_twisted_hopf(tw, depth=2)
        assert rep.passed, rep.to_text()
        assert check_hopf(heis, depth=2).passed


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("order", (3, 6))
@pytest.mark.parametrize("name", (
    "moyal", "heisenberg-twisted", "surface-twisted",
    "falsification/broken-cocycle",
))
def test_twisted_maps_match_conjugation_on_monomials(name, order):
    """The twisted structure builds its coproduct as an algebra map and
    memoizes both maps per PBW monomial; on every monomial of degree
    <= 4 they must equal the defining conjugations F cop(x) Finv and
    beta S(x) betainv, computed here from the twist alone.  The
    broken-cocycle tensor is not a cocycle, and conjugation by it is
    multiplicative all the same."""
    data = json.loads((SCENARIOS / (name + ".json")).read_text())
    tw = Scenario(data, ring_override=Ring("series", order)).twist
    lie, F, Finv = tw.lie, tw.F, tw.Finv
    plain = HopfStructure(lie)
    beta = sum((lie.monomial(l) * plain.antipode(lie.monomial(r)).scale(c)
                for l, r, c in F.pairs()), lie.zero())
    beta_inv = _neumann(lie.unit(), lie.unit() - beta, order)
    assert beta * beta_inv == lie.unit()
    for e in lie.monomials_up_to(4):
        x = lie.monomial(e)
        assert tw.coproduct(x) == F * plain.coproduct(x) * Finv, x
        assert tw.antipode(x) == beta * plain.antipode(x) * beta_inv, x


@pytest.mark.parametrize("seed", range(6))
def test_exp_twist_and_cocycle_match_sympy(seed):
    """Independent oracle: over an abelian envelope U(g) = Sym(g), a
    tensor is a polynomial in one set of commuting symbols per leg and
    the coproduct substitutes P_i -> a_i + b_i.  For a seeded bivector
    theta with entries p/q on 2-3 generators at order 3-4, exp_twist
    equals sympy's series of exp(h theta(a, b)) mod h^order, and both
    sides of the cocycle law equal sympy's expansions of
    exp(h theta(a, b)) exp(h theta(a + b, c)) and
    exp(h theta(b, c)) exp(h theta(a, b + c)) mod h^order."""
    import random

    import sympy
    rng = random.Random(seed)
    n, order = rng.choice((2, 3)), rng.choice((3, 4))
    theta = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(n)] for _ in range(n)]
    if not any(any(row) for row in theta):
        theta[0][1] = Fraction(1)
    lie = LieAlgebra(Ring("series", order), tuple("P%d" % i for i in range(n)))
    ring = lie.ring
    biv = sum((pure(lie.gen(i), lie.gen(j)).scale(
        ring.scalar(theta[i][j]) * ring.h())
        for i in range(n) for j in range(n)), TensorElement(lie, 2, {}))
    F = exp_twist(lie, biv).F

    h = sympy.Symbol("h")
    a, b, c = (sympy.symbols("%s0:%d" % (name, n)) for name in "abc")
    gens = a + b + c
    ab = [x + y for x, y in zip(a, b)]
    bc = [x + y for x, y in zip(b, c)]

    t = sympy.Symbol("t")
    exp_series = sympy.series(sympy.exp(h * t), h, 0, order).removeO()

    def exp_h(u, v):
        """sympy's series of exp(h t) at t = theta(u, v): its
        coefficients of h^0 .. h^(order-1), as polynomials over QQ."""
        th = sympy.Poly(sum(sympy.Rational(theta[i][j]) * u[i] * v[j]
                            for i in range(n) for j in range(n)),
                        *gens, domain="QQ")
        return [th**k * exp_series.coeff(h, k).coeff(t, k)
                for k in range(order)]

    def times(A, B):
        return [sum((A[k] * B[m - k] for k in range(1, m + 1)), A[0] * B[m])
                for m in range(order)]

    def agrees(tensor, want):
        """tensor, its legs' monomials read in the symbols a, b, c, has
        the h-coefficients `want`."""
        got = [{} for _ in range(order)]
        for key, s in tensor.terms.items():
            exp = sum(key, ()) + (0,) * (3 - len(key)) * n
            for k, q in enumerate(s.c):
                if q:
                    got[k][exp] = sympy.Rational(q)
        return all(sympy.Poly.from_dict(g, *gens, domain="QQ") == w
                   for g, w in zip(got, want))

    cop_leg = HopfStructure(lie).coproduct_leg
    assert agrees(F, exp_h(a, b))
    assert agrees(F.embed(3, (0, 1)) * cop_leg(F, 0),
                  times(exp_h(a, b), exp_h(ab, c)))
    assert agrees(F.embed(3, (1, 2)) * cop_leg(F, 1),
                  times(exp_h(b, c), exp_h(a, bc)))
