"""Envelope and Hopf-structure checks.

The PBW straightening is cross-checked against an independent
worklist-based rewriter kept here in the tests; expected values for
specific products/coproducts are frozen by hand.
"""

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc.cli import Scenario
from braidcalc.errors import BadPositions, JacobiViolation
from braidcalc.hopf import (
    HopfStructure,
    LieAlgebra,
    TensorElement,
    check_hopf,
    check_triangular,
)
from braidcalc.ring import RATIONAL, Ring

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# =====================================================================
# fixtures
# =====================================================================


@pytest.fixture
def abelian2():
    return LieAlgebra(RATIONAL, ("P1", "P2"))


@pytest.fixture
def heisenberg():
    # [X1, X2] = X3, X3 central
    return LieAlgebra(RATIONAL, ("X1", "X2", "X3"), {(0, 1): {2: 1}})


@pytest.fixture
def sl2():
    # ordered (E, F, H): [E,F] = H, [E,H] = -2E, [F,H] = 2F
    return LieAlgebra(
        RATIONAL,
        ("E", "F", "H"),
        {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}},
    )


def pure(*factors):
    """The pure tensor p1 (x) p2 (x) ... of envelope elements."""
    lie = factors[0].lie
    terms = {(): lie.ring.one()}
    for f in factors:
        terms = {k + (e,): c * s for k, c in terms.items() for e, s in f.terms.items()}
    return TensorElement(lie, len(factors), terms)


# =====================================================================
# independent straightening oracle
# =====================================================================


def straighten_oracle(lie, word):
    """Worklist rewriter on whole words; independent of the engine's
    recursive straightening."""
    ring = lie.ring
    work = [(tuple(word), ring.one())]
    done = {}
    while work:
        w, c = work.pop()
        descent = None
        for p in range(len(w) - 1):
            if w[p] > w[p + 1]:
                descent = p
                break
        if descent is None:
            done[w] = done.get(w, ring.zero()) + c
            continue
        p = descent
        a, b = w[p], w[p + 1]
        work.append((w[:p] + (b, a) + w[p + 2:], c))
        for k, s in lie.bracket_components(a, b).items():
            work.append((w[:p] + (k,) + w[p + 2:], c * s))
    out = {}
    for w, c in done.items():
        if c.is_zero():
            continue
        exp = [0] * lie.dim
        for i in w:
            exp[i] += 1
        out[tuple(exp)] = c
    return out


class TestStraightening:
    def test_frozen_heisenberg_descent(self, heisenberg):
        # x2 x1 = x1 x2 - x3
        got = heisenberg.normalize_word((1, 0)).terms
        one = RATIONAL.one()
        assert got == {(1, 1, 0): one, (0, 0, 1): -one}

    def test_frozen_central_factor_passes_through(self, heisenberg):
        # x3 x2 x1 = x1 x2 x3 - x3^2
        got = heisenberg.normalize_word((2, 1, 0)).terms
        one = RATIONAL.one()
        assert got == {(1, 1, 1): one, (0, 0, 2): -one}

    def test_matches_oracle_on_random_words(self, heisenberg, sl2):
        rng = random.Random(17)
        for lie in (heisenberg, sl2):
            for _ in range(150):
                word = tuple(
                    rng.randrange(lie.dim) for _ in range(rng.randint(0, 5))
                )
                assert lie.normalize_word(word).terms == straighten_oracle(lie, word)

    def test_deep_single_descent(self, heisenberg):
        # x2 x1^300 = x1^300 x2 - 300 x1^299 x3: 300 swaps in a chain
        got = heisenberg.normalize_word((1,) + (0,) * 300).terms
        assert got == {
            (300, 1, 0): RATIONAL.one(),
            (299, 0, 1): RATIONAL.scalar(-300),
        }
        # x2^1500 x1 = x1 x2^1500 - 1500 x2^1499 x3: x1 passes 1500
        # letters, deeper than the recursion limit were each pass a frame
        got = heisenberg.normalize_word((1,) * 1500 + (0,)).terms
        assert got == {
            (1, 1500, 0): RATIONAL.one(),
            (0, 1499, 1): RATIONAL.scalar(-1500),
        }

    def test_closed_form_x2_power_x1_power(self, heisenberg):
        # x2^n x1^n = sum_k (-1)^k k! C(n,k)^2 x1^(n-k) x2^(n-k) x3^k
        for n in (30, 40):
            got = heisenberg.normalize_word((1,) * n + (0,) * n).terms
            assert got == {
                (n - k, n - k, k): RATIONAL.scalar(
                    (-1) ** k * math.factorial(k) * math.comb(n, k) ** 2
                )
                for k in range(n + 1)
            }

    def test_straightening_memo_stays_small(self, heisenberg):
        """Straightening multiplies generator by generator and memoizes
        only those products (7660 entries for x2^30 x1^30); memoizing
        every intermediate word kept 22971."""
        heisenberg.normalize_word((1,) * 30 + (0,) * 30)
        entries = sum(len(table) for name, table in vars(heisenberg).items()
                      if name.startswith("_memo_"))
        assert entries < 10000

    def test_product_associative_random(self, sl2):
        rng = random.Random(23)
        monos = sl2.monomials_up_to(2)
        for _ in range(60):
            a = sl2.monomial(monos[rng.randrange(len(monos))])
            b = sl2.monomial(monos[rng.randrange(len(monos))])
            c = sl2.monomial(monos[rng.randrange(len(monos))])
            assert (a * b) * c == a * (b * c)

    def test_jacobi_violation_rejected(self):
        # [A,[B,C]] + [B,[C,A]] + [C,[A,B]] = [A,B] - [B,A] + 0 = 2C != 0
        with pytest.raises(JacobiViolation):
            LieAlgebra(
                RATIONAL,
                ("A", "B", "C"),
                {(0, 1): {2: 1}, (0, 2): {0: 1}, (1, 2): {1: 1}},
            )


class TestCoproduct:
    def test_frozen_square_coproduct(self, abelian2):
        # cop(P1^2) = P1^2 (x) 1 + 2 P1 (x) P1 + 1 (x) P1^2
        xi = abelian2.monomial((2, 0))
        got = HopfStructure(abelian2).coproduct(xi)
        one = RATIONAL.one()
        expect = {
            ((2, 0), (0, 0)): one,
            ((1, 0), (1, 0)): RATIONAL.scalar(2),
            ((0, 0), (2, 0)): one,
        }
        assert got.terms == expect

    def test_primitive_generators(self, heisenberg):
        hopf = HopfStructure(heisenberg)
        for i in range(3):
            x = heisenberg.gen(i)
            cop = hopf.coproduct(x)
            expect = pure(x, heisenberg.unit()) + pure(heisenberg.unit(), x)
            assert cop == expect
            assert x.counit().is_zero()
            assert hopf.antipode(x) == -x

    def test_antipode_reverses_with_sign(self, heisenberg):
        # S(x1 x2) = x2 x1 = x1 x2 - x3
        xi = heisenberg.monomial((1, 1, 0))
        one = RATIONAL.one()
        got = HopfStructure(heisenberg).antipode(xi)
        assert got.terms == {(1, 1, 0): one, (0, 0, 1): -one}


class TestTensorLegs:
    def test_embed_and_permute(self, abelian2):
        p1, p2 = abelian2.gen(0), abelian2.gen(1)
        t = pure(p1, p2)
        t13 = t.embed(3, (0, 2))
        expect = pure(p1, abelian2.unit(), p2)
        assert t13 == expect
        assert t.flip() == pure(p2, p1)
        with pytest.raises(BadPositions):
            t13.flip()

    def test_legwise_multiplication_straightens(self, heisenberg):
        x1, x2 = heisenberg.gen(0), heisenberg.gen(1)
        a = pure(x2, heisenberg.unit())
        b = pure(x1, heisenberg.unit())
        prod = a * b
        # leg 0 is x2 x1 = x1 x2 - x3
        expect = pure(x1 * x2 - heisenberg.gen(2), heisenberg.unit())
        assert prod == expect


def leg_product_oracle(tensor):
    """sum c * (leg 1)(leg 2)...: each term's legs concatenated into one
    word and straightened by the worklist oracle."""
    lie = tensor.lie
    out = {}
    for key, c in tensor.terms.items():
        word = [i for e in key for i, k in enumerate(e) for _ in range(k)]
        for exp, s in straighten_oracle(lie, word).items():
            out[exp] = out.get(exp, lie.ring.zero()) + c * s
    return {exp: s for exp, s in out.items() if not s.is_zero()}


def test_contract_matches_leg_product(heisenberg):
    """contract() multiplies each term's legs in order and sums: rank
    1-3 tensors over the Heisenberg envelope, whose legs do not commute,
    and the Moyal twist F and its inverse over the series ring."""
    rng = random.Random(5)
    monos = [heisenberg.monomial(e) for e in heisenberg.monomials_up_to(2)]
    tensors = []
    for rank in (1, 2, 3):
        for _ in range(6):
            t = TensorElement(heisenberg, rank, {})
            for _ in range(rng.randint(1, 4)):
                legs = [rng.choice(monos) for _ in range(rank)]
                c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                t = t + pure(*legs).scale(c)
            tensors.append(t)
    data = json.loads((SCENARIOS / "moyal.json").read_text())
    twist = Scenario(data, ring_override=Ring("series", 4)).twist
    tensors += [twist.F, twist.Finv]
    assert sum(len(t.terms) > 1 for t in tensors) > 10
    for t in tensors:
        assert dict(t.contract().terms) == leg_product_oracle(t), t


# =====================================================================
# legwise tensor product against a Fraction reference
# =====================================================================


SERIES3 = Ring("series", 3)
# [X1, X2] = X3 / 2: leg products carry denominator 2 (x2 x1 =
# x1 x2 - x3 / 2) or 1, so the product rescales to common denominators
HALF_HEISENBERG = {
    ring: LieAlgebra(ring, ("X1", "X2", "X3"), {(0, 1): {2: Fraction(1, 2)}})
    for ring in (RATIONAL, SERIES3)
}


def _coefficients(ring):
    out = [ring.scalar(v) for v in (1, -1, 2, Fraction(1, 3), Fraction(-3, 2))]
    if ring.is_series:
        h = ring.h()
        # h^2 * h^2 vanishes mod h^3: truncated products drop
        out += [h * ring.scalar(Fraction(1, 2)), ring.scalar(Fraction(1, 3)) + h,
                h * h]
    return out


def _series_mul(a, b):
    """Product of two Fraction coefficient tuples, truncated at len(a)."""
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a)))


def tensor_product_oracle(a, b):
    """{key: Fraction tuple} of the legwise product a b: every term pair,
    every leg product from `monomial_product`, summed with Fractions."""
    lie = a.lie
    zero = (Fraction(0),) * lie.ring.order
    out = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            c = _series_mul(ca.c, cb.c)
            legs = [lie.monomial_product(ea, eb).terms.items()
                    for ea, eb in zip(ka, kb)]
            for picks in itertools.product(*legs):
                v = c
                for _, s in picks:
                    v = _series_mul(v, s.c)
                key = tuple(e for e, _ in picks)
                out[key] = tuple(map(sum, zip(out.get(key, zero), v)))
    return {k: v for k, v in out.items() if any(v)}


@st.composite
def tensor_pairs(draw):
    ring = draw(st.sampled_from((RATIONAL, SERIES3)))
    rank = draw(st.sampled_from((2, 3)))
    lie = HALF_HEISENBERG[ring]
    keys = st.tuples(*[st.sampled_from(lie.monomials_up_to(2))] * rank)
    terms = st.dictionaries(keys, st.sampled_from(_coefficients(ring)),
                            min_size=1, max_size=4)
    return (TensorElement(lie, rank, draw(terms)),
            TensorElement(lie, rank, draw(terms)))


@given(tensor_pairs())
@settings(max_examples=60, deadline=None)
def test_tensor_product_matches_fraction_reference(pair):
    a, b = pair
    got = {k: s.c for k, s in (a * b).terms.items()}
    assert got == tensor_product_oracle(a, b)


@pytest.mark.parametrize("rank", (2, 3))
def test_tensor_product_drops_cancelled_keys(rank):
    """(x1 (x) 1 + 1 (x) x1)(1 (x) x1 - x1 (x) 1): the two x1 (x) x1
    contributions cancel, so their key is written and deleted."""
    lie = HALF_HEISENBERG[RATIONAL]
    x1, one = lie.gen(0), lie.unit()
    pad = (one,) * (rank - 2)
    a = pure(x1, one, *pad) + pure(one, x1, *pad)
    b = pure(one, x1, *pad) - pure(x1, one, *pad)
    got = a * b
    assert got == pure(one, x1 * x1, *pad) - pure(x1 * x1, one, *pad)
    assert ((1, 0, 0), (1, 0, 0)) + ((0, 0, 0),) * (rank - 2) not in got.terms
    assert {k: s.c for k, s in got.terms.items()} == tensor_product_oracle(a, b)


# =====================================================================
# unit monomials: maps return their memoized image
# =====================================================================


def _moyal_twist():
    data = json.loads((SCENARIOS / "moyal.json").read_text())
    return Scenario(data).twist


def test_unit_monomial_coproduct_is_the_memoized_tensor(heisenberg):
    twisted = _moyal_twist()
    for hopf in (HopfStructure(heisenberg), twisted):
        lie = hopf.lie
        for e in lie.monomials_up_to(2):
            xi = lie.monomial(e)
            assert hopf.coproduct(xi) is hopf.coproduct_monomial(e)
            assert hopf.antipode(xi) is hopf.antipode_monomial(e)
    assert twisted.coproduct_monomial((1, 0)) is not twisted.lie.coproduct_monomial((1, 0))


def test_other_elements_take_the_general_path(heisenberg):
    """A coefficient of 2 or h, or two terms, is no unit monomial: the
    maps expand it and give the linear extension of the monomial maps."""
    twisted = _moyal_twist()
    h = twisted.lie.ring.h()
    for hopf, scalars in ((HopfStructure(heisenberg), (2,)), (twisted, (2, h))):
        lie = hopf.lie
        e, f = lie.monomials_up_to(2)[1:3]
        for c in scalars:
            xi = lie.monomial(e).scale(c)
            assert xi._unit_monomial() is None
            got = hopf.coproduct(xi)
            assert got is not hopf.coproduct_monomial(e)
            assert got == hopf.coproduct_monomial(e).scale(c)
            assert hopf.antipode(xi) == hopf.antipode_monomial(e).scale(c)
        both = lie.monomial(e) + lie.monomial(f)
        assert both._unit_monomial() is None
        assert hopf.coproduct(both) == (hopf.coproduct_monomial(e)
                                        + hopf.coproduct_monomial(f))


def test_unit_monomial_products_are_memoized(heisenberg):
    x2, x1 = heisenberg.gen(1), heisenberg.gen(0)
    assert x2 * x1 is heisenberg.monomial_product((0, 1, 0), (1, 0, 0))
    two = x2.scale(2)
    assert two * x1 == (x2 * x1).scale(2)
    assert (x2 + x1) * x1 == x2 * x1 + x1 * x1
    assert pure(x2, x1).contract() == x2 * x1
    assert pure(x2, x1, x2).contract() == x2 * x1 * x2
    assert pure(x2).contract() == x2


class TestSuites:
    def test_check_hopf_passes(self, abelian2, heisenberg, sl2):
        for lie in (abelian2, heisenberg, sl2):
            rep = check_hopf(lie, depth=3)
            assert rep.passed, rep.to_text()

    def test_check_triangular_trivial_r(self, abelian2, heisenberg):
        for lie in (abelian2, heisenberg):
            rep = check_triangular(HopfStructure(lie), depth=3)
            assert rep.passed, rep.to_text()

    def test_corrupted_antipode_fails_only_antipode(self, heisenberg):
        rep = check_hopf(
            heisenberg, depth=3, antipode_table={0: heisenberg.gen(0)}
        )
        failing = {c.name for c in rep.failing()}
        assert failing == {"antipode"}

    def test_wrong_antipode_scenario_fails_only_antipode(self):
        data = json.loads(
            (SCENARIOS / "falsification" / "wrong-antipode.json").read_text())
        scenario = Scenario(data)
        rep = check_hopf(scenario.lie, depth=3,
                         antipode_table=scenario.antipode_table())
        assert [(rep.title, c.name) for c in rep.failing()] == [
            ("hopf", "antipode")]

    def test_true_antipode_table_on_one_generator_passes(self, heisenberg):
        """Generators the table leaves out keep S(x_i) = -x_i."""
        rep = check_hopf(
            heisenberg, depth=3, antipode_table={0: -heisenberg.gen(0)}
        )
        assert rep.passed, rep.to_text()

    def test_series_ring_envelope(self):
        ring = Ring("series", 3)
        lie = LieAlgebra(ring, ("P1", "P2"))
        rep = check_hopf(lie, depth=3)
        assert rep.passed
        x = lie.gen(0).scale(ring.h())
        assert (x * x * x).is_zero()  # h^3 = 0
