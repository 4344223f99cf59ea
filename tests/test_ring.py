"""Kernel checks: scalar rings, series truncation, localized polynomials.

Expected values are frozen from independent oracles computed here in
the test module (geometric series, dense convolution), never read back
from the engine.
"""

import math
import os
import random
import signal
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc.cli import parse_poly, parse_scalar
from braidcalc.errors import (
    NotInvertible,
    RingMismatch,
    SchemaError,
    WrongRing,
)
from braidcalc.ring import RATIONAL, PolyAlgebra, Ring, Scalar


# =====================================================================
# independent oracles
# =====================================================================


def series(ring, coeffs):
    """The Scalar sum_k coeffs[k] h^k of `ring`, one rational literal
    per coefficient, over their least common denominator."""
    c = [Fraction(v) for v in coeffs]
    d = math.lcm(*(v.denominator for v in c))
    return Scalar(ring, tuple(int(v * d) for v in c), d)


def dense_mul(a, b, order):
    """Truncated Cauchy product on plain Fraction lists."""
    out = [Fraction(0)] * order
    for i in range(order):
        for j in range(order - i):
            out[i + j] += a[i] * b[j]
    return out


def geometric_inverse(a, order):
    """(a0 + a1 h + ...)^(-1) via the classical recursion."""
    assert a[0] != 0
    b = [Fraction(1) / a[0]] + [Fraction(0)] * (order - 1)
    for k in range(1, order):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += a[i] * b[k - i]
        b[k] = -acc / a[0]
    return b


# =====================================================================
# scalars
# =====================================================================


class TestScalar:
    def test_frozen_inverse_of_one_plus_h(self):
        # independent oracle: geometric series for (1+h)^(-1) mod h^3
        oracle = geometric_inverse([Fraction(1), Fraction(1), Fraction(0)], 3)
        assert oracle == [Fraction(1), Fraction(-1), Fraction(1)]
        ring = Ring("series", 3)
        got = (ring.one() + ring.h()).inverse()
        assert got == series(ring, [1, -1, 1])

    def test_series_multiplication_matches_dense_oracle(self):
        ring = Ring("series", 4)
        rng = random.Random(11)
        for _ in range(300):
            a = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
            got = series(ring, a) * series(ring, b)
            assert got == series(ring, dense_mul(a, b, 4))

    def test_ring_laws_random(self):
        # commutative ring laws over both rings, >= 1000 sampled triples
        rng = random.Random(7)
        rings = [RATIONAL, Ring("series", 3), Ring("series", 5)]
        cases = 0
        while cases < 1000:
            ring = rings[cases % len(rings)]
            def rand():
                return series(ring, [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                     for _ in range(ring.order)])
            a, b, c = rand(), rand(), rand()
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + ring.zero() == a
            assert a * ring.one() == a
            assert a + (-a) == ring.zero()
            cases += 1

    def test_truncation_is_a_homomorphism(self):
        # compute at order 5, truncate to order 3 == compute at order 3
        big, small = Ring("series", 5), Ring("series", 3)
        rng = random.Random(3)
        def trunc(s):
            return series(small, list(s.c[:3]))
        for _ in range(200):
            a = series(big, [rng.randint(-5, 5) for _ in range(5)])
            b = series(big, [rng.randint(-5, 5) for _ in range(5)])
            assert trunc(a * b) == trunc(a) * trunc(b)
            assert trunc(a + b) == trunc(a) + trunc(b)

    @given(st.lists(st.fractions(), min_size=4, max_size=4))
    @settings(max_examples=200)
    def test_series_inverse_roundtrip(self, coeffs):
        ring = Ring("series", 4)
        a = series(ring, coeffs)
        if coeffs[0] == 0:
            with pytest.raises(NotInvertible):
                a.inverse()
        else:
            assert a * a.inverse() == ring.one()

    def test_ring_mismatch_and_wrong_ring(self):
        with pytest.raises(RingMismatch):
            RATIONAL.one() + Ring("series", 3).one()
        with pytest.raises(WrongRing):
            RATIONAL.h()

    def test_h_at_top_order_vanishes(self):
        ring = Ring("series", 2)
        assert ring.h().is_zero() is False
        assert (ring.h() * ring.h()).is_zero()


# =====================================================================
# the integer-numerator representation against a dense Fraction oracle
# =====================================================================


def ref_repr(c, rational):
    """Render a dense Fraction tuple the way Scalar's repr must."""
    if rational:
        return str(c[0])
    parts = []
    for k, v in enumerate(c):
        if v == 0:
            continue
        power = "" if k == 0 else "h" if k == 1 else "h^%d" % k
        if not power:
            parts.append(str(v))
        else:
            parts.append(power if v == 1 else "%s*%s" % (v, power))
    return " + ".join(parts) or "0"


def assert_canonical(s, ref):
    """s holds exactly the dense Fraction tuple `ref`, in lowest terms."""
    n, d = s.n, s.d
    assert type(n) is tuple and len(n) == s.ring.order
    assert all(type(v) is int for v in n) and type(d) is int
    assert d > 0 and math.gcd(d, *n) == 1
    assert s.c == tuple(ref)
    if all(v == 0 for v in ref):
        assert (n, d) == ((0,) * s.ring.order, 1)


RINGS = [RATIONAL] + [Ring("series", k) for k in range(1, 8)]
FRACTIONS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=36),
)


@st.composite
def ring_and_coeffs(draw, count):
    ring = draw(st.sampled_from(RINGS))
    coeffs = [
        draw(st.lists(FRACTIONS, min_size=ring.order, max_size=ring.order))
        for _ in range(count)
    ]
    return ring, coeffs


class TestRepresentation:
    @given(ring_and_coeffs(2))
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_oracle(self, drawn):
        ring, (a, b) = drawn
        order = ring.order
        sa, sb = series(ring, a), series(ring, b)
        assert_canonical(sa, a)
        assert_canonical(sb, b)
        assert_canonical(sa + sb, [x + y for x, y in zip(a, b)])
        assert_canonical(sa - sb, [x - y for x, y in zip(a, b)])
        assert_canonical(-sa, [-x for x in a])
        assert_canonical(sa * sb, dense_mul(a, b, order))
        if a[0] == 0:
            with pytest.raises(NotInvertible):
                sa.inverse()
        else:
            assert_canonical(sa.inverse(), geometric_inverse(a, order))
        nonzero = [k for k, v in enumerate(a) if v != 0]
        assert PolyAlgebra(ring, ("x",)).scalar(sa).min_h_order() \
            == (nonzero[0] if nonzero else order)
        assert sa.is_zero() == (not nonzero)
        assert repr(sa) == ref_repr(a, ring == RATIONAL)

    @given(ring_and_coeffs(1), st.integers(min_value=1, max_value=40))
    @settings(max_examples=200, deadline=None)
    def test_equal_values_compare_and_hash_equal(self, drawn, k):
        ring, (a,) = drawn
        s = series(ring, a)
        # the same value written as text with every fraction scaled by k/k
        t = parse_scalar(ring, " + ".join(
            "%d/%d" % (v.numerator * k, v.denominator * k) + (" h^%d" % i if i else "")
            for i, v in enumerate(a)))
        assert s == t and hash(s) == hash(t)
        assert (s.n, s.d) == (t.n, t.d)

    def test_unreduced_literal_is_reduced(self):
        assert parse_scalar(RATIONAL, "2/4") == parse_scalar(RATIONAL, "1/2")
        assert hash(parse_scalar(RATIONAL, "2/4")) == hash(parse_scalar(RATIONAL, "1/2"))
        half = Scalar(Ring("series", 3), (2, 0, -6), 4)
        assert (half.n, half.d) == ((1, 0, -3), 2)


# =====================================================================
# contracts that must hold without asserts
# =====================================================================


class TestTypedErrors:
    @pytest.mark.parametrize("literal", [0.5, None, "abc", "1/0", "1/2"])
    def test_non_rational_literal(self, literal):
        with pytest.raises(SchemaError):
            RATIONAL.scalar(literal)
        with pytest.raises(SchemaError):
            Ring("series", 2).scalar(literal)

    @pytest.mark.parametrize("kind, order", [
        ("p-adic", 2), (None, 1), ("series", 0), ("series", -1),
        ("series", True), ("series", False), ("series", 2.0), ("series", None),
    ])
    def test_ring_descriptor(self, kind, order):
        with pytest.raises(SchemaError):
            Ring(kind, order)

    def test_contracts_survive_python_O(self):
        """The same refusals in a fresh interpreter under python -O."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = textwrap.dedent("""
            from braidcalc.calculus import Calculus
            from braidcalc.errors import EngineError
            from braidcalc.geometry import Connection, Metric
            from braidcalc.hopf import LieAlgebra, TensorElement
            from braidcalc.modalg import Action, ModuleAlgebra
            from braidcalc.ring import RATIONAL, AlgebraElement, PolyAlgebra, Ring
            from braidcalc.submanifold import Projection
            series = Ring("series", 3)
            plane = PolyAlgebra(RATIONAL, ("x", "y"))
            local = PolyAlgebra(RATIONAL, ("x",), unit={
                (0,): RATIONAL.one(), (2,): RATIONAL.one()})
            lie = LieAlgebra(RATIONAL, ["X", "Y"])
            unit2 = TensorElement.unit(lie, 2)

            def x_translation(alg):
                act = Action(LieAlgebra(RATIONAL, ["P"]), alg,
                             {0: (alg.one(), alg.zero())})
                return Calculus(ModuleAlgebra(act))

            cal = x_translation(plane)
            other = x_translation(PolyAlgebra(RATIONAL, ("u", "v")))
            proj = Projection(cal, [1])
            one, zero = other.alg.one(), other.alg.zero()
            print(__debug__)
            for case in (
                lambda: RATIONAL.scalar(0.5),
                lambda: RATIONAL.scalar(None),
                lambda: Action(lie, plane, {0: (plane.one(),)}),
                lambda: Ring("p-adic", 2),
                lambda: Ring("series", 0),
                lambda: Ring("series", True),
                lambda: Ring("rational", 5),
                lambda: Ring("rational", "x"),
                lambda: Ring("rational", True),
                lambda: series.h(-1),
                lambda: series.h(0),
                lambda: plane.monomial((1,)),
                lambda: plane.monomial((1, -1)),
                lambda: lie.monomial((1,)),
                lambda: lie.monomial((0, -1)),
                lambda: LieAlgebra(RATIONAL, ["X", "X"]),
                lambda: LieAlgebra("rational", ["P"]),
                lambda: TensorElement(lie, 5, {}),
                lambda: unit2.as_hopf(),
                lambda: unit2.embed(3, (0, 0)),
                lambda: Projection(cal, []),
                lambda: Projection(cal, [2]),
                lambda: Projection(cal, ["y"]),
                lambda: Projection(cal, [True]),
            ):
                try:
                    print("returned", case())
                except EngineError as exc:
                    print(type(exc).__name__)
            # these guards name the contract, which a deeper arithmetic
            # mismatch of the same class would not
            for case in (
                lambda: proj.reduce(other.alg.coord(0)),
                lambda: proj.metric(Metric(other, [[one, zero], [zero, one]])),
                lambda: proj.connection(Connection(other, [[[zero] * 2] * 2] * 2)),
                lambda: proj.axiom_one_witness(cal.mv(2, {(0, 1): cal.alg.one()})),
                lambda: PolyAlgebra("rational", ("x",)),
                lambda: PolyAlgebra(RATIONAL, ("x", "x")),
                lambda: plane.unit_element(),
                lambda: AlgebraElement(plane, {}, -1),
                lambda: AlgebraElement(local, {(0,): RATIONAL.one()}, 1).constant_scalar(),
                lambda: AlgebraElement(local, {(0,): RATIONAL.one()}, 1)._raise_du(0),
                lambda: plane.coord(0) ** -1,
            ):
                try:
                    print("returned", case())
                except EngineError as exc:
                    print("%s: %s" % (type(exc).__name__, exc.args[0][0]))
        """)
        got = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, env=env,
                             timeout=300)
        assert got.returncode == 0, got.stderr
        assert got.stdout.splitlines() == [
            "False", "SchemaError", "SchemaError", "ArityMismatch",
            "SchemaError", "SchemaError", "SchemaError",
            "SchemaError", "SchemaError", "SchemaError",
            "IndexOutOfRange", "IndexOutOfRange", "ArityMismatch",
            "IndexOutOfRange", "ArityMismatch", "IndexOutOfRange",
            "SchemaError", "WrongRing", "RankMismatch", "RankMismatch",
            "BadPositions", "SchemaError",
            "IndexOutOfRange", "IndexOutOfRange", "IndexOutOfRange",
            "RingMismatch: element of another algebra",
            "RingMismatch: metric of another calculus",
            "RingMismatch: connection of another calculus",
            "GradeMismatch: kernel witness needs a grade-1 field",
            "WrongRing: not a coefficient ring",
            "SchemaError: duplicate coordinate",
            "SchemaError: no declared unit",
            "IndexOutOfRange: unit power must be a non-negative int",
            "WrongRing: fraction has no plain constant term",
            "IndexOutOfRange: unit power cannot drop",
            "IndexOutOfRange: power must be a non-negative int"]


# =====================================================================
# polynomials and localization
# =====================================================================


@pytest.fixture
def qxy():
    """Q[x, y] localized at 1 + x^2."""
    plain = PolyAlgebra(RATIONAL, ("x", "y"))
    unit = {(2, 0): RATIONAL.one(), (0, 0): RATIONAL.one()}
    return PolyAlgebra(RATIONAL, ("x", "y"), unit=unit)


class TestPolyAlgebra:
    def test_parse_and_repr_roundtrip(self, qxy):
        p = parse_poly(qxy, "3/2 x^2 y - 1 + 2 y")
        assert p == qxy.monomial((2, 1), Fraction(3, 2)) + qxy.scalar(-1) + qxy.monomial((0, 1), 2)

    def test_poly_ring_laws_random(self, qxy):
        rng = random.Random(21)
        def rand():
            out = qxy.zero()
            for _ in range(rng.randint(0, 4)):
                e = (rng.randint(0, 2), rng.randint(0, 2))
                out = out + qxy.monomial(e, Fraction(rng.randint(-4, 4)))
            return out
        for _ in range(400):
            a, b, c = rand(), rand(), rand()
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a - a).is_zero()

    def test_localization_cancels_exactly(self, qxy):
        u = qxy.unit_element()
        x, y = qxy.coord(0), qxy.coord(1)
        inv_u = u.inverse()
        assert inv_u.du == 1
        assert (u * inv_u) == qxy.one()
        p = x * y + qxy.scalar(2)
        frac = p * inv_u * inv_u
        assert (frac * u * u) == p
        # canonical form: (u * p)/u reduces to p
        assert (u * p) * inv_u == p

    def test_inverse_rejects_non_unit(self, qxy):
        x = qxy.coord(0)
        with pytest.raises(NotInvertible):
            x.inverse()
        with pytest.raises(NotInvertible):
            (qxy.one() + x).inverse()

    def test_inverse_stops_a_unit_division_that_never_ends(self, qxy, monkeypatch):
        """A unit division that never shrinks the numerator (here one
        that returns its input as the quotient) is refused past the
        degree bound, where a plain loop would spin; the alarm turns a
        hang into a failure."""
        monkeypatch.setattr(PolyAlgebra, "_divide_by_unit",
                            lambda self, num: (num, 1))

        def hang(signum, frame):
            raise TimeoutError("inverse() did not stop")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)
        try:
            x, y = qxy.coord(0), qxy.coord(1)
            with pytest.raises(NotInvertible):
                (x * x * y + qxy.scalar(2)).inverse()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_inverse_strips_unit_powers_past_the_total_degree(self):
        """Over series coefficients the total degree of a product can
        fall short of the sum: (x + h y^2)^5 has degree 7 and its unit
        degree 2, yet five unit factors divide out.  The loop bound
        reads the leading exponents, whose degrees do add up."""
        ring = Ring("series", 3)
        alg = PolyAlgebra(ring, ("x", "y"),
                          unit={(1, 0): ring.one(), (0, 2): ring.h()})
        p = alg.unit_element() ** 5
        assert max(map(sum, p.terms)) == 7
        inv = p.inverse()
        assert inv.du == 5 and inv * p == alg.one()

    def test_inverse_of_a_fraction(self, qxy):
        # (3 / (1 + x^2)^2)^-1 = (x^4 + 2 x^2 + 1) / 3
        inv_u = qxy.unit_element().inverse()
        frac = qxy.scalar(3) * inv_u * inv_u
        got = frac.inverse()
        assert got.du == 0
        assert got == parse_poly(qxy, "1/3 x^4 + 2/3 x^2 + 1/3")

    def test_quotient_rule(self, qxy):
        # d/dx (1/(1+x^2)) = -2x/(1+x^2)^2
        inv_u = qxy.unit_element().inverse()
        got = inv_u.deriv(0)
        x = qxy.coord(0)
        expected = (x.scale(-2)) * inv_u * inv_u
        assert got == expected

    def test_deriv_is_a_derivation(self, qxy):
        rng = random.Random(5)
        u_inv = qxy.unit_element().inverse()
        def rand():
            out = qxy.zero()
            for _ in range(rng.randint(1, 3)):
                e = (rng.randint(0, 2), rng.randint(0, 2))
                out = out + qxy.monomial(e, Fraction(rng.randint(-3, 3)))
            if rng.random() < 0.3:
                out = out * u_inv
            return out
        for _ in range(200):
            a, b = rand(), rand()
            for j in (0, 1):
                assert (a * b).deriv(j) == a.deriv(j) * b + a * b.deriv(j)

    def test_series_coefficient_polynomials(self):
        ring = Ring("series", 3)
        alg = PolyAlgebra(ring, ("x",))
        x = alg.coord(0)
        p = x.scale(ring.h()) + alg.one()
        q = p * p
        # (1 + h x)^2 = 1 + 2 h x + h^2 x^2
        assert q == alg.one() + x.scale(ring.h() + ring.h()) + (x * x).scale(
            ring.h(2)
        )

    def test_element_inverse_with_series_tail(self):
        ring = Ring("series", 3)
        alg = PolyAlgebra(ring, ("x",))
        x = alg.coord(0)
        a = alg.one() + x.scale(ring.h())
        ainv = a.inverse()
        assert a * ainv == alg.one()
        assert ainv == alg.one() - x.scale(ring.h()) + (x * x).scale(ring.h(2))

    @pytest.mark.parametrize("ring", [RATIONAL, Ring("series", 3)])
    @pytest.mark.parametrize("unit", ["1 + 2 x^2", "1/2 + x^2"])
    def test_division_by_a_non_monic_unit(self, ring, unit):
        """Exact division by a unit whose leading coefficient is not 1,
        or whose coefficients carry a denominator."""
        plain = PolyAlgebra(ring, ("x", "y"))
        alg = PolyAlgebra(ring, ("x", "y"),
                          unit=dict(parse_poly(plain, unit).terms))
        u = alg.unit_element()
        inv_u = u.inverse()
        assert inv_u.du == 1
        assert u * inv_u == alg.one()
        text = "x y - 2/3 x^3 + 1/5" + (" + 3 h x" if ring.is_series else "")
        p = parse_poly(alg, text)
        assert (p * u) * inv_u == p
        assert (p * u * u) * inv_u * inv_u == p
