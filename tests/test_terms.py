"""The sparse term-map contract shared by the four element types:
polynomials, envelope elements, tensors, and multivectors and forms.

Each is a finite sum {basis key: coefficient}; they share the zero
filter, sums and differences, negation, scaling, and value equality
with a matching hash, and each refuses an operand from another space
with its own error."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc.calculus import Calculus, DifferentialForm, MultiVector
from braidcalc.cli import Scenario, build_parser, parse_poly, run_all
from braidcalc.errors import GradeMismatch, RankMismatch, RingMismatch
from braidcalc.hopf import HopfElement, LieAlgebra, TensorElement
from braidcalc.modalg import Action, ModuleAlgebra
from braidcalc.ring import RATIONAL, AlgebraElement, PolyAlgebra, Ring, Scalar

SERIES = Ring("series", 3)
# Q[[h]][x, y] localized at 1 + x^2, and a foreign algebra
ALG = PolyAlgebra(SERIES, ("x", "y"),
                  unit={(0, 0): SERIES.one(), (2, 0): SERIES.one()})
OTHER_ALG = PolyAlgebra(SERIES, ("x", "z"))
# the Heisenberg algebra, and an equal but distinct presentation
HEIS = LieAlgebra(SERIES, ("X1", "X2", "X3"), {(0, 1): {2: 1}})
OTHER_HEIS = LieAlgebra(SERIES, ("X1", "X2", "X3"), {(0, 1): {2: 1}})


def _plane_calculus(ring=RATIONAL):
    alg = PolyAlgebra(ring, ("x", "y"))
    lie = LieAlgebra(ring, ("P1", "P2"), {})
    action = Action(lie, alg, {0: (alg.one(), alg.zero()),
                               1: (alg.zero(), alg.one())})
    return Calculus(ModuleAlgebra(action))


CAL = _plane_calculus()
WORDS = {0: [()], 1: [(0,), (1,)], 2: [(0, 1)]}

series_scalars = st.builds(
    lambda num, den: Scalar(SERIES, tuple(num), den),
    st.lists(st.integers(-2, 2), min_size=3, max_size=3),
    st.sampled_from([1, 2, 3]),
)
rational_polys = st.builds(
    lambda terms: AlgebraElement(CAL.alg, terms),
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.builds(RATIONAL.scalar, st.integers(-2, 2)),
        max_size=3,
    ),
)


def exps(arity, top):
    return st.tuples(*[st.integers(0, top)] * arity)


@st.composite
def cases(draw):
    """(build, ta, tb, exact): two term maps of one type and space, the
    constructor of its elements, and whether the constructor keeps the
    nonzero terms as given (no canonicalization by the unit)."""
    kind = draw(st.sampled_from(["poly", "hopf", "tensor", "graded"]))
    if kind == "poly":
        du = draw(st.integers(0, 1))
        keys, values = exps(2, 2), series_scalars
        build = lambda t: AlgebraElement(ALG, t, du)
    elif kind == "hopf":
        keys, values = exps(3, 1), series_scalars
        build = lambda t: HopfElement(HEIS, t)
        du = 0
    elif kind == "tensor":
        rank = draw(st.integers(1, 3))
        keys = st.tuples(*[exps(3, 1)] * rank)
        values = series_scalars
        build = lambda t: TensorElement(HEIS, rank, t)
        du = 0
    else:
        cls = draw(st.sampled_from([MultiVector, DifferentialForm]))
        grade = draw(st.integers(0, 2))
        keys, values = st.sampled_from(WORDS[grade]), rational_polys
        build = lambda t: cls(CAL, grade, t)
        du = 0
    ta = draw(st.dictionaries(keys, values, max_size=4))
    tb = draw(st.dictionaries(keys, values, max_size=4))
    return build, ta, tb, du == 0


def foreign(a):
    """An operand of another space, with the error its type raises."""
    if isinstance(a, AlgebraElement):
        return OTHER_ALG.one(), RingMismatch
    if isinstance(a, HopfElement):
        return OTHER_HEIS.unit(), RingMismatch
    if isinstance(a, TensorElement):
        return TensorElement.unit(HEIS, a.rank % 3 + 1), RankMismatch
    other = DifferentialForm if isinstance(a, MultiVector) else MultiVector
    return other(CAL, a.grade, {}), GradeMismatch


@settings(max_examples=200, deadline=None)
@given(cases())
def test_shared_contract(case):
    build, ta, tb, exact = case
    a, b = build(ta), build(tb)
    # the zero filter
    assert not any(c.is_zero() for c in a.terms.values())
    if exact:
        assert a.terms == {k: c for k, c in ta.items() if not c.is_zero()}
    assert a.is_zero() == (not a.terms)
    # sums, differences, negation and scaling
    assert a + b - b == a
    assert -(-a) == a
    assert (a - a).is_zero()
    assert a.scale(0).is_zero()
    assert a.scale(1) == a
    # equal values hash equal, however they were built
    assert hash(a + b - b) == hash(a)
    again = build(dict(reversed(list(ta.items()))))
    assert again == a and hash(again) == hash(a)
    # an operand from another space is refused with the type's error
    other, error = foreign(a)
    with pytest.raises(error):
        a + other
    with pytest.raises(error):
        other - a
    if error is GradeMismatch:
        with pytest.raises(GradeMismatch):
            a + CAL.alg.one()


@given(st.sampled_from([CAL.mv, CAL.form]), st.integers(0, 2),
       st.integers(0, 2), rational_polys)
def test_graded_zeros_keep_their_grade(make, g1, g2, coeff):
    """The grade is part of the value: zeros are equal iff their grades
    are, and a sum across grades raises, a vanishing summand too."""
    z1, z2 = make(g1, {}), make(g2, {})
    assert (z1 == z2) == (g1 == g2)
    if g1 == g2:
        assert hash(z1) == hash(z2)
    x = make(g1, {WORDS[g1][0]: coeff})
    assert x.scale(0) == z1 and hash(x.scale(0)) == hash(z1)
    assert x + z1 == x and z1 + x == x
    if g1 != g2:
        for a, b in ((x, z2), (z2, x), (z1, z2),
                     (x, make(g2, {WORDS[g2][0]: coeff}))):
            with pytest.raises(GradeMismatch):
                a + b


@given(st.integers(0, 2), st.dictionaries(st.integers(0, 1), rational_polys,
                                          max_size=2))
def test_multivector_never_equals_form(grade, picks):
    terms = {WORDS[grade][i % len(WORDS[grade])]: c for i, c in picks.items()}
    assert CAL.mv(grade, terms) != CAL.form(grade, terms)


# ---------------------------------------------------------------------
# the fraction-free layout against a per-term Fraction oracle
# ---------------------------------------------------------------------

ORACLE_RINGS = [RATIONAL, Ring("series", 3)]
# [X1, X2] = X3/2: a Heisenberg algebra whose PBW products carry a
# denominator
ORACLE_BRACKETS = {(0, 1): {2: Fraction(1, 2)}}
small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


def _series(ring, coeffs):
    """The Scalar sum_k coeffs[k] h^k of `ring`, from Fraction
    coefficients over their least common denominator."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return Scalar(ring, tuple(int(c * d) for c in coeffs), d)


def _fseries_mul(a, b):
    """Product of two Fraction coefficient tuples mod h^len(a)."""
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1))
                 for k in range(len(a)))


def _fplus(x, y, sign=1):
    out = dict(x)
    for k, v in y.items():
        old = out.get(k, (Fraction(0),) * len(v))
        out[k] = tuple(p + sign * q for p, q in zip(old, v))
    return {k: v for k, v in out.items() if any(v)}


def _fscale(x, s):
    return {k: v for k, v in ((k, _fseries_mul(c, s)) for k, c in x.items())
            if any(v)}


def _straighten(word):
    """PBW normal form {exponent: Fraction} of a Heisenberg word, by
    swapping descents: x_b x_a = x_a x_b - [x_a, x_b] for a < b."""
    done = {}
    work = [(tuple(word), Fraction(1))]
    while work:
        w, c = work.pop()
        p = next((p for p in range(len(w) - 1) if w[p] > w[p + 1]), None)
        if p is None:
            e = tuple(w.count(i) for i in range(3))
            done[e] = done.get(e, 0) + c
            continue
        a, b = w[p + 1], w[p]
        work.append((w[:p] + (a, b) + w[p + 2:], c))
        for k, s in ORACLE_BRACKETS.get((a, b), {}).items():
            work.append((w[:p] + (k,) + w[p + 2:], -c * s))
    return {e: c for e, c in done.items() if c}


def _word(exp):
    return [i for i, k in enumerate(exp) for _ in range(k)]


def _fproduct(x, y, legs):
    """Legwise product of two Fraction term maps; `legs` is None for
    polynomials (commuting exponents), else the tensor rank."""
    out = {}
    for ka, ca in x.items():
        for kb, cb in y.items():
            c = _fseries_mul(ca, cb)
            if legs is None:
                pieces = {tuple(p + q for p, q in zip(ka, kb)): Fraction(1)}
            else:
                pieces = {(): Fraction(1)}
                for leg in range(legs):
                    pieces = {
                        pk + (e,): pc * s
                        for pk, pc in pieces.items()
                        for e, s in _straighten(
                            _word(ka[leg]) + _word(kb[leg])).items()
                    }
            out = _fplus(out, {k: tuple(s * v for v in c)
                               for k, s in pieces.items()})
    return out


def _fderiv(x, j):
    return {e[:j] + (e[j] - 1,) + e[j + 1:]: tuple(e[j] * v for v in c)
            for e, c in x.items() if e[j]}


def _canonical_value(elem):
    """The element's terms as Fraction tuples, after checking that it is
    stored canonically: positive denominator, gcd 1, no zero tuple."""
    num, den = elem._map, elem._den
    assert den > 0
    assert math.gcd(den, *(x for v in num.values() for x in v)) == 1
    assert all(any(v) for v in num.values())
    assert all(len(v) == elem.terms[k].ring.order for k, v in num.items())
    return {k: s.c for k, s in elem.terms.items()}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fraction_free_arithmetic_matches_fraction_oracle(data):
    ring = data.draw(st.sampled_from(ORACLE_RINGS))
    kind = data.draw(st.sampled_from(["poly", "hopf", "tensor"]))
    coeff = st.tuples(*[small_fractions] * ring.order)
    if kind == "poly":
        alg = PolyAlgebra(ring, ("x", "y"))
        keys, legs = exps(2, 2), None
        build = lambda t: AlgebraElement(alg, t)
    else:
        lie = LieAlgebra(ring, ("X1", "X2", "X3"), {(0, 1): {2: Fraction(1, 2)}})
        if kind == "hopf":
            keys, legs = exps(3, 1), 1
            build = lambda t: HopfElement(lie, t)
        else:
            legs = data.draw(st.integers(1, 3))
            keys = st.tuples(*[exps(3, 1)] * legs)
            build = lambda t: TensorElement(lie, legs, t)
    fa, fb = (data.draw(st.dictionaries(keys, coeff, max_size=3))
              for _ in range(2))
    s = data.draw(coeff)
    a, b = (build({k: _series(ring, c) for k, c in f.items()})
            for f in (fa, fb))
    fa, fb = ({k: c for k, c in f.items() if any(c)} for f in (fa, fb))
    if kind == "hopf":
        # HopfElement keys are bare exponents, the oracle's one-leg keys
        # are 1-tuples
        wrap = lambda f: {(k,): c for k, c in f.items()}
        unwrap = lambda f: {k[0]: c for k, c in f.items()}
        product = unwrap(_fproduct(wrap(fa), wrap(fb), legs))
    else:
        product = _fproduct(fa, fb, legs)
    assert _canonical_value(a) == fa
    assert _canonical_value(a + b) == _fplus(fa, fb)
    assert _canonical_value(a - b) == _fplus(fa, fb, -1)
    assert _canonical_value(-a) == _fscale(fa, (Fraction(-1),) + (0,) * (ring.order - 1))
    assert _canonical_value(a * b) == product
    assert _canonical_value(a.scale(_series(ring, s))) == _fscale(fa, s)
    if kind == "poly":
        for j in range(2):
            assert _canonical_value(a.deriv(j)) == _fderiv(fa, j)


@pytest.mark.parametrize("ring", [RATIONAL, SERIES])
def test_scale_by_one_is_the_identity(ring):
    """Scaling by one, as a Scalar, as 2/2 or as the literal 1, returns
    the element itself for every element type; any other factor builds
    a new element."""
    cal = _plane_calculus(ring)
    lie, x = cal.lie, cal.alg.coord(0)
    two = ring.scalar(2)
    elements = [
        parse_poly(cal.alg, "3/2 x^2 y + 1"),
        HopfElement(lie, {(1, 0): two, (0, 2): ring.scalar(Fraction(1, 3))}),
        TensorElement(lie, 2, {((1, 0), (0, 1)): two}),
        cal.mv(1, {(0,): x, (1,): x * x}),
        cal.form(2, {(0, 1): x}),
    ]
    if ring.is_series:
        elements.append(AlgebraElement(cal.alg, {(1, 0): ring.h()}))
    for e in elements:
        assert e.scale(ring.one()) is e
        assert e.scale(1) is e
        assert e.scale(ring.scalar(Fraction(2, 2))) is e
        doubled = e.scale(two)
        assert doubled is not e and doubled == e + e


def test_shared_constants_survive_a_full_run():
    """The constants an algebra and a calculus build once and share
    (zero, one, the coordinates, the zero multivectors and forms, the
    frame fields and coframe) are unchanged after `all` has run every
    suite of heisenberg-twisted on them: each still equals one built in
    a fresh scenario, with the same hash, and is still the object
    handed out."""
    path = Path(__file__).resolve().parent.parent / "scenarios" / "heisenberg-twisted.json"
    data = json.loads(path.read_text())

    def constants(sc):
        alg = sc.algebra
        out = [alg.zero(), alg.one()] + [alg.coord(i) for i in range(alg.arity)]
        for cal in (sc.calculus(twisted=False), sc.calculus()):
            for g in range(cal.dim + 1):
                out += [cal.zero_mv(g), cal.zero_form(g)]
            for u in range(cal.dim):
                out += [cal.frame_field(u), cal.coframe(u)]
        return out

    sc = Scenario(data)
    shared = constants(sc)
    reports = run_all(sc, build_parser().parse_args(["all", str(path)]))
    assert all(r.passed for r in reports)
    fresh = constants(Scenario(data))
    assert len(shared) == len(fresh)
    for obj, again, new in zip(shared, constants(sc), fresh):
        assert again is obj
        assert obj == new and hash(obj) == hash(new), (obj, new)
        assert obj._map == new._map and obj._den == new._den
        assert getattr(obj, "grade", None) == getattr(new, "grade", None)
