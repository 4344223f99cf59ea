"""Module-algebra layer: actions, star products, braiding.

The star-product oracle below is an independent implementation over
bare exponent dicts: for F = exp(h P1 (x) P2) acting by partial
derivatives, a * b = sum_k (-h)^k / k! (dx^k a)(dy^k b).
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc.cli import main, parse_poly
from braidcalc.errors import BracketIncompatible, EngineError, UnknownModule, WrongRing
from braidcalc.hopf import HopfStructure, LieAlgebra, TensorElement
from braidcalc.modalg import (
    Action,
    ModuleAlgebra,
    check_braid_involutive,
    check_braided_commutative,
    check_module_algebra,
    coordinate_monomials,
    star_product_suite,
)
from braidcalc.ring import RATIONAL, AlgebraElement, PolyAlgebra, Ring
from braidcalc.twist import exp_twist


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# -- independent polynomial oracle ------------------------------------


def poly_mul(p, q):
    out = {}
    for (i, j), c in p.items():
        for (k, l), d in q.items():
            key = (i + k, j + l)
            out[key] = out.get(key, Fraction(0)) + c * d
    return {k: v for k, v in out.items() if v}


def poly_dx(p):
    out = {}
    for (i, j), c in p.items():
        if i:
            out[(i - 1, j)] = out.get((i - 1, j), Fraction(0)) + c * i
    return out


def poly_dy(p):
    out = {}
    for (i, j), c in p.items():
        if j:
            out[(i, j - 1)] = out.get((i, j - 1), Fraction(0)) + c * j
    return out


def oracle_layers(p, q, order):
    """Same as above, written plainly: term_k = (-1)^k/k! dx^k p dy^k q."""
    layers = []
    a, b = dict(p), dict(q)
    fact = Fraction(1)
    for k in range(order):
        if k:
            fact *= k
        sign = Fraction(-1) ** k
        layers.append({e: sign * c / fact for e, c in poly_mul(a, b).items()})
        a = poly_dx(a)
        b = poly_dy(b)
    return layers


def element_layers(elem, order):
    assert elem.du == 0
    layers = [{} for _ in range(order)]
    for e, c in elem.terms.items():
        for k in range(order):
            if c.c[k]:
                layers[k][e] = c.c[k]
    return layers


# -- fixtures -----------------------------------------------------------


SERIES3 = Ring("series", 3)


def translations(ring):
    return LieAlgebra(ring, ("P1", "P2"))


def moyal_instance(order=3):
    ring = Ring("series", order)
    lie = translations(ring)
    alg = PolyAlgebra(ring, ("x", "y"))
    act = Action(
        lie,
        alg,
        {0: (alg.one(), alg.zero()), 1: (alg.zero(), alg.one())},
    )
    B = TensorElement(lie, 2, {((1, 0), (0, 1)): ring.h()})
    return ModuleAlgebra(act, exp_twist(lie, B))


def classical_instance():
    lie = translations(RATIONAL)
    alg = PolyAlgebra(RATIONAL, ("x", "y"))
    act = Action(
        lie,
        alg,
        {0: (alg.one(), alg.zero()), 1: (alg.zero(), alg.one())},
    )
    return ModuleAlgebra(act)


def heisenberg_twisted(order=3):
    """Non-cocommutative twisted coproduct over U(heis) on Q[x,y]."""
    ring = Ring("series", order)
    lie = LieAlgebra(
        ring, ("X1", "X2", "X3"), {(0, 1): {2: ring.scalar(1)}}
    )
    alg = PolyAlgebra(ring, ("x", "y"))
    x = alg.coord(0)
    act = Action(
        lie,
        alg,
        {
            0: (alg.one(), alg.zero()),
            1: (alg.zero(), x),
            2: (alg.zero(), alg.one()),
        },
    )
    B = TensorElement(lie, 2, {((1, 0, 0), (0, 0, 1)): ring.h()})
    return ModuleAlgebra(act, exp_twist(lie, B))


# -- action ------------------------------------------------------------


def test_generator_action_is_partial_derivative():
    M = classical_instance()
    alg = M.algebra
    a = parse_poly(alg, "x^2 y + 2 y^3")
    da = M.action.act(M.lie.gen(0), a)
    assert da == parse_poly(alg, "2 x y")
    db = M.action.act(M.lie.gen(1), a)
    assert db == parse_poly(alg, "x^2 + 6 y^2")


def test_monomial_action_composes_and_matches_oracle():
    M = classical_instance()
    alg = M.algebra
    a = parse_poly(alg, "x^3 y^2")
    # P1^2 P2 |> a = dx dx dy a
    xi = M.lie.monomial((2, 1), M.lie.ring.scalar(1))
    got = M.action.act(xi, a)
    p = {(3, 2): Fraction(1)}
    want = poly_dx(poly_dx(poly_dy(p)))
    assert element_layers(got, 1)[0] == want


def test_unit_monomial_action_is_the_memoized_image():
    M = moyal_instance()
    act, alg, ring = M.action, M.algebra, M.lie.ring
    a = parse_poly(alg, "x^3 y^2 + y")
    for e in M.lie.monomials_up_to(2):
        assert act.act(M.lie.monomial(e), a) is act.act_monomial(e, a)
    # a coefficient of 2 or h, or two terms, takes the general path
    e, f = (1, 0), (0, 1)
    for c in (ring.scalar(2), ring.h()):
        got = act.act(M.lie.monomial(e, c), a)
        assert got is not act.act_monomial(e, a)
        assert got == act.act_monomial(e, a).scale(c)
    both = M.lie.monomial(e) + M.lie.monomial(f)
    assert act.act(both, a) == act.act_monomial(e, a) + act.act_monomial(f, a)


def test_action_through_localized_unit():
    alg = PolyAlgebra(
        RATIONAL, ("x", "y"), unit={(2, 0): RATIONAL.scalar(1),
                                    (0, 0): RATIONAL.scalar(1)}
    )
    lie = translations(RATIONAL)
    act = Action(
        lie, alg, {0: (alg.one(), alg.zero()), 1: (alg.zero(), alg.one())}
    )
    inv = alg.unit_element().inverse()
    # d/dx (1/(1+x^2)) = -2x/(1+x^2)^2
    got = act.act(lie.gen(0), inv)
    want = parse_poly(alg, "-2 x") * inv * inv
    assert got == want


def test_bracket_incompatible_action_rejected():
    lie = LieAlgebra(
        RATIONAL, ("X1", "X2", "X3"), {(0, 1): {2: RATIONAL.scalar(1)}}
    )
    alg = PolyAlgebra(RATIONAL, ("x", "y"))
    with pytest.raises(BracketIncompatible):
        Action(
            lie,
            alg,
            {
                0: (alg.one(), alg.zero()),
                1: (alg.zero(), alg.coord(0)),
                2: (alg.one(), alg.one()),  # should be (0, 1)
            },
        )


# -- star product -------------------------------------------------------


def test_star_frozen_values():
    M = moyal_instance()
    alg = M.algebra
    x, y = alg.coord(0), alg.coord(1)
    h = alg.ring.h()
    assert M.mul(x, y) == x * y - alg.scalar(h)
    assert M.mul(y, x) == x * y
    assert M.mul(x, y) - M.mul(y, x) == -alg.scalar(h)


def test_star_commutator_stable_in_order():
    for order in (2, 3, 4, 5):
        M = moyal_instance(order)
        alg = M.algebra
        x, y = alg.coord(0), alg.coord(1)
        comm = M.mul(x, y) - M.mul(y, x)
        assert comm == -alg.scalar(alg.ring.h())


_EXPONENTS = [(i, j) for i in range(5) for j in range(5 - i)]
_POLYS = st.dictionaries(
    st.sampled_from(_EXPONENTS),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    max_size=5,
)


@given(st.integers(min_value=1, max_value=7), _POLYS, _POLYS)
@settings(max_examples=150, deadline=None)
def test_star_matches_independent_oracle(order, p, q):
    """Star products of random polynomials of degree <= 4 against the
    closed form, at every truncation order from 1 to 7."""
    M = moyal_instance(order)
    alg = M.algebra

    def to_elem(poly):
        return AlgebraElement(alg, {e: alg.ring.scalar(c) for e, c in poly.items()})

    got = M.mul(to_elem(p), to_elem(q))
    assert element_layers(got, order) == oracle_layers(p, q, order)


def test_star_requires_series_ring():
    lie = translations(RATIONAL)
    B = TensorElement(lie, 2, {((1, 0), (0, 1)): RATIONAL.scalar(1)})
    with pytest.raises(WrongRing):
        exp_twist(lie, B)


# -- suites -------------------------------------------------------------


def test_classical_module_algebra_checks():
    M = classical_instance()
    rep = check_module_algebra(M, depth=3, degree=2)
    assert rep.passed, rep.to_text()
    rep2 = check_braided_commutative(M, degree=2)
    assert rep2.passed, rep2.to_text()


def test_moyal_module_algebra_checks():
    M = moyal_instance()
    rep = check_module_algebra(M, depth=3, degree=2)
    assert rep.passed, rep.to_text()


def test_moyal_braided_commutative_and_involutive():
    M = moyal_instance()
    rep = check_braided_commutative(M, degree=3)
    assert rep.passed, rep.to_text()
    rep2 = check_braid_involutive(M, degree=2)
    assert rep2.passed, rep2.to_text()


def test_moyal_associativity_suite():
    M = moyal_instance()
    rep = star_product_suite(M, degree=3)
    assert rep.passed, rep.to_text()


def test_associativity_counterexample_under_non_cocycle_twist(tmp_path, capsys):
    """F = 1 (x) 1 + h P1 (x) P2 is no cocycle, so its star product is
    not associative: the row, which reads a b and b c from a table of
    pair products, still names the first failing a, b, c only."""
    data = json.loads((SCENARIOS / "moyal.json").read_text())
    data["twist"] = {"kind": "tensor",
                     "terms": [["1", "1", "1"], ["P1", "P2", "h"]]}
    path = tmp_path / "non-cocycle.json"
    path.write_text(json.dumps(data))
    assert main(["star", str(path), "--format", "structured"]) == 1
    out = json.loads(capsys.readouterr().out)
    failing = [(r["title"], c["name"], c["counterexample"])
               for r in out["reports"] for c in r["checks"] if not c["passed"]]
    assert failing == [("star-product", "associativity",
                        {"a": "1*x", "b": "1*x", "c": "1*y^2"})]


def test_heisenberg_twisted_instance():
    """Coproduct in force differs from the untwisted one here."""
    M = heisenberg_twisted()
    xi = M.lie.gen(1)
    assert M.hopf is M.twist
    assert M.hopf.coproduct(xi) != HopfStructure(M.lie).coproduct(xi)
    rep = check_module_algebra(M, depth=2, degree=2)
    assert rep.passed, rep.to_text()
    rep2 = check_braided_commutative(M, degree=2)
    assert rep2.passed, rep2.to_text()
    alg = M.algebra
    x, y = alg.coord(0), alg.coord(1)
    h = alg.ring.h()
    assert M.mul(x, y) == x * y - alg.scalar(h)
    assert M.mul(y, x) == x * y


def test_braid_rejects_unknown_module():
    M = classical_instance()
    with pytest.raises(UnknownModule):
        M.braid_algebra_pairs([(M.algebra.one(), "not an element")])


def test_coordinate_monomial_family():
    M = classical_instance()
    fam = coordinate_monomials(M.algebra, 2)
    assert len(fam) == 6
    assert M.algebra.one() in fam


def test_bracket_incompatible_action_names_pair_and_coordinate():
    # Heisenberg brackets with X2 acting as d/dy: [D1, D2] = 0 but
    # [X1, X2] = X3 acts as d/dy, so the law fails on y
    lie = LieAlgebra(
        RATIONAL, ("X1", "X2", "X3"), {(0, 1): {2: RATIONAL.scalar(1)}}
    )
    alg = PolyAlgebra(RATIONAL, ("x", "y"))
    images = {
        0: (alg.one(), alg.zero()),
        1: (alg.zero(), alg.one()),
        2: (alg.zero(), alg.one()),
    }
    with pytest.raises(BracketIncompatible) as info:
        Action(lie, alg, images)
    assert isinstance(info.value, EngineError)
    assert "[X1, X2] acts on y" in str(info.value)
