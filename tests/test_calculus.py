"""Cartan calculus engine: frozen classical values, independent
evaluation oracles, braided identities and gauge transports."""

import functools
import json
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc import calculus
from braidcalc.calculus import (
    Calculus,
    MultiVector,
    cartan_suite,
    deformed_binary,
    gauge_suite,
    gauge_transport,
    graded_family,
    increasing_words,
    merge_words,
    schouten_suite,
)
from braidcalc.cli import Scenario, parse_poly
from braidcalc.errors import (
    FramePairingSingular,
    GradeMismatch,
    NotInFrameSpan,
    RankMismatch,
    UnknownModule,
    UnsupportedFrameBraiding,
)
from braidcalc.hopf import LieAlgebra, TensorElement
from braidcalc.modalg import Action, ModuleAlgebra, coordinate_monomials
from braidcalc.report import Report, violations
from braidcalc.ring import RATIONAL, PolyAlgebra, Ring, _memo
from braidcalc.twist import exp_twist


def translations(ring):
    return LieAlgebra(ring, ("P1", "P2"), {})


def classical_cal():
    lie = translations(RATIONAL)
    alg = PolyAlgebra(RATIONAL, ("x", "y"))
    action = Action(lie, alg, {0: (alg.one(), alg.zero()),
                               1: (alg.zero(), alg.one())})
    return Calculus(ModuleAlgebra(action))


def moyal_pair(order=3):
    """Untwisted and Moyal-twisted calculus over one shared action."""
    ring = Ring("series", order)
    lie = translations(ring)
    alg = PolyAlgebra(ring, ("x", "y"))
    action = Action(lie, alg, {0: (alg.one(), alg.zero()),
                               1: (alg.zero(), alg.one())})
    biv = TensorElement(lie, 2, {((1, 0), (0, 1)): ring.h()})
    twisted = ModuleAlgebra(action, twist=exp_twist(lie, biv))
    return Calculus(ModuleAlgebra(action)), Calculus(twisted)


def moyal_cal(order=3):
    return moyal_pair(order)[1]


def heis_pair(order=3):
    ring = Ring("series", order)
    lie = LieAlgebra(ring, ("X1", "X2", "X3"), {(0, 1): {2: 1}})
    alg = PolyAlgebra(ring, ("x", "y"))
    x = alg.coord(0)
    action = Action(lie, alg, {
        0: (alg.one(), alg.zero()),
        1: (alg.zero(), x),
        2: (alg.zero(), alg.one()),
    })
    biv = TensorElement(lie, 2, {((1, 0, 0), (0, 0, 1)): ring.h()})
    twisted = ModuleAlgebra(action, twist=exp_twist(lie, biv))
    return Calculus(ModuleAlgebra(action)), Calculus(twisted)


def heis_cal(order=3):
    return heis_pair(order)[1]


def skew_frame_cal():
    """Classical instance over the frame (d_x, x d_x + d_y); its
    bracket structure is nonzero: [e0, e1] = e0."""
    lie = translations(RATIONAL)
    alg = PolyAlgebra(RATIONAL, ("x", "y"))
    action = Action(lie, alg, {0: (alg.one(), alg.zero()),
                               1: (alg.zero(), alg.one())})
    x = alg.coord(0)
    images = [(alg.one(), alg.zero()), (x, alg.one())]
    return Calculus(ModuleAlgebra(action), frame_images=images)


def monomial(cal, key):
    return parse_poly(cal.alg, key)


# ---------------------------------------------------------------------
# words and normal forms
# ---------------------------------------------------------------------


def test_merge_words_signs():
    assert merge_words((0,), (1,)) == (1, (0, 1))
    assert merge_words((1,), (0,)) == (-1, (0, 1))
    assert merge_words((0, 2), (1,)) == (-1, (0, 1, 2))
    assert merge_words((0,), (0,)) is None
    assert merge_words((), (0, 1)) == (1, (0, 1))


def test_normal_form_rejects_bad_words():
    cal = classical_cal()
    with pytest.raises(GradeMismatch):
        cal.mv(2, {(1, 0): cal.alg.one()})
    with pytest.raises(GradeMismatch):
        cal.mv(1, {(0, 1): cal.alg.one()})


# ---------------------------------------------------------------------
# frozen classical pairings
# ---------------------------------------------------------------------


def test_classical_insertion_and_evaluation():
    cal = classical_cal()
    th01 = cal.wedge(cal.coframe(0), cal.coframe(1))
    pair = cal.wedge(cal.frame_field(0), cal.frame_field(1))
    got = cal.insert(pair, th01)
    assert got.grade == 0
    assert got.terms[()] == -cal.alg.one()
    assert cal.eval_form(th01, [cal.frame_field(0), cal.frame_field(1)]) \
        == cal.alg.one()
    assert cal.eval_form(th01, [cal.frame_field(1), cal.frame_field(0)]) \
        == -cal.alg.one()
    assert cal.eval_form(cal.coframe(0), [cal.frame_field(0)]) == cal.alg.one()
    assert cal.eval_form(cal.coframe(0), [cal.frame_field(1)]) == cal.alg.zero()


def test_wedge_coefficients_multiply_in_force():
    cl = classical_cal()
    x, y = cl.alg.coord(0), cl.alg.coord(1)
    got = cl.wedge(cl.form(1, {(0,): x}), cl.form(1, {(1,): y}))
    assert got.terms == {(0, 1): x * y}

    tw = moyal_cal()
    x, y = tw.alg.coord(0), tw.alg.coord(1)
    got = tw.wedge(tw.form(1, {(0,): x}), tw.form(1, {(1,): y}))
    h = tw.ring.h()
    assert got.terms == {(0, 1): x * y - tw.alg.one().scale(h)}
    flipped = tw.wedge(tw.form(1, {(1,): y}), tw.form(1, {(0,): x}))
    assert flipped.terms == {(0, 1): -(y * x)}


# ---------------------------------------------------------------------
# two-form evaluation oracle
# ---------------------------------------------------------------------


def test_two_form_evaluation_oracle_classical():
    """(om ^ eta)(X, Y) = om(X) eta(Y) - om(Y) eta(X) when R is trivial."""
    cal = classical_cal()
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    forms = [cal.coframe(0), cal.form(1, {(1,): x}), cal.form(1, {(0,): y})]
    fields = [cal.frame_field(1), cal.mv(1, {(0,): x}), cal.mv(1, {(1,): y * y})]
    for om in forms:
        for eta in forms:
            w = cal.wedge(om, eta)
            for X in fields:
                for Y in fields:
                    want = (
                        cal.eval_form(om, [X]) * cal.eval_form(eta, [Y])
                        - cal.eval_form(om, [Y]) * cal.eval_form(eta, [X])
                    )
                    assert cal.eval_form(w, [X, Y]) == want


@pytest.mark.parametrize("make", [moyal_cal, heis_cal])
def test_evaluation_left_linearity(make):
    """(f . om)(X, ...) = f mu om(X, ...) for the product in force."""
    cal = make()
    M = cal.M
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    th01 = cal.wedge(cal.coframe(0), cal.coframe(1))
    fields = [cal.frame_field(0), cal.mv(1, {(0,): x}), cal.mv(1, {(1,): y * y})]
    for f in [x, y * x, x * x]:
        for X in fields:
            for Y in fields:
                assert cal.eval_form(th01.left_mul(f), [X, Y]) == \
                    M.mul(f, cal.eval_form(th01, [X, Y]))
                om = cal.form(1, {(1,): y})
                assert cal.eval_form(om.left_mul(f), [X]) == \
                    M.mul(f, cal.eval_form(om, [X]))


@pytest.mark.parametrize("make", [moyal_cal, heis_cal])
def test_evaluation_braided_antisymmetry(make):
    """om(X, Y) = -sum om(R1 acting on Y, R2 acting on X)."""
    cal = make()
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    forms = [
        cal.wedge(cal.coframe(0), cal.coframe(1)).left_mul(x),
        cal.form(2, {(0, 1): y * y}),
    ]
    fields = [cal.frame_field(0), cal.mv(1, {(0,): x}), cal.mv(1, {(1,): y * y})]
    for om in forms:
        for X in fields:
            for Y in fields:
                lhs = cal.eval_form(om, [X, Y])
                rhs = cal.alg.zero()
                for (t1, t2), c in cal.M.hopf.R.terms.items():
                    Ya = cal.h_act_exp(t1, Y)
                    Xa = cal.h_act_exp(t2, X)
                    if Ya.is_zero() or Xa.is_zero():
                        continue
                    rhs = rhs + cal.eval_form(om, [Ya, Xa]).scale(c)
                assert lhs == -rhs, (om, X, Y)


def test_evaluation_classical_shadow():
    """The order-zero part of a twisted evaluation is the untwisted
    evaluation of the same objects, compared inside one series ring."""
    cl, tw = moyal_pair()

    def evaluate(cal):
        x, y = cal.alg.coord(0), cal.alg.coord(1)
        om = cal.wedge(cal.coframe(0), cal.coframe(1)).left_mul(x)
        return cal.eval_form(om, [cal.mv(1, {(0,): x}), cal.mv(1, {(1,): y * y})])

    got, want = evaluate(tw), evaluate(cl)
    assert got != want
    assert (got - want).min_h_order() >= 1


# ---------------------------------------------------------------------
# braided structure of wedge and insertion
# ---------------------------------------------------------------------


@pytest.mark.parametrize("make", [moyal_cal, heis_cal])
def test_wedge_braided_graded_commutativity(make):
    cal = make()
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    fam = [
        cal.mv(1, {(0,): x * x}),
        cal.mv(1, {(1,): x * y}),
        cal.mv(2, {(0, 1): y}),
        cal.function(x * y),
    ]
    for U in fam:
        for V in fam:
            lhs = cal.wedge(U, V)
            rhs = cal.zero_mv(U.grade + V.grade)
            for (t1, t2), c in cal.M.hopf.Rinv.terms.items():
                Va = cal.h_act_exp(t1, V)
                Ua = cal.h_act_exp(t2, U)
                if Va.is_zero() or Ua.is_zero():
                    continue
                rhs = rhs + cal.wedge(Va, Ua).scale(c)
            if (U.grade * V.grade) % 2:
                rhs = -rhs
            assert lhs == rhs, (U, V)


def test_insertion_is_graded_braided_derivation():
    cal = moyal_cal()
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    fields = [cal.frame_field(0), cal.mv(1, {(1,): x}), cal.mv(1, {(0,): y * x})]
    forms = [
        cal.function_form(x),
        cal.coframe(1),
        cal.form(1, {(0,): y}),
        cal.form(2, {(0, 1): x}),
    ]
    for X in fields:
        for om in forms:
            for eta in forms:
                lhs = cal.insert(X, cal.wedge(om, eta))
                rhs = cal.wedge(cal.insert(X, om), eta)
                for (t1, t2), c in cal.M.hopf.Rinv.terms.items():
                    oma = cal.h_act_exp(t1, om)
                    Xa = cal.h_act_exp(t2, X)
                    if oma.is_zero() or Xa.is_zero():
                        continue
                    piece = cal.wedge(oma, cal.insert(Xa, eta)).scale(c)
                    rhs = rhs + (-piece if om.grade % 2 else piece)
                assert lhs == rhs, (X, om, eta)


def test_field_application_braided_leibniz():
    cal = moyal_cal()
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    fields = [cal.frame_field(0), cal.mv(1, {(1,): x}), cal.mv(1, {(0,): x * y})]
    fam = coordinate_monomials(cal.alg, 2)
    for X in fields:
        for f in fam:
            for g in fam:
                lhs = cal.apply_field(X, cal.M.mul(f, g))
                rhs = cal.M.mul(cal.apply_field(X, f), g)
                for (t1, t2), c in cal.M.hopf.Rinv.terms.items():
                    fa = cal.M.action.act_monomial(t1, f)
                    Xa = cal.h_act_exp(t2, X)
                    if fa.is_zero() or Xa.is_zero():
                        continue
                    rhs = rhs + cal.M.mul(
                        fa, cal.apply_field(Xa, g)
                    ).scale(c)
                assert lhs == rhs, (X, f, g)


# ---------------------------------------------------------------------
# Hopf action on fields and forms
# ---------------------------------------------------------------------


@pytest.mark.parametrize("make", [classical_cal, moyal_cal, heis_cal])
def test_adjoint_action_matches_operator_formula(make):
    cal = make()
    M = cal.M
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    fields = [cal.frame_field(0), cal.mv(1, {(1,): x}), cal.mv(1, {(0,): x * y})]
    args = coordinate_monomials(cal.alg, 2)
    for e in cal.lie.monomials_up_to(2):
        if not any(e):
            continue
        xi = cal.lie.monomial(e)
        for X in fields:
            acted = cal.h_act_exp(e, X)
            for a in args:
                lhs = cal.apply_field(acted, a)
                rhs = cal.alg.zero()
                for l, r, c in cal.cop_pairs(e):
                    inner = M.action.act(M.hopf.antipode(cal.lie.monomial(r)), a)
                    inner = cal.apply_field(X, inner)
                    if inner.is_zero():
                        continue
                    rhs = rhs + M.action.act(cal.lie.monomial(l), inner).scale(c)
                assert lhs == rhs, (e, X, a)


@pytest.mark.parametrize("make", [classical_cal, heis_cal])
def test_coframe_action_matches_operator_formula(make):
    cal = make()
    M = cal.M
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    forms = [cal.coframe(0), cal.form(1, {(1,): x}), cal.form(1, {(0,): y})]
    fields = [cal.frame_field(0), cal.frame_field(1), cal.mv(1, {(0,): x})]
    for e in cal.lie.monomials_up_to(2):
        if not any(e):
            continue
        for om in forms:
            acted = cal.h_act_exp(e, om)
            for X in fields:
                lhs = cal.eval_form(acted, [X])
                rhs = cal.alg.zero()
                for l, r, c in cal.cop_pairs(e):
                    Sr = M.hopf.antipode(cal.lie.monomial(r))
                    Xa = sum((cal.h_act_exp(f, X).scale(s)
                              for f, s in Sr.terms.items()), cal.zero_mv(1))
                    if Xa.is_zero():
                        continue
                    inner = cal.eval_form(om, [Xa])
                    if inner.is_zero():
                        continue
                    rhs = rhs + M.action.act(cal.lie.monomial(l), inner).scale(c)
                assert lhs == rhs, (e, om, X)


def test_heisenberg_frame_action_is_nontrivial():
    cal = heis_cal()
    acted = cal.h_act_exp((0, 1, 0), cal.frame_field(0))
    assert acted.terms == {(1,): -cal.alg.one()}
    assert cal.h_act_exp((0, 1, 0), cal.coframe(1)).terms \
        == {(0,): cal.alg.one()}


@pytest.mark.parametrize("make", [moyal_cal, heis_cal])
def test_differential_and_insertion_equivariance(make):
    cal = make()
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    forms = [
        cal.function_form(x * y),
        cal.form(1, {(0,): y}),
        cal.form(1, {(1,): x * x}),
        cal.form(2, {(0, 1): x}),
    ]
    fields = [cal.frame_field(0), cal.mv(1, {(1,): x})]
    for e in cal.lie.monomials_up_to(2):
        if not any(e):
            continue
        for om in forms:
            assert cal.h_act_exp(e, cal.d(om)) == cal.d(cal.h_act_exp(e, om))
            for X in fields:
                lhs = cal.h_act_exp(e, cal.insert(X, om))
                rhs = cal.zero_form(om.grade - X.grade)
                for l, r, c in cal.cop_pairs(e):
                    Xa = cal.h_act_exp(l, X)
                    oma = cal.h_act_exp(r, om)
                    if Xa.is_zero() or oma.is_zero():
                        continue
                    rhs = rhs + cal.insert(Xa, oma).scale(c)
                assert lhs == rhs, (e, om, X)


def test_wedge_equivariance_uses_coproduct_in_force():
    cal = heis_cal()
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    U = cal.mv(1, {(0,): y})
    V = cal.mv(1, {(1,): x})
    for e in cal.lie.monomials_up_to(2):
        if not any(e):
            continue
        lhs = cal.h_act_exp(e, cal.wedge(U, V))
        rhs = cal.zero_mv(2)
        for l, r, c in cal.cop_pairs(e):
            Ua = cal.h_act_exp(l, U)
            Va = cal.h_act_exp(r, V)
            if Ua.is_zero() or Va.is_zero():
                continue
            rhs = rhs + cal.wedge(Ua, Va).scale(c)
        assert lhs == rhs, e


# ---------------------------------------------------------------------
# differential
# ---------------------------------------------------------------------


def test_differential_frozen_values():
    cal = classical_cal()
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    da = cal.d0(x * x * y)
    assert da.terms == {(0,): x * y + x * y, (1,): x * x}
    two = cal.d(cal.form(1, {(1,): x}))
    assert two.terms == {(0, 1): cal.alg.one()}
    assert cal.d(cal.form(1, {(0,): x})).is_zero()


def test_skew_frame_structure_and_d_squared():
    cal = skew_frame_cal()
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    # [e0, e1] = e0, so d theta^0 = -theta^0 ^ theta^1
    assert cal._structure_forms()[0].terms == {(0, 1): -cal.alg.one()}
    assert cal._structure_forms()[1].is_zero()
    # the coframe pairing still holds after the change of frame
    assert cal.eval_form(cal.coframe(0), [cal.frame_field(0)]) == cal.alg.one()
    assert cal.eval_form(cal.coframe(1), [cal.frame_field(0)]) == cal.alg.zero()
    for om in [cal.function_form(x * y * y), cal.form(1, {(0,): y}),
               cal.form(1, {(1,): x * x}), cal.form(2, {(0, 1): x * y})]:
        assert cal.d(cal.d(om)).is_zero(), om
    # d f = (e_0 f) theta^0 + (e_1 f) theta^1 against the plain gradient
    f = x * x * y
    df = cal.d0(f)
    e0f = f.deriv(0)
    e1f = x * f.deriv(0) + f.deriv(1)
    assert df.terms == {(0,): e0f, (1,): e1f}


@pytest.mark.parametrize("make", [classical_cal, moyal_cal, heis_cal])
def test_d_squared_zero(make):
    cal = make()
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    forms = [
        cal.function_form(x * x * y),
        cal.form(1, {(0,): x * y}),
        cal.form(1, {(1,): y * y}),
        cal.form(2, {(0, 1): x * y}),
    ]
    for om in forms:
        assert cal.d(cal.d(om)).is_zero(), om


def test_classical_d_oracle_on_fields():
    """(dw)(X,Y) = X(w(Y)) - Y(w(X)) - w([X,Y]) when R is trivial."""
    cal = classical_cal()
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    forms = [cal.form(1, {(0,): x * y}), cal.form(1, {(1,): y})]
    fields = [cal.frame_field(0), cal.mv(1, {(1,): x}), cal.mv(1, {(0,): y})]
    for om in forms:
        for X in fields:
            for Y in fields:
                lhs = cal.eval_form(cal.d(om), [X, Y])
                rhs = (
                    cal.apply_field(X, cal.eval_form(om, [Y]))
                    - cal.apply_field(Y, cal.eval_form(om, [X]))
                    - cal.eval_form(om, [cal.bracket(X, Y)])
                )
                assert lhs == rhs, (om, X, Y)


@pytest.mark.parametrize("make", [moyal_cal, heis_cal])
def test_braided_d_oracle_on_frame_pairs(make):
    """On bare frame pairs the braided first-order differential formula
    collapses to e_b(w(e_c)) - e_c(w(e_b)) - w([e_b, e_c])."""
    cal = make()
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    forms = [cal.form(1, {(0,): x * y}), cal.form(1, {(1,): x * x})]
    for om in forms:
        for b in range(cal.dim):
            for c in range(cal.dim):
                eb, ec = cal.frame_field(b), cal.frame_field(c)
                lhs = cal.eval_form(cal.d(om), [eb, ec])
                rhs = (
                    cal.apply_base(b, cal.eval_form(om, [ec]))
                    - cal.apply_base(c, cal.eval_form(om, [eb]))
                    - cal.eval_form(om, [cal.bracket(eb, ec)])
                )
                assert lhs == rhs, (om, b, c)


# ---------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------


def test_bracket_frozen_classical():
    cal = classical_cal()
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    X = cal.mv(1, {(1,): x})   # x d_y
    Y = cal.mv(1, {(0,): y})   # y d_x
    got = cal.bracket(X, Y)
    assert got.terms == {(0,): x, (1,): -y}


@pytest.mark.parametrize("make", [classical_cal, moyal_cal])
def test_bracket_braided_skew_and_jacobi(make):
    cal = make()
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    fields = [cal.frame_field(0), cal.mv(1, {(1,): x}), cal.mv(1, {(0,): y})]
    Rinv = cal.M.hopf.Rinv.terms
    for X in fields:
        for Y in fields:
            lhs = cal.bracket(X, Y)
            rhs = cal.zero_mv(1)
            for (t1, t2), c in Rinv.items():
                Ya = cal.h_act_exp(t1, Y)
                Xa = cal.h_act_exp(t2, X)
                if Ya.is_zero() or Xa.is_zero():
                    continue
                rhs = rhs + cal.bracket(Ya, Xa).scale(c)
            assert lhs == -rhs, (X, Y)
    for X in fields:
        for Y in fields:
            for Z in fields:
                lhs = cal.bracket(X, cal.bracket(Y, Z))
                rhs = cal.bracket(cal.bracket(X, Y), Z)
                for (t1, t2), c in Rinv.items():
                    Ya = cal.h_act_exp(t1, Y)
                    Xa = cal.h_act_exp(t2, X)
                    if Ya.is_zero() or Xa.is_zero():
                        continue
                    rhs = rhs + cal.bracket(Ya, cal.bracket(Xa, Z)).scale(c)
                assert lhs == rhs, (X, Y, Z)


@pytest.mark.parametrize("make", [classical_cal, heis_cal])
def test_bracket_with_a_zero_field(make):
    """A zero field on either side gives the grade-1 zero field, untwisted
    and twisted."""
    cal = make()
    x = cal.alg.coord(0)
    zero = cal.zero_mv(1)
    for X in (cal.frame_field(0), cal.mv(1, {(1,): x}), zero):
        for got in (cal.bracket(zero, X), cal.bracket(X, zero)):
            assert isinstance(got, MultiVector)
            assert got.grade == 1
            assert got == zero


def test_bracket_equivariance():
    cal = heis_cal()
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    fields = [cal.mv(1, {(1,): x}), cal.mv(1, {(0,): y})]
    for e in cal.lie.monomials_up_to(2):
        if not any(e):
            continue
        for X in fields:
            for Y in fields:
                lhs = cal.h_act_exp(e, cal.bracket(X, Y))
                rhs = cal.zero_mv(1)
                for l, r, c in cal.cop_pairs(e):
                    Xa = cal.h_act_exp(l, X)
                    Ya = cal.h_act_exp(r, Y)
                    if Xa.is_zero() or Ya.is_zero():
                        continue
                    rhs = rhs + cal.bracket(Xa, Ya).scale(c)
                assert lhs == rhs, (e, X, Y)


@pytest.mark.parametrize("make", [classical_cal, moyal_cal])
def test_schouten_suite(make):
    rep = schouten_suite(make())
    assert rep.passed, rep.to_text()


def expanded_schouten(cal, X, Y):
    """Reference Schouten bracket by word expansion: both words are
    split into grade-1 factors, each pair of factors is bracketed and
    wedged back between its prefix and suffix, signs carried by hand.
    A grade-0 first argument goes through braided skew-symmetry."""
    k, l = X.grade, Y.grade
    if k == 0 and l == 0:
        return cal.zero_mv(-1)
    one = cal.alg.one()
    Rinv = cal.M.hopf.Rinv.pairs()

    def leg_sum(act, u, v, op, total):
        for t1, t2, c in Rinv:
            ua, va = act(t1, u), act(t2, v)
            if not ua.is_zero() and not va.is_zero():
                total = total + op(ua, va).scale(c)
        return total

    def factor(word, coeff, i):
        """Grade-1 factor number i (1-based) of coeff * wedge(word)."""
        return cal.mv(1, {word[i - 1:i]: coeff if i == 1 else one})

    def prefix(word, coeff, i):
        """Factors 1..i-1 as one multivector, coefficient included."""
        return cal.mv(i - 1, {word[:i - 1]: coeff if i > 1 else one})

    def suffix(word, i):
        return cal.mv(len(word) - i, {word[i:]: one})

    zero = out = cal.zero_mv(k + l - 1)
    if l == 0:
        a = Y.terms.get((), cal.alg.zero())
        for word, coeff in X.terms.items():
            for i in range(1, k + 1):
                pre = prefix(word, coeff, i)
                if (k - i) % 2:
                    pre = -pre
                Xi = factor(word, coeff, i)
                out = leg_sum(
                    cal.act_any, a, suffix(word, i),
                    lambda b, suf: cal.wedge(cal.wedge(
                        pre, cal.function(cal.apply_field(Xi, b))), suf),
                    out)
        return out
    if k == 0:
        out = leg_sum(cal.h_act_exp, Y, X,
                      lambda Ya, Xa: expanded_schouten(cal, Ya, Xa), zero)
        return -out if l % 2 else out
    for wx, cx in X.terms.items():
        for wy, cy in Y.terms.items():
            for i in range(1, k + 1):
                for j in range(1, l + 1):
                    preY = prefix(wy, cy, j)
                    if (i + j) % 2:
                        preY = -preY

                    def outer(Xa, midX):
                        def inner(Ya, mid):
                            return cal.wedge(cal.wedge(cal.bracket(Xa, Ya), mid),
                                             suffix(wy, j))

                        return leg_sum(
                            cal.h_act_exp, factor(wy, cy, j),
                            cal.wedge(cal.wedge(midX, suffix(wx, i)), preY),
                            inner, zero)

                    out = leg_sum(cal.h_act_exp, factor(wx, cx, i),
                                  prefix(wx, cx, i), outer, out)
    return out


@pytest.mark.parametrize("name,pairs", [("surface-twisted", 784), ("moyal", 144)])
def test_schouten_matches_word_expansion(name, pairs):
    """The law-based bracket equals the word-expansion reference on every
    pair of grade 0-2 multivectors with coefficients of degree <= 1.  On
    the 3-coordinate twisted surface, (2, 2) pairs give grade-3 results,
    and the schouten suite passes there too."""
    path = Path(__file__).resolve().parent.parent / "scenarios" / (name + ".json")
    cal = Scenario(json.loads(path.read_text())).calculus()
    family = graded_family(cal.mv, cal.dim, (0, 1, 2),
                           coordinate_monomials(cal.alg, 1))
    cases = list(product(family, repeat=2))
    assert len(cases) == pairs
    for X, Y in cases:
        assert cal.schouten(X, Y) == expanded_schouten(cal, X, Y), (X, Y)
    if name == "surface-twisted":
        rep = schouten_suite(cal)
        assert rep.passed, rep.to_text()


def test_schouten_graded_leibniz_reduces_wedge_to_brackets():
    """[[X, Y ^ Z]] recomputed from smaller brackets must agree with
    the engine value, which peels the merged word y x y e0 ^ e1 at its
    first letter instead (independent recursion oracle)."""
    cal = moyal_cal()
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    Rinv = cal.M.hopf.Rinv.terms
    X = cal.mv(2, {(0, 1): x})
    Y = cal.mv(1, {(0,): y})
    Z = cal.mv(1, {(1,): x * y})
    lhs = cal.schouten(X, cal.wedge(Y, Z))
    rhs = cal.wedge(cal.schouten(X, Y), Z)
    s = (X.grade - 1) * Y.grade
    for (t1, t2), c in Rinv.items():
        Ya = cal.h_act_exp(t1, Y)
        Xa = cal.h_act_exp(t2, X)
        if Ya.is_zero() or Xa.is_zero():
            continue
        piece = cal.wedge(Ya, cal.schouten(Xa, Z)).scale(c)
        rhs = rhs + (-piece if s % 2 else piece)
    assert lhs == rhs


@pytest.mark.parametrize("make", [lambda: heis_pair()[0], moyal_cal],
                         ids=["heisenberg", "moyal"])
def test_schouten_with_function_first(make):
    """A grade-0 first argument: [[a, X]] = -X(a) when R is trivial, and
    [[a, Y ^ Z]] = [[a, Y]] ^ Z - sum (Rinv1 |> Y) ^ [[Rinv2 |> a, Z]]
    in force, for coordinate monomials a of degree <= 2."""
    cal = make()
    fields = [
        cal.mv(1, {(u,): c})
        for u in range(cal.dim)
        for c in coordinate_monomials(cal.alg, 1)
    ]
    for m in coordinate_monomials(cal.alg, 2):
        a = cal.function(m)
        if not cal.M.is_twisted:
            for X in fields:
                assert cal.schouten(a, X) == cal.function(-cal.apply_field(X, m)), (m, X)
        for Y in fields:
            for Z in fields:
                rhs = cal.wedge(cal.schouten(a, Y), Z)
                for (t1, t2), c in cal.M.hopf.Rinv.terms.items():
                    Ya = cal.h_act_exp(t1, Y)
                    aa = cal.h_act_exp(t2, a)
                    rhs = rhs - cal.wedge(Ya, cal.schouten(aa, Z)).scale(c)
                assert cal.schouten(a, cal.wedge(Y, Z)) == rhs, (m, Y, Z)


@pytest.mark.parametrize("name", ["heisenberg", "moyal", "heisenberg-twisted",
                                  "abelian-plane"])
def test_schouten_braided_graded_jacobi(name):
    """[[X,[[Y,Z]]]] = [[[[X,Y]],Z]]
    + (-1)^{(k-1)(l-1)} sum [[Rinv1 |> Y, [[Rinv2 |> X, Z]]]]
    on the schouten suite's grade-1 and grade-2 fields of a bundled
    scenario, over every triple of total grade <= 5 (702 of them)."""
    path = Path(__file__).resolve().parent.parent / "scenarios" / (name + ".json")
    cal = Scenario(json.loads(path.read_text())).calculus()
    fields = graded_family(cal.mv, cal.dim, (1, 2),
                           coordinate_monomials(cal.alg, 1))
    Rinv = cal.M.hopf.Rinv.terms
    checked = 0
    for X, Y, Z in product(fields, repeat=3):
        k, l = X.grade, Y.grade
        if k + l + Z.grade > 5:
            continue
        braided = cal.zero_mv(k + l + Z.grade - 2)
        for (t1, t2), c in Rinv.items():
            Ya = cal.h_act_exp(t1, Y)
            Xa = cal.h_act_exp(t2, X)
            if Ya.is_zero() or Xa.is_zero():
                continue
            braided = braided + cal.schouten(Ya, cal.schouten(Xa, Z)).scale(c)
        rhs = cal.schouten(cal.schouten(X, Y), Z)
        rhs = rhs - braided if (k - 1) * (l - 1) % 2 else rhs + braided
        assert cal.schouten(X, cal.schouten(Y, Z)) == rhs, (X, Y, Z)
        checked += 1
    assert checked == 702


@pytest.mark.parametrize("name", ["heisenberg-twisted", "abelian-plane"])
def test_memoized_kernels_match_plain_computation(name):
    """`apply_field` and `_insert_base`, memoized per Calculus, agree
    with their plain bodies on the cartan suite's grade-1 fields,
    coefficients and forms of a twisted scenario and of one over a
    non-coordinate frame.  Every memo entry is made before the first
    comparison, so an entry stored under a wrong key shows; a repeated
    call returns the identical object."""
    path = Path(__file__).resolve().parent.parent / "scenarios" / (name + ".json")
    cal = Scenario(json.loads(path.read_text())).calculus()
    coeffs = coordinate_monomials(cal.alg, 2)
    fields = graded_family(cal.mv, cal.dim, (1,), coeffs)
    forms = graded_family(cal.form, cal.dim, range(1, min(cal.dim, 2) + 1),
                          [cal.alg.one(), cal.alg.coord(0)])
    applied = {(X, a): cal.apply_field(X, a) for X in fields for a in coeffs}
    inserted = {(u, om): cal._insert_base(u, om)
                for u in range(cal.dim) for om in forms}
    assert sum(not v.is_zero() for v in applied.values()) > len(fields)
    assert sum(not v.is_zero() for v in inserted.values()) >= len(forms)
    plain_apply = Calculus.apply_field.__wrapped__
    plain_insert = Calculus._insert_base.__wrapped__
    for (X, a), got in applied.items():
        assert got == plain_apply(cal, X, a), (X, a)
        assert cal.apply_field(X, a) is got
    for (u, om), got in inserted.items():
        want = plain_insert(cal, u, om)
        assert got == want and got.grade == want.grade, (u, om)
        assert cal._insert_base(u, om) is got


def test_apply_field_checks_the_grade_of_a_zero_field():
    """Zeros of every grade are one memo key, so the grade check runs
    before the memo: a zero bivector is refused also after a zero
    field was applied."""
    cal = moyal_cal()
    x = cal.alg.coord(0)
    assert cal.apply_field(cal.zero_mv(1), x).is_zero()
    with pytest.raises(GradeMismatch):
        cal.apply_field(cal.zero_mv(2), x)


def test_memoized_operators_keep_the_grade_of_a_zero():
    """d, the Schouten bracket, the Lie derivative and the Hopf action
    give a zero argument the zero of the grade it would have, whatever
    zero the memo saw first."""
    cal = moyal_cal()
    e0, th0 = cal.frame_field(0), cal.coframe(0)
    assert cal.d(cal.zero_form(0)).grade == 1
    assert cal.d(cal.zero_form(2)).grade == 3
    assert cal.schouten(cal.zero_mv(1), e0).grade == 1
    assert cal.schouten(cal.zero_mv(2), e0).grade == 2
    assert cal.lie_derivative(cal.zero_mv(1), th0).grade == 1
    assert cal.lie_derivative(cal.zero_mv(2), th0).grade == 0
    assert cal.lie_derivative(e0, cal.zero_form(0)).grade == 0
    assert cal.lie_derivative(e0, cal.zero_form(2)).grade == 2
    assert cal.h_act_exp((1, 0), cal.zero_form(0)).grade == 0
    assert cal.h_act_exp((1, 0), cal.zero_form(2)).grade == 2


_HT = Scenario(json.loads((Path(__file__).resolve().parent.parent / "scenarios"
                           / "heisenberg-twisted.json").read_text())).calculus()
_HT_COEFFS = coordinate_monomials(_HT.alg, 1)
_HT_FIELDS = (graded_family(_HT.mv, _HT.dim, range(3), _HT_COEFFS)
              + [_HT.zero_mv(k) for k in range(3)])
_HT_FORMS = (graded_family(_HT.form, _HT.dim, range(3), _HT_COEFFS)
             + [_HT.zero_form(k) for k in range(3)])


@given(st.sampled_from(_HT_FIELDS), st.sampled_from(_HT_FIELDS),
       st.sampled_from(_HT_FORMS), st.sampled_from(_HT_FORMS),
       st.sampled_from(_HT.lie.monomials_up_to(2)))
@settings(max_examples=200, deadline=None)
def test_grades_add_up(X, Y, om, eta, e):
    """Every operator's result has the grade its degree gives, with no
    clamp at zero: a field of higher grade inserted into a form leaves a
    zero of negative grade, and the Schouten bracket of two functions is
    the zero of grade -1."""
    k, l, p = X.grade, Y.grade, om.grade
    assert _HT.d(om).grade == p + 1
    assert _HT.insert(X, om).grade == p - k
    assert _HT.lie_derivative(X, om).grade == p + 1 - k
    assert _HT.schouten(X, Y).grade == k + l - 1
    assert _HT.wedge(X, Y).grade == k + l
    assert _HT.wedge(om, eta).grade == p + eta.grade
    assert _HT.h_act_exp(e, X).grade == k
    assert _HT.h_act_exp(e, om).grade == p


# ---------------------------------------------------------------------
# Cartan identities
# ---------------------------------------------------------------------


def test_cartan_suite_classical():
    rep = cartan_suite(classical_cal())
    assert rep.passed, rep.to_text()


def test_cartan_suite_skew_frame():
    rep = cartan_suite(skew_frame_cal(), coeff_degree=1)
    assert rep.passed, rep.to_text()


def test_cartan_suite_moyal():
    rep = cartan_suite(moyal_cal())
    assert rep.passed, rep.to_text()


def test_cartan_suite_heisenberg_twisted():
    rep = cartan_suite(heis_cal(), coeff_degree=1)
    assert rep.passed, rep.to_text()


@pytest.mark.parametrize("make", [moyal_cal, heis_cal])
def test_cartan_triple_rows_see_a_wrong_braiding(make):
    """With R in place of its inverse, the triple rows, which share leg
    images and inner values across their cases, fail with exactly the
    counterexamples each case computing its own values gives."""
    cal = make()
    cal.M.hopf.Rinv = cal.M.hopf.R
    rep = cartan_suite(cal, coeff_degree=1)
    failing = {c.name: c.counterexample for c in rep.failing()}
    assert failing == {
        "insert-insert": {"X": "(1*y)e0", "Y": "(1*x)e1", "form": "(1)th0^th1"},
        "lie-insert": {"X": "(1*y)e0", "Y": "(1*x)e0", "form": "(1*x)th0"},
    }


@pytest.mark.parametrize("make", [moyal_cal, heis_cal])
def test_schouten_leibniz_row_sees_a_wrong_braiding(make):
    """With R in place of its inverse, only the graded-leibniz row fails,
    with the counterexample each case computing its own leg images and
    inner values gives."""
    cal = make()
    cal.M.hopf.Rinv = cal.M.hopf.R
    rep = schouten_suite(cal)
    failing = {c.name: c.counterexample for c in rep.failing()}
    assert failing == {
        "graded-leibniz": {"X": "(1*y)e0", "Y": "(1*x)e0", "Z": "(1*x)e1"},
    }


def rows_in_progress(monkeypatch):
    """Patch Report.check to keep the name of the row whose search is
    running; the returned list is empty between rows."""
    running = []
    check = Report.check

    def checking(self, name, law, found):
        running.append(name)
        try:
            check(self, name, law, found)
        finally:
            running.pop()

    monkeypatch.setattr(Report, "check", checking)
    return running


@pytest.mark.parametrize("suite, want", [
    (cartan_suite, [("legged insert", "insert-insert"),
                    ("rows of insert", "insert-insert"),
                    ("right images", "insert-insert"),
                    ("left images", "insert-insert"),
                    ("legged lie_derivative", "lie-insert"),
                    ("rows of lie_derivative", "lie-insert")]),
    (schouten_suite, [("legged schouten", "graded-leibniz"),
                      ("rows of schouten", "graded-leibniz"),
                      ("right images", "graded-leibniz"),
                      ("left images", "graded-leibniz"),
                      ("rows of wedge", "graded-leibniz")]),
], ids=["cartan", "schouten"])
def test_shared_tables_are_built_in_the_first_row_that_reads_them(
        monkeypatch, suite, want):
    """Each table of a suite's `_SuiteValues` is built once, inside the
    timed search of the first row that reads it, so the text timings
    carry the build."""
    running = rows_in_progress(monkeypatch)
    built = []

    def recording(what, fn):
        @functools.wraps(fn)
        def build(self, *args):
            built.append((what(*args), running[-1] if running else None))
            return fn(self, *args)
        return _memo(build)

    values = calculus._SuiteValues
    for side in ("left", "right"):
        monkeypatch.setattr(values, side, property(recording(
            lambda side=side: side + " images",
            getattr(values, side).fget.__wrapped__)))
    monkeypatch.setattr(values, "rows", recording(
        lambda apply, over_ys: "rows of " + apply.__name__,
        values.rows.__wrapped__))
    monkeypatch.setattr(values, "legged", recording(
        lambda apply: "legged " + apply.__name__, values.legged.__wrapped__))
    rep = suite(moyal_cal(), coeff_degree=1)
    assert rep.passed, rep.to_text()
    assert built == want


def test_lie_derivative_frozen():
    cal = classical_cal()
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    got = cal.lie_derivative(cal.frame_field(0), cal.form(1, {(0,): x}))
    assert got.terms == {(0,): cal.alg.one()}
    got = cal.lie_derivative(cal.mv(1, {(1,): x}), cal.form(1, {(1,): y}))
    assert got.terms == {(0,): y, (1,): x}


# ---------------------------------------------------------------------
# the Hopf action on any module
# ---------------------------------------------------------------------


def test_act_any_rejects_an_unknown_module():
    cal = moyal_cal()
    with pytest.raises(UnknownModule):
        cal.act_any((1, 0), "plain string")


# ---------------------------------------------------------------------
# gauge transport
# ---------------------------------------------------------------------


def test_gauge_transport_frozen():
    cl, tw = moyal_pair()
    x, y = cl.alg.coord(0), cl.alg.coord(1)
    X = cl.mv(1, {(1,): x})
    assert gauge_transport(cl, tw, X) == tw.mv(1, {(1,): x})
    U = deformed_binary(cl, tw, cl.wedge, cl.mv(1, {(0,): x}),
                        cl.mv(1, {(1,): y}))
    h = cl.ring.h()
    assert U.terms == {(0, 1): x * y - cl.alg.one().scale(h)}
    got = gauge_transport(cl, tw, U)
    want = tw.wedge(tw.mv(1, {(0,): x}), tw.mv(1, {(1,): y}))
    assert got == want


def test_gauge_suite_moyal():
    cl, tw = moyal_pair()
    rep = gauge_suite(cl, tw, shadow=True)
    assert rep.passed, rep.to_text()
    assert "classical-shadow" in [c.name for c in rep.checks]


def test_gauge_shadow_row_sees_order_zero():
    """The shadow row compares inside the series ring, and fails when
    transport runs through a calculus that differs at h^0: the Moyal
    twist over the frame (2 d_x, d_y)."""
    cl, tw = moyal_pair()
    zero, one = cl.alg.zero(), cl.alg.one()
    scaled = Calculus(tw.M, ((one.scale(2), zero), (zero, one)))
    rep = gauge_suite(cl, tw, shadow=True, transport_cal=scaled)
    shadow = [c for c in rep.checks if c.name == "classical-shadow"]
    assert len(shadow) == 1 and not shadow[0].passed
    assert shadow[0].counterexample is not None


def test_gauge_suite_heisenberg():
    cl, tw = heis_pair()
    rep = gauge_suite(cl, tw)
    assert rep.passed, rep.to_text()


def recorded_members(monkeypatch, module):
    """The leading values of every case the suites of `module` search,
    the values a counterexample names, recorded as the cases pass."""
    seen = []

    def recording(names, cases, holds):
        def passing():
            for case in cases:
                seen.extend(case[:len(names)])
                yield case
        return violations(names, passing(), holds)

    monkeypatch.setattr(module, "violations", recording)
    return seen


def calls_per_member(members, args):
    """How often each distinct member object is among args, by identity."""
    distinct = {id(m): m for m in members}.values()
    return [sum(a is m for a in args) for m in distinct]


@pytest.mark.parametrize("make", [moyal_pair, heis_pair])
def test_gauge_suite_transports_each_member_once(monkeypatch, make):
    """Every field and form of the family is transported once and its
    image read from there by each row, outer member included."""
    cl, tw = make()
    members = recorded_members(monkeypatch, calculus)
    transported = []
    transport = calculus.gauge_transport

    def counting(cl, tw, obj):
        transported.append(obj)
        return transport(cl, tw, obj)

    monkeypatch.setattr(calculus, "gauge_transport", counting)
    rep = gauge_suite(cl, tw, shadow=True)
    assert rep.passed, rep.to_text()
    counts = calls_per_member(members, transported)
    assert len(counts) == 9 and set(counts) == {1}


# ---------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------


def test_frame_not_in_span():
    lie = translations(RATIONAL)
    alg = PolyAlgebra(RATIONAL, ("x", "y"))
    action = Action(lie, alg, {0: (alg.one(), alg.zero()),
                               1: (alg.zero(), alg.one())})
    x = alg.coord(0)
    # e1 = x^2 d_x + d_y has invertible pairing but [d_x, e1] = 2x d_x
    # cannot be written over the frame with constant-series weights
    images = [(alg.one(), alg.zero()), (x * x, alg.one())]
    with pytest.raises(NotInFrameSpan):
        Calculus(ModuleAlgebra(action), frame_images=images)


def test_frame_braiding_unsupported_under_twist():
    cal = moyal_cal()
    x = cal.alg.coord(0)
    images = [(cal.alg.one(), cal.alg.zero()), (x, cal.alg.one())]
    with pytest.raises(UnsupportedFrameBraiding):
        Calculus(cal.M, frame_images=images)


@pytest.mark.parametrize("rows", [1, 3])
def test_frame_needs_one_field_per_coordinate(rows):
    """A frame matrix that is not square has no inverse: refused with a
    typed error, not an IndexError from the determinant."""
    lie = translations(RATIONAL)
    alg = PolyAlgebra(RATIONAL, ("x", "y"))
    action = Action(lie, alg, {0: (alg.one(), alg.zero()),
                               1: (alg.zero(), alg.one())})
    images = [(alg.one(), alg.zero()), (alg.zero(), alg.one()),
              (alg.one(), alg.one())][:rows]
    with pytest.raises(RankMismatch):
        Calculus(ModuleAlgebra(action), frame_images=images)


def test_frame_pairing_singular():
    lie = translations(RATIONAL)
    alg = PolyAlgebra(RATIONAL, ("x", "y"))
    action = Action(lie, alg, {0: (alg.one(), alg.zero()),
                               1: (alg.zero(), alg.one())})
    x = alg.coord(0)
    images = [(alg.one(), alg.zero()), (alg.zero(), x)]
    with pytest.raises(FramePairingSingular):
        Calculus(ModuleAlgebra(action), frame_images=images)


def test_d_of_a_coframe_word_with_nonzero_inner_differential():
    """Frame (d_x, d_y + x d_z, d_z) of untwisted translations: its
    coframe (dx, dy, dz - x dy) has d theta^2 = -theta^0 theta^1, so d
    of a word whose tail has a nonzero differential takes both terms of
    the graded Leibniz rule."""
    lie = LieAlgebra(RATIONAL, ("P1", "P2", "P3"), {})
    alg = PolyAlgebra(RATIONAL, ("x", "y", "z"))
    one, zero, x = alg.one(), alg.zero(), alg.coord(0)
    action = Action(lie, alg, {0: (one, zero, zero), 1: (zero, one, zero),
                               2: (zero, zero, one)})
    images = [(one, zero, zero), (zero, one, x), (zero, zero, one)]
    cal = Calculus(ModuleAlgebra(action), frame_images=images)
    t0, t1, t2 = (cal.coframe(a) for a in range(3))
    assert cal.d(t2) == -cal.wedge(t0, t1)
    assert cal.d(cal.wedge(t0, t2)).is_zero()
    rep = cartan_suite(cal, coeff_degree=1)
    assert rep.passed, rep.to_text()
