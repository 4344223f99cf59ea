"""Acceptance gate: the eight desk-scale verification targets, one test
per target. Every comparison is exact; series equality means all
coefficients through the truncation order agree."""

import json
from fractions import Fraction
from pathlib import Path

from braidcalc.calculus import Calculus, cartan_suite, gauge_suite
from braidcalc.cli import main
from braidcalc.geometry import (
    Metric,
    check_metric,
    geometry_suite,
    geometry_twist_suite,
    levi_civita,
    perturbation_suite,
)
from braidcalc.hopf import HopfStructure, LieAlgebra, TensorElement
from braidcalc.hopf import check_hopf, check_triangular
from braidcalc.modalg import (
    Action,
    ModuleAlgebra,
    check_braided_commutative,
    check_module_algebra,
    star_product_suite,
)
from braidcalc.ring import RATIONAL, PolyAlgebra, Ring
from braidcalc.submanifold import (
    Projection,
    check_sequence,
    projection_geometry_suite,
    projection_suite,
    twist_projection_suite,
)
from braidcalc.twist import (
    check_cocycle,
    check_twisted_hopf,
    exp_twist,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def require(report, names=()):
    assert report.passed, report.to_text()
    have = set(c.name for c in report.checks)
    missing = set(names) - have
    assert not missing, (missing, have)


def plane_action(ring, coords=("x", "y")):
    lie = LieAlgebra(ring, ("P1", "P2"), {})
    alg = PolyAlgebra(ring, coords)
    images = {
        0: tuple(alg.one() if n == "x" else alg.zero() for n in coords),
        1: tuple(alg.one() if n == "y" else alg.zero() for n in coords),
    }
    return Action(lie, alg, images)


def moyal_algebra(order):
    ring = Ring("series", order)
    action = plane_action(ring)
    biv = TensorElement(action.lie, 2, {((1, 0), (0, 1)): ring.h()})
    return ModuleAlgebra(action, twist=exp_twist(action.lie, biv))


def curved_pair(ring):
    """Q[x, y] localized at 1 + x^2, symmetry generated by d_y."""
    unit = {(0, 0): ring.scalar(1), (2, 0): ring.scalar(1)}
    alg = PolyAlgebra(ring, ("x", "y"), unit=unit)
    lie = LieAlgebra(ring, ("P",), {})
    action = Action(lie, alg, {0: (alg.zero(), alg.one())})
    return lie, action


def curved_metric(cal):
    one, z = cal.alg.one(), cal.alg.zero()
    return Metric(cal, [[one, z], [z, cal.alg.unit_element()]])


def test_hopf_and_triangular_suites_pass_at_depth_three():
    abelian = LieAlgebra(RATIONAL, ("P1", "P2"), {})
    heisenberg = LieAlgebra(RATIONAL, ("X1", "X2", "X3"), {(0, 1): {2: 1}})
    for lie in (abelian, heisenberg):
        require(check_hopf(lie, 3),
                ("coassociativity", "counit", "antipode"))
        require(check_triangular(HopfStructure(lie), 3),
                ("quasi-cocommutativity", "hexagon-left", "hexagon-right",
                 "unitarity", "qybe"))


def test_translation_twist_laws_at_order_four():
    ring = Ring("series", 4)
    lie = LieAlgebra(ring, ("P1", "P2"), {})
    biv = TensorElement(lie, 2, {((1, 0), (0, 1)): ring.h()})
    tw = exp_twist(lie, biv)
    require(check_cocycle(tw), ("cocycle", "normalization", "inverse-cocycle"))
    require(check_twisted_hopf(tw, 3),
            ("coassociativity", "counit", "antipode",
             "quasi-cocommutativity", "hexagon-left", "hexagon-right",
             "unitarity", "qybe"))


def test_star_product_commutator_and_laws_every_order():
    for order in (2, 3, 4):
        M = moyal_algebra(order)
        alg = M.algebra
        x, y = alg.coord(0), alg.coord(1)
        hbar = alg.one().scale(alg.ring.h())
        assert M.mul(x, y) - M.mul(y, x) == hbar.scale(alg.ring.scalar(-1))
        require(check_module_algebra(M, 3, 2), ("leibniz", "unit-law"))
        require(star_product_suite(M, 3), ("associativity",))
        require(check_braided_commutative(M, 3), ("braided-commutativity",))


def test_cartan_identities_classical_and_deformed():
    six = ("d-squared", "insert-d", "lie-d",
           "insert-insert", "lie-insert", "lie-lie")
    split_laws = ("lie-function", "lie-wedge-split")
    classical = Calculus(ModuleAlgebra(plane_action(RATIONAL)))
    require(cartan_suite(classical, coeff_degree=2), six + split_laws)
    deformed = Calculus(moyal_algebra(3))
    require(cartan_suite(deformed, coeff_degree=2), six + split_laws)


def test_gauge_equivalence_family_and_classical_shadow():
    ring = Ring("series", 3)
    cl = Calculus(ModuleAlgebra(plane_action(ring)))
    tw = Calculus(moyal_algebra(3))
    rep = gauge_suite(cl, tw, shadow=True)
    require(rep, ("wedge", "schouten", "lie", "insert",
                  "differential", "classical-shadow"))


def test_levi_civita_perturbations_and_twist_naturality():
    lie, action = curved_pair(RATIONAL)
    cal = Calculus(ModuleAlgebra(action))
    metric = curved_metric(cal)
    require(check_metric(metric))
    conn = levi_civita(metric)
    require(geometry_suite(conn, metric, coeff_degree=2),
            ("metricity", "torsion-free"))
    rep = perturbation_suite(conn, metric, seed=11, trials=20)
    require(rep)
    caught = [c for c in rep.checks if c.name.startswith("perturbation-")]
    assert len(caught) == 20

    ring = Ring("series", 3)
    tlie, taction = curved_pair(ring)
    biv = TensorElement(tlie, 2, {((1,), (1,)): ring.h()})
    tcal = Calculus(ModuleAlgebra(taction))
    twc = Calculus(ModuleAlgebra(taction, twist=exp_twist(tlie, biv)))
    tmetric = curved_metric(tcal)
    require(geometry_twist_suite(levi_civita(tmetric), tmetric, tcal, twc,
                                 shadow=True),
            ("lc-naturality", "twisted-metricity", "twisted-torsion-free",
             "classical-shadow"))


def ambient_threespace(ring=RATIONAL, unit=None):
    alg = PolyAlgebra(ring, ("x", "y", "z"), unit=unit)
    lie = LieAlgebra(ring, ("P1", "P2"), {})
    images = {
        0: (alg.one(), alg.zero(), alg.zero()),
        1: (alg.zero(), alg.one(), alg.zero()),
    }
    return Calculus(ModuleAlgebra(Action(lie, alg, images)))


def test_submanifold_projection_and_quotient_geometry():
    cal = ambient_threespace()
    proj = Projection(cal, (2,))
    zcoord = cal.alg.coord(2)
    fields = [cal.frame_field(0), cal.frame_field(1), cal.frame_field(2),
              cal.mv(1, {(2,): zcoord})]
    assert [proj.is_tangent(X) for X in fields] == [
        True, True, False, True]

    require(projection_suite(proj, coeff_degree=2),
            ("product", "field-application", "differential",
             "insertion", "lie-derivative", "bracket"))
    require(check_sequence(proj), ("lift-section", "kernel-witness"))

    unit = {(0, 0, 0): RATIONAL.scalar(1), (2, 0, 0): RATIONAL.scalar(1)}
    ualg = PolyAlgebra(RATIONAL, ("x", "y", "z"), unit=unit)
    ulie = LieAlgebra(RATIONAL, ("P",), {})
    ucal = Calculus(ModuleAlgebra(
        Action(ulie, ualg, {0: (ualg.zero(), ualg.one(), ualg.zero())})))
    one, zero = ualg.one(), ualg.zero()
    metric = Metric(ucal, [
        [one, zero, zero],
        [zero, ualg.unit_element(), zero],
        [zero, zero, one],
    ])
    uproj = Projection(ucal, (2,))
    require(projection_geometry_suite(uproj, metric),
            ("block-split", "quotient-solve", "metric-restriction"))
    assert uproj.connection(levi_civita(metric)) == levi_civita(
        uproj.metric(metric))

    ring = Ring("series", 3)
    tcal = ambient_threespace(ring)
    biv = TensorElement(tcal.lie, 2, {((1, 0), (0, 1)): ring.h()})
    twisted = Calculus(ModuleAlgebra(tcal.M.action,
                                     twist=exp_twist(tcal.lie, biv)))
    rep = twist_projection_suite(Projection(twisted, (2,)), coeff_degree=2)
    require(rep, ("star-naturality", "classical-shadow", "product",
                  "field-application"))


def failing_names(path, capsys):
    code = main(["all", str(path), "--format", "structured"])
    payload = json.loads(capsys.readouterr().out)
    names = set()
    for report in payload["reports"]:
        for check in report["checks"]:
            if not check["passed"]:
                names.add(check["name"])
    return code, names


def test_falsification_fixtures_fail_exactly_the_intended_check(capsys):
    root = SCENARIOS / "falsification"
    expected = {
        "wrong-antipode.json": {"antipode"},
        "broken-cocycle.json": {"cocycle", "inverse-cocycle",
                                "hexagon-left", "hexagon-right"},
        "wrong-transport.json": {"wedge", "schouten", "lie", "insert"},
        "asymmetric-connection.json": {"declared-torsion-free",
                                       "declared-metricity",
                                       "declared-matches-solve"},
        "non-tangent-twist.json": {"construction"},
    }
    for fixture, intended in expected.items():
        code, names = failing_names(root / fixture, capsys)
        assert code == 1, (fixture, code)
        assert names == intended, (fixture, names)
