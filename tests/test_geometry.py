"""Connections and metrics: frozen Christoffel data for a curved
localized metric and a skew frame, the Levi-Civita laws, seeded
falsification, and twist naturality."""

import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from braidcalc import geometry
from braidcalc.calculus import Calculus
from braidcalc.cli import Scenario
from braidcalc.errors import (
    FramePairingSingular,
    GradeMismatch,
    MetricCheckFailed,
    RankMismatch,
)
from braidcalc.geometry import (
    Connection,
    Metric,
    check_connection,
    check_metric,
    field_family,
    geometry_suite,
    geometry_twist_suite,
    levi_civita,
    perturbation_suite,
    twist_connection,
    twist_metric,
)
from braidcalc.hopf import LieAlgebra, TensorElement
from braidcalc.modalg import Action, ModuleAlgebra
from braidcalc.ring import RATIONAL, AlgebraElement, PolyAlgebra, Ring
from braidcalc.twist import exp_twist

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def curved_cal(ring=RATIONAL):
    """Q[x, y] localized at 1 + x^2, symmetry generated by d_y alone."""
    unit = {(0, 0): ring.scalar(1), (2, 0): ring.scalar(1)}
    alg = PolyAlgebra(ring, ("x", "y"), unit=unit)
    lie = LieAlgebra(ring, ("P",), {})
    action = Action(lie, alg, {0: (alg.zero(), alg.one())})
    return Calculus(ModuleAlgebra(action))


def curved_metric(cal):
    one = cal.alg.one()
    kappa = cal.alg.unit_element()
    z = cal.alg.zero()
    return Metric(cal, [[one, z], [z, kappa]])


def curved_twist_pair(order=3):
    ring = Ring("series", order)
    unit = {(0, 0): ring.scalar(1), (2, 0): ring.scalar(1)}
    alg = PolyAlgebra(ring, ("x", "y"), unit=unit)
    lie = LieAlgebra(ring, ("P",), {})
    action = Action(lie, alg, {0: (alg.zero(), alg.one())})
    biv = TensorElement(lie, 2, {((1,), (1,)): ring.h()})
    twisted = ModuleAlgebra(action, twist=exp_twist(lie, biv))
    return Calculus(ModuleAlgebra(action)), Calculus(twisted)


def moyal_cal(order=3):
    ring = Ring("series", order)
    lie = LieAlgebra(ring, ("P1", "P2"), {})
    alg = PolyAlgebra(ring, ("x", "y"))
    action = Action(lie, alg, {0: (alg.one(), alg.zero()),
                               1: (alg.zero(), alg.one())})
    biv = TensorElement(lie, 2, {((1, 0), (0, 1)): ring.h()})
    return Calculus(ModuleAlgebra(action, twist=exp_twist(lie, biv)))


def skew_cal():
    lie = LieAlgebra(RATIONAL, ("P1", "P2"), {})
    alg = PolyAlgebra(RATIONAL, ("x", "y"))
    action = Action(lie, alg, {0: (alg.one(), alg.zero()),
                               1: (alg.zero(), alg.one())})
    x = alg.coord(0)
    images = [(alg.one(), alg.zero()), (x, alg.one())]
    return Calculus(ModuleAlgebra(action), frame_images=images)


def identity_metric(cal):
    one, z = cal.alg.one(), cal.alg.zero()
    return Metric(cal, [[one, z], [z, one]])


# ---------------------------------------------------------------------
# frozen Levi-Civita data
# ---------------------------------------------------------------------


def test_levi_civita_frozen_curved():
    cal = curved_cal()
    conn = levi_civita(curved_metric(cal))
    alg = cal.alg
    x = alg.coord(0)
    over_kappa = AlgebraElement(alg, {(1, 0): RATIONAL.scalar(1)}, 1)
    z = alg.zero()
    assert conn.gamma[1][1] == [-x, z]
    assert conn.gamma[0][1] == [z, over_kappa]
    assert conn.gamma[1][0] == [z, over_kappa]
    assert conn.gamma[0][0] == [z, z]


def test_levi_civita_matches_sympy_christoffel_symbols():
    """Independent oracle: the classical Christoffel symbols of
    diag(1, 1 + x^2), computed by sympy from the textbook formula, equal
    the Levi-Civita solve on the rational shadow of curved-metric.json,
    read without its twist, whose coefficients carry h."""
    import sympy
    data = json.loads((SCENARIOS / "curved-metric.json").read_text())
    del data["twist"]
    sc = Scenario(data, ring_override=RATIONAL)
    conn = levi_civita(sc.metric(sc.calculus(twisted=False)))

    x, y = sympy.symbols("x y")
    coords = (x, y)
    g = sympy.diag(1, 1 + x**2)
    ginv = g.inv()

    def christoffel(a, b, c):
        """Gamma^c_{ab} = 1/2 g^{cd} (d_a g_db + d_b g_da - d_d g_ab)."""
        return sum(
            ginv[c, d] * (sympy.diff(g[d, b], coords[a])
                          + sympy.diff(g[d, a], coords[b])
                          - sympy.diff(g[a, b], coords[d]))
            for d in range(2)
        ) / 2

    def as_sympy(elem):
        num = sum(sympy.Rational(s.c[0]) * x**e[0] * y**e[1]
                  for e, s in elem.terms.items())
        return num / (1 + x**2) ** elem.du

    nonzero = 0
    for a, b, c in product(range(2), repeat=3):
        want = christoffel(a, b, c)
        assert sympy.simplify(as_sympy(conn.gamma[a][b][c]) - want) == 0, (a, b, c)
        nonzero += want != 0
    assert nonzero == 3


def test_levi_civita_frozen_skew_frame():
    cal = skew_cal()
    conn = levi_civita(identity_metric(cal))
    one, z = cal.alg.one(), cal.alg.zero()
    assert conn.gamma[0][1] == [one, z]
    assert conn.gamma[0][0] == [z, -one]
    assert conn.gamma[1][0] == [z, z]
    assert conn.gamma[1][1] == [z, z]


def test_covariant_derivative_extension():
    cal = curved_cal()
    conn = levi_civita(curved_metric(cal))
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    X = cal.mv(1, {(0,): y})
    s = cal.mv(1, {(1,): x})
    # nabla_{y e0}(x e1) = y (e0(x) e1 + x Gamma_{01}) by the two rules
    got = conn.nabla(X, s)
    over_kappa = AlgebraElement(cal.alg, {(1, 0): RATIONAL.scalar(1)}, 1)
    want = cal.mv(1, {(1,): y + y * x * over_kappa})
    assert got == want
    assert conn.torsion(cal.frame_field(0), cal.frame_field(1)).is_zero()


# ---------------------------------------------------------------------
# law suites
# ---------------------------------------------------------------------


def test_connection_checks_curved():
    cal = curved_cal()
    rep = check_connection(levi_civita(curved_metric(cal)))
    assert rep.passed, rep.to_text()


def test_connection_checks_skew():
    """The skew frame is not translation-invariant, so its Levi-Civita
    connection obeys the extension rules but not equivariance."""
    rep = check_connection(levi_civita(identity_metric(skew_cal())))
    assert [c.name for c in rep.failing()] == ["equivariance"], rep.to_text()


def test_metric_checks_curved():
    cal = curved_cal()
    rep = check_metric(curved_metric(cal))
    assert rep.passed, rep.to_text()


def test_metric_checks_moyal_constant():
    cal = moyal_cal()
    rep = check_metric(identity_metric(cal))
    assert rep.passed, rep.to_text()


def test_metric_inverse_takes_neumann_correction():
    """det E = 1 for the plain product, but the adjugate inverts E only
    modulo h under the star product; the Neumann series corrects it."""
    cal = moyal_cal(3)
    alg, mul = cal.alg, cal.M.mul
    one, zero = alg.one(), alg.zero()
    s = alg.coord(0) + alg.coord(1)
    E = [[one, s], [s, one + s * s]]
    adjugate = [[one + s * s, -s], [-s, one]]
    G = Metric(cal, E).inverse

    def mmul(A, B):
        return [[mul(A[i][0], B[0][j]) + mul(A[i][1], B[1][j])
                 for j in range(2)] for i in range(2)]

    ident = [[one, zero], [zero, one]]
    assert mmul(adjugate, E) != ident
    assert G != adjugate
    assert mmul(G, E) == ident and mmul(E, G) == ident


def test_geometry_suite_curved():
    cal = curved_cal()
    metric = curved_metric(cal)
    rep = geometry_suite(levi_civita(metric), metric)
    assert rep.passed, rep.to_text()


def test_geometry_suite_moyal_constant():
    cal = moyal_cal()
    metric = identity_metric(cal)
    rep = geometry_suite(levi_civita(metric), metric)
    assert rep.passed, rep.to_text()


def test_geometry_suite_skew():
    # the non-invariant frame costs only the metric equivariance law
    metric = identity_metric(skew_cal())
    rep = geometry_suite(levi_civita(metric), metric)
    assert [c.name for c in rep.failing()] == ["equivariance"], rep.to_text()


# ---------------------------------------------------------------------
# falsification
# ---------------------------------------------------------------------


def test_perturbation_suite_catches_every_shift():
    cal = curved_cal()
    metric = curved_metric(cal)
    rep = perturbation_suite(levi_civita(metric), metric, seed=11, trials=20)
    assert rep.passed, rep.to_text()
    assert len(rep.checks) == 20
    # each trial is timed, as search rows are
    assert all(c.seconds > 0 for c in rep.checks), [c.seconds for c in rep.checks]


def test_uncaught_perturbation_names_its_shift(monkeypatch):
    """With both searches patched to find nothing, every trial fails,
    and its counterexample is the shift its law names, in the seeded
    order."""
    cal = curved_cal()
    metric = curved_metric(cal)
    conn = levi_civita(metric)
    monkeypatch.setattr(geometry, "_torsion_violations", lambda *a: iter(()))
    monkeypatch.setattr(geometry, "_metricity_violations", lambda *a: iter(()))
    rep = perturbation_suite(conn, metric, seed=11, trials=20)
    assert rep.failing() == rep.checks
    assert [c.counterexample for c in rep.checks] == [
        {"delta": d} for d in (
            "-9/4", "-8/5", "3", "1", "-4/9", "1/4", "3/2", "7/2", "-1/4",
            "-1", "-2/5", "-2", "-9/4", "-7/2", "-5", "-3/4", "-7/2", "1",
            "7/3", "4/3")]
    for c in rep.checks:
        assert c.law.endswith(" by %s breaks a law" % c.counterexample["delta"])


def test_perturbation_suite_skew():
    metric = identity_metric(skew_cal())
    rep = perturbation_suite(levi_civita(metric), metric, seed=3, trials=10)
    assert rep.passed, rep.to_text()


def test_asymmetric_gamma_detected_directly():
    cal = curved_cal()
    conn = levi_civita(curved_metric(cal)).perturbed(0, 1, 0, Fraction(1))
    from braidcalc.geometry import _torsion_violations, field_family

    assert any(_torsion_violations(conn, field_family(cal, 1)))


# ---------------------------------------------------------------------
# twist naturality
# ---------------------------------------------------------------------


def test_geometry_twist_suite_curved():
    cl, tw = curved_twist_pair()
    metric = curved_metric(cl)
    rep = geometry_twist_suite(levi_civita(metric), metric, cl, tw, shadow=True)
    assert rep.passed, rep.to_text()


def test_memoized_nabla_and_metric_match_plain_computation():
    """`Connection.nabla` and `Metric.__call__`, memoized per connection
    and metric, agree with their plain bodies on curved-metric's solved
    and twisted connections over the degree-1 field family.  Every memo
    entry is checked, the solve's own frame entries too; a repeated call
    returns the identical object."""
    sc = Scenario(json.loads((SCENARIOS / "curved-metric.json").read_text()))
    cl, tw = sc.calculus(twisted=False), sc.calculus(twisted=True)
    metric = sc.metric(cl)
    gF = twist_metric(metric, cl, tw)
    for conn, g in ((levi_civita(metric), metric), (levi_civita(gF), gF)):
        fields = field_family(conn.cal, 1)
        derived = {(X, s): conn.nabla(X, s) for X in fields for s in fields}
        values = {(X, Y): g(X, Y) for X in fields for Y in fields}
        assert sum(not v.is_zero() for v in derived.values()) > len(fields)
        assert sum(not v.is_zero() for v in values.values()) > len(fields)
        for (X, s), got in derived.items():
            assert conn.nabla(X, s) is got
        for (X, Y), got in values.items():
            assert g(X, Y) is got
        nablas = conn.__dict__["_memo_nabla"]
        metrics = g.__dict__["_memo___call__"]
        assert len(nablas) >= len(derived) and len(metrics) >= len(values)
        for args, got in nablas.items():
            assert got == Connection.nabla.__wrapped__(conn, *args), args
        for args, got in metrics.items():
            assert got == Metric.__call__.__wrapped__(g, *args), args


def test_nabla_and_metric_check_the_grade_of_a_zero_field():
    """Zeros of every grade and kind are one memo key, so the checks of
    `Connection.nabla` and `Metric.__call__` run before the memo: on
    curved-metric's solved connection a zero bivector or form is refused
    also after a zero field was seen."""
    sc = Scenario(json.loads((SCENARIOS / "curved-metric.json").read_text()))
    cal = sc.calculus(twisted=False)
    metric = sc.metric(cal)
    conn = levi_civita(metric)
    e0 = cal.frame_field(0)
    for op in (conn.nabla, metric):
        assert op(cal.zero_mv(1), e0).is_zero()
        for bad in (cal.zero_mv(2), cal.zero_form(1)):
            with pytest.raises(GradeMismatch):
                op(bad, e0)


def test_twist_metric_and_connection_tables():
    cl, tw = curved_twist_pair()
    metric = curved_metric(cl)
    gF = twist_metric(metric, cl, tw)
    assert gF.matrix == metric.matrix
    conn = levi_civita(metric)
    connF = twist_connection(conn, cl, tw)
    assert connF.gamma == conn.gamma
    assert connF.cal is tw


# ---------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------


def test_asymmetric_metric_rejected():
    cal = curved_cal()
    one, z = cal.alg.one(), cal.alg.zero()
    x = cal.alg.coord(0)
    with pytest.raises(MetricCheckFailed):
        levi_civita(Metric(cal, [[one, x], [z, one]]))


def test_singular_metric_rejected():
    cal = curved_cal()
    one, z = cal.alg.one(), cal.alg.zero()
    x = cal.alg.coord(0)
    with pytest.raises(FramePairingSingular):
        Metric(cal, [[one, z], [z, x]])


def test_bad_gamma_shape_rejected():
    cal = curved_cal()
    with pytest.raises(RankMismatch):
        Connection(cal, [[[cal.alg.zero()]]])
