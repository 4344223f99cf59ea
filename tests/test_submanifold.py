"""Quotients by coordinate ideals: reduction, tangency, the
projected calculus and geometry, and twisted projections."""

import json
from collections import Counter
from pathlib import Path

import pytest

from braidcalc import submanifold
from braidcalc.calculus import Calculus, GradedObject, graded_family
from braidcalc.cli import Scenario
from braidcalc.errors import (
    AxiomOneUnwitnessed,
    NoBlockSplit,
    NotTangent,
)
from braidcalc.geometry import Metric, field_family, levi_civita
from braidcalc.hopf import LieAlgebra, TensorElement
from braidcalc.modalg import Action, ModuleAlgebra, coordinate_monomials
from braidcalc.report import Report, violations
from braidcalc.ring import RATIONAL, AlgebraElement, PolyAlgebra, Ring
from braidcalc.submanifold import (
    Projection,
    check_sequence,
    projection_geometry_suite,
    projection_suite,
    twist_projection_suite,
)
from braidcalc.twist import exp_twist


def ambient_cal(ring=RATIONAL):
    """Q[x, y, z] with translations in x and y; C = (z) is preserved."""
    alg = PolyAlgebra(ring, ("x", "y", "z"))
    lie = LieAlgebra(ring, ("P1", "P2"), {})
    action = Action(lie, alg, {
        0: (alg.one(), alg.zero(), alg.zero()),
        1: (alg.zero(), alg.one(), alg.zero()),
    })
    return Calculus(ModuleAlgebra(action))


def curved_ambient_cal(ring=RATIONAL):
    """Q[x, y, z] localized at 1 + x^2, symmetry d_y alone."""
    unit = {(0, 0, 0): ring.scalar(1), (2, 0, 0): ring.scalar(1)}
    alg = PolyAlgebra(ring, ("x", "y", "z"), unit=unit)
    lie = LieAlgebra(ring, ("P",), {})
    action = Action(lie, alg, {0: (alg.zero(), alg.one(), alg.zero())})
    return Calculus(ModuleAlgebra(action))


def curved_ambient_metric(cal):
    one = cal.alg.one()
    kappa = cal.alg.unit_element()
    z = cal.alg.zero()
    return Metric(cal, [[one, z, z], [z, kappa, z], [z, z, one]])


def moyal_ambient_cal(order=3):
    """Twist exp(h P1 (x) P2); both legs are tangent to C = (z)."""
    ring = Ring("series", order)
    alg = PolyAlgebra(ring, ("x", "y", "z"))
    lie = LieAlgebra(ring, ("P1", "P2"), {})
    action = Action(lie, alg, {
        0: (alg.one(), alg.zero(), alg.zero()),
        1: (alg.zero(), alg.one(), alg.zero()),
    })
    biv = TensorElement(lie, 2, {((1, 0), (0, 1)): ring.h()})
    return Calculus(ModuleAlgebra(action, twist=exp_twist(lie, biv)))


def normal_leg_cal(order=3):
    """One twist leg acts across the ideal: exp(h P1 (x) P3)."""
    ring = Ring("series", order)
    alg = PolyAlgebra(ring, ("x", "y", "z"))
    lie = LieAlgebra(ring, ("P1", "P3"), {})
    action = Action(lie, alg, {
        0: (alg.one(), alg.zero(), alg.zero()),
        1: (alg.zero(), alg.zero(), alg.one()),
    })
    biv = TensorElement(lie, 2, {((1, 0), (0, 1)): ring.h()})
    return Calculus(ModuleAlgebra(action, twist=exp_twist(lie, biv)))


# ---------------------------------------------------------------------
# ideal reduction
# ---------------------------------------------------------------------


def test_reduce_and_contains():
    cal = ambient_cal()
    alg = cal.alg
    proj = Projection(cal, (2,))
    x, y, z = alg.coord(0), alg.coord(1), alg.coord(2)
    assert proj.reduce(x + z * y) == x
    assert proj.contains(z * x * x)
    assert not proj.contains(x)
    assert proj.generators == [z]


def test_quotient_algebra_and_round_trip():
    cal = curved_ambient_cal()
    proj = Projection(cal, (2,))
    qalg = proj.qalg
    assert qalg.names == ("x", "y")
    assert qalg.unit == {(0, 0): RATIONAL.scalar(1),
                        (2, 0): RATIONAL.scalar(1)}
    alg = cal.alg
    a = alg.coord(0) * alg.coord(1) + alg.coord(0)
    assert proj.lift_function(proj.function(a)) == a
    assert proj.function(alg.coord(2)).is_zero()


def test_localized_unit_must_be_tangent():
    unit = {(0, 0, 0): RATIONAL.scalar(1), (0, 0, 2): RATIONAL.scalar(1)}
    alg = PolyAlgebra(RATIONAL, ("x", "y", "z"), unit=unit)
    lie = LieAlgebra(RATIONAL, ("P1", "P2"), {})
    action = Action(lie, alg, {
        0: (alg.one(), alg.zero(), alg.zero()),
        1: (alg.zero(), alg.one(), alg.zero()),
    })
    with pytest.raises(NotTangent):
        Projection(Calculus(ModuleAlgebra(action)), (2,))


# ---------------------------------------------------------------------
# tangency and invariance
# ---------------------------------------------------------------------


def test_tangency_table():
    cal = ambient_cal()
    proj = Projection(cal, (2,))
    z = cal.alg.coord(2)
    assert proj.is_tangent(cal.frame_field(0))
    assert proj.is_tangent(cal.frame_field(1))
    assert not proj.is_tangent(cal.frame_field(2))
    assert proj.is_tangent(cal.mv(1, {(2,): z}))


def test_invariance_counterexample():
    ring = RATIONAL
    alg = PolyAlgebra(ring, ("x", "y", "z"))
    lie = LieAlgebra(ring, ("P1", "P3"), {})
    action = Action(lie, alg, {
        0: (alg.one(), alg.zero(), alg.zero()),
        1: (alg.zero(), alg.zero(), alg.one()),
    })
    cal = Calculus(ModuleAlgebra(action))
    with pytest.raises(NotTangent) as refused:
        Projection(cal, (2,), depth=2)
    bad = refused.value.args[0]
    assert set(bad) == {"monomial", "generator", "image"}
    assert bad["monomial"] == (0, 1)


# ---------------------------------------------------------------------
# projection of graded objects
# ---------------------------------------------------------------------


def test_projection_construction():
    cal = ambient_cal()
    proj = Projection(cal, (2,))
    assert proj.tangent_idx == [0, 1]
    assert proj.normal_idx == [2]
    assert proj.q.dim == 2
    assert proj.q.alg.names == ("x", "y")


def test_project_fields_and_forms():
    cal = ambient_cal()
    proj = Projection(cal, (2,))
    alg, q = cal.alg, proj.q
    x, z = alg.coord(0), alg.coord(2)

    X = cal.mv(1, {(0,): x, (2,): z})
    assert proj.multivector(X) == q.mv(1, {(0,): q.alg.coord(0)})
    with pytest.raises(NotTangent):
        proj.multivector(cal.frame_field(2))

    assert proj.form(cal.form(1, {(2,): x})).is_zero()
    assert proj.form(cal.form(1, {(0,): z})).is_zero()
    om = cal.form(2, {(0, 1): x * x})
    qx = q.alg.coord(0)
    assert proj.form(om) == q.form(2, {(0, 1): qx * qx})


def test_field_application_through_projection():
    cal = ambient_cal()
    proj = Projection(cal, (2,))
    alg = cal.alg
    x, y, z = alg.coord(0), alg.coord(1), alg.coord(2)
    X = cal.mv(1, {(0,): y})
    a = x * z
    assert proj.function(cal.apply_field(X, a)).is_zero()
    assert proj.q.apply_field(
        proj.multivector(X), proj.function(a)
    ).is_zero()


def test_projection_suite_classical():
    cal = ambient_cal()
    proj = Projection(cal, (2,))
    rep = projection_suite(proj, coeff_degree=2)
    assert rep.passed, [c.name for c in rep.failing()]


def test_check_sequence():
    cal = ambient_cal()
    proj = Projection(cal, (2,))
    rep = check_sequence(proj, coeff_degree=2)
    assert rep.passed, [c.name for c in rep.failing()]


def test_axiom_one_witness():
    cal = ambient_cal()
    proj = Projection(cal, (2,))
    alg = cal.alg
    z = alg.coord(2)
    X = cal.mv(1, {(0,): z, (2,): z * z})
    assert proj.axiom_one_witness(X) == [(z, 0), (z * z, 2)]
    with pytest.raises(AxiomOneUnwitnessed):
        proj.axiom_one_witness(cal.mv(1, {(0,): alg.coord(0)}))


# ---------------------------------------------------------------------
# projected geometry
# ---------------------------------------------------------------------


def test_projected_levi_civita_matches_surface():
    cal = curved_ambient_cal()
    proj = Projection(cal, (2,))
    qmetric = proj.metric(curved_ambient_metric(cal))
    conn = levi_civita(qmetric)
    qalg = proj.q.alg
    x = qalg.coord(0)
    over_kappa = AlgebraElement(qalg, {(1, 0): RATIONAL.scalar(1)}, 1)
    zero = qalg.zero()
    assert conn.gamma[1][1] == [-x, zero]
    assert conn.gamma[0][1] == [zero, over_kappa]
    assert conn.gamma[1][0] == [zero, over_kappa]
    assert conn.gamma[0][0] == [zero, zero]


def test_projection_geometry_suite():
    cal = curved_ambient_cal()
    proj = Projection(cal, (2,))
    rep = projection_geometry_suite(
        proj, curved_ambient_metric(cal), coeff_degree=1
    )
    assert rep.passed, [c.name for c in rep.failing()]


def recorded_members(monkeypatch):
    """The leading values of every case the submanifold suites search,
    the values a counterexample names, recorded as the cases pass."""
    seen = []

    def recording(names, cases, holds):
        def passing():
            for case in cases:
                seen.extend(case[:len(names)])
                yield case
        return violations(names, passing(), holds)

    monkeypatch.setattr(submanifold, "violations", recording)
    return seen


def counting_calls(monkeypatch, name):
    """The objects passed to Projection.<name>, recorded per call."""
    args = []
    method = getattr(Projection, name)

    def counting(self, obj):
        args.append(obj)
        return method(self, obj)

    monkeypatch.setattr(Projection, name, counting)
    return args


def calls_per_member(members, args):
    """How often each distinct member object is among args, by identity."""
    distinct = {id(m): m for m in members}.values()
    return [sum(a is m for a in args) for m in distinct]


def test_projection_suites_push_and_lift_each_member_once(monkeypatch):
    """Every ambient field and form of projection_suite is pushed once,
    and every quotient field of projection_geometry_suite lifted once;
    each row reads the image from there, outer member included."""
    cal = curved_ambient_cal()
    proj = Projection(cal, (2,))
    members = recorded_members(monkeypatch)
    fields = counting_calls(monkeypatch, "multivector")
    forms = counting_calls(monkeypatch, "form")
    assert projection_suite(proj, coeff_degree=1).passed
    counts = calls_per_member(
        [m for m in members if isinstance(m, GradedObject) and m.cal is cal],
        fields + forms)
    assert len(counts) == 32 and set(counts) == {1}, counts

    members.clear()
    lifted = counting_calls(monkeypatch, "lift_multivector")
    rep = projection_geometry_suite(proj, curved_ambient_metric(cal), 1)
    assert rep.passed
    counts = calls_per_member(
        [m for m in members if isinstance(m, GradedObject)], lifted)
    assert len(counts) == 6 and set(counts) == {1}, counts


def test_projection_suite_inserts_each_pair_once(monkeypatch):
    """The insertion and lie-derivative rows share i_X w for every
    ambient (field, form) pair and i_{pr X} pr w for every pushed pair:
    each pair is inserted exactly once, by identity."""
    cal = curved_ambient_cal()
    proj = Projection(cal, (2,))
    members = recorded_members(monkeypatch)
    images = {}
    for name in ("multivector", "form"):
        def pushing(self, obj, method=getattr(Projection, name)):
            images[id(obj)] = image = method(self, obj)
            return image
        monkeypatch.setattr(Projection, name, pushing)
    calls = []
    insert = Calculus.insert

    def counting(self, X, om):
        calls.append((X, om))
        return insert(self, X, om)

    monkeypatch.setattr(Calculus, "insert", counting)
    assert projection_suite(proj, coeff_degree=1).passed
    inserted = Counter((id(X), id(om)) for X, om in calls)
    ambient = {id(m): m for m in members
               if isinstance(m, GradedObject) and m.cal is cal}.values()
    pairs = [(X, om) for X in ambient if X.kind == "mv"
             for om in ambient if om.kind == "form"]
    pairs += [(images[id(X)], images[id(om)]) for X, om in pairs]
    assert len(pairs) == 2 * 8 * 24
    assert [inserted[id(X), id(om)] for X, om in pairs] == [1] * len(pairs)


def test_insertion_tables_are_built_in_the_insertion_row(monkeypatch):
    """The shared i_X w tables are built once, inside the insertion
    row's timed search, so its text timing carries the build."""
    running, built = [], []
    check, tables = Report.check, submanifold._insertion_tables

    def checking(self, name, law, found):
        running.append(name)
        try:
            check(self, name, law, found)
        finally:
            running.pop()

    def building(*args):
        built.append(running[-1] if running else None)
        return tables(*args)

    monkeypatch.setattr(Report, "check", checking)
    monkeypatch.setattr(submanifold, "_insertion_tables", building)
    cal = curved_ambient_cal()
    assert projection_suite(Projection(cal, (2,)), coeff_degree=1).passed
    assert built == ["insertion"]


def test_quotient_d_slip_on_functions_fails_only_the_lie_derivative():
    """A quotient differential that flips the sign on grade-0 forms
    only fails the lie-derivative row, which reads d of the stored
    i_{pr X} pr w, while the insertion and differential rows, which
    share or precede those values, still pass.  The counterexample
    names the ambient field and form of the first pair, in family
    order, whose quotient insertion is a function with a nonzero
    differential."""
    cal = curved_ambient_cal()
    proj = Projection(cal, (2,))
    q = proj.q
    fields = field_family(cal, 1, frame=proj.tangent_idx)
    forms = graded_family(cal.form, cal.dim, (1, 2),
                          coordinate_monomials(cal.alg, 1))
    first = next(
        (X, om) for X in fields for om in forms
        if (iq := q.insert(proj.multivector(X), proj.form(om))).grade == 0
        and not q.d(iq).is_zero())

    d = q.d
    q.d = lambda om: -d(om) if om.grade == 0 else d(om)
    rep = projection_suite(proj, coeff_degree=1)
    failing = {c.name: c.counterexample for c in rep.failing()}
    assert failing == {
        "lie-derivative": {"field": repr(first[0]), "form": repr(first[1])},
    }


def test_mixed_metric_entry_refuses_to_split():
    cal = curved_ambient_cal()
    proj = Projection(cal, (2,))
    one = cal.alg.one()
    kappa = cal.alg.unit_element()
    z = cal.alg.zero()
    mixed = Metric(cal, [[one, z, one], [z, kappa, z], [one, z, one + one]])
    with pytest.raises(NoBlockSplit):
        proj.metric(mixed)


# ---------------------------------------------------------------------
# twisted projections
# ---------------------------------------------------------------------


def test_twist_projection_suite_passes():
    cal = moyal_ambient_cal(order=3)
    rep = twist_projection_suite(Projection(cal, (2,)), coeff_degree=1)
    assert rep.passed, [c.name for c in rep.failing()]


def test_twisted_quotient_star_frozen():
    cal = moyal_ambient_cal(order=3)
    proj = Projection(cal, (2,))
    q = proj.q
    ring = cal.ring
    qx, qy = q.alg.coord(0), q.alg.coord(1)
    assert q.M.mul(qx, qy) == qx * qy + q.alg.scalar(-ring.h())
    assert q.M.mul(qy, qx) == qx * qy
    x, y = cal.alg.coord(0), cal.alg.coord(1)
    assert proj.function(cal.M.mul(x, y)) == q.M.mul(qx, qy)


def test_normal_twist_leg_rejected():
    cal = normal_leg_cal(order=3)
    with pytest.raises(NotTangent):
        Projection(cal, (2,))


def test_sign_slip_in_quotient_names_ambient_values():
    """A quotient insertion and bracket that flip the sign on one input
    fail the insertion, lie-derivative and bracket rows, and each
    counterexample names the ambient field and form, not the pushed
    ones.  The ideal is (x), so the tangent frame letters 1, 2 are
    renumbered 0, 1 in the quotient and the two reprs differ."""
    alg = PolyAlgebra(RATIONAL, ("x", "y", "z"))
    lie = LieAlgebra(RATIONAL, ("P2", "P3"), {})
    action = Action(lie, alg, {
        0: (alg.zero(), alg.one(), alg.zero()),
        1: (alg.zero(), alg.zero(), alg.one()),
    })
    cal = Calculus(ModuleAlgebra(action))
    proj = Projection(cal, (0,))
    q = proj.q
    y = alg.coord(1)
    form = cal.form(1, {(1,): y})
    field = cal.frame_field(1)
    bad_form, bad_field = proj.form(form), proj.multivector(field)
    assert repr(bad_form) != repr(form) and repr(bad_field) != repr(field)

    fields = field_family(cal, 2, frame=proj.tangent_idx)
    pushed = [(X, proj.multivector(X)) for X in fields]
    first_insert = next(X for X, Xq in pushed
                        if not q.insert(Xq, bad_form).is_zero())
    first_lie = next(X for X, Xq in pushed
                     if not q.d(q.insert(Xq, bad_form)).is_zero())
    first_bracket = next(X for X, Xq in pushed
                         if not q.bracket(Xq, bad_field).is_zero())

    insert, bracket = q.insert, q.bracket
    q.insert = lambda X, om: -insert(X, om) if om == bad_form else insert(X, om)
    q.bracket = lambda X, Y: -bracket(X, Y) if Y == bad_field else bracket(X, Y)
    rep = projection_suite(proj, coeff_degree=2)
    failing = {c.name: c.counterexample for c in rep.failing()}
    assert failing == {
        "insertion": {"field": repr(first_insert), "form": repr(form)},
        "lie-derivative": {"field": repr(first_lie), "form": repr(form)},
        "bracket": {"X": repr(first_bracket), "Y": repr(field)},
    }


def _lie_memo_entries(cal):
    return sum(len(table) for name, table in vars(cal).items()
               if name.startswith("_memo_") and "lie_derivative" in name)


def test_projection_suite_keeps_no_ambient_lie_derivative_memo():
    """The ambient (field, form) pairs of the lie-derivative row never
    repeat, nor do the pushed pairs of nonzero members, so neither the
    ambient calculus nor the quotient keeps a Lie-derivative memo
    entry."""
    path = Path(__file__).resolve().parent.parent / "scenarios" / "surface.json"
    sc = Scenario(json.loads(path.read_text()))
    proj = Projection(sc.calculus(), sc.normal_coordinates, depth=3)
    rep = projection_suite(proj, 2)
    assert rep.passed, rep.to_text()
    assert _lie_memo_entries(proj.cal) == 0
    assert _lie_memo_entries(proj.q) == 0
