"""Mutation checks: a deliberately broken engine method must make the
named check rows fail, and only those, while the unbroken method
passes them all.  Each case patches one method of one class (or one
function of a module) with monkeypatch and runs one command line
in-process, on a bundled scenario or a test fixture.  A mutant that no
row can see is recorded apart, as equivalent code, and one that only a
library check sees is checked there."""

import inspect
import json
import textwrap
from pathlib import Path

import pytest

from braidcalc import calculus, cli
from braidcalc.calculus import Calculus
from braidcalc.geometry import (
    Connection,
    check_connection,
    levi_civita,
    twist_metric,
)
from braidcalc.submanifold import Projection
from braidcalc.twist import Twist

ROOT = Path(__file__).resolve().parent.parent


def _lift_reversed(self, abar):
    """lift_function with the tangent coordinates in reverse order."""
    arity, tangent = self.cal.alg.arity, self.tangent[::-1]

    def full(e):
        out = [0] * arity
        for pos, j in enumerate(tangent):
            out[j] = e[pos]
        return tuple(out)

    return abar._remap(self.cal.alg, full)


_push = Projection._push


def _push_dropping_e0(self, obj):
    """_push that also drops the words starting with frame letter 0."""
    kept = {w: c for w, c in obj.terms.items() if w[:1] != (0,)}
    return _push(self, type(obj)(obj.cal, obj.grade, kept))


def _function_reversed(self, a):
    """function renumbering the tangent coordinates in reverse order."""
    tangent = self.tangent[::-1]
    return self._drop_normal(
        a, self.qalg, lambda e: tuple(e[j] for j in tangent))


_twist_init = Twist.__init__


def _init_swapping_r(self, lie, F, Finv):
    """__init__ that then swaps R_F and its inverse.  R_F^-1 = (R_F)21
    is as good a triangular structure, so check-twist cannot see this;
    the braided commutativity of the star product can."""
    _twist_init(self, lie, F, Finv)
    self.R, self.Rinv = self.Rinv, self.R


def _antipode_conjugated_backwards(self, exp):
    """antipode_monomial as betainv S(x^exp) beta."""
    return self.beta_inv * self.lie.antipode_monomial(exp) * self.beta


def _coproduct_conjugated_backwards(self, exp):
    """coproduct_monomial as Finv cop(x^exp) F."""
    return self.Finv * self.lie.coproduct_monomial(exp) * self.F


def _respelled(fn, old, new):
    """fn compiled again from its own source, with the one occurrence of
    `old` replaced by `new`, in the globals of its module (decorators
    included, so a memoized method stays memoized)."""
    fn = inspect.unwrap(fn)
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, old
    namespace = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"),
         fn.__globals__, namespace)
    return namespace[fn.__name__]


# d(theta^w) with the sign of theta^{w0} ^ d theta^{w1...} flipped; only
# a frame with two nonzero coframe differentials and a surviving 3-form
# (the filiform fixture) sees it
_d_word_sign_flipped = _respelled(
    Calculus._d_word, "res = res - self.wedge", "res = res + self.wedge")

# the Koszul formula with the f_bc g_wa term added where it is
# subtracted; the solve's own torsion and metricity re-check refuses it
_koszul_fbc_sign_flipped = _respelled(
    cli.levi_civita, "val = val - M.mul(fbc, g[w][a])",
    "val = val + M.mul(fbc, g[w][a])")

# the wedge with its coefficients multiplied in reverse order; the
# moyal star product does not commute, so the gauge transport of the
# twisted wedge, T(U ^_F V) = T(U) ^ T(V), sees it
_wedge_factors_reversed = _respelled(
    Calculus.wedge, "self.M.mul(c1, c2)", "self.M.mul(c2, c1)")

# the coframe differentials with the sign of the frame bracket kept
# where it is negated
_structure_forms_sign_flipped = _respelled(
    Calculus._structure_forms, "out[a][(b, c)] = -f", "out[a][(b, c)] = f")


# d on a function with the sign of e_u(a) theta^u flipped
_d_coefficient_sign_flipped = _respelled(
    Calculus.d, "ea if m[0] > 0 else -ea", "-ea if m[0] > 0 else ea")

# the braided commutator of fields read through R where it takes Rinv
_bracket_reads_r = _respelled(
    Calculus.bracket, "Rinv = self.M.hopf.Rinv.pairs()",
    "Rinv = self.M.hopf.R.pairs()")

# the torsion read through R where it takes Rinv; R_F = 1 on every
# bundled scenario that solves a twisted connection, so only the
# twisted-metric fixture, twisted by exp(h P1 ^ P2), sees it
_torsion_reads_r = _respelled(
    Connection.torsion, "cal.M.hopf.Rinv.pairs()", "cal.M.hopf.R.pairs()")

_transport_field = calculus._transport_field


def _transport_field_doubled(cl, tw, twist, X):
    """_transport_field with its result scaled by 2: wrong at h^0, so
    the classical-shadow row sees it as well as the intertwinings of a
    transported field; `differential` transports forms only."""
    return _transport_field(cl, tw, twist, X).scale(2)


PROJECTION_ROWS = ["projection/" + name for name in (
    "field-application", "differential", "insertion", "lie-derivative",
    "bracket")]

# (name, class or module, attribute, its mutant, command line with the
# path from the repository root, failing rows)
CASES = [
    ("lift-reversed", Projection, "lift_function", _lift_reversed,
     ["project", "scenarios/surface.json"],
     ["sequence/lift-section", "projected-geometry/metric-restriction"]),
    ("push-drops-e0", Projection, "_push", _push_dropping_e0,
     ["project", "scenarios/surface.json"],
     PROJECTION_ROWS + ["sequence/lift-section"]),
    ("function-reversed", Projection, "function", _function_reversed,
     ["project", "scenarios/surface-twisted.json"],
     ["twist-projection/" + name for name in (
         "star-naturality", "product", "field-application", "differential",
         "insertion", "lie-derivative", "bracket")]
     + ["sequence/lift-section"]),
    ("twist-r-swapped", Twist, "__init__", _init_swapping_r,
     ["star", "scenarios/moyal.json"],
     ["braided-commutative/braided-commutativity",
      "star-product/braided-commutativity"]),
    # the moyal envelope is commutative, where betainv S beta = beta S
    # betainv, so only a non-abelian envelope can see this
    ("twist-antipode-backwards", Twist, "antipode_monomial",
     _antipode_conjugated_backwards,
     ["check-twist", "scenarios/heisenberg-twisted.json"],
     ["twisted-hopf/antipode"]),
    ("twist-coproduct-backwards", Twist, "coproduct_monomial",
     _coproduct_conjugated_backwards,
     ["star", "scenarios/heisenberg-twisted.json"],
     ["module-algebra/leibniz"]),
    ("d-word-sign", Calculus, "_d_word", _d_word_sign_flipped,
     ["cartan", "tests/fixtures/filiform.json", "--degree", "0"],
     ["cartan/lie-insert", "cartan/lie-lie"]),
    ("koszul-fbc-sign", cli, "levi_civita", _koszul_fbc_sign_flipped,
     ["levi-civita", "tests/fixtures/filiform.json", "--degree", "0"],
     ["levi-civita/construction"]),
    ("wedge-factors-reversed", Calculus, "wedge", _wedge_factors_reversed,
     ["gauge", "scenarios/moyal.json"], ["gauge/wedge"]),
    ("structure-forms-sign", Calculus, "_structure_forms",
     _structure_forms_sign_flipped, ["cartan", "scenarios/abelian-plane.json"],
     ["cartan/" + name for name in (
         "d-squared", "lie-d", "lie-insert", "lie-lie")]),
    ("d-coefficient-sign", Calculus, "d", _d_coefficient_sign_flipped,
     ["cartan", "scenarios/moyal.json"], ["cartan/lie-insert", "cartan/lie-lie"]),
    ("bracket-reads-r", Calculus, "bracket", _bracket_reads_r,
     ["gauge", "scenarios/moyal.json"], ["gauge/schouten"]),
    ("torsion-reads-r", Connection, "torsion", _torsion_reads_r,
     ["levi-civita", "tests/fixtures/twisted-metric.json"],
     ["geometry-twist/twisted-torsion-free"]),
    ("transport-field-doubled", calculus, "_transport_field",
     _transport_field_doubled, ["gauge", "scenarios/moyal.json"],
     ["gauge/" + name for name in (
         "wedge", "schouten", "lie", "insert", "classical-shadow")]),
]

# the coproduct legs of `word_act` read in the other order
_word_act_legs_swapped = _respelled(
    Calculus.word_act, "for l, r, c in self.cop_pairs(exp):",
    "for r, l, c in self.cop_pairs(exp):")


def failing_rows(argv, capsys):
    """The title/name of every failing row of one structured run."""
    command, path, *options = argv
    cli.main([command, str(ROOT / path), *options, "--format", "structured"])
    payload = json.loads(capsys.readouterr().out)
    return sorted("%s/%s" % (report["title"], check["name"])
                  for report in payload["reports"]
                  for check in report["checks"] if not check["passed"])


@pytest.mark.parametrize("name, cls, method, mutant, argv, rows", CASES,
                         ids=[case[0] for case in CASES])
def test_mutant_fails_exactly_its_rows(monkeypatch, capsys, name, cls, method,
                                       mutant, argv, rows):
    assert failing_rows(argv, capsys) == []
    monkeypatch.setattr(cls, method, mutant)
    assert failing_rows(argv, capsys) == sorted(rows)


def test_word_act_leg_order_is_equivalent_code(monkeypatch, capsys):
    """No row sees the legs of `word_act` swapped, on any instance the
    calculus accepts: it refuses an R leg that moves a frame element, so
    cop^op = R cop R^-1 acts on a pair of frame words as cop does, and no
    row acts on a word of grade 2 or more by anything but the legs of R
    or F and the unit.  The mutant is reached on such words by non-unit
    monomials on the one non-abelian twisted scenario, and changes no
    verdict."""
    reached = []

    def counted(self, exp, word, dual):
        if any(exp) and len(word) > 1:
            reached.append(exp)
        return _word_act_legs_swapped(self, exp, word, dual)

    monkeypatch.setattr(Calculus, "word_act", counted)
    assert failing_rows(["cartan", "scenarios/heisenberg-twisted.json"],
                        capsys) == []
    assert reached


# evaluation of a form read through Rinv where it takes R
_eval_form_reads_rinv = _respelled(
    Calculus.eval_form, "self.M.hopf.R.pairs()", "self.M.hopf.Rinv.pairs()")


def _twisted_connection_failing_rows():
    """Failing rows of check_connection on the Levi-Civita connection of
    the twisted-metric fixture's metric pushed through its twist, built
    afresh."""
    data = json.loads((ROOT / "tests/fixtures/twisted-metric.json").read_text(
        encoding="utf-8"))
    sc = cli.Scenario(data)
    cl, tw = sc.calculus(twisted=False), sc.calculus()
    conn = levi_civita(twist_metric(sc.metric(cl), cl, tw))
    return [c.name for c in check_connection(conn).checks if not c.passed]


def test_eval_form_braiding_fails_the_twisted_dual_pairing(monkeypatch):
    """No command line checks the axioms of a twisted connection, so no
    row sees eval_form read through Rinv; the dual-pairing row of the
    twisted Levi-Civita connection of a metric under exp(h P1 ^ P2),
    whose R_F is not 1, does."""
    assert _twisted_connection_failing_rows() == []
    monkeypatch.setattr(Calculus, "eval_form", _eval_form_reads_rinv)
    assert _twisted_connection_failing_rows() == ["dual-pairing"]
