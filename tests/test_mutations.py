"""Mutation checks: a deliberately broken engine method must make the
named check rows fail, and only those, while the unbroken method
passes them all.  Each case patches one method of one class with
monkeypatch and runs one bundled command line in-process."""

import json
from pathlib import Path

import pytest

from braidcalc.cli import main
from braidcalc.submanifold import Projection
from braidcalc.twist import Twist

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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


PROJECTION_ROWS = ["projection/" + name for name in (
    "field-application", "differential", "insertion", "lie-derivative",
    "bracket")]

# (name, class, method, its mutant, command line, failing rows)
CASES = [
    ("lift-reversed", Projection, "lift_function", _lift_reversed,
     ["project", "surface.json"],
     ["sequence/lift-section", "projected-geometry/metric-restriction"]),
    ("push-drops-e0", Projection, "_push", _push_dropping_e0,
     ["project", "surface.json"],
     PROJECTION_ROWS + ["sequence/lift-section"]),
    ("function-reversed", Projection, "function", _function_reversed,
     ["project", "surface-twisted.json"],
     ["twist-projection/" + name for name in (
         "star-naturality", "product", "field-application", "differential",
         "insertion", "lie-derivative", "bracket")]
     + ["sequence/lift-section"]),
    ("twist-r-swapped", Twist, "__init__", _init_swapping_r,
     ["star", "moyal.json"],
     ["braided-commutative/braided-commutativity",
      "star-product/braided-commutativity"]),
    # the moyal envelope is commutative, where betainv S beta = beta S
    # betainv, so only a non-abelian envelope can see this
    ("twist-antipode-backwards", Twist, "antipode_monomial",
     _antipode_conjugated_backwards,
     ["check-twist", "heisenberg-twisted.json"],
     ["twisted-hopf/antipode"]),
    ("twist-coproduct-backwards", Twist, "coproduct_monomial",
     _coproduct_conjugated_backwards,
     ["star", "heisenberg-twisted.json"],
     ["module-algebra/leibniz"]),
]


def failing_rows(argv, capsys):
    """The title/name of every failing row of one structured run."""
    command, scenario = argv
    main([command, str(SCENARIOS / scenario), "--format", "structured"])
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
