"""Command line driver: run verification suites on scenario files.

A scenario is a JSON object naming the coefficient ring, the symmetry
algebra, and whichever structures the requested suites need (action,
twist, frame, metric, connection, ideal).  Polynomials and scalars are
written in a small plain-text grammar:

    scalar      "1", "-2/3", "h", "3/2 h^2"
    polynomial  "1 + x^2", "x y", "-2/3 x^2 y + h x"
    monomial    "P1", "P1^2 P2", "1"

Factors are separated by spaces; "h" is the deformation parameter and
is reserved.  Exit status: 0 when every check passes, 1 when a check
fails (including engine errors raised while a suite runs), 2 for
unusable input (bad JSON, missing sections, unknown names, or any
malformed section: every section present is parsed when the scenario
loads, whatever the command).
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .calculus import Calculus, cartan_suite, gauge_suite, schouten_suite
from .errors import (
    EngineError,
    MissingSection,
    SchemaError,
    UnknownName,
)
from .geometry import (
    Connection,
    Metric,
    check_metric,
    declared_connection_suite,
    geometry_suite,
    geometry_twist_suite,
    levi_civita,
    perturbation_suite,
)
from .hopf import HopfStructure, LieAlgebra, TensorElement, check_hopf, check_triangular
from .modalg import (
    Action,
    ModuleAlgebra,
    check_braid_involutive,
    check_braided_commutative,
    check_module_algebra,
    star_product_suite,
)
from .report import Report
from .ring import RATIONAL, AlgebraElement, PolyAlgebra, Ring, _memo
from .submanifold import (
    Projection,
    check_sequence,
    projection_geometry_suite,
    projection_suite,
    twist_projection_suite,
)
from .twist import (
    Twist,
    check_cocycle,
    check_twisted_hopf,
    exp_twist,
)


_NAME = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
_RATIONAL = re.compile(r"^-?\d+(/\d+)?$")
_POWER = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)\^(\d+)$")


def _require(cond, err, detail):
    if not cond:
        raise err(detail)


_SECTIONS = ("ring", "lie_algebra", "action", "twist", "frame", "metric",
             "connection", "ideal", "suites", "params")
_COUNTS = ("depth", "degree", "seed", "trials")
_FLAGS = ("classical_shadow", "transport_swap")
_PARAMS = _COUNTS + _FLAGS + ("antipode_override",)
# The keys of each object section; any other key is refused.
_SECTION_KEYS = {
    "ring": ("kind", "order"),
    "lie_algebra": ("generators", "brackets"),
    "action": ("coordinates", "unit", "images"),
    "twist": ("kind", "bivector", "terms"),
    "ideal": ("normal_coordinates",),
}
# The key holding the tensor of each twist kind.
_TWIST_KINDS = {"exp": "bivector", "tensor": "terms"}
# The sections read over the action's coordinates.
_ON_COORDINATES = ("frame", "metric", "connection", "ideal")
# Errors in the scenario's shape: fatal, exit status 2.
_SHAPE_ERRORS = (SchemaError, MissingSection, UnknownName)


def _known_keys(obj, known, what):
    for key in obj:
        if key not in known:
            raise UnknownName((what, key))


def _index(names, name):
    """Position of `name` among the declared `names`."""
    if name not in names:
        raise UnknownName((name, tuple(names)))
    return names.index(name)


def _names(value, what):
    """A non-empty list of distinct names, none of them "h"."""
    _require(
        isinstance(value, list) and value and all(isinstance(v, str) for v in value),
        SchemaError,
        "%ss must be a non-empty list of names" % what,
    )
    for v in value:
        _require(_NAME.match(v) and v != "h", SchemaError, ("bad %s name" % what, v))
    _require(len(set(value)) == len(value), SchemaError, "duplicate %s" % what)
    return tuple(value)


def _section(data, key):
    got = data.get(key)
    if got is None:
        raise MissingSection(key)
    return got


def _rational(text):
    """Exact rational from a string literal such as "3", "-2/3" or "1/2"."""
    _require(isinstance(text, str) and _RATIONAL.fullmatch(text), SchemaError,
             ("malformed rational", text))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise SchemaError(("malformed rational", text)) from None


def _split_terms(text):
    """Split an expression on top-level + and -, keeping signs."""
    out = []
    for chunk in text.replace("-", "+-").split("+"):
        chunk = chunk.strip()
        if chunk:
            out.append(chunk)
    if not out:
        raise SchemaError(("empty expression", text))
    return out


def _parse_factors(ring, term, names):
    """One product term -> (Scalar coefficient, exponent list)."""
    sign = 1
    rest = term.strip()
    while rest.startswith("-"):
        sign = -sign
        rest = rest[1:].strip()
    _require(rest, SchemaError, ("term has no factor", term))
    coeff = Fraction(sign)
    hpow = 0
    exps = [0] * len(names)
    for factor in rest.split():
        if _RATIONAL.match(factor):
            coeff *= _rational(factor)
            continue
        m = _POWER.match(factor)
        base, power = (m.group(1), int(m.group(2))) if m else (factor, 1)
        if base == "h":
            if not ring.is_series:
                raise SchemaError("h needs a series ring")
            hpow += power
            continue
        if not _NAME.match(base):
            raise SchemaError(("malformed factor", factor))
        exps[_index(names, base)] += power
    s = ring.scalar(coeff)
    if hpow:
        s = s * ring.h(hpow)
    return s, exps


def parse_scalar(ring, text):
    """Rational-plus-h expression like "h", "-2/3", "3/2 h^2"."""
    _require(isinstance(text, str), SchemaError, ("scalar must be a string", text))
    tot = ring.zero()
    for term in _split_terms(text):
        s, exps = _parse_factors(ring, term, ())
        tot = tot + s
    return tot


def parse_poly(alg, text):
    """Polynomial over the scenario coordinates, "1 + x^2" style."""
    _require(isinstance(text, str), SchemaError, ("polynomial must be a string", text))
    tot = alg.zero()
    for term in _split_terms(text):
        s, exps = _parse_factors(alg.ring, term, alg.names)
        tot = tot + AlgebraElement(alg, {tuple(exps): s}, 0)
    return tot


def _coordinate_row(alg, row, detail):
    """A {coordinate: polynomial} object as one polynomial per
    coordinate, zero where absent; SchemaError(detail) if not an object."""
    _require(isinstance(row, dict), SchemaError, detail)
    full = [alg.zero()] * alg.arity
    for cname, poly in row.items():
        full[_index(alg.names, cname)] = parse_poly(alg, poly)
    return tuple(full)


def _poly_table(alg, sec, dim, rank, what):
    """Polynomials in lists nested `rank` deep, `dim` entries in each."""
    _require(isinstance(sec, list) and len(sec) == dim, SchemaError,
             "%s must be a %s table of polynomials"
             % (what, " x ".join(["dim"] * rank)))
    if rank == 1:
        return [parse_poly(alg, e) for e in sec]
    return [_poly_table(alg, row, dim, rank - 1, what) for row in sec]


def _frame(alg, sec):
    """The frame rows: one coordinate row per frame field."""
    _require(isinstance(sec, list) and len(sec) == alg.arity, SchemaError,
             "frame must be a list of one row per coordinate")
    return tuple(_coordinate_row(alg, row, ("frame row must be an object", row))
                 for row in sec)


def _normal_coordinates(alg, sec):
    """The indices of the ideal's normal coordinates."""
    _require(isinstance(sec, dict), SchemaError, "ideal must be an object")
    coords = sec.get("normal_coordinates")
    _require(
        isinstance(coords, list) and coords
        and all(isinstance(c, str) for c in coords),
        SchemaError,
        "normal_coordinates must be a non-empty list of names",
    )
    return tuple(_index(alg.names, c) for c in coords)


def parse_hopf_monomial(lie, text):
    """PBW exponent tuple from "P1^2 P2"; "1" is the unit."""
    _require(isinstance(text, str), SchemaError, ("monomial must be a string", text))
    text = text.strip()
    if text == "1":
        return (0,) * lie.dim
    for factor in text.split():
        _require(not factor.startswith("-") and not _RATIONAL.match(factor),
                 SchemaError, ("monomial takes no sign or coefficient", text))
    s, exps = _parse_factors(lie.ring, text, lie.generators)
    if s != lie.ring.one():
        raise SchemaError(("monomial must have coefficient 1", text))
    return tuple(exps)


class Scenario:
    """A scenario file read in one pass.  Construction validates the
    params and the suites list and parses every section present into a
    plain attribute (None where the section is absent), so that a
    malformed section is refused whatever the command; each structure
    is built once, on first use, over the parsed values.  An engine
    error that is not a shape error is left to the suite that builds on
    the section, which reports it as a failing `construction` row."""

    def __init__(self, data, ring_override=None):
        _require(isinstance(data, dict), SchemaError, "scenario must be a JSON object")
        _known_keys(data, _SECTIONS, "scenario section")
        for name, keys in _SECTION_KEYS.items():
            if isinstance(data.get(name), dict):
                _known_keys(data[name], keys, name + " key")
        self.data = data
        self.params = {} if data.get("params") is None else data["params"]
        _require(isinstance(self.params, dict), SchemaError, "params must be an object")
        _known_keys(self.params, _PARAMS, "scenario param")
        ring = self._parse_ring(_section(data, "ring"))
        self.ring = ring_override or ring
        self.lie = self._parse_lie(_section(data, "lie_algebra"))
        for name in _COUNTS:
            self.knob(None, name, 0)
        for name in _FLAGS:
            got = self.params.get(name, False)
            _require(type(got) is bool, SchemaError, ("%s must be true or false" % name, got))
        wanted = data.get("suites")
        if wanted is not None:
            _require(
                isinstance(wanted, list) and all(isinstance(w, str) for w in wanted),
                SchemaError,
                "suites must be a list of subcommand names",
            )
            known = [name for name, _, _ in _RUNNERS]
            for w in wanted:
                _index(known, w)
        # every section present, parsed once; the order decides which of
        # two malformed sections is refused
        alg = None
        if data.get("action") is not None:
            try:
                alg = self.algebra
            except _SHAPE_ERRORS:
                raise
            except EngineError:
                # a refused unit is a construction row of each suite that
                # builds the algebra; the sections are still parsed for
                # shape, over the coordinates alone
                alg = PolyAlgebra(self.ring, data["action"]["coordinates"])
        self.images = (None if alg is None
                       else self._parse_images(alg, data["action"].get("images")))
        self.twist_tensor = (None if data.get("twist") is None
                             else self._parse_twist(data["twist"]))
        if alg is None and any(data.get(s) is not None for s in _ON_COORDINATES):
            raise MissingSection("action")
        self.frame_images = (None if data.get("frame") is None
                             else _frame(alg, data["frame"]))
        # a frame has one field per coordinate, so the tables are
        # arity-square whether or not the scenario declares a frame
        self.metric_table = (None if data.get("metric") is None
                             else _poly_table(alg, data["metric"], alg.arity, 2, "metric"))
        self.connection_table = (
            None if data.get("connection") is None
            else _poly_table(alg, data["connection"], alg.arity, 3, "connection"))
        self.normal_coordinates = (None if data.get("ideal") is None
                                   else _normal_coordinates(alg, data["ideal"]))
        override = self.params.get("antipode_override")
        self.antipode_table = None if override is None else self._parse_antipode(override)

    # -- parsers -----------------------------------------------------------

    @staticmethod
    def _parse_ring(sec):
        _require(isinstance(sec, dict), SchemaError, "ring must be an object")
        kind, order = sec.get("kind"), sec.get("order")
        if kind == "rational":
            _require(order is None, SchemaError, ("a rational ring takes no order", order))
            return RATIONAL
        return Ring(kind, order)

    def _parse_lie(self, sec):
        _require(isinstance(sec, dict), SchemaError, "lie_algebra must be an object")
        gens = _names(sec.get("generators"), "generator")
        table = sec.get("brackets")
        if table is None:
            table = {}
        _require(isinstance(table, dict), SchemaError,
                 ("lie_algebra.brackets must be an object", table))
        brackets = {}
        for key, val in table.items():
            pair = key.split()
            _require(len(pair) == 2, SchemaError, ("bracket key must be two names", key))
            i, j = (_index(gens, g) for g in pair)
            _require(i != j, SchemaError, ("bracket of a generator with itself", key))
            sign = 1
            if i > j:
                i, j, sign = j, i, -1
            _require(isinstance(val, dict), SchemaError, ("bracket value must be an object", key))
            brackets[(i, j)] = {_index(gens, g): self.ring.scalar(sign * _rational(c))
                                for g, c in val.items()}
        return LieAlgebra(self.ring, gens, brackets)

    def _parse_images(self, alg, images):
        """The generator images: {generator index: coordinate row}."""
        if images is None:
            images = {}
        _require(isinstance(images, dict), SchemaError, "images must be an object")
        return {
            _index(self.lie.generators, gname):
                _coordinate_row(alg, row, ("image row must be an object", gname))
            for gname, row in images.items()
        }

    def _term_list(self, items, width, what):
        """{monomials: coefficient} from a list of [monomial, ...,
        coefficient] entries with `width` PBW monomials each; the
        coefficients of a repeated key add up."""
        _require(isinstance(items, list), SchemaError, ("%s must be a list" % what, items))
        out = {}
        for item in items:
            _require(
                isinstance(item, list) and len(item) == width + 1,
                SchemaError,
                ("%s term must be %d monomial(s) and a coefficient" % (what, width), item),
            )
            key = tuple(parse_hopf_monomial(self.lie, m) for m in item[:width])
            out[key] = out.get(key, self.ring.zero()) + parse_scalar(self.ring, item[width])
        return out

    def _parse_twist(self, sec):
        """The rank-2 tensor of the twist section."""
        _require(isinstance(sec, dict), SchemaError, "twist must be an object")
        kind = sec.get("kind")
        _require(isinstance(kind, str) and kind in _TWIST_KINDS, SchemaError,
                 ("twist kind must be exp or tensor", kind))
        key = _TWIST_KINDS[kind]
        terms = self._term_list(sec.get(key), 2, key)
        _require(terms, SchemaError, "%s must be a non-empty list of [left, right, coeff]" % key)
        return TensorElement(self.lie, 2, terms)

    def _parse_antipode(self, sec):
        """{generator index: HopfElement} replacing S on single generators."""
        _require(isinstance(sec, dict), SchemaError, "antipode_override must be an object")
        table = {}
        for gname, terms in sec.items():
            i = _index(self.lie.generators, gname)
            elem = self.lie.zero()
            for (exp,), coeff in self._term_list(terms, 1, "override").items():
                elem = elem + self.lie.monomial(exp, coeff)
            table[i] = elem
        return table

    # -- structures: each built once over the parsed values ----------------

    @property
    @_memo
    def algebra(self):
        sec = _section(self.data, "action")
        _require(isinstance(sec, dict), SchemaError, "action must be an object")
        coords = _names(sec.get("coordinates"), "coordinate")
        unit = None
        if sec.get("unit") is not None:
            unit = dict(parse_poly(PolyAlgebra(self.ring, coords), sec["unit"]).terms)
        return PolyAlgebra(self.ring, coords, unit=unit)

    @property
    @_memo
    def action(self):
        return Action(self.lie, self.algebra, self.images)

    @property
    @_memo
    def twist(self):
        kind = _section(self.data, "twist")["kind"]
        build = exp_twist if kind == "exp" else Twist.from_tensor
        return build(self.lie, self.twist_tensor)

    def module_algebra(self, twisted=True):
        twist = None
        if twisted and self.data.get("twist") is not None:
            twist = self.twist
        return ModuleAlgebra(self.action, twist=twist)

    def calculus(self, twisted=True):
        return self._calculus(bool(twisted))

    @_memo
    def _calculus(self, twisted):
        return Calculus(self.module_algebra(twisted), self.frame_images)

    def metric(self, cal):
        _section(self.data, "metric")
        return Metric(cal, self.metric_table)

    def connection(self, cal):
        _section(self.data, "connection")
        return Connection(cal, self.connection_table)

    # -- knobs -----------------------------------------------------------

    def knob(self, opts, name, default):
        got = getattr(opts, name.replace("-", "_"), None)
        if got is None:
            got = self.params.get(name, default)
        _require(type(got) is int and got >= 0, SchemaError, ("bad %s" % name, got))
        return got


# -- suite runners -------------------------------------------------------


def _guarded(title, fn):
    """Run one suite; an engine error becomes a failing report row.
    Scenario-shape errors stay fatal and exit with status 2."""
    try:
        return fn()
    except _SHAPE_ERRORS:
        raise
    except EngineError as exc:
        rep = Report(title, {})
        rep.add(
            "construction",
            "instance builds without engine errors",
            False,
            {"error": type(exc).__name__, "detail": str(exc)},
        )
        return [rep]


def run_check_hopf(sc, opts):
    depth = sc.knob(opts, "depth", 3)
    table = sc.antipode_table
    lie = sc.lie
    return [
        check_hopf(lie, depth, antipode_table=table),
        check_triangular(HopfStructure(lie), depth),
    ]


def run_check_twist(sc, opts):
    depth = sc.knob(opts, "depth", 3)
    tw = sc.twist
    return [
        check_cocycle(tw),
        check_twisted_hopf(tw, depth),
    ]


def run_star(sc, opts):
    depth = sc.knob(opts, "depth", 3)
    degree = sc.knob(opts, "degree", 2)
    M = sc.module_algebra()
    return [
        check_module_algebra(M, depth, degree),
        star_product_suite(M, max(degree, 3)),
        check_braided_commutative(M, degree),
        check_braid_involutive(M, degree),
    ]


def run_cartan(sc, opts):
    degree = sc.knob(opts, "degree", 2)
    cal = sc.calculus()
    return [
        cartan_suite(cal, coeff_degree=degree),
        schouten_suite(cal, coeff_degree=min(degree, 1)),
    ]


def run_gauge(sc, opts):
    _section(sc.data, "twist")
    cl = sc.calculus(twisted=False)
    tw = sc.calculus(twisted=True)
    # falsification knob: transports run against the inverse twist
    swapped = sc.twist.swapped() if sc.params.get("transport_swap") else None
    return [gauge_suite(cl, tw, sc.params.get("classical_shadow", False),
                        swapped)]


def run_levi_civita(sc, opts):
    degree = sc.knob(opts, "degree", 2)
    seed = sc.knob(opts, "seed", 0)
    trials = sc.knob(opts, "trials", 20)
    cal = sc.calculus(twisted=False)
    metric = sc.metric(cal)
    reports = [check_metric(metric, coeff_degree=min(degree, 1))]
    conn = levi_civita(metric)
    reports += [
        geometry_suite(conn, metric, coeff_degree=degree),
        perturbation_suite(conn, metric, seed=seed, trials=trials),
    ]
    if sc.data.get("connection") is not None:
        reports.append(declared_connection_suite(
            sc.connection(cal), metric, conn, coeff_degree=min(degree, 1)))
    if sc.data.get("twist") is not None:
        reports.append(geometry_twist_suite(
            conn, metric, cal, sc.calculus(twisted=True),
            sc.params.get("classical_shadow", False)))
    return reports


def run_project(sc, opts):
    depth = sc.knob(opts, "depth", 2)
    degree = sc.knob(opts, "degree", 2)
    cal = sc.calculus()
    _section(sc.data, "ideal")
    proj = Projection(cal, sc.normal_coordinates, depth=depth)
    suite = (twist_projection_suite if sc.data.get("twist") is not None
             else projection_suite)
    reports = [suite(proj, degree), check_sequence(proj, degree)]
    if sc.data.get("metric") is not None:
        reports.append(projection_geometry_suite(
            proj, sc.metric(proj.cal), coeff_degree=min(degree, 1)))
    return reports


_RUNNERS = (
    ("check-hopf", run_check_hopf, ("lie_algebra",)),
    ("check-twist", run_check_twist, ("lie_algebra", "twist")),
    ("star", run_star, ("lie_algebra", "action")),
    ("cartan", run_cartan, ("lie_algebra", "action")),
    ("gauge", run_gauge, ("lie_algebra", "action", "twist")),
    ("levi-civita", run_levi_civita, ("lie_algebra", "action", "metric")),
    ("project", run_project, ("lie_algebra", "action", "ideal")),
)


def run_all(sc, opts):
    wanted = sc.data.get("suites")
    reports = []
    for name, fn, needs in _RUNNERS:
        if wanted is not None and name not in wanted:
            continue
        if any(sc.data.get(k) is None for k in needs):
            continue
        reports.extend(_guarded(name, lambda fn=fn: fn(sc, opts)))
    if not reports:
        raise SchemaError("no suite applies to this scenario")
    return reports


# -- entry point ---------------------------------------------------------


def build_parser():
    commands = [name for name, _, _ in _RUNNERS] + ["all"]
    parser = argparse.ArgumentParser(
        prog="braidcalc",
        usage="%(prog)s COMMAND SCENARIO [--depth N] [--degree N] [--order N]"
              " [--seed N] [--format text|structured]",
        description="verify braided Cartan calculus laws on a scenario file",
    )
    parser.add_argument("command", choices=commands, metavar="command",
                        help="one of: " + ", ".join(commands))
    parser.add_argument("scenario", help="path to a scenario JSON file")
    for flag, what in (("--depth", "Hopf monomial degree bound"),
                       ("--degree", "coefficient degree bound for check families"),
                       ("--order", "series truncation order override"),
                       ("--seed", "seed for the perturbation falsifier")):
        parser.add_argument(flag, type=int, metavar="N", help=what)
    parser.add_argument("--format", choices=("text", "structured"),
                        default="text", help="report rendering")
    return parser


def _load_scenario(opts):
    try:
        with open(opts.scenario, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(("cannot read scenario", str(exc)))
    except json.JSONDecodeError as exc:
        raise SchemaError(("scenario is not valid JSON", str(exc)))
    ring_override = None
    if opts.order is not None:
        ring_sec = data.get("ring") if isinstance(data, dict) else None
        _require(
            isinstance(ring_sec, dict) and ring_sec.get("kind") == "series",
            SchemaError,
            "--order applies to series-ring scenarios only",
        )
        _require(opts.order >= 1, SchemaError, ("bad --order", opts.order))
        ring_override = Ring("series", opts.order)
    return Scenario(data, ring_override=ring_override)


def main(argv=None):
    parser = build_parser()
    opts = parser.parse_args(argv)
    try:
        sc = _load_scenario(opts)
        if opts.command == "all":
            reports = run_all(sc, opts)
        else:
            fn = dict((n, f) for n, f, _ in _RUNNERS)[opts.command]
            reports = _guarded(opts.command, lambda: fn(sc, opts))
    except EngineError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2

    passed = all(r.passed for r in reports)
    if opts.format == "structured":
        payload = {
            "command": opts.command,
            "passed": passed,
            "reports": [r.as_dict() for r in reports],
        }
        text = json.dumps(payload, indent=2, default=str)
    else:
        total = sum(len(r.checks) for r in reports)
        failing = sum(len(r.failing()) for r in reports)
        text = "\n".join([r.to_text() for r in reports] + [
            "OVERALL: %s (%d checks, %d failing)"
            % ("PASS" if passed else "FAIL", total, failing)])
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader has gone (`| head`): the verdict stands, and the
        # interpreter's own flush of stdout at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
