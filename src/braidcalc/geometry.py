"""Equivariant connections and metrics over a braided calculus.

A connection is stored by its frame coefficients Gamma[a][b][c]
(the e_c component of the derivative of e_b along e_a) and extended to
arbitrary grade-1 fields by function-linearity in the direction and the
braided Leibniz rule in the argument.  A metric is stored by its frame
matrix together with its two-sided inverse for the product in force.
The torsion-free metric connection is solved for by right-contracting
the Koszul combination with that inverse.
"""

import operator
import random
from fractions import Fraction
from itertools import product

from .calculus import _inverse, deformed_binary
from .errors import GradeMismatch, MetricCheckFailed, RankMismatch
from .modalg import coordinate_monomials
from .report import Report, hoisted, violations
from .ring import _add_terms, _leg_sum, _memo


METRICITY = "X(g(Y, Z)) = g(nabla_X Y, Z) + g(Rinv1 |> Y, nabla_{Rinv2 |> X} Z)"


def field_family(cal, coeff_degree=2, frame=None):
    """Frame fields plus monomial-coefficient frame fields, over the
    frame indices `frame` (all of them by default)."""
    if frame is None:
        frame = range(cal.dim)
    fam = [cal.frame_field(u) for u in frame]
    for m in coordinate_monomials(cal.alg, coeff_degree):
        if m.is_scalar():
            continue
        for u in frame:
            fam.append(cal.mv(1, {(u,): m}))
    return fam


class Connection:
    """Frame-coefficient connection on grade-1 fields."""

    def __init__(self, cal, gamma):
        dim = cal.dim
        if len(gamma) != dim or any(
            len(row) != dim or any(len(e) != dim for e in row)
            for row in gamma
        ):
            raise RankMismatch("gamma must be dim x dim x dim")
        for row in gamma:
            for entry in row:
                for g in entry:
                    if g.algebra is not cal.alg:
                        raise RankMismatch("gamma entry from a foreign algebra")
        self.cal = cal
        self.gamma = gamma

    def perturbed(self, a, b, c, delta):
        """Copy with a constant shift added to one frame coefficient."""
        gamma = [
            [list(entry) for entry in row] for row in self.gamma
        ]
        gamma[a][b][c] = gamma[a][b][c] + self.cal.alg.scalar(delta)
        return Connection(self.cal, gamma)

    def __eq__(self, other):
        return (
            isinstance(other, Connection)
            and self.cal is other.cal
            and self.gamma == other.gamma
        )

    def _nabla_frame_arg(self, Y, v):
        """Derivative of e_v along an arbitrary field Y, as a term map."""
        cal = self.cal
        return _add_terms({}, (
            ((w,), cal.M.mul(cu, g))
            for (u,), cu in Y.terms.items()
            for w, g in enumerate(self.gamma[u][v])
            if not g.is_zero()
        ))

    @_memo
    def nabla(self, X, s):
        """Covariant derivative of the grade-1 field s along X."""
        if X.kind != "mv" or s.kind != "mv" or X.grade != 1 or s.grade != 1:
            raise GradeMismatch((X.grade, s.grade))
        cal = self.cal
        out = {}
        for (v,), d in s.terms.items():
            _add_terms(out, (((v,), cal.apply_field(X, d)),))
            for t1, t2, c in cal.M.hopf.Rinv.pairs():
                da = cal.M.action.act_monomial(t1, d)
                if da.is_zero():
                    continue
                Xa = cal.h_act_exp(t2, X)
                if Xa.is_zero():
                    continue
                _add_terms(out, (
                    (w, cal.M.mul(da, g).scale(c))
                    for w, g in self._nabla_frame_arg(Xa, v).items()
                ))
        return cal.mv(1, out)

    def nabla_form(self, X, om):
        """Dual derivative on grade-1 forms, solved through the pairing:
        (nabla_X w)(e_v) = X(w(e_v)) - sum (Rinv1 |> w)(nabla_{Rinv2 |> X} e_v).
        """
        cal = self.cal
        if om.kind != "form" or om.grade != 1 or X.grade != 1:
            raise GradeMismatch((X.grade, om.grade))
        Rinv = cal.M.hopf.Rinv.pairs()
        coeffs = {}
        for v in range(cal.dim):
            ev = cal.frame_field(v)
            braided = _leg_sum(
                Rinv, cal.h_act_exp, om, X,
                lambda oma, Xa: cal.eval_form(oma, [self.nabla(Xa, ev)]),
                cal.alg.zero(),
            )
            coeffs[(v,)] = cal.apply_field(X, cal.eval_form(om, [ev])) - braided
        return cal.form(1, coeffs)

    def torsion(self, X, Y):
        """nabla_X Y - nabla_{Rinv1 |> Y}(Rinv2 |> X) - [X, Y]_R."""
        cal = self.cal
        braided = _leg_sum(cal.M.hopf.Rinv.pairs(), cal.h_act_exp,
                           Y, X, self.nabla, cal.zero_mv(1))
        return self.nabla(X, Y) - braided - cal.bracket(X, Y)


def check_connection(conn, coeff_degree=1):
    """Extension-rule and equivariance checks for a connection."""
    cal = conn.cal
    M = cal.M
    rep = Report("connection", {"coeff_degree": coeff_degree})
    fields = field_family(cal, coeff_degree)
    funcs = coordinate_monomials(cal.alg, coeff_degree)
    Rinv = M.hopf.Rinv.pairs()

    rep.check("left-linearity", "nabla_{a X} s = a nabla_X s", violations(
        ("a", "X", "s"),
        hoisted(product(funcs, fields), product(fields), lambda a, X: cal.mv(
            1, {w: M.mul(a, c) for w, c in X.terms.items()})),
        lambda a, X, s, aX: conn.nabla(aX, s) == conn.nabla(X, s).left_mul(a)))

    def braided_leibniz(a, X, s):
        lhs = conn.nabla(X, s.left_mul(a))
        return lhs == _leg_sum(
            Rinv, cal.act_any, a, X,
            lambda aa, Xa: conn.nabla(Xa, s).left_mul(aa),
            cal.mv(1, dict(s.terms)).left_mul(cal.apply_field(X, a)),
        )

    rep.check("braided-leibniz",
              "nabla_X (a s) = X(a) s + (Rinv1 |> a) nabla_{Rinv2 |> X} s",
              violations(("a", "X", "s"), product(funcs, fields, fields),
                         braided_leibniz))

    monos = [e for e in cal.lie.monomials_up_to(2) if any(e)]

    def equivariant(e, X, s):
        lhs = cal.h_act_exp(e, conn.nabla(X, s))
        return lhs == _leg_sum(cal.cop_pairs(e), cal.h_act_exp, X, s,
                               conn.nabla, cal.zero_mv(1))

    rep.check("equivariance", "xi |> nabla_X s = nabla_{xi1 |> X}(xi2 |> s)",
              violations(("xi", "X", "s"),
                         product(monos, fields, fields),
                         equivariant))

    forms = [cal.coframe(v) for v in range(cal.dim)]
    forms += [cal.form(1, {(0,): m}) for m in funcs if not m.is_scalar()]

    def dual_pairing(X, om, Y):
        lhs = cal.apply_field(X, cal.eval_form(om, [Y]))
        return lhs == _leg_sum(
            Rinv, cal.h_act_exp, om, X,
            lambda oma, Xa: cal.eval_form(oma, [conn.nabla(Xa, Y)]),
            cal.eval_form(conn.nabla_form(X, om), [Y]),
        )

    rep.check(
        "dual-pairing",
        "X(w(Y)) = (nabla_X w)(Y) + (Rinv1 |> w)(nabla_{Rinv2 |> X} Y)",
        violations(("X", "form", "Y"), product(fields, forms, fields),
                   dual_pairing),
    )
    return rep


class Metric:
    """Frame-matrix metric with its verified two-sided inverse for the
    product in force."""

    def __init__(self, cal, matrix):
        dim = cal.dim
        if len(matrix) != dim or any(len(r) != dim for r in matrix):
            raise RankMismatch("metric matrix must be dim x dim")
        for r in matrix:
            for g in r:
                if g.algebra is not cal.alg:
                    raise RankMismatch("metric entry from a foreign algebra")
        self.cal = cal
        self.matrix = matrix
        self.inverse = _inverse(cal.M.mul, matrix, "metric inverse in force")

    @_memo
    def __call__(self, X, Y):
        """g(X, Y) of grade-1 fields."""
        if X.kind != "mv" or Y.kind != "mv" or X.grade != 1 or Y.grade != 1:
            raise GradeMismatch((X.grade, Y.grade))
        cal = self.cal
        tot = cal.alg.zero()
        for (u,), cu in X.terms.items():
            for (v,), dv in Y.terms.items():
                g = self.matrix[u][v]
                if g.is_zero():
                    continue
                tot = tot + cal.M.mul(cu, cal.M.mul(dv, g))
        return tot


def check_metric(metric, coeff_degree=1):
    """Braided symmetry, left-linearity and equivariance of a metric."""
    cal = metric.cal
    M = cal.M
    rep = Report("metric", {"coeff_degree": coeff_degree})
    fields = field_family(cal, coeff_degree)

    Rinv = M.hopf.Rinv.pairs()
    rep.check("braided-symmetry", "g(Y, X) = g(Rinv1 |> X, Rinv2 |> Y)", violations(
        ("X", "Y"), product(fields, fields),
        lambda X, Y: metric(Y, X)
        == _leg_sum(Rinv, cal.h_act_exp, X, Y, metric, cal.alg.zero())))
    rep.check("left-linearity", "g(a X, Y) = a g(X, Y)", violations(
        ("a", "X", "Y"),
        product(coordinate_monomials(cal.alg, coeff_degree), fields, fields),
        lambda a, X, Y: metric(X.left_mul(a), Y) == M.mul(a, metric(X, Y))))

    monos = [e for e in cal.lie.monomials_up_to(2) if any(e)]

    def equivariant(e, X, Y):
        lhs = M.action.act(cal.lie.monomial(e), metric(X, Y))
        return lhs == _leg_sum(cal.cop_pairs(e), cal.h_act_exp, X, Y,
                               metric, cal.alg.zero())

    rep.check("equivariance", "xi |> g(X, Y) = g(xi1 |> X, xi2 |> Y)",
              violations(("xi", "X", "Y"),
                         product(monos, fields, fields),
                         equivariant))
    return rep


def levi_civita(metric):
    """The unique torsion-free metric connection, solved from the Koszul
    combination by right-contraction with the metric inverse."""
    cal = metric.cal
    M = cal.M
    dim = cal.dim
    g = metric.matrix
    for u in range(dim):
        for v in range(dim):
            if g[u][v] != g[v][u]:
                raise MetricCheckFailed(
                    "frame matrix not symmetric at (%d, %d)" % (u, v)
                )
    f = cal.structure_constants
    half = Fraction(1, 2)

    def koszul(a, b, c):
        """2 g(nabla_{e_a} e_b, e_c) by the Koszul formula."""
        val = (
            cal.apply_base(a, g[b][c])
            + cal.apply_base(b, g[a][c])
            - cal.apply_base(c, g[a][b])
        )
        for w in range(dim):
            fab = f(a, b).get(w)
            if fab is not None:
                val = val + M.mul(fab, g[w][c])
            fac = f(a, c).get(w)
            if fac is not None:
                val = val - M.mul(fac, g[w][b])
            fbc = f(b, c).get(w)
            if fbc is not None:
                val = val - M.mul(fbc, g[w][a])
        return val

    def contracted(a, b):
        """Gamma[a][b]: half the Koszul row times the metric inverse."""
        row = [koszul(a, b, c) for c in range(dim)]
        return [
            sum((M.mul(row[c], metric.inverse[c][d]) for c in range(dim)),
                start=cal.alg.zero()).scale(half)
            for d in range(dim)
        ]

    gamma = [[contracted(a, b) for b in range(dim)] for a in range(dim)]
    conn = Connection(cal, gamma)
    # the solve re-checked on the bare frame, by the suites' own searches
    frame = [cal.frame_field(a) for a in range(dim)]
    for law, found in (
            ("torsion does not close", _torsion_violations(conn, frame)),
            ("metricity fails", _metricity_violations(conn, metric, frame))):
        bad = next(found, None)
        if bad is not None:
            raise MetricCheckFailed((law, bad))
    return conn


def _metricity_violations(conn, metric, fields):
    """Braided-metricity counterexamples over the family.  The fields^3
    search meets each derivative and metric value many times; both are
    memoized on their connection and metric."""
    cal = conn.cal
    Rinv = cal.M.hopf.Rinv.pairs()

    def metric_compatible(X, Y, Z):
        lhs = cal.apply_field(X, metric(Y, Z))
        return lhs == _leg_sum(
            Rinv, cal.h_act_exp, Y, X,
            lambda Ya, Xa: metric(Ya, conn.nabla(Xa, Z)),
            metric(conn.nabla(X, Y), Z),
        )

    return violations(("X", "Y", "Z"), product(fields, fields, fields),
                      metric_compatible)


def _torsion_violations(conn, fields):
    """Torsion counterexamples over the family."""
    return violations(("X", "Y"), product(fields, fields),
                      lambda X, Y: conn.torsion(X, Y).is_zero())


def geometry_suite(conn, metric, coeff_degree=2):
    """Metric, metricity and torsion checks of the solved connection
    `conn` of `metric` over the generated field family."""
    rep = Report("levi-civita", {"coeff_degree": coeff_degree})
    # `levi_civita` re-checked the solve on the frame (else MetricCheckFailed)
    rep.add("solve", "Koszul solve closes on the frame", True)
    rep.extend(check_metric(metric, coeff_degree=1))
    fields = field_family(conn.cal, coeff_degree)
    rep.check("metricity", METRICITY, _metricity_violations(conn, metric, fields))
    rep.check("torsion-free", "T(X, Y) = 0", _torsion_violations(conn, fields))
    return rep


def declared_connection_suite(declared, metric, solved, coeff_degree=1):
    """A hand-written connection table checked as a connection, for the
    two laws, and against the solved connection `solved` of `metric`."""
    rep = Report("declared-connection", {})
    rep.extend(check_connection(declared, coeff_degree=coeff_degree))
    fields = field_family(declared.cal, coeff_degree)
    rep.check("declared-torsion-free", "T(X, Y) = 0",
              _torsion_violations(declared, fields))
    rep.check("declared-metricity", METRICITY,
              _metricity_violations(declared, metric, fields))
    rep.add("declared-matches-solve",
            "declared table equals the solved metric connection",
            declared == solved)
    return rep


def perturbation_suite(conn, metric, seed=0, trials=20):
    """Seeded falsification harness: every nonzero constant shift of a
    single coefficient of the solved connection `conn` of `metric` must
    break metricity or torsion."""
    cal = conn.cal
    rng = random.Random(seed)
    rep = Report("perturbation", {"seed": seed, "trials": trials})
    fields = field_family(cal, 1)

    def missed(a, b, c, delta):
        wrong = conn.perturbed(a, b, c, delta)
        if not (any(_torsion_violations(wrong, fields))
                or any(_metricity_violations(wrong, metric, fields))):
            yield {"delta": str(delta)}

    for n in range(trials):
        a = rng.randrange(cal.dim)
        b = rng.randrange(cal.dim)
        c = rng.randrange(cal.dim)
        delta = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if rng.random() < 0.5:
            delta = -delta
        rep.check(
            "perturbation-%02d" % n,
            "shifted Gamma[%d][%d][%d] by %s breaks a law" % (a, b, c, delta),
            missed(a, b, c, delta),
        )
    return rep


def twist_metric(metric, cl, tw):
    """Push a metric through the twist: entries are
    g_F(e_u, e_v) = sum g(Finv1 |> e_u, Finv2 |> e_v), the inverse
    recomputed for the product in force."""
    frame = [cl.frame_field(u) for u in range(cl.dim)]
    return Metric(tw, [
        [deformed_binary(cl, tw, metric, eu, ev) for ev in frame]
        for eu in frame
    ])


def twist_connection(conn, cl, tw):
    """Push a connection through the twist:
    nabla^F_X s = sum nabla_{Finv1 |> X}(Finv2 |> s), read off on the
    frame to produce the twisted coefficient table."""
    frame = [cl.frame_field(a) for a in range(cl.dim)]
    gamma = []
    for ea in frame:
        row = []
        for eb in frame:
            nab = deformed_binary(cl, tw, conn.nabla, ea, eb)
            row.append([nab.terms.get((w,), cl.alg.zero())
                        for w in range(cl.dim)])
        gamma.append(row)
    return Connection(tw, gamma)


def geometry_twist_suite(conn, metric, cl, tw, shadow=False):
    """Naturality of the Levi-Civita solve `conn` of `metric` under the
    twist, the twisted geometry checks, and (when `shadow`) the classical
    shadow: the twisted table differs from the untwisted one by O(h)."""
    rep = Report("geometry-twist", {"order": cl.ring.order})
    gF = twist_metric(metric, cl, tw)
    lhs = twist_connection(conn, cl, tw)
    rhs = levi_civita(gF)
    rep.check("lc-naturality", "twist(LC(g)) = LC(twist(g))",
              violations(("lhs", "rhs"), [(lhs.gamma, rhs.gamma)], operator.eq))
    fields = field_family(tw, 2)
    rep.check("twisted-metricity", METRICITY, _metricity_violations(rhs, gF, fields))
    rep.check("twisted-torsion-free", "T(X, Y) = 0", _torsion_violations(rhs, fields))
    if shadow:
        rep.check(
            "classical-shadow",
            "twisted LC coefficients reduce to the classical ones at h^0",
            violations(("a", "b", "w"), product(range(cl.dim), repeat=3),
                       lambda a, b, w: (rhs.gamma[a][b][w]
                                        - conn.gamma[a][b][w]).min_h_order() >= 1),
        )
    return rep
