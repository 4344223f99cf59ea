"""Quotients by coordinate ideals: the calculus on a submanifold.

A submanifold is cut out by an ideal of the coordinate algebra that the
symmetry action preserves: the ideal generated by some of the
coordinates, the normal ones.  Everything downstream is organized
around one Projection object, built from a calculus and the indices of
the normal coordinates.  It owns the ideal (its generators, reduction,
membership and the tangency of fields), refuses an ideal the action,
the declared unit or the product in force does not preserve, builds the
quotient module algebra and its calculus over the reduced frame, and
pushes functions, multivector fields, forms, metrics and connections
through the quotient map.

Fields only project when they are tangent (coefficients of normal frame
directions lie in the ideal); forms always project, with normal coframe
letters pulled back to zero.  Metrics must block-split across the
tangent/normal frame partition.  The projected torsion-free metric
connection of a block metric is the reduced tangent block of the
ambient one; projection_geometry_suite verifies that against a fresh
solve on the quotient.
"""

import operator
from itertools import product

from .calculus import Calculus, graded_family, increasing_words
from .errors import (
    AxiomOneUnwitnessed,
    GradeMismatch,
    IndexOutOfRange,
    NoBlockSplit,
    NotTangent,
    RingMismatch,
    SchemaError,
)
from .geometry import Connection, Metric, field_family, levi_civita
from .modalg import Action, ModuleAlgebra, coordinate_monomials
from .report import Report, carried, violations
from .ring import AlgebraElement

# Coordinate monomials up to this degree sample the star-product checks
# of a projection.
_SAMPLE_DEGREE = 2


class Projection:
    """Quotient map of one calculus instance by the ideal of functions
    vanishing on a submanifold: the ideal generated by the coordinates
    indexed by `normal_coords`, reduced by substituting them to zero.

    Builds the quotient module algebra (same symmetry, same twist, the
    reduced action) and the quotient calculus over the tangent block of
    the frame, then projects the graded objects.  Construction refuses,
    in this order: IndexOutOfRange for a normal index that is not an
    int (a bool is not) of the algebra's range; SchemaError when there
    is no normal or no tangent coordinate; NotTangent when the declared
    unit depends on a normal coordinate, when a Hopf monomial of degree
    <= depth pushes a generator out of the ideal, or when the product in
    force leaves it on a sample; and NoBlockSplit when the frame has no
    tangent/normal partition matching the quotient dimension.
    """

    def __init__(self, cal, normal_coords, depth=2):
        alg = cal.alg
        normal_coords = tuple(normal_coords)
        # type, not isinstance: True is no coordinate index
        for j in normal_coords:
            if type(j) is not int or not 0 <= j < alg.arity:
                raise IndexOutOfRange(("normal coordinate", j, alg.arity))
        normal = tuple(sorted(set(normal_coords)))
        if not normal:
            raise SchemaError("the ideal needs a normal coordinate")
        tangent = tuple(j for j in range(alg.arity) if j not in normal)
        if not tangent:
            raise SchemaError("the ideal leaves no tangent coordinate")
        if alg.unit is not None and any(
                e[j] for e in alg.unit for j in normal):
            raise NotTangent("localized unit depends on a normal coordinate")
        self.cal = cal
        self.depth = depth
        self.normal, self.tangent = normal, tangent
        self.generators = [alg.coord(j) for j in normal]

        # the quotient action is well defined only when no Hopf monomial
        # pushes a generator out of the ideal
        M = cal.M
        for exp in cal.lie.monomials_up_to(depth):
            if not any(exp):
                continue
            for g in self.generators:
                img = M.action.act_monomial(exp, g)
                if not self.contains(img):
                    raise NotTangent(
                        {"monomial": exp, "generator": g, "image": img})
        for g in self.generators:
            for a in coordinate_monomials(alg, _SAMPLE_DEGREE):
                if not self.contains(M.mul(g, a)):
                    raise NotTangent(("left product leaves ideal", g, a))
                if not self.contains(M.mul(a, g)):
                    raise NotTangent(("right product leaves ideal", a, g))

        self.tangent_idx = [
            u for u in range(cal.dim) if self.is_tangent(cal.frame_field(u))
        ]
        self.normal_idx = [
            u for u in range(cal.dim) if u not in self.tangent_idx
        ]
        if len(self.tangent_idx) != len(tangent):
            raise NoBlockSplit(
                ("tangent frame block has wrong size", self.tangent_idx)
            )
        # each increasing ambient frame word -> its quotient word, or None
        # when it holds a normal letter
        pos = {u: k for k, u in enumerate(self.tangent_idx)}
        self._words = {
            w: tuple(pos[u] for u in w) if all(u in pos for u in w) else None
            for k in range(cal.dim + 1) for w in increasing_words(cal.dim, k)
        }

        unit = None
        if alg.unit is not None:
            unit = {tuple(e[j] for j in tangent): c
                    for e, c in alg.unit.items()}
        self.qalg = type(alg)(
            alg.ring, tuple(alg.names[j] for j in tangent), unit=unit)
        qimages = {
            i: tuple(self.function(M.action.images[i][j]) for j in tangent)
            for i in range(cal.lie.dim)
        }
        qM = ModuleAlgebra(Action(cal.lie, self.qalg, qimages), twist=M.twist)
        qframe = [
            tuple(self.function(cal.images[u][j]) for j in tangent)
            for u in self.tangent_idx
        ]
        self.q = Calculus(qM, qframe)

    # -- the ideal -----------------------------------------------------

    def _drop_normal(self, a, target, fn):
        """a with every exponent that carries a normal letter dropped and
        fn applied to the rest, as an element of target."""
        alg = self.cal.alg
        if not isinstance(a, AlgebraElement) or a.algebra != alg:
            raise RingMismatch(("element of another algebra", alg,
                                getattr(a, "algebra", a)))
        normal = self.normal
        return a._remap(target, lambda e: None if any(
            e[j] for j in normal) else fn(e))

    def reduce(self, a):
        """Normal form of an ambient element modulo the ideal."""
        return self._drop_normal(a, self.cal.alg, lambda e: e)

    def contains(self, a):
        return self.reduce(a).is_zero()

    def is_tangent(self, X):
        """A grade-1 field is tangent when it maps the ideal into itself,
        checked on the generators."""
        return all(self.contains(self.cal.apply_field(X, g))
                   for g in self.generators)

    def axiom_one_witness(self, X):
        """Exhibit a projection-kernel field as an ideal-coefficient
        combination of frame fields.  Raises AxiomOneUnwitnessed when some
        coefficient sits outside the ideal."""
        if X.kind != "mv" or X.grade != 1:
            raise GradeMismatch(
                ("kernel witness needs a grade-1 field", X.kind, X.grade))
        out = []
        for (u,), c in X.terms.items():
            if not self.contains(c):
                raise AxiomOneUnwitnessed((u, c))
            out.append((c, u))
        return out

    # -- pushforward of graded objects ---------------------------------

    def function(self, a):
        """The class of a in the quotient algebra, in one pass: reduced
        and renumbered together."""
        tangent = self.tangent
        return self._drop_normal(
            a, self.qalg, lambda e: tuple(e[j] for j in tangent))

    def lift_function(self, abar):
        """Tautological section of the quotient map, monomial by monomial."""
        arity, tangent = self.cal.alg.arity, self.tangent

        def full(e):
            out = [0] * arity
            for pos, j in enumerate(tangent):
                out[j] = e[pos]
            return tuple(out)

        return abar._remap(self.cal.alg, full)

    def _push(self, obj):
        """The words of obj over tangent frame letters, renumbered for
        the quotient frame by the word table, with projected
        coefficients; words with a normal letter drop."""
        words = self._words
        return type(obj)(self.q, obj.grade, {
            qw: self.function(c) for w, c in obj.terms.items()
            if (qw := words[w]) is not None
        })

    def multivector(self, X):
        """Project a tangent multivector; NotTangent when a word with a
        normal letter carries a coefficient outside the ideal."""
        for w, c in X.terms.items():
            if self._words[w] is None and not self.contains(c):
                raise NotTangent((w, c))
        return self._push(X)

    def form(self, om):
        """Pull a form back to the submanifold: normal coframe letters
        restrict to zero, so those words drop with no condition."""
        return self._push(om)

    def lift_multivector(self, Xbar):
        terms = {
            tuple(self.tangent_idx[u] for u in w): self.lift_function(c)
            for w, c in Xbar.terms.items()
        }
        return self.cal.mv(Xbar.grade, terms)

    # -- geometry ------------------------------------------------------

    def metric(self, metric):
        """Tangent block of a block metric; NoBlockSplit when a mixed
        entry sits outside the ideal."""
        if metric.cal is not self.cal:
            raise RingMismatch(("metric of another calculus", metric.cal.alg))
        for u in self.tangent_idx:
            for n in self.normal_idx:
                if not (self.contains(metric.matrix[u][n])
                        and self.contains(metric.matrix[n][u])):
                    raise NoBlockSplit(("mixed metric entry", u, n))
        block = [
            [self.function(metric.matrix[u][v]) for v in self.tangent_idx]
            for u in self.tangent_idx
        ]
        return Metric(self.q, block)

    def connection(self, conn):
        """Tangent block of a connection: the metric-orthogonal
        projection of a block-split geometry."""
        if conn.cal is not self.cal:
            raise RingMismatch(("connection of another calculus", conn.cal.alg))
        t = self.tangent_idx
        gamma = [[[self.function(conn.gamma[a][b][c]) for c in t] for b in t]
                 for a in t]
        return Connection(self.q, gamma)


def check_sequence(proj, coeff_degree=2):
    """The quotient fields sit in an exact sequence: every one lifts,
    and lifted-then-projected is the identity; kernel fields are
    witnessed ideal combinations of the frame."""
    rep = Report("sequence", {"coeff_degree": coeff_degree})
    cal = proj.cal

    rep.check("lift-section", "pr(lift(X)) = X", violations(
        ("field", "round_trip"),
        ((Xbar, proj.multivector(proj.lift_multivector(Xbar)))
         for Xbar in field_family(proj.q, coeff_degree)),
        lambda Xbar, back: back == Xbar))

    def kernel_witness():
        kernel = []
        for g in proj.generators:
            for u in range(cal.dim):
                kernel.append(cal.mv(1, {(u,): g}))
                for m in coordinate_monomials(cal.alg, coeff_degree):
                    if m.is_scalar():
                        continue
                    kernel.append(cal.mv(1, {(u,): g * m}))
        for X in kernel:
            if not proj.multivector(X).is_zero():
                yield {"field": repr(X), "note": "kernel not killed"}
            try:
                pieces = proj.axiom_one_witness(X)
            except AxiomOneUnwitnessed as exc:
                yield {"field": repr(X), "unwitnessed": repr(exc.args)}
                continue
            back = cal.zero_mv(1)
            for c, u in pieces:
                back = back + cal.mv(1, {(u,): c})
            if back != X:
                yield {"field": repr(X), "recombined": repr(back)}

    rep.check("kernel-witness",
              "pr(X) = 0 and X = sum c_i e_i with ideal coefficients",
              kernel_witness())
    return rep


def _insertion_tables(proj, pushed_fields, pushed_forms):
    """Two row tables over the pushed fields x the pushed forms: the
    ambient (i_X w, pr(i_X w)) and the quotient i_{pr X} pr w, each
    insertion computed once.  Equal values are interned to one object
    through a dict per side (a zero form of the quotient equals an
    ambient zero form of the same grade, so the sides keep apart), and
    each distinct ambient value is pushed once."""
    cal, q = proj.cal, proj.q
    ambient, quotient = {}, {}

    def pushed(v):
        entry = ambient.get(v)
        if entry is None:
            entry = ambient[v] = (v, proj.form(v))
        return entry

    return (
        [[pushed(cal.insert(X, om)) for om, _ in pushed_forms]
         for X, _ in pushed_fields],
        [[quotient.setdefault(v := q.insert(Xq, omq), v)
          for _, omq in pushed_forms] for _, Xq in pushed_fields])


def projection_suite(proj, coeff_degree=2):
    """All commutation laws of the quotient map with the calculus, at
    the Hopf monomial depth the projection was built with.  Each field
    and form is pushed once and carried beside it in the cases.  The
    insertion and lie-derivative rows share one table of i_X w and
    i_{pr X} pr w per (field, form) pair, built inside the insertion
    row's search, so its timing carries the build and an engine error
    in a shared value surfaces there.  The lie-derivative row forms L_X w on both
    sides from the stored i_X w with `Calculus.lie_from_insert`,
    unmemoized: the ambient (field, form) pairs never repeat, nor do
    the pushed pairs with no zero member, so a memo would keep every
    value and hit none."""
    cal, q = proj.cal, proj.q
    depth = proj.depth
    rep = Report(
        "projection",
        {"coeff_degree": coeff_degree, "depth": depth},
    )
    # building the projection searched it at this depth (else NotTangent)
    rep.add("ideal-invariance", "H |> C inside C", True)

    funcs = coordinate_monomials(cal.alg, coeff_degree)
    fields = field_family(cal, coeff_degree, frame=proj.tangent_idx)
    forms = graded_family(cal.form, cal.dim, (1, 2), funcs)
    # each member pushed once and carried beside it in the cases, so
    # the quotient memos hit on the very object; counterexamples still
    # name only the ambient values
    pushed_fields = [(Y, proj.multivector(Y)) for Y in fields]
    pushed_forms = [(om, proj.form(om)) for om in forms]

    rep.check("product", "pr(a b) = pr(a) pr(b)", violations(
        ("a", "b", "lhs", "rhs"),
        ((a, b, proj.function(cal.M.mul(a, b)),
          q.M.mul(proj.function(a), proj.function(b)))
         for a, b in product(funcs, funcs)),
        lambda a, b, lhs, rhs: lhs == rhs))
    rep.check("field-application", "pr(X)(pr(a)) = pr(X(a))", violations(
        ("field", "function"),
        carried(pushed_fields, [(a,) for a in funcs]),
        lambda X, a, Xq: q.apply_field(Xq, proj.function(a))
        == proj.function(cal.apply_field(X, a))))
    rep.check("differential", "pr(d w) = d pr(w)", violations(
        ("form", "lhs", "rhs"),
        ((om, proj.form(cal.d(om)), q.d(omq)) for om, omq in pushed_forms),
        lambda om, lhs, rhs: lhs == rhs))

    tables = None

    def cases():
        """(X, w, pr X, pr w, i_X w, pr(i_X w), i_{pr X} pr w) per
        pair, in family order.  The first row that asks builds the
        tables, inside its timed search; the next one reads them."""
        nonlocal tables
        if tables is None:
            tables = _insertion_tables(proj, pushed_fields, pushed_forms)
        ambient, quotient = tables
        for (X, Xq), row, qrow in zip(pushed_fields, ambient, quotient):
            for (om, omq), (ins, pushed), qins in zip(pushed_forms, row, qrow):
                yield X, om, Xq, omq, ins, pushed, qins

    rep.check("insertion", "pr(i_X w) = i_{pr(X)} pr(w)", violations(
        ("field", "form"), cases(),
        lambda X, om, Xq, omq, ins, pushed, qins: pushed == qins))
    rep.check("lie-derivative", "pr(L_X w) = L_{pr(X)} pr(w)", violations(
        ("field", "form"), cases(),
        lambda X, om, Xq, omq, ins, pushed, qins:
            proj.form(cal.lie_from_insert(X, om, ins))
            == q.lie_from_insert(Xq, omq, qins)))
    rep.check("bracket", "pr([X, Y]) = [pr(X), pr(Y)]", violations(
        ("X", "Y"), carried(pushed_fields, pushed_fields),
        lambda X, Y, Yq, Xq: proj.multivector(cal.bracket(X, Y))
        == q.bracket(Xq, Yq)))
    rep.check("kernel-stability", "H |> (C . frame) keeps ideal coefficients",
              violations(
                  ("monomial", "generator", "frame", "coefficient"),
                  ((exp, g, u, c)
                   for exp in cal.lie.monomials_up_to(depth) if any(exp)
                   for g in proj.generators
                   for u in range(cal.dim)
                   for c in cal.h_act_exp(exp, cal.mv(1, {(u,): g})).terms.values()),
                  lambda exp, g, u, c: proj.contains(c)))
    return rep


def projection_geometry_suite(proj, metric, coeff_degree=1):
    """Block metrics project; solving on the quotient agrees with
    projecting the ambient torsion-free metric connection."""
    rep = Report("projected-geometry", {"coeff_degree": coeff_degree})
    qmetric = proj.metric(metric)
    rep.add("block-split", "metric splits across the partition", True)

    ambient = levi_civita(metric)
    pushed = proj.connection(ambient)
    solved = levi_civita(qmetric)
    rep.check(
        "quotient-solve",
        "pr(metric connection) = metric connection of pr(metric)",
        violations(("pushed", "solved"), [(pushed.gamma, solved.gamma)],
                   operator.eq),
    )

    # each quotient field lifted once and carried beside it in the cases
    lifted = [(Xbar, proj.lift_multivector(Xbar))
              for Xbar in field_family(proj.q, coeff_degree)]
    rep.check("metric-restriction", "pr(g(lift X, lift Y)) = pr(g)(X, Y)", violations(
        ("X", "Y"), carried(lifted, lifted),
        lambda Xbar, Ybar, Y, X: proj.function(metric(X, Y))
        == qmetric(Xbar, Ybar)))
    return rep


def twist_projection_suite(proj, coeff_degree=2):
    """Projection commutes with a twisted calculus when every twist leg
    is tangent (building the Projection raised NotTangent otherwise)."""
    cal = proj.cal
    rep = Report(
        "twist-projection",
        {"coeff_degree": coeff_degree, "depth": proj.depth},
    )

    funcs = coordinate_monomials(cal.alg, _SAMPLE_DEGREE)

    rep.check("star-naturality", "pr(a * b) = pr(a) * pr(b)", violations(
        ("a", "b"), product(funcs, funcs),
        lambda a, b: proj.function(cal.M.mul(a, b))
        == proj.q.M.mul(proj.function(a), proj.function(b))))

    def classical(a, b):
        star = proj.q.M.mul(proj.function(a), proj.function(b))
        return (star - proj.function(a) * proj.function(b)).min_h_order() >= 1

    rep.check("classical-shadow", "quotient star = plain product at order 0",
              violations(("a", "b"), product(funcs, funcs), classical))

    rep.extend(projection_suite(proj, coeff_degree))
    return rep
