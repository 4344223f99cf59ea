"""Braided multivector fields, differential forms and Cartan operators.

A frame is a finite family of plain polynomial vector fields that is
required to
  * span the derivations (its coordinate-image matrix is invertible),
  * close under the adjoint action in force with constant coefficients,
  * be invisible to the R-matrix in force: every non-unit leg of R and
    of its inverse acts as zero on frame and coframe elements,
  * act as derivations of the product in force.

Under these hypotheses the braided wedge reduces to a sign-sorted word
merge whose coefficients multiply with the product in force, insertion
of a bare frame element is the signed contraction against the coframe,
and all residual braiding lives in the coefficient product and in the
Hopf action on coefficients.  Multivectors and forms are kept in a
normal form: one left coefficient per strictly increasing index word.

The insertion operator is the structural primitive; evaluation of a
form on fields is derived from it through the R-matrix.  The grade-0
differential is fixed by the frame pairing, coframe differentials come
from the braided bracket of frame elements, and higher grades follow
the graded Leibniz rule.  The Lie derivative is the graded braided
commutator of insertion with the differential.
"""

import operator
from itertools import combinations, product

from .errors import (
    FramePairingSingular,
    GradeMismatch,
    IndexOutOfRange,
    InverseWitnessInvalid,
    NotInFrameSpan,
    NotInvertible,
    RankMismatch,
    UnknownModule,
    UnsupportedFrameBraiding,
)
from .hopf import TensorElement, _exp_to_word
from .modalg import coordinate_monomials
from .report import Report, carried, hoisted, violations
from .ring import (
    AlgebraElement,
    _add_terms,
    _derive,
    _leg_sum,
    _memo,
    _Terms,
)


def merge_words(w1, w2):
    """Sign-sorted merge of strictly increasing index words.
    Returns (sign, word), or None when an index repeats."""
    word = list(w1)
    sign = 1
    for idx in w2:
        pos = len(word)
        for p, existing in enumerate(word):
            if existing == idx:
                return None
            if existing > idx:
                pos = p
                break
        if (len(word) - pos) % 2:
            sign = -sign
        word.insert(pos, idx)
    return sign, tuple(word)


def increasing_words(dim, length):
    return list(combinations(range(dim), length))


# ---------------------------------------------------------------------
# matrices over the coordinate algebra
# ---------------------------------------------------------------------


def _identity_matrix(alg, n):
    return [
        [alg.one() if i == j else alg.zero() for j in range(n)]
        for i in range(n)
    ]


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        piece = rows[0][j] * _det(minor)
        if j % 2:
            piece = -piece
        total = piece if total is None else total + piece
    return total


def _cofactor(E, i, j):
    """Entry (i, j) of the adjugate: the signed minor of E without row j
    and column i."""
    minor = [[E[r][c] for c in range(len(E)) if c != i]
             for r in range(len(E)) if r != j]
    cof = _det(minor) if minor else E[0][0].algebra.one()
    return -cof if (i + j) % 2 else cof


def _mmul(mul, A, B):
    """Matrix product over the coordinate algebra, entries multiplied
    by `mul` (the plain product or the product in force)."""
    zero = A[0][0].algebra.zero()
    return [
        [sum((mul(row[k], B[k][j]) for k in range(len(B))), start=zero)
         for j in range(len(B[0]))]
        for row in A
    ]


def _inverse(mul, E, what):
    """Two-sided inverse of E for the product `mul`.  The plain adjugate
    over the determinant (which must be a unit) inverts E modulo h; as
    seed E = 1 - N with N of order h, E^-1 = (sum_k N^k) seed.  The
    result is verified once."""
    n = len(E)
    alg = E[0][0].algebra
    det = _det(E)
    try:
        dinv = det.inverse()
    except NotInvertible as exc:
        raise FramePairingSingular(
            "%s: determinant %r is not a unit" % (what, det)) from exc
    seed = [[_cofactor(E, i, j) * dinv for j in range(n)] for i in range(n)]
    ident = _identity_matrix(alg, n)
    resid = _mmul(mul, seed, E)
    N = [[ident[i][j] - resid[i][j] for j in range(n)] for i in range(n)]
    G = seed
    if any(not c.is_zero() for row in N for c in row):
        if any(c.min_h_order() < 1 for row in N for c in row):
            raise FramePairingSingular("%s: residual is not O(h)" % what)
        series = power = ident
        for _ in range(1, alg.ring.order):
            power = _mmul(mul, power, N)
            series = [
                [series[i][j] + power[i][j] for j in range(n)] for i in range(n)
            ]
        G = _mmul(mul, series, seed)
    if _mmul(mul, G, E) != ident or _mmul(mul, E, G) != ident:
        raise InverseWitnessInvalid(what)
    return G


def _act_rows(rows, vec):
    """A linear map given by {a: {b: Scalar}} rows on a vector {a: Scalar}."""
    return _add_terms({}, (
        (b, m * s) for a, s in vec.items() for b, m in rows[a].items()
    ))


# ---------------------------------------------------------------------
# graded objects
# ---------------------------------------------------------------------


class GradedObject(_Terms):
    """Coefficient-per-word normal form {strictly increasing word:
    AlgebraElement}; MultiVector and DifferentialForm tell the kinds
    apart.  The grade is part of the value: equality and the hash read
    it (as `_data`), so zeros of different grades differ, and a sum
    needs equal grades.  A zero may carry a negative grade, which is
    what inserting a field of higher grade leaves."""

    kind = ""

    __slots__ = ("cal", "grade", "_data")
    _ring = operator.attrgetter("cal.ring")
    _scalar_coefficients = False

    def __init__(self, cal, grade, terms):
        dim = cal.dim
        for word in terms:
            if len(word) != grade:
                raise GradeMismatch((word, grade))
            if grade:
                for p in range(grade - 1):
                    if word[p] >= word[p + 1]:
                        raise GradeMismatch(("word not increasing", word))
                if word[0] < 0 or word[-1] >= dim:
                    raise IndexOutOfRange((word, dim))
        self.cal = cal
        self.grade = self._data = grade
        _Terms.__init__(self, terms)

    def _like(self, terms):
        """A sibling over the same words; they need no validation."""
        new = object.__new__(type(self))
        new.cal = self.cal
        new.grade = new._data = self.grade
        _Terms.__init__(new, terms)
        return new

    def _check(self, other):
        kind = getattr(other, "kind", None)
        if kind != self.kind:
            raise GradeMismatch((self.kind, kind))
        if other.grade != self.grade:
            raise GradeMismatch((self.grade, other.grade))

    def left_mul(self, a):
        """Module action of an algebra element, product in force."""
        mul = self.cal.M.mul
        return self._like({w: mul(a, c) for w, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "%s(0; grade %d)" % (self.kind, self.grade)
        sym = "e" if self.kind == "mv" else "th"
        bits = []
        for w in sorted(self.terms):
            basis = "^".join("%s%d" % (sym, u) for u in w) or "1"
            bits.append("(%r)%s" % (self.terms[w], basis))
        return " + ".join(bits)


class MultiVector(GradedObject):
    kind = "mv"
    __slots__ = ()


class DifferentialForm(GradedObject):
    kind = "form"
    __slots__ = ()


# ---------------------------------------------------------------------
# the calculus
# ---------------------------------------------------------------------


class Calculus:
    """All Cartan operators of one instance: a module algebra with its
    product and R-matrix in force, over a fixed frame.  The frame is
    one row of coordinate images per coordinate (`images`; the
    coordinate frame by default), checked at construction against the
    hypotheses in the module docstring."""

    def __init__(self, M, frame_images=None):
        self.M = M
        self.alg = M.algebra
        self.lie = M.lie
        self.ring = self.alg.ring
        self.dim = n = self.alg.arity
        coordinate = [tuple(self.alg.one() if a == j else self.alg.zero()
                            for j in range(n)) for a in range(n)]
        rows = []
        for row in coordinate if frame_images is None else frame_images:
            row = tuple(row)
            if len(row) != n:
                raise IndexOutOfRange(("frame image arity", len(row)))
            rows.append(row)
        if len(rows) != n:
            raise RankMismatch(("frame fields", len(rows), n))
        self.images = tuple(rows)
        # None for the coordinate frame, whose solve is the identity
        self._Einv = (None if rows == coordinate else
                      _inverse(M.mul, rows, "frame matrix inverse in force"))
        self.rho = [self._solve_adjoint(i) for i in range(self.lie.dim)]
        self.dual_rho = [self._solve_dual(i) for i in range(self.lie.dim)]
        self._check_invisible_legs((M.hopf.R, M.hopf.Rinv), "R leg")
        self._check_derivation()

    # -- the frame ------------------------------------------------------

    def apply_base(self, a, f):
        """Frame element a as a plain vector field on an algebra element."""
        return _derive(self.images[a], f)

    def field_from_images(self, imgs):
        """The grade-1 field with coordinate images imgs, its left
        coefficients over the frame solved for the product in force."""
        if self._Einv is not None:
            imgs = _mmul(self.M.mul, [imgs], self._Einv)[0]
        return MultiVector(self, 1, {(b,): c for b, c in enumerate(imgs)})

    def _solve_adjoint(self, i):
        """Generator i on the frame, as rows {b: Scalar} of constant
        coefficients; constants multiply plainly in force, so the
        inverse in force finds them.  The coordinate images of xi |> e_a
        come from the structure in force,
        (xi |> X)(f) = xi_(1) |> (X(S(xi_(2)) |> f)),
        with each S(xi_(2)) |> x_j formed once for every frame element."""
        hopf, act, lie, alg = self.M.hopf, self.M.action.act, self.lie, self.alg
        legs = [(lie.monomial(l), c,
                 [act(hopf.antipode(lie.monomial(r)), alg.coord(j))
                  for j in range(alg.arity)])
                for l, r, c in hopf.coproduct(lie.gen(i)).pairs()]
        rows = []
        for a in range(self.dim):
            images = []
            for j in range(alg.arity):
                tot = alg.zero()
                for l, c, pulled in legs:
                    inner = self.apply_base(a, pulled[j])
                    if inner.is_zero():
                        continue
                    inner = act(l, inner)
                    if not inner.is_zero():
                        tot = tot + inner.scale(c)
                images.append(tot)
            row = {}
            for (b,), c in self.field_from_images(images).terms.items():
                if not c.is_scalar():
                    raise NotInFrameSpan(
                        "frame not closed under the adjoint action with "
                        "constant coefficients: %s |> e%d has coefficient "
                        "%r on e%d" % (lie.generators[i], a, c, b))
                row[b] = c.constant_scalar()
            rows.append(row)
        return rows

    def act_exp(self, exp, a, dual):
        """The PBW monomial exp on the frame (dual: coframe) basis
        element a, as {b: Scalar}; its rightmost letter acts first."""
        rows = self.dual_rho if dual else self.rho
        vec = {a: self.ring.scalar(1)}
        for letter in reversed(_exp_to_word(exp)):
            vec = _act_rows(rows[letter], vec)
            if not vec:
                break
        return vec

    def _solve_dual(self, i):
        """Coframe action of generator i, from the antipode in force:
        (xi |> theta^a)(e_b) = theta^a(S(xi) |> e_b)."""
        S = self.M.hopf.antipode(self.lie.gen(i))
        rows = [dict() for _ in range(self.dim)]
        for b in range(self.dim):
            for e, c in S.terms.items():
                for a, s in self.act_exp(e, b, False).items():
                    _add_terms(rows[a], ((b, s * c),))
        return rows

    def _check_invisible_legs(self, tensors, label):
        """Every non-unit leg of the rank-2 tensors acts as zero on the
        frame and on the coframe; `label` names the legs in the
        refusal."""
        legs = {e for tensor in tensors for pair in tensor.terms
                for e in pair if any(e)}
        for e in legs:
            for a in range(self.dim):
                for dual, what in ((False, "frame"), (True, "coframe")):
                    if self.act_exp(e, a, dual):
                        raise UnsupportedFrameBraiding(
                            (label + " acts on " + what, e, a)
                        )

    def _check_derivation(self):
        """Frame elements must be derivations of the product in force,
        on coordinate monomials of degree <= 2.  R-invisibility collapses
        the braided Leibniz rule to this.  Each product f g is formed
        once, and e_a of each f and of each distinct product once per a;
        the cases are compared in the order a, f, g, so the first failing
        one is reported."""
        mul = self.M.mul
        fam = coordinate_monomials(self.alg, 2)
        distinct = {}          # equal products share one object
        prods = [[distinct.setdefault(p, p) for p in (mul(f, g) for g in fam)]
                 for f in fam]
        for a in range(self.dim):
            moved = [self.apply_base(a, f) for f in fam]
            derived = {p: self.apply_base(a, p) for p in distinct}
            for f, df, row in zip(fam, moved, prods):
                for g, dg, fg in zip(fam, moved, row):
                    if derived[fg] != mul(df, g) + mul(f, dg):
                        raise UnsupportedFrameBraiding(
                            ("frame element is not a derivation in force",
                             a, repr(f), repr(g))
                        )

    # -- constructors ---------------------------------------------------

    def mv(self, grade, terms):
        return MultiVector(self, grade, terms)

    def form(self, grade, terms):
        return DifferentialForm(self, grade, terms)

    # the constants are built once per grade or letter, so that equal
    # memo keys are mostly the same object

    @_memo
    def zero_mv(self, grade):
        return MultiVector(self, grade, {})

    @_memo
    def zero_form(self, grade):
        return DifferentialForm(self, grade, {})

    def function(self, a):
        return MultiVector(self, 0, {(): a})

    def function_form(self, a):
        return DifferentialForm(self, 0, {(): a})

    @_memo
    def frame_field(self, u):
        return MultiVector(self, 1, {(u,): self.alg.one()})

    @_memo
    def coframe(self, u):
        return DifferentialForm(self, 1, {(u,): self.alg.one()})

    # -- Hopf structure in force -----------------------------------------

    def cop_pairs(self, exp):
        """Leg triples of the coproduct in force on one PBW monomial; the
        Hopf structure memoizes the tensor, and the tensor its pairs."""
        return self.M.hopf.coproduct_monomial(exp).pairs()

    # -- Hopf action on graded objects -------------------------------------

    @_memo
    def word_act(self, exp, word, dual):
        """Monomial action on a frame (or coframe) word:
        {word': Scalar}, legs split by the coproduct in force."""
        if not word:
            if any(exp):
                return {}
            return {(): self.ring.scalar(1)}
        if len(word) == 1:
            return {(b,): s for b, s in
                    self.act_exp(exp, word[0], dual).items()}
        out = {}
        for l, r, c in self.cop_pairs(exp):
            head = self.word_act(l, word[:1], dual)
            if not head:
                continue
            tail = self.word_act(r, word[1:], dual)
            for (b,), s1 in head.items():
                for w2, s2 in tail.items():
                    m = merge_words((b,), w2)
                    if m is not None:
                        s = s1 * s2 * c
                        _add_terms(out, ((m[1], s if m[0] > 0 else -s),))
        return out

    def h_act_exp(self, exp, obj):
        """One PBW monomial acting on a multivector or form.  The unit
        and a zero return obj itself before the memo: nearly half of
        all calls take that path, and `_SuiteValues.legged` relies on
        the unit returning the field itself."""
        if not any(exp) or obj.is_zero():
            return obj
        return self._h_act_exp(exp, obj)

    @_memo
    def _h_act_exp(self, exp, obj):
        dual = obj.kind == "form"
        out = {}
        for word, coeff in obj.terms.items():
            for l, r, c in self.cop_pairs(exp):
                wa = self.word_act(r, word, dual)
                if not wa:
                    continue
                ac = self.M.action.act_monomial(l, coeff)
                if ac.is_zero():
                    continue
                _add_terms(out, ((nw, ac.scale(s * c)) for nw, s in wa.items()))
        return type(obj)(self, obj.grade, out)

    def act_any(self, exp, obj):
        if isinstance(obj, AlgebraElement):
            return self.M.action.act_monomial(exp, obj)
        if isinstance(obj, GradedObject):
            return self.h_act_exp(exp, obj)
        raise UnknownModule(type(obj))

    # -- wedge ------------------------------------------------------------

    def wedge(self, U, V):
        if U.kind != V.kind:
            raise UnknownModule((U.kind, V.kind))
        out = {}
        for w1, c1 in U.terms.items():
            for w2, c2 in V.terms.items():
                m = merge_words(w1, w2)
                if m is not None:
                    c = self.M.mul(c1, c2)
                    _add_terms(out, ((m[1], c if m[0] > 0 else -c),))
        return type(U)(self, U.grade + V.grade, out)

    # -- grade-1 application and brackets ----------------------------------

    @_memo
    def apply_field(self, X, f):
        """A grade-1 field on an algebra element, product in force."""
        if X.grade != 1:
            raise GradeMismatch(X.grade)
        if f.is_zero():
            return f
        out = self.alg.zero()
        for (u,), c in X.terms.items():
            ef = self.apply_base(u, f)
            if not ef.is_zero():
                out = out + self.M.mul(c, ef)
        return out

    def bracket(self, X, Y):
        """Braided commutator of grade-1 fields, re-expressed over the
        frame: [X,Y] = X Y - (Rinv1 |> Y)(Rinv2 |> X) as operators.
        Unmemoized: projections call it on many distinct fields, and a
        memo would keep them all.  Zero at once when either field is: a
        quotient kills most of the fields a projection pushes."""
        if X.is_zero() or Y.is_zero():
            return self.zero_mv(1)
        Rinv = self.M.hopf.Rinv.pairs()
        imgs = []
        for j in range(self.alg.arity):
            xj = self.alg.coord(j)
            braided = _leg_sum(
                Rinv, self.h_act_exp, Y, X,
                lambda Ya, Xa: self.apply_field(Ya, self.apply_field(Xa, xj)),
                self.alg.zero(),
            )
            imgs.append(self.apply_field(X, self.apply_field(Y, xj)) - braided)
        return self.field_from_images(imgs)

    # -- Schouten bracket ---------------------------------------------------

    @_memo
    def schouten(self, X, Y):
        """Braided Schouten bracket [[X, Y]] of grade k + l - 1 (k, l the
        grades of X, Y; a pair of functions gives the zero of grade -1),
        computed by its defining laws.  On grade 1 and 0 it is
        [[X, a]] = X(a) and [[X, Y]] = [X, Y].  A right word of grade
        >= 2 is peeled by the graded braided Leibniz rule,
          [[X, c e_u ^ Z]] = [[X, c e_u]] ^ Z
                             + (-1)^(k-1) sum (Rinv1 |> c e_u) ^ [[Rinv2 |> X, Z]],
        and graded braided skew-symmetry puts the lower grade on the left
        in every other case,
          [[X, Y]] = -(-1)^((k-1)(l-1)) sum [[Rinv1 |> Y, Rinv2 |> X]].
        Memoized per pair of arguments."""
        k, l = X.grade, Y.grade
        if X.is_zero() or Y.is_zero() or k == l == 0:
            return self.zero_mv(k + l - 1)
        if k == 1 and l == 0:
            return self.function(self.apply_field(X, Y.terms.get((), self.alg.zero())))
        if k == 1 and l == 1:
            return self.bracket(X, Y)
        Rinv = self.M.hopf.Rinv.pairs()
        zero = out = self.zero_mv(k + l - 1)
        if l < 2:
            out = _leg_sum(Rinv, self.h_act_exp, Y, X, self.schouten, zero)
            return out if (k - 1) * (l - 1) % 2 else -out
        for word, c in Y.terms.items():
            head = self.mv(1, {word[:1]: c})
            tail = self.mv(l - 1, {word[1:]: self.alg.one()})
            braided = _leg_sum(
                Rinv, self.h_act_exp, head, X,
                lambda Ya, Xa: self.wedge(Ya, self.schouten(Xa, tail)), zero,
            )
            out = out + self.wedge(self.schouten(X, head), tail)
            out = out + braided if k % 2 else out - braided
        return out

    # -- insertion ----------------------------------------------------------

    @_memo
    def _insert_base(self, u, om):
        """Contraction of the bare frame letter u into a form."""
        out = {}
        for w, a in om.terms.items():
            if u in w:
                p = w.index(u)
                out[w[:p] + w[p + 1:]] = a if p % 2 == 0 else -a
        return DifferentialForm(self, om.grade - 1, out)

    def insert(self, X, om):
        """Insertion of a multivector into a form; the structural
        primitive of the calculus.  Unmemoized, as is `bracket`: a
        memo would keep every distinct result, and the check families
        make many; the bare-letter contractions it is built from are
        memoized.  The sum starts from the first contraction that
        survives; the memoized zero is returned only when none does."""
        if X.kind != "mv" or om.kind != "form":
            raise UnknownModule((X.kind, om.kind))
        if X.grade == 0:
            a = X.terms.get(())
            if a is None:
                return self.zero_form(om.grade)
            return om.left_mul(a)
        res = None
        if X.grade <= om.grade and not om.is_zero():
            for w, c in X.terms.items():
                cur = om
                for u in reversed(w):
                    cur = self._insert_base(u, cur)
                    if cur.is_zero():
                        break
                else:
                    cur = cur.left_mul(c)
                    res = cur if res is None else res + cur
        return self.zero_form(om.grade - X.grade) if res is None else res

    def eval_form(self, om, fields):
        """Evaluation on grade-1 fields, derived from insertion via the
        R-matrix in force."""
        if len(fields) != om.grade:
            raise GradeMismatch((om.grade, len(fields)))
        if om.is_zero() or not fields:
            return om.terms.get((), self.alg.zero())
        rest = fields[:-1]
        total = _leg_sum(
            self.M.hopf.R.pairs(), self.h_act_exp, om, fields[-1],
            lambda oma, Xa: self.eval_form(self.insert(Xa, oma), rest),
            self.alg.zero(),
        )
        return -total if om.grade % 2 == 0 else total

    # -- differential ---------------------------------------------------------

    @_memo
    def structure_constants(self, a, b):
        """{w: the e_w component} of the braided frame bracket
        [e_a, e_b], which the coframe differentials and
        `geometry.levi_civita` read; per pair, since the differentials
        read only the pairs a < b."""
        ab = self.bracket(self.frame_field(a), self.frame_field(b))
        return {w: c for (w,), c in ab.terms.items()}

    @_memo
    def _structure_forms(self):
        """Coframe differentials from the braided frame bracket:
        d theta^a = -sum_{b<c} [e_b, e_c]^a theta^b ^ theta^c."""
        out = [{} for _ in range(self.dim)]
        for b, c in combinations(range(self.dim), 2):
            for a, f in self.structure_constants(b, c).items():
                out[a][(b, c)] = -f
        return [DifferentialForm(self, 2, terms) for terms in out]

    @_memo
    def _d_word(self, w):
        if not w:
            return self.zero_form(1)
        dtheta = self._structure_forms()
        head = dtheta[w[0]]
        rest = DifferentialForm(self, len(w) - 1, {w[1:]: self.alg.one()})
        res = self.wedge(head, rest)
        drest = self._d_word(w[1:])
        if not drest.is_zero():
            res = res - self.wedge(self.coframe(w[0]), drest)
        return res

    @_memo
    def d(self, om):
        """The differential of a form, memoized per form."""
        if om.kind != "form":
            raise UnknownModule(om.kind)
        if om.is_zero():
            return self.zero_form(om.grade + 1)
        out = {}
        extra = self.zero_form(om.grade + 1)
        for w, a in om.terms.items():
            for u in range(self.dim):
                ea = self.apply_base(u, a)
                if ea.is_zero():
                    continue
                m = merge_words((u,), w)
                if m is not None:
                    _add_terms(out, ((m[1], ea if m[0] > 0 else -ea),))
            dw = self._d_word(w)
            if not dw.is_zero():
                extra = extra + dw.left_mul(a)
        return DifferentialForm(self, om.grade + 1, out) + extra

    def d0(self, a):
        return self.d(self.function_form(a))

    # -- Lie derivative ----------------------------------------------------

    @_memo
    def lie_derivative(self, X, om):
        """The Lie derivative L_X om, memoized per pair of arguments: the
        Cartan checks ask for most pairs many times."""
        if X.is_zero() or om.is_zero():
            return self.zero_form(om.grade + 1 - X.grade)
        return self.lie_from_insert(X, om, self.insert(X, om))

    def lie_from_insert(self, X, om, inserted):
        """L_X om = [i_X, d] om given inserted = i_X om, the one home of
        its formula, keeping nothing: for callers that hold i_X om
        already, such as both sides of `submanifold.projection_suite`,
        whose pairs never repeat, so a memo would keep every value and
        hit none."""
        first = self.insert(X, self.d(om))
        second = self.d(inserted)
        # [i_X, d] with deg i_X = -|X|: i_X d - (-1)^{|X|} d i_X
        return first + second if X.grade % 2 else first - second


# ---------------------------------------------------------------------
# graded braided commutators of Cartan operators
# ---------------------------------------------------------------------


def graded_commutator(cal, A, B, om, inner, legs):
    """[A, B]_R applied to a form:
      A B om - (-1)^{|A||B|} sum c B_{l |> Y} A_{r |> X} om
    over the legs (l, r, c) of Rinv in force, X and Y the parameters of
    A and B.  An operator is a triple (degree, parameter or None,
    apply(parameter, form)).  `inner` is B om, and `legs` holds
    (c, l |> Y, A_{r |> X} om) for each leg where neither image
    vanishes, as `_SuiteValues.cases` carries them.  An equivariant
    operator (parameter None) absorbs its leg through the counit, and
    `legs` is not read."""
    (da, pa, fa), (db, pb, fb) = A, B
    first = fa(pa, inner)
    if pa is None or pb is None:
        second = fb(pb, fa(pa, om))
    else:
        second = cal.zero_form(om.grade + da + db)
        for c, Bp, Aom in legs:
            second = second + fb(Bp, Aom).scale(c)
    return first - second if (da * db) % 2 == 0 else first + second


class _SuiteValues:
    """Values the cases of one suite's triple rows share, in lists
    aligned with the suite's fields, the legs (l, r, c) of Rinv in force
    and its forms: the left images l |> Y of the fields taken as Y
    (`ys`), for each leg whose left image survives on some Y the right
    image r |> X of every field, and operator values as rows over the
    forms (`rows` for an operator in B position, `legged` for one in A
    position).  Each is built once, when a row's cases first read it,
    so the build is timed into the first row that reads it."""

    def __init__(self, cal, fields, ys, forms):
        self.cal, self.fields, self.ys, self.forms = cal, fields, ys, forms

    @property
    @_memo
    def left(self):
        """Per Y, (k, c, l |> Y) for each leg k whose image survives."""
        cal = self.cal
        return [[(k, c, lY) for k, (l, _, c) in enumerate(cal.M.hopf.Rinv.pairs())
                 if not (lY := cal.h_act_exp(l, Y)).is_zero()] for Y in self.ys]

    @property
    @_memo
    def right(self):
        """Per X, {k: r |> X} for each leg k whose left image survives
        on some Y and whose right image survives."""
        cal, legs = self.cal, self.cal.M.hopf.Rinv.pairs()
        live = sorted({k for row in self.left for k, _, _ in row})
        return [{k: rX for k in live
                 if not (rX := cal.h_act_exp(legs[k][1], X)).is_zero()}
                for X in self.fields]

    @_memo
    def rows(self, apply, over_ys):
        """apply(Z, w) per Z of the ys (over_ys) or of the fields, and
        per form w."""
        return [[apply(Z, om) for om in self.forms]
                for Z in (self.ys if over_ys else self.fields)]

    @_memo
    def legged(self, apply):
        """Per field X, {k: the row of apply(r |> X, w) over the forms}
        over the legs k of the right images: h_act_exp returns X itself
        for a unit r, whose row is then X's own (the rows over the ys
        when the ys are the fields)."""
        rows = self.rows(apply, self.ys is self.fields)
        return [{k: row if rX is X else [apply(rX, om) for om in self.forms]
                 for k, rX in right.items()}
                for X, right, row in zip(self.fields, self.right, rows)]

    def cases(self, a, b, work=None):
        """Cases (X, Y, w[, work(X, Y)], B_Y w, legs) over fields x ys x
        forms, in that order, carrying what graded_commutator takes for
        A = a(r |> X, .) and B = b(Y, .): B_Y w from the rows of b over
        the ys and, from the legged rows of a, (c, l |> Y, A_{r |> X} w)
        per leg where neither image vanishes.  work(X, Y), when given,
        is done once per pair ahead of its forms, as in
        `report.hoisted`."""
        outer, inner = self.legged(a), self.rows(b, True)
        for X, at in zip(self.fields, outer):
            for Y, left, row in zip(self.ys, self.left, inner):
                shared = () if work is None else (work(X, Y),)
                legs = [(c, lY, at[k]) for k, c, lY in left if k in at]
                for w, om in enumerate(self.forms):
                    yield (X, Y, om) + shared + (
                        row[w], [(c, lY, vals[w]) for c, lY, vals in legs])


# ---------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------


def graded_family(make, dim, grades, coeffs):
    """make(k, {w: c}) (a multivector or form constructor) for each
    grade k in order, each increasing frame word w of that grade and
    each coefficient c in order."""
    return [make(k, {w: c}) for k in grades
            for w in increasing_words(dim, k) for c in coeffs]


def cartan_suite(cal, coeff_degree=2):
    """The six graded braided commutator identities of the calculus,
    plus the square of the differential and the two Lie derivative
    splitting rules, on a generated family: the fields are the frame
    words of grade 1 and 2 with coefficients of degree <= coeff_degree,
    the forms the frame words of grade <= 2 with coefficient 1 and x.
    The three triple rows share, through one `_SuiteValues`, the leg
    images of each field and the values i_Y w, L_Y w, i_{r |> X} w and
    L_{r |> X} w, each computed once, inside the search of the first
    row that reads it: the leg images and insertions in insert-insert,
    the Lie derivatives in lie-insert."""
    rep = Report(
        "cartan",
        {"wedge_grade": 2, "coeff_degree": coeff_degree,
         "twisted": cal.M.is_twisted},
    )
    fields = graded_family(cal.mv, cal.dim, (1, 2),
                           coordinate_monomials(cal.alg, coeff_degree))
    form_family = graded_family(cal.form, cal.dim, range(min(cal.dim, 2) + 1),
                                [cal.alg.one(), cal.alg.coord(0)])
    d = (1, None, lambda _, om: cal.d(om))

    def i(X):
        return (-X.grade, X, cal.insert)

    def L(X):
        return (1 - X.grade, X, cal.lie_derivative)

    values = _SuiteValues(cal, fields, fields, form_family)
    forms = list(product(form_family))
    rep.check("d-squared", "d . d = 0", violations(
        ("form",), forms, lambda om: cal.d(cal.d(om)).is_zero()))
    rep.check("insert-d", "[i_X, d] = L_X", violations(
        ("X", "form"), product(fields, form_family),
        lambda X, om: graded_commutator(cal, i(X), d, om, cal.d(om), None)
        == cal.lie_derivative(X, om)))
    rep.check("lie-d", "[L_X, d] = 0", violations(
        ("X", "form"), product(fields, form_family),
        lambda X, om: graded_commutator(
            cal, L(X), d, om, cal.d(om), None).is_zero()))
    rep.check("insert-insert", "[i_X, i_Y] = 0", violations(
        ("X", "Y", "form"), values.cases(cal.insert, cal.insert),
        lambda X, Y, om, iYom, legs:
            graded_commutator(cal, i(X), i(Y), om, iYom, legs).is_zero()))
    rep.check("lie-insert", "[L_X, i_Y] = i_{[[X,Y]]}", violations(
        ("X", "Y", "form"),
        values.cases(cal.lie_derivative, cal.insert, cal.schouten),
        lambda X, Y, om, Z, iYom, legs:
            graded_commutator(cal, L(X), i(Y), om, iYom, legs) == cal.insert(Z, om)))
    rep.check("lie-lie", "[L_X, L_Y] = L_{[[X,Y]]}", violations(
        ("X", "Y", "form"),
        values.cases(cal.lie_derivative, cal.lie_derivative, cal.schouten),
        lambda X, Y, om, Z, LYom, legs:
            graded_commutator(cal, L(X), L(Y), om, LYom, legs)
            == cal.lie_derivative(Z, om)))
    rep.check("lie-function", "L_a w = -(da) ^ w", violations(
        ("a", "form"),
        hoisted(product(coordinate_monomials(cal.alg, coeff_degree)), forms, cal.d0),
        lambda a, om, da:
            cal.lie_derivative(cal.function(a), om) == -cal.wedge(da, om)))
    grade1 = [X for X in fields if X.grade == 1]
    rep.check("lie-wedge-split", "L_{X^Y} = i_X L_Y + (-1)^{|Y|} L_X i_Y", violations(
        ("X", "Y", "form"), hoisted(product(grade1, grade1), forms, cal.wedge),
        lambda X, Y, om, XY: cal.lie_derivative(XY, om) == (
            cal.insert(X, cal.lie_derivative(Y, om))
            - cal.lie_derivative(X, cal.insert(Y, om)))))
    return rep


def schouten_suite(cal, coeff_degree=1):
    """Defining properties of the Schouten bracket on small families.
    The graded-leibniz row shares, through one `_SuiteValues` with the
    grade-1 fields as its forms, the leg images of each field and the
    values Y ^ Z and [[r |> X, Z]], each computed once, inside that
    row's search."""
    rep = Report("schouten", {"coeff_degree": coeff_degree})
    coeffs = coordinate_monomials(cal.alg, coeff_degree)
    fields = graded_family(cal.mv, cal.dim, (1, 2), coeffs)
    grade1 = [X for X in fields if X.grade == 1]
    Rinv = cal.M.hopf.Rinv.pairs()

    rep.check("grade1-function", "[[X, a]] = X(a)", violations(
        ("X", "a"), product(grade1, coeffs),
        lambda X, a: cal.schouten(X, cal.function(a))
        == cal.function(cal.apply_field(X, a))))
    rep.check("grade1-grade1", "[[X, Y]] = [X, Y]", violations(
        ("X", "Y"), product(grade1, grade1),
        lambda X, Y: cal.schouten(X, Y) == cal.bracket(X, Y)))

    def skew(X, Y):
        lhs = cal.schouten(Y, X)
        rhs = _leg_sum(Rinv, cal.h_act_exp, X, Y, cal.schouten,
                       cal.zero_mv(X.grade + Y.grade - 1))
        return lhs == (rhs if (X.grade - 1) * (Y.grade - 1) % 2 else -rhs)

    rep.check("graded-skew",
              "[[Y, X]] = -(-1)^{(k-1)(l-1)} [[Rinv1 |> X, Rinv2 |> Y]]",
              violations(("X", "Y"), product(fields, fields), skew))

    def leibniz(X, Y, Z, YZ, legs):
        lhs = cal.schouten(X, YZ)
        rhs = cal.wedge(cal.schouten(X, Y), Z)
        odd = (X.grade - 1) * Y.grade % 2
        for c, Ya, XaZ in legs:
            rhs = rhs + cal.wedge(Ya, XaZ).scale(-c if odd else c)
        return lhs == rhs

    values = _SuiteValues(cal, fields, grade1, grade1)
    rep.check(
        "graded-leibniz",
        "[[X, Y^Z]] = [[X,Y]]^Z + (-1)^{(k-1)l} (Rinv1|>Y)^[[Rinv2|>X, Z]]",
        violations(("X", "Y", "Z"), values.cases(cal.schouten, cal.wedge),
                   leibniz),
    )
    return rep


# ---------------------------------------------------------------------
# gauge transport between an untwisted and a twisted instance
# ---------------------------------------------------------------------


def gauge_transport(cl, tw, twist, obj):
    """Structural conversion of classical-instance objects into the
    twisted instance over the same coordinates and frame, under the
    hypothesis `gauge_suite` checks: functions and forms keep their
    coefficients, a grade-1 field is solved from the images of the
    coordinates under its deformation by `twist`, and a higher word is
    its first letter's transported field wedged with the bare letters
    after it."""
    if isinstance(obj, AlgebraElement):
        return obj
    if not isinstance(obj, GradedObject):
        raise UnknownModule(type(obj))
    if obj.kind == "form" or obj.grade == 0:
        return type(obj)(tw, obj.grade, obj.terms)
    if obj.grade == 1:
        return _transport_field(cl, tw, twist, obj)
    res = tw.zero_mv(obj.grade)
    for w, c in obj.terms.items():
        head = _transport_field(cl, tw, twist, cl.mv(1, {w[:1]: c}))
        res = res + tw.wedge(head, tw.mv(obj.grade - 1, {w[1:]: tw.alg.one()}))
    return res


def _transport_field(cl, tw, twist, X):
    Finv = twist.Finv.pairs()
    return tw.field_from_images([
        _leg_sum(Finv, cl.act_any, X, cl.alg.coord(j), cl.apply_field,
                 cl.alg.zero())
        for j in range(cl.alg.arity)
    ])


def deformed_binary(cl, twist, op, U, V):
    """Twist deformation of a binary operation on classical objects:
    op_F(U, V) = sum op(Finv1 |> U, Finv2 |> V)."""
    res = _leg_sum(twist.Finv.pairs(), cl.h_act_exp, U, V, op, None)
    if res is None:
        # only reachable when an input is already zero
        return op(U, V)
    return res


def gauge_suite(cl, tw, shadow=False, transport_twist=None):
    """Transport intertwinings between the untwisted and the twisted
    calculus: deformed wedge, Schouten bracket, Lie derivative,
    insertion and the differential, plus (when `shadow`) the classical
    shadow: T(obj), read back in the untwisted calculus, differs from
    obj by O(h).

    The structural transport rests on a hypothesis, checked before any
    row and refused with UnsupportedFrameBraiding otherwise: the two
    calculi have the same frame rows, the twist is normalized, and every
    non-unit leg of F and Finv acts as zero on the frame and on the
    coframe.  transport_twist replaces the twist of `tw` in the
    deformations and the transport; the falsification harness passes
    the swapped twist to demonstrate that a wrong transport direction
    is caught."""
    twist = tw.M.twist if transport_twist is None else transport_twist
    if tw.images != cl.images:
        raise UnsupportedFrameBraiding("the twisted calculus has another frame")
    unit = TensorElement.unit(twist.lie, 1)
    if twist.F.counit_leg(0) != unit or twist.F.counit_leg(1) != unit:
        raise UnsupportedFrameBraiding(("twist is not normalized", repr(twist.F)))
    cl._check_invisible_legs((twist.F, twist.Finv), "F leg")
    rep = Report("gauge", {"order": cl.ring.order})
    x = cl.alg.coord(0)
    y = cl.alg.coord(1) if cl.alg.arity > 1 else cl.alg.coord(0)
    fields = [
        cl.frame_field(0),
        cl.mv(1, {(0,): x}),
        cl.mv(1, {(min(1, cl.dim - 1),): y}),
        cl.mv(1, {(0,): x * y}),
    ]
    if cl.dim >= 2:
        fields.append(cl.mv(2, {(0, 1): x}))
    forms = [
        cl.coframe(0),
        cl.form(1, {(0,): y}),
        cl.form(1, {(min(1, cl.dim - 1),): x}),
    ]
    if cl.dim >= 2:
        forms.append(cl.form(2, {(0, 1): x}))

    def tr(obj):
        return gauge_transport(cl, tw, twist, obj)

    # each member transported once and carried beside it in the cases
    tfields = [(U, tr(U)) for U in fields]
    tforms = [(om, tr(om)) for om in forms]

    def intertwines(op, twisted_op):
        """Whether transport intertwines op_F with the twisted op."""
        return lambda U, V, tV, tU: (
            tr(deformed_binary(cl, twist, op, U, V)) == twisted_op(tU, tV))

    rep.check("wedge", "T(U ^_F V) = T(U) ^ T(V)", violations(
        ("U", "V"), carried(tfields, tfields),
        intertwines(cl.wedge, tw.wedge)))
    rep.check("schouten", "T([[X, Y]]_F) = [[T(X), T(Y)]]", violations(
        ("X", "Y"), carried(tfields, tfields),
        intertwines(cl.schouten, tw.schouten)))
    rep.check("lie", "T(L_X^F w) = L_{T(X)} T(w)", violations(
        ("X", "form"), carried(tfields, tforms),
        intertwines(cl.lie_derivative, tw.lie_derivative)))
    rep.check("insert", "T(i_X^F w) = i_{T(X)} T(w)", violations(
        ("X", "form"), carried(tfields, tforms),
        intertwines(cl.insert, tw.insert)))
    rep.check("differential", "T(d w) = d T(w)", violations(
        ("form",), tforms, lambda om, tom: tr(cl.d(om)) == tw.d(tom)))
    if shadow:
        rep.check("classical-shadow", "T(obj) = obj at h^0", violations(
            ("obj",), tfields + tforms,
            lambda obj, tobj: (type(obj)(cl, obj.grade, tobj.terms)
                               - obj).min_h_order() >= 1))
    return rep
