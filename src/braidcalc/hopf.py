"""Universal envelopes in the PBW basis and the Hopf structure in force.

A LieAlgebra is presented by structure constants over a coefficient
ring; its universal envelope is realized on the basis of ordered
monomials x_1^{a_1} ... x_m^{a_m}, stored as exponent tuples.  Products
are straightened generator by generator: a monomial times one generator
x_j moves x_j left past each trailing letter x_k with k > j by
x_k x_j = x_j x_k + [x_k, x_j], which terminates because every product
the rewrite leaves has a left factor of lower degree or is already in
normal form.  That one product is memoized and builds up its monomial
letter by letter, so its recursion is as deep as brackets nest, not as
long as the word; words and monomial products multiply by it letter by
letter.

Generators are primitive: cop(x) = x(x)1 + 1(x)x, eps(x) = 0,
S(x) = -x; the coproduct extends as an algebra map, the antipode as an
anti-map (word reversal with sign), the counit picks the coefficient of
the unit monomial.

TensorElement holds rank 1..3 tensors over the envelope with leg-wise
multiplication, leg embedding, the flip of two legs, leg maps and the
contraction of all legs; these are the raw material for coproduct
identities, R-matrices and twists.  HopfStructure holds the coproduct
and antipode in force, each given on PBW monomials, and the R-matrix
(with its inverse); twist.Twist is the structure a twist F gives.
"""

import operator
from itertools import product
from math import comb

from .errors import (
    BadPositions,
    IndexOutOfRange,
    JacobiViolation,
    RankMismatch,
    RingMismatch,
    SchemaError,
    WrongRing,
)
from .report import Report, violations
from .ring import (
    Ring,
    Scalar,
    _Terms,
    _accumulate,
    _add_terms,
    _exponent,
    _exponents_up_to,
    _memo,
    _monomials_repr,
    _rescale,
)


def _exp_to_word(exp):
    word = []
    for i, k in enumerate(exp):
        word.extend([i] * k)
    return tuple(word)


class LieAlgebra:
    """Structure constants + the PBW machinery of the envelope."""

    def __init__(self, ring, generators, brackets=None):
        """brackets maps (i, j) with i < j to {k: Scalar} for
        [x_i, x_j] = sum_k c_k x_k; omitted pairs commute."""
        if not isinstance(ring, Ring):
            raise WrongRing(("not a coefficient ring", ring))
        generators = tuple(generators)
        if len(set(generators)) != len(generators):
            raise SchemaError(("duplicate generator", generators))
        self.ring = ring
        self.generators = generators
        table = {}
        for (i, j), comps in (brackets or {}).items():
            if not (0 <= i < j < len(generators)):
                raise IndexOutOfRange(("bracket pair", (i, j)))
            comps = {
                k: (c if isinstance(c, Scalar) else ring.scalar(c))
                for k, c in comps.items()
            }
            comps = {k: c for k, c in comps.items() if not c.is_zero()}
            for k, c in comps.items():
                if not 0 <= k < len(generators):
                    raise IndexOutOfRange(("bracket component", k))
                if c.ring != ring:
                    raise RingMismatch((c.ring, ring))
            if comps:
                table[(i, j)] = comps
        self.brackets = table
        self.is_abelian = not table
        self._check_jacobi()

    @property
    def dim(self):
        return len(self.generators)

    def __repr__(self):
        return "LieAlgebra(%s; %s)" % (", ".join(self.generators), self.ring)

    # -- structure constants ------------------------------------------

    def bracket_components(self, i, j):
        """[x_i, x_j] as {k: Scalar}, any i, j."""
        if i == j:
            return {}
        if i < j:
            return self.brackets.get((i, j), {})
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    def _check_jacobi(self):
        m = self.dim
        br = self.bracket_components
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    # [x_i,[x_j,x_k]] + [x_j,[x_k,x_i]] + [x_k,[x_i,x_j]] = 0
                    if _add_terms({}, (
                        (l2, cl * cl2)
                        for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
                        for l, cl in br(b, c).items()
                        for l2, cl2 in br(a, l).items()
                    )):
                        raise JacobiViolation((i, j, k))

    # -- PBW products ---------------------------------------------------

    @_memo
    def times_generator(self, exp, j):
        """PBW product x^exp x_j as a HopfElement.

        x_j moves left past each letter x_k of x^exp with k > j by
        x_k x_j = x_j x_k + [x_k, x_j].  Writing x^exp = x^a y_1 ... y_r,
        where x^a holds the letters x_i with i <= j and y_1 <= ... <= y_r
        are the others, the product is built up letter by letter:
            (x^a y_1..y_t) x_j = ((x^a y_1..y_t-1) x_j) y_t
                                 + x^a y_1..y_t-1 [y_t, x_j].
        Every product this needs has a left factor of lower degree or is
        already in normal form, so the recursion is only as deep as
        brackets nest, not as long as the monomial."""
        head = exp[:j + 1] + (0,) * (self.dim - j - 1)
        out = self.monomial(head[:j] + (head[j] + 1,) + head[j + 1:])
        for k in range(j + 1, self.dim):
            comps = self.bracket_components(k, j).items()
            for _ in range(exp[k]):
                out = self._times_word(out, (k,))
                for l, c in comps:
                    out = out + self.times_generator(head, l).scale(c)
                head = head[:k] + (head[k] + 1,) + head[k + 1:]
        return out

    def _times_word(self, elem, word):
        """elem x_{w_1} ... x_{w_n}, one generator at a time."""
        for j in word:
            elem = HopfElement(
                self, *elem._expand(lambda e: self.times_generator(e, j)))
        return elem

    def normalize_word(self, word):
        """Word of generator indices -> its PBW normal form, a HopfElement."""
        word = tuple(word)
        for i in word:
            if not 0 <= i < self.dim:
                raise IndexOutOfRange(("generator", i, self.dim))
        return self._times_word(self.unit(), word)

    @_memo
    def monomial_product(self, ea, eb):
        """Product of two PBW monomials as a HopfElement."""
        if self.is_abelian:
            return HopfElement(self, {tuple(map(operator.add, ea, eb)):
                                      self.ring._one}, 1)
        return self._times_word(self.monomial(ea), _exp_to_word(eb))

    # -- element constructors -----------------------------------------

    def zero(self):
        return HopfElement(self, {})

    def unit(self, scalar=None):
        if scalar is None:
            return HopfElement(self, {(0,) * self.dim: self.ring._one}, 1)
        return HopfElement(self, {(0,) * self.dim: scalar})

    def gen(self, i):
        if not 0 <= i < self.dim:
            raise IndexOutOfRange(("generator", i, self.dim))
        e = [0] * self.dim
        e[i] = 1
        return HopfElement(self, {tuple(e): self.ring._one}, 1)

    def monomial(self, exp, coeff=None):
        exp = _exponent(exp, self.dim)
        if coeff is None:
            return HopfElement(self, {exp: self.ring._one}, 1)
        return HopfElement(self, {exp: coeff})

    def monomials_up_to(self, depth):
        """All PBW exponent tuples of total degree <= depth."""
        return _exponents_up_to(self.dim, depth)

    # -- Hopf structure maps on monomials -----------------------------

    @_memo
    def coproduct_monomial(self, exp):
        """cop(x^exp) as a rank-2 TensorElement; legs stay PBW because
        generator factors are multiplied in increasing order."""
        zero = (0,) * self.dim
        terms = {(zero, zero): self.ring._one}
        for i, a in enumerate(exp):
            if a == 0:
                continue
            # distinct keys: leg i of every term is still empty
            terms = {
                (l[:i] + (j,) + l[i + 1:], r[:i] + (a - j,) + r[i + 1:]):
                    tuple(x * comb(a, j) for x in n)
                for j in range(a + 1)
                for (l, r), n in terms.items()
            }
        return TensorElement(self, 2, terms, 1)

    @_memo
    def antipode_monomial(self, exp):
        """S(x^exp) = (-1)^deg * reversed word, PBW-normalized."""
        word = _exp_to_word(exp)
        res = self.normalize_word(tuple(reversed(word)))
        return -res if len(word) % 2 else res


class HopfElement(_Terms):
    """Envelope element: {PBW exponent tuple: Scalar}, stored
    fraction-free (see ring._Terms)."""

    __slots__ = ("lie", "_data")
    _ring = operator.attrgetter("lie.ring")

    def __init__(self, lie, terms, den=None):
        self.lie = self._data = lie
        _Terms.__init__(self, terms, den)

    def _like(self, terms, den=None):
        return HopfElement(self.lie, terms, den)

    def _check(self, other):
        if not isinstance(other, HopfElement) or other.lie is not self.lie:
            raise RingMismatch(("envelope mismatch", self.lie, other))

    def __mul__(self, other):
        self._check(other)
        ea, eb = self._unit_monomial(), other._unit_monomial()
        if ea is not None and eb is not None:
            return self.lie.monomial_product(ea, eb)
        prod = self.lie.monomial_product
        mul, add = self.lie.ring._mul, self.lie.ring._add
        out, den = {}, 1
        for ea, na in self._map.items():
            for eb, nb in other._map.items():
                c = mul(na, nb)
                if any(c):
                    p = prod(ea, eb)
                    out, den = _accumulate(
                        out, den, ((e, mul(c, s)) for e, s in p._map.items()),
                        p._den, add)
        return HopfElement(self.lie, out, den * self._den * other._den)

    # -- Hopf maps ----------------------------------------------------

    def counit(self):
        ring = self.lie.ring
        n = self._map.get((0,) * self.lie.dim)
        return ring.zero() if n is None else Scalar(ring, n, self._den)

    def __repr__(self):
        return _monomials_repr(self.terms, self.lie.generators)


class TensorElement(_Terms):
    """Rank 1..3 tensor over the envelope: {tuple of exponent tuples:
    Scalar}, stored fraction-free (see ring._Terms)."""

    __slots__ = ("lie", "rank", "_data", "_pairs")
    _ring = operator.attrgetter("lie.ring")

    def __init__(self, lie, rank, terms, den=None):
        if not 1 <= rank <= 3:
            raise RankMismatch(("tensor rank must be 1..3", rank))
        self.lie = lie
        self.rank = rank
        self._data = (lie, rank)
        _Terms.__init__(self, terms, den)
        self._pairs = None

    def _like(self, terms, den=None):
        return TensorElement(self.lie, self.rank, terms, den)

    @classmethod
    def unit(cls, lie, rank):
        zero = (0,) * lie.dim
        return cls(lie, rank, {(zero,) * rank: lie.ring._one}, 1)

    def _check(self, other):
        if not isinstance(other, TensorElement) or other.lie is not self.lie:
            raise RingMismatch(("envelope mismatch", self.lie, other))
        if other.rank != self.rank:
            raise RankMismatch((self.rank, other.rank))

    def __mul__(self, other):
        """Legwise product, each leg PBW-renormalized."""
        self._check(other)
        if self.rank == 2:
            out, den = self._times2(other)
        else:
            out, den = self._times_legs(other)
        return TensorElement(self.lie, self.rank, out,
                             den * self._den * other._den)

    def _times2(self, other):
        """The rank-2 product as (numerator map, denominator): each term
        pair's two leg products fold straight into the output map, the
        pair's coefficient carrying the rescale to the common
        denominator."""
        prod = self.lie.monomial_product
        mul, add = self.lie.ring._mul, self.lie.ring._add
        out, den = {}, 1
        for (la, ra), na in self._map.items():
            for (lb, rb), nb in other._map.items():
                c = mul(na, nb)
                if not any(c):
                    continue
                pl, pr = prod(la, lb), prod(ra, rb)
                out, den, f = _rescale(out, den, pl._den * pr._den)
                if f != 1:
                    c = tuple(x * f for x in c)
                right = pr._map.items()
                # zero sums and vanishing truncated products drop
                for el, sl in pl._map.items():
                    cl = mul(c, sl)
                    for er, sr in right:
                        v = mul(cl, sr)
                        prev = out.get((el, er))
                        if prev is not None:
                            v = add(prev, v)
                        if any(v):
                            out[el, er] = v
                        elif prev is not None:
                            del out[el, er]
        return out, den

    def _times_legs(self, other):
        """The product of rank 1 or 3 as (numerator map, denominator),
        leg by leg."""
        prod = self.lie.monomial_product
        mul, add = self.lie.ring._mul, self.lie.ring._add
        out, den = {}, 1
        for ka, na in self._map.items():
            for kb, nb in other._map.items():
                c = mul(na, nb)
                if not any(c):
                    continue
                # distribute the per-leg products (distinct keys); zero
                # numerators of a truncated product drop in the fold
                partial, d = {(): c}, 1
                for leg in range(self.rank):
                    p = prod(ka[leg], kb[leg])
                    partial = {
                        pk + (e,): mul(pc, s)
                        for pk, pc in partial.items()
                        for e, s in p._map.items()
                    }
                    d *= p._den
                out, den = _accumulate(out, den, partial.items(), d, add)
        return out, den

    # -- leg surgery ----------------------------------------------------

    def embed(self, rank, positions):
        """Place legs at `positions` of a rank-`rank` tensor, units elsewhere."""
        positions = tuple(positions)
        if len(positions) != self.rank or len(set(positions)) != self.rank:
            raise BadPositions(positions)
        if not all(0 <= p < rank for p in positions):
            raise BadPositions((positions, rank))
        zero = (0,) * self.lie.dim
        out = {}
        for k, n in self._map.items():
            key = [zero] * rank
            for leg, p in enumerate(positions):
                key[p] = k[leg]
            out[tuple(key)] = n
        return TensorElement(self.lie, rank, out, self._den)

    def flip(self):
        """The two legs of a rank-2 tensor swapped (R21, cop_op)."""
        if self.rank != 2:
            raise BadPositions((1, 0))
        return TensorElement(self.lie, 2, {(r, l): n for (l, r), n
                                           in self._map.items()}, self._den)

    def map_leg(self, idx, fn, out_rank_delta=0):
        """Replace leg idx by fn(exponent tuple) -> HopfElement or
        TensorElement; tensor results splice their legs in place."""
        if not 0 <= idx < self.rank:
            raise IndexOutOfRange(("leg", idx, self.rank))
        mul, add = self.lie.ring._mul, self.lie.ring._add
        out, den = {}, 1
        for k, n in self._map.items():
            img = fn(k[idx])
            pieces = img._map.items()
            if isinstance(img, HopfElement):
                pieces = (((e,), s) for e, s in pieces)
            out, den = _accumulate(out, den, (
                (k[:idx] + sub + k[idx + 1:], mul(n, s)) for sub, s in pieces
            ), img._den, add)
        return TensorElement(self.lie, self.rank + out_rank_delta, out,
                             den * self._den)

    def counit_leg(self, idx):
        """Contract leg idx with the counit."""
        zero = (0,) * self.lie.dim
        if self.rank == 1:
            raise RankMismatch("cannot drop the only leg")
        # distinct keys: the dropped leg is zero in every kept term
        out = {k[:idx] + k[idx + 1:]: n
               for k, n in self._map.items() if k[idx] == zero}
        return TensorElement(self.lie, self.rank - 1, out, self._den)

    def contract(self):
        """Multiply all legs together into one HopfElement, every term's
        leg product expanded into one numerator map."""
        lie = self.lie
        prod = lie.monomial_product
        zero = (0,) * lie.dim

        def legs(k):
            p = prod(k[0], k[1] if self.rank > 1 else zero)
            for e in k[2:]:
                p = p * prod(zero, e)
            return p

        return HopfElement(lie, *self._expand(legs))

    def as_hopf(self):
        if self.rank != 1:
            raise RankMismatch(("as_hopf of a rank-%d tensor" % self.rank))
        return HopfElement(self.lie, {k[0]: n for k, n in self._map.items()},
                           self._den)

    def pairs(self):
        """Rank-2 terms as (left exponent, right exponent, Scalar)
        triples, the legs `ring._leg_sum` takes; built once per tensor,
        as the scaling of a whole element takes a Scalar."""
        if self.rank != 2:
            raise RankMismatch("pairs of a rank-%d tensor" % self.rank)
        if self._pairs is None:
            ring, den = self.lie.ring, self._den
            self._pairs = tuple((l, r, Scalar(ring, n, den))
                                for (l, r), n in self._map.items())
        return self._pairs

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for k in sorted(terms):
            c = terms[k]
            legs = " (x) ".join(repr(self.lie.monomial(e)) for e in k)
            parts.append("%s * [%s]" % (c, legs))
        return " + ".join(parts)


class HopfStructure:
    """The triangular Hopf structure in force on an envelope: its own
    coproduct and antipode, and the R-matrix R = Rinv = 1(x)1.  It is
    the twist of itself by F = 1(x)1; its subclass twist.Twist is the
    twist by any other F.  Both maps are given on PBW monomials, by
    `coproduct_monomial` and `antipode_monomial`, and extended linearly
    here.  Each class names its laws and antipode counterexample keys."""

    laws = ("(cop (x) id) cop = (id (x) cop) cop",
            "(eps (x) id) cop = id = (id (x) eps) cop",
            "mu(S (x) id)cop = eta eps = mu(id (x) S)cop")
    antipode_keys = ("monomial", "mu(S(x)id)cop", "mu(id(x)S)cop", "eta eps")

    def __init__(self, lie):
        self.lie = lie
        self.R = self.Rinv = TensorElement.unit(lie, 2)

    def coproduct_monomial(self, exp):
        """The coproduct in force on one PBW monomial, a rank-2 tensor."""
        return self.lie.coproduct_monomial(exp)

    def antipode_monomial(self, exp):
        """The antipode in force on one PBW monomial, a HopfElement."""
        return self.lie.antipode_monomial(exp)

    def coproduct(self, xi):
        e = xi._unit_monomial()
        if e is not None:
            return self.coproduct_monomial(e)
        return TensorElement(self.lie, 2, *xi._expand(self.coproduct_monomial))

    def antipode(self, xi):
        e = xi._unit_monomial()
        if e is not None:
            return self.antipode_monomial(e)
        return HopfElement(self.lie, *xi._expand(self.antipode_monomial))

    def coproduct_leg(self, tensor, idx):
        """The coproduct in force applied to leg idx of a tensor."""
        return tensor.map_leg(idx, self.coproduct_monomial, 1)


# ---------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------


def hopf_axioms(rep, hopf, depth):
    """Coassociativity, counit and antipode of the structure `hopf` on
    every PBW monomial of degree <= depth, added to `rep`."""
    lie = hopf.lie
    monos = [lie.monomial(e) for e in lie.monomials_up_to(depth)]
    coassociativity, counit, antipode = hopf.laws

    def coassociative(xi):
        cop = hopf.coproduct(xi)
        return hopf.coproduct_leg(cop, 0) == hopf.coproduct_leg(cop, 1)

    rep.check("coassociativity", coassociativity,
              violations(("monomial",), product(monos), coassociative))

    def counital(xi):
        cop = hopf.coproduct(xi)
        return cop.counit_leg(0).as_hopf() == xi and cop.counit_leg(1).as_hopf() == xi

    rep.check("counit", counit, violations(("monomial",), product(monos), counital))

    def antipode_cases():
        for xi in monos:
            cop = hopf.coproduct(xi)
            target = lie.unit(xi.counit())
            lhs = cop.map_leg(0, hopf.antipode_monomial).contract()
            rhs = cop.map_leg(1, hopf.antipode_monomial).contract()
            yield xi, lhs, rhs, target

    rep.check("antipode", antipode,
              violations(hopf.antipode_keys, antipode_cases(),
                         lambda xi, lhs, rhs, target: lhs == target and rhs == target))


class _TableAntipode(HopfStructure):
    """The envelope's coproduct with the antipode an anti-map given on
    generators by a table, -x_i where the table has no entry."""

    def __init__(self, lie, table):
        HopfStructure.__init__(self, lie)
        self.table = table

    def antipode_monomial(self, exp):
        out = self.lie.unit()
        for i in reversed(_exp_to_word(exp)):
            img = self.table.get(i)
            out = out * (-self.lie.gen(i) if img is None else img)
        return out


def check_hopf(lie, depth=3, antipode_table=None):
    """Hopf axioms on every PBW monomial of degree <= depth.

    antipode_table optionally overrides S on single generators (used by
    the falsification harness to confirm the checks can fail)."""
    rep = Report("hopf", {"depth": depth, "generators": lie.generators})
    hopf = (HopfStructure(lie) if antipode_table is None
            else _TableAntipode(lie, antipode_table))
    hopf_axioms(rep, hopf, depth)

    small = lie.monomials_up_to(max(1, depth // 2 + 1))
    pairs = product(
        (lie.monomial(ea), lie.monomial(eb))
        for ea, eb in product(small, small) if sum(ea) + sum(eb) <= depth
    )

    def multiplicative(pair):
        a, b = pair
        return hopf.coproduct(a * b) == hopf.coproduct(a) * hopf.coproduct(b)

    rep.check("coproduct-multiplicative", "cop(xy) = cop(x) cop(y)",
              violations(("pair",), pairs, multiplicative))
    return rep


def check_triangular(hopf, depth=3):
    """Quasi-cocommutativity, hexagons, unitarity and QYBE of the
    R-matrix of a Hopf structure against its coproduct."""
    rep = Report("triangular", {"depth": depth})
    lie = hopf.lie
    R, Rinv = hopf.R, hopf.Rinv
    unit2 = TensorElement.unit(lie, 2)

    def quasi_cocommutative(xi):
        delta = hopf.coproduct(xi)
        return delta.flip() * R == R * delta

    rep.check("quasi-cocommutativity", "cop_op(xi) R = R cop(xi)", violations(
        ("monomial",), product(lie.monomial(e) for e in lie.monomials_up_to(depth)),
        quasi_cocommutative))

    r13 = R.embed(3, (0, 2))
    rep.check("hexagon-left", "(cop (x) id)(R) = R13 R23", violations(
        ("lhs",), [(hopf.coproduct_leg(R, 0), r13 * R.embed(3, (1, 2)))],
        operator.eq))
    rep.check("hexagon-right", "(id (x) cop)(R) = R13 R12", violations(
        ("lhs",), [(hopf.coproduct_leg(R, 1), r13 * R.embed(3, (0, 1)))],
        operator.eq))

    ok = R * Rinv == unit2 and Rinv * R == unit2
    rep.add("r-inverse", "R Rinv = 1 (x) 1 = Rinv R", ok)

    rep.check("unitarity", "R21 = Rinv",
              violations(("R21", "Rinv"), [(R.flip(), Rinv)], operator.eq))

    lhs3 = R.embed(3, (0, 1)) * R.embed(3, (0, 2)) * R.embed(3, (1, 2))
    rhs3 = R.embed(3, (1, 2)) * R.embed(3, (0, 2)) * R.embed(3, (0, 1))
    rep.add("qybe", "R12 R13 R23 = R23 R13 R12", lhs3 == rhs3)
    return rep
