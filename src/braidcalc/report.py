"""Check results and reports.

A Check records one verified identity: a stable name, the symbolic law
it tested, pass/fail, and on failure the first counterexample found
(rendered so it can be re-verified by hand).  Every law over a family
is a search for a first counterexample: `violations` renders each one,
and `Report.check` runs the search to its first hit and times it.
Reports aggregate checks; the structured rendering is deterministic (no
wall-clock data), the text rendering carries per-check timing for
humans.
"""

import time


def violations(names, cases, holds):
    """Counterexamples to a law, lazily: for each case (a tuple) where
    `holds(*case)` is false, {name: repr(value)} over the leading values
    of the case.  Values past the last name are work hoisted out of
    `holds` by the case generator, and are not shown."""
    for case in cases:
        if not holds(*case):
            yield {name: repr(value) for name, value in zip(names, case)}


def hoisted(outer, inner, work):
    """Cases `outer + inner + (work(*outer),)` over every outer and inner
    case (tuples both): the work an outer case shares with all its inner
    cases is done once and carried as a trailing value, which
    `violations` leaves out of the counterexample.  An inner case may
    carry precomputed trailing values too, such as `(member, image)`
    with the member's image under a map, so that work is done once per
    member rather than once per case; as long as the names given to
    `violations` stop before them, they stay out of the counterexample
    as well."""
    inner = list(inner)
    for o in outer:
        shared = work(*o)
        for i in inner:
            yield o + i + (shared,)


def carried(outer, inner):
    """Cases `(member,) + inner + (image,)` over each (member, image) of
    `outer` and each case of the list `inner` (tuples): as `hoisted`,
    with the outer work done once per member ahead of the rows and
    carried beside it, so that no row computes the image again."""
    for member, image in outer:
        for i in inner:
            yield (member,) + i + (image,)


class Check:
    __slots__ = ("name", "law", "passed", "counterexample", "seconds")

    def __init__(self, name, law, passed, counterexample=None, seconds=0.0):
        self.name = name
        self.law = law
        self.passed = bool(passed)
        self.counterexample = counterexample
        self.seconds = seconds

    def as_dict(self):
        return {
            "name": self.name,
            "law": self.law,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }

    def __repr__(self):
        return "Check(%r, passed=%r)" % (self.name, self.passed)


class Report:
    """Ordered collection of Checks plus free-form metadata."""

    def __init__(self, title, meta=None):
        self.title = title
        self.meta = dict(meta or {})
        self.checks = []

    def add(self, name, law, passed, counterexample=None, seconds=0.0):
        self.checks.append(Check(name, law, passed, counterexample, seconds))

    def check(self, name, law, found):
        """Add a search row: the first item of the iterable `found` is
        its counterexample (none: the law held).  The search is timed
        into Check.seconds."""
        start = time.perf_counter()
        bad = next(iter(found), None)
        self.add(name, law, bad is None, bad, time.perf_counter() - start)

    def extend(self, other):
        self.checks.extend(other.checks)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failing(self):
        return [c for c in self.checks if not c.passed]

    def as_dict(self):
        return {
            "title": self.title,
            "meta": {k: self.meta[k] for k in sorted(self.meta)},
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }

    def to_text(self):
        lines = ["== %s ==" % self.title]
        for k in sorted(self.meta):
            lines.append("   %s: %s" % (k, self.meta[k]))
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append("[%s] %-42s %s  (%.3fs)" % (mark, c.name, c.law, c.seconds))
            if not c.passed and c.counterexample is not None:
                lines.append("       counterexample: %s" % (c.counterexample,))
        lines.append("-- %d checks, %d failing --" % (
            len(self.checks), len(self.failing())))
        return "\n".join(lines) + "\n"
