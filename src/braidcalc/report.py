"""Check results and reports.

A Check records one verified identity: a stable name, the symbolic law
it tested, pass/fail, and on failure the first counterexample found
(rendered so it can be re-verified by hand).  Reports aggregate checks;
the structured rendering is deterministic (no wall-clock data), the
text rendering carries per-check timing for humans.
"""


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

    def record(self, name, law, bad):
        """Add a check from its first counterexample (None: it passed)."""
        self.add(name, law, bad is None, bad)

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
