"""Self-test of the tracer; every traced run starts with it.

    python3 perfbench/selftest.py

Checks the self-time, group-time, argument-key and span bookkeeping on
a synthetic call tree timed by a fake clock (`ring` calls and short calls
are counted but leave no span), and that installing the wrappers on the
real engine replaces every binding of a wrapped function and
uninstalling restores each one.
"""

import sys

from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def synthetic_problems(errors):
    clock = FakeClock()
    groups = {"nest": {"calculus.nest"}, "mid": {"calculus.mid", "calculus.nest"}}
    tracer = Tracer(errors, groups, keyed=["calculus.nest"], clock=clock,
                    min_span=1.0)
    fn = {}

    def root():
        clock.advance(1.0)
        fn["mid"]()
        fn["mid"]()
        try:
            fn["refuse"]()
        except errors.EngineError:
            pass

    def mid():
        clock.advance(2.0)
        fn["leaf"]()
        fn["nest"](2)

    def leaf():
        clock.advance(4.0)

    def nest(depth):
        clock.advance(0.5)
        if depth:
            fn["nest"](depth - 1)

    def refuse():
        clock.advance(0.25)
        raise errors.NotInvertible("synthetic")

    for name, f in (("cli.root", root), ("calculus.mid", mid),
                    ("ring.leaf", leaf), ("calculus.nest", nest),
                    ("twist.refuse", refuse)):
        fn[name.split(".")[1]] = tracer.wrap(name, f)
    fn["root"]()
    got = tracer.item_summary()
    # root 1 + 2 * (mid 2 + leaf 4 + nest 3 * 0.5) + refuse 0.25
    want = {"cli.root": (1, 1.0, 0), "calculus.mid": (2, 4.0, 0),
            "ring.leaf": (2, 8.0, 0), "calculus.nest": (6, 3.0, 0),
            "twist.refuse": (1, 0.25, 1)}
    problems = []
    for name, (calls, self_s, errs) in want.items():
        row = got["names"].get(name, {})
        got_row = (row.get("calls"), row.get("self_s"), row.get("errors"))
        if got_row != (calls, self_s, errs):
            problems.append("synthetic %s: got %r, want %r"
                            % (name, row, (calls, self_s, errs)))
    total = sum(row["self_s"] for row in got["names"].values())
    if total != clock.now or clock.now != 16.25:
        problems.append("self times sum to %r, root span lasted %r"
                        % (total, clock.now))
    if got["names"]["calculus.nest"]["distinct"] != 3:   # depths 2, 1, 0
        problems.append("nest: %r distinct argument keys, want 3"
                        % got["names"]["calculus.nest"]["distinct"])
    if got["groups"] != {"nest": 3.0, "mid": 15.0}:
        problems.append("group times %r, want nest 3.0, mid 15.0" % got["groups"])
    # ring calls and calls shorter than min_span leave no span
    spans = [(name, parent) for _, name, _, _, parent in got["spans"]]
    want_spans = [("cli.root", -1), ("calculus.mid", 0), ("calculus.nest", 1),
                  ("calculus.nest", 2), ("calculus.mid", 0),
                  ("calculus.nest", 5), ("calculus.nest", 6)]
    if spans != want_spans:
        problems.append("spans %r, want %r" % (spans, want_spans))
    return problems


def bindings(modules):
    """Every (place, function) binding in `modules`: module globals, the
    tuples they hold, and the attributes of the classes they define."""
    out = []

    def visit(where, obj):
        if isinstance(obj, tuple):
            for i, x in enumerate(obj):
                visit("%s[%d]" % (where, i), x)
            return
        fn = getattr(obj, "__func__", obj)
        if callable(fn) and not isinstance(fn, type):
            out.append((where, fn))

    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            visit("%s.%s" % (layer, attr), obj)
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for cattr, raw in vars(obj).items():
                    visit("%s.%s.%s" % (layer, attr, cattr), raw)
    return out


def binding_problems(mods, errors):
    before = bindings(mods)
    tracer = Tracer(errors)
    tracer.install(mods)
    try:
        originals = {id(f) for f in tracer.originals.values()}
        missed = [where for where, f in bindings(mods) if id(f) in originals]
        cli, ring = mods["cli"], mods["ring"]
        spots = [("cli.check_hopf", cli.check_hopf),
                 ("cli._RUNNERS[0][1]", cli._RUNNERS[0][1]),
                 ("ring.Scalar.__mul__", ring.Scalar.__mul__),
                 ("twist.Twist.trivial", vars(mods["twist"].Twist)["trivial"].__func__)]
        missed += [where for where, f in spots if f not in tracer.wrappers]
    finally:
        tracer.uninstall()
    problems = ["%s still bound to the original while traced" % w for w in missed]
    after = bindings(mods)
    if [(w, id(f)) for w, f in after] != [(w, id(f)) for w, f in before]:
        problems.append("uninstall did not restore every binding")
    problems += ["%s still wrapped after uninstall" % w
                 for w, f in after if f in tracer.wrappers]
    return problems


def run(mods, errors):
    """Problems found; empty when the tracer works."""
    return synthetic_problems(errors) + binding_problems(mods, errors)


if __name__ == "__main__":
    import run as bench
    sys.path.insert(0, str(bench.SRC))
    mods = bench.import_engine()
    found = run(mods, sys.modules["braidcalc.errors"])
    for line in found:
        print(line)
    print("tracer self-test: %s" % ("FAIL" if found else "ok"))
    sys.exit(1 if found else 0)
