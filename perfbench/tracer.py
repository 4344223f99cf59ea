"""Runtime tracer for the braidcalc engine.

`Tracer.install` wraps the public functions and methods of each engine
module at every place they are bound: module globals (including the
names `cli` imports with `from .x import y`), tuples held in module
globals (the `cli` runner table) and class attributes.  `uninstall`
puts the original objects back.  Nothing under `src/` is edited.

Every wrapped call adds to per-name totals: calls, self time (its
duration minus the time covered by the wrapped calls it made) and engine
errors raised out of it.  Calls into the `ring` layer (10^5 to 10^6 per
item) are only counted.  A call into any other layer that lasts at least
`min_span` seconds is also kept as a span `(id, name, start, end,
parent id)`.

Not wrapped, because they are constant-time and called millions of
times: properties, `is_zero`, `zero`, `one`, and the constructors of the
value classes in VALUE_CLASSES.  Their time counts to their caller.
"""

import functools
import itertools
import time
from collections import defaultdict

LAYERS = ("ring", "hopf", "twist", "modalg", "calculus", "geometry",
          "submanifold", "report", "cli")
# Layers whose calls are counted but never kept as spans.
AGGREGATE_ONLY = ("ring",)
# Dunder methods that do engine work; other dunders are left unwrapped.
DUNDERS = ("__init__", "__call__", "__mul__", "__add__", "__sub__",
           "__neg__", "__pow__")
SKIPPED = ("is_zero", "zero", "one")
VALUE_CLASSES = ("Scalar", "AlgebraElement", "HopfElement", "TensorElement",
                 "GradedObject", "Check")


def _arg_key(args):
    return tuple(tuple(a) if isinstance(a, list) else a for a in args)


class Tracer:
    def __init__(self, errors, groups=None, keyed=(), clock=time.perf_counter,
                 min_span=1e-3):
        """`errors` is the engine's error module: engine errors raised out
        of a wrapped call are counted, except the scenario-shape ones.
        `groups` maps a label to a set of wrapped names; the label's time
        is the duration of the calls to its names that are not nested in
        another call to one of them.  For the wrapped names in `keyed` the
        distinct argument keys are counted; a key is the receiver plus the
        arguments, as the engine's own caches key them."""
        self.clock = clock
        self.min_span = min_span
        self.error_type = errors.EngineError
        self.fatal = (errors.SchemaError, errors.MissingSection,
                      errors.UnknownName)
        self.groups = dict(groups or {})
        self.keyed = frozenset(keyed)
        self.stack = []            # child time of each open call
        self.open_spans = []       # ids of the open non-ring calls
        self.spans = []            # (id, name, start, end, parent id or -1)
        self.ids = itertools.count()
        self.stats = defaultdict(lambda: [0, 0.0, 0])  # calls, self_s, errors
        self.keys = defaultdict(set)
        self.group_s = dict.fromkeys(self.groups, 0.0)
        self.group_depth = dict.fromkeys(self.groups, 0)
        self.originals = {}        # wrapped name -> original function
        self.wrappers = set()
        self._restore = []         # (owner, attribute, original value)

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn):
        """Return `fn` wrapped so each call records under `name`."""
        clock, stack, open_spans, spans, ids = (
            self.clock, self.stack, self.open_spans, self.spans, self.ids)
        min_span, error_type, fatal = self.min_span, self.error_type, self.fatal
        st = self.stats[name]
        seen = self.keys[name] if name in self.keyed else None
        keep_span = name.split(".", 1)[0] not in AGGREGATE_ONLY
        groups = [g for g, members in self.groups.items() if name in members]
        group_s, group_depth = self.group_s, self.group_depth

        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(_arg_key(args))
            if keep_span:
                sid = next(ids)
                parent = open_spans[-1] if open_spans else -1
                open_spans.append(sid)
            for g in groups:
                group_depth[g] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except error_type as exc:
                if not isinstance(exc, fatal):
                    st[2] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                st[0] += 1
                st[1] += dur - frame[0]
                for g in groups:
                    group_depth[g] -= 1
                    if not group_depth[g]:
                        group_s[g] += dur
                if keep_span:
                    open_spans.pop()
                    if dur >= min_span:
                        spans.append((sid, name, start, end, parent))

        functools.update_wrapper(traced, fn)
        self.wrappers.add(traced)
        return traced

    def clear(self):
        """Forget everything recorded; the wrappers stay installed."""
        del self.stack[:], self.open_spans[:], self.spans[:]
        for st in self.stats.values():
            st[:] = [0, 0.0, 0]
        for seen in self.keys.values():
            seen.clear()
        for g in self.groups:
            self.group_s[g] = 0.0
            self.group_depth[g] = 0

    def item_summary(self):
        """Totals since `clear`: per wrapped name `calls`, `self_s`,
        `errors` and `distinct` argument keys; per group its time; and
        the spans, in the order the calls began."""
        names = {}
        for name, (calls, self_s, errors) in self.stats.items():
            if calls:
                names[name] = {"calls": calls, "self_s": self_s,
                               "errors": errors,
                               "distinct": len(self.keys.get(name, ()))}
        return {"names": names, "groups": dict(self.group_s),
                "spans": sorted(self.spans)}

    # -- installation ----------------------------------------------------

    def install(self, modules):
        """Wrap the public callables of `modules` (layer name -> module)
        at every binding found in them."""
        replacement = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                mine = getattr(obj, "__module__", None) == mod.__name__
                if attr.startswith("_") or not mine:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    name = "%s.%s" % (layer, attr)
                    replacement[obj] = self.wrap(name, obj)
                    self.originals[name] = obj
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                new = _replaced(obj, replacement)
                if new is not obj:
                    self._set(mod, attr, new)

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS or attr in SKIPPED:
                continue
            if attr == "__init__" and cls.__name__ in VALUE_CLASSES:
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
                new = type(raw)(self.wrap(name, fn))
            elif callable(raw) and not isinstance(raw, type):
                fn = raw
                new = self.wrap(name, fn)
            else:
                continue
            self.originals[name] = fn
            self._set(cls, attr, new)

    def _set(self, owner, attr, new):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _replaced(obj, replacement):
    """`obj` with wrapped functions substituted, looking into tuples;
    the same object when nothing in it is wrapped."""
    if isinstance(obj, tuple):
        items = tuple(_replaced(x, replacement) for x in obj)
        return items if any(a is not b for a, b in zip(items, obj)) else obj
    if callable(obj) and not isinstance(obj, type):
        return replacement.get(obj, obj)
    return obj
