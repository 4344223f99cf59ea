"""braidcalc benchmark: time to an exact verdict on a fixed workload.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 40 --trace 0

One process, one thread, one caller: each item runs `braidcalc.cli.main`
in-process and waits for its verdict before the next starts (a closed
loop with one client).  The engine's caches belong to the objects a run
builds, so every item starts cold, as a command-line call does.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run (see perfbench/README.md).  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines above it are for people.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import selftest
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

_FMT = ("--format", "structured")
_BUNDLED = ["abelian-plane", "curved-metric", "heisenberg-twisted",
            "heisenberg", "moyal", "surface-twisted", "surface",
            "falsification/asymmetric-connection",
            "falsification/broken-cocycle", "falsification/non-tangent-twist",
            "falsification/wrong-antipode", "falsification/wrong-transport"]

# Workload -> items; an item is a braidcalc command line.  README.md says
# why each workload was chosen and what each should show.
WORKLOADS = {
    "bundled": [("all", "scenarios/%s.json" % n) + _FMT for n in _BUNDLED],
    "series-order": [
        ("all", "scenarios/%s.json" % n, "--order", "6") + _FMT
        for n in ("moyal", "heisenberg-twisted", "curved-metric",
                  "surface-twisted")],
    "rational-degree": [
        ("check-hopf", "scenarios/heisenberg.json", "--depth", "8") + _FMT,
        ("star", "scenarios/heisenberg.json", "--degree", "5") + _FMT,
        ("star", "scenarios/abelian-plane.json", "--degree", "5") + _FMT,
        ("project", "scenarios/surface.json", "--degree", "4") + _FMT,
    ],
}

# Set-ups measured per pass, spread evenly between the items.
SETUPS_PER_PASS = 4
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

# Per-layer metrics, by the wrapped names (see tracer.py) they sum over.
COUNTED = {
    "ring.scalar_mul": ("ring.Scalar.__mul__",),
    "ring.poly_mul": ("ring.AlgebraElement.__mul__",),
    "ring.inverse": ("ring.Scalar.inverse", "ring.AlgebraElement.inverse"),
    "hopf.normalize_word": ("hopf.LieAlgebra.normalize_word",),
    "hopf.tensor_mul": ("hopf.TensorElement.__mul__",),
    "modalg.star_mul": ("modalg.ModuleAlgebra.mul",),
    "modalg.act": ("modalg.Action.act",),
    "calculus.bracket": ("calculus.Calculus.bracket",),
    "calculus.schouten": ("calculus.Calculus.schouten",),
    "calculus.lie_derivative": ("calculus.Calculus.lie_derivative",),
    "calculus.insert": ("calculus.Calculus.insert",),
    "calculus.d": ("calculus.Calculus.d",),
    "calculus.wedge": ("calculus.Calculus.wedge",),
    "geometry.levi_civita": ("geometry.levi_civita",),
}
SELF_TIMED = ("ring.scalar_mul", "ring.poly_mul", "ring.inverse",
              "hopf.tensor_mul")
REPEATS = ("hopf.normalize_word", "modalg.star_mul", "calculus.bracket",
           "calculus.schouten")
KEYED = [name for metric in REPEATS for name in COUNTED[metric]]
# Inclusive time of the outermost calls of each group of wrapped names.
GROUPS = {
    "twist.build_s": {"twist.exp_twist", "twist.Twist.from_tensor",
                      "twist.Twist.trivial", "twist.twist_hopf",
                      "twist.TwistedHopfData.__init__"},
    "calculus.construct_s": {"calculus.Calculus.__init__"},
    "submanifold.projection_construct_s": {"submanifold.Projection.__init__"},
    "report.render_s": {"report.Report.as_dict", "report.Report.to_text"},
    "cli.parse_s": {"cli.build_parser", "cli.Scenario.__init__"},
}


def item_id(argv):
    """The item's command line without its trailing `--format structured`."""
    return " ".join(argv[:-2])


def engine_argv(argv, seed):
    return list(argv) + ([] if seed is None else ["--seed", str(seed)])


# -- loading the engine ------------------------------------------------------


def _engine_modules():
    return {n: m for n, m in sys.modules.items()
            if n == "braidcalc" or n.startswith("braidcalc.")}


def import_engine():
    """Import braidcalc afresh from this checkout's `src/`; returns its
    modules by layer name."""
    for name in _engine_modules():
        del sys.modules[name]
    cli = importlib.import_module("braidcalc.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError("braidcalc not loaded from %s" % SRC)
    return {layer: sys.modules["braidcalc." + layer] for layer in LAYERS}


def build_structures(mods, argv):
    """Build an item's Scenario and the structures its suites need,
    through the public Scenario properties."""
    cli = mods["cli"]
    opts = cli.build_parser().parse_args(list(argv))
    with open(ROOT / opts.scenario, encoding="utf-8") as fh:
        data = json.load(fh)
    ring = None if opts.order is None else mods["ring"].Ring("series", opts.order)
    suites = set(data.get("suites") or ()) if opts.command == "all" else {opts.command}
    has_twist = data.get("twist") is not None
    sc = cli.Scenario(data, ring_override=ring)
    try:
        if suites - {"check-hopf", "check-twist"}:
            sc.algebra, sc.action
        if has_twist and suites - {"check-hopf"}:
            sc.twist
        if suites & {"cartan", "project"} or (
                has_twist and suites & {"gauge", "levi-civita"}):
            sc.calculus()
        if suites & {"gauge", "levi-civita"}:
            sc.calculus(twisted=False)
    except sys.modules["braidcalc.errors"].EngineError:
        pass                   # a construction-time refusal is set-up work


def measure_setup(items):
    """Seconds for one set-up: import braidcalc, then build every item's
    structures.  The engine modules loaded before are put back after, so
    the engine's own lazy imports keep resolving to the modules the items
    run with."""
    saved = _engine_modules()
    start = time.perf_counter()
    mods = import_engine()
    for argv in items:
        build_structures(mods, argv)
    seconds = time.perf_counter() - start
    for name in _engine_modules():
        del sys.modules[name]
    sys.modules.update(saved)
    del mods
    gc.collect()
    return seconds


# -- running items ------------------------------------------------------------


def run_item(cli, argv):
    """Run one item; returns (seconds, exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception:          # the item failed; keep the run going
        status = "raised"
        err.write(traceback.format_exc())
    return time.perf_counter() - start, status, out.getvalue(), err.getvalue()


def failing_checks(stdout):
    payload = json.loads(stdout)
    return sorted([r["title"], c["name"]] for r in payload["reports"]
                  for c in r["checks"] if not c["passed"])


def verdict_problems(ref, seed, status, stdout, stderr):
    """Ways the item's result differs from its reference verdict."""
    problems = []
    if status != ref["status"]:
        problems.append("exit status %r, expected %r" % (status, ref["status"]))
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    try:
        failing = failing_checks(stdout)
    except (ValueError, KeyError, TypeError):
        return problems + ["output is not a structured report"]
    if failing != ref["failing"]:
        problems.append("failing checks %r, expected %r" % (failing, ref["failing"]))
    if seed is None or ref["seed_free"]:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if digest != ref["sha256"]:
            problems.append("structured output digest changed")
    return problems


class Tally:
    """Per-item times and the verdict count of a run."""

    def __init__(self, items, reference, seed):
        self.reference, self.seed = reference, seed
        self.times = {item_id(a): [] for a in items}
        self.attempted = self.failed = 0
        self.problems = []

    def run(self, cli, argv):
        seconds, status, out, err = run_item(cli, engine_argv(argv, self.seed))
        key = item_id(argv)
        self.times[key].append(seconds)
        self.attempted += 1
        problems = verdict_problems(self.reference[key], self.seed, status, out, err)
        if problems:
            self.failed += 1
            self.problems.append("%s: %s" % (key, "; ".join(problems)))
        return out

    def pass_s(self):
        """Median pass time: the sum of the items' median times."""
        return sum(statistics.median(t) for t in self.times.values())

    def slowest_item_s(self):
        return max(statistics.median(t) for t in self.times.values())


# -- the two kinds of run -----------------------------------------------------


def end_to_end(mods, items, reference, seed, deadline):
    """Items round-robin with SETUPS_PER_PASS set-ups spread between them,
    until the next one would end past the deadline (after one pass)."""
    cli = mods["cli"]
    tally = Tally(items, reference, seed)
    setups = []
    every = max(1, len(items) // SETUPS_PER_PASS)
    for n in itertools.count():
        argv = items[n % len(items)]
        due = n % every == 0
        if n >= len(items):
            cost = tally.times[item_id(argv)][-1] + (setups[-1] if due else 0)
            if time.perf_counter() + cost > deadline:
                break
        if due:
            setups.append(measure_setup(items))
        tally.run(cli, argv)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "verify_s": (tally.pass_s(), "s"),
        "slowest_item_s": (tally.slowest_item_s(), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }
    notes = ["samples per item: %d to %d" % (
                 min(map(len, tally.times.values())),
                 max(map(len, tally.times.values())))]
    return tally, metrics, notes, None


def traced(mods, items, reference, seed, deadline):
    cli, errors = mods["cli"], sys.modules["braidcalc.errors"]
    runners = {"cli." + fn.__name__ for _, fn, _ in cli._RUNNERS}
    problems = selftest.run(mods, errors)
    plain = Tally(items, reference, seed)
    tally = Tally(items, reference, seed)
    passes, spans = [], {}
    plain_s = traced_s = 0.0
    while not passes or time.perf_counter() + plain_s + traced_s <= deadline:
        pass_start = time.perf_counter()
        outputs = {item_id(argv): plain.run(cli, argv) for argv in items}
        plain_s = time.perf_counter() - pass_start
        tracer = Tracer(errors, GROUPS, KEYED)
        tracer.install(mods)
        summaries = []
        try:
            for argv in items:
                tracer.clear()
                if tally.run(cli, argv) != outputs[item_id(argv)]:
                    problems.append("%s: traced output differs" % item_id(argv))
                summaries.append(tracer.item_summary())
        finally:
            tracer.uninstall()
        traced_s = time.perf_counter() - pass_start - plain_s
        passes.append(layer_metrics(summaries, runners))
        spans = spans or {item_id(a): s["spans"] for a, s in zip(items, summaries)}
    metrics = {}
    for name, (value, unit) in passes[0].items():
        values = [p[name][0] for p in passes]
        if unit == "s":
            value = statistics.median(values)
        elif len(set(values)) > 1:
            problems.append("%s differs between traced passes: %r" % (name, values))
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (tally.pass_s() / plain.pass_s(), "ratio")
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    tally.problems += plain.problems + problems
    notes = ["traced passes: %d, untraced pass %.4f s, traced pass %.4f s"
             % (len(passes), plain.pass_s(), tally.pass_s())]
    return tally, metrics, notes, spans


def layer_metrics(summaries, runners):
    """Per-layer metrics of one traced pass, from its item summaries."""
    names, groups = {}, dict.fromkeys(GROUPS, 0.0)
    for summary in summaries:
        for name, row in summary["names"].items():
            total = names.setdefault(name, dict.fromkeys(row, 0))
            for k, v in row.items():
                total[k] += v
        for g, seconds in summary["groups"].items():
            groups[g] += seconds

    def total(field, members):
        return sum(names[n][field] for n in members if n in names)

    out = {}
    for metric, members in COUNTED.items():
        calls = total("calls", members)
        out[metric + ".calls"] = (calls, "count")
        if metric in SELF_TIMED:
            out[metric + ".self_s"] = (total("self_s", members), "s")
        if metric in REPEATS:
            ratio = 1 - total("distinct", members) / calls if calls else 0.0
            out[metric + ".repeat_ratio"] = (ratio, "ratio")
    for g, seconds in groups.items():
        out[g] = (seconds, "s")
    for layer in LAYERS:
        out[layer + ".self_s"] = (total("self_s", [
            n for n in names if n.split(".", 1)[0] == layer]), "s")
    out["cli.engine_errors"] = (total("errors", runners), "count")
    return out


# -- entry point -------------------------------------------------------------


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "loadavg": list(os.getloadavg())}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="passed to every item as --seed (the perturbation "
                        "falsifier's seed); default: each scenario's own")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measure for about this long (at least one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: the engine's assertions "
              "would be skipped", file=sys.stderr)
        return 2
    start = time.perf_counter()
    info = machine()
    os.chdir(ROOT)             # items name their scenarios relative to it
    sys.path.insert(0, str(SRC))
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
        mods = import_engine()
    except (OSError, ImportError, ValueError) as exc:
        print("cannot load braidcalc or the reference verdicts: %s" % exc,
              file=sys.stderr)
        return 1
    items = WORKLOADS[args.workload]
    run = traced if args.trace else end_to_end
    tally, metrics, notes, spans = run(mods, items, reference, args.seed,
                                       start + args.seconds)
    if spans is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / ("%s-spans.json" % args.workload)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
        notes.append("spans of the first traced pass: %s" % path.relative_to(ROOT))
    print("# machine: %s" % json.dumps(info))
    print("# workload %s, seed %s, trace %d" % (args.workload, args.seed, args.trace))
    notes.insert(0, "fail_ratio %.4f ratio (%d of %d items failed)" % (
        tally.failed / tally.attempted, tally.failed, tally.attempted))
    for line in notes + tally.problems:
        print("# " + line)
    for name, (value, unit) in metrics.items():
        print("%-40s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
