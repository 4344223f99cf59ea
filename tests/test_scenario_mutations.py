"""Mutation fuzzing of the bundled scenarios through the command line.

Each example changes one thing in a bundled scenario: it replaces one
value by a small JSON value of another type (a string also by another
string of STRINGS, so that a unit or polynomial may become a constant),
or renames one object key.
The mutated scenario runs in-process on a subcommand at cheap knobs;
whatever the change, the command must end with exit status 0, 1 or 2
within TIMEOUT_S seconds and never let an exception escape.
"""

import contextlib
import io
import json
import signal
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from braidcalc.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = sorted(SCENARIOS.glob("*.json")) + sorted(
    SCENARIOS.glob("falsification/*.json"))
COMMANDS = ("check-hopf", "check-twist", "star", "levi-civita", "project")
# Seconds one example may take; a hang then fails that example with a
# traceback instead of stalling the run.
TIMEOUT_S = 20
# Strings a scenario might plausibly hold: names, monomials, rationals,
# polynomials and some malformed ones; none asks for a large degree.
STRINGS = ("", "1", "-1", "0", "1/0", "3/2", "0.5", "h", "h^2", "x", "y",
           "x^2", "x + y", "P1", "P2", "X1", "X1 X2", "P1^2 P2", "- -",
           "exp", "tensor", "series", "rational")
KEYS = ("", "kind", "order", "generators", "brackets", "images", "imagez",
        "unit", "bivector", "terms", "swap", "depth", "degree", "x", "P1",
        "X1 X2")

small_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(STRINGS),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=2),
    max_leaves=4,
)


def _json_type(value):
    for kind in (bool, int, str, list, dict):
        if isinstance(value, kind):
            return kind
    return type(value)


def _paths(node, prefix=()):
    """Paths (tuples of keys and indices) to every value below `node`."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _parent(data, path):
    for key in path[:-1]:
        data = data[key]
    return data


class ExampleTimeout(Exception):
    """Raised by SIGALRM in an example that ran out of time."""


def _timed_out(signum, frame):
    raise ExampleTimeout("example ran longer than %d s" % TIMEOUT_S)


@st.composite
def mutated_scenarios(draw):
    data = json.loads(draw(st.sampled_from(BUNDLED)).read_text())
    paths = list(_paths(data))
    path = draw(st.sampled_from(paths))
    parent, key = _parent(data, path), path[-1]
    if isinstance(parent, dict) and draw(st.booleans()):
        new_key = draw(st.sampled_from(KEYS).filter(lambda k: k != key))
        parent[new_key] = parent.pop(key)
    else:
        old = parent[key]
        kind = _json_type(old)
        new = small_json.filter(lambda v: _json_type(v) is not kind)
        if kind is str:
            new = new | st.sampled_from(STRINGS).filter(lambda v: v != old)
        parent[key] = draw(new)
    return data


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=mutated_scenarios(), command=st.sampled_from(COMMANDS))
def test_mutated_scenario_exits_cleanly(tmp_path, data, command):
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(TIMEOUT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([command, str(path), "--depth", "1", "--degree", "1"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert status in (0, 1, 2), (status, err.getvalue())
    assert "Traceback" not in err.getvalue()
