"""Generated valid instances through the command line.

The paper proves its laws for every valid instance, so a law that fails
on a generated one is an engine fault that no frozen value shows.  Each
example is a Moyal-type instance: P1 and P2 act as d_x and d_y on
Q[x, y], twisted by the exponential of a bivector of random p/q h terms
over a series ring of order 2 to 4, on the coordinate frame or on an
invertible constant one.  Every suite `all` runs on it must pass.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from braidcalc.cli import main

GENERATORS = ("P1", "P2")
generator = st.sampled_from(GENERATORS)
small = st.integers(-2, 2)


@st.composite
def bivector_terms(draw):
    p = draw(st.integers(-3, 3).filter(bool))
    q = draw(st.integers(1, 3))
    return [draw(generator), draw(generator), "%s h" % Fraction(p, q)]


@st.composite
def constant_frames(draw):
    """Two constant frame fields with an invertible coordinate matrix."""
    pair = st.tuples(small, small)
    rows = draw(st.tuples(pair, pair).filter(
        lambda m: m[0][0] * m[1][1] != m[0][1] * m[1][0]))
    return [{name: str(c) for name, c in zip("xy", row) if c} for row in rows]


@st.composite
def moyal_instances(draw):
    data = {
        "ring": {"kind": "series", "order": draw(st.integers(2, 4))},
        "lie_algebra": {"generators": list(GENERATORS)},
        "action": {
            "coordinates": ["x", "y"],
            "images": {"P1": {"x": "1"}, "P2": {"y": "1"}},
        },
        "twist": {"kind": "exp",
                  "bivector": draw(st.lists(bivector_terms(), min_size=1,
                                            max_size=3))},
        "params": {"classical_shadow": draw(st.booleans())},
    }
    if draw(st.booleans()):
        data["frame"] = draw(constant_frames())
    return data


@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=moyal_instances())
def test_generated_moyal_instance_passes_every_suite(tmp_path, data):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["all", str(path), "--depth", "2", "--degree", "1"])
    assert status == 0, (json.dumps(data), out.getvalue(), err.getvalue())
