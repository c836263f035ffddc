"""The CLI's remaining file readers on mutated copies of valid files:
`threshold --config`, `certify --threshold-file` and `certify --state`.
Every input exits 0 or 1, never with an exception escaping `main` (a
traceback at the command line), and exit 1 comes with a message on stderr.

The config runs search an empty witness, whose objective is 0 everywhere,
so every start converges at once; the flags fix the search's size after the
file's own fields have been checked."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from stellarwitness.cli import main  # noqa: E402

CERTIFY_DIR = Path(__file__).resolve().parents[1] / "bench" / "data" / "certify"

VALID_CONFIG = {"starts": 4, "r_max": 1.5, "alpha_max": 2.0, "simplex_tolerance": 1e-6,
                "max_iterations": 50, "seed": 3}
WITNESS = {"type": "fock_pair", "j": 0, "k": 2, "omega": 0.7}
# the keys `certify` reads of a threshold file, and one it does not
VALID_THRESHOLD = {"rank": 1, "value": 0.5, "seed": 3}
VALID_STATES = {
    "fock_vector": {"kind": "fock_vector", "cutoff": 2, "tail_bound": 0.0,
                    "data": [[0.6, 0.0], [0.0, 0.48], [0.64, 0.0]]},
    "density": {"kind": "density", "cutoff": 1, "tail_bound": 0.0,
                "data": [[[0.7, 0.0], [0.1, 0.1]], [[0.1, -0.1], [0.3, 0.0]]]},
    "fock_probabilities": {"kind": "fock_probabilities", "cutoff": 2, "data": [0.5, 0.25, 0.125]},
}

ODD_VALUES = [None, True, False, "x", "2", "", 0, 1, -1, 2, 3, 0.5, 1e-9, 1e-300, 25, 100.0, 1e6, 1e300,
              -0.5, math.nan, math.inf, -math.inf, [], [1.0], [1.0, 0.0], ["2", True], [math.nan, 0.0],
              [[1.0, 0.0]], [1, 2, 3], {}, {"kind": "fock_vector"}, "fock_vector", "density"]


def paths(node, prefix=()):
    """The key paths below the top level of a JSON value, through the first
    two elements of each list only."""
    children = node.items() if isinstance(node, dict) else enumerate(node[:2]) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def edits(valid):
    path = st.sampled_from(list(paths(valid)))
    edit = st.one_of(
        st.tuples(st.just("drop"), path),
        st.tuples(st.just("set"), path, st.sampled_from(ODD_VALUES)),
        st.tuples(st.just("extra"), path, st.sampled_from(ODD_VALUES)),
    )
    return st.lists(edit, min_size=1, max_size=3)


def edited(valid, changes):
    obj = copy.deepcopy(valid)
    for kind, path, *value in changes:
        parent, last = obj, path[-1]
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[last]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit removed or replaced this path
        if not isinstance(parent, (dict, list)):
            continue
        if kind == "drop":
            if isinstance(parent, dict):
                parent.pop(last, None)
            else:
                del parent[last]
        elif kind == "set":
            parent[last] = copy.deepcopy(value[0])
        elif isinstance(parent, dict):
            parent["extra_" + str(last)] = copy.deepcopy(value[0])
        else:
            parent.append(copy.deepcopy(value[0]))
    return obj


def run(argv_of, files):
    """main on `argv_of(paths)` with `files` ({name: JSON value}) written
    to a temporary directory: the exit code, stdout and stderr."""
    with tempfile.TemporaryDirectory() as directory:
        written = {}
        for name, obj in files.items():
            written[name] = Path(directory, name)
            written[name].write_text(json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv_of({name: str(path) for name, path in written.items()}))
    return code, out.getvalue(), err.getvalue()


def check(code, out, err):
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("error: ") and out == ""
    else:
        assert err == "" and json.loads(out)


SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(edits(VALID_CONFIG))
def test_config_files(changes):
    config = edited(VALID_CONFIG, changes)
    check(*run(lambda p: ["threshold", p["w.json"], "--rank", "1", "--config", p["c.json"],
                          "--starts", "2", "--max-iterations", "30", "--seed", "1"],
               {"w.json": {"type": "terms", "terms": []}, "c.json": config}))


@SETTINGS
@given(edits(VALID_THRESHOLD))
def test_threshold_files(changes):
    stored = edited(VALID_THRESHOLD, changes)
    check(*run(lambda p: ["certify", "--witness", p["w.json"], "--rank", "1", "--threshold-file", p["t.json"],
                          "--pair", "0.1", "0.2"],
               {"w.json": WITNESS, "t.json": stored}))


@SETTINGS
@given(st.sampled_from(sorted(VALID_STATES)).flatmap(
    lambda name: st.tuples(st.just(name), edits(VALID_STATES[name]))))
def test_state_files(mutation):
    name, changes = mutation
    state = edited(VALID_STATES[name], changes)
    check(*run(lambda p: ["certify", "--curves", str(CERTIFY_DIR), "--state", p["s.json"]], {"s.json": state}))


def test_valid_files_exit_zero():
    for files, argv_of in (
        ({"w.json": {"type": "terms", "terms": []}, "c.json": VALID_CONFIG},
         lambda p: ["threshold", p["w.json"], "--rank", "1", "--config", p["c.json"]]),
        ({"w.json": WITNESS, "t.json": VALID_THRESHOLD},
         lambda p: ["certify", "--witness", p["w.json"], "--rank", "1", "--threshold-file", p["t.json"],
                    "--pair", "0.1", "0.2"]),
        *[({"s.json": state}, lambda p: ["certify", "--curves", str(CERTIFY_DIR), "--state", p["s.json"]])
          for state in VALID_STATES.values()],
    ):
        code, out, err = run(argv_of, files)
        assert code == 0 and err == "" and json.loads(out)
