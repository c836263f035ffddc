"""`certify --witness` on mutated copies of valid witness files: every input
exits 0 or 1, never with an exception escaping `main` (a traceback at the
command line), and exit 1 comes with a message on stderr.  With
`--threshold-file` and `--pair` the command reads the witness and runs no
search.  A file with "modes" also goes through the multimode reader, which
`threshold` uses, and may raise only ValueError, which `main` turns into
exit 1.  A written `terms` witness reads back to the same conjugation plan."""

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

import numpy as np  # noqa: E402

from stellarwitness._util import dumps_stable  # noqa: E402
from stellarwitness.cli import main  # noqa: E402
from stellarwitness.multimode import MultimodeWitness  # noqa: E402
from stellarwitness.states import FockDensity, FockVector  # noqa: E402
from stellarwitness.witness import (  # noqa: E402
    DENSITY,
    PURE,
    WitnessOperator,
    WitnessTerm,
    witness_from_json,
    witness_to_json,
)

VALID = {
    "fock_pair": {"type": "fock_pair", "j": 0, "k": 2, "omega": 0.7},
    "cat_pair": {"type": "cat_pair", "beta": [2.0, 0.0], "omega": 0.7},
    "cat_pair_number": {"type": "cat_pair", "beta": 1.5, "omega": 2.2},
    "fock_diagonal": {"type": "fock_diagonal", "weights": [1.0, -0.5, 0.25]},
    "terms": {"type": "terms", "identity_weight": 0.25, "terms": [
        {"weight": 1.0, "state": {"kind": "fock_vector", "cutoff": 2,
                                  "data": [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]], "tail_bound": 0.0}},
        {"weight": -0.5, "state": {"kind": "density", "cutoff": 1, "tail_bound": 0.0,
                                   "data": [[[0.7, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.0]]]}},
    ]},
    "two_mode": {"type": "terms", "modes": 2, "terms": [{"weight": 1.0, "state": {
        "kind": "multimode_fock_vector", "modes": 2,
        "amplitudes": [{"occupations": [1, 1], "value": [1.0, 0.0]}]}}]},
    "two_mode_terms": {"type": "terms", "modes": 2, "identity_weight": 0.25, "terms": [
        {"weight": -0.5, "state": {"kind": "multimode_fock_vector", "modes": 2, "amplitudes": [
            {"occupations": [0, 1], "value": [0.6, 0.0]}, {"occupations": [2, 0], "value": [0.0, 0.8]}]}},
        {"weight": 1.0, "state": {"kind": "multimode_fock_vector", "amplitudes": [
            {"occupations": [0, 0], "value": 1.0}]}}]},
}

ODD_VALUES = [None, True, False, "x", "2", "", 0, 1, -1, 2, 0.5, 25, 100.0, 1e6, 1e100, 1e-9, 1e300,
              math.nan, math.inf, -math.inf, [], [1.0], [1.0, 0.0], [math.nan, 0.0], ["2", True],
              [[1.0, 0.0]], [1, 2, 3], {}, {"kind": "fock_vector"},
              {"kind": "fock_vector", "data": [[1.0, 0.0]]}, {"kind": "multimode_fock_vector"},
              {"occupations": [0, 1], "value": [1.0, 0.0]}, "fock_pair", "cat_pair", "terms"]


def paths(node, prefix=()):
    """The key paths below the top level of a JSON value, through the first
    two elements of each list only, so that long arrays do not crowd out the
    keys."""
    children = node.items() if isinstance(node, dict) else enumerate(node[:2]) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


PATHS = {name: list(paths(obj)) for name, obj in VALID.items()}


def edits(name):
    path = st.sampled_from(PATHS[name])
    return st.one_of(
        st.tuples(st.just("drop"), path),
        st.tuples(st.just("set"), path, st.sampled_from(ODD_VALUES)),
        st.tuples(st.just("extra"), path, st.sampled_from(ODD_VALUES)),
    )


files = st.sampled_from(sorted(VALID)).flatmap(
    lambda name: st.tuples(st.just(name), st.lists(edits(name), min_size=1, max_size=3))
)


def edited(name, changes):
    obj = copy.deepcopy(VALID[name])
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
            parent["extra_" + last] = copy.deepcopy(value[0])
        else:
            parent.append(copy.deepcopy(value[0]))
    return obj


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(files)
def test_exit_zero_or_one_with_a_message(mutation):
    obj = edited(*mutation)
    with tempfile.TemporaryDirectory() as directory:
        witness = Path(directory, "w.json")
        witness.write_text(json.dumps(obj))
        threshold = Path(directory, "t.json")
        threshold.write_text(json.dumps({"rank": 1, "value": 0.5}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["certify", "--witness", str(witness), "--rank", "1",
                         "--threshold-file", str(threshold), "--pair", "0.1", "0.2"])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""
    else:
        assert err.getvalue() == "" and json.loads(out.getvalue())["certified_rank"] in (0, 1)
    if isinstance(obj, dict) and "modes" in obj:
        # the multimode reader names the key of every malformed input, and
        # what it reads writes back as it was read
        try:
            witness = MultimodeWitness.from_json(obj)
        except ValueError as err:
            assert str(err)
        else:
            assert MultimodeWitness.from_json(witness.to_json()) == witness


def test_every_valid_file_reads():
    for name, obj in VALID.items():
        with tempfile.TemporaryDirectory() as directory:
            witness = Path(directory, "w.json")
            witness.write_text(json.dumps(obj))
            threshold = Path(directory, "t.json")
            threshold.write_text(json.dumps({"rank": 1, "value": 0.5}))
            state = Path(directory, "s.json")
            state.write_text(json.dumps({"kind": "fock_vector", "data": [[0.6, 0.0], [0.8, 0.0]]}))
            pair = "omega" in obj
            source = ["--pair", "0.1", "0.2"] if pair else ["--state", str(state)]
            code = main(["certify", "--witness", str(witness), "--rank", "1",
                         "--threshold-file", str(threshold), *source])
            assert code == (1 if name.startswith("two_mode") else 0), name
    assert MultimodeWitness.from_json(VALID["two_mode"]).modes == 2
    assert MultimodeWitness.from_json(VALID["two_mode_terms"]).to_json() == {
        **VALID["two_mode_terms"], "terms": [
            VALID["two_mode_terms"]["terms"][0],
            {"weight": 1.0, "state": {"kind": "multimode_fock_vector", "modes": 2, "amplitudes": [
                {"occupations": [0, 0], "value": [1.0, 0.0]}]}}]}


@st.composite
def mixed_length_witnesses(draw):
    """`terms` witnesses of 1-3 pure terms of 1-9 amplitudes (some zero, a
    trailing one among them) and a density term longer than all of them, in
    any order, with or without an identity weight."""
    weights = st.floats(-3.0, 3.0, allow_nan=False)
    lengths = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    side = draw(st.integers(max(lengths) + 1, max(lengths) + 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = []
    for n in lengths:
        amplitudes = rng.normal(size=n) + 1j * rng.normal(size=n)
        amplitudes[rng.random(n) < 0.3] = 0.0
        terms.append(WitnessTerm(draw(weights), PURE, FockVector(amplitudes)))
    block = rng.normal(size=(side, 2)) + 1j * rng.normal(size=(side, 2))
    density = FockDensity(block @ block.conj().T / side, tail_bound=draw(st.sampled_from([0.0, 1e-12])))
    terms.insert(draw(st.integers(0, len(terms))), WitnessTerm(draw(weights), DENSITY, density))
    identity_weight = draw(st.sampled_from([0.0, 0.25, -1.5]))
    return WitnessOperator(tuple(terms), side - 1, False, identity_weight)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(mixed_length_witnesses())
def test_written_terms_witness_reads_back_to_the_same_plan(witness):
    # the plan fixes the search's bits, so `threshold --recheck` regenerates
    # a threshold file only if the witness it holds reads back to this plan
    again = witness_from_json(json.loads(dumps_stable(witness_to_json(witness))))
    (betas, cols, steps), (betas_again, cols_again, steps_again) = witness.conjugation_plan, again.conjugation_plan
    assert betas.tobytes() == betas_again.tobytes() and cols == cols_again
    assert [kind for kind, _, _ in steps] == [kind for kind, _, _ in steps_again]
    # a weight of -0.0 is written "-0" and reads back as 0.0, an equal value
    assert [weight for _, weight, _ in steps] == [weight for _, weight, _ in steps_again]
    for (_, _, data), (_, _, data_again) in zip(steps, steps_again):
        assert data.shape == data_again.shape and data.tobytes() == data_again.tobytes()
    assert (again.support_cutoff, again.identity_weight) == (witness.support_cutoff, witness.identity_weight)
    assert [term.tail_bound() for term in again.terms] == [term.tail_bound() for term in witness.terms]
