"""`certify --curves` on mutated copies of the committed curves directory:
every input exits 0 or 1, never with an exception escaping `main` (a
traceback at the command line), and exit 1 comes with a message on stderr."""

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
MANIFEST = json.loads((CERTIFY_DIR / "manifest.json").read_text())
LINES = (CERTIFY_DIR / "boundary.csv").read_text().splitlines()

# no large integers: a Fock index n makes the reported witness an (n+1)^2 matrix
ODD_VALUES = [None, True, "x", "", 1.5, -1, 0, 1, 2, 3, math.nan, math.inf, [], [1.0, 0.5], {},
              {"type": "fock_pair"}, {"type": "cat_pair", "beta": "2"}]
KEYS = [("family",), ("ranks",), ("omegas",), ("seed",), ("config",),
        ("family", "type"), ("family", "j"), ("family", "k"), ("family", "beta")]
FIELDS = ["foo", "nan", "NaN", "inf", "-inf", "", "1e400", "-1e400", "1.5", "2", "-1", "4", "0",
          " 1", "1.0", "0x1", "1_0", "yes", "2.5e-3"]

manifest_edits = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(KEYS)),
    st.tuples(st.just("set"), st.sampled_from(KEYS), st.sampled_from(ODD_VALUES)),
)
rows = st.integers(1, len(LINES) - 1)
csv_edits = st.one_of(
    st.tuples(st.just("field"), rows, st.integers(0, 6), st.sampled_from(FIELDS)),
    st.tuples(st.just("truncate"), rows, st.integers(0, 6)),
    st.tuples(st.just("extra"), rows),
    st.tuples(st.just("drop line"), rows),
)


def edited_manifest(edits):
    manifest = copy.deepcopy(MANIFEST)
    for kind, path, *value in edits:
        parent = manifest
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue
        if kind == "drop":
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = copy.deepcopy(value[0])
    return manifest


def edited_csv(edits):
    lines = list(LINES)
    for kind, row, *args in edits:
        row = min(row, len(lines) - 1)
        fields = lines[row].split(",")
        if kind == "field":
            fields[args[0]:args[0] + 1] = [args[1]]  # appended to a truncated row
        elif kind == "truncate":
            del fields[args[0]:]
        elif kind == "extra":
            fields.append("0")
        else:
            del lines[row]
            continue
        lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(manifest_edits, max_size=2),
    st.lists(csv_edits, max_size=3),
    st.sampled_from([("0.05", "0.9"), ("0.9", "0.05"), ("0.3", "0.3"), ("0", "0")]),
)
def test_exit_zero_or_one_with_a_message(manifest_edit, csv_edit, pair):
    with tempfile.TemporaryDirectory() as directory:
        Path(directory, "manifest.json").write_text(json.dumps(edited_manifest(manifest_edit)))
        Path(directory, "boundary.csv").write_text(edited_csv(csv_edit))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["certify", "--curves", directory, "--pair", *pair])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""
    else:
        assert err.getvalue() == "" and json.loads(out.getvalue())["certified_rank"] >= 0
