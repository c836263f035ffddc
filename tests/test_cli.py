import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stellarwitness import cli
from stellarwitness.cli import main
from stellarwitness.states import state_to_json, coherent
from stellarwitness._util import dumps_stable


def write_json(path, obj):
    path.write_text(dumps_stable(obj) + "\n")
    return str(path)


@pytest.fixture()
def fock_pair_file(tmp_path):
    return write_json(tmp_path / "w.json", {"type": "fock_pair", "j": 0, "k": 2, "omega": 0.0})


FAST_FLAGS = ["--starts", "8", "--max-iterations", "300", "--seed", "7"]


def two_mode_witness(occupations, weight=1.0, value=(1.0, 0.0)):
    return {
        "type": "terms",
        "modes": 2,
        "terms": [{
            "weight": weight,
            "state": {
                "kind": "multimode_fock_vector",
                "modes": 2,
                "amplitudes": [{"occupations": occupations, "value": list(value)}],
            },
        }],
    }


class TestThresholdCommand:
    def test_trivial_threshold(self, tmp_path, fock_pair_file):
        out = tmp_path / "result.json"
        code = main(["threshold", fock_pair_file, "--rank", "1", *FAST_FLAGS, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["value"] - 1.0) <= 1e-6
        assert payload["params"]["theta"] == 0.0
        assert payload["seed"] == 7

    def test_byte_identical_reruns_across_threads(self, tmp_path, fock_pair_file):
        outputs = []
        for threads in ("1", "4", "8"):
            out = tmp_path / f"result_{threads}.json"
            code = main([
                "threshold", fock_pair_file, "--rank", "1", *FAST_FLAGS,
                "--threads", threads, "--out", str(out),
            ])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_recheck_passes(self, tmp_path, fock_pair_file):
        out = tmp_path / "result.json"
        code = main(["threshold", fock_pair_file, "--rank", "1", *FAST_FLAGS,
                     "--out", str(out), "--recheck"])
        assert code == 0

    def test_missing_file_exit_one(self, tmp_path):
        assert main(["threshold", str(tmp_path / "absent.json"), "--rank", "1"]) == 1

    def test_malformed_json_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"type": "fock_pair", "j": 0,')
        assert main(["threshold", str(bad), "--rank", "1"]) == 1
        assert "line" in capsys.readouterr().err

    def test_unknown_witness_type_exit_one(self, tmp_path):
        path = write_json(tmp_path / "w.json", {"type": "mystery"})
        assert main(["threshold", path, "--rank", "1"]) == 1

    def test_optimizer_failure_exit_two(self, tmp_path, fock_pair_file):
        code = main(["threshold", fock_pair_file, "--rank", "1",
                     "--starts", "2", "--max-iterations", "3"])
        assert code == 2

    def test_multimode_witness_dispatch(self, tmp_path):
        path = write_json(tmp_path / "mm.json", two_mode_witness([0, 0]))
        out = tmp_path / "mm_result.json"
        code = main(["threshold", path, "--rank", "1", *FAST_FLAGS, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["value"] - 1.0) <= 1e-5
        assert payload["modes"] == 2

    def test_multimode_optimizer_failure_exit_two(self, tmp_path):
        path = write_json(tmp_path / "mm.json", two_mode_witness([1, 1]))
        code = main(["threshold", path, "--rank", "1", "--starts", "2", "--max-iterations", "3"])
        assert code == 2

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda state: state["amplitudes"].append(
                {"occupations": [0, 1], "value": [2.0, 0.0]}), "occupations"),
            (lambda state: state.update(modes=3), "modes"),
        ],
        ids=["repeated-occupations", "state-modes"],
    )
    def test_lossy_multimode_witness_exit_one(self, tmp_path, capsys, edit, field):
        # a repeated occupation kept only its last amplitude; a state of other
        # modes than its witness was read as the witness's
        obj = two_mode_witness([0, 1])
        edit(obj["terms"][0]["state"])
        path = write_json(tmp_path / "mm.json", obj)
        out = tmp_path / "mm_result.json"
        code = main(["threshold", path, "--rank", "1", *FAST_FLAGS, "--out", str(out)])
        assert code == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("state", [None, []], ids=["no-terms", "no-amplitudes"])
    def test_empty_multimode_witness_threshold_zero(self, tmp_path, state):
        obj = two_mode_witness([0, 0])
        if state is None:
            obj["terms"] = []
        else:
            obj["terms"][0]["state"]["amplitudes"] = state
        path = write_json(tmp_path / "mm.json", obj)
        outputs = []
        for name in ("first.json", "again.json"):
            out = tmp_path / name
            code = main(["threshold", path, "--rank", "2", *FAST_FLAGS, "--out", str(out), "--recheck"])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["value"] == 0.0

    @pytest.mark.parametrize("box", [{"alpha_max": -2.0}, {"r_max": -0.5}])
    def test_negative_box_exit_one(self, tmp_path, capsys, box):
        witness = write_json(
            tmp_path / "w.json", {"type": "fock_pair", "j": 0, "k": 2, "omega": 0.7}
        )
        config = write_json(tmp_path / "config.json", box)
        out = tmp_path / "result.json"
        code = main(["threshold", witness, "--rank", "1", "--config", config, "--out", str(out)])
        assert code == 1
        assert next(iter(box)) in capsys.readouterr().err
        assert not out.exists()

    def test_recheck_of_tampered_box_exit_one(
        self, tmp_path, fock_pair_file, monkeypatch, capsys
    ):
        def emit_tampered(text, out):
            payload = json.loads(text)
            payload["diagnostics"]["config"]["alpha_max"] = -2.0
            write_json(Path(out), payload)

        monkeypatch.setattr(cli, "_emit", emit_tampered)
        out = tmp_path / "result.json"
        code = main(["threshold", fock_pair_file, "--rank", "1", *FAST_FLAGS,
                     "--out", str(out), "--recheck"])
        assert code == 1
        assert "alpha_max" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [7.5, True, -3])
    def test_bad_config_seed_exit_one(self, tmp_path, capsys, fock_pair_file, seed):
        config = write_json(tmp_path / "config.json", {"starts": 8, "seed": seed})
        out = tmp_path / "result.json"
        code = main(["threshold", fock_pair_file, "--rank", "1", "--config", config,
                     "--out", str(out)])
        assert code == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("modes", [3, None])
    def test_recheck_of_mismatched_modes_exit_three(self, tmp_path, monkeypatch, capsys, modes):
        def emit_tampered(text, out):
            payload = json.loads(text)
            if modes is None:
                del payload["modes"]
            else:
                payload["modes"] = modes
            write_json(Path(out), payload)

        monkeypatch.setattr(cli, "_emit", emit_tampered)
        path = write_json(tmp_path / "mm.json", two_mode_witness([0, 0]))
        out = tmp_path / "mm_result.json"
        code = main(["threshold", path, "--rank", "1", *FAST_FLAGS, "--out", str(out), "--recheck"])
        assert code == 3
        assert "recheck failed" in capsys.readouterr().err

    def test_recheck_without_out_exit_one(self, fock_pair_file, capsys):
        code = main(["threshold", fock_pair_file, "--rank", "1", *FAST_FLAGS, "--recheck"])
        assert code == 1
        captured = capsys.readouterr()
        assert "--recheck needs --out" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "config",
        [{"starts": 2.5}, {"max_iterations": 300.5}, {"starts": True}, {"starts": "4"}],
    )
    def test_non_integer_config_field_exit_one(self, tmp_path, fock_pair_file, capsys, config):
        path = write_json(tmp_path / "config.json", config)
        out = tmp_path / "result.json"
        code = main(["threshold", fock_pair_file, "--rank", "1", "--config", path, "--out", str(out)])
        assert code == 1
        assert next(iter(config)) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "witness, field",
        [
            ({**two_mode_witness([]), "modes": 0}, "modes"),
            (two_mode_witness([-1, 1]), "occupations"),
            (two_mode_witness([0.5, 1]), "occupations"),
            (two_mode_witness([0, 1], weight=math.nan), "weight"),
            (two_mode_witness([0, 1], value=(math.nan, 0.0)), "amplitude"),
            ({**two_mode_witness([0, 1]), "identity_weight": math.inf}, "identity_weight"),
            ({"type": "fock_pair", "j": 0, "k": 2, "omega": math.nan}, "omega"),
            ({"type": "fock_pair", "j": 0.5, "k": 2, "omega": 0.7}, "j"),
            ({"type": "cat_pair", "beta": [2.0, 0.0], "omega": math.nan}, "omega"),
            ({"type": "fock_diagonal", "weights": [1.0, math.nan]}, "weights"),
            ({"type": "terms", "identity_weight": math.inf, "terms": [{
                "weight": 1.0, "state": state_to_json(coherent(0.5, 8))}]}, "identity_weight"),
            ({"type": "terms", "terms": [{"weight": 1.0, "state": {
                "kind": "fock_vector", "data": [[math.nan, 0.0], [1.0, 0.0]]}}]}, "state"),
        ],
    )
    def test_malformed_witness_exit_one(self, tmp_path, capsys, witness, field):
        path = write_json(tmp_path / "w.json", witness)
        out = tmp_path / "result.json"
        code = main(["threshold", path, "--rank", "1", *FAST_FLAGS, "--out", str(out)])
        assert code == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_no_partial_output_on_failure(self, tmp_path):
        bad = write_json(tmp_path / "w.json", {"type": "mystery"})
        out = tmp_path / "result.json"
        main(["threshold", bad, "--rank", "1", "--out", str(out)])
        assert not out.exists()


@pytest.fixture(scope="module")
def boundary_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("curves")
    code = main([
        "boundary", "--family", "fock_pair", "--j", "0", "--k", "2",
        "--max-rank", "2", "--omegas", "12", *FAST_FLAGS,
        "--out", str(directory),
    ])
    assert code == 0
    return directory


class TestBoundaryCommand:
    def test_emits_expected_files(self, boundary_dir):
        names = sorted(os.listdir(boundary_dir))
        assert names == ["boundary.csv", "hull_rank_1.json", "hull_rank_2.json", "manifest.json"]
        header, *rows = (boundary_dir / "boundary.csv").read_text().strip().split("\n")
        assert header == "omega,rank,p_first,p_second,threshold,on_hull,flagged"
        assert len(rows) == 2 * 13  # 12 omegas + 1 closure corner per rank

    def test_hull_json_schema(self, boundary_dir):
        payload = json.loads((boundary_dir / "hull_rank_1.json").read_text())
        assert payload["rank"] == 1
        assert all(len(v) == 2 for v in payload["vertices"])

    def test_recheck_round_trip(self, tmp_path):
        directory = tmp_path / "redo"
        code = main([
            "boundary", "--family", "fock_pair", "--j", "0", "--k", "2",
            "--ranks", "1", "--omegas", "6", *FAST_FLAGS,
            "--out", str(directory), "--recheck",
        ])
        assert code == 0

    def test_manifest_records_repairs(self, tmp_path):
        directory = tmp_path / "cat"
        code = main([
            "boundary", "--family", "cat_pair", "--beta", "2", "--ranks", "1", "--omegas", "8",
            "--starts", "8", "--max-iterations", "300", "--seed", "202",
            "--out", str(directory), "--recheck",
        ])
        assert code == 0
        repairs = json.loads((directory / "manifest.json").read_text())["repairs"]
        assert repairs["unresolved"] == []
        assert [(e["rank"], e["omega"]) for e in repairs["rerun"]] == [(1, math.pi / 2)]
        assert repairs["rerun"][0]["after"] > repairs["rerun"][0]["before"]

    def test_manifest_without_repairs_has_no_key(self, boundary_dir):
        assert "repairs" not in json.loads((boundary_dir / "manifest.json").read_text())

    def test_invalid_family_args(self, tmp_path):
        assert main(["boundary", "--family", "fock_pair", "--omegas", "4",
                     "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize(
        "flags, field",
        [(["fock_pair", "--j", "-1", "--k", "2"], "j"), (["fock_pair", "--j", "2", "--k", "2"], "j"),
         (["cat_pair", "--beta", "0"], "beta"), (["cat_pair", "--beta", "inf"], "beta"),
         (["cat_pair", "--beta", "1e-9"], "beta"), (["cat_pair", "--beta", "1e-170"], "beta"),
         (["cat_pair", "--beta", "1e200"], "beta")],
    )
    def test_bad_family_fields_exit_one(self, tmp_path, capsys, flags, field):
        directory = tmp_path / "x"
        code = main(["boundary", "--family", *flags, "--omegas", "4", "--out", str(directory)])
        assert code == 1
        assert field in capsys.readouterr().err
        assert not directory.exists()

    def test_large_beta_accepted(self, tmp_path):
        directory = tmp_path / "large"
        code = main(["boundary", "--family", "cat_pair", "--beta", "40", "--max-rank", "1",
                     "--omegas", "4", *FAST_FLAGS, "--out", str(directory)])
        assert code == 0
        assert (directory / "boundary.csv").exists()

    @pytest.mark.parametrize("max_rank", ["0", "-2"])
    def test_empty_rank_range_exit_one(self, tmp_path, capsys, max_rank):
        directory = tmp_path / "none"
        code = main([
            "boundary", "--family", "fock_pair", "--j", "0", "--k", "2",
            "--max-rank", max_rank, "--omegas", "4", "--out", str(directory),
        ])
        assert code == 1
        assert "ranks must be consecutive and start at >= 1" in capsys.readouterr().err
        assert not directory.exists()

    def test_single_omega_degenerate_hull(self, tmp_path):
        directory = tmp_path / "single"
        code = main([
            "boundary", "--family", "fock_pair", "--j", "0", "--k", "2",
            "--ranks", "1", "--omegas", "1", *FAST_FLAGS, "--out", str(directory),
        ])
        assert code == 0


class TestCertifyCommand:
    def test_pair_against_curves(self, boundary_dir, tmp_path):
        out = tmp_path / "report.json"
        code = main(["certify", "--pair", "0", "1", "--curves", str(boundary_dir),
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["certified_rank"] == 2
        assert report["witness_value"] > report["threshold"]
        assert report["trace_distance_lower_bound"] > 0.0

    def test_uncertified_pair(self, boundary_dir, capsys):
        code = main(["certify", "--pair", "0.4", "0.1", "--curves", str(boundary_dir)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certified_rank"] == 0
        assert "separating_omega" not in report

    def test_state_file_against_curves(self, boundary_dir, tmp_path):
        state = write_json(tmp_path / "two.json",
                           state_to_json(np.array([0.0, 0.0, 1.0])))
        code = main(["certify", "--state", state, "--curves", str(boundary_dir)])
        assert code == 0

    def test_witness_mode_with_pair(self, tmp_path):
        witness = write_json(tmp_path / "w.json",
                             {"type": "fock_pair", "j": 0, "k": 2, "omega": math.pi / 2})
        out = tmp_path / "report.json"
        code = main(["certify", "--pair", "0", "1", "--witness", witness,
                     "--rank", "2", *FAST_FLAGS, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["certified_rank"] == 2

    def test_witness_mode_with_state_and_threshold_file(self, tmp_path):
        witness_obj = {"type": "fock_pair", "j": 0, "k": 2, "omega": math.pi / 2}
        witness = write_json(tmp_path / "w.json", witness_obj)
        tfile = tmp_path / "threshold.json"
        assert main(["threshold", witness, "--rank", "2", *FAST_FLAGS,
                     "--out", str(tfile)]) == 0
        state = write_json(tmp_path / "s.json", state_to_json(coherent(0.4, 20)))
        out = tmp_path / "report.json"
        code = main(["certify", "--state", state, "--witness", witness, "--rank", "2",
                     "--threshold-file", str(tfile), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["certified_rank"] == 0  # coherent states are Gaussian

    def test_missing_inputs_exit_one(self):
        assert main(["certify", "--pair", "0.5", "0.5"]) == 1

    @pytest.mark.parametrize("field, value", [("j", -1), ("j", 1.7), ("k", True), ("j", 2)])
    def test_bad_manifest_family_exit_one(self, boundary_dir, tmp_path, capsys, field, value):
        directory = tmp_path / "curves"
        shutil.copytree(boundary_dir, directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["family"][field] = value
        write_json(directory / "manifest.json", manifest)
        state = write_json(tmp_path / "p.json", state_to_json(np.array([0.1, 0.2, 0.3, 0.4])))
        out = tmp_path / "report.json"
        code = main(["certify", "--state", state, "--curves", str(directory), "--out", str(out)])
        assert code == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("keep", [0, 13], ids=["header-only", "rank-1-only"])
    def test_csv_ranks_differ_from_manifest_exit_one(self, boundary_dir, tmp_path, capsys, keep):
        directory = tmp_path / "curves"
        shutil.copytree(boundary_dir, directory)
        lines = (directory / "boundary.csv").read_text().splitlines()
        (directory / "boundary.csv").write_text("\n".join(lines[: keep + 1]) + "\n")
        out = tmp_path / "report.json"
        code = main(["certify", "--pair", "0.9", "0.05", "--curves", str(directory),
                     "--out", str(out)])
        assert code == 1
        assert "manifest.json lists ranks [1, 2]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--pair", "0", "1", "--margin", "nan"], ["--pair", "nan", "1"],
                  ["--pair", "0", "inf"], ["--pair", "0", "1", "--margin=-inf"]]
    )
    def test_non_finite_inputs_exit_one(self, boundary_dir, flags, capsys):
        assert main(["certify", "--curves", str(boundary_dir), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    def test_negative_margin_rejected_in_witness_mode(self, tmp_path, capsys):
        witness = write_json(tmp_path / "w.json",
                             {"type": "fock_pair", "j": 0, "k": 2, "omega": math.pi / 2})
        tfile = write_json(tmp_path / "t.json", {"rank": 2, "value": 0.9})
        code = main(["certify", "--pair", "0", "0.5", "--witness", witness, "--rank", "2",
                     "--threshold-file", tfile, "--margin", "-0.5"])
        assert code == 1
        assert "must be finite and >= 0" in capsys.readouterr().err


class TestValidateCommand:
    def test_hull_suite_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["validate", "--suite", "hull", "--seed", "3", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=["022", "077", "002"]
    )
    def test_out_file_mode_follows_umask(self, tmp_path, umask, mode):
        # the file gets the mode a plain open() would give it, not mkstemp's 0600
        out = tmp_path / "d" / "x.json"
        previous = os.umask(umask)
        try:
            assert main(["validate", "--suite", "hull", "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert out.stat().st_mode & 0o777 == mode
        assert [p.name for p in out.parent.iterdir()] == ["x.json"]

    def test_states_suite_passes(self, capsys):
        assert main(["validate", "--suite", "states"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suites"]["states"]["q0_identity_residual"] <= 1e-8

    def test_elements_suite_passes(self, capsys):
        # analytic blocks against the column oracle; the two agree to ~1e-15,
        # far inside the suite's 1e-8 tolerance (8.5e-14 with scipy's jv as
        # the oracle's Bessel coefficients)
        assert main(["validate", "--suite", "elements", "--seed", "703"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suites"]["elements"]["max_deviation"] <= 1e-14


class TestGaussianElementsCommand:
    def test_identity_block(self, capsys):
        code = main(["gaussian-elements", "--rows", "2", "--cols", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        block = np.array([[complex(re, im) for re, im in row] for row in payload["block"]])
        assert np.array_equal(block, np.eye(3, dtype=complex))

    def test_matches_library(self, capsys):
        from stellarwitness.fock_gaussian import GaussianUnitaryParams, gaussian_block

        code = main(["gaussian-elements", "--theta", "0.1", "--vartheta", "0.2",
                     "--r", "0.3", "--alpha", "0.5", "-0.25", "--rows", "3", "--cols", "4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        got = np.array([[complex(re, im) for re, im in row] for row in payload["block"]])
        expected = gaussian_block(
            GaussianUnitaryParams(theta=0.1, vartheta=0.2, r=0.3, alpha=0.5 - 0.25j), 3, 4
        )
        assert np.array_equal(got, expected)

    def test_squeezing_beyond_range_exit_one(self, capsys):
        # cosh r overflows near r = 710
        assert main(["gaussian-elements", "--r", "800", "--rows", "1", "--cols", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "squeezing r must be" in captured.err

    def test_large_displacement_without_squeezing(self, capsys):
        code = main(["gaussian-elements", "--r", "0", "--alpha", "30", "--rows", "250",
                     "--cols", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        got = complex(*payload["block"][249][0])
        expected = math.exp(-450.0 + 249 * math.log(30.0) - 0.5 * math.lgamma(250.0))
        assert abs(got - expected) <= 1e-12 * expected

    def test_poisson_column_where_vacuum_overlap_underflows(self, capsys):
        # <0|D(40)|0> = e^-800 underflows, while the rows near k = 1600 are O(1)
        columns = {}
        for r in ("0", "1e-11"):
            assert main(["gaussian-elements", "--r", r, "--alpha", "40", "--rows", "1799",
                         "--cols", "0"]) == 0
            payload = json.loads(capsys.readouterr().out)
            columns[r] = np.array([complex(*row[0]) for row in payload["block"]])
        ks = np.arange(1800)
        log_factorials = np.array([math.lgamma(k + 1.0) for k in ks])
        log_poisson = -800.0 + ks * math.log(40.0) - 0.5 * log_factorials
        representable = log_poisson > math.log(np.finfo(float).tiny)
        expected = np.exp(log_poisson[representable])
        assert np.max(np.abs(columns["0"][representable] - expected) / expected) <= 1e-10
        norms = {r: float(np.sum(np.abs(column) ** 2)) for r, column in columns.items()}
        assert abs(norms["1e-11"] - norms["0"]) <= 1e-9

    def test_displacement_beyond_range_exit_one(self, capsys):
        # <0|D(60)|0> = e^-1800 is below the kernel's scaled range
        assert main(["gaussian-elements", "--r", "0", "--alpha", "60", "--rows", "5000",
                     "--cols", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "out of range" in captured.err

    def test_overflowing_displacement_prints_only_the_error(self):
        # |alpha|^2 overflows in the range check: no numpy warning before the message
        result = subprocess.run(
            [sys.executable, "-m", "stellarwitness.cli", "gaussian-elements", "--r", "0.1",
             "--alpha", "1e200", "--rows", "3", "--cols", "3"],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == (
            "error: displacement out of range: <0|U|0> underflows, so every entry would be zero\n"
        )

    def test_block_with_norm_above_one_exit_three(self, capsys):
        # the forward recurrence loses this 100 x 100 block (norms up to ~6e5)
        code = main(["gaussian-elements", "--r", "0.3", "--alpha", "10", "--rows", "99",
                     "--cols", "99"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "norm" in captured.err

    def test_ordinary_block_passes_the_norm_check(self, capsys):
        code = main(["gaussian-elements", "--theta", "0.4", "--r", "0.8", "--alpha", "1.5",
                     "-2", "--rows", "9", "--cols", "9"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        block = np.array([[complex(re, im) for re, im in row] for row in payload["block"]])
        assert block.shape == (10, 10)
        assert np.linalg.norm(block, axis=0).max() <= 1.0
        assert np.linalg.norm(block, axis=1).max() <= 1.0


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "stellarwitness.cli", "gaussian-elements",
         "--rows", "1", "--cols", "1"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["rows"] == 1
