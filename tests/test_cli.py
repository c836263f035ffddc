import json
import math
import os
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


def two_mode_witness(occupations):
    return {
        "type": "terms",
        "modes": 2,
        "terms": [{
            "weight": 1.0,
            "state": {
                "kind": "multimode_fock_vector",
                "modes": 2,
                "amplitudes": [{"occupations": occupations, "value": [1.0, 0.0]}],
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

    def test_invalid_family_args(self, tmp_path):
        assert main(["boundary", "--family", "fock_pair", "--omegas", "4",
                     "--out", str(tmp_path / "x")]) == 1

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

    def test_states_suite_passes(self, capsys):
        assert main(["validate", "--suite", "states"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suites"]["states"]["q0_identity_residual"] <= 1e-8


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


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "stellarwitness.cli", "gaussian-elements",
         "--rows", "1", "--cols", "1"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["rows"] == 1
