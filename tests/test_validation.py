import math

import numpy as np
import pytest

from stellarwitness import fock_gaussian, validation
from stellarwitness.cli import main


class TestNonFiniteFails:
    """A NaN or inf deviation fails its suite and is the case it names: a
    `value > worst` comparison is False for NaN and would let it pass."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_elements(self, monkeypatch, bad):
        block = validation.gaussian_block
        calls = []

        def spoiled(params, row_max, col_max):
            out = block(params, row_max, col_max)
            calls.append(params)
            if len(calls) == 2:
                out[3, 1] = bad
            return out

        monkeypatch.setattr(validation, "gaussian_block", spoiled)
        suite = validation.elements_suite(703, tuples=3)
        assert suite["pass"] is False
        assert not math.isfinite(suite["max_deviation"])
        assert suite["worst_case"] == {"params": calls[1].to_json(), "k": 3, "m": 1}

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_q0(self, monkeypatch, bad):
        q0 = validation.q0_after_loss
        calls = []
        monkeypatch.setattr(
            validation,
            "q0_after_loss",
            lambda p, T: calls.append(T) or (bad if len(calls) == 4 else q0(p, T)),
        )
        suite = validation.states_suite(703, trials=10)
        assert suite["pass"] is False
        assert not math.isfinite(suite["q0_identity_residual"])
        assert suite["worst_case"]["q0"]["T"] == calls[3]
        assert suite["click_sum_residual"] <= validation.CLICK_TOL

    def test_click(self, monkeypatch):
        click = validation.click_statistics
        monkeypatch.setattr(
            validation,
            "click_statistics",
            lambda p, M, eta, dark, m: math.nan if M == 1 and m == 1 else click(p, M, eta, dark, m),
        )
        suite = validation.states_suite(703, trials=10)
        assert suite["pass"] is False
        assert math.isnan(suite["click_sum_residual"])
        assert suite["worst_case"]["click"]["M"] == 1
        assert suite["q0_identity_residual"] <= validation.Q0_TOL

    def test_nan_bessel_coefficients_fail_validate(self, monkeypatch, capsys):
        # the NaN reaches the columns (a NaN tail defect is not grown away)
        # and the elements suite reports it
        monkeypatch.setattr(
            fock_gaussian, "_bessel_j", lambda rho, count: np.full(count, math.nan)
        )
        assert main(["validate", "--suite", "elements", "--seed", "703"]) == 3
        report = capsys.readouterr().out
        assert '"pass": false' in report and '"max_deviation": NaN' in report
