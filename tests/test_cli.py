import json

import numpy as np
import pytest

from dtnlab import ConfigError, config_from_dict, parse_config
from dtnlab.cli import main
from dtnlab.report import emit_csv, emit_report, parse_report, run_sweep

T1_CONFIG = {
    "domain": {"kind": "halfline", "h": 1.0, "L": 3.0},
    "window": {"lo": 0.0, "hi": 4.0, "grid_step": 0.1},
    "thresholds": {"pole_match_radius": 0.05, "window_half_width": 0.2},
    "measures": {"stone_intervals": [[0.5, 1.5]], "zeta_samples": [[0.0, 1.0], [0.0, 2.0]]},
}


def _write_config(tmp_path, data=T1_CONFIG):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestConfig:
    def test_defaults_filled(self):
        cfg = config_from_dict(T1_CONFIG)
        assert cfg.eta == {"eta0": 0.01, "ratio": 0.5, "count": 8,
                           "floor_mode": "none", "floor_const": 0.0,
                           "floor_factor": 5.0}
        assert cfg.probes["kind"] == "basis"
        assert cfg.threads == 1

    def test_unknown_key_suggestion(self):
        bad = dict(T1_CONFIG, potental={"kind": "zero"})
        with pytest.raises(ConfigError, match="potential"):
            config_from_dict(bad)

    def test_negative_h_names_field(self):
        bad = dict(T1_CONFIG, domain={"kind": "halfline", "h": -1.0, "L": 3.0})
        with pytest.raises(ConfigError, match="domain.h"):
            config_from_dict(bad)

    def test_window_order(self):
        bad = dict(T1_CONFIG, window={"lo": 4.0, "hi": 0.0, "grid_step": 0.1})
        with pytest.raises(ConfigError, match="window"):
            config_from_dict(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(str(tmp_path / "nope.json"))

    def test_bad_json_line_diagnostics(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  bad\n}")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(str(path))


@pytest.fixture(scope="module")
def report():
    return run_sweep(config_from_dict(T1_CONFIG))


class TestSweep:
    def test_exact_oracle_flags(self, report):
        eig_points = [p["x"] for p in report.data["points"]
                      if p["verdict"] == "eigenvalue"]
        assert eig_points == [pytest.approx(1.0), pytest.approx(3.0)]
        assert all(c["detected"] for c in report.data["oracle_crosscheck"])

    def test_csv_row_count_and_verdicts(self, report, tmp_path):
        path = emit_csv(report, str(tmp_path))
        lines = open(path).read().splitlines()
        assert lines[0] == "x,eta,probe_id,re_Mgg,im_Mgg,abs_etaMg,verdict"
        assert len(lines) - 1 == 41 * 1 * 8   # grid points x probes x eta samples
        verdicts = {line.split(",")[-1] for line in lines[1:]}
        assert verdicts <= {"resolvent", "eigenvalue", "continuous", "inconclusive"}

    def test_report_roundtrip(self, report, tmp_path):
        path = emit_report(report, str(tmp_path))
        assert parse_report(path) == report.data

    def test_thread_count_invariance(self, report, tmp_path):
        import dataclasses
        cfg4 = dataclasses.replace(config_from_dict(T1_CONFIG), threads=4)
        report4 = run_sweep(cfg4)
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        assert open(emit_report(report, str(a))).read() \
            == open(emit_report(report4, str(b))).read()
        assert open(emit_csv(report, str(a))).read() \
            == open(emit_csv(report4, str(b))).read()


def test_crosscheck_credits_each_pole_to_its_nearest_level():
    # the pole at 0.749213 lies within pole_match_radius (0.125) of the
    # level 0.651945 too, but is nearest to the level 0.749213
    report = run_sweep(config_from_dict({
        "domain": {"kind": "exterior2d", "h": 1.0, "a": 1.5, "L": 7.5},
        "window": {"lo": 0.5, "hi": 1.0, "grid_step": 0.25},
    }))
    checks = {round(c["lambda_oracle"], 6): c for c in report.data["oracle_crosscheck"]}
    assert not checks[0.651945]["detected"]
    assert checks[0.651945]["lambda_detected"] is None
    assert checks[0.749213]["detected"]
    assert checks[0.749213]["lambda_detected"] == pytest.approx(0.749213, abs=1e-6)


class TestCli:
    def test_validate(self, tmp_path, capsys):
        code = main(["validate", "--config", _write_config(tmp_path),
                     "--out", str(tmp_path)])
        assert code == 0
        assert "identity residual" in capsys.readouterr().out
        assert (tmp_path / "validate.json").exists()

    def test_classify_outputs(self, tmp_path):
        code = main(["classify", "--config", _write_config(tmp_path),
                     "--out", str(tmp_path)])
        assert code == 0
        for name in ("report.json", "samples.csv", "plot_density.dat", "plot_poles.dat"):
            assert (tmp_path / name).exists(), name
        poles = (tmp_path / "plot_poles.dat").read_text().splitlines()
        assert len(poles) == 3   # header + two detected poles

    def test_oracle(self, tmp_path):
        code = main(["oracle", "--config", _write_config(tmp_path),
                     "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "oracle.json").read_text())
        assert data["eigenvalues"] == [pytest.approx(1.0), pytest.approx(3.0)]

    def test_measures(self, tmp_path):
        code = main(["measures", "--config", _write_config(tmp_path),
                     "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "measures.json").read_text())
        assert data["simplicity"] == {"rank": 2, "interior_dim": 2, "full": True}
        assert data["stone"][0]["extrapolation_error"] < 1e-6

    def test_convergence(self, tmp_path):
        cfg = dict(T1_CONFIG)
        cfg["convergence"] = {"x_values": [0.5], "eta": 0.1,
                              "h_values": [0.04, 0.02], "L": 50.0}
        code = main(["convergence", "--config", _write_config(tmp_path, cfg),
                     "--out", str(tmp_path)])
        assert code == 0
        rows = json.loads((tmp_path / "convergence.json").read_text())["rows"]
        assert rows[0]["err_vs_continuum"] > rows[1]["err_vs_continuum"]

    def _rejected(self, tmp_path, bad, match):
        with pytest.raises(ConfigError, match=match):
            config_from_dict(bad)
        code = main(["classify", "--config", _write_config(tmp_path, bad),
                     "--out", str(tmp_path)])
        assert code == 1

    def test_infinite_eta0_is_config_error(self, tmp_path):
        bad = dict(T1_CONFIG, eta={"eta0": float("inf")})
        self._rejected(tmp_path, bad, "eta.eta0")

    def test_nan_tabulated_potential_is_config_error(self, tmp_path):
        bad = dict(T1_CONFIG, potential={"kind": "tabulated",
                                         "interior_values": [0.0, float("nan")],
                                         "boundary_values": [0.0]})
        self._rejected(tmp_path, bad, "potential.interior_values")

    def test_wrong_length_tabulated_potential_is_config_error(self, tmp_path):
        bad = dict(T1_CONFIG, potential={"kind": "tabulated",
                                         "interior_values": [0.0, 0.0, 0.0],
                                         "boundary_values": [0.0]})
        self._rejected(tmp_path, bad, "potential.interior_values")

    def test_config_error_exit_code(self, tmp_path):
        bad = dict(T1_CONFIG, domain={"kind": "halfline", "h": -1.0, "L": 3.0})
        code = main(["validate", "--config", _write_config(tmp_path, bad),
                     "--out", str(tmp_path)])
        assert code == 1
