import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dtnlab.cli
from dtnlab import ConfigError, NearSpectrum, config_from_dict, parse_config
from dtnlab.config import MAX_GRID_POINTS, MAX_PROBES
from dtnlab.classify import window_grid
from dtnlab.cli import main
from dtnlab.report import emit_csv, emit_plot_data, emit_report, parse_report, run_sweep

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


def _fresh_process(code):
    """The lines that code prints when run by a new interpreter on this
    checkout's src, whose modules no other test has loaded; the run must
    exit 0."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


class TestConfig:
    def test_defaults_filled(self):
        cfg = config_from_dict(T1_CONFIG)
        assert cfg.eta == {"eta0": 0.01, "floor_mode": "none"}
        assert cfg.probes["kind"] == "basis"
        assert cfg.threads == 1

    def test_defaults_not_shared(self):
        # the list defaults are copied on each parse
        raw = {"domain": T1_CONFIG["domain"], "window": T1_CONFIG["window"]}
        first = config_from_dict(raw)
        first.measures["zeta_samples"].append([0.0, 3.0])
        first.convergence["x_values"][0] = 9.0
        second = config_from_dict(raw)
        assert second.measures["zeta_samples"] == [[0.0, 1.0], [0.0, 2.0]]
        assert second.convergence["x_values"] == [0.5, 1.0, 2.0]

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

    def test_density_is_the_smallest_eta_sample(self, report, tmp_path):
        # per (x, probe), in sorted order: -im_Mgg of that point's samples.csv
        # row at its smallest eta
        emit_csv(report, str(tmp_path))
        emit_plot_data(report, str(tmp_path))
        expected = {}
        for line in (tmp_path / "samples.csv").read_text().splitlines()[1:]:
            x, eta, pid, _, im_q, _, _ = line.split(",")
            key = (float(x), int(pid))
            if key not in expected or float(eta) < expected[key][0]:
                expected[key] = (float(eta), -float(im_q))
        lines = (tmp_path / "plot_density.dat").read_text().splitlines()
        assert lines[0] == "# x  probe_id  neg_im_Mgg_at_smallest_eta"
        density = [((float(x), int(pid)), float(value))
                   for x, pid, value in (line.split() for line in lines[1:])]
        assert density == [(key, expected[key][1]) for key in sorted(expected)]
        assert len(density) == 41

    def test_points_on_window_grid(self, report):
        xs = window_grid((0.0, 4.0), 0.1)
        assert len(xs) == 41
        assert xs[0] == 0.0 and xs[-1] == pytest.approx(4.0, rel=1e-15)
        assert [p["x"] for p in report.data["points"]] == list(xs)

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
    # the reported level 0.749213 lies within pole_match_radius (0.125) of the
    # oracle levels 0.651945 and 0.915290 too, but is credited to its nearest
    # one; 0.951083 has an eigenvector with no trace on the boundary, so it is
    # no pole of M: invisible, not missed
    report = run_sweep(config_from_dict({
        "domain": {"kind": "exterior2d", "h": 1.0, "a": 1.5, "L": 7.5},
        "window": {"lo": 0.5, "hi": 1.0, "grid_step": 0.25},
    }))
    assert [(round(level["lambda"], 6), level["multiplicity"])
            for level in report.data["levels"]] == [(0.651945, 2), (0.749213, 1),
                                                    (0.91529, 2), (0.994689, 1)]
    checks = {round(c["lambda_oracle"], 6): c for c in report.data["oracle_crosscheck"]}
    assert sorted(checks) == [0.651945, 0.749213, 0.91529, 0.951083, 0.994689]
    for lam, c in checks.items():
        assert c["detected"] == (lam != 0.951083) and c["invisible"] == (lam == 0.951083)
        assert c["visible_multiplicity"] == (0 if c["invisible"] else c["multiplicity"])
        if c["detected"]:
            assert c["lambda_detected"] == pytest.approx(c["lambda_oracle"], abs=1e-12)
    assert checks[0.951083]["lambda_detected"] is None


def test_crosscheck_counts_the_visible_multiplicity(tmp_path, capsys):
    # the oracle level 4.0 of the h 1 annulus has multiplicity 10, but its
    # eigenvectors' traces have rank 1: M sees one dimension of it, and the
    # level stage reports multiplicity 1; the summary names that level
    cfg = {"domain": {"kind": "exterior2d", "h": 1.0, "a": 1.5, "L": 7.5},
           "window": {"lo": 3.9, "hi": 4.1, "grid_step": 0.1}}
    code = main(["classify", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "oracle levels in the window: 1; found 1, missed 0, invisible from the boundary 0",
        "found level 4.000000: multiplicity 10, visible from the boundary 1"]
    data = parse_report(str(tmp_path / "report.json"))
    [level] = data["levels"]
    [check] = data["oracle_crosscheck"]
    assert level["lambda"] == pytest.approx(4.0, abs=1e-12) and level["multiplicity"] == 1
    assert check["lambda_oracle"] == pytest.approx(4.0, abs=1e-12)
    assert (check["multiplicity"], check["visible_multiplicity"]) == (10, 1)
    assert check["detected"] and not check["invisible"]


def test_readme_example_config_classifies(tmp_path):
    # the config that README.md documents stays valid and runs
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"```json\n(.*?)```", readme, re.S)
    data = json.loads(block)
    config_from_dict(data)
    assert main(["classify", "--config", _write_config(tmp_path, data),
                 "--out", str(tmp_path)]) == 0


def test_readme_minimal_session_runs():
    # the README's minimal session runs on the current API and prints what its
    # comments say
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"```python\n(.*?)```", readme, re.S)
    printed = []
    exec(block, {"print": lambda *args: printed.append(args)})
    (m,), (residual,), (verdict, lam, multiplicity, r) = printed
    assert np.allclose(m, [[1 / 3]], rtol=1e-14, atol=0)
    assert residual < 1e-14
    assert (verdict, multiplicity) == ("eigenvalue", 1)
    assert lam == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(r, [[0.5]], rtol=1e-8, atol=0)


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
        assert len(poles) == 3   # header + the levels 1 and 3

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

    def test_measures_does_not_import_scipy_special(self, tmp_path):
        # Stone's Gauss-Legendre rule comes from numpy, so a measures run leaves
        # scipy.special (3.3 MB resident) unloaded
        code = ("import sys\nfrom dtnlab.cli import main\n"
                f"assert main(['measures', '--config', {_write_config(tmp_path)!r}, "
                f"'--out', {str(tmp_path)!r}]) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))\n")
        assert _fresh_process(code)[-1] == "[]"
        assert (tmp_path / "measures.json").exists()

    def test_halfline_runs_load_no_sparse_package(self, tmp_path):
        # A_II is kept as its stencil and read as a tridiagonal on the
        # half-line, so classify, measures (Stone's formula included) and
        # validate on the well load neither scipy.sparse nor its graph
        # routines; in 2D both come in with the band's ordering, and not before
        cfg = {"domain": {"kind": "halfline", "h": 0.05, "L": 20.0},
               "potential": {"kind": "well", "depth": 2.0, "width": 1.0},
               "window": {"lo": 0.0, "hi": 1.0, "grid_step": 0.05},
               "measures": {"stone_intervals": [[0.05, 0.14]]}}
        path = _write_config(tmp_path, cfg)
        loaded = ("'loaded', sorted(m for m in ('scipy.sparse', 'scipy.sparse.csgraph') "
                  "if m in sys.modules)")
        code = ("import sys\nfrom dtnlab.cli import main\n"
                "for command in ('classify', 'measures', 'validate'):\n"
                f"    assert main([command, '--config', {path!r}, '--out', {str(tmp_path)!r}]) == 0\n"
                f"    print({loaded})\n")
        lines = [line for line in _fresh_process(code) if line.startswith("loaded")]
        assert lines == ["loaded []"] * 3
        assert all((tmp_path / name).exists()
                   for name in ("report.json", "measures.json", "validate.json"))
        annulus = {"domain": {"kind": "exterior2d", "h": 1.0, "a": 1.5, "L": 7.5},
                   "window": {"lo": 0.5, "hi": 1.0, "grid_step": 0.25}}
        code = ("import sys\nfrom dtnlab import config_from_dict\n"
                "from dtnlab.report import build_model\n"
                f"_, op = build_model(config_from_dict({annulus!r}))\n"
                f"print({loaded})\n"
                "op.banded\n"
                f"print({loaded})\n")
        assert _fresh_process(code) == ["loaded []",
                                        "loaded ['scipy.sparse', 'scipy.sparse.csgraph']"]

    def test_convergence(self, tmp_path):
        cfg = dict(T1_CONFIG)
        cfg["convergence"] = {"x_values": [0.5], "eta": 0.1,
                              "h_values": [0.04, 0.02], "L": 50.0}
        code = main(["convergence", "--config", _write_config(tmp_path, cfg),
                     "--out", str(tmp_path)])
        assert code == 0
        rows = json.loads((tmp_path / "convergence.json").read_text())["rows"]
        assert rows[0]["err_vs_continuum"] > rows[1]["err_vs_continuum"]

    def _rejected(self, tmp_path, bad, match, command="classify"):
        with pytest.raises(ConfigError, match=match):
            config_from_dict(bad)
        code = main([command, "--config", _write_config(tmp_path, bad),
                     "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("intervals", [[[1.5, 0.5]], [[float("nan"), 1.5]], [[0.5]]])
    def test_bad_stone_interval_is_config_error(self, tmp_path, intervals):
        bad = dict(T1_CONFIG, measures={"stone_intervals": intervals})
        self._rejected(tmp_path, bad, "measures.stone_intervals", "measures")

    def test_real_zeta_samples_are_config_error(self, tmp_path):
        bad = dict(T1_CONFIG, measures={"zeta_samples": [[0.0, 0.0]]})
        self._rejected(tmp_path, bad, "measures.zeta_samples", "measures")

    @pytest.mark.parametrize("conv, match", [
        ({"h_values": [-0.1]}, "convergence.h_values"),
        ({"eta": float("inf")}, "convergence.eta"),
        ({"x_values": [float("nan")]}, "convergence.x_values"),
        ({"L": 0.0}, "convergence.L"),
        ({"eta": 0.0}, "convergence.eta"),
    ])
    def test_bad_convergence_is_config_error(self, tmp_path, conv, match):
        bad = dict(T1_CONFIG, convergence=conv)
        self._rejected(tmp_path, bad, match, "convergence")

    @pytest.mark.parametrize("section, key, value", [
        ("eta", "ratio", 0.5), ("eta", "count", 8), ("eta", "floor_factor", 5.0),
        ("thresholds", "tau_eig", 1e-6), ("thresholds", "tau_ac", 1e-6),
        ("thresholds", "fit_tol", 1e-5),
    ])
    def test_fixed_setting_is_unknown_key(self, tmp_path, section, key, value):
        # the eta schedule's shape and the verdicts' cuts are constants (limits.TAU_EIG,
        # TAU_AC, FIT_TOL, EtaSchedule's defaults): a config that sets one, even to
        # that constant's value, is rejected, not run with the setting ignored
        bad = dict(T1_CONFIG, **{section: dict(T1_CONFIG.get(section, {}), **{key: value})})
        self._rejected(tmp_path, bad, f"unknown key '{key}' in section '{section}'")

    @pytest.mark.parametrize("section, value, key", [
        ("domain", {"kind": "halfline", "h": 1.0, "L": 3.0, "a": 1.5}, "a"),
        ("potential", {"kind": "zero", "depth": 8.0}, "depth"),
        ("potential", {"kind": "well", "depth": 2.0, "width": 1.0,
                       "interior_values": [0.0, 0.0]}, "interior_values"),
        ("potential", {"kind": "tabulated", "interior_values": [0.0, 0.0], "depth": 2.0},
         "depth"),
    ], ids=["halfline-a", "zero-depth", "well-interior_values", "tabulated-depth"])
    def test_key_of_another_kind_is_config_error(self, tmp_path, section, value, key):
        # a key that the chosen kind does not read would otherwise be dropped
        # without a word: a depth on the zero potential ran the free model
        self._rejected(tmp_path, dict(T1_CONFIG, **{section: value}),
                       f"unknown key '{key}' in section '{section}' of kind '{value['kind']}'")

    @pytest.mark.parametrize("key, value", [("pole_match_radius", 0.0),
                                            ("window_half_width", -1.0),
                                            ("pole_match_radius", float("nan"))])
    def test_nonpositive_threshold_is_config_error(self, tmp_path, key, value):
        bad = dict(T1_CONFIG, thresholds=dict(T1_CONFIG["thresholds"], **{key: value}))
        self._rejected(tmp_path, bad, f"thresholds.{key}")

    def test_infinite_eta0_is_config_error(self, tmp_path):
        bad = dict(T1_CONFIG, eta={"eta0": float("inf")})
        self._rejected(tmp_path, bad, "eta.eta0")

    def test_nan_tabulated_potential_is_config_error(self, tmp_path):
        bad = dict(T1_CONFIG, potential={"kind": "tabulated",
                                         "interior_values": [0.0, float("nan")]})
        self._rejected(tmp_path, bad, "potential.interior_values")

    def test_wrong_length_tabulated_potential_is_config_error(self, tmp_path):
        bad = dict(T1_CONFIG, potential={"kind": "tabulated",
                                         "interior_values": [0.0, 0.0, 0.0]})
        self._rejected(tmp_path, bad, "potential.interior_values")

    def test_boundary_potential_is_config_error(self, tmp_path):
        bad = dict(T1_CONFIG, potential={"kind": "tabulated",
                                         "interior_values": [0.0, 0.0],
                                         "boundary_values": [0.0]})
        self._rejected(tmp_path, bad, "boundary_values")

    @pytest.mark.parametrize("domain", [
        {"kind": "halfline", "h": 0.3, "L": 1.0},              # L not a multiple of h
        {"kind": "exterior2d", "h": 1.0, "a": 0.5, "L": 7.5},   # no obstacle node
        {"kind": "exterior2d", "h": 1.0, "a": 8.0, "L": 7.5},   # obstacle outside the box
    ])
    def test_bad_geometry_is_config_error(self, tmp_path, capsys, domain):
        # the geometry is checked when the model is built, and reported as
        # bad input all the same
        code = main(["classify", "--config", _write_config(tmp_path, dict(T1_CONFIG,
                                                                          domain=domain)),
                     "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: ")

    def test_validate_gives_up(self, tmp_path, capsys, monkeypatch):
        # a model on which every draw raises NearSpectrum ends with exit 2 and
        # the draws made, instead of drawing forever
        calls = []

        def near(op, lam, zeta, nu):
            calls.append(lam)
            if len(calls) > 10_000:
                raise RuntimeError("validate does not give up")
            raise NearSpectrum(lam, 0.0)

        monkeypatch.setattr(dtnlab.cli, "identity_suite", near)
        code = main(["validate", "--config", _write_config(tmp_path), "--out", str(tmp_path)])
        assert code == 2
        assert len(calls) == 200
        assert "0 of 20 draws succeeded" in capsys.readouterr().err
        assert json.loads((tmp_path / "validate.json").read_text())["draws"] == []

    def test_validate_on_a_fine_halfline(self, tmp_path, capsys):
        # at h = 1e-5 the NearSpectrum threshold 1e-10 * ||A_II||_1 is 4, above
        # every unscaled draw height in [0.2, 2]; scaled by the certified
        # height, every draw succeeds
        cfg = dict(T1_CONFIG, domain={"kind": "halfline", "h": 1e-5, "L": 2.0})
        main(["validate", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert "gave up" not in capsys.readouterr().err
        assert len(json.loads((tmp_path / "validate.json").read_text())["draws"]) == 20

    def test_window_stage_failure_stays_local(self, tmp_path):
        # eta0 = 1e-13 puts M(1 + i*eta0) within the solver's distance
        # threshold of the level at 1: the AC and SC stages hit NearSpectrum,
        # and so does the grid point 1.0.  Purity reads that point's error as
        # the level that the level stage finds next to it, so it stays
        # conclusive.
        cfg = dict(T1_CONFIG, window={"lo": 0.9, "hi": 1.1, "grid_step": 0.1},
                   eta={"eta0": 1e-13})
        code = main(["classify", "--config", _write_config(tmp_path, cfg),
                     "--out", str(tmp_path)])
        assert code == 0
        for name in ("samples.csv", "plot_density.dat", "plot_poles.dat"):
            assert (tmp_path / name).exists(), name
        data = parse_report(str(tmp_path / "report.json"))
        for section in (data["ac_support"], data["sc_screen"]):
            assert section["verdict"] == "inconclusive"
            assert "too close to the spectrum" in section["reason"]
        purity = data["purity"][0]
        assert purity["window"] == [0.9, 1.1]
        assert purity["verdict"] == "Mixed/Unknown"
        assert purity["offending_points"] == [pytest.approx(1.0, abs=1e-6)]

    def test_classify_prints_purity_and_missed_levels(self, tmp_path, capsys):
        # the level stage finds all six levels of the well sweep, 0.019519
        # included, and purity lists each of them
        cfg = {"domain": {"kind": "halfline", "h": 0.05, "L": 20.0},
               "potential": {"kind": "well", "depth": 2.0, "width": 1.0},
               "window": {"lo": 0.0, "hi": 1.0, "grid_step": 0.05}}
        code = main(["classify", "--config", _write_config(tmp_path, cfg),
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1:] == [
            "purity of [0.0, 1.0]: Mixed/Unknown, offending points "
            "0.019519, 0.080892, 0.188820, 0.346166, 0.554152, 0.813240",
            "oracle levels in the window: 6; found 6, missed 0, invisible from the boundary 0",
        ]

    def test_classify_floored_schedule_counts_no_missed_levels(self, tmp_path, capsys):
        # the truncated free half-line emulates continuous spectrum: its floored
        # schedule is not meant to resolve the 29 levels in the window, so the
        # cross-check is skipped and counts none of them as missed
        cfg = {"domain": {"kind": "halfline", "h": 0.05, "L": 60.0},
               "window": {"lo": 0.25, "hi": 4.0, "grid_step": 0.25},
               "eta": {"eta0": 0.4, "floor_mode": "halfline_auto"}}
        code = main(["classify", "--config", _write_config(tmp_path, cfg),
                     "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "oracle cross-check skipped: a floored eta schedule does not resolve levels")
        assert parse_report(str(tmp_path / "report.json"))["oracle_crosscheck"] == {
            "verdict": "skipped", "reason": "a floored eta schedule does not resolve levels"}

    def test_window_reaching_a_floor_has_no_levels(self):
        # the window starts below the band edge 0, where the schedule is not
        # floored; its floored part is continuum emulation, so the level stage
        # stops at the edge and cannot fail on the many levels above it and
        # spoil the points below 0 and the purity
        report = run_sweep(config_from_dict({
            "domain": {"kind": "halfline", "h": 0.05, "L": 60.0},
            "window": {"lo": -0.5, "hi": 1.0, "grid_step": 0.25},
            "eta": {"eta0": 0.4, "floor_mode": "halfline_auto"}})).data
        verdicts = [p["verdict"] for p in report["points"]]
        # the analyticity window of -0.25 stops short of the band edge 0, where
        # the box modes that emulate the continuum start; 0 is the band edge
        assert verdicts == ["resolvent"] * 2 + ["continuous"] * 5
        assert report["levels"] == []
        assert report["purity"][0]["verdict"] == "PureAC"
        assert report["ac_support"]["closed_union"] == [[0.0, 1.0]]
        assert report["oracle_crosscheck"] == {
            "verdict": "skipped", "reason": "a floored eta schedule does not resolve levels"}

    def test_bound_state_below_a_floored_window_part(self):
        # a window that crosses the band edge still resolves the levels below
        # it: the well's bound state is an eigenvalue, and the box modes above
        # the edge, which emulate continuous spectrum, are no levels
        report = run_sweep(config_from_dict({
            "domain": {"kind": "halfline", "h": 0.05, "L": 20.0},
            "potential": {"kind": "well", "depth": 8.0, "width": 1.0},
            "window": {"lo": -3.5, "hi": 1.0, "grid_step": 0.25},
            "eta": {"eta0": 0.4, "floor_mode": "halfline_auto"}})).data
        lam = -2.863385642982     # the oracle's lowest eigenvalue
        [level] = report["levels"]
        assert level["lambda"] == pytest.approx(lam, abs=1e-9)
        assert level["multiplicity"] == 1
        point = report["points"][3]
        assert point["x"] == -2.75 and point["verdict"] == "eigenvalue"
        assert point["refined_lambda"] == pytest.approx(lam, abs=1e-9)
        # -0.25 lies in the resolvent set: its analyticity window stops short of 0
        assert [(p["x"], p["verdict"]) for p in report["points"][13:]] == [
            (-0.25, "resolvent")] + [(x, "continuous") for x in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert report["oracle_crosscheck"] == {
            "verdict": "skipped", "reason": "a floored eta schedule does not resolve levels"}

    def test_classify_failed_level_stage_says_skipped(self, tmp_path, capsys):
        # 11 levels of the well lie inside the level stage's contour, more than
        # it resolves: the cross-check is skipped with the stage's reason
        # instead of counting every level in the window as missed
        cfg = {"domain": {"kind": "halfline", "h": 0.05, "L": 20.0},
               "potential": {"kind": "well", "depth": 2.0, "width": 1.0},
               "window": {"lo": 0.0, "hi": 2.5, "grid_step": 0.5},
               "thresholds": {"window_half_width": 0.25}}
        code = main(["classify", "--config", _write_config(tmp_path, cfg),
                     "--out", str(tmp_path)])
        assert code == 0
        reason = ("the level stage was inconclusive: more levels around (0.0, 2.5) than "
                  "32 contour moments resolve")
        assert capsys.readouterr().out.splitlines()[-1] == f"oracle cross-check skipped: {reason}"
        assert parse_report(str(tmp_path / "report.json"))["oracle_crosscheck"] == {
            "verdict": "skipped", "reason": reason}

    def test_classify_crosschecks_a_fine_halfline(self, tmp_path, capsys):
        # 3999 interior nodes: the windowed oracle reads only the eigenpairs
        # around the window, so no size skips the cross-check, and the level
        # stage finds each of the three levels in it
        cfg = {"domain": {"kind": "halfline", "h": 0.005, "L": 20.0},
               "potential": {"kind": "well", "depth": 2.0, "width": 1.0},
               "window": {"lo": 0.0, "hi": 0.25, "grid_step": 0.05}}
        code = main(["classify", "--config", _write_config(tmp_path, cfg),
                     "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "oracle levels in the window: 3; found 3, missed 0, invisible from the boundary 0")
        checks = parse_report(str(tmp_path / "report.json"))["oracle_crosscheck"]
        assert [(c["detected"], c["multiplicity"], c["visible_multiplicity"])
                for c in checks] == [(True, 1, 1)] * 3

    @pytest.mark.parametrize("section, value, match, command", [
        ("domain", {"kind": "halfline", "h": True, "L": 3.0}, "domain.h", "classify"),
        ("window", {"lo": 0.0, "hi": 4.0, "grid_step": True}, "window.grid_step", "classify"),
        ("measures", {"stone_intervals": [[False, True]]}, "measures.stone_intervals",
         "measures"),
    ])
    def test_boolean_is_not_a_number(self, tmp_path, section, value, match, command):
        self._rejected(tmp_path, dict(T1_CONFIG, **{section: value}), match, command)

    @pytest.mark.parametrize("eta, match", [
        ({"floor_mode": "constant"}, "eta.floor_mode"),
        ({"floor_const": 0.0}, "floor_const"),
    ])
    def test_constant_floor_is_config_error(self, tmp_path, eta, match):
        self._rejected(tmp_path, dict(T1_CONFIG, eta=eta), match)

    def test_halfline_floor_on_exterior_is_config_error(self, tmp_path):
        # the level spacing 2 pi sqrt(x) / L is the half-line's: the annulus would
        # be floored with its box half-width and a finite model read as PureAC
        bad = {"domain": {"kind": "exterior2d", "h": 1.0, "a": 1.5, "L": 4.5},
               "window": {"lo": 0.5, "hi": 1.0, "grid_step": 0.5},
               "eta": {"eta0": 0.4, "floor_mode": "halfline_auto"}}
        self._rejected(tmp_path, bad, r"eta\.floor_mode .*domain\.kind")

    @pytest.mark.parametrize("probes, match", [
        ({"kind": "random", "count": 1e12}, "probes.count"),
        ({"kind": "random", "count": MAX_PROBES + 1}, "probes.count"),
        ({"kind": "random", "count": True}, "probes.count"),
        ({"kind": "random", "count": 2.7}, "probes.count"),
        ({"kind": "random", "count": float("inf")}, "probes.count"),
        ({"kind": "random", "seed": "x"}, "probes.seed"),
        ({"kind": "random", "seed": 1.5}, "probes.seed"),
        ({"kind": "random", "seed": -1}, "probes.seed"),
    ])
    def test_bad_probes_is_config_error(self, tmp_path, probes, match):
        self._rejected(tmp_path, dict(T1_CONFIG, probes=probes), match)

    @pytest.mark.parametrize("threads", ["3", 2.7, True, 0])
    def test_bad_threads_is_config_error(self, tmp_path, threads):
        self._rejected(tmp_path, dict(T1_CONFIG, threads=threads), "threads")

    def test_integer_valued_counts_accepted(self):
        cfg = config_from_dict(dict(T1_CONFIG, threads=2.0,
                                    probes={"kind": "random", "count": float(MAX_PROBES),
                                            "seed": 7.0}))
        assert cfg.probes == {"kind": "random", "count": MAX_PROBES, "seed": 7}
        assert cfg.threads == 2
        assert all(isinstance(v, int) for v in (cfg.threads, cfg.probes["count"],
                                                cfg.probes["seed"]))

    def test_grid_point_cap(self, tmp_path):
        fits = {"lo": 0.0, "hi": 1.0, "grid_step": 1.0 / (MAX_GRID_POINTS - 1)}
        assert len(window_grid((0.0, 1.0), fits["grid_step"])) == MAX_GRID_POINTS
        config_from_dict(dict(T1_CONFIG, window=fits))
        for step in (1.0 / MAX_GRID_POINTS, 1e-300):
            bad = dict(T1_CONFIG, window={"lo": 0.0, "hi": 1.0, "grid_step": step})
            self._rejected(tmp_path, bad, "window.grid_step")

    def test_threads_flag(self, tmp_path, capsys):
        # the flag is checked and recorded, and the sweep's output does not depend on it
        config = _write_config(tmp_path)
        assert main(["classify", "--config", config, "--out", str(tmp_path / "zero"),
                     "--threads", "0"]) == 1
        assert "threads must be at least 1" in capsys.readouterr().err
        for name, flag in (("plain", []), ("two", ["--threads", "2"])):
            assert main(["classify", "--config", config, "--out", str(tmp_path / name)]
                        + flag) == 0
        assert ((tmp_path / "plain" / "report.json").read_bytes()
                == (tmp_path / "two" / "report.json").read_bytes())

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # a Stone interval ending on the level 1 fails inside the command: exit 2
        data = dict(T1_CONFIG, measures=dict(T1_CONFIG["measures"],
                                             stone_intervals=[[0.5, 1.0]]))
        assert main(["measures", "--config", _write_config(tmp_path, data),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "lies on an eigenvalue" in err

    def test_tabulated_zero_potential_matches_zero(self, tmp_path):
        tabulated = dict(T1_CONFIG, potential={"kind": "tabulated", "interior_values": [0, 0]})
        for name, data in (("zero", T1_CONFIG), ("tabulated", tabulated)):
            (tmp_path / name).mkdir()
            assert main(["classify", "--config", _write_config(tmp_path / name, data),
                         "--out", str(tmp_path / name)]) == 0
        zero, tab = (parse_report(str(tmp_path / name / "report.json"))
                     for name in ("zero", "tabulated"))
        assert zero.pop("config") != tab.pop("config")
        assert zero == tab
        assert ((tmp_path / "zero" / "samples.csv").read_bytes()
                == (tmp_path / "tabulated" / "samples.csv").read_bytes())

    def test_config_error_exit_code(self, tmp_path):
        bad = dict(T1_CONFIG, domain={"kind": "halfline", "h": -1.0, "L": 3.0})
        code = main(["validate", "--config", _write_config(tmp_path, bad),
                     "--out", str(tmp_path)])
        assert code == 1
