import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sphbeam.cli import JsonLayout, _run, main, write_json
from sphbeam.radiation import dodecahedron


@pytest.fixture
def runner():
    return CliRunner()


SRC = Path(__file__).resolve().parents[1] / "src"
_CAPS_DEG = np.rad2deg(dodecahedron(0.15, 0.3).cap_dirs).tolist()


def _python(*args):
    """Run a fresh interpreter with the package source importable."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def _design(runner, tmp_path, *extra):
    args = [
        "design", "--method", "max-wng", "--order", "2", "--freq", "400",
        "--look", "90,0", "--near-field", "--radius", "0.57",
        "--out", str(tmp_path), *extra,
    ]
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestDesign:
    def test_produces_all_files(self, runner, tmp_path):
        _design(runner, tmp_path)
        for stem in ("modal_weights", "steered_weights", "unit_weights", "metrics"):
            assert (tmp_path / f"{stem}_400Hz.json").exists()

    def test_metrics_content(self, runner, tmp_path):
        _design(runner, tmp_path)
        rep = json.loads((tmp_path / "metrics_400Hz.json").read_text())
        assert rep["q"] > 0 and rep["wng"] > 0
        assert rep["di_db"] == pytest.approx(10 * np.log10(rep["q"]))
        assert all(np.isfinite(v) for v in (rep["q"], rep["wng"], rep["unit_weight_norm"]))

    def test_max_di_1000hz_di_report(self, runner, tmp_path):
        result = runner.invoke(main, [
            "design", "--method", "max-di", "--order", "2", "--freq", "1000",
            "--out", str(tmp_path),
        ], catch_exceptions=False)
        assert result.exit_code == 0
        rep = json.loads((tmp_path / "metrics_1000Hz.json").read_text())
        assert rep["di_db"] == pytest.approx(9.5424, abs=1e-3)

    def test_order_violation_exit_code(self, runner, tmp_path):
        result = runner.invoke(main, [
            "design", "--method", "max-di", "--order", "3", "--freq", "400",
            "--out", str(tmp_path),
        ])
        assert result.exit_code == 2
        assert "(N+1)^2" in result.output

    def test_deterministic_outputs(self, runner, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        _design(runner, out1)
        _design(runner, out2)
        for path1 in out1.iterdir():
            assert path1.read_bytes() == (out2 / path1.name).read_bytes()

    def test_dolph_chebyshev_requires_sidelobe(self, runner, tmp_path):
        result = runner.invoke(main, [
            "design", "--method", "dolph-chebyshev", "--order", "2", "--freq", "400",
            "--out", str(tmp_path),
        ])
        assert result.exit_code == 2

    def test_geometry_file(self, runner, tmp_path):
        geom = {"r0": 0.2, "alpha": 0.25,
                "caps_deg": (np.column_stack([
                    np.rad2deg(np.arccos(np.linspace(-0.9, 0.9, 8))),
                    np.linspace(0, 315, 8)])).tolist()}
        path = tmp_path / "geom.json"
        path.write_text(json.dumps(geom))
        result = runner.invoke(main, [
            "design", "--method", "max-di", "--order", "1", "--freq", "500",
            "--geometry", str(path), "--out", str(tmp_path),
        ], catch_exceptions=False)
        assert result.exit_code == 0

    def test_tiny_cap_gives_finite_files(self, runner, tmp_path):
        # 1 - cos(1e-9) rounds to 0; the cap gains must not
        path = tmp_path / "geom.json"
        path.write_text(json.dumps({"r0": 0.15, "alpha": 1e-9, "caps_deg": _CAPS_DEG}))
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "design", "--method", "max-wng", "--order", "2", "--freq", "400",
            "--geometry", str(path), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        files = sorted(out.glob("*.json"))
        assert len(files) == 4
        for written in files:
            json.loads(written.read_text(), parse_constant=_reject_constant)
        assert json.loads((out / "metrics_400Hz.json").read_text())["unit_weight_norm"] > 0


class TestSteerSynthesize:
    def test_steer_then_synthesize(self, runner, tmp_path):
        _design(runner, tmp_path)
        restee = tmp_path / "restee"
        result = runner.invoke(main, [
            "steer", str(tmp_path / "modal_weights_400Hz.json"),
            "--look", "45,120", "--out", str(restee),
        ], catch_exceptions=False)
        assert result.exit_code == 0
        result = runner.invoke(main, [
            "synthesize", str(restee / "steered_weights_400Hz.json"), "--out", str(restee),
        ], catch_exceptions=False)
        assert result.exit_code == 0
        data = json.loads((restee / "unit_weights_400Hz.json").read_text())
        assert len(data["w"]) == 12

    @pytest.mark.parametrize("command", ["steer", "metrics", "simulate"])
    def test_design_for_another_sphere_exits_2(self, runner, tmp_path, command):
        # designed at r0 = 0.2 m, read back with the default r0 = 0.15 m
        _design(runner, tmp_path, "--geometry", "dodecahedron:r0=0.2")
        args = {"steer": ["--look", "45,120"], "metrics": [],
                "simulate": [str(tmp_path / "unit_weights_400Hz.json")]}[command]
        out = tmp_path / "out"
        result = runner.invoke(main, [command, str(tmp_path / "modal_weights_400Hz.json"),
                                      *args, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "r0_m" in result.output and "0.2" in result.output
        assert not out.exists()

    def test_wrong_kind_rejected(self, runner, tmp_path):
        _design(runner, tmp_path)
        result = runner.invoke(main, [
            "steer", str(tmp_path / "unit_weights_400Hz.json"), "--look", "0,0",
            "--out", str(tmp_path),
        ])
        assert result.exit_code == 2


class TestMetricsCommand:
    def test_json_and_csv(self, runner, tmp_path):
        _design(runner, tmp_path)
        for fmt in ("json", "csv"):
            out = tmp_path / fmt
            result = runner.invoke(main, [
                "metrics", str(tmp_path / "modal_weights_400Hz.json"),
                "--out", str(out), "--format", fmt,
            ], catch_exceptions=False)
            assert result.exit_code == 0
            assert (out / f"metrics_400Hz.{fmt}").exists()


class TestGridCommand:
    def test_grid_export(self, runner, tmp_path):
        result = runner.invoke(main, [
            "grid", "--analysis-order", "10", "--radius", "0.57", "--out", str(tmp_path),
        ], catch_exceptions=False)
        assert result.exit_code == 0
        data = json.loads((tmp_path / "grid_N10.json").read_text())
        assert data["num_points"] == 242
        assert sum(data["weights_sr"]) == pytest.approx(4 * np.pi, abs=1e-10)


class TestSimulate:
    def _simulate(self, runner, tmp_path, *extra):
        _design(runner, tmp_path)
        return runner.invoke(main, [
            "simulate",
            str(tmp_path / "modal_weights_400Hz.json"),
            str(tmp_path / "unit_weights_400Hz.json"),
            "--look", "90,0", "--out", str(tmp_path), *extra,
        ], catch_exceptions=False)

    def test_outputs_and_low_error(self, runner, tmp_path):
        result = self._simulate(runner, tmp_path)
        assert result.exit_code == 0, result.output
        for variant in ("designed", "measured"):
            assert (tmp_path / f"balloon_{variant}_400Hz.csv").exists()
            assert (tmp_path / f"cross_section_{variant}_400Hz.csv").exists()
        rep = json.loads((tmp_path / "simulation_400Hz.json").read_text())
        assert rep["pattern_error"] < 1e-3

    def test_cross_section_peaks_at_look(self, runner, tmp_path):
        self._simulate(runner, tmp_path)
        lines = (tmp_path / "cross_section_designed_400Hz.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith(("#", "theta_deg"))]
        mags = np.array([float(r[4]) for r in rows])
        phis = np.array([float(r[1]) for r in rows])
        assert phis[np.argmax(mags)] == pytest.approx(0.0)

    def test_csv_headers_carry_hash_and_units(self, runner, tmp_path):
        self._simulate(runner, tmp_path)
        text = (tmp_path / "balloon_designed_400Hz.csv").read_text()
        assert text.startswith("# config_hash: ")
        assert "# units:" in text
        assert "theta_deg,phi_deg,re,im,abs,db" in text

    def test_all_values_finite(self, runner, tmp_path):
        self._simulate(runner, tmp_path)
        lines = (tmp_path / "balloon_measured_400Hz.csv").read_text().splitlines()
        for line in lines:
            if line.startswith(("#", "theta_deg")):
                continue
            assert all(np.isfinite(float(v)) for v in line.split(","))

    def test_perturbation_raises_error_level(self, runner, tmp_path):
        result = self._simulate(runner, tmp_path, "--perturb",
                                "gain_db=1.0,phase_deg=5,noise=1e-3,seed=3")
        assert result.exit_code == 0
        rep = json.loads((tmp_path / "simulation_400Hz.json").read_text())
        assert rep["pattern_error"] > 1e-3

    def test_omnidirectional_cross_section_is_flat(self, runner, tmp_path):
        result = runner.invoke(main, [
            "design", "--method", "max-di", "--order", "0", "--freq", "400",
            "--look", "90,0", "--out", str(tmp_path),
        ], catch_exceptions=False)
        assert result.exit_code == 0
        result = runner.invoke(main, [
            "simulate",
            str(tmp_path / "modal_weights_400Hz.json"),
            str(tmp_path / "unit_weights_400Hz.json"),
            "--look", "90,0", "--out", str(tmp_path),
        ], catch_exceptions=False)
        assert result.exit_code == 0
        lines = (tmp_path / "cross_section_designed_400Hz.csv").read_text().splitlines()
        mags = [float(line.split(",")[4]) for line in lines
                if not line.startswith(("#", "theta_deg"))]
        assert np.ptp(mags) < 1e-12 * max(mags)


def test_cli_import_leaves_out_scipy():
    result = _python("-c", "import sys, sphbeam.cli; print('scipy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


class TestBoundary:
    def test_linalg_error_exits_3(self):
        def failing():
            raise np.linalg.LinAlgError("SVD did not converge")

        with pytest.raises(click.ClickException) as info:
            _run(failing)()
        assert info.value.exit_code == 3

    def test_write_json_rejects_non_finite(self, tmp_path):
        path = tmp_path / "x.json"
        with pytest.raises(ArithmeticError, match="non-finite"):
            write_json(path, JsonLayout("metrics", "0", {"q": float("nan")}))
        assert not path.exists()

    @pytest.mark.parametrize("args, field", [
        (["--method", "max-di", "--order", "-1", "--freq", "400"], "--order"),
        (["--method", "max-di", "--order", "3", "--freq", "400"], "(N+1)^2"),
        (["--method", "max-di", "--order", "2", "--freq", "400", "--look", "90,nan"],
         "look.phi"),
        (["--method", "max-di", "--order", "2", "--freq", "nan"], "freq"),
        (["--method", "max-di", "--order", "2", "--freq", "inf"], "freq"),
        (["--method", "dolph-chebyshev", "--order", "2", "--freq", "400", "--sidelobe", "nan"],
         "sidelobe"),
        (["--method", "max-wng", "--order", "2", "--freq", "400",
          "--geometry", "dodecahedron:r0=nan"], "r0"),
        (["--method", "max-wng", "--order", "2", "--freq", "400", "--near-field",
          "--radius", "inf"], "--radius"),
        (["--method", "max-di", "--order", "2", "--freq", "400,abc"], "freq"),
        (["--method", "max-di", "--order", "2", "--freq", "400",
          "--geometry", "dodecahedron:r0=abc"], "geometry.r0"),
    ])
    def test_design_rejects_bad_numbers(self, runner, tmp_path, args, field):
        out = tmp_path / "out"
        result = runner.invoke(main, ["design", *args, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert field in result.output
        assert not out.exists()

    @pytest.mark.parametrize("args, field", [
        (["grid", "--analysis-order", "-1", "--radius", "0.57"], "--analysis-order"),
        (["simulate", "--analysis-order", "-1"], "--analysis-order"),
        (["simulate", "--perturb", "gain_db=x"], "perturb.gain_db"),
        (["simulate", "--perturb", "noise=1e-3,phase_deg=nan"], "perturb.phase_deg"),
        (["simulate", "--perturb", "seed=x"], "perturb.seed"),
        (["simulate", "--perturb", "seed=-1"], "perturb.seed"),
        (["simulate", "--perturb", "seed=1.5"], "perturb.seed"),
        (["simulate", "--perturb", "gain_db=-1"], "perturb.gain_db"),
        (["simulate", "--perturb", "phase_deg=-2"], "perturb.phase_deg"),
        (["simulate", "--perturb", "noise=-1"], "perturb.noise"),
        (["simulate", "--radius", "0.1"], "config error: radius: 0.1 "),
        (["simulate", "--analysis-order", "1"], "config error: analysis_order: 1 "),
    ])
    def test_grid_and_simulate_reject_bad_options(self, runner, tmp_path, args, field):
        _design(runner, tmp_path)
        if args[0] == "simulate":
            args = ["simulate", str(tmp_path / "modal_weights_400Hz.json"),
                    str(tmp_path / "unit_weights_400Hz.json"), *args[1:]]
        out = tmp_path / "out"
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert field in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_hankel_overflow_exits_3_on_one_line(self, tmp_path):
        # a finite positive frequency is valid input: h_n(k r0) overflowing is numerical
        result = _python("-m", "sphbeam.cli", "design", "--method", "max-wng", "--order", "2",
                         "--freq", "1e-200", "--out", str(tmp_path))
        assert result.returncode == 3, result.stderr
        assert len(result.stderr.strip().splitlines()) == 1, result.stderr
        assert "numerical failure" in result.stderr
        assert "RuntimeWarning" not in result.stderr

    @pytest.mark.parametrize("freq", ["400,1e-200", "400,1e-60"])
    def test_design_failure_at_one_frequency_writes_nothing(self, tmp_path, freq):
        # 1e-200 Hz overflows h_n(k r0); at 1e-60 Hz WNG is 0/0.  Every
        # frequency is computed before the first file is written.
        out = tmp_path / "out"
        result = _python("-m", "sphbeam.cli", "design", "--method", "max-wng", "--order", "2",
                         "--freq", freq, "--out", str(out))
        assert result.returncode == 3, result.stderr
        assert len(result.stderr.strip().splitlines()) == 1, result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert result.stdout == ""
        assert not out.exists()

    def test_colliding_frequency_tags_exit_2(self, runner, tmp_path):
        # both would be written as *_1000Hz.json, the second over the first
        out = tmp_path / "out"
        result = runner.invoke(main, ["design", "--method", "max-wng", "--order", "2",
                                      "--freq", "1000.001,1000.002", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "freq" in result.output
        assert "1000.001" in result.output and "1000.002" in result.output
        assert not out.exists()

    def test_pattern_error_overflow_exits_3_without_files(self, runner, tmp_path):
        # the perturbed transfer matrix is finite, its squared error is not
        _design(runner, tmp_path)
        out = tmp_path / "sim"
        result = _python("-m", "sphbeam.cli", "simulate",
                         str(tmp_path / "modal_weights_400Hz.json"),
                         str(tmp_path / "unit_weights_400Hz.json"), "--look", "90,0",
                         "--perturb", "noise=1e300", "--out", str(out))
        assert result.returncode == 3, result.stderr
        assert len(result.stderr.strip().splitlines()) == 1, result.stderr
        assert "pattern_error" in result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("perturb, field", [
        ("gain_db=1e308", "perturb.gain_db"),
        ("phase_deg=1e308", "perturb.phase_deg"),
        ("noise=1e308", "perturb.noise"),
    ])
    def test_perturbation_overflow_exits_3_on_one_line(self, runner, tmp_path, perturb, field):
        _design(runner, tmp_path)
        result = _python("-m", "sphbeam.cli", "simulate",
                         str(tmp_path / "modal_weights_400Hz.json"),
                         str(tmp_path / "unit_weights_400Hz.json"), "--look", "90,0",
                         "--perturb", perturb, "--out", str(tmp_path / "sim"))
        assert result.returncode == 3, result.stderr
        assert len(result.stderr.strip().splitlines()) == 1, result.stderr
        assert field in result.stderr
        assert "RuntimeWarning" not in result.stderr

    def test_simulate_rejects_non_finite_radius(self, runner, tmp_path):
        _design(runner, tmp_path)
        result = runner.invoke(main, [
            "simulate", str(tmp_path / "modal_weights_400Hz.json"),
            str(tmp_path / "unit_weights_400Hz.json"), "--radius", "nan",
            "--out", str(tmp_path / "sim"),
        ])
        assert result.exit_code == 2
        assert "--radius" in result.output

    @pytest.mark.parametrize("command, kind, change, message", [
        ("steer", "modal_weights", None, "expected a JSON object"),
        ("synthesize", "steered_weights", None, "expected a JSON object"),
        ("steer", "modal_weights", {"d": []}, "d: "),
        ("metrics", "modal_weights", {"d": []}, "d: "),
        ("steer", "modal_weights", {"d": [[1, 0, 5], [0, 0, 0], [0, 0, 0]]}, "d: "),
        ("simulate", "modal_weights", {"d": [[1, 0], [0]]}, "d: "),
        ("synthesize", "steered_weights", {"coeffs": [[1.0, math.nan]] * 9}, "coeffs: "),
        ("simulate", "unit_weights", {"w": "abc"}, "w: "),
        ("steer", "modal_weights", {"k_per_m": "x"}, "k_per_m: "),
        ("metrics", "modal_weights", {"k_per_m": "x"}, "k_per_m: "),
        ("metrics", "modal_weights", {"k_per_m": 10**400}, "k_per_m: "),
        ("simulate", "modal_weights", {"k_per_m": "x"}, "k_per_m: "),
        ("simulate", "modal_weights", {"order": "x"}, "order: "),
        ("simulate", "modal_weights", {"order": -3}, "order: "),
        ("steer", "modal_weights", {"frequency_hz": "x"}, "frequency_hz: "),
        ("synthesize", "steered_weights", {"order": "x"}, "order: "),
        ("synthesize", "steered_weights", {"order": 1.5}, "order: "),
        ("synthesize", "steered_weights", {"coeffs": [[1.0, 0.0]] * 8}, "coeffs: "),
        ("simulate", "unit_weights", {"num_caps": 11}, "num_caps: "),
        ("metrics", "modal_weights", {"d": [[10**400, 0]] * 3}, "d: "),
        ("metrics", "modal_weights", {"d": [[True, "0"], [0.5, 0], [0.25, 0]]}, "d: "),
        ("steer", "modal_weights", {"d": [[1, 0], ["0.5", 0], [0.25, 0]]}, "d: "),
        ("synthesize", "steered_weights", {"coeffs": [[False, 0.0]] * 9}, "coeffs: "),
        ("simulate", "unit_weights", {"w": [["0.1", 0.0]] * 12}, "w: "),
        ("steer", "modal_weights", {"r0_m": True}, "r0_m: "),
        ("metrics", "modal_weights", {"r0_m": "0.15"}, "r0_m: "),
        ("simulate", "modal_weights", {"r0_m": None}, "r0_m: "),
    ])
    def test_malformed_coefficient_file_exits_2(self, runner, tmp_path, command, kind, change,
                                                message):
        _design(runner, tmp_path)
        files = {stem: tmp_path / f"{stem}_400Hz.json"
                 for stem in ("modal_weights", "steered_weights", "unit_weights")}
        doc = [1, 2] if change is None else {**json.loads(files[kind].read_text()), **change}
        files[kind] = tmp_path / "bad.json"
        files[kind].write_text(json.dumps(doc))
        inputs = {"steer": [files["modal_weights"], "--look", "0,0"],
                  "synthesize": [files["steered_weights"]],
                  "metrics": [files["modal_weights"]],
                  "simulate": [files["modal_weights"], files["unit_weights"]]}[command]
        result = runner.invoke(main, [command, *map(str, inputs), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("command, field", [
        ("design", "geometry.r0"),
        ("metrics", "k_per_m"),
    ])
    def test_huge_integer_echo_is_clipped(self, runner, tmp_path, command, field):
        # a 400-digit JSON integer is named in a short message, not printed in full
        if command == "design":
            bad = tmp_path / "geometry.json"
            bad.write_text(json.dumps({"r0": 10**400, "alpha": 0.3, "caps_deg": _CAPS_DEG}))
            args = ["design", "--method", "max-di", "--order", "2", "--freq", "400",
                    "--geometry", str(bad)]
        else:
            _design(runner, tmp_path)
            bad = tmp_path / "modal_weights_400Hz.json"
            bad.write_text(json.dumps({**json.loads(bad.read_text()), "k_per_m": 10**400}))
            args = ["metrics", str(bad)]
        result = _python("-m", "sphbeam.cli", *args, "--out", str(tmp_path / "out"))
        assert result.returncode == 2, result.stderr
        assert field in result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and len(lines[0]) < 200, result.stderr

    @pytest.mark.parametrize("target, text, field", [
        ("geometry", json.dumps({"r0": 0.15, "alpha": 0.3, "caps_deg": [[90, 0, 1], [45, 0, 1]]}),
         "geometry.caps_deg"),
        ("geometry", json.dumps({"r0": 0.15, "alpha": 0.3, "caps_deg": [[90, 0], [45]]}),
         "geometry.caps_deg"),
        ("geometry", json.dumps({"r0": True, "alpha": 0.3, "caps_deg": _CAPS_DEG}),
         "geometry.r0"),
        ("geometry", json.dumps({"r0": 0.15, "alpha": "0.3", "caps_deg": _CAPS_DEG}),
         "geometry.alpha"),
        ("geometry", json.dumps({"r0": 0.15, "alpha": 0.3, "caps_deg": [[True, 0]] + _CAPS_DEG}),
         "geometry.caps_deg"),
        ("geometry", json.dumps({"r0": 0.15, "alpha": 0.3, "caps_deg": [["90", 0]] + _CAPS_DEG}),
         "geometry.caps_deg"),
        ("geometry", '{"r0": 0.15,', "bad.json"),
        ("metrics", '{"kind": "modal_weights",', "bad.json"),
        ("metrics", None, "bad.json"),
    ], ids=["caps-three-columns", "caps-ragged", "r0-boolean", "alpha-string",
            "caps-boolean", "caps-string", "geometry-truncated", "modal-truncated",
            "directory"])
    def test_malformed_json_file_exits_2(self, runner, tmp_path, target, text, field):
        bad = tmp_path / "bad.json"
        if text is None:
            bad.mkdir()
        else:
            bad.write_text(text)
        args = {"geometry": ["design", "--method", "max-di", "--order", "0", "--freq", "400",
                             "--geometry", str(bad)],
                "metrics": ["metrics", str(bad)]}[target]
        out = tmp_path / "out"
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert field in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("kind, change, code, message", [
        ("unit_weights", {"w": [[0.0, 0.0]] * 12}, 3, "pattern_error"),
        ("modal_weights", {"order": 1, "d": [[1.0, 0.0], [-1 / 3, 0.0]]}, 3,
         "zero response in the look direction"),
        ("unit_weights", {"frequency_hz": 500.0}, 2, "frequency_hz"),
        ("unit_weights", {"num_caps": 11, "w": [[0.1, 0.0]] * 11}, 2, "w: "),
    ], ids=["zero-weights", "zero-look", "other-frequency", "eleven-caps"])
    def test_simulate_failure_writes_nothing(self, runner, tmp_path, kind, change, code, message):
        _design(runner, tmp_path)
        files = {stem: tmp_path / f"{stem}_400Hz.json" for stem in ("modal_weights", "unit_weights")}
        files[kind].write_text(json.dumps({**json.loads(files[kind].read_text()), **change}))
        out = tmp_path / "sim"
        result = _python("-m", "sphbeam.cli", "simulate", str(files["modal_weights"]),
                         str(files["unit_weights"]), "--look", "90,0", "--out", str(out))
        assert result.returncode == code, result.stderr
        assert len(result.stderr.strip().splitlines()) == 1, result.stderr
        assert message in result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert result.stdout == ""
        assert not out.exists()

    def test_simulate_zero_look_response_exits_3(self, runner, tmp_path):
        # B(0) = (1 - 3 / 3) / (4 pi) = 0: every dB value would be infinite
        _design(runner, tmp_path)
        modal = tmp_path / "modal_weights_400Hz.json"
        doc = json.loads(modal.read_text())
        modal.write_text(json.dumps({**doc, "order": 1, "d": [[1.0, 0.0], [-1 / 3, 0.0]]}))
        result = runner.invoke(main, [
            "simulate", str(modal), str(tmp_path / "unit_weights_400Hz.json"),
            "--look", "90,0", "--out", str(tmp_path / "sim"),
        ])
        assert result.exit_code == 3, result.output
        assert "zero response in the look direction" in result.output
        assert not list((tmp_path / "sim").glob("*.csv"))


def _reject_constant(name):
    raise ValueError(f"non-finite token {name}")


_FIELDS = ("freq", "theta", "phi", "radius", "r0", "alpha", "cap", "sim_radius")


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    method=st.sampled_from(["max-di", "max-wng", "dolph-chebyshev"]),
    order=st.integers(-2, 4),
    freq=st.floats(20.0, 5000.0),
    theta=st.floats(0.0, 180.0),
    phi=st.floats(-360.0, 360.0),
    near_field=st.booleans(),
    radius=st.floats(0.2, 2.0),
    r0=st.floats(0.05, 0.3),
    alpha=st.floats(0.05, 1.4),
    cap=st.tuples(st.integers(0, 11), st.integers(0, 1)),
    sim_radius=st.one_of(st.none(), st.floats(0.2, 2.0)),
    poison=st.one_of(st.none(), st.tuples(st.sampled_from(_FIELDS),
                                          st.sampled_from([math.nan, math.inf, -math.inf,
                                                           0.0, -1.0]))),
)
def test_cli_fuzz_exits_cleanly_and_writes_strict_json(
        method, order, freq, theta, phi, near_field, radius, r0, alpha, cap, sim_radius,
        poison):
    """Every run of design (and simulate after a good design) exits 0, 2 or 3
    without a traceback, and every JSON file written is strict JSON."""
    values = {"freq": freq, "theta": theta, "phi": phi, "radius": radius, "r0": r0,
              "alpha": alpha, "cap": None, "sim_radius": sim_radius}
    if poison is not None:
        values[poison[0]] = poison[1]
    caps = [list(row) for row in _CAPS_DEG]
    if values["cap"] is not None:
        caps[cap[0]][cap[1]] = values["cap"]
    look = f"{values['theta']!r},{values['phi']!r}"
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        geometry = Path(tmp) / "geom.json"
        geometry.write_text(json.dumps({"r0": values["r0"], "alpha": values["alpha"],
                                        "caps_deg": caps}))
        out = Path(tmp) / "out"
        runs = [runner.invoke(main, [
            "design", "--method", method, "--order", str(order),
            "--freq", f"{values['freq']!r},733.3", "--look", look, "--sidelobe", "25",
            "--radius", repr(values["radius"]), "--geometry", str(geometry), "--out", str(out),
            *(["--near-field"] if near_field else []),
        ])]
        if runs[0].exit_code == 0 and values["sim_radius"] is not None:
            tag = f"{values['freq']:g}Hz"
            runs.append(runner.invoke(main, [
                "simulate", str(out / f"modal_weights_{tag}.json"),
                str(out / f"unit_weights_{tag}.json"), "--geometry", str(geometry),
                "--analysis-order", "4", "--radius", repr(values["sim_radius"]),
                "--look", look, "--out", str(out),
            ]))
        for result in runs:
            assert result.exit_code in (0, 2, 3), result.output
            assert result.exception is None or isinstance(result.exception, SystemExit)
            assert "Traceback" not in result.output
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=_reject_constant)
