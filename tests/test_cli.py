import importlib.util
import io
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import NUMPY_KERNELS, config_hash, icosahedral_32

from sphbeam import cli, sphmath, synthesis
from sphbeam.cli import JsonLayout, main, write_json
from sphbeam.radiation import dodecahedron


class _Tee(io.StringIO):
    """A text buffer that also copies everything written to it into another."""

    def __init__(self, copy):
        super().__init__()
        self.copy = copy

    def write(self, text):
        self.copy.write(text)
        return super().write(text)


class CliRunner:
    """Runs the CLI in this process as its console script would."""

    def invoke(self, cli, args, catch_exceptions=True):
        """cli(args) with stdout and stderr captured, each alone and both
        interleaved as output.  The exit code is 0 on a return, and a
        SystemExit's code otherwise; exception is that SystemExit when its
        code is not 0, or any other exception, which is raised instead when
        catch_exceptions is false."""
        output = io.StringIO()
        stdout, stderr = _Tee(output), _Tee(output)
        exit_code, exception = 0, None
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                cli(args)
            except SystemExit as exc:
                exit_code = exc.code or 0
                exception = exc if exit_code else None
            except Exception as exc:
                if not catch_exceptions:
                    raise
                exit_code, exception = 1, exc
        return SimpleNamespace(exit_code=exit_code, exception=exception,
                               output=output.getvalue(), stdout=stdout.getvalue(),
                               stderr=stderr.getvalue())


@pytest.fixture
def runner():
    return CliRunner()


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
_CAPS_DEG = np.rad2deg(dodecahedron(0.15, 0.3).cap_dirs).tolist()
# cap layouts that the tests name by file; _with_layouts writes them
_LAYOUTS = {
    "four_caps.json": [[0, 0], [90, 0], [90, 120], [90, 240]],  # too few caps for order 2
    # 10 disjoint caps 36 deg apart on the equator: Y rank deficient at order 2
    "equator_caps.json": [[90, 36 * i] for i in range(10)],
    "close_caps.json": [[90, 0], [90, 1]],  # 1 deg apart, so caps of alpha = 0.3 rad overlap
    # 32 caps, where the default dodecahedron has 12
    "icosahedral_32.json": np.rad2deg(icosahedral_32(0.15, 0.3).cap_dirs).tolist(),
}


def _with_layouts(args, tmp_path):
    """args with each _LAYOUTS name replaced by the path of that geometry
    file, written to tmp_path."""
    paths = []
    for arg in args:
        if arg in _LAYOUTS:
            path = tmp_path / arg
            path.write_text(json.dumps({"r0": 0.15, "alpha": 0.3, "caps_deg": _LAYOUTS[arg]}))
            arg = str(path)
        paths.append(arg)
    return paths


def _python(*args, cwd=None, preexec_fn=None):
    """Run a fresh interpreter with the package source importable."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          cwd=cwd, preexec_fn=preexec_fn)


def _limit_address_space():
    """Cap a child's address space at 2 GiB, so that a huge allocation fails at once."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


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

    def test_makes_a_missing_output_directory(self, runner, tmp_path):
        # three new levels hold the bytes of a design into an existing directory
        existing, new = tmp_path / "existing", tmp_path / "a" / "b" / "c"
        existing.mkdir()
        _design(runner, existing)
        _design(runner, new)
        files = sorted(path.name for path in existing.iterdir())
        assert len(files) == 4 and sorted(path.name for path in new.iterdir()) == files
        for name in files:
            assert (new / name).read_bytes() == (existing / name).read_bytes(), name

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

    def test_config_hash_is_stable(self, runner, tmp_path):
        # the README's first command; the hash covers the geometry, the options and
        # the air constants, so a change to any of them shows here
        _design(runner, tmp_path)
        for stem in ("modal_weights", "steered_weights", "unit_weights", "metrics"):
            data = json.loads((tmp_path / f"{stem}_400Hz.json").read_text())
            assert data["config_hash"] == "b4918ac2f697accf", stem

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

    @pytest.mark.parametrize("command", ["design", "synthesize"])
    @pytest.mark.parametrize("alpha, code", [("1e-300", 3), ("1e-170", 3), ("1e-3", 0)])
    def test_vanishing_cap_gain_exits_3_naming_alpha(self, runner, tmp_path, command, alpha,
                                                      code):
        # at 1e-170 and below sin(alpha)^2 underflows, so g_n is 0 and G^{-1} w_nm not finite
        _design(runner, tmp_path)
        args = {"design": ["design", "--method", "max-wng", "--order", "2", "--freq", "400"],
                "synthesize": ["synthesize", str(tmp_path / "steered_weights_400Hz.json")]}
        out = tmp_path / "out"
        result = runner.invoke(main, [*args[command], "--geometry", f"dodecahedron:alpha={alpha}",
                                      "--out", str(out)])
        assert result.exit_code == code, result.output
        if code:
            lines = result.stderr.strip().splitlines()
            assert len(lines) == 1 and "numerical failure: geometry.alpha: " in lines[0], lines
            assert not out.exists()
        else:
            unit = json.loads((out / "unit_weights_400Hz.json").read_text(),
                              parse_constant=_reject_constant)
            assert len(unit["w"]) == 12

    @pytest.mark.parametrize("alpha, freq, code", [
        ("1e-150", "400", 3), ("1e-80", "400", 3), ("1e-78", "400", 0), ("0.3", "1e-7", 0)])
    def test_overflowing_unit_weight_norm_of_a_tiny_cap_names_alpha(self, runner, tmp_path,
                                                                     alpha, freq, code):
        # g_n has a finite reciprocal, but 1/g_n^2 overflows and with it ||w||^2; at
        # alpha = 1e-78 ||w||^2 stays finite, and the default cap at 1e-7 Hz designs
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "design", "--method", "max-wng", "--order", "2", "--freq", freq, "--look", "90,0",
            "--near-field", "--geometry", f"dodecahedron:alpha={alpha}", "--out", str(out)])
        assert result.exit_code == code, result.output
        if code:
            lines = result.stderr.strip().splitlines()
            assert len(lines) == 1 and "numerical failure: geometry.alpha: " in lines[0], lines
            assert not out.exists()
        else:
            metrics = json.loads((out / f"metrics_{float(freq):g}Hz.json").read_text(),
                                 parse_constant=_reject_constant)
            assert 0 < metrics["unit_weight_norm"] < np.inf


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

    @pytest.mark.parametrize("command", ["simulate"])
    def test_design_for_another_sphere_exits_2(self, runner, tmp_path, command):
        # designed at r0 = 0.2 m, measured with the default r0 = 0.15 m
        _design(runner, tmp_path, "--geometry", "dodecahedron:r0=0.2")
        out = tmp_path / "out"
        result = runner.invoke(main, [command, str(tmp_path / "modal_weights_400Hz.json"),
                                      str(tmp_path / "unit_weights_400Hz.json"),
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "r0_m" in result.output and "0.2" in result.output
        assert not out.exists()

    def test_steer_and_metrics_take_r0_from_the_modal_file(self, runner, tmp_path):
        """On a design for r0 = 0.2 m, steer to the design's own look and
        metrics reproduce the design's steered file and metrics bit for bit."""
        _design(runner, tmp_path, "--geometry", "dodecahedron:r0=0.2,alpha=0.25")
        modal, out = str(tmp_path / "modal_weights_400Hz.json"), tmp_path / "out"
        for args in (["steer", modal, "--look", "90,0", "--near-field", "--radius", "0.57"],
                     ["metrics", modal]):
            result = runner.invoke(main, [*args, "--out", str(out)], catch_exceptions=False)
            assert result.exit_code == 0, result.output
        for stem, keys in (("steered_weights", None),
                           ("metrics", ("frequency_hz", "k_per_m", "r0_m", "q", "di_db", "wng",
                                        "wng_db"))):
            designed, got = (json.loads((path / f"{stem}_400Hz.json").read_text())
                             for path in (tmp_path, out))
            for key in keys or designed.keys() - {"config_hash"}:
                assert got[key] == designed[key], (stem, key)
        assert designed["r0_m"] == 0.2

    def test_near_field_radius_inside_sphere_exits_2(self, runner, tmp_path):
        _design(runner, tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "steer", str(tmp_path / "modal_weights_400Hz.json"), "--look", "45,120",
            "--near-field", "--radius", "0.1", "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert "config error: radius: 0.1 " in result.output
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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_makes_a_missing_output_directory(self, runner, tmp_path, fmt):
        _design(runner, tmp_path)
        existing, texts = tmp_path / "existing", []
        existing.mkdir()
        for out in (existing, tmp_path / "new" / "dir"):
            result = runner.invoke(main, [
                "metrics", str(tmp_path / "modal_weights_400Hz.json"),
                "--out", str(out), "--format", fmt,
            ], catch_exceptions=False)
            assert result.exit_code == 0, result.output
            texts.append((out / f"metrics_400Hz.{fmt}").read_bytes())
        assert texts[1] == texts[0]


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

    def test_caps_just_short_of_touching_measure(self, runner, tmp_path):
        # the dodecahedron's caps touch at alpha = 0.55357 rad
        geometry = ["--geometry", "dodecahedron:alpha=0.55"]
        _design(runner, tmp_path, *geometry)
        result = runner.invoke(main, [
            "simulate", str(tmp_path / "modal_weights_400Hz.json"),
            str(tmp_path / "unit_weights_400Hz.json"), "--look", "90,0", *geometry,
            "--out", str(tmp_path)], catch_exceptions=False)
        assert result.exit_code == 0, result.output
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


def test_cli_import_leaves_out_click():
    result = _python("-c", "import sys, sphbeam.cli; print('click' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


@pytest.mark.skipif(not any(map(importlib.util.find_spec, ("_sha2", "_sha256"))),
                    reason="this interpreter has no built-in SHA-256, so hashlib is the fallback")
def test_cli_runs_without_openssl(tmp_path):
    # hashlib's _hashlib maps OpenSSL's libcrypto, and numpy.random maps it too
    # (through secrets and hmac); numpy.polynomial is a lazy import that sphmath's
    # own Legendre and Chebyshev kernels replace; np.unique imports numpy.ma, which
    # raised a 300-frequency design's VmHWM by 4.4 MB.  A design, synthesize, grid
    # and a simulate, plain or perturbed, need none of them.
    out = str(tmp_path)
    script = f"""
import sys
from sphbeam.cli import main
main(["design", "--method", "max-wng", "--order", "2", "--freq", "400,1000", "--look", "90,0",
      "--out", {out!r}], standalone_mode=False)
main(["design", "--method", "dolph-chebyshev", "--sidelobe", "25", "--order", "2",
      "--freq", "700", "--out", {out!r} + "/dc"], standalone_mode=False)
main(["synthesize", {out!r} + "/steered_weights_400Hz.json", "--out", {out!r} + "/syn"],
     standalone_mode=False)
main(["grid", "--analysis-order", "10", "--radius", "0.57", "--out", {out!r}],
     standalone_mode=False)
main(["simulate", {out!r} + "/modal_weights_400Hz.json", {out!r} + "/unit_weights_400Hz.json",
      "--look", "90,0", "--out", {out!r}], standalone_mode=False)
main(["simulate", {out!r} + "/modal_weights_400Hz.json", {out!r} + "/unit_weights_400Hz.json",
      "--look", "90,0", "--perturb", "gain_db=1,phase_deg=5,noise=1e-3,seed=3",
      "--out", {out!r} + "/perturbed"], standalone_mode=False)
print(sorted({{"_hashlib", "numpy.random", "numpy.polynomial", "numpy.ma"}} & set(sys.modules)))
"""
    result = _python("-c", script)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "balloon_measured_400Hz.csv").exists()
    assert (tmp_path / "dc" / "modal_weights_700Hz.json").exists()
    assert (tmp_path / "syn" / "unit_weights_400Hz.json").exists()
    assert (tmp_path / "perturbed" / "simulation_400Hz.json").exists()
    assert result.stdout.splitlines()[-1] == "[]"


def _kernel_chain(runner, out):
    """design for every method, far and near field, at N = 1 and 2; grid at
    N_a = 0 and 10; simulate at N_a = 10 and 16: every run writes under out."""
    for method, extra in (("max-di", []), ("max-wng", []),
                          ("dolph-chebyshev", ["--sidelobe", "25"])):
        for order in ("1", "2"):
            for field in ([], ["--near-field", "--radius", "0.57"]):
                args = ["design", "--method", method, "--order", order, "--freq", "400,1000",
                        "--look", "60,30", *extra, *field,
                        "--out", str(out / f"{method}-{order}-{len(field)}")]
                assert runner.invoke(main, args, catch_exceptions=False).exit_code == 0
    design = out / "max-wng-2-3"
    runs = [["grid", "--analysis-order", a, "--radius", "0.57", "--out", str(out / f"grid{a}")]
            for a in ("0", "10")]
    runs += [["simulate", str(design / "modal_weights_400Hz.json"),
              str(design / "unit_weights_400Hz.json"), "--look", "60,30", "--analysis-order", a,
              "--out", str(out / f"sim{a}")] for a in ("10", "16")]
    for args in runs:
        assert runner.invoke(main, args, catch_exceptions=False).exit_code == 0


def test_kernels_write_the_bytes_of_numpy_polynomial(runner, monkeypatch, tmp_path):
    """Every output file of the chain is byte-identical with each sphmath
    Legendre or Chebyshev kernel replaced by its numpy.polynomial route."""
    _kernel_chain(runner, tmp_path / "shipped")
    calls = dict.fromkeys(NUMPY_KERNELS, 0)

    def counted(name):
        def kernel(*args):
            calls[name] += 1
            return NUMPY_KERNELS[name](*args)
        return kernel

    for name in NUMPY_KERNELS:
        monkeypatch.setattr(sphmath, name, counted(name))
    _kernel_chain(runner, tmp_path / "numpy")
    assert all(calls.values()), calls
    shipped = sorted(p.relative_to(tmp_path / "shipped")
                     for p in (tmp_path / "shipped").rglob("*") if p.is_file())
    assert len(shipped) == 12 * 2 * 4 + 2 + 2 * 5  # 4 files per design frequency, 5 per simulate
    assert shipped == sorted(p.relative_to(tmp_path / "numpy")
                             for p in (tmp_path / "numpy").rglob("*") if p.is_file())
    for rel in shipped:
        got, want = (tmp_path / "shipped" / rel).read_bytes(), (tmp_path / "numpy" / rel).read_bytes()
        assert got == want, rel


def test_simulate_builds_sh_tables_over_polar_angles_only(runner, monkeypatch, tmp_path):
    """simulate --analysis-order 30 calls sh_matrix over the 31 Gaussian polar
    nodes, the balloon's 91 polar angles and the one polar angle of the
    cross-section and of the look, never over the 2 * 31^2 = 1922 nodes."""
    _design(runner, tmp_path)
    points = []
    sh_matrix = sphmath.sh_matrix

    def counted(order, theta, phi):
        points.append(np.size(theta))
        return sh_matrix(order, theta, phi)

    monkeypatch.setattr(sphmath, "sh_matrix", counted)
    result = runner.invoke(main, [
        "simulate", str(tmp_path / "modal_weights_400Hz.json"),
        str(tmp_path / "unit_weights_400Hz.json"), "--look", "90,0", "--analysis-order", "30",
        "--out", str(tmp_path / "sim")], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert sorted(set(points)) == [1, 31, 91], points


def test_32_cap_chain_at_order_4(runner, tmp_path):
    """The second reference array from a geometry file: all three designs at
    N = 4, near-field, then simulate at analysis order 12, plain and perturbed
    (the perturbation drawn for 32 caps); N = 5 needs 36 > 32 caps."""
    geom = tmp_path / "icosahedral_32.json"
    geom.write_text(json.dumps({"r0": 0.15, "alpha": 0.2, "caps_deg": np.rad2deg(
        icosahedral_32(0.15, 0.2).cap_dirs).tolist()}))
    for method, extra in (("max-di", []), ("max-wng", []),
                          ("dolph-chebyshev", ["--sidelobe", "25"])):
        out = tmp_path / method
        result = runner.invoke(main, [
            "design", "--method", method, "--order", "4", "--freq", "300,1000", *extra,
            "--look", "90,0", "--near-field", "--radius", "0.57", "--geometry", str(geom),
            "--out", str(out)], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        assert len(json.loads((out / "unit_weights_1000Hz.json").read_text())["w"]) == 32
        errors = []
        for perturb in ("", "gain_db=1,phase_deg=5,noise=1e-3,seed=3"):
            sim = out / f"sim{len(perturb)}"
            result = runner.invoke(main, [
                "simulate", str(out / "modal_weights_1000Hz.json"),
                str(out / "unit_weights_1000Hz.json"), "--look", "90,0",
                "--analysis-order", "12", "--geometry", str(geom), "--perturb", perturb,
                "--out", str(sim)], catch_exceptions=False)
            assert result.exit_code == 0, result.output
            errors.append(json.loads((sim / "simulation_1000Hz.json").read_text())["pattern_error"])
        assert errors[0] < 1e-10 and 1e-3 < errors[1] < 1, errors
    result = runner.invoke(main, [
        "design", "--method", "max-wng", "--order", "5", "--freq", "300", "--look", "90,0",
        "--geometry", str(geom), "--out", str(tmp_path / "order5")])
    assert result.exit_code == 2, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and "order" in lines[0], lines
    assert not (tmp_path / "order5").exists()


def test_config_hash_matches_hashlib_oracle(runner, monkeypatch, tmp_path):
    """cli._config_hash gives hashlib's digest on the config of each of the six
    commands, and every written file carries the digest of its config."""
    hash_config, configs = cli._config_hash, []
    monkeypatch.setattr(cli, "_config_hash", lambda cfg: configs.append(cfg) or hash_config(cfg))
    geom = tmp_path / "geom.json"
    geom.write_text(json.dumps({"r0": 0.15, "alpha": 0.3, "caps_deg": _CAPS_DEG}))
    out, restee = tmp_path / "out", tmp_path / "restee"
    modal, unit = out / "modal_weights_400Hz.json", out / "unit_weights_400Hz.json"
    for args in (
        ["design", "--method", "max-wng", "--order", "2", "--freq", "400,1000", "--look", "90,0",
         "--geometry", str(geom), "--out", str(out)],
        ["design", "--method", "dolph-chebyshev", "--order", "2", "--freq", "700",
         "--sidelobe", "20", "--near-field", "--out", str(out)],
        ["steer", str(modal), "--look", "45,120", "--near-field", "--out", str(restee)],
        ["synthesize", str(restee / "steered_weights_400Hz.json"), "--out", str(restee)],
        ["metrics", str(modal), "--out", str(out)],
        ["metrics", str(modal), "--format", "csv", "--out", str(out)],
        ["grid", "--analysis-order", "4", "--radius", "0.57", "--out", str(out)],
        ["simulate", str(modal), str(unit), "--look", "90,0", "--out", str(out)],
        ["simulate", str(modal), str(unit), "--look", "90,0", "--analysis-order", "6",
         "--perturb", "gain_db=0.5,phase_deg=2,noise=1e-4,seed=1", "--out", str(out)],
    ):
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
    assert {cfg["command"] for cfg in configs} == {
        "design", "steer", "synthesize", "metrics", "grid", "simulate"}
    assert any("caps_deg" in cfg["geometry"] for cfg in configs if "geometry" in cfg)
    assert any(cfg.get("perturb", {}).get("noise") for cfg in configs)
    for cfg in configs:
        assert hash_config(cfg) == config_hash(cfg), cfg
    expected = {config_hash(cfg) for cfg in configs}
    files = [*out.iterdir(), *restee.iterdir()]
    assert len(files) > 20
    for path in files:
        text = path.read_text()
        written = (json.loads(text)["config_hash"] if path.suffix == ".json"
                   else text.partition("\n")[0].removeprefix("# config_hash: "))
        assert written in expected, path.name


@pytest.mark.parametrize("command, options", [
    ("design", ["--geometry", "--method", "--order", "-N", "--freq", "--look", "--sidelobe",
                "--near-field", "--radius", "--out"]),
    ("steer", ["weights_file", "--look", "--near-field", "--radius", "--out"]),
    ("synthesize", ["steered_file", "--geometry", "--out"]),
    ("metrics", ["weights_file", "--out", "--format"]),
    ("grid", ["--analysis-order", "--radius", "--out"]),
    ("simulate", ["modal_file", "unit_file", "--geometry", "--analysis-order", "--radius",
                  "--look", "--perturb", "--out"]),
])
def test_command_help_lists_its_options(runner, command, options):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    listed = set(re.findall(r"(?<![\w-])-[\w-]+|\b\w+_file\b", result.stdout))
    assert listed >= set(options), result.stdout
    # steer and metrics read r0 from the modal file, and grid needs none
    assert ("--geometry" in listed) == ("--geometry" in options), result.stdout


class TestBoundary:
    def test_linalg_error_exits_3(self, runner, monkeypatch, tmp_path):
        def failing(*args):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(synthesis, "build_transform", failing)
        out = tmp_path / "out"
        result = runner.invoke(main, ["design", "--method", "max-di", "--order", "2",
                                      "--freq", "400", "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert result.stderr == "Error: numerical failure: SVD did not converge\n"
        assert not out.exists()

    @pytest.mark.parametrize("args, name", [
        (["design", "--method", "max-di", "--order", "-1", "--freq", "400"], "--order"),
        (["design", "--method", "foo", "--order", "2", "--freq", "400"], "--method"),
        (["design", "--order", "2", "--freq", "400"], "--method"),
        (["design", "--method", "max-di", "--order", "2", "--freq", "400", "--bogus", "1"],
         "--bogus"),
        (["simulate", "no/such/modal.json", "no/such/unit.json"], "no/such/modal.json"),
        (["simulate", "no/such/modal.json", "no/such/unit.json", "--radius", "nan"], "--radius"),
        # an abbreviation is not taken for the option it begins, so --method is missing
        (["design", "--meth", "max-di", "--order", "2", "--freq", "400"], "--method"),
        # the rejected value is echoed clipped
        (["grid", "--analysis-order", "2", "--radius", "9" * 400], "--radius"),
        # values that do not parse
        (["design", "--method", "max-di", "--order", "2.5", "--freq", "400"], "--order"),
        (["design", "--method", "max-di", "--order", "abc", "--freq", "400"], "--order"),
        (["grid", "--analysis-order", "x", "--radius", "0.57"], "--analysis-order"),
        (["grid", "--analysis-order", "2", "--radius", "abc"], "--radius"),
        (["design", "--method", "dolph-chebyshev", "--order", "2", "--freq", "400",
          "--sidelobe", "abc"], "--sidelobe"),
    ], ids=["negative-order", "unknown-method", "missing-method", "unknown-option",
            "missing-modal-file", "nan-radius", "abbreviated-option", "400-digit-radius",
            "fractional-order", "word-order", "word-analysis-order", "word-radius",
            "word-sidelobe"])
    def test_bad_option_exits_2_on_one_line(self, runner, tmp_path, args, name):
        out = tmp_path / "out"
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 2, result.output
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: config error: "), result.stderr
        assert name in lines[0] and len(lines[0]) < 200
        assert result.stdout == ""
        assert not out.exists()

    def test_short_writes_leave_the_same_bytes(self, tmp_path, monkeypatch):
        """With os.write taking at most 7 bytes a call, a JSON file and a
        pattern CSV of three blocks written over longer files equal the files
        of unshortened writes."""
        layout = JsonLayout("unit_weights", "abc", {"frequency_hz": 400.0, "num_caps": 2,
                                                    "w": np.array([1.5 + 2j, -0.0 - 1e-320j])})
        theta, phi = np.deg2rad([0.0, 90.0, 180.0]), np.deg2rad([0.0, 45.0, 90.0, 270.0])
        values = np.arange(12) * (1.0 + 0.5j) + 0.25
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 5)  # 12 rows: blocks of 5, 5 and 2

        def write(directory):
            write_json(directory / "w.json", layout)
            cli.write_pattern_csv(directory / "p.csv", "abc", theta, phi, values, 1.0)

        whole, short = tmp_path / "whole", tmp_path / "short"
        whole.mkdir()
        short.mkdir()
        write(whole)
        for name in ("w.json", "p.csv"):
            (short / name).write_bytes(b"x" * ((whole / name).stat().st_size + 100))
        calls, os_write = [], os.write

        def short_write(fd, data):
            calls.append(len(data))
            return os_write(fd, data[:7])

        with monkeypatch.context() as patch:
            patch.setattr(os, "write", short_write)
            write(short)
        for name in ("w.json", "p.csv"):
            assert (short / name).read_bytes() == (whole / name).read_bytes(), name
        assert sum(size > 7 for size in calls) >= 5  # the JSON, the CSV header and 3 blocks

    @pytest.mark.parametrize("extra", [100, 0], ids=["longer", "equal-length"])
    def test_write_json_overwrites_in_place(self, tmp_path, extra):
        layout = JsonLayout("metrics", "0", {"q": 1.5})
        text = layout.template % tuple(layout.values[0].tolist())
        path = tmp_path / "x.json"
        path.write_text("x" * (len(text) + extra))
        write_json(path, layout)
        assert path.read_text() == text

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
        (["--method", "max-wng", "--order", "2", "--freq", "400", "--near-field",
          "--radius", "0.1"], "config error: radius: 0.1 "),
        (["--method", "max-di", "--order", "2", "--freq", "400",
          "--geometry", "dodecahedron:alpha=2"], "geometry.alpha"),
        (["--method", "max-di", "--order", "2", "--freq", "400",
          "--geometry", "dodecahedron:alpha=nan"], "geometry.alpha"),
        (["--method", "max-di", "--order", "2", "--freq", "400",
          "--geometry", "dodecahedron:beta=1"], "geometry: unknown dodecahedron parameter"),
        (["--method", "max-di", "--order", "2", "--freq", "400",
          "--geometry", "no/such/geometry.json"], "geometry: file not found"),
        (["--method", "max-di", "--order", "2", "--freq", "400", "--look", "90"],
         "look: expected THETA,PHI"),
        (["--method", "dolph-chebyshev", "--order", "0", "--freq", "400", "--sidelobe", "30"],
         "config error: order: Dolph-Chebyshev design requires order >= 1"),
        (["--method", "max-di", "--order", "2", "--freq", "400", "--geometry", "four_caps.json"],
         "config error: order: (N+1)^2 = 9 coefficients exceed L = 4 caps"),
        # 2 pi f overflows before the division by c
        (["--method", "max-di", "--order", "2", "--freq", "1e308"], "config error: freq: "),
        (["--method", "max-di", "--order", "2", "--freq", "400", "--look", "180.5,0"],
         "config error: look.theta: "),
        (["--method", "max-di", "--order", "2", "--freq", "400", "--near-field",
          "--geometry", "dodecahedron:alpha=1.5"], "config error: geometry.alpha: the caps overlap"),
        (["--method", "max-di", "--order", "2", "--freq", "400",
          "--geometry", "dodecahedron:alpha=0.56"], "config error: geometry.alpha: the caps overlap"),
        (["--method", "max-di", "--order", "2", "--freq", "400", "--geometry", "close_caps.json"],
         "config error: geometry.alpha: the caps overlap"),
        # a repeated parameter is rejected, not overridden by its last value
        (["--method", "max-di", "--order", "2", "--freq", "400",
          "--geometry", "dodecahedron:r0=0.2,r0=0.15"], "config error: geometry.r0: "),
        (["--method", "max-di", "--order", "2", "--freq", "400",
          "--geometry", "dodecahedron:alpha=0.3,r0=0.2,alpha=0.3"],
         "config error: geometry.alpha: "),
    ])
    def test_design_rejects_bad_numbers(self, runner, tmp_path, args, field):
        out = tmp_path / "out"
        result = runner.invoke(main, ["design", *_with_layouts(args, tmp_path), "--out", str(out)])
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
        (["simulate", "--perturb", "foo=1"], "perturb.foo: unknown field"),
        (["simulate", "--geometry", "dodecahedron:alpha=1.5"],
         "config error: geometry.alpha: the caps overlap"),
        # a repeated field is rejected, not overridden by its last value
        (["simulate", "--perturb", "gain_db=1,gain_db=0"], "config error: perturb.gain_db: "),
        (["simulate", "--perturb", "seed=1,noise=1e-3,seed=1"], "config error: perturb.seed: "),
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

    @pytest.mark.parametrize("unit_design, message", [
        (["--freq", "500"], "frequency_hz: the modal file is for 400.0 Hz, "
                            "the unit file for 500.0 Hz"),
        # a 32-cap design's unit weights cannot drive the 12-cap dodecahedron
        (["--freq", "400", "--geometry", "icosahedral_32.json"],
         "w: expected 12 unit weights, one per cap"),
    ], ids=["another-frequency", "another-cap-count"])
    def test_simulate_rejects_a_mismatched_unit_file(self, runner, tmp_path, unit_design,
                                                     message):
        _design(runner, tmp_path)
        unit_dir, out = tmp_path / "unit", tmp_path / "out"
        result = runner.invoke(main, ["design", "--method", "max-wng", "--order", "2",
                                      *_with_layouts(unit_design, tmp_path),
                                      "--out", str(unit_dir)])
        assert result.exit_code == 0, result.output
        unit_file = next(unit_dir.glob("unit_weights_*.json"))
        result = runner.invoke(main, ["simulate", str(tmp_path / "modal_weights_400Hz.json"),
                                      str(unit_file), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"config error: {message}" in result.output
        assert not out.exists()

    def test_hankel_overflow_exits_3_on_one_line(self, tmp_path):
        # a finite positive frequency is valid input: h_n(k r0) overflowing is numerical
        result = _python("-m", "sphbeam.cli", "design", "--method", "max-wng", "--order", "2",
                         "--freq", "1e-200", "--out", str(tmp_path))
        assert result.returncode == 3, result.stderr
        assert len(result.stderr.strip().splitlines()) == 1, result.stderr
        assert "numerical failure" in result.stderr
        assert "RuntimeWarning" not in result.stderr

    @pytest.mark.parametrize("args, field", [
        (["simulate", "--radius", "1e308"], "radius"),
        (["design", "--near-field", "--radius", "1e308"], "radius"),
        (["design", "--geometry", "dodecahedron:r0=1e308"], "geometry.r0"),
        # k r is finite, but the pressures underflow and the squared error would read 0
        (["simulate", "--radius", "1e300"], "pattern_error"),
        # valid cap directions, but all on one great circle: Y has no pseudo-inverse
        (["design", "--geometry", "equator_caps.json"], "geometry.caps_deg"),
        (["synthesize", "--geometry", "equator_caps.json"], "geometry.caps_deg"),
    ], ids=["simulate-radius", "near-field-radius", "geometry-r0", "simulate-radius-underflow",
            "rank-deficient-caps", "rank-deficient-caps-synthesize"])
    def test_radius_overflow_exits_3_naming_it(self, runner, tmp_path, args, field):
        # a finite radius is valid input, but k r overflows before h_n(k r) is evaluated
        command, *options = _with_layouts(args, tmp_path)
        if command == "design":
            args = ["design", "--method", "max-wng", "--order", "2", "--freq", "400", *options]
        else:
            _design(runner, tmp_path)
            stems = {"simulate": ["modal_weights", "unit_weights"],
                     "synthesize": ["steered_weights"]}[command]
            args = [command, *(str(tmp_path / f"{stem}_400Hz.json") for stem in stems), *options]
        out = tmp_path / "out"
        result = _python("-m", "sphbeam.cli", *args, "--out", str(out))
        assert result.returncode == 3, result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and f"numerical failure: {field}: " in lines[0], result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command, change, message", [
        (["metrics", "modal_weights", "--format", "json"], {"d": [[1e308, 0]] * 3}, "d: "),
        (["metrics", "modal_weights", "--format", "csv"], {"d": [[1e308, 0]] * 3}, "d: "),
        (["steer", "modal_weights", "--look", "0,0"],
         {"d": [[1e308, 0]] * 3, "k_per_m": 0.01, "frequency_hz": 0.01 * 343.0 / (2 * math.pi)},
         "coeffs: "),
        (["synthesize", "steered_weights"], {"coeffs": [[1.7e308, 1.7e308]] * 9}, "w: "),
        # k r0 overflows, r0 being the modal file's r0_m
        (["steer", "modal_weights", "--look", "0,0"], {"r0_m": 1e308},
         "numerical failure: r0_m: "),
        (["metrics", "modal_weights"], {"r0_m": 1e308}, "numerical failure: r0_m: "),
    ], ids=["metrics-json", "metrics-csv", "steer", "synthesize", "steer-r0_m", "metrics-r0_m"])
    def test_huge_coefficients_exit_3_on_one_line_without_output(self, runner, tmp_path,
                                                                 command, change, message):
        # finite file values whose products overflow: no warning, no NaN, no empty directory
        _design(runner, tmp_path)
        name, kind, *options = command
        bad = tmp_path / f"{kind}_400Hz.json"
        bad.write_text(json.dumps({**json.loads(bad.read_text()), **change}))
        out = tmp_path / "out"
        result = _python("-m", "sphbeam.cli", name, str(bad), *options, "--out", str(out))
        assert result.returncode == 3, result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and message in lines[0], result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("order, sidelobe", [("2", "6200"), ("1", "6160"), ("2", "6145")])
    def test_sidelobe_beyond_float_range_exits_3_on_one_line(self, tmp_path, order, sidelobe):
        # 10^(6200/20) overflows a float; at 6160 dB the Chebyshev target overflows,
        # and at 6145 dB the normalisation B(0)
        out = tmp_path / "out"
        result = _python("-m", "sphbeam.cli", "design", "--method", "dolph-chebyshev",
                         "--order", order, "--sidelobe", sidelobe, "--freq", "400",
                         "--out", str(out))
        assert result.returncode == 3, result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and "sidelobe" in lines[0], result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert not out.exists()

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

    # a phase error of 1e306 rad is finite but has no value modulo 2 pi: every seed
    # exits 3, not just those whose draw happens to overflow
    @pytest.mark.parametrize("perturb, field", [
        ("gain_db=1e308", "perturb.gain_db"),
        ("phase_deg=1e308", "perturb.phase_deg"),
        ("noise=1e308", "perturb.noise"),
        *((f"{name}=1e308,seed={seed}", f"perturb.{name}")
          for name in ("gain_db", "phase_deg", "noise") for seed in (1, 2, 3, 4)),
        ("gain_db=1e308,seed=3777", "perturb.gain_db"),  # every gain underflows to 0
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

    @pytest.mark.parametrize("alpha, perturb, field", [
        ("1e-300", "", "geometry.alpha"), ("1e-300", "noise=1e-4", "geometry.alpha"),
        ("1e-150", "", "pattern_error")])
    def test_simulate_with_a_tiny_cap_exits_3_naming_the_cause(self, runner, tmp_path, alpha,
                                                               perturb, field):
        # at 1e-300 every g_n is 0, so the caps radiate nothing, noise or not; at 1e-150
        # they radiate, and the measured pattern of weights made for alpha = 0.3 underflows
        _design(runner, tmp_path)
        out = tmp_path / "sim"
        result = runner.invoke(main, [
            "simulate", str(tmp_path / "modal_weights_400Hz.json"),
            str(tmp_path / "unit_weights_400Hz.json"), "--look", "90,0",
            "--geometry", f"dodecahedron:alpha={alpha}", "--perturb", perturb, "--out", str(out)])
        assert result.exit_code == 3, result.output
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and f"numerical failure: {field}: " in lines[0], lines
        assert not out.exists()

    def test_simulate_with_unit_weights_for_a_tiny_cap_measures(self, runner, tmp_path):
        # weights synthesized for the same tiny cap make up for its gains
        _design(runner, tmp_path)
        tiny = ["--geometry", "dodecahedron:alpha=1e-150"]
        assert runner.invoke(main, ["synthesize", str(tmp_path / "steered_weights_400Hz.json"),
                                    *tiny, "--out", str(tmp_path / "tiny")]).exit_code == 0
        result = runner.invoke(main, [
            "simulate", str(tmp_path / "modal_weights_400Hz.json"),
            str(tmp_path / "tiny" / "unit_weights_400Hz.json"), "--look", "90,0", *tiny,
            "--out", str(tmp_path / "sim")])
        assert result.exit_code == 0, result.output
        rep = json.loads((tmp_path / "sim" / "simulation_400Hz.json").read_text())
        assert rep["pattern_error"] < 1e-10

    def test_tiny_cap_raises_the_geometry_field_without_standalone_mode(self, runner,
                                                                         tmp_path):
        # main's caller gets the renamed error, raised from the library's
        _design(runner, tmp_path)
        out = tmp_path / "sim"
        with pytest.raises(ArithmeticError, match=r"^geometry\.alpha: ") as info:
            main(["simulate", str(tmp_path / "modal_weights_400Hz.json"),
                  str(tmp_path / "unit_weights_400Hz.json"), "--look", "90,0",
                  "--geometry", "dodecahedron:alpha=1e-300", "--out", str(out)],
                 standalone_mode=False)
        assert isinstance(info.value.__cause__, ArithmeticError)
        assert str(info.value.__cause__).startswith("alpha: ")
        assert not out.exists()

    def test_simulate_at_a_huge_radius_still_measures(self, runner, tmp_path):
        # the pressures are tiny but their squares are normal floats
        _design(runner, tmp_path)
        result = runner.invoke(main, [
            "simulate", str(tmp_path / "modal_weights_400Hz.json"),
            str(tmp_path / "unit_weights_400Hz.json"), "--look", "90,0", "--radius", "1e100",
            "--out", str(tmp_path / "sim"),
        ])
        assert result.exit_code == 0, result.output
        rep = json.loads((tmp_path / "sim" / "simulation_400Hz.json").read_text())
        assert rep["pattern_error"] == pytest.approx(0.1221596, abs=1e-6)

    @pytest.mark.parametrize("blocker, make, out", [
        ("dir/modal_weights_400Hz.json", "mkdir", "dir"),
        ("afile", "touch", "afile/sub"),
    ], ids=["file-is-a-directory", "out-under-a-file"])
    def test_unwritable_output_exits_2_on_one_line(self, tmp_path, blocker, make, out):
        target = tmp_path / blocker
        target.mkdir(parents=True) if make == "mkdir" else target.touch()
        result = _python("-m", "sphbeam.cli", "design", "--method", "max-wng", "--order", "2",
                         "--freq", "400", "--out", str(tmp_path / out))
        assert result.returncode == 2, result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and "out: cannot write " in lines[0], result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["grid", "simulate"])
    def test_grid_beyond_memory_exits_3_naming_analysis_order(self, runner, tmp_path, command):
        # only ever run under the address-space limit: unlimited, leggauss would try
        # to allocate (N+1)^2 floats, 74.5 GiB at N = 100 000
        if command == "grid":
            args = ["grid", "--radius", "1"]
        else:
            _design(runner, tmp_path)
            args = ["simulate", str(tmp_path / "modal_weights_400Hz.json"),
                    str(tmp_path / "unit_weights_400Hz.json")]
        out = tmp_path / "out"
        result = _python("-m", "sphbeam.cli", *args, "--analysis-order", "100000",
                         "--out", str(out), preexec_fn=_limit_address_space)
        assert result.returncode == 3, result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and "numerical failure: analysis_order: " in lines[0], lines
        assert not out.exists()

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
        ("metrics", "modal_weights", {"order": 5}, "order: expected len(d) - 1 = 2"),
        ("steer", "modal_weights", {"d": [[0, 0]] * 3}, "d: the modal weights are all zero"),
        ("metrics", "modal_weights", {"d": [[0, 0]] * 3}, "d: the modal weights are all zero"),
        ("simulate", "modal_weights", {"d": [[0, 0]] * 3}, "d: the modal weights are all zero"),
        # k_per_m five times 2 pi frequency_hz / c
        ("metrics", "modal_weights", {"k_per_m": 5 * 2 * math.pi * 400 / 343.0},
         "k_per_m: expected 2 pi frequency_hz / c"),
        ("steer", "modal_weights", {"k_per_m": 5 * 2 * math.pi * 400 / 343.0},
         "k_per_m: expected 2 pi frequency_hz / c"),
        ("simulate", "modal_weights", {"k_per_m": 5 * 2 * math.pi * 400 / 343.0},
         "k_per_m: expected 2 pi frequency_hz / c"),
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
        ("geometry", "[1, 2]", "bad.json: expected a JSON object"),
        ("geometry", json.dumps({"r0": 0.15, "caps_deg": _CAPS_DEG}), "geometry.alpha: missing"),
        ("metrics", '{"kind": "modal_weights",', "bad.json"),
        ("metrics", None, "bad.json"),
        ("geometry", json.dumps({"r0": 0.15, "alpha": 2, "caps_deg": _CAPS_DEG}),
         "geometry.alpha"),
        ("geometry", json.dumps({"r0": -1, "alpha": 0.3, "caps_deg": _CAPS_DEG}),
         "geometry.r0"),
        ("geometry", json.dumps({"r0": 0.15, "alpha": 0.3, "caps_deg": [[190, 0]] + _CAPS_DEG}),
         "geometry.caps_deg"),
    ], ids=["caps-three-columns", "caps-ragged", "r0-boolean", "alpha-string",
            "caps-boolean", "caps-string", "geometry-truncated", "geometry-list",
            "geometry-missing-alpha", "modal-truncated", "directory", "alpha-too-wide",
            "r0-negative", "cap-polar-190"])
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
        ("modal_weights", {"d": [[1e308, 0.0]] * 3}, 3, "d: the designed pattern"),
        ("unit_weights", {"w": [[1e308, 1e308]] * 12}, 3, "pattern_error"),
    ], ids=["zero-weights", "zero-look", "other-frequency", "eleven-caps", "huge-d", "huge-w"])
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


def _readme_cli_block():
    """The README's sh block that runs ``sphbeam design``, its continuation
    lines joined."""
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return next(b for b in blocks if "sphbeam design" in b).replace("\\\n", " ")


def test_readme_cli_block_runs(tmp_path):
    """The block runs, and a second run over its own outputs rewrites them
    byte for byte."""
    block = _readme_cli_block()
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("sphbeam ")]
    assert len(commands) >= 7
    runs = []
    for _ in range(2):
        for args in commands:
            result = _python("-m", "sphbeam.cli", *args[1:], cwd=tmp_path)
            assert result.returncode == 0, (args, result.stderr)
        runs.append({path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()})
    assert runs[1] == runs[0]
    named = set(re.findall(r"out/[\w./]+\.(?:json|csv)", block))
    assert named
    for name in named:
        assert (tmp_path / name).is_file(), name
    # the unperturbed simulation measures the weights the first design made
    report = json.loads((tmp_path / "out" / "simulation_400Hz.json").read_text())
    assert report["pattern_error"] < 1e-6, report


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
