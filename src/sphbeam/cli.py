"""Command-line front end.

Subcommands: design, steer, synthesize, simulate, metrics, grid.
Angles are degrees at the CLI boundary and radians internally.
Coefficient files are JSON as ``json.dumps(doc, sort_keys=True, indent=2)``
writes it, plus a newline; each file kind is one ``%`` template
(JsonLayout), filled per frequency from the sweep arrays.  Pattern grids
and cross-sections are CSV with columns theta_deg, phi_deg, re, im, abs,
db.  Identical inputs produce bit-identical outputs; every file carries
the config hash.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import hashlib
import json
import reprlib
import sys
from pathlib import Path

import click
import numpy as np

from . import design as designs
from . import metrics as metricsmod
from . import synthesis, virtualmeas
from .radiation import ArrayGeometry, Medium, dodecahedron

DEFAULT_R0 = 0.15
DEFAULT_ALPHA = 0.3


# ---------------------------------------------------------------------------
# config handling


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _number(value, field: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{field}: expected a number, got {reprlib.repr(value)}") from exc


def _is_json_number(value) -> bool:
    """An int or float from a JSON file: neither a boolean nor a numeric string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_number(value, field: str) -> float:
    if not _is_json_number(value):
        raise ValueError(f"{field}: expected a number, got {reprlib.repr(value)}")
    return _number(value, field)


def load_geometry(spec: str) -> tuple[ArrayGeometry, dict]:
    """Resolve a geometry spec: a JSON file path, or a builtin name like
    'dodecahedron' / 'dodecahedron:r0=0.15,alpha=0.3'."""
    if spec.split(":")[0] == "dodecahedron":
        params = {"r0": DEFAULT_R0, "alpha": DEFAULT_ALPHA}
        if ":" in spec:
            for item in spec.split(":", 1)[1].split(","):
                key, _, val = item.partition("=")
                if key not in params:
                    raise ValueError(f"geometry: unknown dodecahedron parameter {key!r}")
                params[key] = _number(val, f"geometry.{key}")
        geom = dodecahedron(**params)
        return geom, {"builtin": "dodecahedron", **params}
    path = Path(spec)
    if not path.exists():
        raise ValueError(f"geometry: file not found: {spec}")
    data = _load_json(path)
    try:
        caps = np.deg2rad(_pairs(data["caps_deg"], "geometry.caps_deg", "[theta, phi]"))
        geom = ArrayGeometry(r0=_json_number(data["r0"], "geometry.r0"),
                             alpha=_json_number(data["alpha"], "geometry.alpha"), cap_dirs=caps)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"geometry.{exc}: expected fields r0, alpha, caps_deg") from exc
    return geom, data


def parse_look(text: str) -> tuple[float, float]:
    try:
        theta, phi = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError("look: expected THETA,PHI in degrees") from exc
    if not 0.0 <= theta <= 180.0:
        raise ValueError("look.theta: must lie in [0, 180] degrees")
    if not np.isfinite(phi):
        raise ValueError("look.phi: must be finite")
    return np.deg2rad(theta), np.deg2rad(phi)


def look_degrees(look_rad) -> list[float]:
    return [float(np.rad2deg(a)) for a in look_rad]


def parse_freqs(text: str) -> list[float]:
    """Frequencies in Hz; each names its files by a distinct f"{f:g}Hz" tag."""
    freqs = [_number(v, "freq") for v in text.split(",")]
    if not all(0 < f < np.inf for f in freqs):
        raise ValueError("freq: frequencies must be finite and positive")
    tags = {}
    for f in freqs:
        tag = f"{f:g}Hz"
        if tag in tags:
            raise ValueError(f"freq: {tags[tag]!r} and {f!r} share the file tag {tag}")
        tags[tag] = f
    return freqs


def parse_perturb(text: str) -> dict:
    allowed = {"gain_db": 0.0, "phase_deg": 0.0, "noise": 0.0, "seed": 0}
    for item in filter(None, text.split(",")):
        key, _, val = item.partition("=")
        if key not in allowed:
            raise ValueError(f"perturb.{key}: unknown field")
        try:
            value = int(val) if key == "seed" else float(val)
        except ValueError:
            value = None
        if key == "seed" and (value is None or value < 0):
            raise ValueError(f"perturb.seed: expected an integer >= 0, got {reprlib.repr(val)}")
        if value is None or not 0 <= value < np.inf:
            raise ValueError(f"perturb.{key}: expected a finite number >= 0, "
                             f"got {reprlib.repr(val)}")
        allowed[key] = value
    return allowed


# ---------------------------------------------------------------------------
# serialization


class JsonLayout:
    """One kind of JSON file: ``{"kind": kind, "config_hash": cfg_hash,
    **payload}`` laid out once as ``json.dumps(doc, sort_keys=True,
    indent=2)`` lays it out, as a ``%`` template filled per row.

    Float or complex ndarrays in ``payload`` vary per row: with ``rows``
    given their first axis indexes the rows, without it there is one row.
    Each of their numbers is a ``%r`` slot (a complex one an ``[re, im]``
    pair), filled from row i of the ``values`` matrix; ``float.__repr__``
    is what ``json.dumps`` writes for a finite float.  Other values are
    constants.  Raises ArithmeticError naming the kind and field when a
    number is not finite.
    """

    def __init__(self, kind: str, cfg_hash: str, payload: dict, rows: int | None = None):
        self.kind = kind
        self._lead = () if rows is None else (rows,)
        self._columns = []  # (field, (rows, slots) float array) in slot order
        doc = {"kind": kind, "config_hash": cfg_hash, **payload}
        self.template = self._render(doc, "", kind) + "\n"
        matrix = np.hstack([np.empty((rows or 1, 0)), *(c for _, c in self._columns)])
        if not np.all(np.isfinite(matrix)):
            bad = next(f for f, c in self._columns if not np.all(np.isfinite(c)))
            raise ArithmeticError(f"{bad}: non-finite value in output")
        self.values = matrix

    def _render(self, value, indent: str, field: str) -> str:
        inner = indent + "  "
        if isinstance(value, np.ndarray):
            value = self._slots(value, field)
        if isinstance(value, dict):
            items = [f"{_json_const(key)}: {self._render(v, inner, f'{field}.{key}')}"
                     for key, v in sorted(value.items())]
            brackets = "{}"
        elif isinstance(value, (list, tuple)):
            items = [self._render(v, inner, field) for v in value]
            brackets = "[]"
        elif value is _SLOT:
            return "%r"
        else:
            if isinstance(value, float) and not np.isfinite(value):
                raise ArithmeticError(f"{field}: non-finite value in output")
            return _json_const(value)
        if not items:
            return brackets
        return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"

    def _slots(self, array: np.ndarray, field: str):
        """Record an array's numbers as columns; return its slot skeleton."""
        flat = np.ascontiguousarray(array).reshape(*self._lead or (1,), -1)
        self._columns.append((field, flat.view(float) if array.dtype.kind == "c" else flat))
        skeleton = [_SLOT, _SLOT] if array.dtype.kind == "c" else _SLOT
        for size in reversed(array.shape[len(self._lead):]):
            skeleton = [skeleton] * size
        return skeleton


_SLOT = object()


def _json_const(value) -> str:
    return json.dumps(value).replace("%", "%%")


def _pairs(value, field: str, pair: str) -> np.ndarray:
    """A non-empty (n, 2) float array of finite JSON numbers, or ValueError naming field."""
    arr = np.empty(0)
    if isinstance(value, list) and all(
            isinstance(row, list) and all(map(_is_json_number, row)) for row in value):
        try:
            arr = np.asarray(value, dtype=float)
        except (ValueError, OverflowError):  # ragged, or an integer beyond float range
            pass
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != 2 or not np.all(np.isfinite(arr)):
        raise ValueError(f"{field}: expected a non-empty list of finite {pair} pairs")
    return arr


def _l2c(pairs, field: str) -> np.ndarray:
    arr = _pairs(pairs, field, "[re, im]")
    return arr[:, 0] + 1j * arr[:, 1]


def write_json(path: Path, layout: JsonLayout, row: int = 0):
    """Write one row of a JSON layout: the only place a JSON file is opened."""
    path.write_text(layout.template % tuple(layout.values[row].tolist()))


def steered_layout(cfg_hash, f, k, look_deg, near_field_radius, order, coeffs, rows=None):
    return JsonLayout("steered_weights", cfg_hash, {
        "order": order, "frequency_hz": f, "k_per_m": k, "look_deg": look_deg,
        "near_field_radius_m": near_field_radius, "coeffs": coeffs,
    }, rows)


def unit_layout(cfg_hash, f, w, rows=None):
    return JsonLayout("unit_weights", cfg_hash, {
        "frequency_hz": f, "num_caps": w.shape[-1], "w": w,
    }, rows)


def _load_json(path: Path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # a directory, JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: not a readable JSON file ({exc})") from exc


def read_json(path: Path, kind: str) -> dict:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if data.get("kind") != kind:
        raise ValueError(f"{path}: expected a {kind!r} file, got {reprlib.repr(data.get('kind'))}")
    return data


def _is_positive(v) -> bool:
    # a Python float bound compares exactly with JSON integers beyond float range
    return _is_json_number(v) and 0 < v <= sys.float_info.max


# scalar fields of coefficient files: (validity test, what is expected)
_FIELDS = {
    "order": (lambda v: isinstance(v, int) and v >= 0, "an integer >= 0"),
    "num_caps": (lambda v: isinstance(v, int), "an integer"),
    "k_per_m": (_is_positive, "a finite positive number"),
    "frequency_hz": (_is_positive, "a finite positive number"),
    "r0_m": (_is_positive, "a finite positive number"),
    "config_hash": (lambda v: isinstance(v, str), "a string"),
}


def _field(data: dict, name: str):
    valid, expected = _FIELDS[name]
    value = data.get(name)
    if isinstance(value, bool) or not valid(value):
        raise ValueError(f"{name}: expected {expected}, got {reprlib.repr(value)}")
    return value


def read_modal(path: Path, r0: float):
    """Modal weights file designed for a sphere of radius r0 -> (complex
    (N+1,) d, k_per_m, frequency_hz, config_hash)."""
    data = read_json(path, "modal_weights")
    d = _l2c(data.get("d"), "d")
    if _field(data, "order") != d.size - 1:
        raise ValueError(f"order: expected len(d) - 1 = {d.size - 1}, got {data['order']}")
    r0_m = _field(data, "r0_m")
    if r0_m != r0:
        raise ValueError(f"r0_m: the modal file is for a sphere of radius {reprlib.repr(r0_m)} m, "
                         f"the geometry has r0 = {r0!r} m")
    return d, _field(data, "k_per_m"), _field(data, "frequency_hz"), _field(data, "config_hash")


def read_steered(path: Path):
    """Steered weights file -> (complex ((N+1)^2,) w_nm, order N, frequency_hz,
    config_hash)."""
    data = read_json(path, "steered_weights")
    order = _field(data, "order")
    w_nm = _l2c(data.get("coeffs"), "coeffs")
    if w_nm.size != (order + 1) ** 2:
        raise ValueError(f"coeffs: expected {(order + 1) ** 2} pairs for order {order}")
    return w_nm, order, _field(data, "frequency_hz"), _field(data, "config_hash")


def read_unit(path: Path):
    """Unit weights file -> (complex (L,) weights w, frequency_hz)."""
    data = read_json(path, "unit_weights")
    w = _l2c(data.get("w"), "w")
    if _field(data, "num_caps") != w.size:
        raise ValueError(f"num_caps: expected len(w) = {w.size}, got {data['num_caps']}")
    return w, _field(data, "frequency_hz")


def write_pattern_csv(path: Path, cfg_hash: str, dirs_rad, values, look_value):
    """Pattern CSV: angles in degrees, dB relative to the look value.  The
    values must be finite and the look value nonzero (virtualmeas.simulate
    checks both)."""
    scale = abs(look_value)
    lines = [
        f"# config_hash: {cfg_hash}",
        "# units: theta_deg, phi_deg [degrees]; re, im, abs [pattern units]; "
        "db [20*log10(|B|/|B(look)|)]",
        "theta_deg,phi_deg,re,im,abs,db",
    ]
    mags = np.abs(values)
    dbs = 20.0 * np.log10(np.maximum(mags, 1e-300) / scale)
    degs = np.rad2deg(dirs_rad)
    columns = (degs[:, 0], degs[:, 1], values.real, values.imag, mags, dbs)
    row = "%.6f,%.6f,%.12e,%.12e,%.12e,%.6f"
    lines += [row % r for r in zip(*(c.tolist() for c in columns))]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands


class _Failure(click.ClickException):
    def __init__(self, message, exit_code):
        super().__init__(message)
        self.exit_code = exit_code


def _run(fn):
    """Map library errors onto the documented exit codes."""

    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        # LinAlgError subclasses ValueError, so it must be caught first
        except (ArithmeticError, np.linalg.LinAlgError) as exc:
            raise _Failure(f"numerical failure: {exc}", 3) from exc
        except (ValueError, KeyError) as exc:
            raise _Failure(f"config error: {exc}", 2) from exc

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


geometry_opt = click.option("--geometry", default="dodecahedron", show_default=True,
                            help="Geometry JSON path or builtin spec.")
out_opt = click.option("--out", type=click.Path(file_okay=False, path_type=Path),
                       default=Path("."), show_default=True, help="Output directory.")


def _finite_positive(ctx, param, value):
    if value is not None and not 0 < value < np.inf:
        raise click.BadParameter("must be a finite positive number")
    return value


radius_opt = click.option("--radius", type=float, default=0.57, show_default=True,
                          callback=_finite_positive,
                          help="Analysis radius in m (with --near-field).")
format_opt = click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                          default="json", show_default=True)


@click.group()
def main():
    """Model-based beamforming for spherical loudspeaker arrays."""


@main.command("design")
@geometry_opt
@click.option("--method", type=click.Choice(designs.METHODS), required=True)
@click.option("--order", "-N", type=click.IntRange(min=0), required=True,
              help="Design order N.")
@click.option("--freq", required=True, help="Frequency list in Hz, comma separated.")
@click.option("--look", default="0,0", show_default=True, help="Look direction THETA,PHI in degrees.")
@click.option("--sidelobe", type=float, default=None, callback=_finite_positive,
              help="Sidelobe level in dB (dolph-chebyshev).")
@click.option("--near-field", is_flag=True, help="Compensate steering for a finite analysis radius.")
@radius_opt
@out_opt
@_run
def cmd_design(geometry, method, order, freq, look, sidelobe, near_field, radius, out):
    """Design modal weights, steer, synthesize unit weights, and report metrics."""
    geom, geom_doc = load_geometry(geometry)
    look_rad = parse_look(look)
    freqs = parse_freqs(freq)
    medium = Medium()
    cfg = {
        "command": "design", "geometry": geom_doc, "method": method, "order": order,
        "frequencies_hz": freqs, "look_deg": look_degrees(look_rad), "sidelobe_db": sidelobe,
        "near_field": near_field, "radius_m": radius,
        "medium": {"rho0": medium.rho0, "c": medium.c},
    }
    cfg_hash = _config_hash(cfg)
    nf_radius = radius if near_field else None
    fs = np.asarray(freqs)
    ks = 2 * np.pi * fs / medium.c
    sw = designs.sweep(geom, method, order, ks, look_rad, sidelobe, nf_radius, medium)
    rows = len(freqs)
    layouts = (
        JsonLayout("modal_weights", cfg_hash, {
            "method": method, "order": order, "frequency_hz": fs, "k_per_m": ks,
            "r0_m": geom.r0, "d": sw.d.astype(complex),
        }, rows),
        steered_layout(cfg_hash, fs, ks, cfg["look_deg"], nf_radius, order, sw.w_nm, rows),
        unit_layout(cfg_hash, fs, sw.w, rows),
        JsonLayout("metrics", cfg_hash,
                   _report_doc(sw.report, fs, ks, geom.r0, sw.unit_weight_norm), rows),
    )
    out.mkdir(parents=True, exist_ok=True)

    tags = [f"{f:g}Hz" for f in freqs]
    for i, tag in enumerate(tags):
        for layout in layouts:
            write_json(out / f"{layout.kind}_{tag}.json", layout, i)
    rep = sw.report
    lines = zip(tags, rep.q.tolist(), rep.di_db.tolist(), rep.wng.tolist(), rep.wng_db.tolist())
    click.echo("\n".join(f"{tag}: Q={q:.6g} DI={di_db:.4f} dB WNG={wng:.6g} ({wng_db:.4f} dB)"
                         for tag, q, di_db, wng, wng_db in lines))


def _report_doc(rep, f, k, r0, unit_weight_norm):
    return {
        "frequency_hz": f, "q": rep.q, "di_db": rep.di_db, "wng": rep.wng,
        "wng_db": rep.wng_db, "k_per_m": k, "r0_m": r0, "unit_weight_norm": unit_weight_norm,
    }


@main.command("steer")
@click.argument("weights_file", type=click.Path(exists=True, path_type=Path))
@geometry_opt
@click.option("--look", required=True, help="Look direction THETA,PHI in degrees.")
@click.option("--near-field", is_flag=True)
@radius_opt
@out_opt
@_run
def cmd_steer(weights_file, geometry, look, near_field, radius, out):
    """Steer modal weights from a design file to a new look direction."""
    geom, geom_doc = load_geometry(geometry)
    look_rad = parse_look(look)
    d, k, f, source = read_modal(weights_file, geom.r0)
    nf_radius = radius if near_field else None
    w_nm = synthesis.steer_at(d, look_rad, k, geom.r0, nf_radius, Medium())
    cfg = {"command": "steer", "geometry": geom_doc, "source": source,
           "look_deg": look_degrees(look_rad), "near_field": near_field, "radius_m": radius}
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / f"steered_weights_{f:g}Hz.json", steered_layout(
        _config_hash(cfg), f, k, cfg["look_deg"], nf_radius, d.size - 1, w_nm))
    click.echo(f"steered order-{d.size - 1} weights to look {look} deg")


@main.command("synthesize")
@click.argument("steered_file", type=click.Path(exists=True, path_type=Path))
@geometry_opt
@out_opt
@_run
def cmd_synthesize(steered_file, geometry, out):
    """Compute per-loudspeaker weights from steered coefficients."""
    geom, geom_doc = load_geometry(geometry)
    w_nm, order, f, source = read_steered(steered_file)
    w = synthesis.unit_weights(w_nm, synthesis.build_transform(geom, order))
    cfg = {"command": "synthesize", "geometry": geom_doc, "source": source}
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / f"unit_weights_{f:g}Hz.json", unit_layout(_config_hash(cfg), f, w))
    click.echo(f"synthesized {geom.num_caps} unit weights")


@main.command("metrics")
@click.argument("weights_file", type=click.Path(exists=True, path_type=Path))
@geometry_opt
@out_opt
@format_opt
@_run
def cmd_metrics(weights_file, geometry, out, fmt):
    """Directivity factor/index and WNG of a modal weights file."""
    geom, geom_doc = load_geometry(geometry)
    d, k, f, source = read_modal(weights_file, geom.r0)
    rep = metricsmod.report(d, k, geom.r0)
    cfg = {"command": "metrics", "geometry": geom_doc, "source": source}
    cfg_hash = _config_hash(cfg)
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{f:g}Hz"
    doc = _report_doc(rep, f, k, geom.r0, None)
    if fmt == "json":
        write_json(out / f"metrics_{tag}.json", JsonLayout("metrics", cfg_hash, doc))
    else:
        keys = sorted(doc)
        lines = [f"# config_hash: {cfg_hash}", ",".join(keys),
                 ",".join("" if doc[k] is None else f"{doc[k]:.12g}" for k in keys)]
        (out / f"metrics_{tag}.csv").write_text("\n".join(lines) + "\n")
    click.echo(f"Q={rep.q:.6g} DI={rep.di_db:.4f} dB WNG={rep.wng:.6g}")


@main.command("grid")
@click.option("--analysis-order", type=click.IntRange(min=0), required=True)
@click.option("--radius", type=float, required=True, callback=_finite_positive,
              help="Grid radius in m.")
@out_opt
@_run
def cmd_grid(analysis_order, radius, out):
    """Export a Gaussian sampling grid (directions and quadrature weights)."""
    grid = virtualmeas.gaussian_grid(analysis_order, radius)
    cfg = {"command": "grid", "analysis_order": analysis_order, "radius_m": radius}
    out.mkdir(parents=True, exist_ok=True)
    layout = JsonLayout("sampling_grid", _config_hash(cfg), {
        "analysis_order": analysis_order, "radius_m": radius, "num_points": grid.num_points,
        "theta_deg": np.rad2deg(grid.directions[:, 0]),
        "phi_deg": np.rad2deg(grid.directions[:, 1]), "weights_sr": grid.weights,
    })
    write_json(out / f"grid_N{analysis_order}.json", layout)
    click.echo(f"wrote {grid.num_points}-point Gaussian grid of order {analysis_order}")


@main.command("simulate")
@click.argument("modal_file", type=click.Path(exists=True, path_type=Path))
@click.argument("unit_file", type=click.Path(exists=True, path_type=Path))
@geometry_opt
@click.option("--analysis-order", type=click.IntRange(min=0), default=10, show_default=True)
@click.option("--radius", type=float, default=0.57, show_default=True,
              callback=_finite_positive, help="Virtual microphone radius in m.")
@click.option("--look", default="0,0", show_default=True,
              help="Look direction THETA,PHI in degrees; must match the steering.")
@click.option("--perturb", default="", help="Perturbation spec, e.g. "
                                            "'gain_db=0.5,phase_deg=2,noise=1e-4,seed=1'.")
@out_opt
@_run
def cmd_simulate(modal_file, unit_file, geometry, analysis_order, radius, look, perturb, out):
    """Virtually measure a synthesized design and export designed and
    measured balloon grids and cross-sections."""
    geom, geom_doc = load_geometry(geometry)
    d, k, f, source = read_modal(modal_file, geom.r0)
    w, unit_f = read_unit(unit_file)
    if f != unit_f:
        raise ValueError(f"frequency_hz: the modal file is for {f!r} Hz, "
                         f"the unit file for {unit_f!r} Hz")
    look_rad = parse_look(look)
    perturbation = parse_perturb(perturb)

    cfg = {"command": "simulate", "geometry": geom_doc, "source": source,
           "analysis_order": analysis_order, "radius_m": radius,
           "look_deg": look_degrees(look_rad), "perturb": perturbation}
    cfg_hash = _config_hash(cfg)
    tag = f"{f:g}Hz"
    sim = virtualmeas.simulate(geom, d, w, k, look_rad, analysis_order, radius, perturbation)
    report = JsonLayout("simulation_report", cfg_hash, {
        "frequency_hz": f, "analysis_order": analysis_order,
        "radius_m": radius, "sim_order": sim.sim_order,
        "sim_tail": sim.sim_tail, "pattern_error": sim.pattern_error,
    })

    out.mkdir(parents=True, exist_ok=True)
    for name, (dirs, designed, measured) in sim.patterns.items():
        write_pattern_csv(out / f"{name}_designed_{tag}.csv", cfg_hash, dirs, designed,
                          sim.designed_look)
        write_pattern_csv(out / f"{name}_measured_{tag}.csv", cfg_hash, dirs, measured,
                          sim.measured_look)
    write_json(out / f"simulation_{tag}.json", report)
    click.echo(f"{tag}: pattern_error={sim.pattern_error:.3e}")


if __name__ == "__main__":
    main()
