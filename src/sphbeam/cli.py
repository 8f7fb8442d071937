"""Command-line front end.

Subcommands: design, steer, synthesize, simulate, metrics, grid.
Angles are degrees at the CLI boundary and radians internally.
Coefficient files are JSON as ``json.dumps(doc, sort_keys=True, indent=2)``
writes it, plus a newline; each file kind is one ``%`` template
(JsonLayout), filled per frequency from the sweep arrays.  Pattern grids
and cross-sections are CSV with columns theta_deg, phi_deg, re, im, abs,
db: angles and dB as ``%.6f``, re, im and abs as ``%.12e``, correctly
rounded as Python's ``%`` rounds them (rendered and written in numpy
blocks of rows by write_pattern_csv, so a file is never held whole).
Identical inputs produce bit-identical outputs; every file carries the
config hash: the first 16 hex digits of the SHA-256 of the command's config,
as ``json.dumps(cfg, sort_keys=True)`` writes it, computed with CPython's
built-in SHA-256 so that the CLI does not load OpenSSL (nor does
``simulate --perturb``, which draws from ``random.Random(seed)``, not
numpy.random).  An existing output file is overwritten in place and cut
to length.  Each command parses its input, computes and checks its results
in the library, and only then writes: _write, the one writer, makes the
output directory on the first write that finds it missing, so a command
that fails makes no directory and no file.  An I/O error can leave a
pattern CSV partly written.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import reprlib
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import design as designs
from . import metrics as metricsmod
from . import synthesis, virtualmeas
from .radiation import ArrayGeometry, C, RHO0, dodecahedron

# hashlib maps OpenSSL's libcrypto; CPython's own SHA-256 does not
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256  # an interpreter built without them

DEFAULT_R0 = 0.15
DEFAULT_ALPHA = 0.3


# ---------------------------------------------------------------------------
# config handling


def _config_hash(cfg: dict) -> str:
    """The first 16 hex digits of the SHA-256 of json.dumps(cfg, sort_keys=True)."""
    return sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


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
    'dodecahedron' / 'dodecahedron:r0=0.15,alpha=0.3'.  Its own errors
    name their field as geometry.<field>; main renames ArrayGeometry's so."""
    if spec.split(":")[0] == "dodecahedron":
        params = {"r0": DEFAULT_R0, "alpha": DEFAULT_ALPHA}
        if ":" in spec:
            given = set()
            for item in spec.split(":", 1)[1].split(","):
                key, _, val = item.partition("=")
                if key not in params:
                    raise ValueError(f"geometry: unknown dodecahedron parameter {key!r}")
                if key in given:
                    raise ValueError(f"geometry.{key}: given more than once")
                given.add(key)
                params[key] = _number(val, f"geometry.{key}")
        doc, build = {"builtin": "dodecahedron", **params}, dodecahedron
    else:
        path = Path(spec)
        if not path.exists():
            raise ValueError(f"geometry: file not found: {spec}")
        doc = _load_json(path)
        try:
            caps = _pairs(doc["caps_deg"], "geometry.caps_deg", "[theta, phi]")
            params = {"r0": _json_number(doc["r0"], "geometry.r0"),
                      "alpha": _json_number(doc["alpha"], "geometry.alpha")}
        except KeyError as exc:
            raise ValueError(f"geometry.{exc.args[0]}: missing; expected fields r0, alpha, "
                             f"caps_deg") from exc
        if not np.all((0 <= caps[:, 0]) & (caps[:, 0] <= 180)):
            raise ValueError("geometry.caps_deg: polar angles must lie in [0, 180] degrees")
        build = partial(ArrayGeometry, cap_dirs=np.deg2rad(caps))
    return build(**params), doc


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


def parse_freqs(text: str) -> list[float]:
    """Frequencies in Hz; each names its files by a distinct f"{f:g}Hz" tag."""
    freqs = [_number(v, "freq") for v in text.split(",")]
    for f in freqs:
        if not 0 < 2 * np.pi * f / C < np.inf:
            raise ValueError(f"freq: expected a finite positive frequency whose wavenumber "
                             f"2 pi f / c is finite and positive, got {f!r}")
    tags = {}
    for f in freqs:
        tag = f"{f:g}Hz"
        if tag in tags:
            raise ValueError(f"freq: {tags[tag]!r} and {f!r} share the file tag {tag}")
        tags[tag] = f
    return freqs


def parse_perturb(text: str) -> dict:
    allowed = {"gain_db": 0.0, "phase_deg": 0.0, "noise": 0.0, "seed": 0}
    given = set()
    for item in filter(None, text.split(",")):
        key, _, val = item.partition("=")
        if key not in allowed:
            raise ValueError(f"perturb.{key}: unknown field")
        if key in given:
            raise ValueError(f"perturb.{key}: given more than once")
        given.add(key)
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
    **payload}`` laid out once by ``json.dumps(skeleton, sort_keys=True,
    indent=2)`` as a ``%`` template filled per row.

    Float or complex ndarrays in ``payload`` vary per row: with ``rows``
    given their first axis indexes the rows, without it there is one row.
    In the skeleton each of their numbers is a slot, a NaN (a complex one
    an ``[re, im]`` pair of them), which the template turns into ``%r``,
    filled from row i of the ``values`` matrix; ``float.__repr__`` is what
    ``json.dumps`` writes for a finite float.  Other values are constants.
    Raises ArithmeticError naming the kind and field when a number is not
    finite.
    """

    def __init__(self, kind: str, cfg_hash: str, payload: dict, rows: int | None = None):
        self.kind = kind
        self._lead = () if rows is None else (rows,)
        self._columns = []  # (field, (rows, slots) float array) in slot order
        skeleton = self._skeleton({"kind": kind, "config_hash": cfg_hash, **payload}, kind)
        text = json.dumps(skeleton, sort_keys=True, indent=2).replace("%", "%%")
        self.template = text.replace(" NaN,\n", " %r,\n").replace(" NaN\n", " %r\n") + "\n"
        matrix = np.hstack([np.empty((rows or 1, 0)), *(c for _, c in self._columns)])
        if not np.all(np.isfinite(matrix)):
            bad = next(f for f, c in self._columns if not np.all(np.isfinite(c)))
            raise ArithmeticError(f"{bad}: non-finite value in output")
        self.values = matrix

    def _skeleton(self, value, field: str):
        """value with each ndarray replaced by its slots; dict keys are
        walked sorted, as json.dumps writes them, so columns are in slot order."""
        if isinstance(value, np.ndarray):
            return self._slots(value, field)
        if isinstance(value, dict):
            return {key: self._skeleton(value[key], f"{field}.{key}") for key in sorted(value)}
        if isinstance(value, (list, tuple)):
            return [self._skeleton(v, field) for v in value]
        if isinstance(value, float) and not np.isfinite(value):
            raise ArithmeticError(f"{field}: non-finite value in output")
        return value

    def _slots(self, array: np.ndarray, field: str):
        """Record an array's numbers as columns; return its slot skeleton."""
        flat = np.ascontiguousarray(array).reshape(*self._lead or (1,), -1)
        self._columns.append((field, flat.view(float) if array.dtype.kind == "c" else flat))
        skeleton = [_SLOT, _SLOT] if array.dtype.kind == "c" else _SLOT
        for size in reversed(array.shape[len(self._lead):]):
            skeleton = [skeleton] * size
        return skeleton


# json.dumps writes this float as the bare token NaN, which the template matches
# between a space (the indent or ": ") and a line end.  No string or key can end
# a line there, since JSON escapes a newline inside one, and _skeleton rejects a
# non-finite constant, so every such token is a slot.
_SLOT = float("nan")


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


def _write(path, chunks):
    """Overwrite the file at path with the byte strings of chunks, in place,
    cut to length: the only place an output file is opened or the output
    directory made.  A missing directory is made, parents included, when
    the first open finds none; since every command checks its results
    before its first write, a failing command makes no directory.

    Each chunk is written as the iterable yields it, so a file need not be
    held in memory whole.  The open does not truncate: on ext4, truncating
    an existing file makes close() start writing it back synchronously,
    which cost most of a many-file design.  The write is not atomic; a
    failure part way can leave the new head over the old tail.  An OSError
    becomes a ValueError naming ``out`` and the path.
    """
    try:
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        except FileNotFoundError:
            os.makedirs(Path(path).parent, exist_ok=True)
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            size = 0
            for chunk in chunks:
                written = os.write(fd, chunk)
                while written < len(chunk):  # a short write
                    written += os.write(fd, chunk[written:])
                size += written
            if os.fstat(fd).st_size > size:
                os.ftruncate(fd, size)
        finally:
            os.close(fd)
    except OSError as exc:
        raise ValueError(f"out: cannot write {path}: {exc.strerror}") from exc


def write_json(path, layout: JsonLayout, row: int = 0):
    """Write one row of a JSON layout to path (a str or Path) through the
    one output writer."""
    _write(path, ((layout.template % tuple(layout.values[row].tolist())).encode(),))


def steered_layout(cfg_hash, f, k, look_deg, near_field_radius, order, coeffs, rows=None):
    return JsonLayout("steered_weights", cfg_hash, {
        "order": order, "frequency_hz": f, "k_per_m": k, "look_deg": look_deg,
        "near_field_radius_m": near_field_radius, "coeffs": coeffs,
    }, rows)


def unit_layout(cfg_hash, f, w, rows=None):
    return JsonLayout("unit_weights", cfg_hash, {
        "frequency_hz": f, "num_caps": w.shape[-1], "w": w,
    }, rows)


def _load_json(path: Path) -> dict:
    """A JSON file holding an object, or ValueError naming the path."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # a directory, JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: not a readable JSON file ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def read_json(path: Path, kind: str) -> dict:
    data = _load_json(path)
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


def read_modal(path: Path):
    """Modal weights file -> (complex (N+1,) d, k_per_m, frequency_hz, the
    sphere radius r0_m as a float, config_hash).  d must not be all zero,
    and k_per_m must be 2 pi frequency_hz / c to 1e-12 relative."""
    data = read_json(path, "modal_weights")
    d = _l2c(data.get("d"), "d")
    if not np.any(d):
        raise ValueError("d: the modal weights are all zero")
    if _field(data, "order") != d.size - 1:
        raise ValueError(f"order: expected len(d) - 1 = {d.size - 1}, got {data['order']}")
    r0_m = float(_field(data, "r0_m"))
    k, f = _field(data, "k_per_m"), _field(data, "frequency_hz")
    k_f = 2 * np.pi * f / C
    if not abs(k - k_f) <= 1e-12 * k_f < np.inf:
        raise ValueError(f"k_per_m: expected 2 pi frequency_hz / c = {k_f!r} 1/m, "
                         f"got {reprlib.repr(k)}")
    return d, k, f, r0_m, _field(data, "config_hash")


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


def write_pattern_csv(path: Path, cfg_hash: str, theta, phi, values, look_value):
    """Pattern CSV of the theta x phi product grid: T polar and P azimuthal
    angles in radians, and T * P values in meshgrid "ij" order (phi varying
    fastest), one row each.  Angles are written in degrees, dB relative to
    the look value.  The values must be finite and the look value nonzero
    (virtualmeas.simulate checks both).

    Angles and dB are written as ``%.6f`` and re, im and abs as ``%.12e``,
    correctly rounded as Python's ``%`` rounds them (_pattern_rows).  The
    file is written block by block as it is rendered, so an I/O error can
    leave it partly written."""
    scale = abs(look_value)

    def columns(start, stop):
        block = values[start:stop]
        mags = np.abs(block)
        return np.array([block.real, block.imag, mags,
                         20.0 * np.log10(np.maximum(mags, 1e-300) / scale)])

    header = (f"# config_hash: {cfg_hash}\n"
              "# units: theta_deg, phi_deg [degrees]; re, im, abs [pattern units]; "
              "db [20*log10(|B|/|B(look)|)]\n"
              "theta_deg,phi_deg,re,im,abs,db\n")
    _write(path, _pattern_rows(header.encode(), np.rad2deg(theta), np.rad2deg(phi), columns))


_PATTERN_FORMATS = ("%.6f", "%.6f", "%.12e", "%.12e", "%.12e", "%.6f")
_BLOCK_ROWS = 2048  # rows rendered at a time: a word grid of about 0.25 MB
_TIE_MARGIN = 2.0**-51  # relative: four times the error of a value scaled with one rounding
_EXACT_POWERS = np.array([float(10**k) for k in range(23)])  # 10**k, each an exact float


def _pattern_rows(header: bytes, theta_deg, phi_deg, columns):
    """Yield header, then the rows of a pattern on the theta x phi product
    grid, in meshgrid "ij" order, as the lines
    ``"%.6f,%.6f,%.12e,%.12e,%.12e,%.6f\\n" % row`` writes them, byte for
    byte, one block of up to _BLOCK_ROWS rows at a time.  ``columns(start,
    stop)`` gives the (4, stop - start) float array of the re, im, abs and
    dB columns of rows start to stop, so only one block's values are held.

    Each block of rows is a uint32 word grid, each column a fixed run of
    words: digits come four at a time from a table of ASCII words, and a
    missing sign or leading digit is a 0 byte, deleted at the end.  The
    angle columns are rendered once for the T polar and the P azimuthal
    angles, and each block gathers its rows' words from them.  A number is
    scaled to an integer by one multiply by an exact power of ten, so with
    one rounding: ``%.6f`` below 1e4 and ``%.12e`` of 0 and of magnitudes
    from 1e-10 to below 1e13, the range of the angles, dB and pressures
    that pattern files hold.  A number outside it, not finite, within its
    rounding error of a tie or rounding up to a power of ten is formatted
    by Python's ``%`` alone, about ten times slower; that is 0.14-0.26 % of
    the value cells of the files ``simulate`` writes.
    """
    angles = []
    for degs in (theta_deg, phi_deg):
        words = np.zeros((degs.size, 4), dtype=np.uint32)
        angles.append((degs, words, _fixed_words(degs, words, 0)))
    yield header
    rows = theta_deg.size * phi_deg.size
    for start in range(0, rows, _BLOCK_ROWS):
        yield _pattern_block(angles, start, columns(start, min(start + _BLOCK_ROWS, rows)))


def _pattern_block(angles, start, values) -> bytes:
    """_pattern_rows of the block of rows from row ``start`` on."""
    # each row's indices into the polar and the azimuthal angles
    index = divmod(np.arange(start, start + values.shape[1]), angles[1][0].size)
    cells = [(_fixed_words, 4) if fmt == "%.6f" else (_exponent_words, 6)
             for fmt in _PATTERN_FORMATS]
    starts = np.cumsum([0] + [size for _, size in cells]).tolist()
    width = starts.pop()
    words = np.zeros((values.shape[1], width), dtype=np.uint32)
    exact = np.empty((len(cells), values.shape[1]), dtype=bool)
    for c, ((_, angle_words, angle_exact), i) in enumerate(zip(angles, index)):
        words[:, starts[c]:starts[c] + 4] = angle_words.take(i, axis=0)
        exact[c] = angle_exact.take(i)
    for c, column in enumerate(values, len(angles)):
        exact[c] = cells[c][0](column, words, starts[c])
    words.view(np.uint8)[:, -1] = ord("\n")  # the last byte of each cell is its separator
    flat, pieces, done = words.ravel(), [], 0
    for row, c in zip(*(i.tolist() for i in np.nonzero(~exact.T))):  # in file order
        at = row * width + starts[c]
        value = angles[c][0][index[c][row]] if c < len(angles) else values[c - len(angles), row]
        text = _PATTERN_FORMATS[c] % value + ("," if c < len(cells) - 1 else "\n")
        pieces += [flat[done:at], text.encode()]
        done = at + cells[c][1]
    pieces.append(flat[done:])
    return b"".join(pieces).translate(None, b"\0")


@cache
def _digit_words() -> np.ndarray:
    """ASCII words as uint32s: entry i < 10 000 is i as four digits, entry
    10 000 + i the same with its leading zeros as 0 bytes (the last digit
    kept).  Built on first use, so importing the CLI does not pay for it."""
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    # row i holds the four digits of i: the first meshgrid axis varies slowest
    digits = np.stack(np.meshgrid(*[ascii_digits] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    leading = np.logical_and.accumulate(digits[:, :3] == ord("0"), axis=1)
    stripped = digits.copy()
    stripped[:, :3] *= ~leading
    table = np.concatenate([digits, stripped]).view(np.uint32).ravel()
    table.flags.writeable = False
    return table


def _fixed_words(v, words, j):
    """Write each v as ``%.6f`` and a separator into words[:, j:j + 4], a
    zeroed run, as [sign, 0, 0, 0] [4 digits] [".", 3 digits] [3 digits, ","]
    with the integer part's leading zeros deleted; return where that is
    exact, and elsewhere the cell must be formatted by %.  It is exact for
    |v| < 1e4 that does not round up to 1e4 and is not a near-tie: v * 1e6
    has one rounding."""
    a = np.abs(v)
    s = np.where(a < 1e4, a, 0.0) * 1e6  # 0 for inf and NaN too
    n = np.rint(s)
    exact = (a < 1e4) & (n < 1e10) & (np.abs(s - np.floor(s) - 0.5) > s * _TIE_MARGIN)
    whole, frac = np.divmod(np.where(exact, n, 0.0).astype(np.int64), 10**6)
    table = _digit_words()
    words[:, j + 1] = table[10000 + whole]
    words[:, j + 2] = table[frac // 1000]
    words[:, j + 3] = table[frac % 1000 * 10]
    cell = words.view(np.uint8)[:, 4 * j:4 * j + 16]
    cell[:, 0] = np.signbit(v) * ord("-")
    cell[:, 8] = ord(".")
    cell[:, 15] = ord(",")
    return exact


def _exponent_words(v, words, j):
    """Write each v as ``%.12e`` and a separator into words[:, j:j + 6], a
    zeroed run, as [sign, 0, digit, "."] [4 digits] x 3 ["e", sign, 0, 0]
    [0, 2 digits, ","]; return where that is exact, and elsewhere the cell
    must be formatted by %.  It is exact for v = 0, and for a v whose
    exponent e lies in [-10, 12], whose mantissa |v| * 10**(12 - e), one
    multiply by an exact power of ten, is not a near-tie, and that does not
    round up to the next exponent (9.9999999999995e+k)."""
    a = np.abs(v)
    nonzero, finite = a > 0, np.isfinite(a)
    x = np.where(nonzero & finite, a, 1.0)
    e = np.floor(np.log10(x)).astype(np.int64)
    s = x * _EXACT_POWERS.take(12 - e, mode="clip")
    # log10 may miss the exponent by one next to a power of ten
    miss = (s < 1e12) | (s >= 1e13)
    e[miss] += np.where(s[miss] < 1e12, -1, 1)
    s[miss] = x[miss] * _EXACT_POWERS.take(12 - e[miss], mode="clip")
    m = np.rint(s)
    exact = (finite & (-10 <= e) & (e <= 12) & (m < 1e13)
             & (np.abs(s - np.floor(s) - 0.5) > s * _TIE_MARGIN))
    lead, rest = np.divmod(np.where(exact, m, 0.0).astype(np.int64) * nonzero, 10**12)
    e *= nonzero
    table = _digit_words()
    words[:, j + 1] = table[rest // 10**8]
    words[:, j + 2] = table[rest // 10**4 % 10**4]
    words[:, j + 3] = table[rest % 10**4]
    words[:, j + 5] = table[np.abs(e) * 10]
    cell = words.view(np.uint8)[:, 4 * j:4 * j + 24]
    cell[:, 0] = np.signbit(v) * ord("-")
    cell[:, 2] = lead + ord("0")
    cell[:, 3] = ord(".")
    cell[:, 16] = ord("e")
    cell[:, 17] = np.where(e < 0, ord("-"), ord("+"))
    cell[:, 20] = 0  # the exponent's hundreds digit
    cell[:, 23] = ord(",")
    return exact


# ---------------------------------------------------------------------------
# commands


class _Parser(argparse.ArgumentParser):
    """Its errors leave through main's exit-2 path; its subcommands' parsers are _Parsers."""

    def error(self, message):
        raise ValueError(message)


def _checked(convert, valid, expected: str):
    """An argparse type: the value convert(text), rejected unless valid(value)."""
    def parse(text: str):
        try:
            if valid(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {reprlib.repr(text)}")
    return parse


_natural = _checked(int, lambda v: v >= 0, "an integer >= 0")
_finite_positive = _checked(float, lambda v: 0 < v < np.inf, "a finite positive number")
_PARSER = _Parser(prog="sphbeam", allow_abbrev=False,  # --meth is not --method
                  description="Model-based beamforming for spherical loudspeaker arrays.")
_COMMANDS = _PARSER.add_subparsers(dest="command", required=True)
_DEFAULT = " (default: %(default)s)"
_GEOMETRY = ("--geometry", dict(default="dodecahedron", help="JSON file or builtin" + _DEFAULT))
_OUT = ("--out", dict(type=Path, default=Path("."), help="Output directory" + _DEFAULT))
_RADIUS = ("--radius", dict(type=_finite_positive, default=0.57,
                            help="Analysis radius in m, with --near-field" + _DEFAULT))
_LOOK = ("--look", dict(default="0,0", help="Look direction THETA,PHI in degrees" + _DEFAULT))
_NEAR_FIELD = ("--near-field", dict(action="store_true", help="Compensate steering for --radius"))


def _command(name, *arguments):
    """Register a command function under name, with its arguments as (flags...,
    add_argument keywords) tuples; main calls it with the parsed values as keywords."""
    def register(fn):
        sub = _COMMANDS.add_parser(name, help=fn.__doc__.split(".")[0], description=fn.__doc__,
                                   allow_abbrev=False)
        for *flags, kwargs in arguments:
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(command=fn)
        return fn
    return register


def main(argv=None, standalone_mode=True) -> int:
    """Run the command line argv (default sys.argv[1:]) and return 0.  Bad
    input exits 2 and a numerical failure 3, each after one line ``Error:
    <message>`` on stderr; with standalone_mode false the error is raised.

    A library ArithmeticError or ValueError naming a geometry field (``r0:``
    out of range or overflowing k r0, ``alpha:`` out of range or a
    vanishing cap gain, ``cap_dirs:`` for a rank-deficient cap layout) is
    renamed for the spec's field, ``geometry.r0``, ``geometry.alpha`` or
    ``geometry.caps_deg`` (``r0_m`` in steer and metrics, which read r0 from
    the modal file), and raised as the same class from the library's error."""
    try:
        args = vars(_PARSER.parse_args(argv))
        fields = _GEOMETRY_FIELDS if "geometry" in args else {"r0": "r0_m"}
        # an overflow is reported once, by the check that rejects its result
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                args.pop("command")(**args)
            except (ArithmeticError, ValueError) as exc:
                field, _, rest = str(exc).partition(": ")
                if field not in fields:
                    raise
                raise type(exc)(f"{fields[field]}: {rest}") from exc
    except (ArithmeticError, ValueError, KeyError) as exc:
        if not standalone_mode:
            raise
        # LinAlgError subclasses ValueError
        numerical = isinstance(exc, (ArithmeticError, np.linalg.LinAlgError))
        print(f"Error: {'numerical failure' if numerical else 'config error'}: {exc}",
              file=sys.stderr)
        sys.exit(3 if numerical else 2)
    return 0


# library ArrayGeometry field -> the geometry spec's field that sets it
_GEOMETRY_FIELDS = {"r0": "geometry.r0", "alpha": "geometry.alpha",
                    "cap_dirs": "geometry.caps_deg"}


@_command("design", _GEOMETRY,
          ("--method", dict(choices=designs.METHODS, required=True)),
          ("--order", "-N", dict(type=_natural, required=True, help="Design order N")),
          ("--freq", dict(required=True, help="Frequency list in Hz, comma separated")),
          _LOOK,
          ("--sidelobe", dict(type=_finite_positive, help="Sidelobe level in dB "
                                                          "(dolph-chebyshev)")),
          _NEAR_FIELD, _RADIUS, _OUT)
def cmd_design(geometry, method, order, freq, look, sidelobe, near_field, radius, out):
    """Design modal weights, steer, synthesize unit weights, and report metrics."""
    geom, geom_doc = load_geometry(geometry)
    look_rad = parse_look(look)
    freqs = parse_freqs(freq)
    cfg = {
        "command": "design", "geometry": geom_doc, "method": method, "order": order,
        "frequencies_hz": freqs, "look_deg": np.rad2deg(look_rad).tolist(), "sidelobe_db": sidelobe,
        "near_field": near_field, "radius_m": radius,
        "medium": {"rho0": RHO0, "c": C},
    }
    cfg_hash = _config_hash(cfg)
    nf_radius = radius if near_field else None
    fs = np.asarray(freqs)
    ks = 2 * np.pi * fs / C
    sw = designs.sweep(geom, method, order, ks, look_rad, sidelobe, nf_radius)
    rows = len(freqs)
    layouts = (
        JsonLayout("modal_weights", cfg_hash, {
            "method": method, "order": order, "frequency_hz": fs, "k_per_m": ks,
            "r0_m": geom.r0, "d": sw.d.astype(complex),
        }, rows),
        steered_layout(cfg_hash, fs, ks, cfg["look_deg"], nf_radius, order, sw.w_nm, rows),
        unit_layout(cfg_hash, fs, sw.w, rows),
        JsonLayout("metrics", cfg_hash,
                   {"frequency_hz": fs, "k_per_m": ks, "r0_m": geom.r0, **sw.report}, rows),
    )
    tags = [f"{f:g}Hz" for f in freqs]
    for i, tag in enumerate(tags):
        for layout in layouts:
            write_json(f"{out}/{layout.kind}_{tag}.json", layout, i)
    lines = zip(tags, *(sw.report[key].tolist() for key in ("q", "di_db", "wng", "wng_db")))
    print("\n".join(f"{tag}: Q={q:.6g} DI={di_db:.4f} dB WNG={wng:.6g} ({wng_db:.4f} dB)"
                    for tag, q, di_db, wng, wng_db in lines))


@_command("steer", ("weights_file", dict(type=Path)),
          ("--look", dict(required=True, help="Look direction THETA,PHI in degrees")),
          _NEAR_FIELD, _RADIUS, _OUT)
def cmd_steer(weights_file, look, near_field, radius, out):
    """Steer modal weights from a design file to a new look direction."""
    look_rad = parse_look(look)
    d, k, f, r0, source = read_modal(weights_file)
    nf_radius = radius if near_field else None
    w_nm = synthesis.steer(d, look_rad, k, r0, nf_radius)
    cfg = {"command": "steer", "source": source,
           "look_deg": np.rad2deg(look_rad).tolist(), "near_field": near_field, "radius_m": radius}
    layout = steered_layout(_config_hash(cfg), f, k, cfg["look_deg"], nf_radius, d.size - 1,
                            w_nm)
    write_json(out / f"steered_weights_{f:g}Hz.json", layout)
    print(f"steered order-{d.size - 1} weights to look {look} deg")


@_command("synthesize", ("steered_file", dict(type=Path)), _GEOMETRY, _OUT)
def cmd_synthesize(steered_file, geometry, out):
    """Compute per-loudspeaker weights from steered coefficients."""
    geom, geom_doc = load_geometry(geometry)
    w_nm, order, f, source = read_steered(steered_file)
    w = synthesis.unit_weights(w_nm, synthesis.build_transform(geom, order))
    cfg = {"command": "synthesize", "geometry": geom_doc, "source": source}
    layout = unit_layout(_config_hash(cfg), f, w)
    write_json(out / f"unit_weights_{f:g}Hz.json", layout)
    print(f"synthesized {geom.num_caps} unit weights")


@_command("metrics", ("weights_file", dict(type=Path)), _OUT,
          ("--format", dict(dest="fmt", choices=["json", "csv"], default="json",
                            help="Output file format" + _DEFAULT)))
def cmd_metrics(weights_file, out, fmt):
    """Directivity factor/index and WNG of a modal weights file."""
    d, k, f, r0, source = read_modal(weights_file)
    rep = metricsmod.report(d, k, r0)
    bad = [name for name, value in rep.items() if not np.isfinite(value)]
    if bad:
        raise ArithmeticError(f"d: these modal weights give a non-finite {bad[0]} "
                              f"at k_per_m = {k:g}")
    cfg = {"command": "metrics", "source": source}
    cfg_hash = _config_hash(cfg)
    path = out / f"metrics_{f:g}Hz.{fmt}"
    doc = {"frequency_hz": f, "k_per_m": k, "r0_m": r0, **rep, "unit_weight_norm": None}
    if fmt == "json":
        write_json(path, JsonLayout("metrics", cfg_hash, doc))
    else:
        keys = sorted(doc)
        lines = [f"# config_hash: {cfg_hash}", ",".join(keys),
                 ",".join("" if doc[k] is None else f"{doc[k]:.12g}" for k in keys)]
        _write(path, (("\n".join(lines) + "\n").encode(),))
    print(f"Q={rep['q']:.6g} DI={rep['di_db']:.4f} dB WNG={rep['wng']:.6g}")


@_command("grid", ("--analysis-order", dict(type=_natural, required=True)),
          ("--radius", dict(type=_finite_positive, required=True, help="Grid radius in m")),
          _OUT)
def cmd_grid(analysis_order, radius, out):
    """Export a Gaussian sampling grid (directions and quadrature weights)."""
    grid = virtualmeas.gaussian_grid(analysis_order, radius)
    cfg = {"command": "grid", "analysis_order": analysis_order, "radius_m": radius}
    layout = JsonLayout("sampling_grid", _config_hash(cfg), {
        "analysis_order": analysis_order, "radius_m": radius, "num_points": grid.num_points,
        "theta_deg": np.repeat(np.rad2deg(grid.theta), grid.phi.size),
        "phi_deg": np.tile(np.rad2deg(grid.phi), grid.theta.size), "weights_sr": grid.weights,
    })
    write_json(out / f"grid_N{analysis_order}.json", layout)
    print(f"wrote {grid.num_points}-point Gaussian grid of order {analysis_order}")


@_command("simulate", ("modal_file", dict(type=Path)), ("unit_file", dict(type=Path)),
          _GEOMETRY, ("--analysis-order", dict(type=_natural, default=10,
                                               help="Microphone grid order" + _DEFAULT)),
          ("--radius", dict(type=_finite_positive, default=0.57,
                            help="Virtual microphone radius in m" + _DEFAULT)),
          _LOOK,
          ("--perturb", dict(default="", help="Perturbation spec, e.g. "
                                              "'gain_db=0.5,phase_deg=2,noise=1e-4,seed=1'")),
          _OUT)
def cmd_simulate(modal_file, unit_file, geometry, analysis_order, radius, look, perturb, out):
    """Virtually measure a synthesized design at the --look it was steered to,
    and export designed and measured balloon grids and cross-sections."""
    geom, geom_doc = load_geometry(geometry)
    d, k, f, r0_m, source = read_modal(modal_file)
    if r0_m != geom.r0:
        raise ValueError(f"r0_m: the modal file is for a sphere of radius {r0_m!r} m, "
                         f"the geometry has r0 = {geom.r0!r} m")
    w, unit_f = read_unit(unit_file)
    if f != unit_f:
        raise ValueError(f"frequency_hz: the modal file is for {f!r} Hz, "
                         f"the unit file for {unit_f!r} Hz")
    look_rad = parse_look(look)
    perturbation = parse_perturb(perturb)

    cfg = {"command": "simulate", "geometry": geom_doc, "source": source,
           "analysis_order": analysis_order, "radius_m": radius,
           "look_deg": np.rad2deg(look_rad).tolist(), "perturb": perturbation}
    cfg_hash = _config_hash(cfg)
    tag = f"{f:g}Hz"
    sim = virtualmeas.simulate(geom, d, w, k, look_rad, analysis_order, radius, perturbation)
    report = JsonLayout("simulation_report", cfg_hash, {
        "frequency_hz": f, "analysis_order": analysis_order, "radius_m": radius, **sim.report})
    for stem, pattern in sim.patterns.items():
        write_pattern_csv(out / f"{stem}_{tag}.csv", cfg_hash, *pattern)
    write_json(out / f"simulation_{tag}.json", report)
    print(f"{tag}: pattern_error={sim.report['pattern_error']:.3e}")


if __name__ == "__main__":
    sys.exit(main())
