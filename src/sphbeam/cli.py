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
built-in SHA-256 so that the CLI does not load OpenSSL (``simulate
--perturb`` still does, through numpy.random).  An existing output file is
overwritten in place and cut to length.  Results are computed and checked
before any file is opened, but an I/O error can leave a pattern CSV partly
written.

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
    'dodecahedron' / 'dodecahedron:r0=0.15,alpha=0.3'.  Every error names
    its field as geometry.<field>."""
    if spec.split(":")[0] == "dodecahedron":
        params = {"r0": DEFAULT_R0, "alpha": DEFAULT_ALPHA}
        if ":" in spec:
            for item in spec.split(":", 1)[1].split(","):
                key, _, val = item.partition("=")
                if key not in params:
                    raise ValueError(f"geometry: unknown dodecahedron parameter {key!r}")
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
    try:
        return build(**params), doc
    except ValueError as exc:  # an r0 or alpha out of range, named by ArrayGeometry
        raise ValueError(f"geometry.{exc}") from exc


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
    **payload}`` laid out once by ``json.dumps(skeleton, sort_keys=True,
    indent=2)`` as a ``%`` template filled per row.

    Float or complex ndarrays in ``payload`` vary per row: with ``rows``
    given their first axis indexes the rows, without it there is one row.
    In the skeleton each of their numbers is a slot sentinel (a complex one
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
        self.template = text.replace(f" {json.dumps(_SLOT)}", " %r") + "\n"
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


# json.dumps writes this lone surrogate as "\udfff".  After a space (the indent or
# ": ") that token opens a string, and only a string equal to U+DFFF encodes to it;
# no payload string (kind names, hex hashes, --method choices) is one.
_SLOT = "\udfff"


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
    cut to length: the only place an output file is opened.

    Each chunk is written as the iterable yields it, so a file need not be
    held in memory whole.  The open does not truncate: on ext4, truncating
    an existing file makes close() start writing it back synchronously,
    which cost most of a many-file design.  The write is not atomic; a
    failure part way can leave the new head over the old tail.  An OSError
    becomes a ValueError naming ``out`` and the path.
    """
    try:
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
        raise _unwritable(path, exc) from exc


def _unwritable(path, exc: OSError) -> ValueError:
    return ValueError(f"out: cannot write {path}: {exc.strerror}")


def _make_out(out: Path):
    """Create the output directory, or ValueError naming ``out``."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _unwritable(out, exc) from exc


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


def read_modal(path: Path, r0: float):
    """Modal weights file designed for a sphere of radius r0 -> (complex
    (N+1,) d, k_per_m, frequency_hz, config_hash).  d must not be all zero,
    and k_per_m must be 2 pi frequency_hz / c to 1e-12 relative."""
    data = read_json(path, "modal_weights")
    d = _l2c(data.get("d"), "d")
    if not np.any(d):
        raise ValueError("d: the modal weights are all zero")
    if _field(data, "order") != d.size - 1:
        raise ValueError(f"order: expected len(d) - 1 = {d.size - 1}, got {data['order']}")
    r0_m = _field(data, "r0_m")
    if r0_m != r0:
        raise ValueError(f"r0_m: the modal file is for a sphere of radius {reprlib.repr(r0_m)} m, "
                         f"the geometry has r0 = {r0!r} m")
    k, f = _field(data, "k_per_m"), _field(data, "frequency_hz")
    k_f = 2 * np.pi * f / C
    if not abs(k - k_f) <= 1e-12 * k_f < np.inf:
        raise ValueError(f"k_per_m: expected 2 pi frequency_hz / c = {k_f!r} 1/m, "
                         f"got {reprlib.repr(k)}")
    return d, k, f, _field(data, "config_hash")


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
_BLOCK_ROWS = 4096  # rows rendered at a time: a word grid of about 0.5 MB
_TIE_MARGIN = 2.0**-51  # relative: twice the error of a value scaled with two roundings


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
    scaled to an integer with exact powers of ten; one whose scaled value
    lies within its rounding error of a tie, is not finite or is out of the
    scaling range is formatted by Python's ``%`` alone.
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
    """Write each v as ``%.6f`` and a separator into words[:, j:j + 4], as
    [sign, 3 digits] [4 digits] [".", 3 digits] [3 digits, ","] with the
    integer part's leading zeros deleted; return where that is exact, and
    elsewhere the cell must be formatted by %."""
    a = np.abs(v)
    exact = a < 1e7  # false for inf and NaN
    s = np.where(exact, a, 0.0) * 1e6
    n = np.rint(s).astype(np.int64)
    exact &= (n < 10**13) & (np.abs(s - np.floor(s) - 0.5) > s * _TIE_MARGIN)
    whole, frac = np.divmod(n, 10**6)
    high, low = np.divmod(whole, 10**4)
    table = _digit_words()
    words[:, j] = table[10000 + high] * (high > 0)
    words[:, j + 1] = table[low + 10000 * (high == 0)]
    words[:, j + 2] = table[frac // 1000]
    words[:, j + 3] = table[frac % 1000 * 10]
    cell = words.view(np.uint8)[:, 4 * j:4 * j + 16]
    cell[:, 0] = np.signbit(v) * ord("-")
    cell[:, 8] = ord(".")
    cell[:, 15] = ord(",")
    return exact


def _exponent_words(v, words, j):
    """Write each v as ``%.12e`` and a separator into words[:, j:j + 6], as
    [sign, 0, digit, "."] [4 digits] x 3 ["e", sign, 0, 0] [3 digits, ","]
    with a zero hundreds digit of the exponent deleted; return where that is
    exact, and elsewhere the cell must be formatted by %."""
    a = np.abs(v)
    nonzero, finite = a > 0, np.isfinite(a)
    x = np.where(nonzero & finite, a, 1.0)
    e = np.floor(np.log10(x)).astype(np.int64)
    s = _scaled(x, 12 - e)
    # log10 may miss the exponent by one next to a power of ten
    miss = (s < 1e12) | (s >= 1e13)
    e[miss] += np.where(s[miss] < 1e12, -1, 1)
    s[miss] = _scaled(x[miss], 12 - e[miss])
    exact = finite & (np.abs(12 - e) <= 44) & (np.abs(s - np.floor(s) - 0.5) > s * _TIE_MARGIN)
    m = np.rint(np.where(exact, s, 0.0)).astype(np.int64) * nonzero
    carry = m == 10**13  # 9.9999999999995e+k rounds up to 1.000000000000e+(k+1)
    m[carry] = 10**12
    e = (e + carry) * nonzero
    lead, rest = np.divmod(m, 10**12)
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
    cell[:, 20] *= np.abs(e) >= 100
    cell[:, 23] = ord(",")
    return exact


@cache
def _powers_of_ten() -> np.ndarray:
    """A (4, 89) array whose column p + 44 holds a, b, c, d with 10**p =
    a * b / c / d for p in [-44, 44], each a power of ten up to 1e22 and so
    an exact float.  Built on first use."""
    columns = []
    for p in range(-44, 45):
        up, down = max(p, 0), max(-p, 0)
        columns.append([float(10**k) for k in (min(up, 22), up - min(up, 22),
                                               min(down, 22), down - min(down, 22))])
    table = np.array(columns).T
    table.flags.writeable = False
    return table


def _scaled(x, p):
    """x * 10**p for p in [-44, 44] (clipped to it) by products and
    quotients of exact powers of ten: at most two roundings."""
    a, b, c, d = _powers_of_ten().take(p + 44, axis=1, mode="clip")
    return x * a * b / c / d


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

    A library ArithmeticError naming a geometry field (``cap_dirs:`` for a
    rank-deficient cap layout, ``alpha:`` for a vanishing cap gain) is
    renamed for the spec's field, ``geometry.caps_deg`` or
    ``geometry.alpha``, and raised from the library's error."""
    try:
        args = vars(_PARSER.parse_args(argv))
        # an overflow is reported once, by the check that rejects its result
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                args.pop("command")(**args)
            except ArithmeticError as exc:
                field, _, rest = str(exc).partition(": ")
                if field not in _GEOMETRY_FIELDS:
                    raise
                raise ArithmeticError(f"{_GEOMETRY_FIELDS[field]}: {rest}") from exc
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
_GEOMETRY_FIELDS = {"cap_dirs": "geometry.caps_deg", "alpha": "geometry.alpha"}


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
                   _report_doc(sw.report, fs, ks, geom.r0, sw.unit_weight_norm), rows),
    )
    _make_out(out)

    tags = [f"{f:g}Hz" for f in freqs]
    for i, tag in enumerate(tags):
        for layout in layouts:
            write_json(f"{out}/{layout.kind}_{tag}.json", layout, i)
    rep = sw.report
    lines = zip(tags, rep.q.tolist(), rep.di_db.tolist(), rep.wng.tolist(), rep.wng_db.tolist())
    print("\n".join(f"{tag}: Q={q:.6g} DI={di_db:.4f} dB WNG={wng:.6g} ({wng_db:.4f} dB)"
                    for tag, q, di_db, wng, wng_db in lines))


def _report_doc(rep, f, k, r0, unit_weight_norm):
    return {
        "frequency_hz": f, "q": rep.q, "di_db": rep.di_db, "wng": rep.wng,
        "wng_db": rep.wng_db, "k_per_m": k, "r0_m": r0, "unit_weight_norm": unit_weight_norm,
    }


@_command("steer", ("weights_file", dict(type=Path)), _GEOMETRY,
          ("--look", dict(required=True, help="Look direction THETA,PHI in degrees")),
          _NEAR_FIELD, _RADIUS, _OUT)
def cmd_steer(weights_file, geometry, look, near_field, radius, out):
    """Steer modal weights from a design file to a new look direction."""
    geom, geom_doc = load_geometry(geometry)
    look_rad = parse_look(look)
    d, k, f, source = read_modal(weights_file, geom.r0)
    nf_radius = radius if near_field else None
    w_nm = synthesis.steer(d, look_rad, k, geom.r0, nf_radius)
    cfg = {"command": "steer", "geometry": geom_doc, "source": source,
           "look_deg": np.rad2deg(look_rad).tolist(), "near_field": near_field, "radius_m": radius}
    layout = steered_layout(_config_hash(cfg), f, k, cfg["look_deg"], nf_radius, d.size - 1,
                            w_nm)
    _make_out(out)
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
    _make_out(out)
    write_json(out / f"unit_weights_{f:g}Hz.json", layout)
    print(f"synthesized {geom.num_caps} unit weights")


@_command("metrics", ("weights_file", dict(type=Path)), _GEOMETRY, _OUT,
          ("--format", dict(dest="fmt", choices=["json", "csv"], default="json",
                            help="Output file format" + _DEFAULT)))
def cmd_metrics(weights_file, geometry, out, fmt):
    """Directivity factor/index and WNG of a modal weights file."""
    geom, geom_doc = load_geometry(geometry)
    d, k, f, source = read_modal(weights_file, geom.r0)
    rep = metricsmod.report(d, k, geom.r0)
    bad = [name for name, value in vars(rep).items() if not np.isfinite(value)]
    if bad:
        raise ArithmeticError(f"d: these modal weights give a non-finite {bad[0]} "
                              f"at k_per_m = {k:g}")
    cfg = {"command": "metrics", "geometry": geom_doc, "source": source}
    cfg_hash = _config_hash(cfg)
    path = out / f"metrics_{f:g}Hz.{fmt}"
    doc = _report_doc(rep, f, k, geom.r0, None)
    if fmt == "json":
        write = partial(write_json, path, JsonLayout("metrics", cfg_hash, doc))
    else:
        keys = sorted(doc)
        lines = [f"# config_hash: {cfg_hash}", ",".join(keys),
                 ",".join("" if doc[k] is None else f"{doc[k]:.12g}" for k in keys)]
        write = partial(_write, path, (("\n".join(lines) + "\n").encode(),))
    _make_out(out)
    write()
    print(f"Q={rep.q:.6g} DI={rep.di_db:.4f} dB WNG={rep.wng:.6g}")


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
    _make_out(out)
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
    d, k, f, source = read_modal(modal_file, geom.r0)
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
        "frequency_hz": f, "analysis_order": analysis_order,
        "radius_m": radius, "sim_order": sim.sim_order,
        "sim_tail": sim.sim_tail, "pattern_error": sim.pattern_error,
    })

    _make_out(out)
    for name, (theta, phi, designed, measured) in sim.patterns.items():
        write_pattern_csv(out / f"{name}_designed_{tag}.csv", cfg_hash, theta, phi, designed,
                          sim.designed_look)
        write_pattern_csv(out / f"{name}_measured_{tag}.csv", cfg_hash, theta, phi, measured,
                          sim.measured_look)
    write_json(out / f"simulation_{tag}.json", report)
    print(f"{tag}: pattern_error={sim.pattern_error:.3e}")


if __name__ == "__main__":
    sys.exit(main())
