"""Pattern CSVs: the block renderer of cli against the per-row ``%`` template
in oracles, byte for byte, on the meshgrid rows of theta x phi product
grids, and the files that ``simulate`` writes."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import pattern_csv, pattern_rows
from sphbeam import cli, virtualmeas


def _assert_same_text(got, want, *context):
    """got == want.  A mismatch is reported by the two lengths, the first
    differing line's number and both lines: pytest's own diff of two
    multi-megabyte texts can run for minutes."""
    __tracebackhide__ = True
    if got == want:
        return
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    i = next((i for i, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
             min(len(got_lines), len(want_lines)))

    def line(lines):
        return repr(lines[i]) if i < len(lines) else "<no such line>"

    pytest.fail(f"texts differ{''.join(f' {c!r}' for c in context)}: lengths {len(got)} and "
                f"{len(want)}; first at line {i + 1}:\n  got:  {line(got_lines)}\n"
                f"  want: {line(want_lines)}")


def _meshgrid_dirs(theta, phi):
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    return np.column_stack([tt.ravel(), pp.ravel()])


def _assert_rendered(theta, phi, values):
    """The angle factors and the (4, T * P) value columns against the
    template's rows of the full meshgrid."""
    theta, phi, values = (np.asarray(a, dtype=float) for a in (theta, phi, values))
    dirs = _meshgrid_dirs(theta, phi)
    blocks = cli._pattern_rows(b"", theta, phi, lambda start, stop: values[:, start:stop])
    _assert_same_text(b"".join(blocks).decode(), pattern_rows((dirs[:, 0], dirs[:, 1], *values)))


@pytest.mark.parametrize("got, want, line", [
    ("a\nb\nc\n", "a\nB\nc\n", "line 2:\n  got:  'b\\n'\n  want: 'B\\n'"),
    ("a\nb\n", "a\nb", "line 2:\n  got:  'b\\n'\n  want: 'b'"),
    ("a\n", "a\nb\n", "line 2:\n  got:  <no such line>\n  want: 'b\\n'"),
], ids=["changed", "newline", "shorter"])
def test_assert_same_text_names_the_first_differing_line(got, want, line):
    with pytest.raises(pytest.fail.Exception) as info:
        _assert_same_text(got, want, "ctx")
    message = str(info.value)
    assert f"texts differ 'ctx': lengths {len(got)} and {len(want)}; first at " in message
    assert message.endswith(line)
    _assert_same_text(got, got)


def _near_tie(digits, exponent, ulps, negative):
    """The float ``ulps`` steps from the decimal tie ``<digits>5e<exponent>``:
    with 13 digits a tie of %.12e, with exponent -7 one of %.6f."""
    x = float(f"{digits}5e{exponent}")
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, np.copysign(np.inf, ulps)))
    return -x if negative else x


_NEAR_TIES = st.builds(_near_tie, st.integers(0, 10**13 - 1),
                       st.one_of(st.just(-7), st.integers(-50, 50)), st.integers(-3, 3),
                       st.booleans())
_FLOATS = st.one_of(st.floats(width=64), _NEAR_TIES)


@st.composite
def _grids(draw):
    """Angle factors of 0 to 4 values each and their (4, T * P) value columns."""
    theta, phi = (draw(hnp.arrays(np.float64, st.integers(0, 4), elements=_FLOATS))
                  for _ in range(2))
    return theta, phi, draw(hnp.arrays(np.float64, (4, theta.size * phi.size), elements=_FLOATS))


@settings(max_examples=300, deadline=None)
@given(_grids())
def test_rows_match_the_template(grid):
    _assert_rendered(*grid)


_POWERS = [x for k in range(-45, 60) for x in (10.0**k, float(np.nextafter(10.0**k, 0)))]
_FIXED = [
    0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1e-300, 1e300, 1.7e308,
    # 13 nines and a 5 round up to the next exponent
    *(float(f"9.9999999999995e{k}") for k in range(-40, 60)),
    *(9.9999999999995 * 10.0**k for k in range(-40, 60)),
    # exact ties, rounded half to even
    12345678901235.0, 12345678901225.0, 2.5, 0.125, 1e22, 1e23,
    # near-ties of %.12e with exponents outside [-10, 12], so rendered by %
    6.2664664590185e-32, 5.5685028913865e-32, 8.0377616320755e-31, 8.3173511914715e+41,
    4.1927157426355e+41, 2.0397526061215e+41,
    # %.6f, rendered by % from 1e4 on: 1e7 and above, and just below; two last-digit ties
    1e7, 12345678.5, 1e15, 1e300, 9999999.9999995, 9999999.999999499, 0.0000005, 0.0000015,
    # %.6f at 1e4: rounds up to 10000.000000 (by %), a near-tie (by %), and exact below
    9999.9999996, 9999.9999995, 9999.999999499,
    *_POWERS, np.inf, np.nan,
]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_fixed_cases_match_the_template(sign):
    """Each value in every column, so through both formats: as T polar
    angles with P = 1, and as P azimuths with T = 1."""
    fixed = sign * np.array(_FIXED)
    values = np.tile(fixed, (4, 1))
    _assert_rendered(fixed, fixed[:1], values)
    _assert_rendered(fixed[:1], fixed, values)


@pytest.mark.parametrize("theta, phi", [
    ([0.0000005, 0.0000015, 359.9999995, 179.9999985], [-0.0, 0.0, 359.9999995]),
    ([-0.0], [0.0000005, 2.5e-7, 359.9999995, 359.99999949999997, 360.0]),
    ([90.0, np.inf, -np.inf], [np.nan, 1.0]),
], ids=["near-ties", "t1-negative-zero", "non-finite"])
def test_angle_factors_match_the_template(theta, phi):
    """%.6f near-ties, -0.0 and non-finite values in an angle factor: the
    words rendered once per factor, or the % fallback, land in every row."""
    rng = np.random.default_rng(3)
    _assert_rendered(theta, phi, rng.standard_normal((4, len(theta) * len(phi))))


@pytest.mark.parametrize("shift", [-0.5, 0.5])
def test_rows_do_not_rely_on_the_last_bits_of_log10(monkeypatch, shift):
    """The exponent from log10 is corrected by one where the mantissa leaves
    [1e12, 1e13), so a log10 off by up to half a decade changes nothing."""
    log10 = np.log10
    rng = np.random.default_rng(7)
    values = rng.standard_normal((4, 500)) * 10.0 ** rng.integers(-30, 50, (4, 500))
    values = np.hstack([values, np.tile(_FIXED, (4, 1))])
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
    _assert_rendered(rng.uniform(0.0, 180.0, values.shape[1]), [90.0], values)


# azimuths of a 9-row polar grid spanning about 2.5 blocks, so that two block
# edges fall inside a run of azimuths
_PHI_ACROSS_BLOCKS = 5 * cli._BLOCK_ROWS // 18 + 1


def test_rows_across_blocks_match_the_template():
    """9 x _PHI_ACROSS_BLOCKS rows: block edges fall inside a run of azimuths."""
    rng = np.random.default_rng(5)
    theta, phi = rng.uniform(0.0, 180.0, 9), rng.uniform(0.0, 360.0, _PHI_ACROSS_BLOCKS)
    theta[4] = phi[500] = np.nan
    assert 2 * cli._BLOCK_ROWS < theta.size * phi.size < 3 * cli._BLOCK_ROWS
    values = rng.standard_normal((4, theta.size * phi.size))
    values *= 10.0 ** rng.integers(-35, 55, values.shape)
    values[:, ::997] = np.nan
    _assert_rendered(theta, phi, values)


def test_write_pattern_csv_matches_the_template_without_warnings(tmp_path):
    """Non-finite values and angles go through Python's %, and no
    RuntimeWarning is raised outside main's errstate: on a 3 x 2 grid, with
    P = 1, with T = 1 and with non-finite angles."""
    values = np.array([1 + 2j, complex(np.inf, 0), complex(-np.inf, np.nan),
                       complex(np.nan, 1), -0.0 - 1e-320j, 3e-7 + 0j])
    path = tmp_path / "pattern.csv"
    for theta_deg, phi_deg in (([0.0, 90.0, 180.0], [45.0, 359.0]),
                               ([-0.0, 30.0, 45.0, 180.0, 90.0, 1.0], [0.0]),
                               ([90.0], [-0.0, 1.0, 2.0, 359.9999995, 0.0000005, 180.0]),
                               ([np.inf, 45.0], [np.nan, 1.0, 2.0])):
        theta, phi = np.deg2rad(theta_deg), np.deg2rad(phi_deg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cli.write_pattern_csv(path, "abc", theta, phi, values, 0.5 + 0.5j)
            want = pattern_csv("abc", _meshgrid_dirs(theta, phi), values, 0.5 + 0.5j)
        _assert_same_text(path.read_text(), want, theta_deg, phi_deg)
        assert ",inf," in want and ",nan," in want and "-inf" in want


def _balloon(theta_size, phi_size, seed=11):
    """Angle factors in radians and T * P complex values of a product grid."""
    rng = np.random.default_rng(seed)
    theta, phi = np.linspace(0.0, np.pi, theta_size), rng.uniform(0.0, 2 * np.pi, phi_size)
    size = theta_size * phi_size
    return theta, phi, rng.standard_normal(size) + 1j * rng.standard_normal(size)


@pytest.mark.parametrize("extra", [100, 0], ids=["longer", "equal-length"])
def test_write_pattern_csv_overwrites_in_place(tmp_path, extra):
    """A pattern of three blocks written over an existing file leaves
    exactly its own bytes."""
    theta, phi, values = _balloon(9, _PHI_ACROSS_BLOCKS)
    assert 2 * cli._BLOCK_ROWS < values.size < 3 * cli._BLOCK_ROWS
    want = pattern_csv("abc", _meshgrid_dirs(theta, phi), values, 0.5j)
    path = tmp_path / "pattern.csv"
    path.write_text("x" * (len(want) + extra))
    cli.write_pattern_csv(path, "abc", theta, phi, values, 0.5j)
    _assert_same_text(path.read_text(), want)


def _write_peak(path, theta_size, phi_size):
    """The traced peak memory of writing a balloon of theta_size x phi_size,
    first-use tables warmed by a first write."""
    theta, phi, values = _balloon(theta_size, phi_size)
    cli.write_pattern_csv(path, "abc", theta, phi, values, 1.0)
    tracemalloc.start()
    try:
        cli.write_pattern_csv(path, "abc", theta, phi, values, 1.0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_pattern_csv_memory_is_one_block(tmp_path):
    """The file is streamed block by block: writing a 181 x 360 balloon (32
    blocks) takes at most 1.1 times the peak memory of a 91 x 180 one (8
    blocks), where a file rendered whole would take about 4 times."""
    peaks = [_write_peak(tmp_path / "pattern.csv", *size) for size in ((91, 180), (181, 360))]
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_write_pattern_csv_peak_memory(tmp_path):
    """A 91 x 180 balloon is written within 1.3 MB of traced memory: one
    block's word grid of about 0.25 MB and its copies (about 1.0 MB measured,
    2.0 MB with blocks of 4096 rows)."""
    peak = _write_peak(tmp_path / "pattern.csv", 91, 180)
    assert peak <= 1.3e6, peak


@pytest.mark.parametrize("design, perturb", [
    (["--method", "max-di"], ""),
    (["--method", "max-wng", "--near-field"], "gain_db=0.5,phase_deg=2,noise=1e-4,seed=1"),
    (["--method", "dolph-chebyshev", "--sidelobe", "25"], ""),
], ids=["max-di", "max-wng-perturbed", "dolph-chebyshev"])
def test_simulate_writes_the_template_bytes(tmp_path, design, perturb):
    """The four CSVs equal the row-by-row rendering of virtualmeas.simulate's
    patterns, header included, and at most 1 % of their value cells fall
    outside the word renderer's exact path, to be formatted by % (0.14-0.25 %
    measured)."""
    look, order, radius = "90,0", 10, 0.57
    assert cli.main(["design", *design, "--order", "2", "--freq", "400", "--look", look,
                     "--out", str(tmp_path)]) == 0
    modal, unit = tmp_path / "modal_weights_400Hz.json", tmp_path / "unit_weights_400Hz.json"
    assert cli.main(["simulate", str(modal), str(unit), "--look", look,
                     "--analysis-order", str(order), "--radius", str(radius),
                     "--perturb", perturb, "--out", str(tmp_path)]) == 0

    geom, _ = cli.load_geometry("dodecahedron")
    d, k, _, _, _ = cli.read_modal(modal)
    w, _ = cli.read_unit(unit)
    sim = virtualmeas.simulate(geom, d, w, k, cli.parse_look(look), order, radius,
                               cli.parse_perturb(perturb))
    cfg_hash = json.loads((tmp_path / "simulation_400Hz.json").read_text())["config_hash"]
    assert list(sim.patterns) == ["balloon_designed", "balloon_measured",
                                  "cross_section_designed", "cross_section_measured"]
    inexact = cells = 0
    for stem, (theta, phi, values, look_value) in sim.patterns.items():
        text = (tmp_path / f"{stem}_400Hz.csv").read_text()
        _assert_same_text(text, pattern_csv(cfg_hash, _meshgrid_dirs(theta, phi), values,
                                            look_value), stem)
        mags = np.abs(values)
        dbs = 20.0 * np.log10(np.maximum(mags, 1e-300) / abs(look_value))
        for render, column in ((cli._exponent_words, values.real),
                               (cli._exponent_words, values.imag),
                               (cli._exponent_words, mags), (cli._fixed_words, dbs)):
            exact = render(column, np.zeros((column.size, 6), dtype=np.uint32), 0)
            inexact, cells = inexact + np.count_nonzero(~exact), cells + column.size
    assert inexact <= 0.01 * cells, (inexact, cells)
