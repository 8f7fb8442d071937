"""JsonLayout against its oracle, json.dumps(doc, sort_keys=True, indent=2)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphbeam.cli import JsonLayout, write_json

FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]))
TEXT = st.text(st.one_of(st.sampled_from('%"\\é€'), st.characters()), max_size=6)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT)


@st.composite
def arrays(draw, rows):
    """A float or complex array with a leading axis of ``rows`` (if given),
    possibly broadcast along it like a frequency-independent design."""
    lead = () if rows is None else (rows,)
    shape = lead + tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    is_complex = draw(st.booleans())
    size = int(np.prod(shape)) * (2 if is_complex else 1)
    data = np.array(draw(st.lists(FLOATS, min_size=size, max_size=size)), dtype=float)
    array = data.view(complex).reshape(shape) if is_complex else data.reshape(shape)
    if rows is not None and draw(st.booleans()):
        array = np.broadcast_to(array[:1], shape)
    return array


def documents(rows):
    leaves = st.one_of(SCALARS, arrays(rows))
    values = st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(TEXT, inner, max_size=3)), max_leaves=8)
    return st.dictionaries(TEXT, values, max_size=5)


def _row(value, i):
    """The document's plain-JSON value at row i (all of it when i is None)."""
    if isinstance(value, np.ndarray):
        value = value if i is None else value[i]
        if np.iscomplexobj(value):
            value = np.stack([value.real, value.imag], axis=-1)
        return value.tolist()
    if isinstance(value, dict):
        return {k: _row(v, i) for k, v in value.items()}
    if isinstance(value, list):
        return [_row(v, i) for v in value]
    return value


@settings(max_examples=300, deadline=None)
@given(rows=st.sampled_from([None, 1, 2, 3]), data=st.data())
def test_rows_match_json_dumps(rows, data):
    kind, cfg_hash = data.draw(TEXT), data.draw(TEXT)
    payload = data.draw(documents(rows))
    layout = JsonLayout(kind, cfg_hash, payload, rows)
    assert len(layout.values) == (rows or 1)
    for i, values in enumerate(layout.values.tolist()):
        doc = {"kind": kind, "config_hash": cfg_hash, **_row(payload, None if rows is None else i)}
        expected = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
        assert layout.template % tuple(values) == expected


@pytest.mark.parametrize("kind, cfg_hash, payload", [
    ("", "\udfff", {}),  # a hypothesis find: U+DFFF was once the slot sentinel
    ("NaN", " NaN", {"NaN": ["NaN\n", " NaN,\n"], " NaN": np.array([[1.5, -0.0]])}),
])
def test_strings_like_a_slot_stay_constants(kind, cfg_hash, payload):
    layout = JsonLayout(kind, cfg_hash, payload)
    doc = {"kind": kind, "config_hash": cfg_hash, **_row(payload, None)}
    expected = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert layout.template % tuple(layout.values[0].tolist()) == expected


def test_write_json_writes_the_filled_row(tmp_path):
    w = np.array([[1.5 - 0.0j, -0.0 + 2j], [3.0 + 4j, 5e-324 - 1j]])
    layout = JsonLayout("unit_weights", "%s", {"frequency_hz": np.array([400.0, 733.3]),
                                               "num_caps": 2, "w": w}, rows=2)
    write_json(tmp_path / "b.json", layout, 1)
    doc = {"kind": "unit_weights", "config_hash": "%s", "frequency_hz": 733.3, "num_caps": 2,
           "w": [[3.0, 4.0], [5e-324, -1.0]]}
    assert (tmp_path / "b.json").read_text() == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(rows=st.sampled_from([None, 1, 3]), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       data=st.data())
def test_non_finite_slot_raises(rows, bad, data):
    array = data.draw(arrays(rows).filter(lambda a: a.size > 0))
    array = np.array(array, order="C")
    floats = array.reshape(-1).view(float)
    floats[data.draw(st.integers(0, floats.size - 1))] = bad
    with pytest.raises(ArithmeticError, match=r"^metrics\.q: non-finite"):
        JsonLayout("metrics", "0", {"order": 2, "q": array}, rows)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_constant_raises(bad):
    with pytest.raises(ArithmeticError, match=r"^metrics\.look_deg: non-finite"):
        JsonLayout("metrics", "0", {"look_deg": [0.0, bad]})
