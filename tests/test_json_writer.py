"""The one JSON writer (case_io.write_json) against its definition: every
float rounded to 12 significant digits, then json.dumps(indent=2)."""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from syncopf.case_io import write_json

DATA = Path(__file__).parent / "data"


def _round_tree(obj):
    if isinstance(obj, float):
        return obj if math.isnan(obj) or math.isinf(obj) else float(f"{obj:.12g}")
    if isinstance(obj, list):
        return [_round_tree(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    return obj


def oracle(doc) -> bytes:
    return (json.dumps(_round_tree(doc), indent=2) + "\n").encode()


EDGE_FLOATS = [
    0.0, 1.0, 3.0, 0.1, 1.0 / 3.0, 2.5e-7, 1e-4, 9.99999999999995e-05, 1.00000000000005e-4,
    123456.7890123456, 99999999999.99, 1e11, 999999999999.4, 999999999999.5, 1e12,
    123456789012345.6, 9.999999999999999e15, 1e16, 1.2345678901234e22,
    sys.float_info.max, sys.float_info.min, 1e-307, 9.9999999999995e-308,
    2.225073858507e-308, 5e-324, 1.5e-323, 4.9406564584124654e-320,
]


@pytest.mark.parametrize("x", EDGE_FLOATS + [-x for x in EDGE_FLOATS])
def test_float_edges(x):
    assert write_json(x) == oracle(x)
    assert write_json([x, {"x": x}]) == oracle([x, {"x": x}])


@pytest.mark.parametrize("x, text", [
    (-0.0, b"-0.0\n"), (float("nan"), b"NaN\n"),
    (math.inf, b"Infinity\n"), (-math.inf, b"-Infinity\n"),
])
def test_special_floats(x, text):
    assert write_json(x) == oracle(x) == text


def test_random_bit_patterns():
    # every exponent alike, subnormals included: a shortcut that wrote the
    # '.12g' string unchecked mismatched on subnormals and on 1e12..1e16
    rng = np.random.default_rng(20260101)
    bits = rng.integers(0, 2**64, size=40_000, dtype=np.uint64)
    tiny = rng.integers(0, 2**53, size=5_000, dtype=np.uint64)  # subnormals and the smallest normals
    values = np.concatenate([bits, tiny]).view(np.float64).tolist()
    assert write_json(values) == oracle(values)


def test_scalars_and_containers():
    doc = {
        "ints": [0, -1, 7, 2**70, -(2**70)],
        "bools": [True, False],
        "none": None,
        "text": ["", "plain", "non-ASCII: éß 中 \U0001f600", "quote \" slash \\ tab \t"],
        "empty": [[], {}, [[]], {"a": {}}],
        "nested": {"a": [1, [2.0, [3.5, {"b": [None, True, "x"]}]]], "cé": -2.5e-9},
        # lists of dicts with one key order share a template: mixed columns,
        # '%' in keys, and the same keys in another order
        "rows": [{"a%s": 1, "b": [1.5], "%": None}, {"a%s": 2.5, "b": {"c": []}, "%": "x"}],
        "reordered": [{"x": 1, "y": 2.0}, {"y": 3.0, "x": 4}],
        "lone": {"%d": 0.5},
    }
    assert write_json(doc) == oracle(doc)
    for top in ([], {}, 0, True, None, "s"):
        assert write_json(top) == oracle(top)


def test_float_subclass_rounds_like_float():
    doc = [np.float64(1.0 / 3.0), np.float64(1e13), np.float64(np.nan)]
    assert write_json(doc) == oracle(doc)


@pytest.mark.parametrize("bad", [(1.0, 2.0), {1: 2.0}, np.int64(3), {1.5}])
def test_unsupported_values_rejected(bad):
    with pytest.raises(TypeError):
        write_json({"x": bad})


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.name)
def test_data_files_reserialize(path):
    raw = path.read_bytes()
    doc = json.loads(raw)
    assert write_json(doc) == oracle(doc)
    if "buses" not in doc:  # every report (the case files are written by other tools)
        assert write_json(doc) == raw


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property tests need hypothesis; the tests above do not
    st = None

if st is not None:
    SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    DOCS = st.recursive(
        SCALARS, lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner), max_leaves=30
    )

    @settings(max_examples=500, derandomize=True, database=None)
    @given(st.floats() | st.floats(min_value=-3e-308, max_value=3e-308)
           | st.floats(min_value=1e11, max_value=1e17))
    def test_float_property(x):
        assert write_json(x) == oracle(x)

    @settings(max_examples=100, derandomize=True, database=None)
    @given(DOCS)
    def test_doc_property(doc):
        assert write_json(doc) == oracle(doc)
