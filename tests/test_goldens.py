"""The shipped scenarios regold to the committed reference goldens.

``tests/goldens`` holds the ``dualband regold scenarios`` output.  A
fresh regold must match it field by field: keys, strings, ints, bools,
nulls and list lengths exactly, and each float within
1e-14 * max(1, |ref|).  A change that moves a golden number further, or
adds or drops a field, rewrites these files in the same commit.
"""

import json
import math
import os

import pytest

from dualband.cli import main

HERE = os.path.dirname(__file__)
SCN_DIR = os.path.join(HERE, "..", "scenarios")
GOLDEN_DIR = os.path.join(HERE, "goldens")
TOL_FLOAT = 1e-14


def mismatches(ref, got, path="$"):
    """Paths where got leaves the reference, each with the reason."""
    if isinstance(ref, float) and isinstance(got, float):
        if ref == got or (math.isnan(ref) and math.isnan(got)):
            return []
        if abs(got - ref) <= TOL_FLOAT * max(1.0, abs(ref)):
            return []
        return [f"{path}: {got!r} against {ref!r}"]
    if type(ref) is not type(got):
        return [f"{path}: {type(got).__name__} against {type(ref).__name__}"]
    if isinstance(ref, dict):
        if sorted(ref) != sorted(got):
            return [f"{path}: keys {sorted(got)} against {sorted(ref)}"]
        return [m for k in ref for m in mismatches(ref[k], got[k],
                                                   f"{path}.{k}")]
    if isinstance(ref, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} against {len(ref)}"]
        return [m for i, (r, g) in enumerate(zip(ref, got))
                for m in mismatches(r, g, f"{path}[{i}]")]
    return [] if ref == got else [f"{path}: {got!r} against {ref!r}"]


class TestComparison:
    @pytest.mark.parametrize("ref, got", [
        (1.0, 1.0 + 5e-15), (1e-20, 9e-15), (250.0, 250.0 + 2e-12),
        ({"a": [1, "x", None, True]}, {"a": [1, "x", None, True]}),
    ])
    def test_admits(self, ref, got):
        assert mismatches(ref, got) == []

    @pytest.mark.parametrize("ref, got", [
        (1.0, 1.0 + 2e-14), (0.0, 2e-14), (250.0, 250.0 + 3e-12),
        (1, 2), (1, 1.0), (True, 1), (None, 0.0), ("a", "b"),
        ([1.0], [1.0, 2.0]), ({"a": 1}, {"b": 1}),
    ])
    def test_refuses(self, ref, got):
        assert mismatches(ref, got)


def test_regold_matches_the_reference(tmp_path):
    assert main(["regold", SCN_DIR, "--out", str(tmp_path)]) == 0
    names = sorted(os.listdir(GOLDEN_DIR))
    assert sorted(os.listdir(tmp_path)) == names
    for name in names:
        with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
            ref = json.load(fh)
        with open(tmp_path / name, encoding="utf-8") as fh:
            got = json.load(fh)
        assert mismatches(ref, got) == [], name
