"""Every report of three tiny CLI runs against the committed goldens.

tests/golden/make.py defines the runs (a forced 2D simulate, diagnose
with every section on its snapshots, a 3D two-rung sweep) and rewrites
the goldens.  Here they are rerun in a temporary directory and compared
with the committed reports: the same report files, the same JSON keys,
structure and strings (the embedded config text and its sha256
included), the same CSV headers and text cells, and floats within 1e-13
relative.  A cancellation quantity, which is round-off of a much larger
sum, is compared against its stated scale instead: the ledger residual
against E(0), a weak-form residual row against its gross mass, the
*_max_rel ratios (already divided by their gross scale) against 1, and
admissibility's max_residual against its tolerance.  Byte identity of
reruns on one machine is checked by the rerun tests of test_cli.py.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_make", GOLDEN / "make.py")
make = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make)

REL = 1e-13

def _close(got: float, want: float, scale: float = 0.0) -> bool:
    return abs(got - want) <= REL * max(abs(want), scale)


def _json_scale(path, doc) -> float:
    """The stated scale of the float at path, 0 for a plain value."""
    *parent, key = path
    node = doc
    for k in parent:
        node = node[k]
    if key == "ledger_residual":
        return node["initial"]
    if key == "max_residual":
        return node["tol"]
    if isinstance(key, str) and key.endswith("_rel"):
        return 1.0
    return 0.0


def _csv_scale(col, header, row, first) -> float:
    """The stated scale of a CSV cell, 0 for a plain value."""
    if col == "ledger_residual":
        return float(first[header.index("total_energy")])  # E(0)
    if col in ("residual", "euler", "viscous"):
        return float(row[header.index("gross")])
    return 0.0


def _compare_json(got, want, path, doc, problems):
    where = "/".join(map(str, path)) or "<root>"
    if isinstance(want, float) and isinstance(got, float):
        if not _close(got, want, _json_scale(path, doc)):
            problems.append(f"{where}: {got!r} != {want!r}")
    elif type(got) is not type(want):
        problems.append(f"{where}: {type(got).__name__} != {type(want).__name__}")
    elif isinstance(want, dict):
        if sorted(got) != sorted(want):
            problems.append(f"{where}: keys {sorted(got)} != {sorted(want)}")
        else:
            for k in want:
                _compare_json(got[k], want[k], path + (k,), doc, problems)
    elif isinstance(want, list):
        if len(got) != len(want):
            problems.append(f"{where}: length {len(got)} != {len(want)}")
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                _compare_json(g, w, path + (i,), doc, problems)
    elif got != want:
        problems.append(f"{where}: {got!r} != {want!r}")


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _compare_csv(got_text, want_text, problems):
    got = [line.split(",") for line in got_text.splitlines()]
    want = [line.split(",") for line in want_text.splitlines()]
    if got[0] != want[0] or len(got) != len(want):
        problems.append(f"header {got[0]} != {want[0]} or {len(got)} != {len(want)} lines")
        return
    header = want[0]
    for r, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(g_row) != len(w_row):
            problems.append(f"line {r}: {len(g_row)} cells != {len(w_row)}")
            continue
        for col, g, w in zip(header, g_row, w_row):
            gv, wv = _number(g), _number(w)
            if gv is None or wv is None:
                if g != w:
                    problems.append(f"line {r} {col}: {g!r} != {w!r}")
                continue
            if not _close(gv, wv, _csv_scale(col, header, w_row, want[1])):
                problems.append(f"line {r} {col}: {g} != {w}")


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    make.generate(root)
    return root


@pytest.mark.parametrize("run", make.RUNS)
def test_reports_match_the_goldens(fresh, run):
    assert make.reports(fresh / run) == make.reports(GOLDEN / run)
    problems = []
    for name in make.reports(GOLDEN / run):
        got, want = fresh / run / name, GOLDEN / run / name
        found = []
        if name.endswith(".json"):
            doc = json.loads(want.read_text())
            _compare_json(json.loads(got.read_text()), doc, (), doc, found)
        elif name.endswith(".csv"):
            _compare_csv(got.read_text(), want.read_text(), found)
        else:
            g, w = np.load(got), np.load(want)
            if g.dtype != w.dtype or g.shape != w.shape:
                found.append(f"{g.dtype}{g.shape} != {w.dtype}{w.shape}")
            elif not np.all(np.abs(g - w) <= REL * np.abs(w)):
                found.append(f"max difference {float(np.max(np.abs(g - w)))}")
        problems.extend(f"{name}: {p}" for p in found)
    assert problems == []

