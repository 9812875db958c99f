"""Every report of four tiny CLI runs against the committed goldens.

tests/golden/make.py defines the runs and the comparison (its module
docstring), and regenerates the goldens.  Here the runs are rerun in a
temporary directory and each report is compared with the committed one,
and a regeneration into a copy of the goldens must rewrite nothing.
"""

import importlib.util
import shutil
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_make", GOLDEN / "make.py")
make = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    make.generate(root)
    return root


@pytest.mark.parametrize("run", make.RUNS)
def test_reports_match_the_goldens(fresh, run):
    assert make.reports(fresh / run) == make.reports(GOLDEN / run)
    problems = [f"{name}: {line}" for name in make.reports(GOLDEN / run)
                for line in make.compare(fresh / run / name, GOLDEN / run / name)]
    assert problems == []


def test_a_regeneration_rewrites_nothing(tmp_path, capsys):
    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN, copy, ignore=shutil.ignore_patterns("*.py", "__pycache__"))

    def files():
        return {p.relative_to(copy).as_posix(): (p.read_bytes(), p.stat().st_mtime_ns)
                for p in sorted(copy.rglob("*")) if p.is_file()}

    before = files()
    assert make.main([], copy) == 0
    assert files() == before
    summary = capsys.readouterr().out.splitlines()[-len(make.RUNS):]  # after the runs' own output
    assert summary == [f"{run}: 0 of {len(make.reports(copy / run))} reports rewritten" for run in make.RUNS]
