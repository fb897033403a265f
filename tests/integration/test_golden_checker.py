"""``scripts/check_goldens.py`` checks every file in ``tests/golden``.

A golden without a checker would pin nothing: the script fails, naming
the file, and this test holds its registry equal to the directory
listing.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "check_goldens.py"


@pytest.fixture()
def checker():
    spec = importlib.util.spec_from_file_location("check_goldens", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_golden_file_has_a_checker(checker):
    listing = sorted(path.name for path in checker.GOLDEN_DIR.iterdir())
    assert sorted(checker.CHECKERS) == listing
    assert len(listing) == 10


def test_an_unchecked_golden_fails_the_check(checker, monkeypatch, tmp_path, capsys):
    (tmp_path / "stray_seeded.json").write_text("{}")
    monkeypatch.setattr(checker, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(checker, "CHECKERS", {})
    assert checker.main() == 1
    assert "stray_seeded.json: UNCHECKED" in capsys.readouterr().out
