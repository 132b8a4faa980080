"""Tier-1 smoke run of the parity digests (tools/parity.py).

The full sets compare two trees; here a trimmed call, made twice on
freshly built inputs, must hash every set to the same digest.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from parity import SETS, digests, main  # noqa: E402


def test_trimmed_digests_repeat():
    first = digests(trim=2)
    assert set(first) == set(SETS)
    assert all(count > 0 for _sha, count in first.values())
    assert digests(trim=2) == first


def test_unknown_set_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == 2
    assert "unknown set(s): nope" in capsys.readouterr().err
