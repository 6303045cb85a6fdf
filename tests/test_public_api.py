"""The package's public names: each one listed in ``m3ab.__all__`` exists."""

from __future__ import annotations

import m3ab


def test_all_names_resolve_without_duplicates():
    assert len(m3ab.__all__) == len(set(m3ab.__all__))
    missing = [name for name in m3ab.__all__ if not hasattr(m3ab, name)]
    assert missing == []
