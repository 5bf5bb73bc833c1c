"""The public namespace of the package."""

import fbmlab


def test_all_names_resolve():
    # a stale export names something the package no longer defines
    missing = [name for name in fbmlab.__all__ if not hasattr(fbmlab, name)]
    assert missing == []
