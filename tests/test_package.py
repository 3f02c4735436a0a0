"""Package surface: every exported name resolves."""

import polygreen


def test_all_names_resolve():
    missing = [name for name in polygreen.__all__ if not hasattr(polygreen, name)]
    assert not missing
    assert len(set(polygreen.__all__)) == len(polygreen.__all__)
