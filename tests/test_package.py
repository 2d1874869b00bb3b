"""The package's public names."""

import setoff


def test_every_exported_name_resolves_and_is_listed_once() -> None:
    assert len(setoff.__all__) == len(set(setoff.__all__))
    assert [name for name in setoff.__all__ if not hasattr(setoff, name)] == []
