"""The package's public surface: ``edmlab.__all__`` is kept by hand."""

import edmlab


def test_every_exported_name_resolves():
    missing = [name for name in edmlab.__all__ if not hasattr(edmlab, name)]
    assert missing == []
    assert len(set(edmlab.__all__)) == len(edmlab.__all__)
