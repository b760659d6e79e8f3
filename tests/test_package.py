"""The package's public surface: ``edmlab.__all__`` is kept by hand, no
module but ``__init__`` imports a name it never uses, and every config
object checks its bounds when built."""

import ast
import dataclasses
from pathlib import Path

import pytest

import edmlab
from edmlab import GmmConfig, NoiseSpec, TrainConfig

SRC = Path(edmlab.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = [name for name in edmlab.__all__ if not hasattr(edmlab, name)]
    assert missing == []
    assert len(set(edmlab.__all__)) == len(edmlab.__all__)


@pytest.mark.parametrize("module", sorted(
    p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_imported_name_is_used(module):
    tree = ast.parse((SRC / module).read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert unused == {}


def test_config_objects_are_frozen_and_checked_when_built():
    """One idiom: bounds are checked in ``__post_init__``, so a config object
    cannot exist invalid, and none offers a separate ``validate``."""
    for cls in (NoiseSpec, GmmConfig, TrainConfig):
        assert dataclasses.is_dataclass(cls)
        assert cls.__dataclass_params__.frozen, cls.__name__
        assert not hasattr(cls, "validate"), cls.__name__
    with pytest.raises(dataclasses.FrozenInstanceError):
        TrainConfig().epochs = 5
