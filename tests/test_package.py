import ast
import types
from pathlib import Path

import pytest

import collideq

_MODULES = sorted(p for p in Path(collideq.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(collideq).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(collideq.__all__)) == len(collideq.__all__)
    assert set(collideq.__all__) == public


def test_every_export_resolves():
    for name in collideq.__all__:
        assert getattr(collideq, name) is not None


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    # no linter ships with the toolchain, so the unused-import check is an ast pass
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
