import types

import collideq


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(collideq).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(collideq.__all__)) == len(collideq.__all__)
    assert set(collideq.__all__) == public


def test_every_export_resolves():
    for name in collideq.__all__:
        assert getattr(collideq, name) is not None
