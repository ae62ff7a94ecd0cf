"""The package's public name list and its lazy namespace."""

import importlib

import pytest

import bose_eos


def test_every_public_name_resolves_once():
    # a plain import does not catch a stale entry left by a removed name
    missing = [name for name in bose_eos.__all__ if not hasattr(bose_eos, name)]
    assert missing == []
    assert len(set(bose_eos.__all__)) == len(bose_eos.__all__)


@pytest.mark.parametrize("name", bose_eos.__all__)
def test_public_name_is_the_object_of_its_defining_module(name):
    value = getattr(bose_eos, name)
    module = importlib.import_module(f"bose_eos.{bose_eos._MODULE_OF[name]}")
    assert value is getattr(module, name)
    if callable(value):  # the defining module, not one that imports the name
        assert value.__module__ == module.__name__


def test_dir_covers_the_public_names():
    assert set(bose_eos.__all__) <= set(dir(bose_eos))
    assert "__version__" in dir(bose_eos)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bose_eos.no_such_name
    with pytest.raises(ImportError):
        from bose_eos import no_such_name
