"""The package resolves its exported names on first use (PEP 562): each is
its defining module's own object, ``dir`` lists them before any is used, and
an unknown name raises the usual ``AttributeError``."""

import sys

import pytest

import balance_lab

LAZY = [name for name in balance_lab.__all__ if name not in ("__version__", "errors")]


@pytest.mark.parametrize("name", LAZY)
def test_name_is_the_defining_modules_object(name):
    value = getattr(balance_lab, name)
    assert getattr(sys.modules[value.__module__], name) is value


def test_dir_lists_every_exported_name():
    assert set(balance_lab.__all__) <= set(dir(balance_lab))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'balance_lab' has no attribute 'no_such_name'"):
        balance_lab.no_such_name
    assert not hasattr(balance_lab, "no_such_name")
