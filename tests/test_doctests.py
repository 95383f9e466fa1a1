import doctest
import importlib
import pkgutil

import pytest

import genusone

MODULES = sorted(name for _, name, _ in
                 pkgutil.iter_modules(genusone.__path__, "genusone."))


@pytest.mark.parametrize("name", MODULES)
def test_module_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"
