"""Every name a module exports is defined, so ``from sst import *`` works."""

import pytest

import sst
import sst.tensor


@pytest.mark.parametrize("module", [sst, sst.tensor], ids=lambda m: m.__name__)
def test_every_export_exists(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
