from __future__ import annotations

import sys

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps every package binding of
    ``module.name`` and returns the list the wrapper appends each call's
    ``(args, kwargs)`` to."""

    def install(module, name: str) -> list:
        original = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        for key, mod in list(sys.modules.items()):
            if key.split(".")[0] == "imchit" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
        return calls

    return install
