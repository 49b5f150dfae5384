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
    ``(args, kwargs)`` to.  An array argument is recorded as its shape,
    so that the list holds no call's arrays alive."""

    def install(module, name: str) -> list:
        original = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append((tuple(map(_shape_of_array, args)),
                          {k: _shape_of_array(v) for k, v in kwargs.items()}))
            return original(*args, **kwargs)

        for key, mod in list(sys.modules.items()):
            if key.split(".")[0] == "imchit" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
        return calls

    return install


def _shape_of_array(value):
    return value.shape if isinstance(value, np.ndarray) else value
