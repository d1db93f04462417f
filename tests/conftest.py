import sys

import pytest

from cpdzip import codec


@pytest.fixture(autouse=True)
def _clear_codec_memos():
    """Start each test with empty codec memos, so no outcome depends on which
    tests ran before it."""
    codec._structure_table.cache_clear()
    codec._tensor_probabilities.cache_clear()


@pytest.fixture
def patch_everywhere(monkeypatch):
    """``patch(home, name, value)`` sets ``home.name`` to ``value`` in ``home``
    and in every loaded ``cpdzip`` module that binds the same object by name,
    so a call from any layer meets ``value``; it returns the original."""

    def patch(home, name, value):
        original = getattr(home, name)
        for module in list(sys.modules.values()):
            package = getattr(module, "__name__", "")
            if package.split(".")[0] == "cpdzip" and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, value)
        return original

    return patch
