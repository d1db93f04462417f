import pytest

from cpdzip import codec


@pytest.fixture(autouse=True)
def _clear_codec_memos():
    """Start each test with empty codec memos, so no outcome depends on which
    tests ran before it."""
    codec._structure_table.cache_clear()
    codec._tensor_probabilities.cache_clear()
