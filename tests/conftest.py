import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fusionframes import _kernels, generator  # noqa: E402


@pytest.fixture(autouse=True)
def _empty_sample_cache():
    """Every test starts and ends with an empty ``normal_block`` cache, so a
    test that counts draws does not depend on which tests ran before it."""
    generator._cached_block.cache_clear()
    yield
    generator._cached_block.cache_clear()


@pytest.fixture
def fills(monkeypatch):
    """The sizes of the blocks ``_kernels.fill_normals`` fills from here on
    (clear it to start counting again)."""
    sizes = []
    fill_normals = _kernels.fill_normals

    def counted(state, out, have_spare, spare):
        sizes.append(out.size)
        return fill_normals(state, out, have_spare, spare)

    monkeypatch.setattr(_kernels, "fill_normals", counted)
    return sizes
