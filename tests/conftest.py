"""Point every disk cache the suite may open at a temporary directory, so
that running the tests never writes ~/.cache/plinv."""

import pytest


@pytest.fixture(autouse=True, scope="session")
def isolated_cache_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cache-home")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(root))
        mp.setenv("PLINV_CACHE_DIR", str(root / "plinv"))
        yield root / "plinv"
