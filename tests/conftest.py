"""Test-suite configuration: a CI-friendly hypothesis profile."""

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch):
    """Keep $REPRO_CACHE_DIR out of tests: an ambient cache directory on
    the developer's machine must never leak hits into the suite."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


#: Corrupt tails of a cache-directory JSON-lines log (the makespan cache
#: and the shard coordination log read them the same way): the bytes
#: written after the last good line, and how many bad lines they hold.
CORRUPT_TAILS = {
    "torn": (b'{"k":"torn","v":1,"m":', 1),     # crash mid-append
    "non-utf8": (b"\xff\xfe\n", 1),
    "array": (b"[1, 2, 3]\n", 1),              # JSON, but not an object
    "blank": (b"\n   \n\n", 0),
}


@pytest.fixture(params=sorted(CORRUPT_TAILS))
def corrupt_tail(request):
    """``(tail bytes, bad line count)`` for each corrupt-line shape."""
    return CORRUPT_TAILS[request.param]
