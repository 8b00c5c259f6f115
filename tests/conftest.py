from __future__ import annotations

import os
import signal
from pathlib import Path

import pytest

from lamsa import ModelVariant, SystemParams

# tests that start `python -m lamsa.cli` need the source tree on their path too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

# a test that runs longer than this fails instead of stalling the suite
_TEST_TIME_LIMIT_S = 300


@pytest.fixture(autouse=True)
def _time_limit():
    if not hasattr(signal, "SIGALRM"):  # as on Windows
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran longer than {_TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(_TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# Reference parameter set used for every published number: m=1, M=5, R=5,
# k=1, p0=10 (model units).
REF_SADDLE_P = 4.64383
REF_SADDLE_FL = -15.0


@pytest.fixture
def params() -> SystemParams:
    return SystemParams()


@pytest.fixture
def cc_params() -> SystemParams:
    return SystemParams(variant=ModelVariant.CONSTRAINT_CONSISTENT)
