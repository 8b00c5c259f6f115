from __future__ import annotations

import os
from pathlib import Path

import pytest

from lamsa import ModelVariant, SystemParams

# tests that start `python -m lamsa.cli` need the source tree on their path too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

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
