import math
import os
import warnings
from pathlib import Path

import pytest

import catscatter

DEG = math.pi / 180.0


@pytest.fixture(autouse=True)
def _quiet_odd_cat_warning():
    # Odd-cat states below r0 = sigma_perp emit an informational warning;
    # tests that care assert on it explicitly via pytest.warns.
    warnings.filterwarnings("ignore", message="odd cat with r0 < sigma_perp")
    yield


@pytest.fixture
def child_env():
    """Environment for a child ``python -m catscatter...`` process: it
    imports the package this suite imports, installed or not."""
    src = str(Path(catscatter.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
