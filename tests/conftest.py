import json
from pathlib import Path

import pytest
from hypothesis import settings

from psp4nse import oracle

# one profile for every property test: several build closed forms or factor
# large numbers, so per-example time varies too much for a deadline
settings.register_profile("psp4nse", deadline=None, print_blob=True)
settings.load_profile("psp4nse")

GOLDENS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"


@pytest.fixture(scope="session")
def goldens():
    """sha256 digests of the emitted texts, keyed as perfbench/goldens.json (read only)."""
    return json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def sp44():
    """The fully enumerated Sp4(4); shared across the suite (one enumeration)."""
    return oracle.sp4_group(4)


@pytest.fixture(scope="session")
def sp44_hist(sp44):
    return oracle.order_histogram(sp44)


@pytest.fixture(scope="session")
def hist84_g():
    return oracle.perm_nse(oracle.z4_times_z7_z3())


@pytest.fixture(scope="session")
def hist84_h():
    return oracle.perm_nse(oracle.z3_times_z7_z4())
