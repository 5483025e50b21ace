import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from stefanlab import make_piecewise
from stefanlab.densities import PeriodicOscillatoryDensity


@pytest.fixture(scope="session")
def pw_std():
    """The standard band density used throughout: levels 1/2 and 21/20, p = q = 1/2."""
    return make_piecewise("1/2", "21/20", "1/2", "1/2")


@pytest.fixture(scope="session")
def sine_density():
    return PeriodicOscillatoryDensity(1.0, "sin")


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread running: every pool of the library
    (Picard's, the one psi_grid maps its blocks of windows on, the particle
    scheme's draw-ahead worker) must be shut down and joined before its call
    returns, also when the call fails."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before and t.is_alive()]
    if leaked:
        pytest.fail(f"threads left running: {leaked}")
