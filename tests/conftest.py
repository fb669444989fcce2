import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "lab",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("lab")


@pytest.fixture
def eigensolve_counts(monkeypatch):
    """Count calls of ``np.linalg.eigh`` and ``np.linalg.eigvalsh``."""
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        solver = getattr(np.linalg, name)

        def counted(*args, _name=name, _solver=solver, **kwargs):
            counts[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts
