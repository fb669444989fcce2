import threading

import numpy as np
import numpy.linalg._linalg as _linalg
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "lab",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# random draws for the certificate soundness tests, which the
# derandomized profile repeats run after run; a test that asks for more
# examples than "lab" gives takes the larger of its count and the
# loaded profile's (settings.default.max_examples at import)
settings.register_profile(
    "soundness",
    max_examples=1000,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("lab")


class EigensolveCounts(dict):
    """Matrices solved by ``np.linalg.eigh``, ``np.linalg.eigvalsh`` and
    ``np.linalg.svd`` (the SVDs behind ``np.linalg.norm(x, 2, ...)``
    included) and factored by ``np.linalg.cholesky`` and ``np.linalg.qr``,
    keyed by solver: a stacked call on ``k`` matrices counts ``k``, as
    many as ``k`` calls on one.  ``calls`` counts the calls themselves."""

    def __init__(self):
        super().__init__(eigh=0, eigvalsh=0, cholesky=0, qr=0, svd=0)
        self.calls = dict(self)
        self.lock = threading.Lock()

    def reset(self):
        with self.lock:
            for name in self:
                self[name] = self.calls[name] = 0


@pytest.fixture
def eigensolve_counts(monkeypatch):
    """Count the matrices that ``np.linalg.eigh``, ``np.linalg.eigvalsh``,
    ``np.linalg.cholesky``, ``np.linalg.qr`` and ``np.linalg.svd`` take,
    and their calls."""
    counts = EigensolveCounts()
    for name in counts:
        solver = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _solver=solver, **kwargs):
            shape = np.shape(a)
            with counts.lock:
                counts[_name] += int(np.prod(shape[:-2], dtype=np.int64))
                counts.calls[_name] += 1
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
        if name == "svd":
            # np.linalg.norm calls the svd of its defining module
            monkeypatch.setattr(_linalg, name, counted)
    return counts
