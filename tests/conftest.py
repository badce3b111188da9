import numpy as np
import pytest


class Decompositions(dict):
    """Calls of numpy.linalg.eigh and eigvalsh, and the matrices each decomposed.

    Keys: "calls" (calls of either), "eigh" and "eigvalsh" (matrices; a
    stack of N matrices counts N).
    """

    def reset(self) -> None:
        self.update(calls=0, eigh=0, eigvalsh=0)

    @property
    def matrices(self) -> int:
        return self["eigh"] + self["eigvalsh"]


@pytest.fixture
def decompositions(monkeypatch) -> Decompositions:
    """Counts the eigendecompositions numpy.linalg makes from here to the end of the test."""
    counts = Decompositions()
    counts.reset()
    for name in ("eigh", "eigvalsh"):

        def counted(A, *args, _solver=getattr(np.linalg, name), _name=name, **kwargs):
            counts["calls"] += 1
            counts[_name] += int(np.prod(np.shape(A)[:-2]))
            return _solver(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts
