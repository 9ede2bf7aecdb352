import numpy as np
import pytest


class ScriptedRng:
    """Replays queued draws in call order, to force an operator's cut points,
    loci or roulette points; each `integers` or `random` call takes the next
    queued batch, and integer draws must lie within the requested bounds."""

    def __init__(self, *batches):
        self._queue = list(batches)

    def integers(self, low, high, size=None):
        draw = np.asarray(self._queue.pop(0))
        assert ((low <= draw) & (draw < high)).all(), f"scripted {draw} outside [{low}, {high})"
        return draw

    def random(self, size=None):
        return np.asarray(self._queue.pop(0), dtype=np.float64)


@pytest.fixture
def scripted_rng():
    return ScriptedRng


@pytest.fixture
def within_five_sigma():
    """A check that each count lies within 5 sigma of its binomial
    expectation over all the draws counted."""
    def check(counts, p):
        n = counts.sum()
        return (abs(counts - n * p) < 5 * np.sqrt(n * p * (1 - p))).all()
    return check
