"""The self-check suite accepts any --seed from the command line, so the
tolerance-based oracle checks must hold at arbitrary seeds, not just the
acceptance gate's pinned one. Seed 3 once drew a collapse grid that forced
jitter escalation and blew the trace budget; the sweep here keeps that
class of regression out."""

import numpy as np
import pytest

from motioncode import bench


def test_bound_collapse_across_seeds():
    for seed in range(8):
        payload = bench.check_bound_collapse(seed)
        assert payload["passed"], (seed, payload)


def test_woodbury_bound_across_seeds():
    for seed in range(4):
        payload = bench.check_woodbury_bound(seed)
        assert payload["passed"], (seed, payload)


def test_posterior_oracle_across_seeds():
    for seed in range(4):
        payload = bench.check_posterior_oracle(seed)
        assert payload["passed"], (seed, payload)


def test_uneven_times_draws_long_series_without_rejection():
    # a rejection loop accepts a draw of n points with probability about
    # (1 - (n - 1) * MIN_GAP) ** (n - 2), about 1e-7 at n = 400
    rng = np.random.default_rng(0)
    t = bench._uneven_times(rng, 5000)
    assert t.size == 5000 and t[0] == 0.0 and t[-1] == 1.0
    gaps = np.diff(t)
    assert np.all(gaps > 0) and gaps.min() >= bench.MIN_GAP * (1 - 1e-9)
    with pytest.raises(ValueError):
        bench._uneven_times(rng, 10001)
