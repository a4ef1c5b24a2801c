"""The self-check suite accepts any --seed from the command line, so the
tolerance-based oracle checks must hold at arbitrary seeds, not just the
acceptance gate's pinned one. Seed 3 once drew a collapse grid that forced
jitter escalation and blew the trace budget; the sweep here keeps that
class of regression out."""

import numpy as np
import pytest

from motioncode import bench, objective
from motioncode.dataio import parse_ragged


# (oracle check, the seeds it must pass at)
SWEEPS = [
    (bench.check_bound_collapse, range(8)),
    (bench.check_woodbury_bound, range(4)),
    (bench.check_posterior_oracle, range(4)),
    (bench.check_gradients, range(4)),
]


@pytest.mark.parametrize("check,seeds", SWEEPS, ids=[check.__name__ for check, _ in SWEEPS])
def test_oracle_check_across_seeds(check, seeds):
    for seed in seeds:
        payload = check(seed)
        assert payload["passed"], (seed, payload)


def test_gradient_check_holds_each_class_to_the_dense_oracle(monkeypatch):
    # a first gradient array off by one part in a million is far inside the
    # finite differences' 1e-4 but far outside the dense oracle's 1e-8
    real = objective._bound_gradient

    def skewed(*args):
        d_la, d_lb, d_s = real(*args)
        return d_la * (1.0 + 1e-6), d_lb, d_s

    monkeypatch.setattr(objective, "_bound_gradient", skewed)
    payload = bench.check_gradients(0)
    assert not payload["passed"]
    assert payload["max_rel_error"] < bench.FD_REL_TOL
    assert payload["max_dense_error"] > bench.ORACLE_TOL


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


@pytest.mark.parametrize("seed", [0, 5])
def test_fixtures_are_the_draws(tmp_path, seed):
    # each fixture file holds the records bench draws for the seed: labels,
    # timestamps and values bit for bit, in the order drawn
    train, test = bench._classification_records(seed)
    drawn = {"classification_train": train, "classification_test": test,
             "forecast": bench._forecasting_records(seed)}
    paths = bench.write_fixtures(tmp_path, seed)
    assert set(paths) == set(drawn)
    for name, records in drawn.items():
        read = parse_ragged(paths[name])
        assert read.labels == tuple(r.label for r in records), name
        assert read.t.tobytes() == np.concatenate([r.t for r in records]).tobytes(), name
        assert read.y.tobytes() == np.concatenate([r.y for r in records]).tobytes(), name
        assert read.offsets.tolist() == np.cumsum([0] + [r.t.size for r in records]).tolist()
