import warnings

import numpy as np
import pytest

from cascadelab import ExperimentConfig, gen_er, run_experiment
from cascadelab.seeding import (_MIX_MUL1, _MIX_MUL2, _SPLITMIX_GAMMA,
                                derive_seed, derive_trial_seed, rng_from,
                                splitmix64)


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`splitmix64` over a uint64 array."""
    x = x.astype(np.uint64, copy=True)
    x += np.uint64(_SPLITMIX_GAMMA)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX_MUL1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX_MUL2)
    return x ^ (x >> np.uint64(31))


def derive_seed_array(master_seed: int, *tokens: int | str, indices: np.ndarray) -> np.ndarray:
    """``[derive_seed(master_seed, *tokens, i) for i in indices]``, vectorized
    for bulk checks of derived-seed uniqueness."""
    prefix = derive_seed(master_seed, *tokens)
    return splitmix64_array(np.uint64(prefix) ^ np.asarray(indices, dtype=np.uint64))


def test_same_inputs_same_seed():
    a = derive_trial_seed(42, "fig1", "er", 10_000, 7)
    b = derive_trial_seed(42, "fig1", "er", 10_000, 7)
    assert a == b


def test_distinct_inputs_distinct_seeds():
    base = derive_trial_seed(42, "fig1", "er", 10_000, 0)
    assert derive_trial_seed(42, "fig1", "er", 10_000, 1) != base
    assert derive_trial_seed(42, "fig1", "pa", 10_000, 0) != base
    assert derive_trial_seed(42, "fig2", "er", 10_000, 0) != base
    assert derive_trial_seed(43, "fig1", "er", 10_000, 0) != base


def test_seed_is_64_bit():
    s = derive_seed(2**70 + 5, "x", 3)
    assert 0 <= s < 2**64


def test_rejects_bad_token_type():
    with pytest.raises(TypeError):
        derive_seed(0, 1.5)


@pytest.mark.parametrize("bad", [
    (1.5,), (0, np.float64(2.0)), (0, 2.0), (0, None), (0, b"x")])
def test_rejects_non_integer_seeds_and_tokens(bad):
    with pytest.raises(TypeError):
        derive_seed(*bad)


@pytest.mark.parametrize("kind", [np.int64, np.uint64, np.int32, np.uint8])
def test_numpy_integer_seeds_and_tokens_match_python_ints(kind):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning either
        assert derive_seed(kind(5), "x", kind(3)) == derive_seed(5, "x", 3)
        top = np.iinfo(kind).max
        assert derive_seed(kind(top), kind(top)) == derive_seed(int(top), int(top))
        assert gen_er(100, 4, master_seed=kind(7)) == gen_er(100, 4, master_seed=7)
    assert derive_seed(np.int64(-3), np.int64(-1)) == derive_seed(-3, -1)


@pytest.mark.parametrize("over", [
    dict(experiment="fig3", models=("er",), n_list=(100,)),
    dict(experiment="fig2", models=("er",), n_list=(60,), trials=2)])
def test_numpy_master_seed_runs_an_experiment(over):
    cfg = dict(d=4, **over)
    ours = run_experiment(ExperimentConfig(master_seed=np.int64(0), **cfg))
    assert ours.failed == {}
    assert ours.csv_text == run_experiment(
        ExperimentConfig(master_seed=0, **cfg)).csv_text


def test_array_matches_scalar():
    idx = np.arange(1000, dtype=np.uint64)
    batch = derive_seed_array(9, "tag", "er", 50, indices=idx)
    scalar = [derive_seed(9, "tag", "er", 50, int(i)) for i in range(1000)]
    assert batch.tolist() == scalar


def test_splitmix_array_matches_scalar():
    xs = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    assert splitmix64_array(xs).tolist() == [splitmix64(int(x)) for x in xs]


def test_no_collisions_in_a_million_trial_seeds():
    idx = np.arange(1_000_000, dtype=np.uint64)
    seeds = derive_seed_array(0, "fig1", "er", 10_000, indices=idx)
    assert np.unique(seeds).shape[0] == seeds.shape[0]


def test_rng_from_reproducible():
    a = rng_from(5, "stream").integers(0, 1 << 30, size=8)
    b = rng_from(5, "stream").integers(0, 1 << 30, size=8)
    c = rng_from(5, "other").integers(0, 1 << 30, size=8)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()
