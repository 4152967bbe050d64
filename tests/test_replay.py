"""The replayed RNG stream and the generators that draw from it.

``seeding._Replay`` must give exactly numpy ``Generator(PCG64)``'s values
for ``random()``, ``integers(0, high)`` and ``choice(pop, size,
replace=False)`` in any interleaving, and the generators built on it must
write the same bytes as the per-draw loops they replaced
(``oracles.loop_gen_*``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadelab import gen_er, gen_pa, gen_security, serialize
from cascadelab.generators import _triangular_pairs
from cascadelab.seeding import _Replay

from oracles import loop_gen_er, loop_gen_pa, loop_gen_security

# 2**31 + 1 rejects almost half of all 32-bit draws; 2**32 - 1 is the last
# Lemire bound on halves, 2**32 takes a half as is, 2**40 takes whole words,
# and 2**64 // 3 + 1 rejects about a third of them
BOUNDS = [1, 2, 3, 2**31 + 1, 2**32 - 1, 2**32, 2**40, 2**64 // 3 + 1]

# pop 10001..12000 with size near pop // 50 runs both choice branches
# (Floyd's algorithm up to pop // 50, the tail shuffle above it)
calls = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"),
              st.one_of(st.sampled_from(BOUNDS), st.integers(1, 2**63 - 1))),
    st.integers(10_001, 12_000).flatmap(lambda pop: st.tuples(
        st.just("choice"), st.just(pop), st.integers(pop // 50 - 3, pop // 50 + 3))),
    st.integers(1, 300).flatmap(lambda pop: st.tuples(
        st.just("choice"), st.just(pop), st.integers(0, pop))),
)


def numpy_call(rng, call):
    if call[0] == "random":
        return rng.random()
    if call[0] == "integers":
        return int(rng.integers(0, call[1]))
    return rng.choice(call[1], call[2], replace=False).tolist()


def replay_call(draw, call):
    if call[0] == "random":
        return draw.random()
    if call[0] == "integers":
        return draw.integers(call[1])
    return draw.choice(call[1], call[2])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1), st.lists(calls, max_size=40))
def test_replay_matches_numpy(seed, sequence):
    rng = np.random.Generator(np.random.PCG64(seed))
    draw = _Replay(np.random.Generator(np.random.PCG64(seed)))
    for call in sequence:
        assert replay_call(draw, call) == numpy_call(rng, call), call


@pytest.mark.parametrize("high", BOUNDS)
def test_replay_long_runs_of_one_bound(high):
    # thousands of draws cross word fetches and, at 2**31 + 1, reject often
    rng = np.random.Generator(np.random.PCG64(high))
    draw = _Replay(np.random.Generator(np.random.PCG64(high)))
    expected = rng.integers(0, high, size=40_000).tolist()
    assert [draw.integers(high) for _ in range(40_000)] == expected
    assert draw.random() == rng.random()


@pytest.mark.parametrize("pop,size", [(10_000, 201), (10_001, 200), (10_001, 201),
                                      (20_000, 400), (20_000, 401), (20_000, 20_000),
                                      (12, 12), (1, 1), (5, 0)])
def test_replay_choice_branches(pop, size):
    rng = np.random.Generator(np.random.PCG64(pop + size))
    draw = _Replay(np.random.Generator(np.random.PCG64(pop + size)))
    assert draw.choice(pop, size) == rng.choice(pop, size, replace=False).tolist()
    assert draw.integers(3) == rng.integers(0, 3)


@st.composite
def generator_cases(draw):
    model = draw(st.sampled_from(["er", "pa", "security"]))
    d = draw(st.integers(2, 45) if model == "security" else st.integers(1, 12))
    n = d + 1 + draw(st.one_of(st.just(0), st.integers(0, 30), st.integers(0, 2500)))
    a = draw(st.one_of(st.floats(1.001, 1.1), st.floats(1.1, 4.0)))
    return model, n, d, a, draw(st.integers(0, 2**64 - 1))


def assert_same_bytes(model, n, d, a, seed):
    if model == "er":
        assert serialize(gen_er(n, d, seed)) == serialize(loop_gen_er(n, d, seed))
    elif model == "pa":
        assert serialize(gen_pa(n, d, seed)) == serialize(loop_gen_pa(n, d, seed))
    else:
        assert serialize(gen_security(n, d, a, seed)) == \
            serialize(loop_gen_security(n, d, a, seed))


@settings(max_examples=80, deadline=None)
@given(generator_cases())
def test_generators_match_per_draw_loops(case):
    assert_same_bytes(*case)


# ER at n=20000 draws its skips in several chunks
@pytest.mark.parametrize("model,n,d,a", [("er", 20_000, 10, None), ("pa", 20_000, 3, None),
                                         ("security", 20_000, 10, 1.5),
                                         ("security", 5_000, 40, 1.5),
                                         ("security", 8_000, 2, 1.01)])
def test_generators_match_per_draw_loops_at_scale(model, n, d, a):
    assert_same_bytes(model, n, d, a, 7)


def test_triangular_pairs_past_float_precision():
    # around the first and last pair of row v; from v near 1e8 on, the float
    # square root alone lands one row off for some of these
    v = np.array([1, 2, 3, 10**4, 10**8, 3 * 10**8, 10**9, 2**31 - 1], dtype=np.int64)
    first = v * (v - 1) // 2
    t = np.unique(np.concatenate([first - 1, first, first + 1, first + v - 1]))
    t = t[t >= 0]
    w, row = _triangular_pairs(t)
    assert ((0 <= w) & (w < row)).all()
    assert np.array_equal(row * (row - 1) // 2 + w, t)
