"""The replayed RNG stream and the generators that draw from it.

``oracles._Replay`` must give exactly numpy ``Generator(PCG64)``'s values
for ``random()``, ``integers(0, high)`` (high <= 2**32) and ``choice(pop,
size, replace=False)`` in any interleaving, ``generators._halves`` must give
its 32-bit draws in order, ``generators._choice`` numpy's ``choice`` from the
draws below ``generators._choice_highs``'s bounds, and the generators built
on them must write the same bytes as the per-draw loops they replaced
(``oracles.loop_gen_*``, ``oracles.replay_gen_security``).
"""

from array import array
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadelab import gen_er, gen_pa, gen_security, generators, serialize
from cascadelab.generators import (_choice, _choice_highs, _halves, _initial_ends,
                                   _pa_block, _triangular_pairs, attachment_probability)

from oracles import (_MASK32, _draw_distinct, _Replay, loop_gen_er, loop_gen_pa,
                     loop_gen_security, replay_gen_security)

# 2**31 + 1 rejects almost half of all 32-bit draws, 2**32 - 1 is the last
# Lemire bound on halves, and 2**32 takes a half as is
BOUNDS = [1, 2, 3, 2**31 + 1, 2**32 - 1, 2**32]

# pop 10001..12000 with size near pop // 50 runs both choice branches
# (Floyd's algorithm up to pop // 50, the tail shuffle above it)
calls = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"),
              st.one_of(st.sampled_from(BOUNDS), st.integers(1, 2**32))),
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


@pytest.mark.parametrize("fetch", [1, 3, 1 << 14])
def test_halves_are_numpys_32_bit_draws(monkeypatch, fetch):
    # refills keep the unused tail and append the next words after it
    monkeypatch.setattr(generators, "_WORDS_PER_FETCH", fetch)
    bits, h, taken = np.random.PCG64(fetch), np.empty(0, dtype=np.uint32), []
    for k in [1, 5, 2, 7, 1, 40_000, 3, 6]:
        h = _halves(bits, h, k)
        assert len(h) >= k
        taken += h[:k].tolist()
        h = h[k:]
    taken += h.tolist()
    expected = np.random.Generator(np.random.PCG64(fetch)).integers(0, 2**32, size=len(taken))
    assert taken == expected.tolist()


@pytest.mark.parametrize("pop,size", [(10_000, 201), (10_001, 200), (10_001, 201),
                                      (20_000, 400), (20_000, 401), (20_000, 20_000),
                                      (12, 12), (1, 1), (5, 0)])
def test_replay_choice_branches(pop, size):
    rng = np.random.Generator(np.random.PCG64(pop + size))
    draw = _Replay(np.random.Generator(np.random.PCG64(pop + size)))
    assert draw.choice(pop, size) == rng.choice(pop, size, replace=False).tolist()
    assert draw.integers(3) == rng.integers(0, 3)


@pytest.mark.parametrize("pop,size", [(10_000, 201), (10_001, 200), (10_001, 201),
                                      (20_000, 400), (20_000, 19_999), (12, 11), (2, 1),
                                      (3_000, 9)])
@pytest.mark.parametrize("pending", [False, True])
def test_choice_is_numpys(pop, size, pending):
    # both branches, after a 32-bit draw that left its word's high half
    # pending or after none: numpy's own draws below _choice_highs's bounds
    # give numpy's choice and leave the stream where choice leaves it
    rng = np.random.Generator(np.random.PCG64(pop + size))
    draw = np.random.Generator(np.random.PCG64(pop + size))
    if pending:
        assert draw.integers(0, 2**32) == rng.integers(0, 2**32)
    values = [int(draw.integers(0, high)) for high in _choice_highs(pop, size)]
    assert _choice(pop, size, values) == rng.choice(pop, size, replace=False).tolist()
    assert draw.integers(0, 2**32) == rng.integers(0, 2**32)


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


# ---- gen_pa's block pass ----------------------------------------------------------


class _Given:
    """A bit generator whose first raw words are given; PCG64's follow."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)
        self.rest = np.random.PCG64(0)

    def random_raw(self, size):
        head, self.words = self.words[:size], self.words[size:]
        return np.concatenate([head, self.rest.random_raw(size - len(head))])


def given_halves(halves):
    """An rng stand-in whose 32-bit draws start with ``halves``."""
    h = np.array(list(halves) + [7] * (len(halves) % 2), dtype=np.uint64)
    return SimpleNamespace(bit_generator=_Given(h[0::2] | h[1::2] << 32))


class _Counted(_Replay):
    __slots__ = ("taken",)

    def __init__(self, rng):
        super().__init__(rng)
        self.taken = 0

    def _next32(self):
        self.taken += 1
        return super()._next32()


def stepwise_pa(draw, ends, t, stop, d):
    """PA steps t..stop-1 on ``ends`` one ``_Replay.integers`` draw at a time;
    the halves each step took."""
    taken = []
    for step in range(t, stop):
        before = draw.taken
        for u in _draw_distinct(draw.integers, ends, d):
            ends.append(u)
            ends.append(step)
        taken.append(draw.taken - before)
    return taken


def ends_before(d, t):
    """A real PA endpoint buffer up to step t."""
    ends = _initial_ends(d)
    stepwise_pa(_Counted(np.random.default_rng(d)), ends, d + 1, t, d)
    return ends


def half_for(pos, high):
    """The half whose draw below high is pos, far from Lemire's rejection."""
    h = ((2 * pos + 1) << 31) // high
    assert (h * high) >> 32 == pos and (h * high) & (2**32 - 1) >= high
    return h


def assert_edges(g, ends):
    """g's edges are the (u, v) pairs of the endpoint buffer ends."""
    edges = np.frombuffer(ends, dtype=np.int64).reshape(-1, 2)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    assert np.array_equal(g.edge_u, edges[order, 0])
    assert np.array_equal(g.edge_v, edges[order, 1])


D, T, B = 3, 50, 6  # a block of 6 steps from step 50 draws below 288 + 6j
START = D * (2 * T - D - 1)


def distinct_targets(j):
    """Halves for step T + j drawing the new nodes of steps 3j+4, 3j+5, 3j+6
    (their odd slots), which no other step of the block draws."""
    return [half_for(D * (D + 1) + 2 * D * (j * D + i) + 1, START + 2 * D * j)
            for i in range(D)]


@pytest.mark.parametrize("case", ["clean", "first draw rejected", "last draw rejected",
                                  "repeat", "rejection then repeat", "inside"])
def test_block_pass_matches_stepwise_draws(case):
    steps = [distinct_targets(j) for j in range(B)]
    if case == "first draw rejected":  # 2**32 % 288 = 256: a zero half is rejected
        steps[0][0] = 0
    elif case == "last draw rejected":
        steps[-1][-1] = 0
    elif case == "repeat":
        steps[2][2] = steps[2][1]
    elif case == "rejection then repeat":
        steps[3] = [0, steps[3][0], steps[3][0], *steps[3][1:]]
    elif case == "inside":
        # step 4 draws step 1's first target (an even slot, two hops on) and
        # step 2's node (an odd slot); step 5 draws step 4's first target
        steps[1][0] = half_for(START, START + 2 * D)
        steps[4][:2] = [half_for(START + 2 * D, START + 8 * D),
                        half_for(START + 4 * D + 1, START + 8 * D)]
        steps[5][0] = half_for(START + 8 * D, START + 10 * D)
    halves = [h for step in steps for h in step]
    prefix = ends_before(D, T)
    ends = np.empty(D * (2 * (T + B) - D - 1), dtype=np.int64)
    ends[:START] = prefix
    done = _pa_block(np.array(halves[:B * D], dtype=np.uint32), ends, T, D, B)
    assert done == {"clean": B, "first draw rejected": 0, "last draw rejected": B - 1,
                    "repeat": 2, "rejection then repeat": 3, "inside": B}[case]
    # the steps before the first that redraws take d halves each, so gen_pa
    # moves past done * d of them; that step's new node is written too
    written = done + (done < B)
    expected = array("q", prefix)
    taken = stepwise_pa(_Counted(given_halves(halves)), expected, T, T + written, D)
    assert [k == D for k in taken] == [True] * done + [False] * (written - done)
    kept = START + 2 * D * done
    assert np.array_equal(ends[:kept], expected[:kept])
    assert np.array_equal(ends[kept + 1:START + 2 * D * written:2], expected[kept + 1::2])


def test_gen_pa_on_given_halves(monkeypatch):
    # the first block (64 steps from step 4) stops at once, the next (32
    # steps) at its last step, and the next (16) at once, on a step whose
    # retried draw repeats the step's first target
    d, n = 3, 200
    first = [0, 1, 3]  # slots of nodes 0, 1, 2 in K_4's endpoints

    def plan(t):
        targets = {4: ["reject", *first], 36: [1, 3, "reject", 0],
                   37: ["reject", 0, 0, 1, 3]}.get(t, first)
        high = d * (2 * t - d - 1)
        return [0 if p == "reject" else half_for(p, high) for p in targets]

    halves = [h for t in range(d + 1, n) for h in plan(t)]
    blocks = []

    def record(h, ends, t, d, b):
        blocks.append((t, b, _pa_block(h, ends, t, d, b)))
        return blocks[-1][2]

    monkeypatch.setattr(generators, "rng_from", lambda *_: given_halves(halves))
    monkeypatch.setattr(generators, "_pa_block", record)
    g = gen_pa(n, d)
    expected = _initial_ends(d)
    taken = stepwise_pa(_Counted(given_halves(halves)), expected, d + 1, n, d)
    assert [t for t, k in enumerate(taken, d + 1) if k > d] == [4, 36, 37]
    assert blocks[:3] == [(4, 64, 0), (5, 32, 31), (37, 16, 0)]
    assert_edges(g, expected)


@pytest.mark.parametrize("case", ["rejection first", "repeat", "rejection then repeat",
                                  "across a refill"])
def test_gen_pa_step_that_redraws(monkeypatch, case):
    # step 10 redraws; one word per fetch makes the first block's fetch end
    # at that block's last half, which 400 rejections run past
    d, n, t0 = 3, 40, 10
    first = [0, 1, 3]  # slots of nodes 0, 1, 2 in K_4's endpoints
    redraw = {"rejection first": ["reject", *first], "repeat": [0, 0, 1, 3],
              "rejection then repeat": ["reject", 1, 1, 0, 3],
              "across a refill": ["reject"] * 400 + first}[case]
    halves = [0 if p == "reject" else half_for(p, d * (2 * t - d - 1))
              for t in range(d + 1, n) for p in (redraw if t == t0 else first)]
    fetched = []

    def record(bits, rest, k):
        fetched.append((len(rest), k))
        return _halves(bits, rest, k)

    monkeypatch.setattr(generators, "_WORDS_PER_FETCH", 1)
    monkeypatch.setattr(generators, "rng_from", lambda *_: given_halves(halves))
    monkeypatch.setattr(generators, "_halves", record)
    g = gen_pa(n, d)
    expected = _initial_ends(d)
    taken = stepwise_pa(_Counted(given_halves(halves)), expected, d + 1, n, d)
    assert [t for t, k in enumerate(taken, d + 1) if k > d] == [t0]
    assert ((0, 1) in fetched) == (case == "across a refill")
    assert_edges(g, expected)


# n = d+1 draws nothing and n = d+2 one step; d = 1 never repeats a target;
# d near 100 repeats on most early steps
@pytest.mark.parametrize("n,d,seed", [(2, 1, 1), (3, 1, 2), (6, 5, 3), (7, 5, 4),
                                      (41, 40, 5), (42, 40, 6), (100, 99, 7),
                                      (101, 99, 8), (5_000, 1, 9), (500, 40, 10),
                                      (300, 64, 11), (500, 99, 12)])
def test_gen_pa_block_edges(n, d, seed):
    assert serialize(gen_pa(n, d, seed)) == serialize(loop_gen_pa(n, d, seed))


def test_gen_pa_flags_first_and_last_steps_of_blocks(monkeypatch):
    stops, small, blocked, flagged = set(), [], 0, 0

    def record(h, ends, t, d, b):
        nonlocal blocked, flagged
        done = _pa_block(h, ends, t, d, b)
        stops.add("first" if done == 0 else "last" if done == b - 1
                  else "inside" if done < b else "none")
        if b < generators._PA_MIN_BLOCK:
            small.append(t + b)
        blocked, flagged = blocked + done, flagged + (done < b)
        return done

    monkeypatch.setattr(generators, "_pa_block", record)
    for seed in range(3):
        assert serialize(gen_pa(3_000, 4, seed)) == serialize(loop_gen_pa(3_000, 4, seed))
    assert stops >= {"first", "last", "inside", "none"}
    # below _PA_MIN_BLOCK steps, only the last block of a graph is a block;
    # the other steps outside every block ran one draw at a time, and the
    # block size grew back after them, so blocks hold most steps
    steps = 3 * (3_000 - 5)
    assert set(small) <= {3_000}
    assert steps - blocked > flagged
    assert 2 * blocked > steps


def test_gen_pa_rejects_more_than_2_to_32_endpoints():
    # 2m = d(2n - d - 1): one past the limit at d = 1, and far past it, both
    # refused before any array is allocated
    with pytest.raises(ValueError, match=r"2m <= 2\*\*32"):
        gen_pa(2**31 + 2, 1)
    with pytest.raises(ValueError, match=r"2m <= 2\*\*32"):
        gen_pa(10**15, 10)


def test_gen_security_rejects_more_than_2_to_32_endpoints():
    # each step adds at most d edges, so 2m <= d(2n - d - 1) as in gen_pa
    with pytest.raises(ValueError, match=r"gen_security needs 2m <= 2\*\*32"):
        gen_security(2**31 + 2, 2, 1.5)
    with pytest.raises(ValueError, match=r"gen_security needs 2m <= 2\*\*32"):
        gen_security(10**15, 10, 1.5)


# ---- gen_security's inline draws ---------------------------------------------------


class _Scripted(_Replay):
    """A ``_Replay`` of ``replay_gen_security`` on PCG64 words that zeroes the
    first half of the first draw of each kind at every third step, so that
    draw rejects unless its bound is a power of two.  ``words`` holds the
    words as taken, zeroed halves included; ``rejected`` counts rejected
    halves by kind (color, pa, homophyly, choice); ``pending`` lists (step,
    kind) for every step whose coin passed a pending half."""

    def __init__(self, seed, d, a):
        super().__init__(np.random.Generator(np.random.PCG64(seed)))
        source, self.words = self._next64, []
        self._next64 = lambda: self.words.append(source()) or self.words[-1]
        # split: the index in words of the word whose high half is pending
        self.a, self.step, self.kind, self.split = a, d, None, -1
        self.zero_next, self.zeroed, self.taken = False, set(), 0
        self.rejected, self.pending = Counter(), []

    def random(self):
        self.step += 1
        u = super().random()
        self.kind = "pa" if u < attachment_probability(self.step, self.a) else "color"
        if self._half >= 0:
            self.pending.append((self.step, self.kind))
        return u

    def _next32(self):
        self.taken += 1
        pending = self._half >= 0
        x = super()._next32()
        if not pending:
            self.split = len(self.words) - 1
        if self.zero_next:
            self.zero_next, x = False, 0
            self.words[self.split] &= _MASK32 << 32 * (not pending)
        return x

    def integers(self, high):
        kind = self.kind or "homophyly"
        self.kind = None if kind in ("pa", "color") else self.kind
        self.zero_next = self.step % 3 == 0 and (kind, self.step) not in self.zeroed
        self.zeroed.add((kind, self.step))
        before = self.taken
        value = super().integers(high)
        self.rejected[kind] += self.taken - before - 1
        return value

    def choice(self, pop, size):
        self.kind = "choice"
        picks = super().choice(pop, size)
        self.kind = None
        return picks


@pytest.mark.parametrize("fetch", [1 << 14, 1])
def test_gen_security_on_a_crafted_stream(monkeypatch, fetch):
    # zero halves make the color, PA_GLOBAL, homophyly and choice draws of every
    # third step reject; one word per fetch refills the buffer at every word,
    # also at the coin of a homophyly step whose color takes a pending half
    n, d, a = 600, 5, 1.5
    draw = _Scripted(3, d, a)
    expected = replay_gen_security(n, d, a, draw=draw)
    assert set(draw.rejected) == {"color", "pa", "homophyly", "choice"}
    assert min(draw.rejected.values()) >= 1
    assert any(kind == "color" for _, kind in draw.pending)
    halves = [h for w in draw.words for h in (w & _MASK32, w >> 32)]
    monkeypatch.setattr(generators, "_WORDS_PER_FETCH", fetch)
    monkeypatch.setattr(generators, "rng_from", lambda *_: given_halves(halves))
    assert serialize(gen_security(n, d, a)) == serialize(expected)


@pytest.mark.parametrize("n,d,a,seed", [(3, 2, 1.5, 1), (4, 3, 1.01, 2), (300, 2, 1.5, 3),
                                        (2_000, 10, 1.2, 4), (1_500, 40, 1.05, 5)])
def test_gen_security_matches_replayed_loop(n, d, a, seed):
    assert serialize(gen_security(n, d, a, seed)) == \
        serialize(replay_gen_security(n, d, a, seed))
