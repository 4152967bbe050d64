"""The bulk graph-file writer and parser, checked against the per-line
ones they replaced (``oracles.per_line_serialize`` / ``per_line_deserialize``).

Every input must give the same bytes, the same graph, or the same error
(type and message) as the oracle, with two documented divergences:

* where the oracle lets a field past int64 escape as ``OverflowError``, the
  reader raises ``GraphFormatError`` naming a line;
* where the oracle reads an integer field with a spelling the writer never
  writes (``+5``, ``05``, ``1_0``, non-ASCII digits, a trailing ``\r``) and
  finds nothing else wrong up to that line, the reader raises
  ``GraphFormatError`` naming that line as non-canonical.

Every file is parsed in pieces and written back through the writer.  A
valid file never reaches the per-line checker ``_check_lines``; a bad one
hands it only its first bad line, so no error scans the whole file line by
line.  The oracle comparisons run again with a piece per line, so every
line sits on a piece boundary.
"""

import functools
import os
import re
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascadelab import (EdgeTag, GraphFormatError, deserialize, gen_er,
                        gen_security, load_graph, save_graph, serialize)
from cascadelab import graph
from cascadelab.cli import main

from conftest import traced_peak
from oracles import (graph_from_edges, per_line_deserialize,
                     per_line_serialize, random_small_graph)

IO_SETTINGS = settings(max_examples=200, deadline=None)


def pieces_of(size):
    """The reader, cutting its pieces after ``size`` bytes: at 1, after
    every line."""
    return mock.patch.object(graph, "_PIECE", size)


# field values: small, many-digit, and 19-digit ones up to the int64 maximum
values = st.one_of(st.integers(0, 30), st.integers(0, 10**18 - 1),
                   st.integers(10**18, 2**63 - 1))


@st.composite
def edge_graphs(draw, max_n=20):
    """Random simple graphs with random metadata, including n=0, m=0 and
    isolated nodes."""
    n = draw(st.integers(0, max_n))
    edges = set()
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = {(min(u, v), max(u, v))
                 for u, v in draw(st.lists(pairs, max_size=3 * n)) if u != v}
    edges = sorted(edges)
    tags = draw(st.lists(st.sampled_from(list(EdgeTag)),
                         min_size=len(edges), max_size=len(edges)))
    return graph_from_edges(
        n, [(u, v, t) for (u, v), t in zip(edges, tags)],
        color=np.asarray(draw(st.lists(values, min_size=n, max_size=n)),
                         dtype=np.int64),
        is_seed=np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                           dtype=bool),
        birth_time=np.asarray(draw(st.lists(values, min_size=n, max_size=n)),
                              dtype=np.int64))


@st.composite
def generated_graphs(draw):
    index = draw(st.integers(0, 10_000))
    return random_small_graph(np.random.default_rng(index), index)


graphs = st.one_of(edge_graphs(), generated_graphs())


def outcome(parse, data):
    """What a parser makes of data: the graph's bytes, or the error raised."""
    try:
        return "graph", per_line_serialize(parse(data))
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return "error", type(exc).__name__, str(exc)


def has_misspelled_integer(line: bytes) -> bool:
    """Some field of the line is read by int() but not written by serialize."""
    for field in line.decode("utf-8").split(" "):
        try:
            value = int(field)
        except ValueError:
            continue
        if field != str(value):
            return True
    return False


def assert_parses_like_oracle(data):
    ours, oracle = outcome(deserialize, data), outcome(per_line_deserialize, data)
    if oracle[:2] == ("error", "OverflowError"):
        assert ours[:2] == ("error", "GraphFormatError")
        assert re.match(r"line \d+: ", ours[2])
    elif ours[0] == "error" and (
            hit := re.match(r"line (\d+): non-canonical integer field", ours[2])):
        lineno = int(hit[1])
        assert ours[1] == "GraphFormatError"
        assert has_misspelled_integer(data.split(b"\n")[lineno - 1])
        if oracle[0] == "error":  # the oracle failed on a later line
            assert int(re.match(r"line (\d+): ", oracle[2])[1]) > lineno
    else:
        assert ours == oracle


@IO_SETTINGS
@given(graphs)
def test_round_trip_matches_per_line_format(g):
    data = serialize(g)
    assert data == per_line_serialize(g)
    assert deserialize(data) == g
    assert per_line_deserialize(data) == g


@pytest.mark.parametrize("extra", [0, 1, graph._CHUNK + 1])
def test_rows_across_chunk_boundaries_match_per_line_format(extra):
    """n = m = _CHUNK + extra, so rows sit on both sides of every chunk
    boundary, with fields of 1 to 19 digits, zeros among them."""
    size = graph._CHUNK + extra
    rng = np.random.default_rng(size)

    def column():
        x = 10 ** rng.integers(0, 19, size) - rng.integers(0, 2, size)
        x[rng.integers(0, size, 3)] = 2**63 - 1
        return x

    path = [(i, i + 1, t) for i, t in enumerate(rng.integers(0, 5, size - 1))]
    g = graph_from_edges(size, [*path, (0, 2, EdgeTag.PLAIN)], color=column(),
                         is_seed=rng.integers(0, 2, size).astype(bool),
                         birth_time=column())
    assert g.m == size and (g.color == 0).any()
    assert serialize(g) == per_line_serialize(g)


def test_writer_refuses_negative_fields():
    g = graph_from_edges(2, [(0, 1)])
    bad = graph.LabeledGraph(2, [0, -1], g.is_seed, g.birth_time, g.edge_u,
                             g.edge_v, g.edge_tag, validate=False)
    with pytest.raises(ValueError, match="non-negative"):
        serialize(bad)


@IO_SETTINGS
@given(graphs)
@example(graph_from_edges(2, [(0, 1)], color=np.array([2**63 - 1, 0]),
                          is_seed=np.array([True, False]),
                          birth_time=np.array([0, 2**63 - 1])))
def test_valid_file_never_reaches_the_line_checker(g):
    """A valid file, with or without its final newline and with fields of
    2**63 - 1 among the others, is read without the per-line checker."""
    data = serialize(g)
    for raw in (data, data[:-1]):
        with mock.patch.object(graph, "_check_lines",
                               wraps=graph._check_lines) as checker:
            assert deserialize(raw) == g
        assert checker.call_count == 0


MUTATIONS = ("byte", "delete", "duplicate", "swap")
# bytes a corruption writes: digits, separators, signs, letters of the
# format, a carriage return, a NUL and a byte that is not UTF-8
NOISE = b"0159 \n\r+-_NEPLAINTKYZ\x00\xff"


def mutation(g, kind, data):
    """The file of g with one mutation of the kind, drawn from data."""
    raw = serialize(g)
    if kind == "byte":
        at = data.draw(st.integers(0, len(raw) - 1))
        byte = data.draw(st.sampled_from(NOISE))
        return raw[:at] + bytes([byte]) + raw[at + 1:]
    lines = raw.split(b"\n")[:-1]
    i = data.draw(st.integers(0, len(lines) - 1))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    return b"".join(line + b"\n" for line in lines)


@IO_SETTINGS
@given(graphs, st.sampled_from(MUTATIONS), st.data())
def test_mutated_file_parses_like_oracle(g, kind, data):
    assert_parses_like_oracle(mutation(g, kind, data))


class Replay:
    """Fixed draws in place of ``st.data()``, for an ``@example``."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)


SHORT_EDGE_LINE = graph_from_edges(3, [(0, 1)])


@IO_SETTINGS
@given(graphs, st.sampled_from(MUTATIONS), st.data())
# the edge line's E made a newline: a one-byte piece then holds an edge row
@example(SHORT_EDGE_LINE, "byte",
         Replay(serialize(SHORT_EDGE_LINE).index(b"E"), ord("\n")))
def test_mutated_file_in_line_pieces_parses_like_oracle(g, kind, data):
    with pieces_of(1):
        assert_parses_like_oracle(mutation(g, kind, data))


def small_file(*, newline=b"\n"):
    lines = [b"cascadelab-graph v1 3 2", b"N 0 1 1 0", b"N 1 0 0 1",
             b"N 2 1 0 2", b"E 0 1 SEED_LINK", b"E 1 2 HOMOPHYLY"]
    return newline.join(lines) + newline


def four_edge_file():
    return (b"cascadelab-graph v1 4 4\nN 0 0 1 0\nN 1 0 0 1\nN 2 0 0 2\n"
            b"N 3 0 0 3\nE 0 1 PLAIN\nE 0 2 PLAIN\nE 1 2 PLAIN\nE 2 3 PLAIN\n")


HAND_WRITTEN = pytest.mark.parametrize("data", [
    pytest.param(small_file(newline=b"\r\n"), id="crlf"),
    pytest.param(b"cascadelab-graph v1 2 0\r\nN 0 0 0 0\r\nN 1 0 0 1\r\n",
                 id="crlf-no-edges"),
    pytest.param(small_file()[:-1], id="no-final-newline"),
    pytest.param(b"cascadelab-graph v1 0 0", id="empty-graph-no-newline"),
    pytest.param(small_file().replace(b"N 2 1 0 2", b"N 02 05 0 2"),
                 id="leading-zeros"),
    pytest.param(small_file().replace(b"E 0 1", b"E +0 +1"), id="plus-signs"),
    pytest.param(small_file().replace(b"v1 3 2", b"v1 +3 02"),
                 id="header-plus-and-zero"),
    pytest.param(small_file().replace(b"N 2 1 0 2",
                                      b"N 2 1234567890123456789 0 2"),
                 id="19-digit-field"),
    pytest.param(small_file().replace(b"N 2 1 0 2", b"N 2 1 0 " + b"9" * 19),
                 id="19-digit-field-past-int64"),
    pytest.param(small_file().replace(b"v1 3 2", b"v1 3 " + b"0" * 18 + b"2"),
                 id="19-digit-header-count"),
    pytest.param(small_file().replace(b"N 1 0 0 1", "N ١ 0 0 ١".encode()),
                 id="arabic-indic-digits"),
    pytest.param(small_file().replace(b"E 0 1", "E ０ １".encode()),
                 id="fullwidth-digits"),
    pytest.param(b"cascadelab-graph v1 999999999999999999 0\n",
                 id="huge-header-n"),
    pytest.param(b"cascadelab-graph v1 0 " + b"9" * 40 + b"\n",
                 id="huge-header-m"),
    # more digits than int() converts by default
    pytest.param(b"cascadelab-graph v1 " + b"9" * 5000 + b" 0\n",
                 id="header-n-past-int-digit-limit"),
    pytest.param(b"cascadelab-graph v1 100 0\nN 0 0 0 0\n", id="short-file"),
    # one node line fewer and two edge lines more than the header says: the
    # same count of integers, and the first edge reads as node 2's fields
    pytest.param(b"cascadelab-graph v1 3 1\nN 0 0 0 0\nN 1 0 0 1\n"
                 b"E 2 0 PLAIN\nE 0 1 PLAIN\nE 1 2 PLAIN\n",
                 id="node-lines-traded-for-edge-lines"),
    pytest.param(b"", id="empty-file"),
    pytest.param(b"\n", id="blank-line"),
    pytest.param(small_file() + b"\n", id="trailing-blank-line"),
    pytest.param(small_file().replace(b"HOMOPHYLY", b"homophyly"),
                 id="lowercase-tag"),
    pytest.param(small_file().replace(b"E 1 2", b"E 0 1"), id="duplicate-edge"),
    pytest.param(small_file().replace(b"E 1 2", b"E 2 1"), id="reversed-edge"),
    pytest.param(small_file().replace(b"E 1 2", b"E 1 3"), id="dangling-edge"),
    pytest.param(small_file().replace(b"N 1 0 0 1", b"N 1 0 2 1"),
                 id="bad-seed-flag"),
    pytest.param(small_file().replace(b"N 1 0 0 1", b"N 1 -1 0 1"),
                 id="negative-color"),
    pytest.param(small_file().replace(b"N 1 0 0 1", b"N 1  0 0 1"),
                 id="double-space"),
    pytest.param(small_file().replace(b"N 1", b"N 9"), id="wrong-node-id"),
    pytest.param(small_file().replace(b"N 1 0 0 1", b"N 1 0 0 1 "),
                 id="trailing-space"),
    pytest.param(small_file().replace(b"SEED_LINK", b"SEED_LINK\xff"),
                 id="not-utf8"),
    # two bad lines: the first one is named
    pytest.param(small_file().replace(b"N 1 0 0 1", b"N 1 0 0 " + b"9" * 20)
                 .replace(b"HOMOPHYLY", b"HOMOPHILY"),
                 id="past-int64-then-bad-tag"),
    pytest.param(small_file().replace(b"N 1 0 0 1",
                                      b"N 1 0 0 9223372036854775807")
                 .replace(b"HOMOPHYLY", b"HOMOPHILY"),
                 id="int64-max-then-bad-tag"),
    pytest.param(small_file().replace(b"N 1", b"N 5")
                 .replace(b"SEED_LINK", b"SEED_LINK\r"),
                 id="wrong-node-id-then-cr"),
    # the line count holds, but the fourth node line sits where the first
    # edge line belongs
    pytest.param(b"cascadelab-graph v1 3 2\nN 0 1 1 0\nN 1 0 0 1\n"
                 b"N 2 1 0 2\nN 3 0 0 3\nE 0 1 SEED_LINK\n",
                 id="node-line-in-edge-section"),
    pytest.param(small_file().replace(b"HOMOPHYLY", b"HOMOPHILY")[:-1],
                 id="bad-last-line-no-final-newline"),
    # the first bad line comes before any byte the write-back would change,
    # or the lenient parse cannot line the values up with the rows
    pytest.param(four_edge_file().replace(b"E 1 2 PLAIN\nE 2 3",
                                          b"E 2 3 PLAIN\nE 1 2"),
                 id="edge-out-of-order-near-end"),
    pytest.param(four_edge_file().replace(b"E 2 3", b"E 1 2"),
                 id="duplicate-last-edge"),
    pytest.param(four_edge_file().replace(b"E 0 2", b"E 0 " + b"9" * 20)
                 .replace(b"E 2 3 PLAIN", b"E 2 3 PLAINS"),
                 id="endpoint-past-int64-then-bad-tag"),
    pytest.param(four_edge_file().replace(b"N 3 0 0 3", b"N 3 0 0 -3"),
                 id="negative-birth-time"),
    pytest.param(four_edge_file().replace(b"E 1 2", b"E -1 2"),
                 id="negative-endpoint"),
    pytest.param(four_edge_file().replace(b"N 2 0 0 2", b"N 2 0 0"),
                 id="node-line-one-value-short"),
    pytest.param(four_edge_file().replace(b"E 2 3 PLAIN", b"E 2 3 4 PLAIN"),
                 id="edge-line-one-value-over"),
    # one value over on a node line and one short on the last line: the
    # count of values holds, but the rows between do not line up
    pytest.param(four_edge_file().replace(b"N 1 0 0 1", b"N 1 0 0 1 7")
                 .replace(b"E 2 3", b"E 2 x"),
                 id="value-over-then-refused-text"),
    pytest.param(four_edge_file().replace(b"N 2 0 0 2", b"N 2 0 a 2"),
                 id="lowercase-letter-in-node-line"),
    pytest.param(four_edge_file().replace(b"E 2 3", b"E 2 3x3"),
                 id="x-inside-a-field"),
    pytest.param(four_edge_file().replace(b"N 3 0 0 3", b"N 3 0 0 3.5"),
                 id="decimal-field"),
    pytest.param(four_edge_file().replace(b"N 1 0 0 1", b"N 1 0 0 01")
                 .replace(b"E 2 3 PLAIN", b"E 2 3 PLAIN."),
                 id="leading-zero-then-refused-text"),
    # no digit in the body: np.fromstring reads blanks alone as one 0
    pytest.param(b"cascadelab-graph v1 1 0\nN a b c d\n", id="no-digits"),
    pytest.param(b"cascadelab-graph v1 -1 0\n", id="negative-header-count"),
])


@HAND_WRITTEN
def test_hand_written_file_parses_like_oracle(data):
    assert_parses_like_oracle(data)


@HAND_WRITTEN
def test_hand_written_file_in_line_pieces_parses_like_oracle(data):
    with pieces_of(1):
        assert_parses_like_oracle(data)


@pytest.mark.parametrize("data,lineno", [
    (small_file().replace(b"v1 3 2", b"v1 +3 2"), 1),
    (small_file().replace(b"N 1 0 0 1", b"N 1 0 0 01"), 3),
    (small_file().replace(b"N 1 0 0 1", b"N 1 1_0 0 1"), 3),
    (small_file().replace(b"N 1 0 0 1", "N 1 ٣ 0 1".encode()), 3),
    (small_file().replace(b"E 1 2", b"E 1 +2"), 6),
    (b"cascadelab-graph v1 2 0\r\nN 0 0 0 0\r\nN 1 0 0 1\r\n", 1),
    (b"cascadelab-graph v1 2 0\nN 0 0 0 0\r\nN 1 0 0 1\n", 2),
])
def test_non_canonical_integer_field_names_its_line(data, lineno):
    per_line_deserialize(data)  # the old parser read these
    with pytest.raises(GraphFormatError,
                       match=f"^line {lineno}: non-canonical integer field"):
        deserialize(data)


@pytest.mark.parametrize("line", [b"N 1 0 0 " + b"9" * 20,
                                  b"N 1 " + b"9" * 20 + b" 0 1",
                                  b"N 1 9223372036854775808 0 1"])
def test_field_past_int64_names_its_line(line):
    data = small_file().replace(b"N 1 0 0 1", line)
    with pytest.raises(OverflowError):
        per_line_deserialize(data)
    with pytest.raises(GraphFormatError, match="^line 3: .*int64"):
        deserialize(data)
    # the largest int64 still loads
    edge = small_file().replace(b"N 1 0 0 1", b"N 1 0 0 9223372036854775807")
    assert deserialize(edge).birth_time[1] == 2**63 - 1


@pytest.mark.parametrize("birth", [b"9223372036854775808", b"9" * 20])
def test_field_past_int64_before_a_bad_tag_names_its_line(birth):
    data = (small_file().replace(b"N 1 0 0 1", b"N 1 0 0 " + birth)
            .replace(b"HOMOPHYLY", b"HOMOPHILY"))
    with pytest.raises(GraphFormatError, match="^line 3: .*int64"):
        deserialize(data)


def _edited(lines, at, edit):
    lines = list(lines)
    lines[at] = edit(lines[at].split(b" "))
    return lines


# defects in the last lines of a file: (edited lines, index of the bad line)
LAST_LINE_DEFECTS = {
    "edge-out-of-order": lambda lines, n: (
        [*lines[:-2], lines[-1], lines[-2]], len(lines) - 1),
    "duplicate-edge": lambda lines, n: ([*lines[:-1], lines[-2]], len(lines) - 1),
    "past-int64-then-bad-tag": lambda lines, n: (_edited(
        _edited(lines, -1, lambda f: b" ".join([*f[:3], b"PLAINS"])),
        n, lambda f: b" ".join([*f[:4], b"9" * 20])), n),
    "negative-field": lambda lines, n: (_edited(
        lines, n, lambda f: b" ".join([f[0], f[1], b"-1", *f[3:]])), n),
    "value-count-off-by-one": lambda lines, n: (_edited(
        lines, -1, lambda f: b" ".join([f[0], f[1], f[3]])), len(lines) - 1),
    "lowercase-letter": lambda lines, n: (
        [*lines[:-1], lines[-1].lower()], len(lines) - 1),
    "x-inside-a-field": lambda lines, n: (_edited(
        lines, -1, lambda f: b" ".join([f[0], f[1][:1] + b"x" + f[1][1:],
                                        *f[2:]])), len(lines) - 1),
    "decimal-field": lambda lines, n: (_edited(
        lines, n, lambda f: b" ".join([*f[:4], b"3.5"])), n),
}


@functools.cache
def security_lines(n):
    g = gen_security(n, 5, 1.5)
    return g.n, serialize(g).split(b"\n")[:-1]


def assert_checker_gets_one_line(n, lines, defect):
    """A defect in the last lines reaches the per-line checker as that one
    line, with the header: no error scans the file line by line."""
    lines, bad = LAST_LINE_DEFECTS[defect](lines, n)
    handed, read = [], set()

    def checker(line, count, flagged):
        handed.append(flagged)

        def recorded(lineno):
            read.add(lineno)
            return line(lineno)

        return first_error(recorded, count, flagged)

    first_error = graph._first_error
    with mock.patch.object(graph, "_first_error", checker):
        with pytest.raises(GraphFormatError, match=f"^line {bad + 1}: "):
            deserialize(b"".join(line + b"\n" for line in lines))
    assert handed == [bad + 1]
    assert read <= {1, bad, bad + 1}  # the header, the line and its predecessor


@pytest.mark.parametrize("defect", sorted(LAST_LINE_DEFECTS))
def test_error_in_last_lines_hands_the_checker_one_line(defect):
    assert_checker_gets_one_line(*security_lines(20_000), defect)


# a piece per line parses a line at a time, so this reads a smaller file
@pytest.mark.parametrize("defect", sorted(LAST_LINE_DEFECTS))
def test_error_in_last_lines_of_line_pieces_hands_the_checker_one_line(defect):
    with pieces_of(1):
        assert_checker_gets_one_line(*security_lines(300), defect)


REAL_FROMSTRING = np.fromstring


def _numpy_1_fromstring(refused):
    """np.fromstring as numpy 1.x has it: where it cannot read the text to
    its end, it warns and returns the integers before that point; each such
    text is appended to ``refused``."""

    def fromstring(text, dtype, sep):
        try:
            return REAL_FROMSTRING(text, dtype=dtype, sep=sep)
        except ValueError:
            refused.append(text)
            warnings.warn("string or file could not be read to its end due "
                          "to unmatched data", DeprecationWarning, stacklevel=2)
            head = re.match(rb"\s*(?:[0-9]+\s+)*", text)[0]
            return REAL_FROMSTRING(head, dtype=dtype, sep=sep)

    return fromstring


@pytest.mark.parametrize("action", ["error", "default", "ignore"])
@pytest.mark.parametrize("data", [
    pytest.param(small_file().replace(b"E 1 2", b"E 1 x"), id="x-in-last-line"),
    pytest.param(four_edge_file().replace(b"N 1 0 0 1", b"N 1 0 0 1 7")
                 .replace(b"E 2 3", b"E 2 x"), id="full-count-before-x"),
    pytest.param(four_edge_file().replace(b"N 2 0 0 2", b"N 2 0 0 02")
                 .replace(b"E 2 3", b"E 2 3.5"), id="leading-zero-before-decimal"),
    pytest.param(small_file().replace(b"N 1 0 0 1", b"N 1 0 0 -1"),
                 id="sign"),
    pytest.param(b"cascadelab-graph v1 1 0\nN a b c d\n", id="no-digits"),
])
def test_numpy_1_fromstring_gives_the_same_error(data, action):
    """numpy 2 raises where numpy 1.x warns and returns a short array.  The
    reader hands np.fromstring digits and blanks only, so neither happens:
    under every warning filter the error is the same."""
    with pytest.raises(GraphFormatError) as expected:
        deserialize(data)
    refused = []
    with warnings.catch_warnings(record=True):
        warnings.simplefilter(action)
        with mock.patch.object(graph.np, "fromstring",
                               _numpy_1_fromstring(refused)):
            with pytest.raises(GraphFormatError) as got:
                deserialize(data)
    assert str(got.value) == str(expected.value)
    assert refused == []


def fromstring_spy(texts):
    """np.fromstring, appending each text it reads to ``texts``."""

    def fromstring(text, dtype, sep):
        texts.append(bytes(text))
        return REAL_FROMSTRING(text, dtype=dtype, sep=sep)

    return fromstring


def body_bytes(data, lines):
    """The byte count of the first ``lines`` lines after the header."""
    return sum(len(line) + 1 for line in data.split(b"\n")[1:1 + lines])


@pytest.mark.parametrize("data", [
    pytest.param(four_edge_file(), id="valid"),
    pytest.param(four_edge_file().replace(b"E 0 1", b"E 1 0"),
                 id="reversed-first-edge"),
    pytest.param(four_edge_file().replace(b"E 0 1 PLAIN", b"E 0 1 PLAINS"),
                 id="bad-first-tag"),
    pytest.param(four_edge_file().replace(b"E 0 1", b"E 0 9"),
                 id="dangling-first-edge"),
])
def test_piece_starting_at_the_first_edge_line(data):
    """The first piece holds the node lines alone, so the second starts at
    the first edge line, which follows no edge."""
    texts = []
    with pieces_of(body_bytes(data, 4)), mock.patch.object(
            graph.np, "fromstring", fromstring_spy(texts)):
        assert_parses_like_oracle(data)
    assert texts[0].count(b"\n") == 4


@pytest.mark.parametrize("data", [
    pytest.param(four_edge_file().replace(b"E 1 2", b"E 0 2"), id="duplicate"),
    pytest.param(four_edge_file().replace(b"E 1 2", b"E 0 1"),
                 id="out-of-order"),
])
def test_flagged_edge_whose_predecessor_ends_the_previous_piece(data):
    """The last edge key of a piece carries to the next: its first edge is
    flagged when it repeats or precedes the edge that ends the piece before."""
    texts = []
    with pieces_of(body_bytes(data, 4 + 2)), mock.patch.object(
            graph.np, "fromstring", fromstring_spy(texts)):
        with pytest.raises(GraphFormatError, match="^line 8: "):
            deserialize(data)
        assert_parses_like_oracle(data)
    assert texts[0].count(b"\n") == 4 + 2


def test_error_on_an_early_line_parses_one_piece():
    """A bad line 6 in a file of several pieces is named, with the line and
    message the oracle gives, before the pieces after the first are read."""
    n, lines = security_lines(20_000)
    lines = list(lines)
    lines[5] += b" 7"  # node 4: one value over
    data = b"".join(line + b"\n" for line in lines)
    assert len(data) > 2 * graph._PIECE
    texts = []
    with mock.patch.object(graph.np, "fromstring", fromstring_spy(texts)):
        with pytest.raises(GraphFormatError, match="^line 6: ") as got:
            deserialize(data)
    assert len(texts) <= 2
    assert ("error", "GraphFormatError", str(got.value)) == outcome(
        per_line_deserialize, data)


# the reader holds a few pieces and the writer a few chunks at a time: at
# n = 2e4, d = 10 (a 4 MiB file) they peak at about 6.5 and 7 MiB over what
# they read and return, where a whole-file reader took 12 MiB
TRANSIENT_BOUND = 9 * 2**20


@pytest.mark.skipif(tracemalloc.is_tracing(), reason="tracemalloc in use")
def test_load_and_save_hold_pieces_not_the_whole_file(tmp_path):
    g = gen_security(20_000, 10, 1.5)
    path = tmp_path / "g.graph"
    save_graph(g, path)
    size = path.stat().st_size
    arrays = sum(a.nbytes for a in (g.color, g.is_seed, g.birth_time,
                                    g.edge_u, g.edge_v, g.edge_tag))
    tracemalloc.start()
    try:
        loaded = load_graph(path)
        load_peak = tracemalloc.get_traced_memory()[1] - size - arrays
        tracemalloc.stop()
        tracemalloc.start()
        save_graph(loaded, tmp_path / "again.graph")
        save_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == g
    assert (tmp_path / "again.graph").read_bytes() == path.read_bytes()
    assert load_peak < TRANSIENT_BOUND, f"load_graph held {load_peak} B"
    assert save_peak < TRANSIENT_BOUND, f"save_graph held {save_peak} B"


def test_load_graph_streams_the_file(tmp_path):
    """load_graph reads its pieces from the open file: it peaks below the
    graph's arrays plus the transient bound, with nothing for the file."""
    g = gen_security(20_000, 10, 1.5)
    path = tmp_path / "g.graph"
    save_graph(g, path)
    arrays = sum(a.nbytes for a in (g.color, g.is_seed, g.birth_time,
                                    g.edge_u, g.edge_v, g.edge_tag))
    loaded, peak = traced_peak(lambda: load_graph(path))
    assert loaded == g
    assert peak - arrays < TRANSIENT_BOUND, f"load_graph held {peak - arrays} B"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
@pytest.mark.parametrize("bad", [False, True], ids=["valid", "bad-line-6"])
def test_load_graph_reads_a_fifo_whole(tmp_path, bad):
    """A FIFO has no size to check the header against, so it is read whole;
    it gives the same graph, or the same error, as the same bytes."""
    data = serialize(gen_er(300, 4, master_seed=1))
    if bad:
        data = data.replace(b"\nN 4 ", b"\nN 4 7 ", 1)
    fifo = tmp_path / "g.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        assert outcome(load_graph, fifo) == outcome(deserialize, data)
    finally:
        writer.join(10)
    assert not writer.is_alive()


def test_serialize_holds_the_file_once(security_big):
    """serialize writes its chunks into one buffer, which grows by up to
    an eighth: it peaks near the file's size plus one chunk's transients,
    where joining held every chunk and the joined bytes at once."""
    data, peak = traced_peak(lambda: serialize(security_big))
    assert peak < len(data) + len(data) // 8 + TRANSIENT_BOUND, \
        f"serialize held {peak} B for a {len(data)} B file"


@pytest.mark.parametrize("over", [True, False], ids=["value-over-first",
                                                     "bad-byte-first"])
def test_first_bad_line_is_named_before_a_later_bad_byte(over):
    """Lines are decoded only as the checker reads them: a value too many
    on line 6 is named before a byte that is not UTF-8 on line 41, which
    is named by its own line when it comes first."""
    lines = serialize(gen_er(50, 4, master_seed=1)).split(b"\n")
    if over:
        lines[5] += b" 7"
    lines[40] = lines[40].replace(b" ", b" \xff", 1)
    data = b"\n".join(lines)
    with pytest.raises(GraphFormatError) as got:
        deserialize(data)
    expected = "line 6: " if over else "line 41: not valid UTF-8: "
    assert str(got.value).startswith(expected)
    assert ("error", "GraphFormatError", str(got.value)) == outcome(
        per_line_deserialize, data)


def test_save_graph_failing_after_its_first_chunk_keeps_the_previous_file(
        tmp_path, monkeypatch):
    path = tmp_path / "g.graph"
    save_graph(gen_er(300, 4, master_seed=1), path)
    previous = path.read_bytes()
    lines = graph._lines

    def first_then_fail(g):
        yield next(lines(g))
        raise RuntimeError("writer failed")

    monkeypatch.setattr(graph, "_lines", first_then_fail)
    with pytest.raises(RuntimeError, match="writer failed"):
        save_graph(gen_er(300, 4, master_seed=2), path)
    assert path.read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == ["g.graph"]


def piece_ends(data):
    """The end of each piece the reader cuts data into, at the default
    piece size."""
    ends, at = [], data.index(b"\n") + 1
    while at < len(data):
        at = data.find(b"\n", at + graph._PIECE - 1) + 1 or len(data)
        ends.append(at)
    return ends


@pytest.fixture(scope="module")
def er_file():
    """A 7 MB file whose first piece ends among the node lines and whose
    second ends among the edge lines."""
    data = serialize(gen_er(60_000, 10, 1))
    first, second = piece_ends(data)[:2]
    assert data[first:first + 2] == b"N " and data[second:second + 2] == b"E "
    return data


@pytest.mark.parametrize("piece", [0, 1], ids=["node-lines", "edge-lines"])
@pytest.mark.parametrize("tail", [b"E\n", b"\n"], ids=["E", "empty"])
def test_short_last_line_after_a_piece_boundary_names_its_line(
        er_file, tmp_path, capsys, piece, tail):
    """A file cut where a piece ends, then given one short line, makes a
    last piece of one short row; the error names a line, as the oracle's
    does, and the CLI exits 2."""
    data = er_file[:piece_ends(er_file)[piece]] + tail
    lines = data.count(b"\n")
    with pytest.raises(GraphFormatError, match=f"^line {lines}: ") as got:
        deserialize(data)
    assert ("error", "GraphFormatError", str(got.value)) == outcome(
        per_line_deserialize, data)
    path = tmp_path / "cut.graph"
    path.write_bytes(data)
    assert main(["injure", "--graph", str(path), "--k", "3",
                 "--out", str(tmp_path / "i.csv")]) == 2
    assert f"error: line {lines}: " in capsys.readouterr().err
