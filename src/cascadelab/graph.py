"""Labeled undirected graphs with node metadata and edge provenance.

The graph type used throughout cascadelab: a simple undirected graph whose
nodes carry a color id, a seed flag and a birth time (node ids double as
birth times for generated graphs), and whose edges carry a provenance tag
recording which construction rule created them.

Storage is array-based (numpy): edge endpoint arrays plus lazily built CSR
adjacency arrays (``indptr``, ``indices``), so a 10^5-node graph with 10^6
edges costs a few tens of MB and all bulk queries are vectorized.  Graphs are immutable after construction
and safe to share across worker processes or threads.

File format (version 1, UTF-8, LF line endings)::

    cascadelab-graph v1 <n> <m>
    N <id> <color> <is_seed:0|1> <birth_time>     # n lines, sorted by id
    E <u> <v> <provenance>                        # m lines, u < v,
                                                  # sorted by (u, v)

Provenance is one of INITIAL, PA_GLOBAL, SEED_LINK, HOMOPHYLY, PLAIN.
The format is canonical: node lines must appear in id order and edge lines
in ascending (u, v) order, so serialization round-trips bit-exactly.

Both directions work on column slices of bounded size, so neither holds
more than the graph's arrays and a few MB.  The writer builds each chunk
of _CHUNK rows as one byte matrix: right-aligned digit tables (node ids
and edge endpoints share one), broadcast separators and a tag-name table,
with leading zeros held as 0 bytes that one compress drops.
:func:`save_graph` streams those chunks to the file, and :func:`serialize`
writes them into one buffer.

The reader has no grammar of its own: the writer defines the format.  It
checks the header's counts against the input's size, then reads the body
from the open file (or from the bytes given to :func:`deserialize`) in
pieces of _PIECE bytes, each carried on to its line's end, straight into
preallocated node and edge columns; only a pipe, of unknown size, is read
whole.  In each piece it reads every digit run with one ``np.fromstring``
call (any other byte reads as a blank) and each tag from two of its
letters, checks ``u < v < n`` and the edge order with array operations
(the last edge key carries to the next piece), and writes the piece's rows
back against its input before it reads the next piece.  A file is
canonical exactly when every byte matches; a sign, a leading zero, a
``\r``, a wrong id, tag or seed flag and a field past int64 (read as
2**63 - 1) each change one.  The first bad line stops the read and goes
to the per-line checker, which reads the input again, decodes only the
header and that line (with its predecessor) and writes every format
error.  The one leniency is a missing final newline.
"""

from __future__ import annotations

import io
import itertools
import os
import re
import stat
from enum import IntEnum
from pathlib import Path

import numpy as np


class EdgeTag(IntEnum):
    """Edge provenance: which construction rule created the edge."""

    INITIAL = 0     # edge of the initial complete graph
    PA_GLOBAL = 1   # a new seed's single degree-proportional edge over all nodes
    SEED_LINK = 2   # a new seed's uniform link to an existing seed
    HOMOPHYLY = 3   # a non-seed's degree-proportional edge inside its color class
    PLAIN = 4       # baseline models (ER / PA) with no provenance story


FORMAT_MAGIC = "cascadelab-graph"
FORMAT_VERSION = "v1"


class GraphFormatError(ValueError):
    """Raised for malformed graph files; message names the offending line."""


class LabeledGraph:
    """Immutable simple undirected graph with per-node metadata.

    Generators and :func:`deserialize` call the constructor with arrays.
    Node ids are dense in [0, n); edges are stored with u < v.
    Construction validates simplicity: no self-loops, no duplicate edges,
    endpoints in range.
    """

    __slots__ = ("n", "color", "is_seed", "birth_time", "edge_u", "edge_v",
                 "edge_tag", "_derived")

    def __init__(self, n, color, is_seed, birth_time, edge_u, edge_v, edge_tag,
                 *, validate: bool = True):
        self.n = int(n)
        self.color = np.ascontiguousarray(color, dtype=np.int64)
        self.is_seed = np.ascontiguousarray(is_seed, dtype=bool)
        self.birth_time = np.ascontiguousarray(birth_time, dtype=np.int64)
        u = np.ascontiguousarray(edge_u, dtype=np.int64)
        v = np.ascontiguousarray(edge_v, dtype=np.int64)
        tag = np.ascontiguousarray(edge_tag, dtype=np.uint8)
        # canonical endpoint order u < v
        swap = u > v
        if swap.any():
            u, v = np.where(swap, v, u), np.where(swap, u, v)
        # canonical edge order (u, v) ascending: distinct keys u*n + v (n <= 3e9) sort one way
        if ((u[1:] < u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] < v[:-1]))).any():
            order = np.argsort(u * self.n + v)
            u, v, tag = u[order], v[order], tag[order]
        self.edge_u = u
        self.edge_v = v
        self.edge_tag = tag
        self._derived: dict = {}
        if validate:
            self._validate()

    # ---- validation -------------------------------------------------------

    def _validate(self) -> None:
        n, m = self.n, self.m
        if n < 0:
            raise ValueError("node count must be non-negative")
        for name in ("color", "is_seed", "birth_time"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have length n={n}")
        if not self.edge_v.shape == self.edge_tag.shape == (m,):
            raise ValueError("edge arrays must have equal length")
        if m:
            if self.edge_u.min(initial=0) < 0 or self.edge_v.max(initial=-1) >= n:
                raise ValueError("edge endpoint out of range")
            if (self.edge_u == self.edge_v).any():
                raise ValueError("self-loops are not allowed")
            u, v = self.edge_u, self.edge_v
            dup = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
            if dup.any():
                i = int(np.flatnonzero(dup)[0])
                raise ValueError(
                    f"duplicate edge ({self.edge_u[i]}, {self.edge_v[i]})")
        if self.edge_tag.max(initial=0) >= len(EdgeTag):
            raise ValueError("unknown edge tag")
        if (self.color < 0).any():
            raise ValueError("colors must be non-negative")
        if (self.birth_time < 0).any():
            raise ValueError("birth times must be non-negative")

    # ---- basic queries ----------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return int(self.edge_u.shape[0])

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every node, as an int64 array of length n."""
        return self.cached("degrees", lambda: (
            np.bincount(self.edge_u, minlength=self.n)
            + np.bincount(self.edge_v, minlength=self.n)).astype(np.int64))

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency (indptr, indices); neighbor lists sorted ascending."""
        return self.csr()

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The cached CSR (indptr, indices) of both edge directions (see _csr)."""
        return self.cached("csr", lambda: _csr(self.n, self.edge_u, self.edge_v))

    def cached(self, key: str, builder):
        """Memoize a derived structure on this (immutable) graph."""
        try:
            return self._derived[key]
        except KeyError:
            value = builder()
            self._derived[key] = value
            return value

    # ---- equality / repr --------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.color, other.color)
            and np.array_equal(self.is_seed, other.is_seed)
            and np.array_equal(self.birth_time, other.birth_time)
            and np.array_equal(self.edge_u, other.edge_u)
            and np.array_equal(self.edge_v, other.edge_v)
            and np.array_equal(self.edge_tag, other.edge_tag)
        )

    def __hash__(self):  # O(1), and equal graphs have equal n and m
        return hash((self.n, self.m))

    def __repr__(self) -> str:
        kinds = np.bincount(self.edge_tag, minlength=len(EdgeTag))
        tags = ", ".join(
            f"{EdgeTag(i).name}={int(c)}" for i, c in enumerate(kinds) if c)
        return f"LabeledGraph(n={self.n}, m={self.m}, {tags or 'no edges'})"


def _csr(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of the n-node edges (u[i], v[i]), both ways.

    Each directed edge is the int64 key ``u * n + v``; sorted, the keys
    list row u's neighbors in ascending order, so row u starts at the
    first key >= u * n.  n * n must fit in int64.
    """
    if n > 3_000_000_000:
        raise ValueError(f"CSR keys u*n + v overflow int64 for n={n}; "
                         "at most 3e9 nodes")
    m = u.shape[0]
    keys = np.empty(2 * m, dtype=np.int64)  # sorted, then turned into indices
    np.add(np.multiply(u, n, out=keys[:m]), v, out=keys[:m])
    np.add(np.multiply(v, n, out=keys[m:]), u, out=keys[m:])
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return indptr, np.remainder(keys, n, out=keys)


def _node_ids(ids, n: int, what: str, *, as_set: bool = False) -> np.ndarray:
    """ids as an int64 array (sorted, without repeats, when as_set), each
    checked to be an integer (TypeError) in [0, n) (IndexError); both
    errors name what the ids are."""
    if np.iterable(ids) and not isinstance(ids, np.ndarray):
        ids = list(ids)  # a set or a generator as well as a sequence
    arr = np.asarray(ids)
    if arr.size and arr.dtype.kind not in "iu":
        raise TypeError(f"{what} holds a non-integer node id")
    arr = _distinct(arr) if as_set else arr
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise IndexError(f"{what} holds a node id out of range [0, {n})")
    return arr.astype(np.int64, copy=False)


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a, ascending: np.unique by a sort, since
    numpy 2's hash table takes 10-20x as long on 100+ int64 values."""
    a = np.sort(a, axis=None)
    return np.concatenate((a[:1], a[1:][a[1:] != a[:-1]]))


def _gather_neighbors(indptr, indices, frontier) -> np.ndarray:
    """All neighbors of the frontier nodes, concatenated (with repeats); for
    one node, a view of the cached CSR's ``indices``: never change it in place."""
    if frontier.size == 1:  # one row: a view, without the index arithmetic
        return indices[indptr[frontier[0]]:indptr[frontier[0] + 1]]
    starts = indptr[frontier]
    lens = indptr[frontier + 1] - starts
    cum = np.cumsum(lens)
    shift = np.repeat(starts - (cum - lens), lens)
    return indices[np.arange(shift.size, dtype=np.int64) + shift]


def largest_connected_component(g: LabeledGraph, excluded=()) -> np.ndarray:
    """Node set of the largest connected component of g minus `excluded`.

    Ties between equal-size components are broken toward the component
    containing the smallest surviving node id, so the result is a
    deterministic function of the input.  Returns a sorted int64 array
    (empty when nothing survives).
    """
    excluded = _node_ids(excluded, g.n, "excluded set", as_set=True)
    keep = np.ones(g.n, dtype=bool)
    if excluded.size == 0:
        return g.cached("lcc", lambda: _lcc_of(g, keep))
    keep[excluded] = False
    return _lcc_of(g, keep)


def _component_labels(g: LabeledGraph, keep: np.ndarray) -> np.ndarray:
    """Label every node by the smallest node id in its connected component
    of the subgraph induced by the `keep` mask; a removed node keeps its
    own id.

    Every round runs over _CHUNK slices of the edges, copying no edge
    column: it hooks the larger label of each kept edge still apart to the
    smaller one, then pointer-jumps every label to its root.  Labels stay
    ids in their component and only fall, so a component's root is its
    smallest id.  The round that hooks nothing is the last.
    """
    labels = np.arange(g.n, dtype=np.int64)
    joined = True
    while joined:
        joined = False
        for a in range(0, g.m, _CHUNK):
            u, v = g.edge_u[a:a + _CHUNK], g.edge_v[a:a + _CHUNK]
            lu, lv = labels[u], labels[v]
            apart = np.flatnonzero(lu != lv)  # after round one, few edges
            apart = apart[keep[u[apart]] & keep[v[apart]]]
            if apart.size:
                joined = True
                lu, lv = lu[apart], lv[apart]
                np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
    return labels


def _lcc_of(g: LabeledGraph, keep: np.ndarray) -> np.ndarray:
    survivors = np.flatnonzero(keep)
    if survivors.size == 0:
        return survivors
    labels = _component_labels(g, keep)[survivors]
    # a component's label is its smallest id, so argmax's first maximum
    # is the largest component with the smallest surviving id
    best = np.argmax(np.bincount(labels))
    return survivors[labels == best]


# ---- serialization ---------------------------------------------------------


_CHUNK = 1 << 16  # rows per assembled block, which bounds the temporaries
_PIECE = 1 << 20  # body bytes per parsed piece, cut at the next newline
# tag names as table rows, left-aligned and padded with 0 bytes
_TAG_TABLE = np.array([tag.name.encode() for tag in EdgeTag]).view(
    np.uint8).reshape(len(EdgeTag), -1)


def _digits(x: np.ndarray) -> np.ndarray:
    """The decimal digits of non-negative integers x as a right-aligned
    (len(x), w) ASCII table, w wide enough for the largest; a leading zero
    is a 0 byte, and zero itself keeps one "0"."""
    if x.size and x.min() < 0:
        raise ValueError("only non-negative integers can be written")
    q = x.astype(np.uint64)
    w = len(str(int(q.max(initial=0))))
    table = np.empty((q.shape[0], w), dtype=np.uint8)
    for j in range(w - 1, -1, -1):
        rest = q // 10
        digit = (q - rest * 10).astype(np.uint8) + 48
        if j < w - 1:
            digit *= q != 0  # nothing of the value is left: a leading zero
        table[:, j] = digit
        q = rest
    return table


def _rows(count: int, *fields):
    """The bytes of ``count`` rows as uint8 arrays, _CHUNK rows each.

    A field is a bytes literal, the same in every row; an integer column,
    written in decimal; or a pair (table, index) of a uint8 table and an
    integer column, writing row index[i] of the table.  Each chunk is one
    (rows, width) byte matrix whose 0 bytes are dropped by one compress.
    """
    for a in range(0, count, _CHUNK):
        b = min(a + _CHUNK, count)
        blocks = []
        for f in fields:
            if isinstance(f, bytes):
                lit = np.frombuffer(f, dtype=np.uint8)
                blocks.append(np.broadcast_to(lit, (b - a, lit.shape[0])))
            elif isinstance(f, tuple):
                blocks.append(np.take(f[0], f[1][a:b], axis=0))
            else:
                blocks.append(_digits(f[a:b]))
        block = np.concatenate(blocks, axis=1)
        yield block[block != 0]


def _node_rows(ids, first: int, color, is_seed, birth_time):
    """The lines of nodes first, first + 1, ... as _rows chunks; ids is the
    digit table of every node id, shared with the edge endpoints."""
    node = np.arange(first, first + len(color))
    return _rows(len(color), b"N ", (ids, node), b" ", color, b" ", is_seed,
                 b" ", birth_time, b"\n")


def _edge_rows(ids, u, v, tag):
    """The lines of edges (u, v, tag) as _rows chunks."""
    return _rows(len(u), b"E ", (ids, u), b" ", (ids, v), b" ",
                 (_TAG_TABLE, tag), b"\n")


def _lines(g: LabeledGraph):
    """The header, the node lines and the edge lines of g, as chunks."""
    yield f"{FORMAT_MAGIC} {FORMAT_VERSION} {g.n} {g.m}\n".encode("utf-8")
    ids = _digits(np.arange(g.n))
    yield from _node_rows(ids, 0, g.color, g.is_seed, g.birth_time)
    yield from _edge_rows(ids, g.edge_u, g.edge_v, g.edge_tag)


def serialize(g: LabeledGraph) -> bytes:
    """Serialize to the canonical v1 text format (UTF-8 bytes, LF endings)."""
    out = io.BytesIO()  # one growing buffer, never the chunks and their join
    out.writelines(_lines(g))
    return out.getvalue()


_HEADER = re.compile(re.escape(f"{FORMAT_MAGIC} {FORMAT_VERSION} ".encode())
                     + rb"(0|[1-9][0-9]{0,18}) (0|[1-9][0-9]{0,18})\n")
# every byte but a digit or a newline reads as a blank, so np.fromstring
# meets only digit runs, whatever numpy version; the write-back checks the rest
_DIGITS_ONLY = bytes(c if c in b"0123456789\n" else ord(" ") for c in range(256))
_TAG_BY_LETTERS = np.zeros((256, 256), dtype=np.uint8)  # last, 4th-to-last
for _tag in EdgeTag:
    _TAG_BY_LETTERS[ord(_tag.name[-1]), ord(_tag.name[-4])] = _tag
_CANONICAL_INT = re.compile(r"0|[1-9][0-9]*")


def deserialize(data: bytes) -> LabeledGraph:
    """Parse the v1 format; errors name the offending line."""
    return _read(io.BytesIO(data), len(data))


def _read(fh, size: int) -> LabeledGraph:
    """Parse the v1 format from the binary stream fh of ``size`` bytes."""

    def fail(flagged=None, start=0):  # raises
        fh.seek(0)
        _check_lines(fh.read(), flagged, start)

    header = fh.readline()
    head = _HEADER.match(header.rstrip(b"\n") + b"\n")
    n, m = (int(head[1]), int(head[2])) if head else (0, 0)
    if head is None or n + m > size - len(header):
        fail()  # the header is bad, or too few lines follow
    # each line holds a newline, so n and m may size arrays from here on
    color, birth_time = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    is_seed = np.empty(n, dtype=bool)
    u, v = np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64)
    tag = np.empty(m, dtype=np.uint8)
    ids = _digits(np.arange(n))
    at, row, last = len(header), 0, -1  # the piece's first byte and row; the last edge key
    while data := fh.read(_PIECE):
        if not data.endswith(b"\n"):  # on to the line's end, which may lack its newline
            data += fh.readline().rstrip(b"\n") + b"\n"
        piece = np.frombuffer(data, dtype=np.uint8)
        ends = np.flatnonzero(piece == ord("\n"))  # ends[j] closes the piece's row j
        if row + len(ends) > n + m:
            fail()  # too many lines
        i0, i1 = min(row, n), min(row + len(ends), n)  # its node rows, then
        e0, e1 = row - i0, row + len(ends) - i1  # its edge rows
        nodes = i1 - i0
        values = np.fromstring(data.translate(_DIGITS_ONLY), dtype=np.int64, sep=" ")
        if values.size != 4 * nodes + 2 * (e1 - e0):  # a miscounted line will not write back
            values = np.resize(values, 4 * nodes + 2 * (e1 - e0))
        node = values[:4 * nodes].reshape(-1, 4)
        color[i0:i1], birth_time[i0:i1] = node[:, 1], node[:, 3]
        is_seed[i0:i1] = node[:, 2] == 1
        pu, pv = u[e0:e1], v[e0:e1]
        pu[:], pv[:] = values[4 * nodes:].reshape(-1, 2).T
        # clipped: a first row shorter than a tag would index before the piece
        tag[e0:e1] = _TAG_BY_LETTERS[piece.take(ends[nodes:] - 1, mode="clip"),
                                     piece.take(ends[nodes:] - 4, mode="clip")]
        key = pu * n + pv  # exact up to the first v >= n
        # a sign reads as a blank, so no field is < 0
        flagged = (pu >= pv) | (pv >= n) | (np.diff(key, prepend=last) <= 0)
        f = int(flagged.argmax()) if flagged.any() else e1 - e0
        last = key[-1] if e1 > e0 else last
        bad = nodes + f  # the piece's first bad row, past its last while none is known
        # the rows before the flagged one must write back unchanged
        given, chunk, rest = 0, None, None  # the last piece's chunk and view go first
        for chunk in itertools.chain(
                _node_rows(ids, i0, color[i0:i1], is_seed[i0:i1],
                           birth_time[i0:i1]),
                _edge_rows(ids, pu[:f], pv[:f], tag[e0:e0 + f])):
            rest = piece[given:given + chunk.size]
            differ = np.flatnonzero(chunk[:rest.size] != rest)
            if differ.size:
                bad = int(np.searchsorted(ends, given + differ[0]))
                break
            given += chunk.size
        if bad < len(ends):
            fail(2 + row + bad, at + int(ends[bad - 1]) + 1 if bad else at)
        at, row = at + len(data), row + len(ends)
    if row < n + m:
        fail()  # too few lines
    return LabeledGraph(n, color, is_seed, birth_time, u, v, tag)


def _check_lines(data: bytes, flagged=None, start=0) -> None:
    """Raise the format error of the first bad one of the header, the line
    count and the flagged line, which starts at byte ``start``, decoding
    only the lines it reads."""
    if data and not data.endswith(b"\n"):
        data += b"\n"

    def line(i):  # the header, the flagged line or its predecessor
        a = 0 if i == 1 else start if i == flagged else \
            data.rfind(b"\n", 0, start - 1) + 1
        try:
            return data[a:data.find(b"\n", a)].decode()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"line {i}: not valid UTF-8: {exc}") from None

    raise GraphFormatError(
        "line %d: %s" % _first_error(line, data.count(b"\n"), flagged))


def _first_error(line, count: int, flagged) -> tuple[int, str] | None:
    """(line number, message) of the first bad line among the header, the
    line count and the flagged line, whose predecessors must be good;
    ``line(i)`` is the text of line i of ``count``."""
    if not count:
        return 1, "empty file, expected header"
    head = line(1).split(" ")
    if len(head) != 4 or head[0] != FORMAT_MAGIC or head[1] != FORMAT_VERSION:
        return 1, f"malformed header {line(1)!r}"
    try:
        n, m = int(head[2]), int(head[3])
    except ValueError:
        return 1, f"malformed header counts {line(1)!r}"
    if n < 0 or m < 0:
        return 1, "negative node or edge count"
    if count != 1 + n + m:
        return count, (f"expected {1 + n + m} lines for n={n}, m={m}, "
                       f"found {count}")
    for lineno in (1, flagged) if flagged else (1,):
        text = line(lineno)
        parts = text.split(" ")
        fields = parts[1:]
        if lineno == 1:
            fields = parts[2:]
        elif lineno <= 1 + n:
            if len(parts) != 5 or parts[0] != "N":
                return lineno, f"malformed node line {text!r}"
            try:
                nid, col, seed, bt = map(int, fields)
            except ValueError:
                return lineno, f"non-integer field in node line {text!r}"
            if nid != lineno - 2:
                return lineno, (f"node lines must be sorted by id; "
                                f"expected {lineno - 2}, got {nid}")
            if seed not in (0, 1):
                return lineno, "is_seed must be 0 or 1"
            if col < 0 or bt < 0:
                return lineno, "color and birth_time must be non-negative"
            if max(col, bt) >= 2**63:
                return lineno, "color and birth_time must fit in int64"
        else:
            if len(parts) != 4 or parts[0] != "E":
                return lineno, f"malformed edge line {text!r}"
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                return lineno, f"non-integer endpoint in {text!r}"
            if parts[3] not in EdgeTag.__members__:
                return lineno, f"unknown provenance {parts[3]!r}"
            if not (0 <= u < n) or not (0 <= v < n):
                return lineno, f"dangling edge endpoint ({u}, {v}) with n={n}"
            if u >= v:
                return lineno, f"edge endpoints must satisfy u < v, got ({u}, {v})"
            prev = (-1, -1)
            if lineno > n + 2:  # an edge line, good or it would be named
                before = line(lineno - 1).split(" ")
                prev = (int(before[1]), int(before[2]))
            if (u, v) == prev:
                return lineno, f"duplicate edge ({u}, {v})"
            if (u, v) < prev:
                return lineno, (f"edge lines not in canonical (u, v) order "
                                f"at ({u}, {v})")
            fields = parts[1:3]
        if not all(map(_CANONICAL_INT.fullmatch, fields)):
            return lineno, f"non-canonical integer field in {text!r}"
    return None


def _write_atomic(path, data) -> None:
    """Write data, bytes or an iterable of byte chunks, through one handle
    to a temp name beside path and rename it over path, so an interrupted
    or failed write leaves the previous file whole.  A symlink's target is
    replaced; a FIFO, a tty or another non-regular file (``/dev/stdout``
    as a pipe, say) is written in place."""
    chunks = (data,) if isinstance(data, bytes) else data
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except OSError:  # a new path; a bad one fails below with its own error
        regular = True
    if not regular:
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        return
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_graph(g: LabeledGraph, path) -> None:
    """Write g to path in the v1 format, chunk by chunk (see _write_atomic)."""
    _write_atomic(path, _lines(g))


def load_graph(path) -> LabeledGraph:
    """Read the v1 graph file at path piece by piece; a pipe or another
    file of unknown size is read whole."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            return deserialize(fh.read())
        return _read(fh, info.st_size)
