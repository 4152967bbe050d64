"""Labeled undirected graphs with node metadata and edge provenance.

The graph type used throughout cascadelab: a simple undirected graph whose
nodes carry a color id, a seed flag and a birth time (node ids double as
birth times for generated graphs), and whose edges carry a provenance tag
recording which construction rule created them.

Storage is array-based (numpy): edge endpoint arrays plus lazily built CSR
adjacency, so a 10^5-node graph with 10^6 edges costs a few tens of MB and
all bulk queries are vectorized.  Graphs are immutable after construction
and safe to share across worker processes or threads.

File format (version 1, UTF-8, LF line endings)::

    cascadelab-graph v1 <n> <m>
    N <id> <color> <is_seed:0|1> <birth_time>     # n lines, sorted by id
    E <u> <v> <provenance>                        # m lines, u < v,
                                                  # sorted by (u, v)

Provenance is one of INITIAL, PA_GLOBAL, SEED_LINK, HOMOPHYLY, PLAIN.
The format is canonical: node lines must appear in id order and edge lines
in ascending (u, v) order, so serialization round-trips bit-exactly.

Both directions work on whole columns.  :func:`serialize` formats rows
from ``tolist()`` chunks.  :func:`deserialize` first checks the whole file
against the canonical grammar with one regex per section, parses every
integer in one ``np.fromstring`` call, confirms the header counts by the
edge-line and integer counts, and checks ids, ``u < v < n`` and the edge
order with array operations.  A file
that fails any of these goes to the line-by-line parser, which is the only
code that writes format errors, so they keep naming the first bad line.
An integer field must be spelled as the writer spells it (ASCII digits, no
sign, no leading zero, nothing trailing such as a ``\r``); the one
leniency left is a missing final newline.
"""

from __future__ import annotations

import re
from enum import IntEnum

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph


class EdgeTag(IntEnum):
    """Edge provenance: which construction rule created the edge."""

    INITIAL = 0     # edge of the initial complete graph
    PA_GLOBAL = 1   # a new seed's single degree-proportional edge over all nodes
    SEED_LINK = 2   # a new seed's uniform link to an existing seed
    HOMOPHYLY = 3   # a non-seed's degree-proportional edge inside its color class
    PLAIN = 4       # baseline models (ER / PA) with no provenance story


_TAG_BY_NAME = {tag.name: tag for tag in EdgeTag}

FORMAT_MAGIC = "cascadelab-graph"
FORMAT_VERSION = "v1"


class GraphFormatError(ValueError):
    """Raised for malformed graph files; message names the offending line."""


class LabeledGraph:
    """Immutable simple undirected graph with per-node metadata.

    Generators and :func:`deserialize` call the constructor with arrays;
    :meth:`from_edges` builds one from edge tuples.  Node ids are dense in
    [0, n); edges are stored with u < v.  Construction validates
    simplicity: no self-loops, no duplicate edges, endpoints in range.
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
        # canonical edge order (u, v) ascending, deterministic for equal graphs;
        # the sort is stable, so edges already in order (generator output,
        # parsed files) skip it and keep their arrays
        du = np.diff(u)
        if ((du < 0) | ((du == 0) & (np.diff(v) < 0))).any():
            order = np.lexsort((v, u))
            u, v, tag = u[order], v[order], tag[order]
        self.edge_u = u
        self.edge_v = v
        self.edge_tag = tag
        self._derived: dict = {}
        if validate:
            self._validate()

    @classmethod
    def from_edges(cls, n, edges, *, color=None, is_seed=None, birth_time=None):
        """Build a graph from an iterable of (u, v) or (u, v, tag) tuples.

        Metadata defaults: color 0 everywhere, no seeds, birth_time = id.
        """
        edges = list(edges)
        if edges and len(edges[0]) == 3:
            eu = [e[0] for e in edges]
            ev = [e[1] for e in edges]
            et = [int(e[2]) for e in edges]
        else:
            eu = [e[0] for e in edges]
            ev = [e[1] for e in edges]
            et = [int(EdgeTag.PLAIN)] * len(edges)
        return cls(
            n,
            np.zeros(n, dtype=np.int64) if color is None else color,
            np.zeros(n, dtype=bool) if is_seed is None else is_seed,
            np.arange(n, dtype=np.int64) if birth_time is None else birth_time,
            np.asarray(eu, dtype=np.int64),
            np.asarray(ev, dtype=np.int64),
            np.asarray(et, dtype=np.uint8),
        )

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
            dup = (np.diff(self.edge_u) == 0) & (np.diff(self.edge_v) == 0)
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

        def build():
            a = self.csr()
            return a.indptr.astype(np.int64), a.indices.astype(np.int64)

        return self.cached("adjacency", build)

    def csr(self) -> sp.csr_matrix:
        """Symmetric 0/1 adjacency matrix in CSR form (cached)."""

        def build():
            row = np.concatenate([self.edge_u, self.edge_v])
            col = np.concatenate([self.edge_v, self.edge_u])
            data = np.ones(row.shape[0], dtype=np.int8)
            a = sp.coo_matrix((data, (row, col)), shape=(self.n, self.n)).tocsr()
            a.sort_indices()
            return a

        return self.cached("csr", build)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor ids of v, ascending."""
        if not 0 <= v < self.n:
            raise IndexError(f"node id {v} out of range [0, {self.n})")
        indptr, indices = self.adjacency()
        return indices[indptr[v]:indptr[v + 1]]

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

    def __hash__(self):  # identity hash; graphs are mutable-free but large
        return id(self)

    def __repr__(self) -> str:
        kinds = np.bincount(self.edge_tag, minlength=len(EdgeTag))
        tags = ", ".join(
            f"{EdgeTag(i).name}={int(c)}" for i, c in enumerate(kinds) if c)
        return f"LabeledGraph(n={self.n}, m={self.m}, {tags or 'no edges'})"


def largest_connected_component(g: LabeledGraph, excluded=()) -> np.ndarray:
    """Node set of the largest connected component of g minus `excluded`.

    Ties between equal-size components are broken toward the component
    containing the smallest surviving node id, so the result is a
    deterministic function of the input.  Returns a sorted int64 array
    (empty when nothing survives).
    """
    excluded = np.asarray(sorted(set(int(x) for x in excluded)), dtype=np.int64)
    if excluded.size and (excluded.min() < 0 or excluded.max() >= g.n):
        raise IndexError("excluded node id out of range")
    if excluded.size == 0:
        return g.cached(
            "lcc", lambda: _lcc_of(g, np.arange(g.n, dtype=np.int64)))
    keep = np.ones(g.n, dtype=bool)
    keep[excluded] = False
    survivors = np.flatnonzero(keep)
    return _lcc_of(g, survivors)


def _lcc_of(g: LabeledGraph, survivors: np.ndarray) -> np.ndarray:
    if survivors.size == 0:
        return survivors.astype(np.int64)
    if survivors.size == g.n:
        sub = g.csr()
    else:
        sub = g.csr()[survivors][:, survivors]
    _, labels = csgraph.connected_components(sub, directed=False)
    sizes = np.bincount(labels)
    best_size = sizes.max()
    # labels appear in survivor (= ascending id) order, so per-label first
    # occurrence identifies the component with the smallest surviving id
    candidates = np.flatnonzero(sizes == best_size)
    firsts = np.full(sizes.shape[0], g.n, dtype=np.int64)
    np.minimum.at(firsts, labels, np.arange(labels.shape[0]))
    best = candidates[np.argmin(firsts[candidates])]
    return survivors[labels == best].astype(np.int64)


# ---- serialization ---------------------------------------------------------


_CHUNK = 1 << 16  # rows per str.join, which bounds the temporary lists
_TAG_NAME_ARRAY = np.array([tag.name for tag in EdgeTag], dtype=object)


def _rows(template: str, *columns: np.ndarray):
    """Encoded ``template.format`` rows over equal-length columns, by chunk."""
    for a in range(0, columns[0].shape[0], _CHUNK):
        chunk = [c[a:a + _CHUNK].tolist() for c in columns]
        yield "".join(map(template.format, *chunk)).encode("utf-8")


def serialize(g: LabeledGraph) -> bytes:
    """Serialize to the canonical v1 text format (UTF-8 bytes, LF endings)."""
    head = f"{FORMAT_MAGIC} {FORMAT_VERSION} {g.n} {g.m}\n".encode("utf-8")
    nodes = _rows("N {} {} {} {}\n", np.arange(g.n), g.color,
                  g.is_seed.astype(np.int64), g.birth_time)
    edges = _rows("E {} {} {}\n", g.edge_u, g.edge_v,
                  _TAG_NAME_ARRAY[g.edge_tag])
    return b"".join([head, *nodes, *edges])


# Canonical lines only: \d is ASCII-only in a bytes pattern, 18 digits
# always fit int64, and the possessive *+ keeps no per-line backtracking
# state (a plain * costs memory in proportion to the file).
_UINT = rb"(?:0|[1-9]\d{0,17})"
_HEADER = re.compile(re.escape(f"{FORMAT_MAGIC} {FORMAT_VERSION} ".encode())
                     + rb"(%s) (%s)\n" % (_UINT, _UINT))
_NODE_LINES = re.compile(rb"(?:N %s %s [01] %s\n)*+" % (_UINT, _UINT, _UINT))
_EDGE_LINES = re.compile(
    rb"(?:E %s %s (?:%s)\n)*+"
    % (_UINT, _UINT, "|".join(tag.name for tag in EdgeTag).encode()))
_LETTERS_TO_BLANKS = bytes.maketrans(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ_", b" " * 27)
# a tag name is identified by its last and fourth-to-last letters
_TAG_BY_LETTERS = np.zeros((256, 256), dtype=np.uint8)
for _tag in EdgeTag:
    _TAG_BY_LETTERS[ord(_tag.name[-1]), ord(_tag.name[-4])] = _tag
assert len({(t.name[-1], t.name[-4]) for t in EdgeTag}) == len(EdgeTag)


def deserialize(data: bytes) -> LabeledGraph:
    """Parse the v1 format; errors name the offending line.

    A canonical file is checked and parsed in bulk.  Any other input goes
    to the line-by-line parser, which accepts a missing final newline and
    otherwise names the first bad line.
    """
    g = _parse_canonical(data)
    return _parse_lines(data) if g is None else g


def _parse_canonical(data: bytes) -> LabeledGraph | None:
    """Bulk parse of a canonical file; None if any check fails."""
    head = _HEADER.match(data)
    if head is None:
        return None
    n, m = int(head[1]), int(head[2])
    nodes_at = head.end()
    edges_at = _NODE_LINES.match(data, nodes_at).end()
    if (_EDGE_LINES.fullmatch(data, edges_at) is None
            or data.count(b"\n", edges_at) != m):
        return None
    values = np.fromstring(data[nodes_at:].translate(_LETTERS_TO_BLANKS),
                           dtype=np.int64, sep=" ")
    # m is confirmed by the line count and now n by the value count; only
    # from here on may the header counts size an array
    if values.shape[0] != 4 * n + 2 * m:
        return None
    node = values[:4 * n].reshape(n, 4)
    u, v = values[4 * n:].reshape(m, 2).T
    du = np.diff(u)
    if not ((node[:, 0] == np.arange(n)).all() and (u < v).all()
            and (v < n).all()
            and ((du > 0) | ((du == 0) & (np.diff(v) > 0))).all()):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = edges_at + np.flatnonzero(buf[edges_at:] == ord("\n"))
    tag = _TAG_BY_LETTERS[buf[ends - 1], buf[ends - 4]]
    return LabeledGraph(n, node[:, 1], node[:, 2] == 1, node[:, 3], u, v, tag)


_INT64_MAX = int(np.iinfo(np.int64).max)
_CANONICAL_INT = re.compile(r"0|[1-9][0-9]*")


def _fail(lineno: int, message: str):
    raise GraphFormatError(f"line {lineno}: {message}")


def _check_spelling(lineno: int, fields: list[str], line: str) -> None:
    """Reject integer fields that int() reads but the writer never writes
    (a sign, a leading zero, '_', non-ASCII digits, whitespace such as '\\r')."""
    if not all(map(_CANONICAL_INT.fullmatch, fields)):
        _fail(lineno, f"non-canonical integer field in {line!r}")


def _parse_lines(data: bytes) -> LabeledGraph:
    """Line-by-line parse; the only source of format error messages."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"not valid UTF-8: {exc}") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        _fail(1, "empty file, expected header")
    head = lines[0].split(" ")
    if len(head) != 4 or head[0] != FORMAT_MAGIC or head[1] != FORMAT_VERSION:
        _fail(1, f"malformed header {lines[0]!r}")
    try:
        n, m = int(head[2]), int(head[3])
    except ValueError:
        _fail(1, f"malformed header counts {lines[0]!r}")
    if n < 0 or m < 0:
        _fail(1, "negative node or edge count")
    if len(lines) != 1 + n + m:
        _fail(len(lines), f"expected {1 + n + m} lines for n={n}, m={m}, "
                          f"found {len(lines)}")
    _check_spelling(1, head[2:], lines[0])

    color = np.empty(n, dtype=np.int64)
    is_seed = np.empty(n, dtype=bool)
    birth = np.empty(n, dtype=np.int64)
    for i in range(n):
        lineno = 2 + i
        parts = lines[1 + i].split(" ")
        if len(parts) != 5 or parts[0] != "N":
            _fail(lineno, f"malformed node line {lines[1 + i]!r}")
        try:
            nid, col, seed, bt = (int(parts[1]), int(parts[2]),
                                  int(parts[3]), int(parts[4]))
        except ValueError:
            _fail(lineno, f"non-integer field in node line {lines[1 + i]!r}")
        if nid != i:
            _fail(lineno, f"node lines must be sorted by id; expected {i}, got {nid}")
        if seed not in (0, 1):
            _fail(lineno, "is_seed must be 0 or 1")
        if col < 0 or bt < 0:
            _fail(lineno, "color and birth_time must be non-negative")
        if col > _INT64_MAX or bt > _INT64_MAX:
            _fail(lineno, "color and birth_time must fit in int64")
        _check_spelling(lineno, parts[1:], lines[1 + i])
        color[i], is_seed[i], birth[i] = col, bool(seed), bt

    eu = np.empty(m, dtype=np.int64)
    ev = np.empty(m, dtype=np.int64)
    et = np.empty(m, dtype=np.uint8)
    prev = (-1, -1)
    for j in range(m):
        lineno = 2 + n + j
        parts = lines[1 + n + j].split(" ")
        if len(parts) != 4 or parts[0] != "E":
            _fail(lineno, f"malformed edge line {lines[1 + n + j]!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            _fail(lineno, f"non-integer endpoint in {lines[1 + n + j]!r}")
        tag = _TAG_BY_NAME.get(parts[3])
        if tag is None:
            _fail(lineno, f"unknown provenance {parts[3]!r}")
        if not (0 <= u < n) or not (0 <= v < n):
            _fail(lineno, f"dangling edge endpoint ({u}, {v}) with n={n}")
        if u >= v:
            _fail(lineno, f"edge endpoints must satisfy u < v, got ({u}, {v})")
        if (u, v) == prev:
            _fail(lineno, f"duplicate edge ({u}, {v})")
        if (u, v) < prev:
            _fail(lineno, f"edge lines not in canonical (u, v) order at ({u}, {v})")
        _check_spelling(lineno, parts[1:3], lines[1 + n + j])
        prev = (u, v)
        eu[j], ev[j], et[j] = u, v, tag
    return LabeledGraph(n, color, is_seed, birth, eu, ev, et)


def save_graph(g: LabeledGraph, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(g))


def load_graph(path) -> LabeledGraph:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
