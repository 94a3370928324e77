"""Core problem data: social graph, discount menu, adoption model.

File formats
------------
Graph file: one directed edge per line, ``<src> <dst> <prob>``, with
``#`` starting a comment and blank lines ignored. An optional header
line ``nodes <n>`` may precede the edges; with a header, node labels
must be integers in ``0..n-1`` (this is how isolated nodes are
declared). Without a header, labels are arbitrary whitespace-free
strings and are mapped to dense indices in first-seen order.

Adoption file: one probability per line, ``<node> <rate> <prob>``,
where ``<node>`` may be ``*`` to set a default for every node at that
rate. Explicit rows override wildcard rows. Every (node, rate) cell
must be covered, rates must be members of the discount menu, and each
node's probabilities must be non-decreasing in the rate.

Files of at least `BULK_MIN_ROWS` lines in the common shape (a graph
file with a first-line header, an adoption file with one row per cell)
are read by numpy's C text reader, which turns each row's fields into
numbers; anything else, and any file that fails a check, goes to the
line-by-line parsers, which word every load error. The reader refuses
some spellings that Python's `int` and `float` accept (`1_0`, non-ASCII
digits) and a `#` anywhere; files holding them load line by line, to
the same result.
"""
from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ParseError, ValidationError

# Graph and adoption files of at least this many lines are first tried on
# the bulk path (read by numpy's C text reader, checked with numpy); below
# it, the line-by-line parsers are faster.
BULK_MIN_ROWS = 32

# `str.splitlines` ends a line at each of these characters but numpy's
# reader takes them for spaces, and a NUL would end a numpy string field
# early: files holding any of them load line by line.
_BULK_REFUSED = "\x00\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

_EDGE_ROW = np.dtype([("src", np.int64), ("dst", np.int64), ("prob", np.float64)])


class Edge(NamedTuple):
    src: int
    dst: int
    prob: float


class CSRView:
    """Out-edges in compressed sparse rows, for vectorized cascades.

    Node u's out-edges are `dst[indptr[u]:indptr[u+1]]`, with
    propagation probabilities at the same positions in `prob`, in
    edge-list order. Zero-probability edges are left out: they never
    fire. The visited buffer is scratch space for the Monte Carlo
    kernel; it is all False between calls and is not pickled.
    """

    __slots__ = ("indptr", "dst", "prob", "_visited")

    def __init__(self, node_count: int, src: np.ndarray, dst: np.ndarray, prob: np.ndarray):
        fires = prob > 0.0
        src = src[fires]
        order = np.argsort(src, kind="stable")
        self.indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=node_count), out=self.indptr[1:])
        self.dst = dst[fires][order]
        self.prob = prob[fires][order]
        self._visited = np.zeros(0, dtype=bool)

    def visited(self, size: int) -> np.ndarray:
        """An all-False buffer of at least `size` cells.

        The caller must set every cell it marked back to False before
        the next call.
        """
        if self._visited.size < size:
            self._visited = np.zeros(size, dtype=bool)
        return self._visited

    def __getstate__(self):
        return self.indptr, self.dst, self.prob

    def __setstate__(self, state):
        self.indptr, self.dst, self.prob = state
        self._visited = np.zeros(0, dtype=bool)


class SeedDiscountPair(NamedTuple):
    """An offer of discount `rate` (a menu member) to `node`."""

    node: int
    rate: float


@dataclass(frozen=True)
class DiscountMenu:
    """Strictly increasing, strictly positive discount rates."""

    rates: tuple[float, ...]

    def __post_init__(self):
        if not self.rates:
            raise ValidationError("discount menu is empty")
        for r in self.rates:
            if not math.isfinite(r):
                raise ValidationError(f"discount rates must be finite, got {r}")
        if self.rates[0] <= 0:
            raise ValidationError(f"discount rates must be positive, got {self.rates[0]}")
        for lo, hi in zip(self.rates, self.rates[1:]):
            if hi <= lo:
                raise ValidationError(f"discount rates must strictly increase, got {lo} then {hi}")

    def __len__(self) -> int:
        return len(self.rates)

    @property
    def d_max(self) -> float:
        return self.rates[-1]

    @cached_property
    def _index(self) -> dict[float, int]:
        return {r: i for i, r in enumerate(self.rates)}

    @cached_property
    def exact(self) -> dict[float, Fraction]:
        """Rate values as exact rationals; `BudgetLedger` scales them to integer units."""
        return {r: Fraction(r) for r in self.rates}

    def index_of(self, rate: float) -> int:
        try:
            return self._index[rate]
        except KeyError:
            raise ValidationError(f"rate {rate!r} is not on the discount menu {list(self.rates)}") from None


class SocialGraph:
    """Directed graph with per-edge propagation probabilities.

    Nodes are dense integers 0..node_count-1; `labels` keeps the
    original file labels for reporting. The edge list is stored as three
    read-only numpy arrays, `src` and `dst` (int64) and `prob` (float64).
    `edges` lists the same edges as `Edge` tuples: the tuple a graph was
    built from, or for a bulk-loaded file one derived on first read (as
    are that file's numbered `labels`). Graphs are equal when their node
    counts, labels and edge lists are; they are not hashable.
    """

    def __init__(self, node_count: int, labels: Iterable[str], edges: Iterable[Edge]):
        labels, edges = tuple(labels), tuple(edges)
        if node_count < 0:
            raise ValidationError("node_count must be non-negative")
        if len(labels) != node_count:
            raise ValidationError("labels must cover every node")
        fault = _edge_fault(node_count, labels, edges)
        if fault is not None:
            raise ValidationError(fault[1])
        self.__setstate__(dict(node_count=node_count, labels=labels, edges=edges, **_edge_arrays(edges)))

    @classmethod
    def _unchecked(cls, **state) -> "SocialGraph":
        """A graph from fields the caller has checked: `node_count`, `src`, `dst`
        and `prob`, and `labels` and `edges` unless derived on first read."""
        graph = cls.__new__(cls)
        graph.__setstate__(state)
        return graph

    def __setstate__(self, state):
        """Store fields and cached values, the edge arrays made read-only
        (an unpickled array comes back writable)."""
        self.__dict__.update(state)
        for array in (self.src, self.dst, self.prob):
            array.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError(f"SocialGraph is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, SocialGraph):
            return NotImplemented
        return (self.node_count == other.node_count and self.labels == other.labels
                and np.array_equal(self.src, other.src) and np.array_equal(self.dst, other.dst)
                and np.array_equal(self.prob, other.prob))

    __hash__ = None

    def __repr__(self) -> str:
        return f"SocialGraph(node_count={self.node_count}, edges={len(self.src)})"

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Node labels; a graph loaded with a `nodes` header numbers its nodes."""
        return tuple(map(str, range(self.node_count)))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(map(Edge, self.src.tolist(), self.dst.tolist(), self.prob.tolist()))

    @cached_property
    def out_edges(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices grouped by source, in edge-list order."""
        out: list[list[int]] = [[] for _ in range(self.node_count)]
        for i, u in enumerate(self.src.tolist()):
            out[u].append(i)
        return tuple(tuple(ix) for ix in out)

    @cached_property
    def csr(self) -> CSRView:
        """The out-edges as numpy CSR arrays, built on first use."""
        return CSRView(self.node_count, self.src, self.dst, self.prob)

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise ValidationError(f"unknown node label {label!r}") from None

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {key: i for i, key in enumerate(zip(self.src.tolist(), self.dst.tolist()))}


def _edge_fault(n: int, labels: tuple[str, ...], edges: tuple[Edge, ...]) -> tuple[int, str] | None:
    """The index of the first bad edge among `edges` on nodes 0..n-1, with what is wrong
    with it, or None."""
    seen: set[tuple[int, int]] = set()
    for i, e in enumerate(edges):
        if not (0 <= e.src < n and 0 <= e.dst < n):
            return i, f"edge {e} references an unknown node"
        if e.src == e.dst:
            return i, f"self-loop on node {labels[e.src]}"
        if not 0.0 <= e.prob <= 1.0:
            return i, f"edge probability {e.prob} outside [0, 1]"
        key = (e.src, e.dst)
        if key in seen:
            return i, f"duplicate edge {labels[e.src]} -> {labels[e.dst]}"
        seen.add(key)
    return None


def _edges_valid(n: int, src: np.ndarray, dst: np.ndarray, prob: np.ndarray) -> bool:
    """Whether `_edge_fault` would find no bad edge, checked with whole-array
    operations; duplicates are found on keys src * n + dst (n < 2**31, so they fit)."""
    bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n) | (src == dst) | ~((prob >= 0.0) & (prob <= 1.0))
    if bad.any():
        return False
    keys = np.sort(src * n + dst)  # not np.unique, whose first call costs 1.7 MB of peak RSS
    return not (keys[1:] == keys[:-1]).any()


def _edge_arrays(edges: tuple[Edge, ...]) -> dict[str, np.ndarray]:
    """The `src`, `dst` and `prob` columns of `edges`, by name."""
    src, dst, prob = zip(*edges) if edges else ((), (), ())
    return {"src": np.array(src, np.int64), "dst": np.array(dst, np.int64), "prob": np.array(prob, np.float64)}


class AdoptionModel:
    """Per-node adoption probability at every menu rate.

    probs[v][i] is the chance node v accepts when offered menu rate i;
    rows are non-decreasing because a larger discount never hurts. The
    same values are `table`, a read-only float64 (n, m) array. A model
    built from row tuples keeps them as `probs` and derives the table on
    first read; one built from an array keeps a copy as its table and
    derives `probs` on first read. Models are equal when their menus and
    tables are; they are not hashable.
    """

    def __init__(self, menu: DiscountMenu, probs):
        if not isinstance(probs, np.ndarray):
            _check_rows(menu, probs)
            self.__dict__.update(menu=menu, node_count=len(probs), probs=probs)
            return
        m = len(menu)
        table = np.array(probs, dtype=np.float64) if len(probs) else np.empty((0, m))
        if not (table.ndim == 2 and table.shape[1] == m and ((table >= 0.0) & (table <= 1.0)).all()
                and (table[:, 1:] >= table[:, :-1]).all()):
            _check_rows(menu, table.tolist())  # words the first fault
        self.__setstate__(dict(menu=menu, node_count=len(table), table=table))

    def __setstate__(self, state):
        """Store fields and cached values, the table made read-only (an
        unpickled array comes back writable)."""
        self.__dict__.update(state)
        if "table" in state:
            self.table.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError(f"AdoptionModel is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, AdoptionModel):
            return NotImplemented
        return self.menu == other.menu and np.array_equal(self.table, other.table)

    __hash__ = None

    def __repr__(self) -> str:
        return f"AdoptionModel(nodes={self.node_count}, rates={self.menu.rates})"

    @cached_property
    def probs(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(tuple, self.table.tolist()))

    @cached_property
    def table(self) -> np.ndarray:
        table = np.array(self.probs, dtype=np.float64).reshape(self.node_count, len(self.menu))
        table.setflags(write=False)
        return table

    def prob(self, v: int, rate_idx: int) -> float:
        return self.probs[v][rate_idx]

    def prob_at_rate(self, v: int, rate: float) -> float:
        return self.probs[v][self.menu.index_of(rate)]

    def min_rate_index(self, v: int, g: float) -> int | None:
        """Index of the cheapest rate v accepts under threshold g, or None.

        Acceptance at equality: rate i works whenever probs[v][i] >= g,
        so g == 0 always yields index 0.
        """
        row = self.probs[v]
        i = bisect.bisect_left(row, g)
        return i if i < len(row) else None


def _check_rows(menu: DiscountMenu, rows) -> None:
    """Raise on the first row of `rows` that is not a non-decreasing list of
    len(menu) probabilities in [0, 1], naming its node."""
    m = len(menu)
    for v, row in enumerate(rows):
        if len(row) != m:
            raise ValidationError(f"node {v}: expected {m} adoption probabilities, got {len(row)}")
        prev = 0.0
        for i, p in enumerate(row):
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"node {v}: adoption probability {p} outside [0, 1]")
            if i and p < prev:
                raise ValidationError(
                    f"node {v}: adoption probability must be non-decreasing in the rate "
                    f"({prev} at rate {menu.rates[i-1]}, {p} at rate {menu.rates[i]})"
                )
            prev = p


@dataclass(frozen=True)
class Instance:
    """A graph plus its adoption model (the menu rides along on the model)."""

    graph: SocialGraph
    model: AdoptionModel

    @property
    def menu(self) -> DiscountMenu:
        return self.model.menu

    def all_pairs(self) -> list[SeedDiscountPair]:
        """Every (node, rate) offer, ordered by node then rate."""
        return [
            SeedDiscountPair(v, r)
            for v in range(self.graph.node_count)
            for r in self.menu.rates
        ]

    @classmethod
    def from_files(cls, graph_file, adoption_file, menu) -> "Instance":
        graph, model = load_instance(graph_file, adoption_file, menu)
        return cls(graph, model)


def _content_lines(text: str) -> Iterable[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _load(path, bulk, parse):
    """`bulk(f)` of the open file at `path`, or where it is short, holds a
    character of `_BULK_REFUSED` or `bulk` returns None, `parse(path, text)`."""
    with open(path) as f:
        text = f.read()
        if text.count("\n") >= BULK_MIN_ROWS and not any(c in text for c in _BULK_REFUSED):
            del text  # not held while numpy reads the file again
            f.seek(0)
            loaded = bulk(f)
            if loaded is not None:
                return loaded
            f.seek(0)
            text = f.read()
    return parse(path, text)


def _bulk_rows(f, dtype: np.dtype) -> np.ndarray | None:
    """The rest of `f` as one structured row per non-blank line, read by numpy's C
    text reader, or None where it refuses: a row of another length, or a token it
    does not read as its field's type (`#` is an ordinary character to it)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        warnings.simplefilter("error", DeprecationWarning)  # numpy 1.x reads "1.0" as an int, with a warning
        try:
            return np.loadtxt(f, dtype=dtype, comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            return None


def load_graph(path) -> SocialGraph:
    """Parse a graph file; see the module docstring for the format."""
    return _load(path, _bulk_graph, _parse_graph)


def _bulk_graph(f) -> SocialGraph | None:
    """The graph of a file with a first-line `nodes` header and three fields on
    every other non-blank line, read by numpy, which reads a token as `int` and
    `float` do or refuses it.

    Returns None for any other file and for any input `_parse_graph`
    would refuse, so that parser words every error.
    """
    head = f.readline().split()
    if len(head) != 2 or head[0] != "nodes":
        return None
    try:
        n = int(head[1])
    except ValueError:
        return None
    rows = _bulk_rows(f, _EDGE_ROW)
    if rows is None:
        return None
    src, dst, prob = (np.ascontiguousarray(rows[name]) for name in _EDGE_ROW.names)
    if not (0 <= n < 2**31 and _edges_valid(n, src, dst, prob)):
        return None
    return SocialGraph._unchecked(node_count=n, src=src, dst=dst, prob=prob)


def _parse_graph(path, text: str) -> SocialGraph:
    """Parse a graph file line by line; every load error is worded here."""
    declared: int | None = None
    label_order: list[str] = []
    label_ix: dict[str, int] = {}
    raw_edges: list[tuple[int, str, str, float]] = []

    def intern(label: str, lineno: int) -> int:
        if declared is not None:
            try:
                v = int(label)
            except ValueError:
                raise ParseError(path, lineno, f"node label {label!r} must be an integer when a 'nodes' header is present")
            if not 0 <= v < declared:
                raise ParseError(path, lineno, f"node {v} outside declared range 0..{declared - 1}")
            return v
        if label not in label_ix:
            label_ix[label] = len(label_order)
            label_order.append(label)
        return label_ix[label]

    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "nodes":
            if raw_edges:
                raise ParseError(path, lineno, "'nodes' header must precede all edges")
            if declared is not None:
                raise ParseError(path, lineno, "duplicate 'nodes' header")
            if len(parts) != 2:
                raise ParseError(path, lineno, "expected 'nodes <count>'")
            try:
                declared = int(parts[1])
            except ValueError:
                raise ParseError(path, lineno, f"node count {parts[1]!r} is not an integer")
            if declared < 0:
                raise ParseError(path, lineno, "node count must be non-negative")
            continue
        if len(parts) != 3:
            raise ParseError(path, lineno, f"expected '<src> <dst> <prob>', got {len(parts)} fields")
        try:
            prob = float(parts[2])
        except ValueError:
            raise ParseError(path, lineno, f"edge probability {parts[2]!r} is not a number")
        raw_edges.append((lineno, parts[0], parts[1], prob))

    edges: list[Edge] = []
    for lineno, src_lab, dst_lab, prob in raw_edges:
        src = intern(src_lab, lineno)
        dst = intern(dst_lab, lineno)
        edges.append(Edge(src, dst, prob))

    if declared is not None:
        labels = tuple(map(str, range(declared)))
    else:
        labels = tuple(label_order)
    edges = tuple(edges)
    fault = _edge_fault(len(labels), labels, edges)
    if fault is not None:
        raise ValidationError(f"{path}:{raw_edges[fault[0]][0]}: {fault[1]}")
    return SocialGraph._unchecked(node_count=len(labels), labels=labels, edges=edges, **_edge_arrays(edges))


def load_adoption(path, graph: SocialGraph, menu: DiscountMenu) -> AdoptionModel:
    """Parse an adoption file against a loaded graph and menu."""
    return _load(path, lambda f: _bulk_adoption(f, graph, menu),
                 lambda path, text: _parse_adoption(path, text, graph, menu))


def _bulk_adoption(f, graph: SocialGraph, menu: DiscountMenu) -> AdoptionModel | None:
    """The model of a file with exactly one explicit row per (node, rate) cell and no
    wildcard, read by numpy, with tokens resolved as `_parse_adoption` resolves them.

    Returns None for any other file and for any row `_parse_adoption`
    would refuse, so that parser words every load error; `AdoptionModel`
    words its own on both paths.
    """
    n, m = graph.node_count, len(menu)
    labelled = "labels" in vars(graph)  # else a header graph read in bulk: node v is labelled str(v)
    # one character wider than any label, so that a token numpy cuts short is no label
    width = 1 + (max(map(len, graph.labels), default=0) if labelled else len(str(max(n - 1, 0))))
    rows = _bulk_rows(f, np.dtype([("node", f"U{width}"), ("rate", np.float64), ("prob", np.float64)]))
    if rows is None:
        return None
    if labelled:
        index = graph._label_index
        if "*" in index:
            return None
        try:
            nodes = np.fromiter(map(index.__getitem__, rows["node"].tolist()), np.int64, len(rows))
        except KeyError:
            return None
    else:
        nodes = _numbered_nodes(rows["node"], width, n)
        if nodes is None:
            return None
    rates = np.array(menu.rates)
    rate_ix = np.minimum(np.searchsorted(rates, rows["rate"]), m - 1)
    if not (rates[rate_ix] == rows["rate"]).all():
        return None
    cells = nodes * m + rate_ix
    if (np.bincount(cells, minlength=n * m) != 1).any():
        return None
    table = np.empty(n * m)
    table[cells] = rows["prob"]
    return AdoptionModel(menu, table.reshape(n, m))


def _numbered_nodes(tokens: np.ndarray, width: int, n: int) -> np.ndarray | None:
    """v for each of `tokens` (strings of at most `width` characters) that spells a
    label str(v) of nodes 0..n-1 (no sign, no leading zero), else None."""
    chars = np.ascontiguousarray(tokens).view(np.uint32).reshape(len(tokens), width)
    used = chars > 0  # a string is padded with NULs, and holds none (`_BULK_REFUSED`)
    digits = np.where(used, chars - ord("0"), 0)  # unsigned: a character below "0" wraps past 9
    if (digits > 9).any() or ((digits[:, 0] == 0) & used[:, 1]).any():
        return None
    nodes = np.zeros(len(tokens), dtype=np.int64)
    for column, digit in zip(used.T, digits.T):
        nodes = np.where(column, nodes * 10 + digit, nodes)
    return nodes if (nodes < n).all() else None


def _parse_adoption(path, text: str, graph: SocialGraph, menu: DiscountMenu) -> AdoptionModel:
    """Parse an adoption file line by line; every load error is worded here."""
    n, m = graph.node_count, len(menu)
    table: list[list[float | None]] = [[None] * m for _ in range(n)]
    defaults: list[float | None] = [None] * m
    explicit: set[tuple[int, int]] = set()

    for lineno, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(path, lineno, f"expected '<node> <rate> <prob>', got {len(parts)} fields")
        node_lab, rate_txt, prob_txt = parts
        try:
            rate = float(rate_txt)
        except ValueError:
            raise ParseError(path, lineno, f"rate {rate_txt!r} is not a number")
        try:
            prob = float(prob_txt)
        except ValueError:
            raise ParseError(path, lineno, f"probability {prob_txt!r} is not a number")
        try:
            ridx = menu.index_of(rate)
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        if node_lab == "*":
            if defaults[ridx] is not None:
                raise ValidationError(f"{path}:{lineno}: duplicate wildcard row for rate {rate}")
            defaults[ridx] = prob
            continue
        try:
            v = graph.index(node_lab)
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        if (v, ridx) in explicit:
            raise ValidationError(f"{path}:{lineno}: duplicate adoption row for node {node_lab} at rate {rate}")
        explicit.add((v, ridx))
        table[v][ridx] = prob

    for v in range(n):
        for i in range(m):
            if table[v][i] is None:
                table[v][i] = defaults[i]
            if table[v][i] is None:
                raise ValidationError(
                    f"{path}: missing adoption probability for node {graph.labels[v]} at rate {menu.rates[i]}"
                )
    probs = tuple(tuple(row) for row in table)  # type: ignore[arg-type]
    return AdoptionModel(menu=menu, probs=probs)


def load_instance(graph_file, adoption_file, menu) -> tuple[SocialGraph, AdoptionModel]:
    """Load a graph file and its adoption file into validated objects.

    `menu` may be a DiscountMenu or a plain sequence of rates.
    """
    if not isinstance(menu, DiscountMenu):
        menu = DiscountMenu(rates=tuple(float(r) for r in menu))
    graph = load_graph(graph_file)
    model = load_adoption(adoption_file, graph, menu)
    return graph, model
