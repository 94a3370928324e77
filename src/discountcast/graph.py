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
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ParseError, ValidationError


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

    def __init__(self, node_count: int, edges: tuple[Edge, ...]):
        table = np.array(edges, dtype=np.float64).reshape(-1, 3)
        table = table[table[:, 2] > 0.0]
        order = np.argsort(table[:, 0], kind="stable")
        src = table[order, 0].astype(np.int64)
        self.indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=node_count), out=self.indptr[1:])
        self.dst = table[order, 1].astype(np.int64)
        self.prob = table[order, 2]
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


@dataclass(frozen=True)
class SocialGraph:
    """Directed graph with per-edge propagation probabilities.

    Nodes are dense integers 0..node_count-1; `labels` keeps the
    original file labels for reporting.
    """

    node_count: int
    labels: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.node_count < 0:
            raise ValidationError("node_count must be non-negative")
        if len(self.labels) != self.node_count:
            raise ValidationError("labels must cover every node")
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            if not (0 <= e.src < self.node_count and 0 <= e.dst < self.node_count):
                raise ValidationError(f"edge {e} references an unknown node")
            if e.src == e.dst:
                raise ValidationError(f"self-loop on node {self.labels[e.src]}")
            if not 0.0 <= e.prob <= 1.0:
                raise ValidationError(f"edge probability {e.prob} outside [0, 1]")
            key = (e.src, e.dst)
            if key in seen:
                raise ValidationError(f"duplicate edge {self.labels[e.src]} -> {self.labels[e.dst]}")
            seen.add(key)

    @cached_property
    def out_edges(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices grouped by source, in edge-list order."""
        out: list[list[int]] = [[] for _ in range(self.node_count)]
        for i, e in enumerate(self.edges):
            out[e.src].append(i)
        return tuple(tuple(ix) for ix in out)

    @cached_property
    def csr(self) -> CSRView:
        """The out-edges as numpy CSR arrays, built on first use."""
        return CSRView(self.node_count, self.edges)

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
        return {(e.src, e.dst): i for i, e in enumerate(self.edges)}


@dataclass(frozen=True)
class AdoptionModel:
    """Per-node adoption probability at every menu rate.

    probs[v][i] is the chance node v accepts when offered menu rate i;
    rows are non-decreasing because a larger discount never hurts.
    """

    menu: DiscountMenu
    probs: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        m = len(self.menu)
        for v, row in enumerate(self.probs):
            if len(row) != m:
                raise ValidationError(f"node {v}: expected {m} adoption probabilities, got {len(row)}")
            prev = 0.0
            for i, p in enumerate(row):
                if not 0.0 <= p <= 1.0:
                    raise ValidationError(f"node {v}: adoption probability {p} outside [0, 1]")
                if i and p < prev:
                    raise ValidationError(
                        f"node {v}: adoption probability must be non-decreasing in the rate "
                        f"({prev} at rate {self.menu.rates[i-1]}, {p} at rate {self.menu.rates[i]})"
                    )
                prev = p

    @property
    def node_count(self) -> int:
        return len(self.probs)

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


def _content_lines(path) -> Iterable[tuple[int, str]]:
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def load_graph(path) -> SocialGraph:
    """Parse a graph file; see the module docstring for the format."""
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

    for lineno, line in _content_lines(path):
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
        n = declared
        labels = tuple(str(i) for i in range(n))
    else:
        n = len(label_order)
        labels = tuple(label_order)
    return SocialGraph(node_count=n, labels=labels, edges=tuple(edges))


def load_adoption(path, graph: SocialGraph, menu: DiscountMenu) -> AdoptionModel:
    """Parse an adoption file against a loaded graph and menu."""
    n, m = graph.node_count, len(menu)
    table: list[list[float | None]] = [[None] * m for _ in range(n)]
    defaults: list[float | None] = [None] * m
    explicit: set[tuple[int, int]] = set()

    for lineno, line in _content_lines(path):
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
