"""Cascade machinery: sampled realizations, spread computation, observations.

The process has two stages. In the seeding stage every node draws a
uniform threshold g and accepts the cheapest menu rate whose adoption
probability reaches g (ties accept). In the diffusion stage every edge
independently comes up live with its propagation probability, and
influence travels from accepted seeds along live edges. Fixing both
draws up front gives a deterministic realization that adaptive policies
can probe incrementally.

Expected cascade sizes come either from `spread_exact`, which
enumerates the states of the uncertain edges a cascade can reach, or
from one Monte Carlo kernel, a breadth-first search over the CSR arrays
that runs a block of replicates at once. Each edge the cascade examines
fires by one uniform draw, or as in a fixed sampled world
(`sample_worlds`): one bit per edge and, for the non-adaptive
evaluator, every node's menu-interval index. On fixed worlds a cascade
can only shrink as more nodes are blocked, and `offer_totals` gives
every single offer's reach from searches batched over many sources.
Adaptive residual spreads search from one node in all worlds at once
(`masked_reach`): the worlds are transposed into one Python int per
edge (`WorldMasks`), whose bit w says the edge is live in world w.
"""
from __future__ import annotations

import functools
import math
import operator
import weakref
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, TooLargeError, ValidationError
from .graph import AdoptionModel, Instance, SeedDiscountPair, SocialGraph, _content_lines, check_nodes
from .rng import as_stream, generator

MAX_UNCERTAIN_EDGES = 16
_VISITED_CELLS = 1 << 22  # replicates * nodes in one Monte Carlo block
_WORLD_CELLS = 1 << 18  # the same on sampled worlds: a smaller visited buffer beside the worlds
_TABLE_CELLS = 1 << 14  # worlds * edges in one draw of `sample_worlds`, worlds * nodes in a first table block
_TABLE_GROWN = 1 << 15  # worlds * nodes a block of `offer_totals` may grow to while its searches stay small
_TABLE_PAIRS = 1 << 18  # (deep source, key) pairs one batched search may keep: 2 MB
MAX_WORLD_BYTES = 1 << 28  # a world set's acceptance indices and live-edge bits


@dataclass(frozen=True)
class SeedingRealization:
    """Per-node cheapest acceptable rate index; len(menu) means never accepts."""

    min_rate_idx: tuple[int, ...]
    thresholds: tuple[float, ...] | None = None

    @classmethod
    def of(cls, model: AdoptionModel, thresholds) -> "SeedingRealization":
        """The seeding fixed by per-node thresholds: node v takes the cheapest
        rate whose adoption probability reaches its threshold (ties accept)."""
        thresholds = tuple(float(g) for g in thresholds)
        never = len(model.menu)
        return cls(tuple(never if (i := model.min_rate_index(v, g)) is None else i
                         for v, g in enumerate(thresholds)), thresholds)

    def accepts(self, v: int, rate_idx: int) -> bool:
        return self.min_rate_idx[v] <= rate_idx


@dataclass(frozen=True)
class DiffusionRealization:
    """Live/blocked state for every edge, aligned with the graph edge list."""

    live: tuple[bool, ...]


@dataclass(frozen=True)
class Realization:
    seeding: SeedingRealization
    diffusion: DiffusionRealization


def sample_realization(instance: Instance, stream) -> Realization:
    """Thresholds from substream 0 of `stream`, edge states from substream 1."""
    root, prob = as_stream(stream), instance.graph.prob
    thresholds = generator(root, 0).random(instance.graph.node_count)
    live = generator(root, 1).random(len(prob)) < prob
    return Realization(
        seeding=SeedingRealization.of(instance.model, thresholds.tolist()),
        diffusion=DiffusionRealization(live=tuple(live.tolist())),
    )


def _bits(mask: int):
    """The set bits of `mask`, lowest first, one step per set bit."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _relevant_subgraph(graph: SocialGraph, seeds, blocked: int, *, max_uncertain_edges: int | None = None):
    """Forward closure of `seeds` over positive-probability edges into nodes outside `blocked`.

    Returns (adjacency, probs) where adjacency maps a node to
    (dst, slot) pairs: slot -1 marks an always-live edge, other slots
    index into `probs`, the probabilities of the uncertain edges
    (0 < p < 1). With `max_uncertain_edges` set, the traversal raises
    `TooLargeError` once more than that many uncertain edges turn up,
    without paying for a huge closure.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    probs: list[float] = []
    closure = sum(1 << s for s in seeds)
    queue = deque(seeds)
    while queue:
        u = queue.popleft()
        entries = adj.setdefault(u, [])
        for eidx in graph.out_edges[u]:
            e = graph.edges[eidx]
            if e.prob <= 0.0 or (blocked >> e.dst) & 1:
                continue
            if e.prob >= 1.0:
                slot = -1
            else:
                slot = len(probs)
                probs.append(e.prob)
            entries.append((e.dst, slot))
            if not (closure >> e.dst) & 1:
                closure |= 1 << e.dst
                queue.append(e.dst)
        if max_uncertain_edges is not None and len(probs) > max_uncertain_edges:
            raise TooLargeError(
                f"exact spread needs more than {max_uncertain_edges} uncertain edges enumerated; "
                'sample instead with mode="mc" (CLI: --estimator mc; --evaluator mc for nonadaptive)'
            )
    return adj, probs


def _reach(adj, seeds, start: int, mask: int) -> int:
    """Bitmask reachable from `seeds` (bitmask `start`) when uncertain slot i is live iff bit i of mask is."""
    seen = start
    stack = list(seeds)
    while stack:
        u = stack.pop()
        for w, slot in adj.get(u, ()):
            if not (seen >> w) & 1 and (slot < 0 or (mask >> slot) & 1):
                seen |= 1 << w
                stack.append(w)
    return seen


def _live_edge_outcomes(graph: SocialGraph, seeds, blocked: int, *, max_uncertain_edges: int | None = None):
    """Yield (weight, reached) for each state of the uncertain edges a cascade
    from the distinct `seeds` can cross, in mask order, skipping states of weight zero.

    Nodes set in the bitmask `blocked` neither seed nor relay. `reached`
    is the bitmask of nodes the cascade reaches in that state; the cap
    is `_relevant_subgraph`'s.
    """
    seeds = [s for s in seeds if not (blocked >> s) & 1]
    adj, probs = _relevant_subgraph(graph, seeds, blocked, max_uncertain_edges=max_uncertain_edges)
    start = sum(1 << s for s in seeds)
    for mask, w in _weighted_masks(probs):
        if w:
            yield w, _reach(adj, seeds, start, mask)


def _weighted_masks(probs, weight: float = 1.0):
    """Yield (mask, weight) for every outcome of independent events with chances
    `probs`, in mask order, bit i set when event i happens. Each weight is
    `weight` times p or 1 - p per event, multiplied in index order."""
    for mask in range(1 << len(probs)):
        w = weight
        for i, p in enumerate(probs):
            w *= p if (mask >> i) & 1 else 1.0 - p
        yield mask, w


def spread_exact(graph: SocialGraph, seeds, *, blocked: int = 0) -> float:
    """Expected cascade size from `seeds`, by enumerating live-edge states.

    Only edges with probability strictly between 0 and 1 branch; more
    than `MAX_UNCERTAIN_EDGES` of them in reach raise before any
    enumeration. Nodes set in the bitmask `blocked` neither seed nor relay.
    """
    seeds = sorted(set(seeds))
    check_nodes(seeds, graph.node_count, "seed set")
    total = 0.0
    # A plain loop: sum() compensates float sums from Python 3.12 on, which moves the last bits.
    for w, reached in _live_edge_outcomes(graph, seeds, blocked, max_uncertain_edges=MAX_UNCERTAIN_EDGES):
        total += w * reached.bit_count()
    return total


class ExactMemo:
    """Exact cascade results on one graph, kept for every exact routine that runs on it.

    `outcomes(blocked, v)` is the distribution of the set a cascade from
    v alone reaches when the nodes in the bitmask `blocked` neither
    receive nor relay influence: (reached bitmask, probability, reached
    count) tuples sorted by mask, enumerated with no cap. `spread(seeds,
    blocked)` is `spread_exact` of the seed bitmask `seeds` with those nodes
    blocked, kept in `spreads[seeds, blocked]`; a miss calls `spread_exact`,
    cap included. The two are kept apart, since their sums round differently.
    The memo refers to its graph weakly, so it goes with it by reference counting.
    """

    __slots__ = ("_graph", "_outcomes", "spreads")

    def __init__(self, graph: SocialGraph):
        self._graph = weakref.ref(graph)
        self._outcomes: dict[tuple[int, int], list[tuple[int, float, int]]] = {}
        self.spreads: dict[tuple[int, int], float] = {}

    def outcomes(self, blocked: int, v: int) -> list[tuple[int, float, int]]:
        key = (blocked, v)
        out = self._outcomes.get(key)
        if out is None:
            dist: dict[int, float] = {}
            for w, reached in _live_edge_outcomes(self._graph(), [v], blocked):
                dist[reached] = dist.get(reached, 0.0) + w
            out = self._outcomes[key] = [(reached, w, reached.bit_count()) for reached, w in sorted(dist.items())]
        return out

    def spread(self, seeds: int, blocked: int) -> float:
        key = (seeds, blocked)
        val = self.spreads.get(key)
        if val is None:
            val = self.spreads[key] = spread_exact(self._graph(), list(_bits(seeds)), blocked=blocked)
        return val


def exact_memo(graph: SocialGraph) -> ExactMemo:
    """The graph's `ExactMemo`, made on first use. It is kept with the graph
    but never pickled (`SocialGraph.__getstate__`): an unpickled graph makes its own."""
    memo = graph.__dict__.get("_exact_memo")
    if memo is None:
        memo = graph.__dict__["_exact_memo"] = ExactMemo(graph)
    return memo


@dataclass(frozen=True, eq=False)
class Worlds:
    """Sampled worlds (`sample_worlds`): `live[w, byte[p]] & bit[p]` is set when CSR
    edge p is live in world w; `accept[w, v]`, if drawn, is node v's menu-interval index."""

    samples: int
    edges: int
    live: np.ndarray
    accept: np.ndarray | None
    byte: np.ndarray  # p // 8 and 1 << p % 8 per CSR edge p: two gathers beat a shift and a mask
    bit: np.ndarray

    def is_live(self, world: np.ndarray, pos: np.ndarray) -> np.ndarray:
        return (self.live[world, self.byte[pos]] & self.bit[pos]).astype(bool)


class WorldMasks:
    """Sampled worlds (`sample_worlds`) kept edge by edge, for `masked_reach`.

    `out[u]` lists u's out-edges that are live in some world as (target,
    mask) pairs, in CSR order: bit w of the Python int mask is set when
    the edge is live in world w. `live_out[u]` is the union of u's masks.
    The live-edge rows are transposed in blocks of edges, so no R x E
    bool matrix is ever held. `reach` and `done` are the search's scratch
    rows, all zero between calls.
    """

    __slots__ = ("samples", "out", "live_out", "reach", "done")

    def __init__(self, graph: SocialGraph, worlds: Worlds):
        samples = worlds.samples
        width = (samples + 7) // 8  # bytes per mask
        step = max(8, _WORLD_CELLS // samples // 8 * 8)  # edges per block: whole bytes of `live`
        masks: list[int] = []
        for p in range(0, worlds.edges, step):
            rows = np.unpackbits(worlds.live[:, p // 8:(p + step) // 8], axis=1, bitorder="little")
            flat = np.packbits(rows.T, axis=1, bitorder="little").tobytes()  # past the last edge: zero padding
            masks += [int.from_bytes(flat[i:i + width], "little") for i in range(0, len(flat), width)]
        indptr, dst = graph.csr.indptr.tolist(), graph.csr.dst.tolist()
        self.samples = samples
        self.out = [[(dst[p], masks[p]) for p in range(indptr[u], indptr[u + 1]) if masks[p]]
                    for u in range(graph.node_count)]
        self.live_out = [functools.reduce(operator.or_, (d for _, d in row), 0) for row in self.out]
        self.reach = [0] * graph.node_count
        self.done = [0] * graph.node_count


def masked_reach(masks: WorldMasks, source: int, blocked: int) -> int:
    """Reach of `source` summed over the sampled worlds, where nodes set in the
    bitmask `blocked` neither seed nor receive influence; with none set, the
    total `_mc_total` gives on the same worlds.

    The worlds are searched together. Bit w of `reach[u]` is set once u is
    reached in world w, and `done[u]` holds the bits u has passed on. A node
    whose row gains bits joins a FIFO queue unless it is waiting there
    already; when taken, it passes on its new bits m, giving the target of
    an edge of mask d the bits d & m. So each (node, world) pair is reached
    and passed on once, as in one breadth-first search per world, and the
    bits a node gains while it waits go on together. Bits in worlds where a
    node has no live out-edge have nowhere to go: when a node gains only
    those, they count as passed on and it does not join the queue. A
    blocked node's row is filled instead, so nothing enters it.
    """
    if (blocked >> source) & 1:
        return 0
    full, out, live_out, reach, done = (1 << masks.samples) - 1, masks.out, masks.live_out, masks.reach, masks.done
    reach[source] = full
    queue, seen, walls = [source], [source], []
    try:
        for u in queue:  # the list grows as it is read: a FIFO queue
            r = reach[u]
            m = r ^ done[u]
            done[u] = r
            for w, d in out[u]:
                hit = d & m
                if hit:
                    r = reach[w]
                    x = r | hit
                    if x != r:
                        if not r:
                            if (blocked >> w) & 1:
                                reach[w] = full
                                walls.append(w)
                                continue
                            seen.append(w)
                        reach[w] = x
                        if r == done[w]:  # not waiting yet
                            if live_out[w] & hit:
                                queue.append(w)
                            else:
                                done[w] = x
        return sum(reach[u].bit_count() for u in seen)
    finally:
        for u in seen:
            reach[u] = done[u] = 0
        for u in walls:
            reach[u] = 0


def accept_index(probs: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """`AdoptionModel.min_rate_index` of every node (len(menu) for none) per row of
    thresholds, given probs[i, v] at rate i: ties accept, so it counts the rates below."""
    return (probs < thresholds[..., None, :]).sum(axis=-2, dtype=np.min_scalar_type(len(probs)))


def sample_worlds(graph: SocialGraph, samples: int, stream, model: AdoptionModel | None = None) -> Worlds:
    """`samples` worlds, drawn in blocks of rows: a uniform per CSR edge each, kept
    as one bit, then with `model` a threshold row each, kept as one byte a node.
    A set with thresholds past `MAX_WORLD_BYTES` is refused before any draw."""
    n, prob, edges = graph.node_count, graph.csr.prob, graph.csr.prob.size
    size = samples * ((edges + 7) // 8 + n)
    if model is not None and size > MAX_WORLD_BYTES:
        raise TooLargeError(f"{samples} sampled worlds would take about {size / 2**20:.0f} MB, cap is "
                            f"{MAX_WORLD_BYTES / 2**20:.0f} MB; draw fewer (CLI: --samples)")
    gen = generator(as_stream(stream))
    step = max(1, _TABLE_CELLS // max(edges, 1))  # worlds per draw
    live = np.empty((samples, (edges + 7) // 8), dtype=np.uint8)
    for w in range(0, samples, step):
        rows = gen.random((len(live[w:w + step]), edges)) < prob
        live[w:w + step] = np.packbits(rows, axis=1, bitorder="little")
    accept = None
    if model is not None:
        probs = np.ascontiguousarray(model.table.T)
        accept = np.empty((samples, n), dtype=np.min_scalar_type(len(probs)))
        step = max(1, _TABLE_CELLS // n)
        for w in range(0, samples, step):
            accept[w:w + step] = accept_index(probs, gen.random((len(accept[w:w + step]), n)))
    return Worlds(samples, edges, live, accept, np.arange(edges) >> 3, (1 << np.arange(edges) % 8).astype(np.uint8))


def check_samples(count, what: str = "samples") -> None:
    """Refuse a count of `what` (its CLI option's name) that is not a positive int, before anything is drawn."""
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValidationError(f"{what} must be a positive int, got {count!r} (CLI: --{what})")


def spread_mc(graph: SocialGraph, seeds, samples: int, stream) -> float:
    """Monte Carlo estimate of the expected cascade size from `seeds`.

    Every replicate starts from the same seeds, run through the shared
    kernel in blocks, and each examined edge draws from `stream`.
    Bit-deterministic; the mean is an integer total over the sample count.
    """
    check_samples(samples)
    n = graph.node_count
    seed_nodes = np.array(sorted(set(seeds)), dtype=np.int64)
    check_nodes(seed_nodes, n, "seed set")
    if not seed_nodes.size:
        return 0.0
    gen = generator(as_stream(stream))

    def block_seeds(done: int, r: int) -> np.ndarray:
        return (np.arange(0, r * n, n, dtype=np.int64)[:, None] + seed_nodes).ravel()

    return _mc_total(graph, samples, gen, block_seeds) / samples


def _mc_total(graph: SocialGraph, samples: int, gen: np.random.Generator | None, block_seeds,
              worlds: Worlds | None = None) -> int:
    """Cascade sizes summed over `samples` independent replicates, run in blocks
    of r as one `_dense_reach` over keys replicate*n + node each. `block_seeds(done,
    r)` returns the sorted, distinct seed keys of replicates done..done+r-1; it may
    draw from `gen` first. Each examined out-edge is then live by one uniform
    draw from `gen`, or, with `worlds`, by its state in the replicate's world."""
    n, csr = graph.node_count, graph.csr
    per_block = max(1, (_VISITED_CELLS if worlds is None else _WORLD_CELLS) // n)
    visited = csr.visited(min(samples, per_block) * n)

    def live(pos, base):
        if worlds is None:
            return gen.random(pos.size) < csr.prob[pos]
        return worlds.is_live(base // n + done, pos)

    total = 0
    for done in range(0, samples, per_block):
        r = min(samples - done, per_block)
        total += _dense_reach(csr.indptr, csr.dst, n, block_seeds(done, r), live, visited).size
    return total


def _dense_reach(indptr, dst, n: int, seeds: np.ndarray, live, visited: np.ndarray) -> np.ndarray:
    """Every key a `_bfs` from `seeds` reaches, the seeds first, marked in the
    all-False dense buffer `visited` and unmarked once the search is done."""

    def fresh(keys, keep):
        keep &= ~visited[keys]
        return keys[keep]

    def mark(keys):
        visited[keys] = True

    keys = np.concatenate(list(_bfs(indptr, dst, n, seeds, live, fresh, mark)))
    visited[keys] = False
    return keys


def offer_totals(graph: SocialGraph, worlds: Worlds, rates: int) -> np.ndarray:
    """Entry [v, i] sums v's reach over the worlds where it accepts rate index i.

    A block of worlds (keys world*n + node) becomes one graph of its live
    edges. A shallow source, one whose live targets all lack a live
    out-edge, reaches itself and its targets only (graphs have no
    self-loops or duplicate edges), so its count comes off the live edges
    directly. The deep sources, the rest, are searched each in its own
    slot (keys slot*cells + key): all in one `_source_reach`, until one
    passes `_TABLE_PAIRS` keys; from that block on, in chunks of about that
    many reached keys, each one `_dense_reach` within the `_VISITED_CELLS`
    buffer. Blocks start at `_TABLE_CELLS` keys and double, up to
    `_TABLE_GROWN`, after each sorted search that kept under an eighth of
    `_TABLE_PAIRS`, so small cascades pay for fewer, larger blocks.
    """
    n, csr = graph.node_count, graph.csr
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))  # CSR position -> source node
    counts = np.zeros(n * (rates + 1), dtype=np.int64)  # reach by node * (rates + 1) + menu-interval index
    per_block, largest = max(1, _TABLE_CELLS // n), max(1, _TABLE_GROWN // n)
    sorted_merges, per_chunk = True, max(1, _TABLE_PAIRS // n)  # a source reaches n keys at most
    done = 0
    while done < worlds.samples:
        r = min(worlds.samples - done, per_block)
        cells = r * n
        code = (worlds.accept[done:done + r] + np.arange(0, counts.size, rates + 1)).ravel()
        counts += np.bincount(code, minlength=counts.size)  # every key reaches itself
        bits = np.unpackbits(worlds.live[done:done + r], axis=1, count=worlds.edges, bitorder="little")
        world, pos = np.divmod(np.flatnonzero(bits.view(bool)), worlds.edges)  # (world - done, CSR position) if live
        done += r
        tail, dst = world * n + src[pos], world * n + csr.dst[pos]  # each live edge's keys, in key order
        indptr = np.zeros(cells + 1, dtype=np.int64)
        np.cumsum(np.bincount(tail, minlength=cells), out=indptr[1:])
        deep = np.zeros(cells, dtype=bool)
        deep[tail[indptr[dst + 1] > indptr[dst]]] = True  # the live target relays
        counts += np.bincount(code[tail[~deep[tail]]], minlength=counts.size)  # shallow sources' targets
        sources = np.flatnonzero(deep)
        reached = _source_reach(indptr, dst, cells, sources) if sorted_merges else None
        if reached is not None:
            counts += np.bincount(code[sources[reached]], minlength=counts.size)
            if sources.size + reached.size < _TABLE_PAIRS // 8:
                per_block = min(2 * per_block, largest)
            continue
        sorted_merges = False
        slots = max(1, _VISITED_CELLS // cells)
        visited = csr.visited(min(sources.size, slots) * cells)
        while sources.size:
            chunk, sources = sources[:min(per_chunk, slots)], sources[min(per_chunk, slots):]
            keys = _dense_reach(indptr, dst, cells, np.arange(0, chunk.size * cells, cells) + chunk, None, visited)
            counts += np.bincount(code[chunk[keys[chunk.size:] // cells]], minlength=counts.size)
            per_chunk = max(1, _TABLE_PAIRS * chunk.size // keys.size)  # about _TABLE_PAIRS keys at this mean reach
    return np.cumsum(counts.reshape(n, rates + 1), axis=1)[:, :rates]


def _source_reach(indptr: np.ndarray, dst: np.ndarray, cells: int, sources: np.ndarray) -> np.ndarray | None:
    """The index in `sources` of every key each source reaches besides itself, from one
    `_bfs` over keys slot*cells + key kept in one sorted array; None past `_TABLE_PAIRS` keys."""
    seen = np.array([np.iinfo(np.int64).max])  # the sentinel caps every search

    def fresh(keys, keep):
        keys = keys[keep]
        return keys[seen[seen.searchsorted(keys)] != keys]

    def mark(keys):
        nonlocal seen
        seen = np.concatenate((seen, keys))
        seen.sort(kind="stable")  # a merge of two sorted runs

    levels = []
    for keys in _bfs(indptr, dst, cells, np.arange(sources.size, dtype=np.int64) * cells + sources, None, fresh, mark):
        if seen.size > _TABLE_PAIRS:
            return None
        levels.append(keys)
    return np.concatenate(levels)[sources.size:] // cells


def _bfs(indptr: np.ndarray, dst: np.ndarray, n: int, frontier: np.ndarray, live, fresh, mark):
    """Level-synchronous breadth-first search from the sorted, distinct keys
    `frontier`; yields each level's newly reached keys once marked, the seeds first.

    A key is base + node, where base is a multiple of n naming the
    replicate. Level by level, the frontier's out-edges (CSR `indptr`,
    `dst`) are gathered in key order and `live(pos, base)` says which
    fire (all if `live` is None), given their CSR positions and their
    keys' bases. A fired edge's target key joins the next frontier
    unless it is already reached.
    The caller keeps the reached keys: `fresh(keys, keep)` returns the
    keys where the bool mask `keep` holds, less those already reached,
    and `mark(keys)` records a level's sorted, distinct new keys, which
    must stay marked until the generator is exhausted. Since a key is
    expanded at most once, so is each edge.
    """
    mark(frontier)
    yield frontier
    while frontier.size:
        node = frontier % n
        starts = indptr[node]
        counts = indptr[node + 1] - starts
        ends = np.cumsum(counts)
        m = int(ends[-1])
        if not m:
            break
        pos = np.repeat(starts - ends + counts, counts) + np.arange(m)
        base = np.repeat(frontier - node, counts)
        keep = np.ones(m, dtype=bool) if live is None else live(pos, base)
        keys = fresh(base + dst[pos], keep)
        keys.sort()
        if keys.size > 1:
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        mark(keys)
        yield keys
        frontier = keys


def hoeffding_radius(node_count: int, samples: int, delta: float = 0.05) -> float:
    """Two-sided Hoeffding radius for a mean of values in [0, node_count]."""
    return node_count * math.sqrt(math.log(2.0 / delta) / (2.0 * samples))


@dataclass
class PartialObservation:
    """Everything seen of one realization: revealed edge states, influenced nodes, probe answers.

    `influenced` is exactly the set reachable from accepted seeds via
    revealed live edges, and every out-edge of an influenced node is
    revealed. Policies and replay keep neither: they decide from, and
    record, the belief state an observation implies
    (`adaptive.BeliefState`). The conditional-realization functions
    accept either, pinning an observation's revealed edge states.
    """

    revealed: dict[int, bool] = field(default_factory=dict)
    influenced: set[int] = field(default_factory=set)
    probed: list[tuple[SeedDiscountPair, bool]] = field(default_factory=list)


def reveal_cascade(graph: SocialGraph, diffusion: DiffusionRealization, influenced: int, seed: int):
    """The cascade of a freshly accepted seed, given the influenced-node bitmask.

    Influence spreads along live edges to nodes not yet influenced, and
    the state of every out-edge of every newly influenced node becomes
    visible. An edge is revealed only when its source first becomes
    influenced, so nothing seen before needs keeping. Returns
    (newly_influenced, revealed_now) in traversal order.
    """
    if (influenced >> seed) & 1:
        raise ValidationError(f"node {seed} is already influenced")
    influenced |= 1 << seed
    newly: list[int] = [seed]
    revealed_now: list[tuple[int, bool]] = []
    for u in newly:  # `newly` doubles as the breadth-first queue
        for eidx in graph.out_edges[u]:
            state = diffusion.live[eidx]
            revealed_now.append((eidx, state))
            w = graph.edges[eidx].dst
            if state and not (influenced >> w) & 1:
                influenced |= 1 << w
                newly.append(w)
    return tuple(newly), tuple(revealed_now)


def write_realization(path, instance: Instance, realization: Realization) -> None:
    """Serialize a realization: threshold lines first, then edge states."""
    seeding = realization.seeding
    if seeding.thresholds is None:
        raise ValidationError("realization has no thresholds to serialize")
    graph = instance.graph
    lines = [
        f"threshold {graph.labels[v]} {seeding.thresholds[v]!r}"
        for v in range(graph.node_count)
    ]
    lines += [
        f"edge {graph.labels[e.src]} {graph.labels[e.dst]} "
        f"{'live' if realization.diffusion.live[i] else 'blocked'}"
        for i, e in enumerate(graph.edges)
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def load_realization(path, instance: Instance) -> Realization:
    """Parse the text form written by `write_realization`.

    Every node needs exactly one threshold and every edge exactly one
    state; anything else is an error.
    """
    graph = instance.graph
    thresholds: dict[int, float] = {}
    states: dict[int, bool] = {}

    def node(label: str) -> int:
        try:
            return graph.index(label)
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None

    for lineno, line in _content_lines(Path(path).read_text()):
        parts = line.split()
        if parts[0] == "threshold":
            if len(parts) != 3:
                raise ParseError(path, lineno, "expected 'threshold <node> <g>'")
            try:
                g = float(parts[2])
            except ValueError:
                raise ParseError(path, lineno, f"threshold {parts[2]!r} is not a number")
            if not 0.0 <= g <= 1.0:
                raise ValidationError(f"{path}:{lineno}: threshold {g} outside [0, 1]")
            v = node(parts[1])
            if v in thresholds:
                raise ValidationError(f"{path}:{lineno}: duplicate threshold for node {parts[1]}")
            thresholds[v] = g
        elif parts[0] == "edge":
            if len(parts) != 4 or parts[3] not in ("live", "blocked"):
                raise ParseError(path, lineno, "expected 'edge <src> <dst> <live|blocked>'")
            key = (node(parts[1]), node(parts[2]))
            if key not in graph.edge_index:
                raise ValidationError(f"{path}:{lineno}: edge {parts[1]} -> {parts[2]} is not in the graph")
            eidx = graph.edge_index[key]
            if eidx in states:
                raise ValidationError(f"{path}:{lineno}: duplicate state for edge {parts[1]} -> {parts[2]}")
            states[eidx] = parts[3] == "live"
        else:
            raise ParseError(path, lineno, f"unknown record {parts[0]!r}")
    missing_t = [graph.labels[v] for v in range(graph.node_count) if v not in thresholds]
    if missing_t:
        raise ValidationError(f"{path}: missing thresholds for nodes {missing_t}")
    missing_e = [i for i in range(len(graph.edges)) if i not in states]
    if missing_e:
        e = graph.edges[missing_e[0]]
        raise ValidationError(f"{path}: missing state for edge {graph.labels[e.src]} -> {graph.labels[e.dst]}")
    return Realization(
        seeding=SeedingRealization.of(instance.model, (thresholds[v] for v in range(graph.node_count))),
        diffusion=DiffusionRealization(live=tuple(states[i] for i in range(len(graph.edges)))),
    )
