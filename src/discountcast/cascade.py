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
from one Monte Carlo kernel shared by `spread_mc` and
`nonadaptive.f_mc`. The kernel runs a block of replicates as a single
breadth-first search over the graph's CSR arrays, flipping each edge
the cascade examines with one uniform draw, or reading its state from
a matrix of fixed live-edge snapshots (`live_edge_snapshots`): one row
per replicate and one bool per CSR edge, so R snapshots of a graph
with E positive-probability edges take R * E bytes. On fixed snapshots
a cascade's mean size can only shrink as more nodes are blocked.
`singleton_spreads` gives every node's single-seed estimate from one
batched pass of the same search; node v still draws from its own
substream (v,), so each entry equals a lone `spread_mc` run bit for bit.
Once cascades grow too large to batch cheaply within a bounded visited
set, the remaining nodes run as just such lone runs.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, TooLargeError, ValidationError
from .graph import Instance, SeedDiscountPair, SocialGraph
from .rng import as_stream, child, generator

MAX_UNCERTAIN_EDGES = 16
_VISITED_CELLS = 1 << 22  # replicates * nodes in one Monte Carlo block
_GROUP_EDGES = 1 << 15  # first-level edge draws per node group in `singleton_spreads`
_GROUP_KEYS = 1 << 17  # visited keys per block of a node group: 1 MB, and a bound on its level arrays
_SLOT_KEYS = 1 << 12  # visited keys per slot past which a group's per-level merges cost more than it saves


@dataclass(frozen=True)
class SeedingRealization:
    """Per-node cheapest acceptable rate index; len(menu) means never accepts."""

    min_rate_idx: tuple[int, ...]
    thresholds: tuple[float, ...] | None = None

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


def sample_seeding(instance: Instance, stream) -> SeedingRealization:
    model = instance.model
    gen = generator(as_stream(stream))
    g = gen.random(instance.graph.node_count)
    m = len(model.menu)
    idx = tuple(
        (lambda i: m if i is None else i)(model.min_rate_index(v, g[v]))
        for v in range(instance.graph.node_count)
    )
    return SeedingRealization(min_rate_idx=idx, thresholds=tuple(float(x) for x in g))


def sample_diffusion(graph: SocialGraph, stream) -> DiffusionRealization:
    gen = generator(as_stream(stream))
    u = gen.random(len(graph.edges))
    live = tuple(bool(u[i] < e.prob) for i, e in enumerate(graph.edges))
    return DiffusionRealization(live=live)


def sample_realization(instance: Instance, stream) -> Realization:
    root = as_stream(stream)
    return Realization(
        seeding=sample_seeding(instance, child(root, 0)),
        diffusion=sample_diffusion(instance.graph, child(root, 1)),
    )


def _relevant_subgraph(graph: SocialGraph, seeds, allowed, *, max_uncertain_edges: int | None = None):
    """Forward closure of `seeds` over positive-probability edges.

    Returns (adjacency, probs) where adjacency maps a node to
    (dst, slot) pairs: slot -1 marks an always-live edge, other slots
    index into `probs`, the probabilities of the uncertain edges
    (0 < p < 1). With `max_uncertain_edges` set, the traversal raises
    `TooLargeError` once more than that many uncertain edges turn up,
    without paying for a huge closure.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    probs: list[float] = []
    closure: set[int] = set()
    queue: deque[int] = deque()
    for s in seeds:
        if (allowed is None or s in allowed) and s not in closure:
            closure.add(s)
            queue.append(s)
    while queue:
        u = queue.popleft()
        entries = adj.setdefault(u, [])
        for eidx in graph.out_edges[u]:
            e = graph.edges[eidx]
            if e.prob <= 0.0:
                continue
            if allowed is not None and e.dst not in allowed:
                continue
            if e.prob >= 1.0:
                slot = -1
            else:
                slot = len(probs)
                probs.append(e.prob)
            entries.append((e.dst, slot))
            if e.dst not in closure:
                closure.add(e.dst)
                queue.append(e.dst)
        if max_uncertain_edges is not None and len(probs) > max_uncertain_edges:
            raise TooLargeError(
                f"exact spread needs more than {max_uncertain_edges} uncertain edges enumerated; "
                'sample instead with mode="mc" (CLI: --estimator mc; --evaluator mc for nonadaptive)'
            )
    return adj, probs


def _reach(adj, seeds, mask: int) -> set[int]:
    """Nodes reachable from `seeds` when uncertain slot i is live iff bit i of mask is set."""
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        u = stack.pop()
        for w, slot in adj.get(u, ()):
            if w in seen:
                continue
            if slot >= 0 and not (mask >> slot) & 1:
                continue
            seen.add(w)
            stack.append(w)
    return seen


def _live_edge_outcomes(graph: SocialGraph, seeds, allowed, *, max_uncertain_edges: int | None = None):
    """Yield (weight, reached) for each state of the uncertain edges a cascade
    from `seeds` can cross, in mask order, skipping states of weight zero.

    `reached` is the node set the cascade reaches in that state; the cap
    is `_relevant_subgraph`'s.
    """
    adj, probs = _relevant_subgraph(graph, seeds, allowed, max_uncertain_edges=max_uncertain_edges)
    for mask in range(1 << len(probs)):
        w = 1.0
        for i, p in enumerate(probs):
            w *= p if (mask >> i) & 1 else 1.0 - p
        if w:
            yield w, _reach(adj, seeds, mask)


def spread_exact(graph: SocialGraph, seeds, *, restrict=None, max_uncertain_edges: int = MAX_UNCERTAIN_EDGES) -> float:
    """Expected cascade size from `seeds`, by enumerating live-edge states.

    Only edges with probability strictly between 0 and 1 branch; the
    enumeration cap applies to those. Deterministic edges and edges that
    no cascade from `seeds` can ever cross cost nothing.
    """
    allowed = None if restrict is None else set(restrict)
    seed_list = sorted({s for s in seeds if allowed is None or s in allowed})
    if not seed_list:
        return 0.0
    total = 0.0
    # A plain loop: sum() compensates float sums from Python 3.12 on, which moves the last bits.
    for w, reached in _live_edge_outcomes(graph, seed_list, allowed, max_uncertain_edges=max_uncertain_edges):
        total += w * len(reached)
    return total


def live_edge_snapshots(graph: SocialGraph, samples: int, stream) -> np.ndarray:
    """`samples` independent live-edge draws, one bool row each over the CSR edges.

    Drawn one row at a time, so memory stays at the matrix itself.
    """
    prob = graph.csr.prob
    gen = generator(as_stream(stream))
    live = np.empty((samples, prob.size), dtype=bool)
    for row in live:
        np.less(gen.random(prob.size), prob, out=row)
    return live


def spread_mc(graph: SocialGraph, seeds, samples: int, stream, *, restrict=None, blocked=None,
              snapshots=None) -> float:
    """Monte Carlo estimate of the expected cascade size from `seeds`.

    Every replicate starts from the same seeds, run through the shared
    kernel in blocks. Nodes outside `restrict` (a node collection), or
    set in `blocked` (a bool mask over the nodes), neither seed nor
    receive influence. With `snapshots` (from `live_edge_snapshots`,
    one row per sample) replicate i follows row i and `stream` goes
    unused; otherwise each examined edge draws from `stream`.
    Bit-deterministic either way; the mean is an integer total over the
    sample count.
    """
    if samples < 1:
        raise ValidationError("samples must be at least 1")
    n = graph.node_count
    if restrict is not None:
        allowed = set(restrict)
        blocked = np.ones(n, dtype=bool)
        blocked[np.fromiter(allowed, dtype=np.int64, count=len(allowed))] = False
    seed_nodes = np.array(sorted({s for s in seeds if blocked is None or not blocked[s]}), dtype=np.int64)
    if not seed_nodes.size:
        return 0.0
    if snapshots is not None and snapshots.shape != (samples, graph.csr.prob.size):
        raise ValidationError(f"snapshots must be {samples} rows of {graph.csr.prob.size} edges")
    gen = None if snapshots is not None else generator(as_stream(stream))

    def block_seeds(r: int) -> np.ndarray:
        return (np.arange(0, r * n, n, dtype=np.int64)[:, None] + seed_nodes).ravel()

    return _mc_total(graph, samples, gen, block_seeds, blocked, snapshots) / samples


def _mc_total(graph: SocialGraph, samples: int, gen: np.random.Generator | None, block_seeds, blocked=None,
              snapshots=None) -> int:
    """Cascade sizes summed over `samples` independent replicates.

    Replicates run in blocks of r, each as one `_bfs` over keys
    replicate*n + node, marking reached keys in the graph's dense
    visited buffer. `block_seeds(r)` returns the next block's seed keys,
    sorted and distinct; it may draw from `gen` first. Each examined
    out-edge is then live by one uniform draw from `gen`, or, with
    `snapshots`, by its cell in the replicate's row.
    """
    n = graph.node_count
    csr = graph.csr
    prob = csr.prob
    per_block = max(1, _VISITED_CELLS // n)
    visited = csr.visited(min(samples, per_block) * n)

    def live(pos, base):
        if snapshots is None:
            return gen.random(pos.size) < prob[pos]
        return snapshots[base // n + done, pos]

    def fresh(keys, keep):
        keep &= ~visited[keys]
        return keys[keep]

    def mark(keys):
        visited[keys] = True

    total = 0
    for done in range(0, samples, per_block):
        r = min(samples - done, per_block)
        for keys in _bfs(csr, n, block_seeds(r), live, fresh, mark, blocked):
            total += keys.size
            visited[keys] = False
    return total


class _GroupOverflow(Exception):
    """A node group's visited keys would pass its limit."""


def singleton_spreads(graph: SocialGraph, samples: int, stream) -> list[float]:
    """Every node's single-seed Monte Carlo spread, from one batched kernel run.

    Entry v equals `spread_mc(graph, [v], samples, child(stream, v))`
    bit for bit: node v still draws from its own substream (v,), in the
    order its lone run would. Nodes run in groups of about
    `_GROUP_EDGES` first-level edge draws (see `_group_totals`). The
    first group whose cascades outgrow its visited-key limit ends the
    batching: it and every later node run as lone `spread_mc` calls.
    Cascades that large dwarf the per-call overhead that batching
    saves, and one dropped group is all the work lost.
    """
    if samples < 1:
        raise ValidationError("samples must be at least 1")
    n = graph.node_count
    root = as_stream(stream)
    load = np.cumsum(min(samples, max(1, _VISITED_CELLS // n)) * np.maximum(np.diff(graph.csr.indptr), 1))
    table: list[float] = []
    while len(table) < n:
        start = len(table)
        floor = int(load[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(load, floor + _GROUP_EDGES, side="right")))
        try:
            table += (_group_totals(graph, samples, root, start, stop) / samples).tolist()
        except _GroupOverflow:
            break
    return table + [spread_mc(graph, [v], samples, child(root, v)) for v in range(len(table), n)]


def _group_totals(graph: SocialGraph, samples: int, root, start: int, stop: int) -> np.ndarray:
    """Summed single-seed cascade sizes of nodes start..stop-1, batched.

    A block of r replicates of the group is one `_bfs` over keys
    (slot*r + replicate)*n + node, so each slot's keys, and so its
    examined edges, stay contiguous and in the lone run's order, and at
    each level every slot draws its share of uniforms from its own
    generator. Blocks split replicates as `_mc_total` does. The keys
    span slots*r*n cells, too many for the dense visited buffer, so a
    block keeps its visited keys as a sorted array, merged anew at each
    level. It raises `_GroupOverflow` before that array would pass
    `_SLOT_KEYS` keys per slot, where the merges start to cost more
    than the per-call overhead the batch saves, or `_GROUP_KEYS` keys,
    which bounds its memory.
    """
    n = graph.node_count
    csr = graph.csr
    prob = csr.prob
    slots = stop - start
    per_block = max(1, _VISITED_CELLS // n)
    limit = min(slots * _SLOT_KEYS, _GROUP_KEYS)
    gens = [generator(root, v) for v in range(start, stop)]

    def live(pos, base):
        share = np.bincount(base // cells, minlength=slots).tolist()  # this level's draws per slot
        return np.concatenate([gen.random(m) for gen, m in zip(gens, share) if m]) < prob[pos]

    def fresh(keys, keep):
        keys = keys[keep]
        return keys[seen[seen.searchsorted(keys)] != keys]

    def mark(keys):
        nonlocal seen
        if seen.size - 1 + keys.size > limit:  # the sentinel is no key
            raise _GroupOverflow
        seen = np.concatenate((seen, keys))
        seen.sort(kind="stable")  # a merge of two sorted runs

    totals = np.zeros(slots, dtype=np.int64)
    for done in range(0, samples, per_block):
        r = min(samples - done, per_block)
        cells = r * n  # keys per slot
        seen = np.array([np.iinfo(np.int64).max])  # the sentinel caps every search
        seeds = np.arange(slots * r, dtype=np.int64) * n + np.repeat(np.arange(start, stop), r)
        for keys in _bfs(csr, n, seeds, live, fresh, mark):
            totals += np.bincount(keys // cells, minlength=slots)
    return totals


def _bfs(csr, n: int, frontier: np.ndarray, live, fresh, mark, blocked=None) -> list[np.ndarray]:
    """Level-synchronous breadth-first search from the sorted, distinct keys
    `frontier`; returns each level's newly reached keys, the seeds first.

    A key is base + node, where base is a multiple of n naming the
    replicate. Level by level, the frontier's out-edges are gathered in
    key order and `live(pos, base)` says which of them fire, given their
    CSR positions and their keys' bases. A fired edge's target key joins
    the next frontier unless it is `blocked` (a bool mask over nodes) or
    already reached. The caller keeps the reached keys: `fresh(keys,
    keep)` returns the keys where the bool mask `keep` holds, less those
    already reached, and `mark(keys)` records a level's sorted, distinct
    new keys, the seeds first. Since a key is expanded at most once, so
    is each edge.
    """
    indptr, dst = csr.indptr, csr.dst
    mark(frontier)
    levels = [frontier]
    while frontier.size:
        node = frontier % n
        starts = indptr[node]
        counts = indptr[node + 1] - starts
        ends = np.cumsum(counts)
        m = int(ends[-1])
        if not m:
            break
        pos = np.repeat(starts - ends + counts, counts) + np.arange(m)
        targets = dst[pos]
        base = np.repeat(frontier - node, counts)
        keep = live(pos, base)
        if blocked is not None:
            keep &= ~blocked[targets]
        keys = fresh(base + targets, keep)
        keys.sort()
        if keys.size > 1:
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        mark(keys)
        levels.append(keys)
        frontier = keys
    return levels


def hoeffding_radius(node_count: int, samples: int, delta: float = 0.05) -> float:
    """Two-sided Hoeffding radius for a mean of values in [0, node_count]."""
    return node_count * math.sqrt(math.log(2.0 / delta) / (2.0 * samples))


@dataclass
class PartialObservation:
    """Everything seen of one realization: revealed edge states, influenced nodes, probe answers.

    `influenced` is exactly the set reachable from accepted seeds via
    revealed live edges, and every out-edge of an influenced node is
    revealed; `reveal_cascade` maintains both invariants. Replay keeps
    one to report what each probe revealed. Policies decide from the
    belief state it implies (`adaptive.BeliefState`), and the
    conditional-realization functions accept either.
    """

    revealed: dict[int, bool] = field(default_factory=dict)
    influenced: set[int] = field(default_factory=set)
    probed: list[tuple[SeedDiscountPair, bool]] = field(default_factory=list)


def reveal_cascade(graph: SocialGraph, diffusion: DiffusionRealization, obs: PartialObservation, seed: int):
    """Absorb the cascade of a freshly accepted seed into the observation.

    Influence spreads along live edges to nodes not yet influenced, and
    the state of every out-edge of every newly influenced node becomes
    visible. Returns (newly_influenced, revealed_now) in traversal order.
    """
    if seed in obs.influenced:
        raise ValidationError(f"node {seed} is already influenced")
    newly: list[int] = [seed]
    revealed_now: list[tuple[int, bool]] = []
    obs.influenced.add(seed)
    queue: deque[int] = deque([seed])
    while queue:
        u = queue.popleft()
        for eidx in graph.out_edges[u]:
            state = diffusion.live[eidx]
            if eidx not in obs.revealed:
                obs.revealed[eidx] = state
                revealed_now.append((eidx, state))
            w = graph.edges[eidx].dst
            if state and w not in obs.influenced:
                obs.influenced.add(w)
                newly.append(w)
                queue.append(w)
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
    graph, model = instance.graph, instance.model
    thresholds: dict[int, float] = {}
    states: dict[int, bool] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
            v = graph.index(parts[1])
            if v in thresholds:
                raise ValidationError(f"{path}:{lineno}: duplicate threshold for node {parts[1]}")
            thresholds[v] = g
        elif parts[0] == "edge":
            if len(parts) != 4 or parts[3] not in ("live", "blocked"):
                raise ParseError(path, lineno, "expected 'edge <src> <dst> <live|blocked>'")
            key = (graph.index(parts[1]), graph.index(parts[2]))
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
    m = len(model.menu)
    idx = []
    g_tuple = []
    for v in range(graph.node_count):
        g = thresholds[v]
        g_tuple.append(g)
        i = model.min_rate_index(v, g)
        idx.append(m if i is None else i)
    live = tuple(states[i] for i in range(len(graph.edges)))
    return Realization(
        seeding=SeedingRealization(min_rate_idx=tuple(idx), thresholds=tuple(g_tuple)),
        diffusion=DiffusionRealization(live=live),
    )
