"""Named and random problem instances, and writers for their on-disk form.

The named instances are small calibration cases: a five-node line of
reasoning for exact-value checks (with a scripted realization for
trajectory replay), and an isolated-node-plus-clique construction where
benefit-per-cost greedy spends its whole budget on the one node that
cannot spread anything.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .cascade import DiffusionRealization, Realization, SeedingRealization
from .errors import ValidationError
from .graph import AdoptionModel, DiscountMenu, Edge, Instance, SocialGraph
from .rng import as_stream, generator

_EDGE_CHUNK = 1 << 16


def fig1_instance() -> Instance:
    """Five nodes a-e, two-rate menu, a shared half/full adoption curve."""
    graph = SocialGraph(
        node_count=5,
        labels=("a", "b", "c", "d", "e"),
        edges=(
            Edge(0, 1, 0.2),
            Edge(0, 2, 0.2),
            Edge(1, 3, 0.5),
            Edge(2, 3, 0.5),
            Edge(3, 4, 0.1),
        ),
    )
    menu = DiscountMenu(rates=(1.0, 2.0))
    model = AdoptionModel(menu=menu, probs=((0.5, 1.0),) * 5)
    return Instance(graph=graph, model=model)


def fig2_realization(instance: Instance) -> Realization:
    """The scripted walkthrough realization for the five-node instance.

    Thresholds put a and d below the cheap rate, c above it, and the
    live edges are exactly a->b and d->e.
    """
    return Realization(
        seeding=SeedingRealization.of(instance.model, (0.25, 0.60, 0.75, 0.25, 0.90)),
        diffusion=DiffusionRealization(live=(True, False, False, False, True)),
    )


def worstcase_instance(n: int) -> Instance:
    """One isolated node that always accepts cheaply, plus an all-or-nothing clique.

    Node 0 accepts any rate but reaches nobody. Nodes 1..n-1 form a
    directed clique with certain transmission and accept only the full
    rate. The menu is {1/n, 1}, so ranking by spread-per-rate walks
    through every doomed cheap offer before it can afford anything else.
    """
    if n < 2:
        raise ValidationError(f"the worst-case construction needs n >= 2, got {n}")
    edges = tuple(
        Edge(i, j, 1.0)
        for i in range(1, n)
        for j in range(1, n)
        if i != j
    )
    graph = SocialGraph(node_count=n, labels=tuple(str(i) for i in range(n)), edges=edges)
    menu = DiscountMenu(rates=(1.0 / n, 1.0))
    probs = ((1.0, 1.0),) + ((0.0, 1.0),) * (n - 1)
    return Instance(graph=graph, model=AdoptionModel(menu=menu, probs=probs))


def random_instance(nodes: int, edge_prob: float, stream=None, *,
                    prob_range: tuple[float, float] = (0.01, 0.1),
                    rates: tuple[float, ...] = (0.1, 0.5),
                    accept_range: tuple[float, float] = (0.1, 0.9)) -> Instance:
    """Directed G(n, p) with uniform edge and adoption probabilities.

    Edges are sampled by geometric jumps over the n*(n-1) ordered pairs,
    so the draw count scales with the edges present, not the pairs
    possible. Per-node adoption rows are sorted uniform draws, which
    keeps them non-decreasing in the rate.
    """
    if nodes < 1:
        raise ValidationError(f"a random instance needs at least 1 node, got {nodes}")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValidationError(f"edge probability must be in [0, 1], got {edge_prob}")
    lo, hi = prob_range
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValidationError(f"edge probability range must satisfy 0 <= lo <= hi <= 1, got {prob_range}")
    alo, ahi = accept_range
    if not 0.0 <= alo <= ahi <= 1.0:
        raise ValidationError(f"adoption range must satisfy 0 <= lo <= hi <= 1, got {accept_range}")
    root = as_stream(stream)
    total = nodes * (nodes - 1)
    picks: list[int] = []
    if total > 0 and edge_prob > 0.0:
        if edge_prob >= 1.0:
            picks = list(range(total))
        else:
            gen = generator(root, 0)
            pos = -1
            while True:
                offsets = pos + np.cumsum(gen.geometric(edge_prob, size=_EDGE_CHUNK))
                inside = offsets[offsets < total]
                picks.extend(int(k) for k in inside)
                if len(inside) < len(offsets):
                    break
                pos = int(offsets[-1])
    edge_probs = generator(root, 1).uniform(lo, hi, size=len(picks))
    edges = []
    for k, p in zip(picks, edge_probs.tolist()):
        src, r = divmod(k, nodes - 1)
        dst = r if r < src else r + 1
        edges.append(Edge(src, dst, p))
    graph = SocialGraph(
        node_count=nodes, labels=tuple(str(i) for i in range(nodes)), edges=tuple(edges)
    )
    menu = DiscountMenu(rates=tuple(rates))
    rows = np.sort(generator(root, 2).uniform(alo, ahi, size=(nodes, len(menu))), axis=1)
    model = AdoptionModel(menu=menu, probs=rows)
    return Instance(graph=graph, model=model)


def _integer_labels(labels: tuple[str, ...]) -> bool:
    return labels == tuple(str(i) for i in range(len(labels)))


def write_instance(instance: Instance, out_dir) -> dict:
    """Write `graph.txt` and `adoption.txt` into `out_dir`; they load back to an equal instance."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph, model, menu = instance.graph, instance.model, instance.menu
    lines = []
    if _integer_labels(graph.labels):
        lines.append(f"nodes {graph.node_count}")
    else:
        seen: list[str] = []
        seen_set = set()
        for e in graph.edges:
            for label in (graph.labels[e.src], graph.labels[e.dst]):
                if label not in seen_set:
                    seen.append(label)
                    seen_set.add(label)
        if tuple(seen) != graph.labels:
            raise ValidationError(
                "cannot write this graph without a node-count header: "
                "labels are not in first-appearance order or some nodes are isolated"
            )
    for e in graph.edges:
        lines.append(f"{graph.labels[e.src]} {graph.labels[e.dst]} {e.prob!r}")
    graph_path = out / "graph.txt"
    graph_path.write_text("\n".join(lines) + "\n")

    rows = model.probs
    adoption_lines = []
    if all(row == rows[0] for row in rows):
        for rate, p in zip(menu.rates, rows[0]):
            adoption_lines.append(f"* {rate!r} {p!r}")
    else:
        for v, row in enumerate(rows):
            for rate, p in zip(menu.rates, row):
                adoption_lines.append(f"{graph.labels[v]} {rate!r} {p!r}")
    adoption_path = out / "adoption.txt"
    adoption_path.write_text("\n".join(adoption_lines) + "\n")
    return {
        "graph": str(graph_path),
        "adoption": str(adoption_path),
        "discounts": list(menu.rates),
    }
