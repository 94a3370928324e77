import os

import numpy as np
import pytest
from hypothesis import settings

import discountcast as dc

# CI draws the same examples on every run, so a failure there reproduces; the
# blob it prints replays the failing example with @reproduce_failure.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def fig1():
    return dc.fig1_instance()


@pytest.fixture(scope="session")
def hard2():
    return dc.BudgetSpec(budget=2.0, mode="hard")


def tiny_instance(seed: int) -> tuple[dc.Instance, dc.BudgetSpec]:
    """Random instance small enough for brute force and the optimal oracle.

    At most 5 nodes, 6 edges, and 2 menu rates; the budget lands between
    the top rate and roughly twice it, so the one-shot branch policies
    always have their move available.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    m = int(rng.integers(1, 3))
    max_edges = min(6, n * (n - 1))
    k = int(rng.integers(0, max_edges + 1))
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = sorted(int(i) for i in rng.choice(len(slots), size=k, replace=False))
    edges = tuple(
        dc.Edge(slots[i][0], slots[i][1], round(float(rng.uniform(0.1, 0.9)), 3))
        for i in chosen
    )
    graph = dc.SocialGraph(node_count=n, labels=tuple(str(v) for v in range(n)), edges=edges)
    d1 = round(float(rng.uniform(0.5, 1.0)), 2)
    rates = (d1,) if m == 1 else (d1, round(d1 + float(rng.uniform(0.5, 1.0)), 2))
    menu = dc.DiscountMenu(rates=rates)
    rows = np.sort(rng.uniform(0.05, 0.95, size=(n, m)), axis=1)
    model = dc.AdoptionModel(menu=menu, probs=tuple(tuple(r) for r in rows.tolist()))
    budget = round(rates[-1] * float(rng.uniform(1.05, 1.8)), 2)
    return dc.Instance(graph=graph, model=model), dc.BudgetSpec(budget=budget, mode="hard")
