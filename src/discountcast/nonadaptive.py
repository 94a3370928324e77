"""Non-adaptive discount allocation.

A configuration fixes one discount offer per node up front. Nodes
accept independently, so the objective is an expectation of cascade
sizes over every acceptance pattern. Includes exact and Monte Carlo
evaluators, the two-candidate hill climbing heuristic, and a brute
force oracle for small instances. The Monte Carlo evaluator scores on
one set of sampled worlds, where lazy greedy is exact; `f_mc` draws anew.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .cascade import (
    Worlds,
    _mc_total,
    _weighted_masks,
    check_samples,
    exact_memo,
    hoeffding_radius,
    offer_totals,
    sample_worlds,
)
from .errors import TooLargeError, ValidationError
from .graph import AdoptionModel, DiscountMenu, Instance, SeedDiscountPair, check_nodes
from .rng import as_stream, generator

GAIN_EPS = 1e-12
TIE_REL = 1e-9  # relative gap between two greedy ratios that may still be one exact tie
MAX_SUPPORT_NODES = 15
MAX_ASSIGNMENTS = 1_000_000


@dataclass(frozen=True)
class BudgetSpec:
    """Total budget plus the accounting mode.

    hard: a configuration pays every offered rate in full.
    soft: a configuration pays each rate times its acceptance chance.
    """

    budget: float
    mode: str = "hard"

    def __post_init__(self):
        if not (math.isfinite(self.budget) and self.budget > 0):
            raise ValidationError(f"budget must be positive and finite, got {self.budget}")
        if self.mode not in ("hard", "soft"):
            raise ValidationError(f"budget mode must be 'hard' or 'soft', got {self.mode!r}")

    @cached_property
    def exact_budget(self) -> Fraction:
        return Fraction(self.budget)


class BudgetLedger:
    """Exact budget amounts as ints, in units of 1/`denom`.

    Rates and the budget are the exact binary values of their floats
    (`DiscountMenu.exact`, `BudgetSpec.exact_budget`). Without `probs`
    an offer costs its rate, as under hard accounting and in adaptive
    runs; with the adoption rows `probs` it costs its rate times the
    node's acceptance chance, again exactly, as under soft accounting.
    Scaled by the lcm of their denominators all of these are ints, so
    every affordability check is an int comparison.
    `Fraction(units, denom)` is an amount's exact value and
    `units / denom` its correctly rounded float, equal to
    `float(Fraction(units, denom))`.
    """

    __slots__ = ("denom", "budget", "rate_units", "_node_units")

    def __init__(self, menu: DiscountMenu, spec: BudgetSpec, probs=None):
        exact, budget = menu.exact, spec.exact_budget
        rates = [(exact[r].numerator, exact[r].denominator) for r in menu.rates]
        rows = [] if probs is None else [
            [(a * c, b * d) for (a, b), (c, d) in zip(rates, (p.as_integer_ratio() for p in row))]
            for row in probs
        ]
        denom = math.lcm(budget.denominator, *(b for _, b in rates), *(b for row in rows for _, b in row))
        self.denom = denom
        self.budget = budget.numerator * (denom // budget.denominator)
        self.rate_units = {r: a * (denom // b) for r, (a, b) in zip(menu.rates, rates)}
        self._node_units = None if probs is None else [
            {r: a * (denom // b) for r, (a, b) in zip(menu.rates, row)} for row in rows
        ]

    @classmethod
    def for_spec(cls, model: AdoptionModel, spec: BudgetSpec) -> "BudgetLedger":
        """Offer costs as `spec` accounts configurations."""
        return cls(model.menu, spec, model.probs if spec.mode == "soft" else None)

    def offer(self, v: int, rate: float) -> int:
        """Cost of offering menu rate `rate` to node v."""
        if self._node_units is None:
            return self.rate_units[rate]
        return self._node_units[v][rate]

    def offer_rows(self, node_count: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """Every node's offer costs in menu order, as the distinct rows of
        costs and each node's index into them: one row under hard accounting."""
        if self._node_units is None:
            return [tuple(self.rate_units.values())], np.zeros(node_count, dtype=np.intp)
        rows: dict[tuple[int, ...], int] = {}
        index = [rows.setdefault(tuple(units.values()), len(rows)) for units in self._node_units]
        return list(rows), np.array(index, dtype=np.intp)

    def raise_cost(self, v: int, rate: float, current: float) -> int:
        """Extra cost of raising v's offer from `current` (0.0 = none) to `rate`."""
        return self.offer(v, rate) - (self.offer(v, current) if current else 0)

    def config_cost(self, config: Configuration) -> int:
        return sum(self.offer(v, rate) for v, rate in config.effective_map.items())


@dataclass(frozen=True)
class Configuration:
    """A set of seed-discount offers; per node only the largest rate binds."""

    pairs: frozenset[SeedDiscountPair]

    @classmethod
    def empty(cls) -> "Configuration":
        return cls(frozenset())

    @classmethod
    def of(cls, *pairs) -> "Configuration":
        return cls(frozenset(SeedDiscountPair(*p) for p in pairs))

    @classmethod
    def from_assignment(cls, assignment: dict[int, float]) -> "Configuration":
        return cls(frozenset(SeedDiscountPair(v, r) for v, r in assignment.items()))

    @cached_property
    def effective_map(self) -> dict[int, float]:
        eff: dict[int, float] = {}
        for p in self.pairs:
            if p.rate > eff.get(p.node, 0.0):
                eff[p.node] = p.rate
        return eff

    def effective_rate(self, v: int) -> float:
        return self.effective_map.get(v, 0.0)

    def add(self, pair: SeedDiscountPair) -> "Configuration":
        return Configuration(self.pairs | {pair})

    def normalized(self) -> "Configuration":
        return Configuration.from_assignment(self.effective_map)

    def sorted_pairs(self) -> list[SeedDiscountPair]:
        return sorted(self.pairs)


def config_cost(config: Configuration, model: AdoptionModel, spec: BudgetSpec) -> float:
    ledger = BudgetLedger.for_spec(model, spec)
    return ledger.config_cost(config) / ledger.denom


def seedset_probability(config: Configuration, model: AdoptionModel, seed_set) -> float:
    """Chance that exactly `seed_set` accepts under `config`.

    Unselected nodes accept with probability zero, so any seed set
    containing one has probability zero.
    """
    eff = config.effective_map
    seeds = set(seed_set)
    check_nodes(seeds, model.node_count, "seed set")
    product = 1.0
    for v in range(model.node_count):
        p = model.prob_at_rate(v, eff[v]) if v in eff else 0.0
        product *= p if v in seeds else 1.0 - p
        if product == 0.0:
            return 0.0
    return product


def f_exact(config: Configuration, instance: Instance) -> float:
    """Exact objective: sum over acceptance patterns of the exact spread.

    Enumerates the subsets of nodes with a positive acceptance chance,
    refusing more than `MAX_SUPPORT_NODES` of them up front. Each seed
    set's spread is read from the graph's `cascade.ExactMemo`, so
    configurations evaluated on one instance share them.
    """
    graph, model = instance.graph, instance.model
    eff = config.effective_map
    check_nodes(eff, graph.node_count, "configuration")
    support = sorted(v for v, r in eff.items() if model.prob_at_rate(v, r) > 0.0)
    if len(support) > MAX_SUPPORT_NODES:
        raise TooLargeError(
            f"exact objective needs {len(support)} accepting nodes enumerated, cap is {MAX_SUPPORT_NODES}; "
            "sample with MCEvaluator (CLI: --evaluator mc)"
        )
    probs = [model.prob_at_rate(v, eff[v]) for v in support]
    spread = exact_memo(graph).spread
    total = 0.0
    for mask, weight in _weighted_masks(probs):
        if weight == 0.0:
            continue
        total += weight * spread(sum(1 << v for i, v in enumerate(support) if (mask >> i) & 1), 0)
    return total


def f_mc(config: Configuration, instance: Instance, samples: int, stream) -> float:
    """Monte Carlo objective estimate.

    Each block of replicates first draws every offer's acceptance as
    one (replicates, offers) matrix, offers in node order, and then
    runs the cascades of the accepted seeds through the same kernel as
    `spread_mc`. Bit-deterministic for a fixed stream; the mean is an
    integer total divided by the sample count.
    """
    check_samples(samples)
    graph, model = instance.graph, instance.model
    eff = config.effective_map
    check_nodes(eff, graph.node_count, "configuration")
    support = sorted(
        (v, model.prob_at_rate(v, eff[v])) for v in eff if model.prob_at_rate(v, eff[v]) > 0.0
    )
    if not support:
        return 0.0
    nodes = np.array([v for v, _ in support], dtype=np.int64)
    probs = np.array([p for _, p in support])
    n = graph.node_count
    gen = generator(as_stream(stream))

    def block_seeds(done: int, r: int) -> np.ndarray:
        rows, cols = np.nonzero(gen.random((r, nodes.size)) < probs)
        return rows * n + nodes[cols]

    return _mc_total(graph, samples, gen, block_seeds) / samples


class ExactEvaluator:
    """Caching exact-objective provider for repeated configuration queries;
    every evaluator on one graph shares its spreads (`f_exact`)."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self._values: dict[tuple, float] = {}

    def value(self, config: Configuration) -> float:
        key = tuple(sorted(config.effective_map.items()))
        if key not in self._values:
            self._values[key] = f_exact(config, self.instance)
        return self._values[key]

    def single_values(self, offers: np.ndarray) -> np.ndarray:
        """Values of the single offers set in the (node, rate index) mask `offers`, node-major."""
        rates = self.instance.menu.rates
        return np.array([self.value(Configuration.of((v, rates[i]))) for v, i in np.argwhere(offers).tolist()],
                        dtype=np.float64)

    def radius(self) -> float:
        return 0.0


class MCEvaluator:
    """Monte Carlo objective: a configuration's mean cascade over R =
    `samples` worlds that the first query draws from `stream`
    (`cascade.sample_worlds`), seeding in each world the offers it
    accepts. That is a sum of coverage functions of the offers. Single
    offers read the table `cascade.offer_totals` builds on the first of
    them; larger configurations run through the shared cascade kernel.
    """

    def __init__(self, instance: Instance, samples: int, stream):
        check_samples(samples)
        self.instance = instance
        self.samples = samples
        self.stream = as_stream(stream)
        self._values: dict[tuple, float] = {}

    @cached_property
    def _worlds(self) -> Worlds:
        return sample_worlds(self.instance.graph, self.samples, self.stream, self.instance.model)

    @cached_property
    def _offers(self) -> np.ndarray:
        return offer_totals(self.instance.graph, self._worlds, len(self.instance.menu))

    def single_values(self, offers: np.ndarray) -> np.ndarray:
        """Values of the single offers set in the (node, rate index) mask `offers`, node-major."""
        return self._offers[offers] / self.samples

    def value(self, config: Configuration) -> float:
        eff = config.effective_map
        if not eff:
            return 0.0
        key = tuple(sorted(eff.items()))
        if key in self._values:
            return self._values[key]
        graph, menu = self.instance.graph, self.instance.menu
        check_nodes(eff, graph.node_count, "configuration")
        if len(key) == 1:  # a table read, not worth a cache entry
            (v, rate), = key
            return int(self._offers[v, menu.index_of(rate)]) / self.samples
        nodes, ridx = np.array([(v, menu.index_of(rate)) for v, rate in key], dtype=np.int64).T
        accept, n = self._worlds.accept, graph.node_count

        def block_seeds(done: int, r: int) -> np.ndarray:
            rows, cols = np.nonzero(accept[done:done + r, nodes] <= ridx)
            return rows * n + nodes[cols]

        self._values[key] = _mc_total(graph, self.samples, None, block_seeds, worlds=self._worlds) / self.samples
        return self._values[key]

    def radius(self) -> float:
        return hoeffding_radius(self.instance.graph.node_count, self.samples)


def hill_climbing(
    instance: Instance,
    spec: BudgetSpec,
    evaluator,
    *,
    gain_rule: str = "marginal",
) -> Configuration:
    """Better of (a) the best affordable single offer and (b) a greedy build-up.

    The single offers are scored in one `evaluator.single_values` call,
    which is one table read under `MCEvaluator`. The greedy candidate
    grows by the offer maximizing marginal gain per unit of incremental
    cost, skipping offers the budget cannot absorb, and stops once the
    best remaining gain drops to numerical zero or the budget left is
    below the smallest raise any offer costs. gain_rule="total" instead
    ranks offers by total value over their raw rate, which is only
    useful for comparison runs; it re-scans every step because total
    value grows as the configuration does.
    """
    if gain_rule not in ("marginal", "total"):
        raise ValidationError(f"gain_rule must be 'marginal' or 'total', got {gain_rule!r}")
    graph, menu = instance.graph, instance.menu
    ledger = BudgetLedger.for_spec(instance.model, spec)
    # Python ints: soft-mode units can pass 2**63.
    rows, row_of = ledger.offer_rows(graph.node_count)
    affordable = np.array([c <= ledger.budget for row in rows for c in row], dtype=bool).reshape(-1, len(menu))[row_of]
    nodes, ridxs = np.nonzero(affordable)
    values = evaluator.single_values(affordable)

    best_single, best_single_val = None, 0.0
    if values.size:
        top = int(np.argmax(values))  # the first maximum, in (node, rate) order
        best_single = Configuration.of((int(nodes[top]), menu.rates[ridxs[top]]))
        best_single_val = float(values[top])

    if gain_rule == "marginal":
        # Each affordable offer with a cost and a gain seeds the lazy queue.
        keep = np.flatnonzero(values > GAIN_EPS)
        singles = [(-val / (rows[k][i] / ledger.denom), v, i, 0, val)
                   for v, i, k, val in zip(nodes[keep].tolist(), ridxs[keep].tolist(), row_of[nodes[keep]].tolist(),
                                           values[keep].tolist())
                   if rows[k][i] > 0]
        # Costs never fall as the rate rises, so a raise that costs anything costs at least the smallest step.
        steps = (c for row in rows for c in (row[0], *(b - a for a, b in zip(row, row[1:]))) if c > 0)
        greedy, greedy_val = _greedy_marginal(instance, ledger, evaluator, singles, min(steps, default=0))
    else:
        greedy, greedy_val = _greedy_total(instance, ledger, evaluator)

    if best_single is not None and best_single_val >= greedy_val:
        return best_single
    return greedy


def _greedy_marginal(instance: Instance, ledger: BudgetLedger, evaluator,
                     heap: list[tuple[float, int, int, int, float]], min_raise: int) -> tuple[Configuration, float]:
    menu = instance.menu
    budget, denom = ledger.budget, ledger.denom
    assignment: dict[int, float] = {}
    spent = 0
    current_val = 0.0
    version = 0
    # Lazy queue of (negated ratio, node, rate index, version stamp, value), seeded with
    # the single offers at version 0. Only gains above GAIN_EPS enter, so a fresh top is
    # taken as it is. Submodularity makes stale ratios upper bounds, so recheck-on-pop
    # suffices; a stale entry within TIE_REL of a fresh top, maybe a tie rounded low, goes first.
    # Once the budget left is below `min_raise`, no entry left can fit.
    heapq.heapify(heap)
    while heap and budget - spent >= min_raise:
        entry = heapq.heappop(heap)
        if entry[3] == version and heap and heap[0][3] != version and heap[0][0] <= entry[0] * (1.0 - TIE_REL):
            entry = heapq.heapreplace(heap, entry)
        _, v, ridx, stamp, val = entry
        rate = menu.rates[ridx]
        current = assignment.get(v, 0.0)
        if rate <= current:
            continue  # dominated by an offer already in place
        inc = ledger.raise_cost(v, rate, current)
        if inc <= 0:
            continue
        if spent + inc > budget:
            continue  # cost only grows with the configuration, so drop for good
        if stamp == version:
            assignment[v] = rate
            spent += inc
            current_val = val
            version += 1
            continue
        val = evaluator.value(Configuration.from_assignment(assignment | {v: rate}))
        gain = val - current_val
        if gain <= GAIN_EPS:
            continue  # gains only shrink as the configuration grows
        heapq.heappush(heap, (-gain / (inc / denom), v, ridx, version, val))
    return Configuration.from_assignment(assignment), current_val


def _greedy_total(instance: Instance, ledger: BudgetLedger, evaluator) -> tuple[Configuration, float]:
    graph, menu = instance.graph, instance.menu
    budget = ledger.budget
    assignment: dict[int, float] = {}
    spent = 0
    current_val = 0.0
    while True:
        best = None  # (ratio, v, ridx, inc, val)
        for v in range(graph.node_count):
            current = assignment.get(v, 0.0)
            for ridx, rate in enumerate(menu.rates):
                if rate <= current:
                    continue
                inc = ledger.raise_cost(v, rate, current)
                if inc <= 0 or spent + inc > budget:
                    continue
                val = evaluator.value(Configuration.from_assignment(assignment | {v: rate}))
                ratio = val / rate
                if best is None or ratio > best[0]:
                    best = (ratio, v, ridx, inc, val)
        if best is None:
            break
        ratio, v, ridx, inc, val = best
        if val - current_val <= GAIN_EPS:
            break
        assignment[v] = menu.rates[ridx]
        spent += inc
        current_val = val
    return Configuration.from_assignment(assignment), current_val


def brute_force_config(instance: Instance, spec: BudgetSpec) -> tuple[Configuration, float]:
    """Exact optimum over every feasible configuration, by enumeration.

    More than `MAX_ASSIGNMENTS` assignments are refused up front. Ties
    keep the first maximizer in lexicographic assignment order (node 0's
    offer varies slowest; no offer sorts before any rate).
    """
    graph, model, menu = instance.graph, instance.model, instance.menu
    n, m = graph.node_count, len(menu)
    total = (m + 1) ** n
    if total > MAX_ASSIGNMENTS:
        raise TooLargeError(
            f"brute force would enumerate {total} configurations, cap is {MAX_ASSIGNMENTS}; "
            "search with hill_climbing (CLI: --algorithm nonadaptive-greedy)"
        )
    evaluator = ExactEvaluator(instance)
    ledger = BudgetLedger.for_spec(model, spec)
    best_config = Configuration.empty()
    best_val = 0.0
    for choice in itertools.product(range(m + 1), repeat=n):
        assignment = {v: menu.rates[c - 1] for v, c in enumerate(choice) if c}
        config = Configuration.from_assignment(assignment)
        if ledger.config_cost(config) > ledger.budget:
            continue
        val = evaluator.value(config)
        if val > best_val:
            best_config, best_val = config, val
    return best_config, best_val
