"""Adaptive discount allocation.

An adaptive policy probes one seed-discount offer at a time against a
fixed but hidden realization. An accepted offer commits its rate,
triggers the seed's cascade, and reveals the out-edges of every node
the cascade reaches; a rejected offer costs nothing but rules out that
node at that rate and below. One policy class, `GreedyPolicy`, covers
the paper's three: benefit-per-cost greedy; with a `branch` estimator,
enhanced greedy, which may first spend the top rate on the single best
node; and with `iterate=True` as well, the iterated heuristic, which
repeats that comparison every round. A backward-induction oracle
computes the optimal policy value on tiny instances.

Everything a run's future depends on is its belief state: the
influenced set, each uninfluenced node's highest rejected rate and the
budget left (`BeliefState`), kept exactly as integer units of one
common denominator (`BudgetLedger`), so affordability checks compare
ints. A policy decides from its `PolicyState`, that belief state and
the ledger; the open offers are read off the belief, and each probe
answer yields the next state. So exhaustive evaluation expands its
decision tree over states once, weighting each branch by its
probability, instead of replaying it against every joint realization.
The oracle and the exhaustive branch estimate share the memoized
cascade outcomes (`CascadeOutcomes`). Only replay against one
realization (`run_policy`), used for sampled evaluation, records which
edges each probe revealed.

The greedy scan is lazy (the accelerated greedy of Golovin and Krause,
2011). A residual spread never grows as the influenced set grows, so a
ratio scored at an earlier state bounds the current one from above:
the policy keeps its offers in a heap stamped with the influenced set
each was scored at, and re-scores only a stale top. Monte Carlo
residual spreads are mean reaches over R sampled live-edge worlds that
each estimator draws once (`cascade.sample_worlds`, one bit an edge),
so they shrink the same way, and lazy and eager scans pick the same
offers in both estimator modes. Sampled evaluation builds one policy
per process and reuses it across trials: every estimate and draw is
keyed by state, so reuse changes no value.
"""
from __future__ import annotations

import copy
import heapq
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .cascade import (
    DiffusionRealization,
    Realization,
    SeedingRealization,
    _live_edge_outcomes,
    hoeffding_radius,
    reveal_cascade,
    sample_worlds,
    spread_exact,
    spread_mc,
)
from .errors import PolicyContractError, TooLargeError, ValidationError
from .graph import Instance, SeedDiscountPair, SocialGraph
from .nonadaptive import BudgetLedger, BudgetSpec
from .rng import as_stream, child, generator

_EVAL_CHUNK = 64
MAX_OUTCOMES = 200_000  # joint realizations an exhaustive pass may enumerate
ORACLE_MAX_NODES, ORACLE_MAX_EDGES, ORACLE_MAX_RATES = 5, 6, 2


def _bits(mask: int):
    """The set bits of `mask`, lowest first, one step per set bit."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BeliefState(NamedTuple):
    """What the rest of an adaptive run depends on.

    `influenced` is a bitmask of influenced nodes, `floors[v]` the
    highest menu index an uninfluenced v has rejected (-1 for none, and
    for every influenced node) and `budget` the budget left, in the
    integer units of the run's `BudgetLedger`. Edges out of uninfluenced
    nodes stay independent of everything observed, so nothing else in
    an observation changes an expected value, and two runs that agree
    here have equal values.
    """

    influenced: int
    floors: tuple[int, ...]
    budget: int

    @classmethod
    def initial(cls, node_count: int, budget: int) -> "BeliefState":
        return cls(0, (-1,) * node_count, budget)

    def accept_chance(self, probs, v: int, rate_idx: int) -> float:
        """Chance v accepts menu rate `rate_idx` given its rejections; ties accept.

        A rejection at floor f pins v's threshold above probs[v][f], so
        the chance is (p_i - p_f) / (1 - p_f).
        """
        row = probs[v]
        floor = self.floors[v]
        low = row[floor] if floor >= 0 else 0.0
        p = row[rate_idx]
        if p <= low:
            return 0.0
        return (p - low) / (1.0 - low)

    def is_open(self, v: int, rate_idx: int) -> bool:
        """Whether offering v menu rate `rate_idx` can still buy anything:
        v is uninfluenced and has rejected no rate at or above it."""
        return not (self.influenced >> v) & 1 and rate_idx > self.floors[v]

    def after_accept(self, addmask: int, cost: int) -> "BeliefState":
        floors = self.floors
        for u in _bits(addmask):
            if floors[u] >= 0:  # the newly influenced drop their floors
                floors = floors[:u] + (-1,) + floors[u + 1:]
        return BeliefState(self.influenced | addmask, floors, self.budget - cost)

    def after_reject(self, v: int, rate_idx: int) -> "BeliefState":
        floors = self.floors
        return BeliefState(self.influenced, floors[:v] + (rate_idx,) + floors[v + 1:], self.budget)


class CascadeOutcomes:
    """Distribution of the set a seed newly influences, memoized per influenced set.

    The cascade runs on the residual graph: influenced nodes neither
    receive nor relay influence, and every edge between the others is
    still unobserved. Outcomes are (added-node bitmask, probability)
    pairs sorted by mask, the seed's own bit included.
    """

    def __init__(self, graph: SocialGraph):
        self.graph = graph
        self._memo: dict[tuple[int, int], list[tuple[int, float]]] = {}

    def of(self, influenced: int, v: int) -> list[tuple[int, float]]:
        key = (influenced, v)
        if key in self._memo:
            return self._memo[key]
        allowed = set(range(self.graph.node_count)).difference(_bits(influenced))
        dist: dict[int, float] = {}
        for w, reached in _live_edge_outcomes(self.graph, [v], allowed):
            addmask = sum(1 << u for u in reached)
            dist[addmask] = dist.get(addmask, 0.0) + w
        out = sorted(dist.items())
        self._memo[key] = out
        return out


@dataclass(frozen=True)
class PolicyState:
    """What a policy may decide from: the belief state and the ledger.

    `ledger` holds the run's rate costs and budget in integer units. A
    probe's answer yields the next state through `after_accept` or
    `after_reject`.
    """

    belief: BeliefState
    ledger: BudgetLedger

    @property
    def budget_left(self) -> Fraction:
        return Fraction(self.belief.budget, self.ledger.denom)

    @property
    def available(self) -> frozenset[SeedDiscountPair]:
        """The offers still worth making, affordable or not (`BeliefState.is_open`)."""
        belief, rates = self.belief, self.ledger.rate_units  # rates in menu order
        return frozenset(SeedDiscountPair(v, r) for v in range(len(belief.floors))
                         for i, r in enumerate(rates) if belief.is_open(v, i))

    def after_accept(self, pair: SeedDiscountPair, addmask: int) -> "PolicyState":
        """The state after `pair` is accepted and its cascade newly influences `addmask`."""
        return PolicyState(self.belief.after_accept(addmask, self.ledger.rate_units[pair.rate]), self.ledger)

    def after_reject(self, pair: SeedDiscountPair, rate_idx: int) -> "PolicyState":
        """The state after `pair`, menu index `rate_idx`, is rejected."""
        return PolicyState(self.belief.after_reject(pair.node, rate_idx), self.ledger)


@dataclass(frozen=True)
class ProbeRecord:
    pair: SeedDiscountPair
    accepted: bool
    newly_influenced: tuple[int, ...]
    revealed: tuple[tuple[int, bool], ...]

    def revealed_edges(self, graph: SocialGraph) -> list[tuple[str, str, str]]:
        """Each revealed edge as (src label, dst label, "live" or "blocked")."""
        labels, edges = graph.labels, graph.edges
        return [(labels[edges[e].src], labels[edges[e].dst], "live" if live else "blocked")
                for e, live in self.revealed]

    def revealed_text(self, graph: SocialGraph) -> list[str]:
        """Each revealed edge as `src->dst:live` or `src->dst:blocked`."""
        return [f"{src}->{dst}:{state}" for src, dst, state in self.revealed_edges(graph)]


@dataclass(frozen=True)
class TrajectoryRecord:
    """Everything one policy run did and saw."""

    probes: tuple[ProbeRecord, ...]
    delivered_cost: float
    influenced: frozenset[int]
    cascade_size: int

    def log_lines(self, graph: SocialGraph) -> list[str]:
        return [
            " ".join(["probe", graph.labels[rec.pair.node], _fmt_rate(rec.pair.rate),
                      "accept" if rec.accepted else "reject", *rec.revealed_text(graph)])
            for rec in self.probes
        ]


def _fmt_rate(rate: float) -> str:
    return str(int(rate)) if rate == int(rate) else repr(rate)


def initial_state(instance: Instance, spec: BudgetSpec) -> PolicyState:
    ledger = BudgetLedger(instance.menu, spec)
    return PolicyState(BeliefState.initial(instance.graph.node_count, ledger.budget), ledger)


def _check_probe(instance: Instance, state: PolicyState, pair: SeedDiscountPair) -> int:
    """The probe's menu index, once it is shown open and affordable."""
    belief, units = state.belief, state.ledger.rate_units
    rate_idx = instance.menu.index_of(pair.rate) if pair.rate in units else None
    # Bound the node first: floors[-1] would read the last node's floor.
    if rate_idx is None or not 0 <= pair.node < len(belief.floors) or not belief.is_open(pair.node, rate_idx):
        raise PolicyContractError(f"probe {pair} is not available")
    if units[pair.rate] > belief.budget:
        raise PolicyContractError(f"probe {pair} exceeds the remaining budget {float(state.budget_left)}")
    return rate_idx


def _execute(policy, instance: Instance, state: PolicyState, realization: Realization) -> TrajectoryRecord:
    """Run `policy` from `state` against `realization` and record what it did and saw."""
    graph = instance.graph
    policy.begin(state)
    probes: list[ProbeRecord] = []
    while (pair := policy.next_probe(state)) is not None:
        rate_idx = _check_probe(instance, state, pair)
        accepted = realization.seeding.accepts(pair.node, rate_idx)
        if accepted:
            newly, revealed = reveal_cascade(graph, realization.diffusion, state.belief.influenced, pair.node)
            state = state.after_accept(pair, sum(1 << u for u in newly))  # newly holds distinct nodes
        else:
            newly, revealed = (), ()
            state = state.after_reject(pair, rate_idx)
        probes.append(ProbeRecord(pair=pair, accepted=accepted, newly_influenced=newly, revealed=revealed))
    ledger, belief = state.ledger, state.belief
    return TrajectoryRecord(
        probes=tuple(probes),
        delivered_cost=(ledger.budget - belief.budget) / ledger.denom,
        influenced=frozenset(_bits(belief.influenced)),
        cascade_size=belief.influenced.bit_count(),
    )


def run_policy(policy, instance: Instance, spec: BudgetSpec, realization: Realization) -> TrajectoryRecord:
    """Execute one trajectory of `policy` against a fixed realization."""
    return _execute(policy, instance, initial_state(instance, spec), realization)


def _expected_influence(policy, instance: Instance, cascades: CascadeOutcomes, state: PolicyState) -> float:
    """Expected final cascade size of running `policy` on from `state`.

    Expands the policy's decision tree once: each probe is checked as
    replay checks it, then branches on reject and on every cascade
    outcome of an accept, each weighted by its probability; branches of
    probability zero are never entered. A branch runs on a `copy.copy`
    of the policy, so its per-run state (phase, scan heaps) stays per
    branch while estimator caches are shared.
    """
    probs = instance.model.probs
    policy.begin(state)
    total = 0.0
    stack = [(1.0, policy, state)]
    while stack:
        weight, pol, st = stack.pop()
        pair = pol.next_probe(st)
        if pair is None:
            total += weight * st.belief.influenced.bit_count()
            continue
        rate_idx = _check_probe(instance, st, pair)
        belief = st.belief
        q = belief.accept_chance(probs, pair.node, rate_idx)
        if q > 0.0:
            for addmask, w in cascades.of(belief.influenced, pair.node):
                stack.append((weight * q * w, copy.copy(pol), st.after_accept(pair, addmask)))
        if q < 1.0:
            stack.append((weight * (1.0 - q), pol, st.after_reject(pair, rate_idx)))
    return total


class SpreadEstimator:
    """Expected residual cascade of a single node, cached per influenced set.

    The cascade runs on the graph minus the influenced nodes: they soak
    up no new influence and cannot relay any they have not already
    relayed. So the answer depends only on the influenced set, not on
    which edges were revealed, because every revealed edge leaves an
    influenced source behind. In "mc" mode the answer is the mean reach
    over `samples` live-edge worlds drawn once from `stream`, so it
    never grows as the influenced set grows, exactly as in "exact" mode.
    """

    def __init__(self, graph: SocialGraph, *, mode: str = "exact", samples: int = 1000, stream=None):
        if mode not in ("exact", "mc"):
            raise ValidationError(f"spread mode must be 'exact' or 'mc', got {mode!r}")
        if mode == "mc" and stream is None:
            raise ValidationError("mc spread estimation needs a seed stream")
        self.graph = graph
        self.mode = mode
        self.samples = samples
        self.stream = as_stream(stream) if stream is not None else None
        self._worlds = sample_worlds(graph, samples, self.stream) if mode == "mc" else None
        self._cache: dict[tuple[int, int], float] = {}

    def residual_spread(self, influenced, v: int) -> float:
        """Expected cascade of seeding v alone; `influenced` is a node bitmask or a set of nodes."""
        if not isinstance(influenced, int):
            influenced = sum(1 << u for u in set(influenced))
        key = (influenced, v)
        if key not in self._cache:
            if (influenced >> v) & 1:
                raise ValidationError(f"node {v} is already influenced")
            n = self.graph.node_count
            if self.mode == "exact":
                val = spread_exact(self.graph, [v], restrict=set(range(n)).difference(_bits(influenced)))
            else:
                packed = np.frombuffer(influenced.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
                blocked = np.unpackbits(packed, count=n, bitorder="little").view(bool)
                val = spread_mc(self.graph, [v], self.samples, None, blocked=blocked, worlds=self._worlds)
            self._cache[key] = val
        return self._cache[key]


class GreedyPolicy:
    """Probe the affordable offer with the best residual spread per rate.

    With a `branch` estimator the run first weighs a one-shot move: the
    top rate offered to the open node with the best residual spread,
    taken when acceptance chance times spread beats the estimated value
    of the greedy continuation. Once that comparison loses, greedy
    finishes the run. Without `iterate` (enhanced greedy) a taken shot
    ends the run, accepted or rejected; with it (the iterated heuristic)
    the comparison repeats on the residual graph.

    Both scans are lazy. The per-run heaps hold `(-spread / rate, pair,
    stamp)` and `(-spread, node, stamp)`, `stamp` being the influenced
    set the key was scored at (None before any scoring). A stale top is
    re-scored and pushed back; a fresh top is the best offer, ties going
    to the lowest node, then the lowest rate, as an eager scan would
    pick. A copy of the policy, one per branch of an exhaustive
    evaluation, copies the heaps.
    """

    def __init__(self, instance: Instance, estimator: SpreadEstimator,
                 branch: BranchEstimator | None = None, *, iterate: bool = False):
        self.instance = instance
        self.estimator = estimator
        self.branch = branch
        self.iterate = iterate

    def __copy__(self) -> "GreedyPolicy":
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin._ratios, twin._spreads = list(self._ratios), list(self._spreads)
        return twin

    def begin(self, state: PolicyState) -> None:
        self._phase = "greedy" if self.branch is None else "shot"
        # Sorted lists with equal first keys are heaps already.
        open_pairs = sorted(state.available)
        self._ratios = [(-math.inf, pair, None) for pair in open_pairs]
        nodes = sorted({p.node for p in open_pairs}) if self.branch is not None else ()
        self._spreads = [(-math.inf, v, None) for v in nodes]

    def next_probe(self, state: PolicyState) -> SeedDiscountPair | None:
        if self._phase == "done":
            return None
        if self._phase == "shot":
            shot = self._top_rate_shot(state)
            if shot is not None:
                self._phase = "shot" if self.iterate else "done"
                return shot
            self._phase = "greedy"
        heap, belief, index_of = self._ratios, state.belief, self.instance.menu.index_of
        influenced, units, left = belief.influenced, state.ledger.rate_units, belief.budget
        while heap:
            _, pair, stamp = heap[0]
            if not belief.is_open(pair.node, index_of(pair.rate)) or units[pair.rate] > left:
                heapq.heappop(heap)  # closed, or out of reach for good: the budget only falls
            elif stamp != influenced:
                ratio = self.estimator.residual_spread(influenced, pair.node) / pair.rate
                heapq.heapreplace(heap, (-ratio, pair, influenced))
            else:
                return heapq.heappop(heap)[1]
        return None

    def _top_rate_shot(self, state: PolicyState) -> SeedDiscountPair | None:
        """The top-rate offer to the best open node, if it beats the greedy continuation."""
        menu, belief = self.instance.menu, state.belief
        d_max, top, influenced = menu.d_max, len(menu) - 1, belief.influenced
        if state.ledger.rate_units[d_max] > belief.budget:
            return None
        heap = self._spreads
        while heap:
            key, v, stamp = heap[0]
            # An open node's top rate is open too: a rejection closes only that rate and cheaper ones.
            if not belief.is_open(v, top):
                heapq.heappop(heap)
            elif stamp != influenced:
                heapq.heapreplace(heap, (-self.estimator.residual_spread(influenced, v), v, influenced))
            else:
                p = self.instance.model.prob_at_rate(v, d_max)
                return SeedDiscountPair(v, d_max) if p * -key > self.branch.greedy_value_from(state) else None
        return None


def _threshold_options(row: tuple[float, ...], floor_idx: int) -> list[tuple[int, float]]:
    """Posterior over the cheapest acceptable rate index, given rejections.

    A rejection at floor_idx pins the threshold above row[floor_idx];
    the remaining probability splits across the higher menu intervals,
    with len(row) standing for "never accepts".
    """
    m = len(row)
    low = row[floor_idx] if floor_idx >= 0 else 0.0
    denom = 1.0 - low
    if denom <= 0.0:
        return [(m, 1.0)]
    options: list[tuple[int, float]] = []
    prev = low
    for i in range(floor_idx + 1, m):
        p = row[i]
        if p > prev:
            options.append((i, (p - prev) / denom))
            prev = p
    if prev < 1.0:
        options.append((m, (1.0 - prev) / denom))
    return options


def _conditional_support(instance: Instance, given):
    """What stays open in a realization consistent with `given`.

    `given` is a `BeliefState`, or a `PartialObservation` read as the
    belief it implies with its revealed edge states pinned. Returns the
    fixed threshold index per node ("never accepts" if influenced), the
    (node, threshold options) pairs still open, the edge states fixed by
    observation or by a 0/1 probability, and the undetermined edges:
    0 < p < 1 out of uninfluenced nodes, as every revealed edge leaves
    an influenced one.
    """
    graph = instance.graph
    live = [e.prob >= 1.0 for e in graph.edges]
    if isinstance(given, BeliefState):
        influenced, floors = given.influenced, given.floors
    else:
        influenced, floors = sum(1 << u for u in given.influenced), [-1] * graph.node_count
        for pair, accepted in given.probed:
            if not accepted:
                floors[pair.node] = max(floors[pair.node], instance.menu.index_of(pair.rate))
        for eidx, state in given.revealed.items():
            live[eidx] = state
    fixed = [len(instance.menu)] * graph.node_count
    varying: list[tuple[int, list[tuple[int, float]]]] = []
    for v, row in enumerate(instance.model.probs):
        if not (influenced >> v) & 1:
            options = _threshold_options(row, floors[v])
            if len(options) == 1:
                fixed[v] = options[0][0]
            else:
                varying.append((v, options))
    undetermined = [
        i for i, e in enumerate(graph.edges) if not (influenced >> e.src) & 1 and 0.0 < e.prob < 1.0
    ]
    return fixed, varying, live, undetermined


def conditional_outcome_count(instance: Instance, given) -> int:
    """Number of joint realizations an exhaustive pass would enumerate from `given`."""
    _fixed, varying, _live, undetermined = _conditional_support(instance, given)
    return math.prod(len(options) for _, options in varying) << len(undetermined)


def _check_outcome_count(instance: Instance, given, fix: str = "") -> None:
    count = conditional_outcome_count(instance, given)
    if count > MAX_OUTCOMES:
        raise TooLargeError(f"exhaustive evaluation needs {count} realizations, cap is {MAX_OUTCOMES}{fix}")


def enumerate_conditional_realizations(instance: Instance, given):
    """Yield (weight, realization) consistent with `given`, weights summing to 1.

    `given` is a `BeliefState` or a `PartialObservation`; more than
    `MAX_OUTCOMES` realizations are refused up front. Thresholds are
    enumerated at menu-interval resolution, which is all a policy can
    ever distinguish. Influenced nodes get the "never accepts" sentinel;
    nothing may probe them again.
    """
    _check_outcome_count(instance, given)
    edges = instance.graph.edges
    fixed, varying, base_live, undetermined = _conditional_support(instance, given)
    for combo in itertools.product(*(options for _, options in varying)):
        idx = list(fixed)
        w_nodes = 1.0
        for (v, _), (i, p) in zip(varying, combo):
            idx[v] = i
            w_nodes *= p
        for mask in range(1 << len(undetermined)):
            live = list(base_live)
            w = w_nodes
            for j, eidx in enumerate(undetermined):
                p = edges[eidx].prob
                if (mask >> j) & 1:
                    live[eidx] = True
                    w *= p
                else:
                    live[eidx] = False
                    w *= 1.0 - p
            yield w, Realization(
                seeding=SeedingRealization(min_rate_idx=tuple(idx)),
                diffusion=DiffusionRealization(live=tuple(live)),
            )


def sample_conditional_realization(instance: Instance, given, gen: np.random.Generator) -> Realization:
    """Draw a realization consistent with `given`, a `BeliefState` or a
    `PartialObservation` (nodes first, then edges)."""
    idx, varying, live, undetermined = _conditional_support(instance, given)
    for v, options in varying:
        u = gen.random()
        idx[v] = options[-1][0]
        for i, p in options:
            u -= p
            if u < 0:
                idx[v] = i
                break
    for eidx in undetermined:
        live[eidx] = bool(gen.random() < instance.graph.edges[eidx].prob)
    return Realization(
        seeding=SeedingRealization(min_rate_idx=tuple(idx)),
        diffusion=DiffusionRealization(live=tuple(live)),
    )


@dataclass(frozen=True)
class BranchConfig:
    """How two-branch policies estimate the greedy fallback's value;
    exhaustive estimates are refused past `MAX_OUTCOMES` realizations."""

    mode: str = "exhaustive"  # or "rollouts"
    rollouts: int = 1000

    def __post_init__(self):
        if self.mode not in ("exhaustive", "rollouts"):
            raise ValidationError(f"branch mode must be 'exhaustive' or 'rollouts', got {self.mode!r}")
        if self.rollouts < 1:
            raise ValidationError("rollouts must be at least 1")


class BranchEstimator:
    """Expected additional influence of running greedy from a given state.

    Estimates are memoized by belief state, the whole of what the greedy
    continuation can depend on. Exhaustive estimates expand greedy's
    decision tree from that state; rollouts replay greedy from it against
    realizations drawn given its belief, with draws keyed by the belief,
    so estimates never depend on when or how often they are requested.
    """

    def __init__(self, instance: Instance, estimator: SpreadEstimator, config: BranchConfig, stream=None):
        if config.mode == "rollouts" and stream is None:
            raise ValidationError("rollout branch estimation needs a seed stream")
        self.instance = instance
        self.config = config
        self.stream = as_stream(stream) if stream is not None else None
        self._greedy = GreedyPolicy(instance, estimator)
        self._cascades = CascadeOutcomes(instance.graph)
        self._memo: dict[BeliefState, float] = {}

    def greedy_value_from(self, state: PolicyState) -> float:
        key = state.belief
        if key in self._memo:
            return self._memo[key]
        base = key.influenced.bit_count()
        if self.config.mode == "exhaustive":
            _check_outcome_count(self.instance, key,
                                 '; estimate the branch by sampling with BranchConfig(mode="rollouts")'
                                 " (CLI: --branch rollouts)")
            val = _expected_influence(self._greedy, self.instance, self._cascades, state) - base
        else:
            m = len(self.instance.menu)
            floors_code = sum((fl + 1) * (m + 1) ** v for v, fl in enumerate(key.floors))
            # The budget left enters reduced, so the key names the amount, not the ledger's units.
            g = math.gcd(key.budget, state.ledger.denom)
            root = child(self.stream, key.influenced, floors_code, key.budget // g, state.ledger.denom // g)
            total = 0
            for r in range(self.config.rollouts):
                realization = sample_conditional_realization(self.instance, key, generator(root, r))
                record = _execute(self._greedy, self.instance, state, realization)
                total += record.cascade_size - base
            val = total / self.config.rollouts
        self._memo[key] = val
        return val


@dataclass(frozen=True)
class EstimatorConfig:
    mode: str = "exact"
    samples: int = 1000

    def build(self, graph: SocialGraph, stream) -> SpreadEstimator:
        return SpreadEstimator(graph, mode=self.mode, samples=self.samples, stream=stream)


@dataclass(frozen=True)
class GreedyFactory:
    instance: Instance
    spec: BudgetSpec
    estimator: EstimatorConfig = EstimatorConfig()

    def __call__(self, stream) -> GreedyPolicy:
        return GreedyPolicy(self.instance, self.estimator.build(self.instance.graph, child(as_stream(stream), 10)))


def _branch_policy(factory, stream, *, iterate: bool) -> GreedyPolicy:
    root = as_stream(stream)
    est = factory.estimator.build(factory.instance.graph, child(root, 10))
    branch = BranchEstimator(factory.instance, est, factory.branch, stream=child(root, 11))
    return GreedyPolicy(factory.instance, est, branch, iterate=iterate)


@dataclass(frozen=True)
class EnhancedFactory:
    instance: Instance
    spec: BudgetSpec
    estimator: EstimatorConfig = EstimatorConfig()
    branch: BranchConfig = BranchConfig()

    def __call__(self, stream) -> GreedyPolicy:
        return _branch_policy(self, stream, iterate=False)


@dataclass(frozen=True)
class IteratedFactory:
    instance: Instance
    spec: BudgetSpec
    estimator: EstimatorConfig = EstimatorConfig()
    branch: BranchConfig = BranchConfig()

    def __call__(self, stream) -> GreedyPolicy:
        return _branch_policy(self, stream, iterate=True)


def _run_trials(policy, instance: Instance, spec: BudgetSpec, root, lo: int, hi: int) -> list[int]:
    """Cascade sizes of `policy` over trials lo..hi-1, each against its own keyed draw."""
    prior = BeliefState.initial(instance.graph.node_count, 0)
    return [
        run_policy(policy, instance, spec, sample_conditional_realization(instance, prior, generator(root, 2, t)))
        .cascade_size
        for t in range(lo, hi)
    ]


# A pool worker's policy and inputs, set once per process by `_start_worker`.
_worker_args = None


def _start_worker(policy_factory, instance: Instance, spec: BudgetSpec, root) -> None:
    global _worker_args
    _worker_args = (policy_factory(child(root, 1)), instance, spec, root)


def _worker_trials(bounds: tuple[int, int]) -> list[int]:
    return _run_trials(*_worker_args, *bounds)


def evaluate_policy(policy_factory, instance: Instance, spec: BudgetSpec, trials,
                    stream=None, *, workers: int = 1) -> tuple[float, float]:
    """Expected cascade size of a policy, with a confidence radius.

    trials="exhaustive" expands the policy's decision tree over belief
    states, weighting every branch by its probability (radius 0.0); it
    refuses up front when more than `MAX_OUTCOMES` joint realizations
    are consistent with the initial belief. An integer samples that
    many realizations and reports a Hoeffding radius at confidence
    95%. Sampled trials use per-trial substreams and integer
    totals, so the result is identical for any worker count. Each
    process builds the policy once (a pool worker in its initializer)
    and runs all its trials with it; chunks of trials carry only their
    bounds.
    """
    if trials == "exhaustive":
        state = initial_state(instance, spec)
        _check_outcome_count(instance, state.belief,
                             "; sample instead with an integer trial count (CLI: drop --exhaustive)")
        policy = policy_factory(child(as_stream(stream), 0))
        return _expected_influence(policy, instance, CascadeOutcomes(instance.graph), state), 0.0
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ValidationError(f"trials must be a positive int or 'exhaustive', got {trials!r}")
    root = as_stream(stream)
    chunks = [(lo, min(lo + _EVAL_CHUNK, trials)) for lo in range(0, trials, _EVAL_CHUNK)]
    if workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks)), initializer=_start_worker,
                                 initargs=(policy_factory, instance, spec, root)) as pool:
            total = sum(size for chunk in pool.map(_worker_trials, chunks) for size in chunk)
    else:
        total = sum(_run_trials(policy_factory(child(root, 1)), instance, spec, root, 0, trials))
    mean = total / trials
    return mean, hoeffding_radius(instance.graph.node_count, trials)


def optimal_policy_oracle(instance: Instance, spec: BudgetSpec) -> float:
    """Optimal adaptive policy value by backward induction over belief states.

    `BeliefState`s suffice because edges out of uninfluenced nodes stay
    independent of everything revealed so far. Only probes with a
    positive conditional acceptance chance are considered; anything else
    changes no beliefs and wastes nothing but time.
    """
    graph, model, menu = instance.graph, instance.model, instance.menu
    n, m = graph.node_count, len(menu)
    if n > ORACLE_MAX_NODES:
        raise TooLargeError(f"optimal oracle handles at most {ORACLE_MAX_NODES} nodes, got {n}")
    if len(graph.edges) > ORACLE_MAX_EDGES:
        raise TooLargeError(f"optimal oracle handles at most {ORACLE_MAX_EDGES} edges, got {len(graph.edges)}")
    if m > ORACLE_MAX_RATES:
        raise TooLargeError(f"optimal oracle handles menus up to {ORACLE_MAX_RATES} rates, got {m}")
    ledger = BudgetLedger(menu, spec)
    rates = [ledger.rate_units[r] for r in menu.rates]
    return _optimal_value(BeliefState.initial(n, ledger.budget), model.probs, rates,
                          CascadeOutcomes(graph), {})


def _optimal_value(belief: BeliefState, probs, rates: list[int], cascades: CascadeOutcomes,
                   memo: dict[BeliefState, float]) -> float:
    """The oracle's recursion, kept at module level so that no closure cycle
    holds its memo alive past the call."""
    if belief in memo:
        return memo[belief]
    best = 0.0
    for v in range(len(probs)):
        if (belief.influenced >> v) & 1:
            continue
        for i, rate in enumerate(rates):
            if rate > belief.budget:
                continue
            q = belief.accept_chance(probs, v, i)
            if q <= 0.0:
                continue
            acc = 0.0
            for addmask, w in cascades.of(belief.influenced, v):
                after = belief.after_accept(addmask, rate)
                acc += w * (addmask.bit_count() + _optimal_value(after, probs, rates, cascades, memo))
            if q >= 1.0:
                cand = acc
            else:
                cand = q * acc + (1.0 - q) * _optimal_value(belief.after_reject(v, i), probs, rates, cascades, memo)
            if cand > best:
                best = cand
    memo[belief] = best
    return best
