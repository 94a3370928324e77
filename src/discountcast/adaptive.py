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
The oracle, exhaustive evaluation, the exhaustive branch estimate and
exact residual spreads all read one memo per graph (`cascade.ExactMemo`):
its cascade outcomes and its spreads, which an exact estimator asks for
and keeps no copy of. Only replay against one realization (`run_policy`)
records which edges each probe revealed.

The greedy scan is lazy (the accelerated greedy of Golovin and Krause,
2011). A residual spread never grows as the influenced set grows, so a
ratio scored at an earlier state bounds the current one from above:
the policy keeps its offers in a heap stamped with the influenced set
each was scored at, and re-scores only a stale top. Monte Carlo
residual spreads are mean reaches over R sampled live-edge worlds that
each estimator draws once (`cascade.sample_worlds`) and keeps as one
R-bit mask per edge (`cascade.WorldMasks`), searched in all worlds at
once (`cascade.masked_reach`). So they shrink the same way, and lazy
and eager scans pick the same offers in both estimator modes. Sampled
evaluation builds one policy per process (the caller and a child per
other share of trials) and reuses it across trials: every estimate and
draw is keyed by state, so reuse changes no value.

The realizations consistent with a belief are its conditional support
(`_ConditionalSupport`), built once per belief: the exhaustive cap
counts them, enumeration walks them and every draw reads them. Sampled
trials and rollout branch estimates run a policy against many drawn
realizations, and `_walk_trials` runs them as one decision tree:
trials that reach one belief share its probe, and split on its answer.
"""
from __future__ import annotations

import copy
import heapq
import itertools
import math
import multiprocessing
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .cascade import (
    DiffusionRealization,
    ExactMemo,
    Realization,
    SeedingRealization,
    WorldMasks,
    _bits,
    _weighted_masks,
    check_samples,
    exact_memo,
    hoeffding_radius,
    masked_reach,
    reveal_cascade,
    sample_worlds,
)
from .errors import PolicyContractError, TooLargeError, ValidationError
from .graph import Instance, SeedDiscountPair, SocialGraph, check_nodes
from .nonadaptive import BudgetLedger, BudgetSpec
from .rng import as_stream, child, generator

_EVAL_CHUNK = 64  # sampled evaluation starts a process per _EVAL_CHUNK trials begun, up to `workers`
_WALK_ENTRIES = 1 << 19  # realization entries (nodes + edges each) one `_walk_trials` tree holds
MAX_OUTCOMES = 200_000  # joint realizations an exhaustive pass may enumerate
ORACLE_MAX_NODES, ORACLE_MAX_EDGES, ORACLE_MAX_RATES = 5, 6, 2


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


def _expected_influence(policy, instance: Instance, state: PolicyState) -> float:
    """Expected final cascade size of running `policy` on from `state`.

    Expands the policy's decision tree once: each probe is checked as
    replay checks it, then branches on reject and on every cascade
    outcome of an accept (`ExactMemo.outcomes` on the residual graph),
    each weighted by its probability; branches of probability zero are
    never entered. A branch runs on a `copy.copy` of the policy, so its
    per-run state (phase, scan heaps) stays per branch while estimator
    caches are shared.
    """
    probs, cascades = instance.model.probs, exact_memo(instance.graph)
    dup = getattr(type(policy), "__copy__", copy.copy)  # skips `copy.copy`'s dispatch
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
            for addmask, w, _ in cascades.outcomes(belief.influenced, pair.node):
                stack.append((weight * q * w, dup(pol), st.after_accept(pair, addmask)))
        if q < 1.0:
            stack.append((weight * (1.0 - q), pol, st.after_reject(pair, rate_idx)))
    return total


def _walk_trials(policy, instance: Instance, state: PolicyState, realizations) -> list[int]:
    """Final cascade size of running `policy` from `state` against each realization, in input order.

    The runs form one decision tree, walked as `_expected_influence` walks
    it: a node asks for a probe once, checks it once and splits its trials
    into one reject group and one group per set an accept newly influences.
    Accept branches run on policy copies, the reject branch on the policy.
    Realizations are walked in groups of at most `_WALK_ENTRIES` entries
    (the nodes and edges of each), one tree per group.
    """
    graph = instance.graph
    dup = getattr(type(policy), "__copy__", copy.copy)
    per_group = max(1, _WALK_ENTRIES // (graph.node_count + len(graph.src)))
    realizations, sizes = iter(realizations), []
    while group := list(itertools.islice(realizations, per_group)):
        out = [0] * len(group)
        policy.begin(state)
        stack = [(range(len(group)), policy, state)]
        while stack:
            trials, pol, st = stack.pop()
            pair = pol.next_probe(st)
            if pair is None:
                for t in trials:
                    out[t] = st.belief.influenced.bit_count()
                continue
            rate_idx = _check_probe(instance, st, pair)
            v, influenced = pair.node, st.belief.influenced
            rejects, accepts = [], {}
            for t in trials:
                real = group[t]
                if real.seeding.accepts(v, rate_idx):
                    newly, _ = reveal_cascade(graph, real.diffusion, influenced, v)
                    accepts.setdefault(sum(1 << u for u in newly), []).append(t)
                else:
                    rejects.append(t)
            stack.extend((ts, dup(pol), st.after_accept(pair, addmask)) for addmask, ts in accepts.items())
            if rejects:
                stack.append((rejects, pol, st.after_reject(pair, rate_idx)))
        sizes += out
    return sizes


class SpreadEstimator:
    """Expected residual cascade of a single node, cached per influenced set.

    The cascade runs on the graph minus the influenced nodes: they soak
    up no new influence and cannot relay any they have not already
    relayed. So the answer depends only on the influenced set, not on
    which edges were revealed, because every revealed edge leaves an
    influenced source behind. In "mc" mode the answer is the mean reach
    over `samples` live-edge worlds drawn once from `stream`, so it
    never grows as the influenced set grows, exactly as in "exact" mode.
    An "mc" estimator keeps its answers, keyed `(v, influenced)`; an "exact"
    one keeps none and asks the graph's `ExactMemo`, shared by every exact routine.
    """

    def __init__(self, graph: SocialGraph, *, mode: str = "exact", samples: int = 1000, stream=None):
        EstimatorConfig(mode, samples)  # refuses a bad mode or sample count
        if mode == "mc" and stream is None:
            raise ValidationError("mc spread estimation needs a seed stream")
        self.graph = graph
        self.mode = mode
        self.samples = samples
        self.stream = as_stream(stream) if stream is not None else None
        self._masks = WorldMasks(graph, sample_worlds(graph, samples, self.stream)) if mode == "mc" else None
        self._spreads: dict[tuple[int, int], float] = {}  # mc answers; an exact estimator's stays empty

    def residual_spread(self, influenced, v: int) -> float:
        """Expected cascade of seeding v alone; `influenced` is a node bitmask or a set of nodes."""
        n = self.graph.node_count
        if not isinstance(influenced, int):
            influenced = set(influenced)
            check_nodes(influenced, n, "influenced set")
            influenced = sum(1 << u for u in influenced)
        val = self._spreads.get((v, influenced))
        if val is None:
            check_nodes((v,), n, "residual spread")
            if not 0 <= influenced < 1 << n:
                raise ValidationError(f"influenced mask {influenced} names nodes outside 0..{n - 1}")
            if (influenced >> v) & 1:
                raise ValidationError(f"node {v} is already influenced")
            if self.mode == "exact":
                return exact_memo(self.graph).spread(1 << v, influenced)
            val = self._spreads[v, influenced] = masked_reach(self._masks, v, influenced) / self.samples
        return val


class GreedyPolicy:
    """Probe the affordable offer with the best residual spread per rate.

    With a `branch` estimator the run first weighs a one-shot move: the
    top rate offered to the open node with the best residual spread,
    taken when acceptance chance times spread beats the estimated value
    of the greedy continuation. Once that comparison loses, greedy
    finishes the run. Without `iterate` (enhanced greedy) a taken shot
    ends the run, accepted or rejected; with it (the iterated heuristic)
    the comparison repeats on the residual graph.

    Both scans are lazy. The per-run heaps hold `(-spread / rate, node,
    rate index, stamp)` and `(-spread, node, stamp)`, `stamp` being the
    influenced set the key was scored at. A stale top is re-scored and
    pushed back; a fresh top is the best offer, ties going to the lowest
    node, then the lowest rate, as an eager scan would pick. A copy of
    the policy, one per branch of a decision tree, copies the heaps.

    `begin` scores both heaps once per policy, at the empty belief, on its
    first call whose budget covers the cheapest rate; every run, from any
    state and under any ledger, starts from copies of them. So in exact
    mode a policy first begun at a later state can raise `TooLargeError`
    where a run from that state alone would not. Sampled evaluation and
    rollouts walk their runs as one tree (`_walk_trials`), so runs that
    reach one belief share its probe.
    """

    def __init__(self, instance: Instance, estimator: SpreadEstimator,
                 branch: BranchEstimator | None = None, *, iterate: bool = False):
        if iterate and branch is None:
            raise ValidationError("iterate needs a branch estimator to weigh its top-rate shots")
        self.instance = instance
        self.estimator = estimator
        self.branch = branch
        self.iterate = iterate
        self._heaps = None  # both heaps scored at the empty belief, built by the first `begin` that can buy

    def __copy__(self) -> "GreedyPolicy":
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin._ratios, twin._spreads = list(self._ratios), list(self._spreads)
        return twin

    def begin(self, state: PolicyState) -> None:
        self._cheapest = min(state.ledger.rate_units.values())
        if self._heaps is None and state.belief.budget >= self._cheapest:
            self._heaps = self._scored_heaps()
        self._phase = "greedy" if self.branch is None else "shot"
        self._ratios, self._spreads = map(list, self._heaps or ((), ()))

    def _scored_heaps(self) -> tuple[tuple, tuple]:
        """Both heaps at the empty belief, every entry scored there: each
        (node, rate) offer and, with a branch estimator, each node. One
        spread lookup per node serves both heaps."""
        rates, spread = self.instance.menu.rates, self.estimator.residual_spread
        values = [spread(0, v) for v in range(self.instance.graph.node_count)]
        ratios = [(-(value / r), v, i, 0) for v, value in enumerate(values) for i, r in enumerate(rates)]
        spreads = [(-value, v, 0) for v, value in enumerate(values)] if self.branch is not None else []
        heapq.heapify(ratios)
        heapq.heapify(spreads)
        return tuple(ratios), tuple(spreads)

    def next_probe(self, state: PolicyState) -> SeedDiscountPair | None:
        """One probe of the lazy scans, advancing the phase."""
        if self._phase == "done":
            return None
        if self._phase == "shot":
            shot = self._top_rate_shot(state)
            if shot is not None:
                self._phase = "shot" if self.iterate else "done"
                return shot
            self._phase = "greedy"
        heap, belief, rates = self._ratios, state.belief, self.instance.menu.rates
        influenced, floors, units, left = belief.influenced, belief.floors, state.ledger.rate_units, belief.budget
        if left < self._cheapest:  # nothing fits, now or later: the budget only falls
            return None
        while heap:
            _, v, i, stamp = heap[0]
            # Closed (`BeliefState.is_open`, inlined), or out of reach for good: the budget only falls.
            if (influenced >> v) & 1 or i <= floors[v] or units[rates[i]] > left:
                heapq.heappop(heap)
            elif stamp != influenced:
                ratio = self.estimator.residual_spread(influenced, v) / rates[i]
                heapq.heapreplace(heap, (-ratio, v, i, influenced))
            else:
                heapq.heappop(heap)
                return SeedDiscountPair(v, rates[i])
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
                p = belief.accept_chance(self.instance.model.probs, v, top)
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


class _ConditionalSupport:
    """The realizations consistent with one `given`, built once for every use.

    `given` is a `BeliefState`, or a `PartialObservation` read as the
    belief it implies with its revealed edge states pinned. The support
    holds the fixed threshold index per node ("never accepts" if
    influenced), the (node, threshold options) pairs still open, every
    edge's live state as fixed by observation or by a 0/1 probability,
    and the undetermined edges with their probabilities: 0 < p < 1 out
    of uninfluenced nodes, as every revealed edge leaves an influenced
    one. `count` (computed on first read) is the number of joint
    realizations, which an exhaustive pass refuses past `MAX_OUTCOMES`.
    """

    def __init__(self, instance: Instance, given):
        graph = instance.graph
        self.live = graph.prob >= 1.0
        if isinstance(given, BeliefState):
            influenced, floors = given.influenced, given.floors
        else:
            influenced, floors = sum(1 << u for u in given.influenced), [-1] * graph.node_count
            for pair, accepted in given.probed:
                if not accepted:
                    floors[pair.node] = max(floors[pair.node], instance.menu.index_of(pair.rate))
            for eidx, state in given.revealed.items():
                self.live[eidx] = state
        blocked = np.zeros(graph.node_count, dtype=bool)
        blocked[list(_bits(influenced))] = True
        fixed = [len(instance.menu)] * graph.node_count
        self.varying: list[tuple[int, list[tuple[int, float]]]] = []
        for v, (row, done) in enumerate(zip(instance.model.probs, blocked.tolist())):
            if not done:
                options = _threshold_options(row, floors[v])
                if len(options) == 1:
                    fixed[v] = options[0][0]
                else:
                    self.varying.append((v, options))
        self.fixed = tuple(fixed)
        self.undetermined = np.flatnonzero(~blocked[graph.src] & (graph.prob > 0.0) & (graph.prob < 1.0))
        self.edge_probs = graph.prob[self.undetermined]

    @cached_property
    def count(self) -> int:
        return math.prod(len(options) for _, options in self.varying) << len(self.undetermined)

    def check(self, fix: str = "") -> None:
        if self.count > MAX_OUTCOMES:
            raise TooLargeError(f"exhaustive evaluation needs {self.count} realizations, cap is {MAX_OUTCOMES}{fix}")

    def realizations(self):
        """Yield (weight, realization) over the support, weights summing to 1.

        More than `MAX_OUTCOMES` realizations are refused up front.
        Thresholds are enumerated at menu-interval resolution, which is
        all a policy can ever distinguish.
        """
        self.check()
        varying, base_live = self.varying, self.live.tolist()
        edges, probs = self.undetermined.tolist(), self.edge_probs.tolist()
        for combo in itertools.product(*(options for _, options in varying)):
            idx = list(self.fixed)
            w_nodes = 1.0
            for (v, _), (i, p) in zip(varying, combo):
                idx[v] = i
                w_nodes *= p
            for mask, w in _weighted_masks(probs, w_nodes):
                live = list(base_live)
                for j, eidx in enumerate(edges):
                    live[eidx] = bool((mask >> j) & 1)
                yield w, Realization(SeedingRealization(tuple(idx)), DiffusionRealization(tuple(live)))

    def draw(self, gen: np.random.Generator) -> Realization:
        """One realization from one `gen.random(k)` call: a uniform per open
        node, which walks that node's threshold options, then one per
        undetermined edge, live below the edge's probability. One call
        gives the numbers k scalar calls would."""
        varying = self.varying
        us = gen.random(len(varying) + len(self.undetermined))
        idx = list(self.fixed)
        for (v, options), u in zip(varying, us[:len(varying)].tolist()):
            idx[v] = options[-1][0]
            for i, p in options:
                u -= p
                if u < 0:
                    idx[v] = i
                    break
        live = self.live.copy()
        live[self.undetermined] = us[len(varying):] < self.edge_probs
        return Realization(SeedingRealization(tuple(idx)), DiffusionRealization(tuple(live.tolist())))


def enumerate_conditional_realizations(instance: Instance, given):
    """Yield (weight, realization) consistent with `given`, a `BeliefState` or
    a `PartialObservation`, weights summing to 1 (`_ConditionalSupport.realizations`)."""
    yield from _ConditionalSupport(instance, given).realizations()


def sample_conditional_realization(instance: Instance, given, gen: np.random.Generator) -> Realization:
    """Draw a realization consistent with `given`, a `BeliefState` or a
    `PartialObservation` (nodes first, then edges)."""
    return _ConditionalSupport(instance, given).draw(gen)


@dataclass(frozen=True)
class BranchConfig:
    """How two-branch policies estimate the greedy fallback's value;
    exhaustive estimates are refused past `MAX_OUTCOMES` realizations."""

    mode: str = "exhaustive"  # or "rollouts"
    rollouts: int = 1000

    def __post_init__(self):
        if self.mode not in ("exhaustive", "rollouts"):
            raise ValidationError(f"branch mode must be 'exhaustive' or 'rollouts', got {self.mode!r}")
        check_samples(self.rollouts, "rollouts")


class BranchEstimator:
    """Expected additional influence of running greedy from a given state.

    Estimates are memoized by belief state and ledger denominator, the
    whole of what the greedy continuation can depend on (equal budget
    units in another denominator are another amount). Exhaustive
    estimates expand greedy's decision tree from that state; rollouts
    replay greedy from it against realizations drawn given its belief,
    with draws keyed by the belief, so estimates never depend on when or
    how often they are requested.
    """

    def __init__(self, instance: Instance, estimator: SpreadEstimator, config: BranchConfig, stream=None):
        if config.mode == "rollouts" and stream is None:
            raise ValidationError("rollout branch estimation needs a seed stream")
        self.instance = instance
        self.config = config
        self.stream = as_stream(stream) if stream is not None else None
        self._greedy = GreedyPolicy(instance, estimator)
        self._memo: dict[tuple[BeliefState, int], float] = {}

    def greedy_value_from(self, state: PolicyState) -> float:
        belief, key = state.belief, (state.belief, state.ledger.denom)
        if key in self._memo:
            return self._memo[key]
        base = belief.influenced.bit_count()
        support = _ConditionalSupport(self.instance, belief)
        if self.config.mode == "exhaustive":
            support.check('; estimate the branch by sampling with BranchConfig(mode="rollouts")'
                          " (CLI: --branch rollouts)")
            val = _expected_influence(self._greedy, self.instance, state) - base
        else:
            m = len(self.instance.menu)
            # Floors enter as base-(m + 1) digits, a node with no rejection as 0 (so it is skipped), and
            # the budget left enters reduced, so the key names the amount, not the ledger's units.
            floors_code = sum((fl + 1) * (m + 1) ** v for v, fl in enumerate(belief.floors) if fl >= 0)
            g = math.gcd(belief.budget, state.ledger.denom)
            root = child(self.stream, belief.influenced, floors_code, belief.budget // g, state.ledger.denom // g)
            rollouts = self.config.rollouts
            draws = (support.draw(generator(root, r)) for r in range(rollouts))
            val = sum(size - base for size in _walk_trials(self._greedy, self.instance, state, draws)) / rollouts
        self._memo[key] = val
        return val


@dataclass(frozen=True)
class EstimatorConfig:
    mode: str = "exact"
    samples: int = 1000

    def __post_init__(self):
        if self.mode not in ("exact", "mc"):
            raise ValidationError(f"spread mode must be 'exact' or 'mc', got {self.mode!r}")
        check_samples(self.samples)

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


def _run_trials(policy_factory, prior: _ConditionalSupport, instance: Instance, spec: BudgetSpec, root,
                lo: int, hi: int) -> list[int]:
    """Cascade sizes over trials lo..hi-1, each against its own keyed draw from `prior`,
    walked by one policy built in this process."""
    draws = (prior.draw(generator(root, 2, t)) for t in range(lo, hi))
    return _walk_trials(policy_factory(child(root, 1)), instance, initial_state(instance, spec), draws)


def _send_share_total(writer, *share) -> None:
    """A child process's work: `(True, total)` of `_run_trials(*share)` over `writer`,
    or `(False, exception)` for the caller to raise."""
    try:
        writer.send((True, sum(_run_trials(*share))))
    except Exception as exc:  # the caller raises it, with its type
        writer.send((False, exc))


def evaluate_policy(policy_factory, instance: Instance, spec: BudgetSpec, trials,
                    stream=None, *, workers: int = 1) -> tuple[float, float]:
    """Expected cascade size of a policy, with a confidence radius.

    trials="exhaustive" expands the policy's decision tree over belief
    states, weighting every branch by its probability (radius 0.0); it
    refuses up front when more than `MAX_OUTCOMES` joint realizations
    are consistent with the initial belief. An integer samples that
    many realizations and reports a Hoeffding radius at confidence
    95%. Sampled trials use per-trial substreams and integer
    totals, so the result is identical for any worker count. The
    prior's conditional support is built once and every trial draws
    from it. The trials split into min(workers, ceil(trials /
    `_EVAL_CHUNK`)) contiguous shares: the caller walks the first, and a
    forked `multiprocessing.Process` each other one, sending back its
    int total or its exception, which the caller raises (a child that
    dies raises an error naming its exit code). No child outlives the
    call. Each process builds the policy once and walks its share as one
    decision tree (`_walk_trials`), each accept branch on a copy of the
    policy (`copy.copy`, unless its class defines `__copy__`).
    `workers` must be a positive int.
    """
    check_samples(workers, "workers")
    if trials == "exhaustive":
        state = initial_state(instance, spec)
        _ConditionalSupport(instance, state.belief).check(
            "; sample instead with an integer trial count (CLI: drop --exhaustive)")
        policy = policy_factory(child(as_stream(stream), 0))
        return _expected_influence(policy, instance, state), 0.0
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ValidationError(f"trials must be a positive int or 'exhaustive', got {trials!r}")
    root, prior = as_stream(stream), _ConditionalSupport(instance, BeliefState.initial(instance.graph.node_count, 0))
    inputs, k = (policy_factory, prior, instance, spec, root), min(workers, -(-trials // _EVAL_CHUNK))
    cuts, children = [trials * s // k for s in range(k + 1)], []  # share s is trials cuts[s]..cuts[s + 1]-1
    try:
        for lo, hi in zip(cuts[1:], cuts[2:]):
            reader, writer = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_send_share_total, args=(writer, *inputs, lo, hi))
            proc.start()
            writer.close()
            children.append((proc, reader))
        total = sum(_run_trials(*inputs, 0, cuts[1]))
        for proc, reader in children:
            try:
                ok, result = reader.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"a sampled-evaluation process died with exit code {proc.exitcode}") from None
            if not ok:
                raise result
            total += result
    finally:
        for proc, reader in children:
            reader.close()
            proc.terminate()  # a no-op once the child has exited
        for proc, _ in children:
            proc.join()
    mean = total / trials
    return mean, hoeffding_radius(instance.graph.node_count, trials)


def optimal_policy_oracle(instance: Instance, spec: BudgetSpec) -> float:
    """Optimal adaptive policy value by backward induction over belief states.

    `BeliefState`s suffice because edges out of uninfluenced nodes stay
    independent of everything revealed so far. Only probes with a
    positive conditional acceptance chance are considered; anything else
    changes no beliefs and wastes nothing but time. The recursion packs
    each belief into one int, `budget << (n + w * n) | floors << n |
    influenced`: node v's floor + 1 takes the w = `len(menu).bit_length()`
    bits at n + w * v. Cascade outcomes come from the graph's `ExactMemo`.
    An accept that leaves less than the cheapest rate is valued on the
    spot, at its outcomes' sizes, and its states are never memoized.
    """
    graph, model, menu = instance.graph, instance.model, instance.menu
    n, m = graph.node_count, len(menu)
    if n > ORACLE_MAX_NODES:
        raise TooLargeError(f"optimal oracle handles at most {ORACLE_MAX_NODES} nodes, got {n}")
    if len(graph.src) > ORACLE_MAX_EDGES:
        raise TooLargeError(f"optimal oracle handles at most {ORACLE_MAX_EDGES} edges, got {len(graph.src)}")
    if m > ORACLE_MAX_RATES:
        raise TooLargeError(f"optimal oracle handles menus up to {ORACLE_MAX_RATES} rates, got {m}")
    ledger = BudgetLedger(menu, spec)
    rates = [ledger.rate_units[r] for r in menu.rates]
    # chances[v][floor + 1][i]: the chance v accepts menu rate i, given that floor
    chances = [[[BeliefState(0, (floor,) * n, 0).accept_chance(model.probs, v, i) for i in range(m)]
                for floor in range(-1, m)] for v in range(n)]
    nodes = _OpenNodes(exact_memo(graph), chances, m.bit_length())
    return _optimal_value(ledger.budget << nodes.top, rates, nodes, {})


class _OpenNodes(dict):
    """The oracle's reading of each influenced set it reaches, made on first use.

    Per open node v, in node order: its floor field's offset n + w * v in
    a packed belief, its chance rows `chances[v]` and its cascade outcomes
    as (added mask, probability, added count, keep) tuples, where `keep`
    clears the added nodes' floor fields.
    """

    def __init__(self, cascades: ExactMemo, chances, width: int):
        super().__init__()
        n = len(chances)
        self.cascades, self.chances, self.width = cascades, chances, width
        self.low, self.top, self.ones = (1 << n) - 1, n + width * n, (1 << width) - 1

    def __missing__(self, influenced: int):
        n, w, ones = len(self.chances), self.width, self.ones
        out = self[influenced] = [
            (n + w * v, self.chances[v], [(added, p, size, ~sum(ones << (n + w * u) for u in _bits(added)))
                                          for added, p, size in self.cascades.outcomes(influenced, v)])
            for v in range(n) if not (influenced >> v) & 1]
        return out


def _optimal_value(key: int, rates: list[int], nodes: _OpenNodes, memo: dict[int, float]) -> float:
    """The value of the packed belief `key`, which is not in `memo` yet: callers
    look there first. Kept at module level so that no closure cycle holds the
    memo alive past the call."""
    top, ones = nodes.top, nodes.ones
    budget = key >> top
    best = 0.0
    for at, rows, outcomes in nodes[key & nodes.low]:
        field = (key >> at) & ones
        row = rows[field]
        for i, rate in enumerate(rates):
            if rate > budget:
                continue
            q = row[i]
            if q <= 0.0:
                continue
            acc = 0.0
            if rate + rates[0] > budget:  # rates[0] is the cheapest: nothing fits after the accept
                for _, p, size, _ in outcomes:
                    acc += p * size
            else:
                spent = key - (rate << top)
                for added, p, size, keep in outcomes:
                    after = (spent | added) & keep
                    val = memo.get(after)
                    if val is None:
                        val = _optimal_value(after, rates, nodes, memo)
                    acc += p * (size + val)
            if q >= 1.0:
                cand = acc
            else:
                after = key + ((i + 1 - field) << at)  # v rejects: its floor field goes from `field` to i + 1
                val = memo.get(after)
                if val is None:
                    val = _optimal_value(after, rates, nodes, memo)
                cand = q * acc + (1.0 - q) * val
            if cand > best:
                best = cand
    memo[key] = best
    return best
