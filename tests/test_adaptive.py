import gc
import heapq
import math
import multiprocessing
import os
import pickle
import re
import time
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discountcast as dc
from discountcast import adaptive, cascade
from discountcast.adaptive import _ConditionalSupport, _execute, _run_trials, _walk_trials
from discountcast.cascade import ExactMemo
from discountcast.nonadaptive import BudgetLedger
from discountcast.rng import as_stream, child, generator

from conftest import tiny_instance


class ScriptedPolicy:
    """Probes a fixed list of pairs; used to exercise the trajectory engine."""

    def __init__(self, probes):
        self.probes = [dc.SeedDiscountPair(*p) for p in probes]
        self.snapshots = []

    def begin(self, state):
        self.i = 0

    def next_probe(self, state):
        self.snapshots.append((set(state.available), state.budget_left))
        if self.i >= len(self.probes):
            return None
        pair = self.probes[self.i]
        self.i += 1
        return pair


def greedy_factory(inst, spec):
    return dc.GreedyFactory(inst, spec)


def past_outcome_cap():
    """10 nodes with two threshold intervals each and 8 uncertain edges:
    2**10 * 2**8 = 262,144 joint realizations, past the 200,000 cap."""
    edges = tuple(dc.Edge(v, v + 1, 0.5) for v in range(8))
    graph = dc.SocialGraph(10, tuple(str(v) for v in range(10)), edges)
    model = dc.AdoptionModel(menu=dc.DiscountMenu(rates=(1.0,)), probs=((0.5,),) * 10)
    return dc.Instance(graph=graph, model=model), dc.BudgetSpec(budget=2.0)


def test_scripted_walkthrough_trajectory(fig1, hard2):
    real = dc.fig2_realization(fig1)
    policy = dc.GreedyPolicy(fig1, dc.SpreadEstimator(fig1.graph))
    rec = dc.run_policy(policy, fig1, hard2, real)
    probes = [(fig1.graph.labels[p.pair.node], p.pair.rate, p.accepted) for p in rec.probes]
    assert probes == [("a", 1.0, True), ("c", 1.0, False), ("d", 1.0, True)]
    assert rec.cascade_size == 4
    assert sorted(fig1.graph.labels[v] for v in rec.influenced) == ["a", "b", "d", "e"]
    assert rec.delivered_cost == pytest.approx(2.0, abs=0)
    lines = rec.log_lines(fig1.graph)
    assert lines[0] == "probe a 1 accept a->b:live a->c:blocked b->d:blocked"
    assert lines[1] == "probe c 1 reject"
    assert lines[2] == "probe d 1 accept d->e:live"


def test_rejection_prunes_only_cheaper_rates(fig1, hard2):
    # b's threshold sits between the two rates: reject at 1, accept at 2
    real = dc.Realization(
        seeding=dc.SeedingRealization(min_rate_idx=(2, 1, 2, 2, 2)),
        diffusion=dc.DiffusionRealization(live=(False,) * 5),
    )
    policy = ScriptedPolicy([(1, 1.0), (1, 2.0)])
    rec = dc.run_policy(policy, fig1, hard2, real)
    assert [p.accepted for p in rec.probes] == [False, True]
    after_reject = policy.snapshots[1][0]
    assert dc.SeedDiscountPair(1, 1.0) not in after_reject
    assert dc.SeedDiscountPair(1, 2.0) in after_reject
    assert rec.delivered_cost == pytest.approx(2.0, abs=0)


def test_acceptance_prunes_influenced_nodes(fig1, hard2):
    real = dc.fig2_realization(fig1)
    policy = ScriptedPolicy([(0, 1.0)])
    dc.run_policy(policy, fig1, hard2, real)
    final = policy.snapshots[-1][0]
    nodes_left = {p.node for p in final}
    assert nodes_left == {2, 3, 4}  # a and b are influenced, their offers are gone


def test_probing_influenced_node_is_a_contract_error(fig1, hard2):
    real = dc.fig2_realization(fig1)
    policy = ScriptedPolicy([(0, 1.0), (1, 1.0)])  # b is influenced by a's cascade
    with pytest.raises(dc.PolicyContractError):
        dc.run_policy(policy, fig1, hard2, real)


def test_overspending_is_a_contract_error(fig1):
    spec = dc.BudgetSpec(budget=1.0, mode="hard")
    real = dc.fig2_realization(fig1)
    policy = ScriptedPolicy([(0, 2.0)])
    with pytest.raises(dc.PolicyContractError):
        dc.run_policy(policy, fig1, spec, real)


def test_greedy_never_overspends_and_accepts_at_threshold():
    checked = 0
    for seed in range(4):
        inst, spec = tiny_instance(seed)
        factory = greedy_factory(inst, spec)
        policy = factory(as_stream(0))
        menu = inst.menu
        for t in range(250):
            real = dc.sample_realization(inst, child(as_stream(seed), t))
            rec = dc.run_policy(policy, inst, spec, real)
            assert rec.delivered_cost <= spec.budget + 1e-12
            for p in rec.probes:
                if p.accepted:
                    # an accepted greedy offer is the cheapest one the node takes
                    assert menu.index_of(p.pair.rate) == real.seeding.min_rate_idx[p.pair.node]
                    checked += 1
    assert checked > 100


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: rates and budgets are the binary values of their floats, and "
    "Fraction(0.1) * 3 > Fraction(0.3); reading them as decimals fixes this"
))
def test_greedy_buys_three_tenths_under_three_tenths():
    g = dc.SocialGraph(3, ("0", "1", "2"), ())
    menu = dc.DiscountMenu(rates=(0.1,))
    inst = dc.Instance(graph=g, model=dc.AdoptionModel(menu=menu, probs=((1.0,),) * 3))
    real = dc.Realization(
        seeding=dc.SeedingRealization(min_rate_idx=(0, 0, 0)),
        diffusion=dc.DiffusionRealization(live=()),
    )
    policy = dc.GreedyPolicy(inst, dc.SpreadEstimator(g))
    rec = dc.run_policy(policy, inst, dc.BudgetSpec(budget=0.3, mode="hard"), real)
    assert sum(p.accepted for p in rec.probes) == 3


def test_delivered_cost_and_budget_left_are_exact():
    inst = dc.random_instance(6, 0.3, 2, rates=(0.1, 0.5))
    spec = dc.BudgetSpec(budget=0.7, mode="hard")
    policy = ScriptedPolicy([(0, 0.1), (1, 0.5)])
    real = dc.Realization(
        seeding=dc.SeedingRealization(min_rate_idx=(0,) * 6),
        diffusion=dc.DiffusionRealization(live=(False,) * len(inst.graph.edges)),
    )
    rec = dc.run_policy(policy, inst, spec, real)
    spent = inst.menu.exact[0.1] + inst.menu.exact[0.5]
    assert [type(b) for _, b in policy.snapshots] == [Fraction] * 3
    assert [b for _, b in policy.snapshots] == [
        spec.exact_budget, spec.exact_budget - inst.menu.exact[0.1], spec.exact_budget - spent
    ]
    assert rec.delivered_cost == float(spent)


def test_sampled_rollout_value_is_pinned():
    # Rollout draws are keyed by the budget left as a reduced fraction;
    # keying them by the ledger's unreduced units changes this value
    # (to 0x1.4a00000000000p+2).
    inst = dc.random_instance(10, 2.5 / 9, 6, rates=(0.1, 0.5), prob_range=(0.3, 0.7),
                              accept_range=(0.0, 0.2))
    spec = dc.BudgetSpec(budget=0.6, mode="hard")
    factory = dc.IteratedFactory(inst, spec, dc.EstimatorConfig(mode="mc", samples=30),
                                 dc.BranchConfig(mode="rollouts", rollouts=2))
    val, _ = dc.evaluate_policy(factory, inst, spec, 32, stream=5)
    assert val.hex() == "0x1.5400000000000p+2"


def test_worstcase_policy_values():
    inst = dc.worstcase_instance(10)
    spec = dc.BudgetSpec(budget=1.0, mode="hard")
    gv, gr = dc.evaluate_policy(dc.GreedyFactory(inst, spec), inst, spec, "exhaustive")
    assert gr == 0.0
    assert gv == pytest.approx(1.0, abs=1e-9)
    ev, _ = dc.evaluate_policy(dc.EnhancedFactory(inst, spec), inst, spec, "exhaustive")
    assert ev == pytest.approx(9.0, abs=1e-9)
    iv, _ = dc.evaluate_policy(dc.IteratedFactory(inst, spec), inst, spec, "exhaustive")
    assert iv == pytest.approx(9.0, abs=1e-9)


def test_enhanced_and_iterated_differ_after_a_shot():
    # A rejected top-rate shot ends the enhanced run with the whole budget
    # left; iterated compares again and greedy may finish the run.
    inst = dc.random_instance(4, 0.5, 6, rates=(0.5, 1.0), prob_range=(0.3, 0.9), accept_range=(0.2, 1.0))
    spec = dc.BudgetSpec(budget=1.2, mode="hard")
    recorded = {  # exhaustive values, float.hex, recorded before the three policies shared one class
        dc.GreedyFactory: "0x1.43d9773f48f79p+1",
        dc.EnhancedFactory: "0x1.45660cba93a0fp+1",
        dc.IteratedFactory: "0x1.7060c9be7aa50p+1",
    }
    for make, want in recorded.items():
        val, _ = dc.evaluate_policy(make(inst, spec), inst, spec, "exhaustive")
        assert val == pytest.approx(float.fromhex(want), abs=1e-12), make.__name__


def test_shot_is_weighed_by_the_chance_given_rejections():
    # Node 0 reaches nodes 1-3 for sure. Having rejected rate 1, it takes rate 2
    # with chance (0.6 - 0.5) / (1 - 0.5) = 0.2, so the shot is worth 0.2 * 4 = 0.8,
    # less than greedy's continuation; weighed by the unconditional 0.6 it looked
    # worth 2.4 and enhanced took it.
    graph = dc.SocialGraph(5, tuple("01234"), tuple(dc.Edge(0, v, 1.0) for v in (1, 2, 3)))
    rows = ((0.5, 0.6),) + ((0.2, 0.3),) * 4
    inst = dc.Instance(graph=graph, model=dc.AdoptionModel(menu=dc.DiscountMenu(rates=(1.0, 2.0)), probs=rows))
    spec = dc.BudgetSpec(budget=2.0, mode="hard")
    state = dc.initial_state(inst, spec).after_reject(dc.SeedDiscountPair(0, 1.0), 0)
    greedy, enhanced = (adaptive._expected_influence(make(inst, spec)(as_stream(0)), inst, state)
                        for make in (dc.GreedyFactory, dc.EnhancedFactory))
    assert greedy == pytest.approx(1.55256, abs=1e-12)
    assert enhanced == greedy


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("field,build,message", [
    ("estimator", lambda: dc.EstimatorConfig(mode="bogus"), "spread mode must be 'exact' or 'mc', got 'bogus'"),
    ("estimator", lambda: dc.EstimatorConfig(mode="mc", samples=0),
     "samples must be a positive int, got 0 (CLI: --samples)"),
    ("branch", lambda: dc.BranchConfig(mode="rollouts", rollouts=2.5), "rollouts must be a positive int, got 2.5"),
    ("branch", lambda: dc.BranchConfig(mode="rollouts", rollouts=True), "rollouts must be a positive int, got True"),
    ("branch", lambda: dc.BranchConfig(mode="rollouts", rollouts="3"), "rollouts must be a positive int, got '3'"),
], ids=["mode", "samples_0", "rollouts_2.5", "rollouts_true", "rollouts_str"])
def test_bad_policy_configs_are_refused_when_built(fig1, hard2, workers, field, build, message):
    # Built unchecked, they failed only in the policy factory, which at two workers also runs
    # in a child process: the caller must raise the factory's own error.
    if field == "branch":
        message += " (CLI: --rollouts)"
    with pytest.raises(dc.ValidationError, match=f"^{re.escape(message)}$"):
        factory = dc.IteratedFactory(fig1, hard2, **{field: build()})
        dc.evaluate_policy(factory, fig1, hard2, 2 * adaptive._EVAL_CHUNK, stream=0, workers=workers)


def test_enhanced_delegates_when_branch_is_worse(fig1, hard2):
    gv, _ = dc.evaluate_policy(dc.GreedyFactory(fig1, hard2), fig1, hard2, "exhaustive")
    ev, _ = dc.evaluate_policy(dc.EnhancedFactory(fig1, hard2), fig1, hard2, "exhaustive")
    # one full-rate offer to a is worth 1.609, the greedy continuation more
    assert ev == gv


def test_exhaustive_evaluation_matches_manual_enumeration(fig1, hard2):
    factory = dc.GreedyFactory(fig1, hard2)
    val, rad = dc.evaluate_policy(factory, fig1, hard2, "exhaustive")
    policy = factory(as_stream(0))
    manual = 0.0
    weight = 0.0
    for w, real in dc.enumerate_conditional_realizations(fig1, dc.PartialObservation()):
        manual += w * dc.run_policy(policy, fig1, hard2, real).cascade_size
        weight += w
    assert weight == pytest.approx(1.0, abs=1e-12)
    # the decision tree and the replay sum the same terms in different orders
    assert val == pytest.approx(manual, abs=1e-12)
    assert rad == 0.0


def test_sampled_evaluation_approaches_exhaustive(fig1, hard2):
    factory = dc.GreedyFactory(fig1, hard2)
    exact, _ = dc.evaluate_policy(factory, fig1, hard2, "exhaustive")
    est, radius = dc.evaluate_policy(factory, fig1, hard2, 4000, stream=13)
    assert abs(est - exact) <= radius  # radius holds at 95%, this seed passes
    assert radius == dc.hoeffding_radius(5, 4000)


def test_evaluation_worker_count_is_invisible(fig1, hard2):
    factory = dc.GreedyFactory(fig1, hard2)
    v1, r1 = dc.evaluate_policy(factory, fig1, hard2, 300, stream=5, workers=1)
    v4, r4 = dc.evaluate_policy(factory, fig1, hard2, 300, stream=5, workers=4)
    assert (v1, r1) == (v4, r4)


def test_evaluate_policy_validates_trials(fig1, hard2):
    factory = dc.GreedyFactory(fig1, hard2)
    with pytest.raises(dc.ValidationError):
        dc.evaluate_policy(factory, fig1, hard2, 0)
    with pytest.raises(dc.ValidationError):
        dc.evaluate_policy(factory, fig1, hard2, "all")
    with pytest.raises(dc.ValidationError, match="got True"):
        dc.evaluate_policy(factory, fig1, hard2, True)  # a bool is an int, but not a count


def test_conditional_realizations_respect_rejections(fig1, hard2):
    obs = dc.PartialObservation()
    obs.probed.append((dc.SeedDiscountPair(1, 1.0), False))  # b rejected the cheap rate
    total = 0.0
    for w, real in dc.enumerate_conditional_realizations(fig1, obs):
        total += w
        assert real.seeding.min_rate_idx[1] >= 1
    assert total == pytest.approx(1.0, abs=1e-12)
    gen = np.random.default_rng(3)
    for _ in range(200):
        real = dc.sample_conditional_realization(fig1, obs, gen)
        assert real.seeding.min_rate_idx[1] >= 1


def test_conditional_realizations_pin_revealed_edges(fig1):
    real = dc.fig2_realization(fig1)
    obs = dc.PartialObservation()
    newly, revealed = dc.reveal_cascade(fig1.graph, real.diffusion, 0, 0)
    obs.influenced.update(newly)
    obs.revealed.update(revealed)
    for _, r in dc.enumerate_conditional_realizations(fig1, obs):
        assert r.diffusion.live[0] is True
        assert r.diffusion.live[1] is False
        assert r.diffusion.live[2] is False


def test_enumeration_cap():
    inst, _ = past_outcome_cap()
    assert _ConditionalSupport(inst, dc.PartialObservation()).count == 262_144
    with pytest.raises(dc.TooLargeError) as exc:
        next(dc.enumerate_conditional_realizations(inst, dc.PartialObservation()))
    assert str(exc.value) == "exhaustive evaluation needs 262144 realizations, cap is 200000"


def test_branch_estimator_modes_agree(fig1, hard2):
    est = dc.SpreadEstimator(fig1.graph)
    exhaustive = dc.BranchEstimator(fig1, est, dc.BranchConfig(mode="exhaustive"))
    rollout = dc.BranchEstimator(
        fig1, est, dc.BranchConfig(mode="rollouts", rollouts=4000), stream=as_stream(7)
    )
    state = dc.initial_state(fig1, hard2)
    a = exhaustive.greedy_value_from(state)
    b = rollout.greedy_value_from(state)
    assert a == pytest.approx(b, abs=0.15)
    again = dc.BranchEstimator(
        fig1, est, dc.BranchConfig(mode="rollouts", rollouts=4000), stream=as_stream(7)
    )
    assert again.greedy_value_from(dc.initial_state(fig1, hard2)) == b


@pytest.mark.parametrize("mode", ["exhaustive", "rollouts"])
def test_branch_estimate_builds_one_support(fig1, hard2, mode, monkeypatch):
    # Every build of a belief's support takes the threshold options of
    # each uninfluenced node once, so R rollouts drawn from R builds
    # would take them R times.
    calls = []
    options = adaptive._threshold_options

    def spy(row, floor_idx):
        calls.append(floor_idx)
        return options(row, floor_idx)

    monkeypatch.setattr(adaptive, "_threshold_options", spy)
    branch = dc.BranchEstimator(fig1, dc.SpreadEstimator(fig1.graph), dc.BranchConfig(mode=mode, rollouts=5),
                                stream=as_stream(7))
    branch.greedy_value_from(dc.initial_state(fig1, hard2))
    assert len(calls) == fig1.graph.node_count


def test_estimator_guards():
    g = dc.fig1_instance().graph
    with pytest.raises(dc.ValidationError):
        dc.SpreadEstimator(g, mode="mc")  # needs a stream
    with pytest.raises(dc.ValidationError):
        dc.SpreadEstimator(g, mode="other")
    with pytest.raises(dc.ValidationError):
        dc.BranchConfig(mode="sometimes")
    with pytest.raises(dc.ValidationError):
        dc.BranchConfig(mode="rollouts", rollouts=0)


@pytest.mark.parametrize("samples", [0, -2, True, False, 2.0, "10", None])
@pytest.mark.parametrize("build", [
    lambda inst, s: dc.SpreadEstimator(inst.graph, mode="mc", samples=s, stream=as_stream(0)),
    lambda inst, s: dc.SpreadEstimator(inst.graph, mode="exact", samples=s),
    lambda inst, s: dc.EstimatorConfig(mode="mc", samples=s),
    lambda inst, s: dc.MCEvaluator(inst, samples=s, stream=as_stream(0)),
    lambda inst, s: dc.spread_mc(inst.graph, [0], s, as_stream(0)),
    lambda inst, s: dc.f_mc(dc.Configuration.of((0, 1.0)), inst, s, as_stream(0)),
], ids=["mc_estimator", "exact_estimator", "estimator_config", "mc_evaluator", "spread_mc", "f_mc"])
def test_sample_counts_are_refused_up_front(fig1, build, samples):
    # at construction, with one message: a zero count would otherwise fail at the first
    # query, and a bool inside numpy
    with pytest.raises(dc.ValidationError, match=rf"^samples must be a positive int, got {re.escape(repr(samples))} "
                                                 r"\(CLI: --samples\)$"):
        build(fig1, samples)


def test_mc_spread_estimator_is_state_keyed(fig1, monkeypatch):
    est = dc.SpreadEstimator(fig1.graph, mode="mc", samples=2000, stream=as_stream(31))
    val_empty = est.residual_spread(set(), 2)
    val_after = est.residual_spread({0, 1}, 2)
    est2 = dc.SpreadEstimator(fig1.graph, mode="mc", samples=2000, stream=as_stream(31))
    # same keys, fresh caches: identical draws either way around
    assert est2.residual_spread({0, 1}, 2) == val_after
    assert est2.residual_spread(set(), 2) == val_empty
    # a node set and its bitmask name one cache entry
    calls = []
    kernel = dc.adaptive.masked_reach
    monkeypatch.setattr(dc.adaptive, "masked_reach", lambda *a, **k: calls.append(a) or kernel(*a, **k))
    est3 = dc.SpreadEstimator(fig1.graph, mode="mc", samples=2000, stream=as_stream(31))
    assert est3.residual_spread(0b11, 2) == val_after
    assert est3.residual_spread({0, 1}, 2) == val_after
    assert len(calls) == 1


def test_optimal_oracle_hand_computed_two_node_case():
    g = dc.SocialGraph(2, ("0", "1"), (dc.Edge(0, 1, 0.5),))
    menu = dc.DiscountMenu(rates=(1.0,))
    model = dc.AdoptionModel(menu=menu, probs=((0.6,), (0.8,)))
    inst = dc.Instance(graph=g, model=model)
    # probe 0 first: 0.6 * (1 + 0.5) + 0.4 * (0.8 * 1) = 1.22 beats probing 1 first (0.98)
    assert dc.optimal_policy_oracle(inst, dc.BudgetSpec(budget=1.0)) == pytest.approx(1.22, abs=1e-12)
    assert dc.optimal_policy_oracle(inst, dc.BudgetSpec(budget=2.0)) == pytest.approx(1.46, abs=1e-12)


def test_optimal_oracle_dominates_policies(fig1, hard2):
    opt = dc.optimal_policy_oracle(fig1, hard2)
    for factory in (dc.GreedyFactory(fig1, hard2), dc.EnhancedFactory(fig1, hard2)):
        val, _ = dc.evaluate_policy(factory, fig1, hard2, "exhaustive")
        assert val <= opt + 1e-9


def test_optimal_oracle_caps():
    spec = dc.BudgetSpec(budget=1.0)
    with pytest.raises(dc.TooLargeError, match=r"^optimal oracle handles at most 6 edges, got 12$"):
        dc.optimal_policy_oracle(dc.worstcase_instance(5), spec)  # 5 nodes, 12 clique edges
    one_rate = dc.DiscountMenu(rates=(1.0,))
    six = dc.Instance(graph=dc.SocialGraph(6, tuple("abcdef"), ()),
                      model=dc.AdoptionModel(menu=one_rate, probs=((0.5,),) * 6))
    with pytest.raises(dc.TooLargeError, match=r"^optimal oracle handles at most 5 nodes, got 6$"):
        dc.optimal_policy_oracle(six, spec)
    three_rates = dc.DiscountMenu(rates=(0.5, 1.0, 2.0))
    lone = dc.Instance(graph=dc.SocialGraph(1, ("a",), ()),
                       model=dc.AdoptionModel(menu=three_rates, probs=((0.2, 0.5, 1.0),)))
    with pytest.raises(dc.TooLargeError, match=r"^optimal oracle handles menus up to 2 rates, got 3$"):
        dc.optimal_policy_oracle(lone, spec)


def _reference_optimal_value(belief, probs, rates, cascades, memo):
    """The oracle's recursion as it ran over `BeliefState`s, before beliefs were packed into ints."""
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
            for addmask, w, _ in cascades.outcomes(belief.influenced, v):
                after = belief.after_accept(addmask, rate)
                acc += w * (addmask.bit_count() + _reference_optimal_value(after, probs, rates, cascades, memo))
            if q >= 1.0:
                cand = acc
            else:
                cand = q * acc + (1.0 - q) * _reference_optimal_value(belief.after_reject(v, i), probs, rates,
                                                                      cascades, memo)
            if cand > best:
                best = cand
    memo[belief] = best
    return best


def _reference_oracle(inst, spec, memo=None):
    ledger = BudgetLedger(inst.menu, spec)
    rates = [ledger.rate_units[r] for r in inst.menu.rates]
    return _reference_optimal_value(dc.BeliefState.initial(inst.graph.node_count, ledger.budget), inst.model.probs,
                                    rates, ExactMemo(inst.graph), {} if memo is None else memo)


def at_cap_instance():
    """5 nodes, 6 edges and 2 rates: as large as the oracle takes."""
    edges = ((0, 1, 0.5), (1, 2, 0.4), (2, 3, 0.6), (3, 4, 0.3), (4, 0, 0.5), (0, 2, 0.7))
    graph = dc.SocialGraph(5, tuple("01234"), tuple(dc.Edge(*e) for e in edges))
    rows = ((0.2, 0.5), (0.3, 0.6), (0.1, 0.9), (0.4, 0.5), (0.25, 0.75))
    return dc.Instance(graph=graph, model=dc.AdoptionModel(menu=dc.DiscountMenu(rates=(0.1, 0.2)), probs=rows))


@pytest.mark.parametrize("budget,value", [(0.4, "0x1.df6a400fba883p+1"), (0.6, "0x1.f3ffb54ca87a2p+1"),
                                          (1.0, "0x1.002ca32be992fp+2")])
def test_oracle_at_its_caps_is_pinned(budget, value, monkeypatch):
    inst, spec = at_cap_instance(), dc.BudgetSpec(budget=budget, mode="hard")
    memos, recurse = [], adaptive._optimal_value

    def keeping_memo(key, rates, nodes, memo):
        memos.append(memo)
        return recurse(key, rates, nodes, memo)

    monkeypatch.setattr(adaptive, "_optimal_value", keeping_memo)
    assert dc.optimal_policy_oracle(inst, spec).hex() == value
    beliefs = {}
    assert _reference_oracle(inst, spec, beliefs).hex() == value
    # Packing is one to one on the beliefs reached: one int per `BeliefState`.
    # A state no rate fits is valued where it is reached, not memoized.
    cheapest = BudgetLedger(inst.menu, spec).rate_units[inst.menu.rates[0]]
    fits = [belief for belief in beliefs if belief.budget >= cheapest]
    assert len(memos[0]) == len(fits) < len(beliefs)
    assert len(fits) > 1000


def test_oracle_recurses_once_per_belief(monkeypatch):
    # Callers look a belief up in the memo before they recurse, so no call is a memo hit.
    keys, recurse = [], adaptive._optimal_value

    def counting(key, rates, nodes, memo):
        keys.append(key)
        return recurse(key, rates, nodes, memo)

    monkeypatch.setattr(adaptive, "_optimal_value", counting)
    for inst, spec in [(at_cap_instance(), dc.BudgetSpec(budget=1.0, mode="hard")), tiny_instance(200)]:
        keys.clear()
        dc.optimal_policy_oracle(inst, spec)
        assert len(keys) == len(set(keys)) > 50


@st.composite
def oracle_instances(draw):
    """Instances within the oracle's caps, with certain and impossible edges,
    acceptance chances of 0 and 1, tied rows, and budgets from none to many offers."""
    n = draw(st.integers(1, 5), label="nodes")
    slots = [(a, b) for a in range(n) for b in range(n) if a != b]
    arcs = sorted(draw(st.lists(st.sampled_from(slots), max_size=6, unique=True), label="arcs")) if slots else []
    edges = tuple(dc.Edge(a, b, draw(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]))) for a, b in arcs)
    rates = tuple(sorted(draw(st.lists(st.sampled_from([0.1, 0.2, 0.25, 0.5, 1.0]), min_size=1, max_size=2,
                                       unique=True), label="rates")))
    chances = st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0])
    rows = tuple(tuple(sorted(draw(chances) for _ in rates)) for _ in range(n))
    graph = dc.SocialGraph(n, tuple(str(v) for v in range(n)), edges)
    inst = dc.Instance(graph=graph, model=dc.AdoptionModel(menu=dc.DiscountMenu(rates=rates), probs=rows))
    return inst, dc.BudgetSpec(budget=round(draw(st.integers(1, 24), label="budget") * 0.05, 2), mode="hard")


@given(oracle_instances())
@settings(max_examples=200, deadline=None)
def test_oracle_equals_the_belief_state_recursion(case):
    inst, spec = case
    assert dc.optimal_policy_oracle(inst, spec).hex() == _reference_oracle(inst, spec).hex()


def test_oracle_leaves_no_reference_cycle(fig1, hard2):
    # The memo must be freed by reference counting alone when the call returns:
    # a recursion that closed over itself would leave a cycle for the collector.
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        dc.optimal_policy_oracle(fig1, hard2)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _exact_routines(inst, spec) -> dict:
    """Each exact routine by name, as a call on `inst` returning its value."""
    def hill():
        evaluator = dc.ExactEvaluator(inst)
        return evaluator.value(dc.hill_climbing(inst, spec, evaluator))

    def exhaustive(factory):
        return lambda: dc.evaluate_policy(factory(inst, spec), inst, spec, "exhaustive", stream=0)[0]

    return {"oracle": lambda: dc.optimal_policy_oracle(inst, spec), "greedy": exhaustive(dc.GreedyFactory),
            "enhanced": exhaustive(dc.EnhancedFactory), "iterated": exhaustive(dc.IteratedFactory),
            "hill": hill, "brute": lambda: dc.brute_force_config(inst, spec)[1]}


def _fresh(inst):
    """`inst` on a new graph, so with an empty exact memo."""
    g = inst.graph
    return dc.Instance(graph=dc.SocialGraph(g.node_count, g.labels, g.edges), model=inst.model)


@given(oracle_instances())
@settings(max_examples=100, deadline=None)
def test_exact_routines_on_one_memo_give_what_they_give_alone(case):
    inst, spec = case
    alone = {name: _exact_routines(_fresh(inst), spec)[name]().hex() for name in _exact_routines(inst, spec)}
    for order in (1, -1):
        routines = _exact_routines(_fresh(inst), spec)
        assert {name: routines[name]().hex() for name in list(routines)[::order]} == alone


def test_evaluation_after_the_oracle_enumerates_none_of_its_outcomes_again(monkeypatch):
    inst, spec = tiny_instance(200)
    calls, enumerate_outcomes = [], cascade._live_edge_outcomes

    def recording(graph, seeds, blocked, **cap):
        if not cap:  # an outcome table's enumeration; `spread_exact` passes its cap
            calls.append((tuple(seeds), blocked))
        return enumerate_outcomes(graph, seeds, blocked, **cap)

    monkeypatch.setattr(cascade, "_live_edge_outcomes", recording)

    def evaluate(inst):
        calls.clear()
        for factory in (dc.GreedyFactory, dc.EnhancedFactory):
            dc.evaluate_policy(factory(inst, spec), inst, spec, "exhaustive", stream=0)
        return set(calls)

    alone = evaluate(_fresh(inst))
    calls.clear()
    dc.optimal_policy_oracle(inst, spec)
    oracle = set(calls)
    assert len(calls) == len(oracle)  # each key once
    assert alone & oracle  # evaluation alone enumerates outcomes the oracle did
    assert not evaluate(inst) & oracle


def _run_exact_routines(inst, spec) -> None:
    for run in _exact_routines(inst, spec).values():
        run()
    dc.SpreadEstimator(inst.graph).residual_spread(0, 0)


def test_exact_memo_goes_with_its_instance():
    inst, spec = tiny_instance(200)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        _run_exact_routines(inst, spec)
        assert "_exact_memo" in vars(inst.graph)
        assert "_exact_memo" not in vars(pickle.loads(pickle.dumps(inst)).graph)  # never shipped to a pool worker
        refs = weakref.ref(inst), weakref.ref(inst.graph)
        del inst
        assert [ref() for ref in refs] == [None, None]  # freed by reference counting alone
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_exact_estimators_keep_no_copy_of_the_memo_spreads(monkeypatch):
    # Each exact residual spread is stored once, in the graph's memo: the
    # estimators the factories build ask it and hold no entries of their own.
    inst, spec = tiny_instance(200)
    built, build = [], dc.EstimatorConfig.build
    monkeypatch.setattr(dc.EstimatorConfig, "build", lambda self, *args: built.append(build(self, *args)) or built[-1])
    asked, ask = set(), dc.SpreadEstimator.residual_spread
    monkeypatch.setattr(dc.SpreadEstimator, "residual_spread",
                        lambda self, influenced, v: asked.add((1 << v, influenced)) or ask(self, influenced, v))
    dc.optimal_policy_oracle(inst, spec)
    for factory in (dc.GreedyFactory, dc.EnhancedFactory):
        dc.evaluate_policy(factory(inst, spec), inst, spec, "exhaustive", stream=0)
    spreads = cascade.exact_memo(inst.graph).spreads
    assert len(built) == 2 and asked and asked <= spreads.keys()
    for est in built:
        assert not any(table for table in vars(est).values() if isinstance(table, dict))


def test_exact_estimators_on_one_graph_share_their_spreads(monkeypatch):
    inst, _ = tiny_instance(200)
    n, first = inst.graph.node_count, dc.SpreadEstimator(inst.graph)
    keys = [(influenced, v) for influenced in range(1 << n) for v in range(n) if not (influenced >> v) & 1]
    want = [first.residual_spread(*key).hex() for key in keys]
    calls, spread_exact = [], cascade.spread_exact
    monkeypatch.setattr(cascade, "spread_exact", lambda *args, **kw: calls.append(args) or spread_exact(*args, **kw))
    second = dc.SpreadEstimator(inst.graph)
    assert [second.residual_spread(*key).hex() for key in keys] == want
    assert calls == []
    dc.SpreadEstimator(_fresh(inst).graph).residual_spread(*keys[0])
    assert len(calls) == 1  # the wrapper sees the estimator's misses


def test_a_pickled_exact_estimator_reads_its_own_graphs_memo():
    inst, _ = tiny_instance(200)
    est = dc.SpreadEstimator(inst.graph)
    est.residual_spread(0, 0)
    twin = pickle.loads(pickle.dumps(est))
    memo = cascade.exact_memo(twin.graph)
    assert twin.graph is not inst.graph and not memo.spreads
    assert twin.residual_spread(0, 0) == est.residual_spread(0, 0)
    twin.residual_spread(0b10, 0)
    assert set(memo.spreads) == {(1, 0), (1, 0b10)}
    assert (1, 0b10) not in cascade.exact_memo(inst.graph).spreads


def test_iterated_heuristic_runs_clean_on_tiny_instances():
    for seed in range(6):
        inst, spec = tiny_instance(seed)
        val, _ = dc.evaluate_policy(dc.IteratedFactory(inst, spec), inst, spec, "exhaustive")
        opt = dc.optimal_policy_oracle(inst, spec)
        assert 0.0 <= val <= opt + 1e-9, f"seed {seed}"


def _replay_value(factory, inst, spec):
    """The exhaustive value by definition: every realization replayed, weighted."""
    policy = factory(as_stream(0))
    return sum(
        w * dc.run_policy(policy, inst, spec, real).cascade_size
        for w, real in dc.enumerate_conditional_realizations(inst, dc.PartialObservation())
    )


@pytest.mark.parametrize("make", [dc.GreedyFactory, dc.EnhancedFactory, dc.IteratedFactory])
def test_decision_tree_value_equals_replay(make, fig1, hard2):
    cases = [(fig1, hard2), (dc.worstcase_instance(10), dc.BudgetSpec(budget=1.0, mode="hard"))]
    cases += [tiny_instance(seed) for seed in range(20)]
    for inst, spec in cases:
        tree, _ = dc.evaluate_policy(make(inst, spec), inst, spec, "exhaustive")
        assert tree == pytest.approx(_replay_value(make(inst, spec), inst, spec), abs=1e-12)


def _script_factory(*probes):
    return lambda stream: ScriptedPolicy(probes)


def test_tree_follows_each_branch_and_only_possible_ones(fig1, hard2):
    # per-branch policy state: the script's position must not leak between siblings
    script = _script_factory((4, 1.0), (2, 1.0))
    tree, _ = dc.evaluate_policy(script, fig1, hard2, "exhaustive")
    assert tree == pytest.approx(_replay_value(script, fig1, hard2), abs=1e-12)
    # node 1 never takes the cheap rate; had it accepted, the second probe would overspend
    inst, spec = dc.worstcase_instance(4), dc.BudgetSpec(budget=1.0, mode="hard")
    script = _script_factory((1, 0.25), (2, 1.0))
    tree, _ = dc.evaluate_policy(script, inst, spec, "exhaustive")
    assert tree == _replay_value(script, inst, spec) == 3.0


class _StopAndKeepState(ScriptedPolicy):
    def next_probe(self, state):
        pair = super().next_probe(state)
        if pair is None:
            self.final = state
        return pair


@pytest.mark.parametrize("probes", [[(2, 1.0)], [(0, 1.0)]], ids=["after_reject", "after_cascade"])
def test_exhaustive_branch_estimate_equals_replay_mid_trajectory(probes, fig1, hard2):
    scripted = _StopAndKeepState(probes)
    dc.run_policy(scripted, fig1, hard2, dc.fig2_realization(fig1))
    state = scripted.final  # c rejects rate 1; a accepts and its cascade reaches b
    base = state.belief.influenced.bit_count()
    assert base == (0 if probes[0][0] == 2 else 2)
    est = dc.SpreadEstimator(fig1.graph)
    branch = dc.BranchEstimator(fig1, est, dc.BranchConfig(mode="exhaustive"))
    greedy = dc.GreedyPolicy(fig1, est)
    replay = sum(
        w * (_execute(greedy, fig1, state, real).cascade_size - base)
        for w, real in dc.enumerate_conditional_realizations(fig1, state.belief)
    )
    assert branch.greedy_value_from(state) == pytest.approx(replay, abs=1e-12)


def test_belief_and_observation_give_one_conditional_distribution(fig1, hard2):
    real = dc.fig2_realization(fig1)
    scripted = _StopAndKeepState([(2, 1.0), (0, 1.0)])
    dc.run_policy(scripted, fig1, hard2, real)
    belief = scripted.final.belief  # c rejects rate 1; a accepts and its cascade reaches b
    obs = dc.PartialObservation()
    obs.probed.append((dc.SeedDiscountPair(2, 1.0), False))
    newly, revealed = dc.reveal_cascade(fig1.graph, real.diffusion, 0, 0)
    obs.influenced.update(newly)
    obs.revealed.update(revealed)
    obs.probed.append((dc.SeedDiscountPair(0, 1.0), True))
    assert (belief.influenced, belief.floors[2]) == (0b11, 0)
    assert _ConditionalSupport(fig1, belief).count == _ConditionalSupport(fig1, obs).count > 1
    open_edges = [i for i, e in enumerate(fig1.graph.edges) if e.src not in obs.influenced]

    def seen(real):
        return real.seeding.min_rate_idx, [real.diffusion.live[i] for i in open_edges]

    from_belief = [(w, seen(r)) for w, r in dc.enumerate_conditional_realizations(fig1, belief)]
    from_obs = [(w, seen(r)) for w, r in dc.enumerate_conditional_realizations(fig1, obs)]
    assert from_belief == from_obs
    gen_b, gen_o = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(50):
        assert seen(dc.sample_conditional_realization(fig1, belief, gen_b)) == \
            seen(dc.sample_conditional_realization(fig1, obs, gen_o))


def test_evaluation_and_replay_build_no_observation(fig1, hard2, monkeypatch):
    # the belief state is the whole run state of the tree walk and of replay alike
    makers = (dc.GreedyFactory, dc.EnhancedFactory, dc.IteratedFactory)
    real = dc.fig2_realization(fig1)

    def runs():
        return [(dc.evaluate_policy(make(fig1, hard2), fig1, hard2, "exhaustive"),
                 dc.evaluate_policy(make(fig1, hard2), fig1, hard2, 64, stream=3),
                 dc.run_policy(make(fig1, hard2)(as_stream(0)), fig1, hard2, real))
                for make in makers]

    want = runs()

    def refuse(*args, **kwargs):
        raise AssertionError("a policy run built a PartialObservation")

    monkeypatch.setattr(dc.PartialObservation, "__init__", refuse)
    assert runs() == want


def test_tree_evaluation_enforces_the_probe_contract(fig1, hard2):
    # a is spent after either answer: influenced on accept, that rate pruned on reject
    with pytest.raises(dc.PolicyContractError, match="not available"):
        dc.evaluate_policy(_script_factory((0, 1.0), (0, 1.0)), fig1, hard2, "exhaustive")
    with pytest.raises(dc.PolicyContractError, match="exceeds the remaining budget"):
        dc.evaluate_policy(_script_factory((0, 2.0)), fig1, dc.BudgetSpec(budget=1.0, mode="hard"), "exhaustive")


@pytest.mark.parametrize("probe", [(0, 1.5), (5, 1.0), (-1, 1.0)], ids=["off_menu", "node_n", "node_minus_1"])
def test_probe_outside_the_instance_is_not_available(probe, fig1, hard2):
    with pytest.raises(dc.PolicyContractError, match="not available"):
        dc.run_policy(ScriptedPolicy([probe]), fig1, hard2, dc.fig2_realization(fig1))
    with pytest.raises(dc.PolicyContractError, match="not available"):
        dc.evaluate_policy(_script_factory(probe), fig1, hard2, "exhaustive")


def test_influenced_nodes_keep_no_floor(fig1, hard2):
    # c rejects rate 1, then a accepts and its cascade reaches c over a live a->c
    live = tuple(e.src == 0 for e in fig1.graph.edges)
    real = dc.Realization(seeding=dc.SeedingRealization(min_rate_idx=(0, 2, 1, 2, 2)),
                          diffusion=dc.DiffusionRealization(live=live))
    beliefs = []
    for probes in ([(2, 1.0), (0, 1.0)], [(0, 1.0)]):
        scripted = _StopAndKeepState(probes)
        dc.run_policy(scripted, fig1, hard2, real)
        beliefs.append(scripted.final.belief)
    assert (beliefs[0].influenced >> 2) & 1 and beliefs[0].floors[2] == -1
    assert beliefs[0] == beliefs[1]


def test_exhaustive_caps_name_the_sampling_fix():
    inst, spec = past_outcome_cap()
    with pytest.raises(dc.TooLargeError, match=r"^exhaustive evaluation needs 262144 realizations, cap is 200000; "
                                               r"sample instead with an integer trial count.*drop --exhaustive"):
        dc.evaluate_policy(dc.GreedyFactory(inst, spec), inst, spec, "exhaustive")
    branch = dc.BranchEstimator(inst, dc.SpreadEstimator(inst.graph), dc.BranchConfig())
    with pytest.raises(dc.TooLargeError, match=r"^exhaustive evaluation needs 262144 realizations, cap is 200000; "
                                               r'estimate .*BranchConfig\(mode="rollouts"\).*--branch rollouts'):
        branch.greedy_value_from(dc.initial_state(inst, spec))


class EagerGreedy:
    """The reference scan: every probe re-scores every open offer (and, for the
    shot, every open node) at the current state."""

    def __init__(self, inst, est, branch=None, iterate=False):
        self.inst, self.est, self.branch, self.iterate = inst, est, branch, iterate

    def begin(self, state):
        self.phase = "greedy" if self.branch is None else "shot"

    def next_probe(self, state):
        if self.phase == "done":
            return None
        if self.phase == "shot":
            shot = self._shot(state)
            if shot is not None:
                self.phase = "shot" if self.iterate else "done"
                return shot
            self.phase = "greedy"
        units, left, influenced = state.ledger.rate_units, state.belief.budget, state.belief.influenced
        affordable = [p for p in state.available if units[p.rate] <= left]
        if not affordable:
            return None
        return max(affordable, key=lambda p: (self.est.residual_spread(influenced, p.node) / p.rate,
                                              -p.node, -p.rate))

    def _shot(self, state):
        d_max = self.inst.menu.d_max
        nodes = {p.node for p in state.available}
        if not nodes or state.ledger.rate_units[d_max] > state.belief.budget:
            return None
        spread = {v: self.est.residual_spread(state.belief.influenced, v) for v in nodes}
        best = max(nodes, key=lambda v: (spread[v], -v))
        if self.inst.model.prob_at_rate(best, d_max) * spread[best] > self.branch.greedy_value_from(state):
            return dc.SeedDiscountPair(best, d_max)
        return None


class _AlwaysShoot:
    """A branch estimate that every top-rate shot beats."""

    def greedy_value_from(self, state):
        return 0.0


def _lazy_and_eager(kind, inst, spec, est):
    """The lazy policy of `kind` and its eager reference. Branch estimators
    are separate, the eager one continuing with the eager scan; "shots"
    is iterated with a branch estimate every shot beats, so it shoots
    until the top rate is out of reach."""
    if kind == "greedy":
        return dc.GreedyPolicy(inst, est), EagerGreedy(inst, est)
    if kind == "shots":
        return dc.GreedyPolicy(inst, est, _AlwaysShoot(), iterate=True), EagerGreedy(inst, est, _AlwaysShoot(), True)
    # Exhaustive branch estimates only where the enumeration stays small.
    small = _ConditionalSupport(inst, dc.initial_state(inst, spec).belief).count <= 5000
    config = dc.BranchConfig(mode="exhaustive" if small else "rollouts", rollouts=3)
    lazy_branch = dc.BranchEstimator(inst, est, config, stream=as_stream(4))
    eager_branch = dc.BranchEstimator(inst, est, config, stream=as_stream(4))
    eager_branch._greedy = EagerGreedy(inst, est)
    iterate = kind == "iterated"
    return (dc.GreedyPolicy(inst, est, lazy_branch, iterate=iterate),
            EagerGreedy(inst, est, eager_branch, iterate))


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("kind", ["greedy", "enhanced", "iterated", "shots"])
def test_lazy_scan_probes_what_the_eager_scan_probes(mode, kind):
    cases = [tiny_instance(seed) for seed in range(12)]
    # Sparse enough for exact spreads, large enough for many stale heap
    # entries; strong edges and a budget of three top-rate shots, so that
    # cascades shrink later spreads and repeated shots re-score nodes.
    cases += [(dc.random_instance(n, 0.8 / (n - 1), seed, rates=(0.5, 1.0), prob_range=(0.3, 0.9)),
               dc.BudgetSpec(budget=3.2, mode="hard"))
              for seed, n in enumerate(range(8, 20), start=40)]
    compared = 0
    for i, (inst, spec) in enumerate(cases):
        est = dc.SpreadEstimator(inst.graph, mode=mode, samples=40, stream=as_stream(i))
        lazy, eager = _lazy_and_eager(kind, inst, spec, est)
        for t in range(4):
            real = dc.sample_realization(inst, child(as_stream(100 + i), t))
            want = dc.run_policy(eager, inst, spec, real)
            got = dc.run_policy(lazy, inst, spec, real)
            assert got == want, f"case {i} realization {t}"
            compared += len(want.probes)
    assert compared > 100


def test_snapshot_residual_spread_never_grows():
    inst = dc.random_instance(30, 3 / 29, 8)
    est = dc.SpreadEstimator(inst.graph, mode="mc", samples=100, stream=as_stream(2))
    rng = np.random.default_rng(0)
    strict = 0
    for _ in range(300):
        nodes = rng.permutation(30).tolist()
        k = int(rng.integers(0, 20))
        influenced, u, v = set(nodes[:k]), nodes[k], nodes[k + 1]
        before = est.residual_spread(influenced, v)
        after = est.residual_spread(influenced | {u}, v)
        assert after <= before
        strict += after < before
    assert strict > 10


def _held_by_begin(n: int) -> int:
    """Bytes `GreedyPolicy.begin` allocates and keeps when it scores the root of an n-node instance."""
    inst = dc.random_instance(n, 5 / (n - 1), 424242, rates=(0.5, 1.0))
    est = dc.SpreadEstimator(inst.graph, mode="mc", samples=200, stream=as_stream(0))
    policy, state = dc.GreedyPolicy(inst, est), dc.initial_state(inst, dc.BudgetSpec(budget=3.0, mode="hard"))
    tracemalloc.start()
    try:
        policy.begin(state)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_root_scoring_memory_grows_linearly():
    # The root holds a spread and a few heap entries per node, so 4x the nodes
    # hold about 4x the bytes (4.04x on CPython 3.11: open offers and ints past
    # the small-int cache grow a little faster than n). A key that grows with
    # the node id, such as a v-bit mask per node v, makes it about 7x.
    small, large = _held_by_begin(2000), _held_by_begin(8000)
    assert large / small <= 4.5, f"{small / 1e6:.2f} MB at 2,000 nodes, {large / 1e6:.2f} MB at 8,000"


def _held_by_support_and_draw(n: int) -> int:
    """Bytes a prior's `_ConditionalSupport` and one draw from it hold on an n-node instance."""
    inst = dc.random_instance(n, 5 / (n - 1), 424242, rates=(0.5, 1.0))
    inst.model.probs  # derived on first read and held by the model, not by the support
    tracemalloc.start()
    try:
        support = _ConditionalSupport(inst, dc.BeliefState.initial(n, 0))
        realization = support.draw(generator(as_stream(0), 2, 0))  # held while measured
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_support_and_draw_memory_grows_linearly():
    # The support holds threshold options per node and a probability per edge, and a draw a
    # threshold per node and a state per edge, so 4x the nodes (and edges) hold about 4x the
    # bytes: 4.02x on CPython 3.11. Past 4.5x, some part grows faster than the graph.
    small, large = _held_by_support_and_draw(2000), _held_by_support_and_draw(8000)
    assert large / small <= 4.5, f"{small / 1e6:.2f} MB at 2,000 nodes, {large / 1e6:.2f} MB at 8,000"


def test_branches_of_an_exhaustive_evaluation_keep_their_own_heaps(fig1, hard2, monkeypatch):
    factory = dc.GreedyFactory(fig1, hard2)
    right, _ = dc.evaluate_policy(factory, fig1, hard2, "exhaustive")

    def share_heaps(self):
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        return twin

    monkeypatch.setattr(dc.GreedyPolicy, "__copy__", share_heaps)
    shared, _ = dc.evaluate_policy(factory, fig1, hard2, "exhaustive")
    assert right == pytest.approx(2.47853125, abs=1e-12)
    assert shared != pytest.approx(right, abs=1e-3)


def test_sampled_evaluation_builds_one_policy_per_process(tmp_path):
    # The caller walks the first share of trials and one forked child each other share,
    # a process per _EVAL_CHUNK trials begun, up to `workers`; every value is the serial one.
    inst = dc.random_instance(12, 2.5 / 11, 3, rates=(0.1, 0.5))
    spec = dc.BudgetSpec(budget=0.6, mode="hard")
    factory = dc.IteratedFactory(inst, spec, dc.EstimatorConfig(mode="mc", samples=40),
                                 dc.BranchConfig(mode="rollouts", rollouts=3))
    log = tmp_path / "builds"

    def logging(stream):
        with open(log, "a") as out:  # one short append per build: children write whole lines
            out.write(f"{os.getpid()}\n")
        return factory(stream)

    for trials in (16, 128, 129, 300):
        serial = None
        for workers in (1, 2, 3, 8):
            log.write_text("")
            value = dc.evaluate_policy(logging, inst, spec, trials, stream=9, workers=workers)
            pids = log.read_text().split()
            assert len(pids) == len(set(pids)) == min(workers, math.ceil(trials / adaptive._EVAL_CHUNK))
            assert str(os.getpid()) in pids
            serial = serial or value
            assert value == serial, (trials, workers)
    assert multiprocessing.active_children() == []


def test_a_child_that_dies_is_named_by_its_exit_code(fig1, hard2):
    caller, factory = os.getpid(), dc.GreedyFactory(fig1, hard2)

    def dies_in_child(stream):
        if os.getpid() != caller:
            os._exit(3)
        return factory(stream)

    with pytest.raises(RuntimeError, match="exit code 3$"):
        dc.evaluate_policy(dies_in_child, fig1, hard2, 2 * adaptive._EVAL_CHUNK, stream=0, workers=2)
    assert multiprocessing.active_children() == []


def test_a_childs_exception_reaches_the_caller_with_its_type(fig1, hard2):
    caller, factory = os.getpid(), dc.GreedyFactory(fig1, hard2)

    def fails_in_child(stream):
        if os.getpid() != caller:
            raise KeyError("child")
        return factory(stream)

    with pytest.raises(KeyError, match="child"):
        dc.evaluate_policy(fails_in_child, fig1, hard2, 3 * adaptive._EVAL_CHUNK, stream=0, workers=3)
    assert multiprocessing.active_children() == []


def test_a_failing_caller_share_stops_the_children(fig1, hard2):
    caller = os.getpid()

    def fails_in_caller(stream):
        if os.getpid() == caller:
            raise ValueError("caller")
        time.sleep(60)  # a child still walking when the caller fails

    start = time.perf_counter()
    with pytest.raises(ValueError, match="caller"):
        dc.evaluate_policy(fails_in_caller, fig1, hard2, 3 * adaptive._EVAL_CHUNK, stream=0, workers=3)
    assert multiprocessing.active_children() == []
    assert time.perf_counter() - start < 30  # terminated, not waited for


class DrainingGreedy(dc.GreedyPolicy):
    """The greedy scan without its early stop: a run whose budget nothing fits
    pops every remaining heap entry before it returns None."""

    def next_probe(self, state):
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
        while heap:
            _, v, i, stamp = heap[0]
            if (influenced >> v) & 1 or i <= floors[v] or units[rates[i]] > left:
                heapq.heappop(heap)
            elif stamp != influenced:
                ratio = self.estimator.residual_spread(influenced, v) / rates[i]
                heapq.heapreplace(heap, (-ratio, v, i, influenced))
            else:
                heapq.heappop(heap)
                return dc.SeedDiscountPair(v, rates[i])
        return None


class UnscoredRoot(dc.GreedyPolicy):
    """Greedy from unscored root heaps, every key -inf and unstamped, so that
    the lazy scans score the root entries themselves."""

    def _scored_heaps(self, state):
        belief, m = state.belief, len(self.instance.menu)
        nodes = [v for v in range(len(belief.floors)) if belief.is_open(v, m - 1)]
        return (tuple((-math.inf, v, i, None) for v in nodes for i in range(m) if belief.is_open(v, i)),
                tuple((-math.inf, v, None) for v in nodes) if self.branch is not None else ())


def _policy_and_twin(twin, kind, inst, spec, mode, stream):
    """The policy of `kind` and its twin of class `twin`, each with its own estimator
    drawn from `stream`; a branch estimator's greedy continuation is a `twin` too."""
    ests = [dc.SpreadEstimator(inst.graph, mode=mode, samples=40, stream=as_stream(stream)) for _ in range(2)]
    if kind == "greedy":
        return dc.GreedyPolicy(inst, ests[0]), twin(inst, ests[1])
    if kind == "shots":
        return (dc.GreedyPolicy(inst, ests[0], _AlwaysShoot(), iterate=True),
                twin(inst, ests[1], _AlwaysShoot(), iterate=True))
    small = _ConditionalSupport(inst, dc.initial_state(inst, spec).belief).count <= 5000
    config = dc.BranchConfig(mode="exhaustive" if small else "rollouts", rollouts=3)
    branches = [dc.BranchEstimator(inst, est, config, stream=as_stream(4)) for est in ests]
    branches[1]._greedy = twin(inst, ests[1])
    iterate = kind == "iterated"
    return (dc.GreedyPolicy(inst, ests[0], branches[0], iterate=iterate),
            twin(inst, ests[1], branches[1], iterate=iterate))


def _asked(est) -> set:
    """The (influenced, v) keys `est` is asked for from now on, by any policy
    holding it. Exact estimators share one memo, so their tables tell nothing apart."""
    keys, ask = set(), est.residual_spread
    est.residual_spread = lambda influenced, v: keys.add((influenced, v)) or ask(influenced, v)
    return keys


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("kind", ["greedy", "enhanced", "iterated", "shots"])
def test_greedy_scan_stops_once_nothing_fits(mode, kind):
    # Menu (0.5, 1.0): budgets of 1.5 and 2 end exactly spent or with exactly the
    # cheap rate left, and 1.75 and 2.25 with change below the cheap rate or with
    # only the top rate out of reach. The 16-node case runs deep and, for
    # enhanced and iterated, on rollouts.
    cases = [(dc.random_instance(n, 1.2 / (n - 1), seed, rates=(0.5, 1.0), prob_range=(0.3, 0.9),
                                 accept_range=(0.1, 1.0)), budget)
             for n, seed in ((4, 1), (5, 2)) for budget in (1.5, 1.75, 2.0, 2.25)]
    cases.append((dc.random_instance(16, 0.8 / 15, 40, rates=(0.5, 1.0), prob_range=(0.3, 0.9)), 3.25))
    ends, stopped = set(), 0
    for i, (inst, budget) in enumerate(cases):
        spec = dc.BudgetSpec(budget=budget, mode="hard")
        policy, draining = _policy_and_twin(DrainingGreedy, kind, inst, spec, mode, i)
        asked = [_asked(p.estimator) for p in (policy, draining)]
        for t in range(16):
            real = dc.sample_realization(inst, child(as_stream(100 + i), t))
            want = dc.run_policy(draining, inst, spec, real)
            got = dc.run_policy(policy, inst, spec, real)
            assert got == want, f"case {i} realization {t}"
            left = budget - want.delivered_cost
            ends.add("spent" if left == 0 else "change" if left < 0.5 else "top" if left < 1.0 else "open")
            stopped += left < 0.5 and bool(policy._ratios)
        # the stop re-scores nothing the drained scan did not
        assert asked[0] == asked[1]
    assert {"spent", "change", "top"} <= ends
    assert stopped > 0


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("kind", ["greedy", "enhanced", "iterated", "shots"])
def test_scored_root_heaps_ask_only_what_the_lazy_scans_ask(mode, kind):
    # Runs from the root and from a state in which node 0 has rejected the
    # cheap rate. At budget 0.75 the top rate is out of reach there, so node
    # 0 is never scored and no shot is weighed; at 3.25 shots are. Where
    # shots are taken, the lazy ratio heap is first scanned deeper, scoring
    # every entry there, and the scored root heap re-scores only stale tops.
    inst = dc.random_instance(16, 0.8 / 15, 40, rates=(0.5, 1.0), prob_range=(0.3, 0.9))
    compared = fewer = 0
    for i, budget in enumerate((0.75, 1.5, 3.25)):
        spec = dc.BudgetSpec(budget=budget, mode="hard")
        root = dc.initial_state(inst, spec)
        for state in (root, root.after_reject(dc.SeedDiscountPair(0, 0.5), 0)):
            policy, lazy = _policy_and_twin(UnscoredRoot, kind, inst, spec, mode, i)
            asked = [_asked(p.estimator) for p in (policy, lazy)]
            for t in range(8):
                real = dc.sample_realization(inst, child(as_stream(100 + i), t))
                want = _execute(lazy, inst, state, real)
                assert _execute(policy, inst, state, real) == want, f"budget {budget} realization {t}"
                compared += len(want.probes)
            assert asked[0] <= asked[1]
            fewer += asked[0] != asked[1]
    assert compared > 50
    if kind == "greedy":  # its lazy scan scores the root first too, so both ask alike
        assert fewer == 0


@pytest.mark.parametrize("shots", [False, True])
def test_scored_root_heaps_ask_each_spread_once(shots):
    # With two rates open, a node has two ratio-heap entries and, when shots are
    # weighed, a shot-heap entry: all of them read one lookup of its spread.
    inst = dc.random_instance(16, 0.8 / 15, 40, rates=(0.5, 1.0), prob_range=(0.3, 0.9))
    est = dc.SpreadEstimator(inst.graph, mode="mc", samples=40, stream=as_stream(0))
    policy = dc.GreedyPolicy(inst, est, _AlwaysShoot() if shots else None, iterate=shots)
    asked, ask = [], est.residual_spread
    est.residual_spread = lambda influenced, v: asked.append((influenced, v)) or ask(influenced, v)
    policy.begin(dc.initial_state(inst, dc.BudgetSpec(budget=3.25, mode="hard")))
    assert asked == [(0, v) for v in range(16)]
    assert len(policy._ratios) == 32 and len(policy._spreads) == (16 if shots else 0)


def _policy_kinds(inst, mode):
    """Policy builders by kind, each a function of a stream (a factory reads
    no budget); "shots" is iterated with a branch estimate every shot beats."""
    est = dc.EstimatorConfig(mode=mode, samples=40)
    branch = dc.BranchConfig(mode="rollouts", rollouts=3)
    return {
        "greedy": dc.GreedyFactory(inst, None, est),
        "enhanced": dc.EnhancedFactory(inst, None, est, branch),
        "iterated": dc.IteratedFactory(inst, None, est, branch),
        "shots": lambda stream: dc.GreedyPolicy(inst, est.build(inst.graph, stream), _AlwaysShoot(), iterate=True),
    }


def _reused_and_fresh(make, inst, specs, trials):
    """Trajectories of one policy run over every trial, next to those of a fresh
    policy per trial; trial t runs under specs[t % len(specs)]."""
    reused = make(as_stream(3))
    got, want = [], []
    for t in range(trials):
        spec, real = specs[t % len(specs)], dc.sample_realization(inst, child(as_stream(7), t))
        got.append(dc.run_policy(reused, inst, spec, real))
        want.append(dc.run_policy(make(as_stream(3)), inst, spec, real))
    return got, want


def _deep_and_shot_cases():
    """(instance, spec) pairs with runs deep into the tree on the first; enhanced
    and iterated take a top-rate shot on the other two, and on the last a
    rejected shot leaves budget that only iterated goes on to spend."""
    return [(dc.random_instance(16, 0.8 / 15, 40, rates=(0.5, 1.0), prob_range=(0.3, 0.9)),
             dc.BudgetSpec(budget=3.2, mode="hard")),
            (dc.worstcase_instance(10), dc.BudgetSpec(budget=1.0, mode="hard")),
            (dc.random_instance(4, 0.5, 9, rates=(0.5, 1.0), prob_range=(0.3, 0.9), accept_range=(0.2, 1.0)),
             dc.BudgetSpec(budget=1.2, mode="hard"))]


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("kind", ["greedy", "enhanced", "iterated", "shots"])
def test_memoized_steps_give_the_trajectories_of_fresh_policies(mode, kind):
    # A policy reused across runs, with its root heaps and estimate caches,
    # runs each as a fresh one would.
    for inst, spec in _deep_and_shot_cases():
        got, want = _reused_and_fresh(_policy_kinds(inst, mode)[kind], inst, [spec], 64)
        assert got == want


@pytest.mark.parametrize("kind", ["greedy", "enhanced", "iterated", "shots"])
def test_memo_root_tells_ledgers_apart(kind):
    # Each pair of budgets leaves equal units at the root, counted in
    # different ledger denominators, so it affords different offers. On
    # the star (menu 0.5, 1.0), 3 halves buy the hub's top rate after it
    # rejects the cheap one, and 3 quarters do not. On the worst case's
    # (1/8, 1), 17 eighths buy every node, so enhanced declines the shot,
    # and 17 sixteenths buy one clique node, so enhanced takes it.
    star = dc.Instance(
        graph=dc.SocialGraph(6, tuple(str(v) for v in range(6)), tuple(dc.Edge(0, v, 1.0) for v in range(1, 6))),
        model=dc.AdoptionModel(menu=dc.DiscountMenu(rates=(0.5, 1.0)), probs=((0.0, 1.0),) + ((0.5, 0.8),) * 5))
    cases = [(star, (1.5, 0.75)), (dc.worstcase_instance(8), (2.125, 1.0625))]
    for inst, budgets in cases:
        specs = [dc.BudgetSpec(budget=b, mode="hard") for b in budgets]
        roots = [dc.initial_state(inst, spec) for spec in specs]
        assert roots[0].belief == roots[1].belief and roots[0].ledger.denom != roots[1].ledger.denom
        for order in (specs, specs[::-1]):  # either budget builds the root heaps first
            got, want = _reused_and_fresh(_policy_kinds(inst, "mc")[kind], inst, order, 64)
            assert got == want
            assert {rec.cascade_size for rec in want[0::2]} != {rec.cascade_size for rec in want[1::2]}


def _scalar_draw(instance, given, gen):
    """The reference draw: one scalar uniform per open node, then one per undetermined edge."""
    support = _ConditionalSupport(instance, given)
    idx, live = list(support.fixed), support.live.tolist()
    for v, options in support.varying:
        u = gen.random()
        idx[v] = options[-1][0]
        for i, p in options:
            u -= p
            if u < 0:
                idx[v] = i
                break
    for eidx in support.undetermined.tolist():
        live[eidx] = bool(gen.random() < instance.graph.edges[eidx].prob)
    return dc.Realization(seeding=dc.SeedingRealization(min_rate_idx=tuple(idx)),
                          diffusion=dc.DiffusionRealization(live=tuple(live)))


def test_conditional_draws_equal_scalar_draws():
    inst = dc.random_instance(30, 3 / 29, 4, rates=(0.1, 0.3, 0.5), prob_range=(0.2, 0.8))
    floors = [-1] * 30
    floors[1], floors[2], floors[3] = 0, 1, 2  # node 3 has rejected every rate
    belief = dc.BeliefState(influenced=0b1100001, floors=tuple(floors), budget=0)
    obs = dc.PartialObservation()
    for v, rate in ((1, 0.3), (2, 0.1)):
        obs.probed.append((dc.SeedDiscountPair(v, rate), False))
    real = dc.sample_realization(inst, as_stream(1))
    newly, revealed = dc.reveal_cascade(inst.graph, real.diffusion, 0, 4)
    obs.influenced.update(newly)
    obs.revealed.update(revealed)
    obs.probed.append((dc.SeedDiscountPair(4, 0.5), True))
    assert revealed
    for given in (belief, obs, dc.BeliefState.initial(30, 0)):
        for seed in range(20):
            got = dc.sample_conditional_realization(inst, given, np.random.default_rng(seed))
            want = _scalar_draw(inst, given, np.random.default_rng(seed))
            assert got.seeding == want.seeding and got.diffusion == want.diffusion, seed
            assert all(type(live) is bool for live in got.diffusion.live)


def test_sampled_trials_draw_what_per_trial_draws_give():
    inst = dc.random_instance(20, 2.5 / 19, 3, rates=(0.1, 0.5))
    spec = dc.BudgetSpec(budget=0.6, mode="hard")
    factory = dc.IteratedFactory(inst, spec, dc.EstimatorConfig(mode="mc", samples=40),
                                 dc.BranchConfig(mode="rollouts", rollouts=3))
    root = as_stream(6)
    prior = dc.BeliefState.initial(inst.graph.node_count, 0)
    want = [dc.run_policy(factory(child(root, 1)), inst, spec,
                          dc.sample_conditional_realization(inst, prior, generator(root, 2, t))).cascade_size
            for t in range(64)]
    assert _run_trials(factory, _ConditionalSupport(inst, prior), inst, spec, root, 0, 64) == want


def _lone_sizes(make, inst, state, reals):
    """The reference: each realization run alone by `_execute`, on a fresh policy."""
    return [_execute(make(as_stream(3)), inst, state, real).cascade_size for real in reals]


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("kind", ["greedy", "enhanced", "iterated", "shots"])
def test_walked_trials_give_the_sizes_of_lone_runs(mode, kind):
    splits = 0
    for inst, spec in _deep_and_shot_cases():
        make = _policy_kinds(inst, mode)[kind]
        reals = [dc.sample_realization(inst, child(as_stream(7), t)) for t in range(48)]
        root = dc.initial_state(inst, spec)
        # from the root, and from a state a rejection of the first probe leads to
        first = _execute(make(as_stream(3)), inst, root, reals[0]).probes[0].pair
        later = root.after_reject(first, inst.menu.index_of(first.rate))
        for state in (root, later):
            sizes = _lone_sizes(make, inst, state, reals)
            assert _walk_trials(make(as_stream(3)), inst, state, iter(reals)) == sizes
            splits += len(set(sizes)) > 1
    assert splits >= 2


def test_walk_groups_of_one_and_groups_that_all_answer_alike(fig1, hard2):
    # Copies of one realization walk one path: at each node every trial
    # accepts or every trial rejects. Here a rejects, then c accepts.
    real = dc.fig2_realization(fig1)
    make, state = dc.GreedyFactory(fig1, hard2), dc.initial_state(fig1, hard2)
    record = _execute(make(as_stream(0)), fig1, state, real)
    assert {rec.accepted for rec in record.probes} == {True, False}
    for copies in (1, 5):
        assert _walk_trials(make(as_stream(0)), fig1, state, [real] * copies) == [record.cascade_size] * copies
    assert _walk_trials(make(as_stream(0)), fig1, state, []) == []


@pytest.mark.parametrize("per_group", [1, 3, 17])
def test_walk_groups_split_by_the_entry_bound(per_group, monkeypatch):
    # A group holds at most `_WALK_ENTRIES` realization entries (nodes +
    # edges each); a bound below one realization walks them one at a time.
    inst, spec = _deep_and_shot_cases()[0]
    make = _policy_kinds(inst, "mc")["iterated"]
    reals = [dc.sample_realization(inst, child(as_stream(7), t)) for t in range(32)]
    state = dc.initial_state(inst, spec)
    want = _lone_sizes(make, inst, state, reals)
    assert len(set(want)) > 1
    policy, begins = make(as_stream(3)), []
    begin = policy.begin
    policy.begin = lambda st: begins.append(st) or begin(st)
    entries = inst.graph.node_count + len(inst.graph.src)
    monkeypatch.setattr(adaptive, "_WALK_ENTRIES", (per_group + 1) * entries - 1 if per_group > 1 else 1)
    assert _walk_trials(policy, inst, state, iter(reals)) == want
    assert len(begins) == -(-len(reals) // per_group)  # one tree per group


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_rollout_estimates_equal_lone_rollouts(mode):
    inst, spec = _deep_and_shot_cases()[0]
    est = dc.SpreadEstimator(inst.graph, mode=mode, samples=40, stream=as_stream(2))
    config = dc.BranchConfig(mode="rollouts", rollouts=24)
    branch = dc.BranchEstimator(inst, est, config, stream=as_stream(4))
    root = dc.initial_state(inst, spec)
    first = _execute(dc.GreedyPolicy(inst, est), inst, root, dc.sample_realization(inst, as_stream(1)))
    pair = first.probes[0].pair
    states = [root, root.after_reject(pair, inst.menu.index_of(pair.rate)),
              root.after_accept(pair, sum(1 << u for u in first.probes[0].newly_influenced))]
    m, greedy, spread = len(inst.menu), dc.GreedyPolicy(inst, est), []
    for state in states:
        belief, denom = state.belief, state.ledger.denom
        # the rollout keying, as `BranchEstimator.greedy_value_from` documents it
        floors_code = sum((fl + 1) * (m + 1) ** v for v, fl in enumerate(belief.floors))
        g = math.gcd(belief.budget, denom)
        keyed = child(as_stream(4), belief.influenced, floors_code, belief.budget // g, denom // g)
        support, base = _ConditionalSupport(inst, belief), belief.influenced.bit_count()
        sizes = [_execute(greedy, inst, state, support.draw(generator(keyed, r))).cascade_size - base
                 for r in range(config.rollouts)]
        assert branch.greedy_value_from(state) == sum(sizes) / config.rollouts
        spread.append(len(set(sizes)) > 1)
    assert all(spread)


def test_rollout_key_sums_rejected_nodes_only(monkeypatch):
    # A node with no rejection (floor -1) is digit 0 of the key's floors code, so
    # summing over rejected nodes gives the sum over every node.
    class Keyed(Exception):
        pass

    def keyed(stream, *key):
        keys.append(key)
        raise Keyed

    keys, rng, spec = [], np.random.default_rng(5), dc.BudgetSpec(budget=1.0, mode="hard")
    monkeypatch.setattr(adaptive, "child", keyed)
    for n in range(1, 65):
        inst = dc.random_instance(n, 0.1, n, rates=(0.1, 0.5, 1.0))
        m, root = len(inst.menu), dc.initial_state(inst, spec)
        branch = dc.BranchEstimator(inst, dc.SpreadEstimator(inst.graph), dc.BranchConfig(mode="rollouts", rollouts=1),
                                    stream=as_stream(0))
        for floors in ((-1,) * n, tuple(int(f) for f in rng.integers(-1, m, n))):
            with pytest.raises(Keyed):
                branch.greedy_value_from(dc.PolicyState(root.belief._replace(floors=floors), root.ledger))
            assert keys.pop()[1] == sum((fl + 1) * (m + 1) ** v for v, fl in enumerate(floors))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("probes", [[(0, 1.0), (0, 1.0)], [(0, 1.0), (1, 1.0)]], ids=["every_run", "some_runs"])
def test_sampled_evaluation_enforces_the_probe_contract(probes, workers, fig1, hard2):
    # a is spent after either answer; b is influenced only where a accepts and a->b is live
    with pytest.raises(dc.PolicyContractError, match="not available"):
        dc.evaluate_policy(_script_factory(*probes), fig1, hard2, 2 * adaptive._EVAL_CHUNK, stream=0, workers=workers)


@pytest.mark.parametrize("workers", [0, -3, True, 2.5, "2"])
def test_evaluate_policy_refuses_a_bad_worker_count(workers, fig1, hard2):
    factory = dc.GreedyFactory(fig1, hard2)
    message = f"workers must be a positive int, got {workers!r} (CLI: --workers)"
    for trials in (256, "exhaustive"):
        with pytest.raises(dc.ValidationError, match=f"^{re.escape(message)}$"):
            dc.evaluate_policy(factory, fig1, hard2, trials, stream=0, workers=workers)
