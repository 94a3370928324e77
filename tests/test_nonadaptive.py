import heapq
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discountcast as dc
import discountcast.cascade as cascade
import discountcast.nonadaptive as nonadaptive
from discountcast.nonadaptive import GAIN_EPS, BudgetLedger
from discountcast.cascade import sample_worlds
from discountcast.rng import as_stream, child

from conftest import tiny_instance
from test_cascade import brute_spread, world_reach


def brute_objective(config: dc.Configuration, instance: dc.Instance) -> float:
    """Independent oracle: enumerate seed sets times brute-force spreads."""
    eff = config.effective_map
    nodes = sorted(eff)
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(nodes)):
        w = 1.0
        seeds = []
        for v, b in zip(nodes, bits):
            p = instance.model.prob_at_rate(v, eff[v])
            w *= p if b else 1.0 - p
            if b:
                seeds.append(v)
        if w > 0.0:
            total += w * brute_spread(instance.graph, seeds)
    return total


def test_config_cost_hard_and_soft(fig1):
    cfg = dc.Configuration.of((0, 1.0), (1, 2.0))
    hard = dc.BudgetSpec(budget=5.0, mode="hard")
    soft = dc.BudgetSpec(budget=5.0, mode="soft")
    assert dc.config_cost(cfg, fig1.model, hard) == pytest.approx(3.0, abs=0)
    # soft: 1 * p_a(1) + 2 * p_b(2) = 0.5 + 2.0
    assert dc.config_cost(cfg, fig1.model, soft) == pytest.approx(2.5, abs=0)
    # only the largest rate per node binds
    dup = dc.Configuration.of((0, 1.0), (0, 2.0))
    assert dc.config_cost(dup, fig1.model, hard) == pytest.approx(2.0, abs=0)


def test_seedset_probability(fig1):
    cfg = dc.Configuration.of((0, 1.0), (1, 1.0))
    # both accept: 0.5 * 0.5, everyone else accepts nothing with certainty
    assert dc.seedset_probability(cfg, fig1.model, {0, 1}) == pytest.approx(0.25, abs=0)
    assert dc.seedset_probability(cfg, fig1.model, {0}) == pytest.approx(0.25, abs=0)
    assert dc.seedset_probability(cfg, fig1.model, set()) == pytest.approx(0.25, abs=0)
    # a node outside the support can never be a seed
    assert dc.seedset_probability(cfg, fig1.model, {0, 2}) == 0.0


def test_f_exact_reference_values(fig1):
    assert dc.f_exact(dc.Configuration.of((0, 2.0)), fig1) == pytest.approx(1.609, abs=1e-9)
    cfg = dc.Configuration.of((0, 1.0), (1, 1.0))
    # (0 + 1.609 + 1.55 + 2.805) / 4
    assert dc.f_exact(cfg, fig1) == pytest.approx(1.491, abs=1e-9)


def test_f_exact_matches_brute_oracle(fig1):
    configs = [
        dc.Configuration.of((0, 1.0)),
        dc.Configuration.of((0, 1.0), (3, 2.0)),
        dc.Configuration.of((1, 1.0), (2, 1.0), (4, 2.0)),
    ]
    for cfg in configs:
        assert dc.f_exact(cfg, fig1) == pytest.approx(brute_objective(cfg, fig1), abs=1e-12)
    for seed in range(10):
        inst, _ = tiny_instance(seed)
        rng = np.random.default_rng(seed + 1000)
        pairs = inst.all_pairs()
        take = rng.choice(len(pairs), size=min(3, len(pairs)), replace=False)
        cfg = dc.Configuration.of(*(pairs[i] for i in take))
        assert dc.f_exact(cfg, inst) == pytest.approx(brute_objective(cfg, inst), abs=1e-12)


def test_f_exact_support_cap():
    n = 17
    g = dc.SocialGraph(n, tuple(str(i) for i in range(n)), ())
    menu = dc.DiscountMenu(rates=(1.0,))
    model = dc.AdoptionModel(menu=menu, probs=((0.5,),) * n)
    inst = dc.Instance(graph=g, model=model)
    cfg = dc.Configuration.of(*((v, 1.0) for v in range(16)))
    with pytest.raises(dc.TooLargeError, match=r"^exact objective needs 16 accepting nodes enumerated, cap is 15; "
                                               r"sample with MCEvaluator \(CLI: --evaluator mc\)$"):
        dc.f_exact(cfg, inst)


def test_zero_probability_offers_add_nothing():
    inst = dc.worstcase_instance(5)
    low = inst.menu.rates[0]
    cfg = dc.Configuration.of((1, low))  # clique members never accept the low rate
    assert dc.f_exact(cfg, inst) == 0.0


def test_f_mc_tracks_exact(fig1):
    cfg = dc.Configuration.of((0, 1.0), (1, 1.0))
    est = dc.f_mc(cfg, fig1, 200_000, as_stream(17))
    assert est == pytest.approx(1.491, abs=0.02)
    assert dc.f_mc(cfg, fig1, 5000, as_stream(3)) == dc.f_mc(cfg, fig1, 5000, as_stream(3))


def test_f_mc_loop_path_tracks_exact():
    # 13 uncertain edges and two uncertain offers: both the seed sets and
    # the cascades vary across replicates
    rng = np.random.default_rng(1)
    edges = []
    for i in range(4):
        for j in range(4):
            if i != j:
                edges.append(dc.Edge(i, j, round(float(rng.uniform(0.3, 0.7)), 3)))
    edges.append(dc.Edge(3, 4, 0.5))
    g = dc.SocialGraph(5, tuple(str(i) for i in range(5)), tuple(edges))
    menu = dc.DiscountMenu(rates=(1.0,))
    model = dc.AdoptionModel(menu=menu, probs=((0.6,),) * 5)
    inst = dc.Instance(graph=g, model=model)
    cfg = dc.Configuration.of((0, 1.0), (2, 1.0))
    exact = dc.f_exact(cfg, inst)
    est = dc.f_mc(cfg, inst, 150_000, as_stream(8))
    assert est == pytest.approx(exact, abs=0.05)


def test_f_mc_is_exact_when_nothing_is_random():
    # node 0 and clique member 1 both accept the full rate; every clique edge is certain
    inst = dc.worstcase_instance(6)
    cfg = dc.Configuration.of((0, 1.0), (1, 1.0))
    assert dc.f_mc(cfg, inst, 1000, as_stream(2)) == 6.0


def test_exact_evaluator_matches_f_exact(fig1):
    ev = dc.ExactEvaluator(fig1)
    for cfg in (dc.Configuration.of((0, 2.0)), dc.Configuration.of((0, 1.0), (1, 1.0))):
        assert ev.value(cfg) == dc.f_exact(cfg, fig1)
    assert ev.radius() == 0.0


def test_mc_evaluator_value_is_order_independent(fig1):
    configs = [
        dc.Configuration.of((0, 1.0)),
        dc.Configuration.of((0, 1.0), (1, 1.0)),
        dc.Configuration.of((3, 2.0)),
        dc.Configuration.of((1, 1.0), (2, 1.0)),
    ]
    ev1 = dc.MCEvaluator(fig1, samples=4000, stream=as_stream(5))
    vals1 = [ev1.value(c) for c in configs]
    ev2 = dc.MCEvaluator(fig1, samples=4000, stream=as_stream(5))
    vals2 = [ev2.value(c) for c in reversed(configs)][::-1]
    assert vals1 == vals2
    # duplicate pair sets evaluate identically regardless of how they were built
    a = dc.Configuration.of((0, 1.0), (0, 2.0))
    b = dc.Configuration.of((0, 2.0))
    assert ev1.value(a) == ev1.value(b)


def test_mc_evaluator_singleton_factors(fig1):
    # a single offer's value is acceptance times spread in expectation; on the sampled
    # worlds it is the mean reach over the worlds where the node accepts
    ev = dc.MCEvaluator(fig1, samples=20_000, stream=as_stream(23))
    val = ev.value(dc.Configuration.of((0, 1.0)))
    assert val == pytest.approx(0.5 * dc.spread_exact(fig1.graph, [0]), abs=0.03)
    worlds = sample_worlds(fig1.graph, 20_000, as_stream(23), fig1.model)
    assert val.hex() == (lone_total(fig1.graph, worlds, {0: 0}) / 20_000).hex()
    assert ev.radius() == dc.hoeffding_radius(5, 20_000)


def lone_total(graph, worlds, offers: dict[int, int]) -> int:
    """Summed reach of one kernel run over `worlds`, seeding node v, for each
    v: rate index in `offers`, in the worlds where it accepts."""
    nodes = np.array(sorted(offers), dtype=np.int64)
    ridx = np.array([offers[v] for v in sorted(offers)])

    def block_seeds(done, r):
        rows, cols = np.nonzero(worlds.accept[done:done + r, nodes] <= ridx)
        return rows * graph.node_count + nodes[cols]

    return cascade._mc_total(graph, worlds.samples, None, block_seeds, worlds=worlds)


def test_mc_evaluator_builds_its_singleton_table_in_the_solve(monkeypatch):
    inst = dc.random_instance(300, 4 / 299, 9, rates=(0.5, 1.0))

    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel work at construction")

    with monkeypatch.context() as m:
        for name in ("sample_worlds", "offer_totals", "_mc_total", "f_mc"):
            m.setattr(nonadaptive, name, no_kernel)
        ev = dc.MCEvaluator(inst, samples=150, stream=as_stream(17))
    assert "csr" not in vars(inst.graph)
    worlds = sample_worlds(inst.graph, 150, as_stream(17), inst.model)
    for v in range(inst.graph.node_count):
        for i, rate in enumerate(inst.menu.rates):
            want = lone_total(inst.graph, worlds, {v: i}) / 150
            assert ev.value(dc.Configuration.of((v, rate))).hex() == want.hex()


def test_mc_evaluator_larger_configurations_match_plain_walks():
    inst = dc.random_instance(40, 3 / 39, 4, prob_range=(0.2, 0.7), rates=(0.5, 1.0, 1.5))
    g, rates = inst.graph, inst.menu.rates
    ev = dc.MCEvaluator(inst, samples=80, stream=as_stream(9))
    worlds = sample_worlds(g, 80, as_stream(9), inst.model)
    rng = np.random.default_rng(1)
    for _ in range(25):
        nodes = rng.choice(40, size=int(rng.integers(2, 6)), replace=False).tolist()
        offers = {v: int(rng.integers(0, 3)) for v in nodes}
        total = sum(world_reach(g, worlds, w, [v for v, i in offers.items() if worlds.accept[w, v] <= i])
                    for w in range(80))
        value = ev.value(dc.Configuration.from_assignment({v: rates[i] for v, i in offers.items()}))
        assert value.hex() == (total / 80).hex()


def instance_with_menu(seed: int) -> tuple[dc.Instance, dc.BudgetSpec]:
    """A 14-30 node random instance with a 2- or 3-rate menu and a budget of a few offers."""
    rng = np.random.default_rng(seed)
    rates = tuple(np.round(np.sort(rng.choice(np.arange(10, 100), size=2 + seed % 2, replace=False)) / 100, 2).tolist())
    n = int(rng.integers(14, 31))
    inst = dc.random_instance(n, 3 / (n - 1), seed, prob_range=(0.1, 0.6), rates=rates)
    return inst, dc.BudgetSpec(budget=round(float(rng.uniform(1.0, 2.5)), 2), mode="hard")


@pytest.mark.parametrize("rule", ["marginal", "total"])
def test_lazy_greedy_matches_an_eager_scan_on_sampled_worlds(rule):
    # On fixed worlds the objective is a coverage function, so stale gains bound fresh
    # ones exactly: the lazy queue picks what a full rescan picks, ties included.
    # Seeds 34 and 147 hold exact ties that float gains against different values
    # split by an ulp (see TIE_REL).
    picked = 0
    for seed in [*range(28), 34, 147]:
        inst, spec = instance_with_menu(seed)
        ev = dc.MCEvaluator(inst, samples=40, stream=as_stream(seed))
        lazy = dc.hill_climbing(inst, spec, ev, gain_rule=rule)
        assert lazy.effective_map == eager_hill_climbing(inst, spec, ev, rule).effective_map, f"seed {seed}"
        picked += len(lazy.effective_map) > 1
    assert picked >= 20


def test_hill_climbing_fig1(fig1, hard2):
    ev = dc.ExactEvaluator(fig1)
    for rule in ("marginal", "total"):
        cfg = dc.hill_climbing(fig1, hard2, ev, gain_rule=rule)
        assert cfg.effective_map == {0: 2.0}
        assert ev.value(cfg) == pytest.approx(1.609, abs=1e-9)


def test_hill_climbing_with_mc_evaluator(fig1, hard2):
    ev = dc.MCEvaluator(fig1, samples=20_000, stream=as_stream(2))
    cfg = dc.hill_climbing(fig1, hard2, ev)
    assert cfg.effective_map == {0: 2.0}
    assert ev.value(cfg) == pytest.approx(1.609, abs=0.05)


def test_hill_climbing_single_pair_tie_prefers_lowest_node():
    g = dc.SocialGraph(2, ("0", "1"), ())
    menu = dc.DiscountMenu(rates=(1.0,))
    model = dc.AdoptionModel(menu=menu, probs=((0.5,), (0.5,)))
    inst = dc.Instance(graph=g, model=model)
    spec = dc.BudgetSpec(budget=1.0, mode="hard")
    cfg = dc.hill_climbing(inst, spec, dc.ExactEvaluator(inst))
    assert cfg.effective_map == {0: 1.0}


def exact_raise_cost(model, spec, v, rate, current):
    """Extra cost of raising v's offer from `current` (0.0 = none) to `rate`, as a Fraction."""
    def cost(r):
        if not r:
            return Fraction(0)
        if spec.mode == "hard":
            return model.menu.exact[r]
        return model.menu.exact[r] * Fraction(model.prob_at_rate(v, r))
    return cost(rate) - cost(current)


def eager_hill_climbing(instance, spec, evaluator, rule="marginal"):
    """Reference hill climb: full rescan every step, same tie-breaking."""
    model, menu = instance.model, instance.menu
    budget = spec.exact_budget
    current = dc.Configuration.empty()
    spent = Fraction(0)
    while True:
        base = evaluator.value(current)
        best = None
        for pair in instance.all_pairs():
            if pair.rate <= current.effective_rate(pair.node):
                continue
            inc = exact_raise_cost(model, spec, pair.node, pair.rate, current.effective_rate(pair.node))
            if inc <= 0 or spent + inc > budget:
                continue
            val = evaluator.value(current.add(pair))
            gain = val - base
            ratio = gain / float(inc) if rule == "marginal" else val / pair.rate
            if best is None or ratio > best[0]:
                best = (ratio, pair, inc, gain)
        if best is None or best[3] <= GAIN_EPS:
            break
        _, pair, inc, _ = best
        current = current.add(pair)
        spent += inc
    # the climb keeps the better of the greedy set and the best lone pair
    single = None
    for pair in instance.all_pairs():
        if exact_raise_cost(model, spec, pair.node, pair.rate, 0.0) > budget:
            continue
        val = evaluator.value(dc.Configuration.of(pair))
        if single is None or val > single[0]:
            single = (val, pair)
    if single is not None and single[0] >= evaluator.value(current):
        return dc.Configuration.of(single[1])
    return current


def test_lazy_greedy_matches_full_rescan():
    for seed in range(15):
        inst, spec = tiny_instance(seed)
        ev = dc.ExactEvaluator(inst)
        fast = dc.hill_climbing(inst, spec, ev)
        slow = eager_hill_climbing(inst, spec, ev)
        assert fast.effective_map == slow.effective_map, f"seed {seed}"
        assert ev.value(fast) == pytest.approx(ev.value(slow), abs=0)


def test_brute_force_fig1(fig1, hard2):
    cfg, val = dc.brute_force_config(fig1, hard2)
    assert cfg.effective_map == {0: 2.0}
    assert val == pytest.approx(1.609, abs=1e-9)


def test_brute_force_cap(hard2):
    # 13 nodes on a two-rate menu: 3**13 = 1,594,323 assignments, past the million cap
    g = dc.SocialGraph(13, tuple(str(v) for v in range(13)), ())
    model = dc.AdoptionModel(menu=dc.DiscountMenu(rates=(1.0, 2.0)), probs=((0.5, 1.0),) * 13)
    with pytest.raises(dc.TooLargeError, match=r"^brute force would enumerate 1594323 configurations, cap is 1000000; "
                                               r"search with hill_climbing \(CLI: --algorithm nonadaptive-greedy\)$"):
        dc.brute_force_config(dc.Instance(graph=g, model=model), hard2)


def test_brute_force_never_below_greedy():
    for seed in range(10):
        inst, spec = tiny_instance(seed)
        ev = dc.ExactEvaluator(inst)
        greedy = ev.value(dc.hill_climbing(inst, spec, ev))
        _, best = dc.brute_force_config(inst, spec)
        assert best >= greedy - 1e-12, f"seed {seed}"


@pytest.mark.parametrize("budget", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_budget_must_be_positive_and_finite(budget):
    with pytest.raises(dc.ValidationError, match=f"^budget must be positive and finite, got {budget}$"):
        dc.BudgetSpec(budget=budget)


def test_budget_safety_hard_and_soft():
    for seed in range(10):
        inst, hard = tiny_instance(seed)
        soft = dc.BudgetSpec(budget=hard.budget, mode="soft")
        for spec in (hard, soft):
            ev = dc.ExactEvaluator(inst)
            cfg = dc.hill_climbing(inst, spec, ev)
            assert dc.config_cost(cfg, inst.model, spec) <= spec.budget
            bcfg, _ = dc.brute_force_config(inst, spec)
            assert dc.config_cost(bcfg, inst.model, spec) <= spec.budget


def test_soft_mode_admits_more_offers(fig1):
    spec = dc.BudgetSpec(budget=1.0, mode="soft")
    ev = dc.ExactEvaluator(fig1)
    cfg = dc.hill_climbing(fig1, spec, ev)
    # rate 1 costs only half in expectation, so two cheap offers fit
    assert dc.config_cost(cfg, fig1.model, spec) <= 1.0
    hard_cfg = dc.hill_climbing(fig1, dc.BudgetSpec(budget=1.0, mode="hard"), ev)
    assert ev.value(cfg) > ev.value(hard_cfg)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: rates and budgets are the binary values of their floats, and "
    "Fraction(0.1) * 3 > Fraction(0.3); reading them as decimals fixes this"
))
def test_hill_climbing_buys_three_tenths_under_three_tenths():
    g = dc.SocialGraph(3, ("0", "1", "2"), ())
    menu = dc.DiscountMenu(rates=(0.1,))
    inst = dc.Instance(graph=g, model=dc.AdoptionModel(menu=menu, probs=((1.0,),) * 3))
    cfg = dc.hill_climbing(inst, dc.BudgetSpec(budget=0.3, mode="hard"), dc.ExactEvaluator(inst))
    assert len(cfg.effective_map) == 3


@st.composite
def ledger_cases(draw):
    """A 1-3 rate menu, 1-3 adoption rows, a mode and a budget near a sum of rates."""
    rate = st.floats(min_value=0.01, max_value=4.0, allow_nan=False, allow_infinity=False)
    rates = tuple(sorted(set(draw(st.lists(rate, min_size=1, max_size=3)))))
    prob = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    rows = tuple(
        tuple(sorted(draw(st.lists(prob, min_size=len(rates), max_size=len(rates)))))
        for _ in range(draw(st.integers(1, 3)))
    )
    near = sum(draw(st.lists(st.sampled_from(rates), min_size=1, max_size=4)))
    budget = draw(st.one_of(
        st.just(near), st.just(math.nextafter(near, 0.0)), st.just(math.nextafter(near, math.inf)),
        st.floats(min_value=0.01, max_value=12.0),
    ))
    model = dc.AdoptionModel(menu=dc.DiscountMenu(rates=rates), probs=rows)
    return model, dc.BudgetSpec(budget=budget, mode=draw(st.sampled_from(["hard", "soft"])))


@given(ledger_cases())
@settings(max_examples=60, deadline=None)
def test_integer_ledger_decides_as_fractions(case):
    model, spec = case
    menu, budget = model.menu, spec.exact_budget
    ledger = BudgetLedger.for_spec(model, spec)
    denom = ledger.denom
    assert Fraction(ledger.budget, denom) == budget
    offers = [(v, r) for v in range(model.node_count) for r in menu.rates]
    for k in range(4):
        for bought in itertools.combinations_with_replacement(offers, k):
            spent = sum(ledger.offer(v, r) for v, r in bought)
            spent_exact = sum((exact_raise_cost(model, spec, v, r, 0.0) for v, r in bought), Fraction(0))
            assert Fraction(spent, denom) == spent_exact
            for v, rate in offers:
                for current in (0.0,) + tuple(r for r in menu.rates if r < rate):
                    inc = ledger.raise_cost(v, rate, current)
                    inc_exact = exact_raise_cost(model, spec, v, rate, current)
                    assert (spent + inc <= ledger.budget) == (spent_exact + inc_exact <= budget)
                    assert inc / denom == float(inc_exact)

    # Adaptive runs pay rates in full: the budget left and the delivered cost.
    rates = BudgetLedger(menu, spec)
    for k in range(4):
        for bought in itertools.combinations_with_replacement(menu.rates, k):
            left = rates.budget - sum(rates.rate_units[r] for r in bought)
            left_exact = budget - sum((menu.exact[r] for r in bought), Fraction(0))
            assert Fraction(left, rates.denom) == left_exact
            assert (rates.budget - left) / rates.denom == float(budget - left_exact)
            for r in menu.rates:
                assert (rates.rate_units[r] <= left) == (menu.exact[r] <= left_exact)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_objective_is_monotone_and_submodular(seed):
    inst, _ = tiny_instance(seed % 50)
    rng = np.random.default_rng(seed)
    pairs = inst.all_pairs()
    ev = dc.ExactEvaluator(inst)
    small = dc.Configuration.of(*(pairs[i] for i in rng.choice(len(pairs), 1)))
    extra = pairs[int(rng.integers(0, len(pairs)))]
    big = small.add(pairs[int(rng.integers(0, len(pairs)))])
    f_small, f_big = ev.value(small), ev.value(big)
    assert f_big >= f_small - 1e-9
    gain_small = ev.value(small.add(extra)) - f_small
    gain_big = ev.value(big.add(extra)) - f_big
    assert gain_small >= gain_big - 1e-9
