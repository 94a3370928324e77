"""The benchmark's three workloads: inputs, solve calls and answer checks.

Every input comes from the workload seed. Seed 0 builds the exact
instances named in each workload's docstring. Seed s > 0 relabels
those instances: node ids follow a seed-drawn permutation and edges a
seed-drawn order, and the solver's random streams are drawn from s.
The problem stays the same up to node names, so a solve does the same
amount of work on every seed, while every id-keyed random substream,
every tie-break by node id and every file differs. Fresh random
instances would not do: on the two small-instance workloads a fresh
draw changes the solve time by a factor of up to six.

Each workload writes its instances to files before anything is timed;
set-up loads them back with ``Instance.from_files`` and builds
evaluators or policy factories; the solve is the work a user waits for.
The package is imported from the checkout's ``src/`` by ``run.py``
before this module is imported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import discountcast as dc
from discountcast.rng import as_stream, child

GREEDY_FACTOR = 0.5 * (1.0 - 1.0 / math.e)  # criterion 6: upfront greedy vs optimum
EXACT_TOL = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def tiny_instance(seed: int) -> tuple[dc.Instance, dc.BudgetSpec]:
    """The test suite's tiny-instance recipe, copied so the benchmark never imports tests.

    At most 5 nodes, 6 edges and 2 menu rates; the budget lands between
    the top rate and roughly twice it.
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


def derived_seed(seed: int, *key: int) -> int:
    """A 32-bit instance seed addressed by (workload seed, key)."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def relabel(instance: dc.Instance, seed: int, *key: int) -> dc.Instance:
    """The same instance under a seed-drawn node permutation and edge order; seed 0 keeps it."""
    if seed == 0:
        return instance
    graph, model = instance.graph, instance.model
    rng = np.random.default_rng(derived_seed(seed, *key))
    perm = rng.permutation(graph.node_count).tolist()
    edges = [dc.Edge(perm[e.src], perm[e.dst], e.prob) for e in graph.edges]
    edges = [edges[i] for i in rng.permutation(len(edges)).tolist()]
    probs = [None] * graph.node_count
    for v, row in enumerate(model.probs):
        probs[perm[v]] = row
    return dc.Instance(
        graph=dc.SocialGraph(node_count=graph.node_count, labels=graph.labels, edges=tuple(edges)),
        model=dc.AdoptionModel(menu=model.menu, probs=tuple(probs)),
    )


def exact_cost(config: dc.Configuration, menu: dc.DiscountMenu) -> Fraction:
    """Hard-budget cost of a configuration, in exact rationals."""
    return sum((menu.exact[r] for r in config.effective_map.values()), Fraction(0))


def trajectory_cost(record, menu: dc.DiscountMenu) -> Fraction:
    """Exact rates committed by the accepted probes of one trajectory."""
    return sum((menu.exact[p.pair.rate] for p in record.probes if p.accepted), Fraction(0))


def within(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * abs(ref)


@dataclass(frozen=True)
class LoadedInstance:
    """One instance as written to disk: files plus the parameters they do not hold."""

    graph: Path
    adoption: Path
    rates: tuple[float, ...]
    budget: float

    @classmethod
    def write(cls, instance: dc.Instance, spec: dc.BudgetSpec, out_dir: Path) -> "LoadedInstance":
        files = dc.write_instance(instance, out_dir)
        return cls(Path(files["graph"]), Path(files["adoption"]), instance.menu.rates, spec.budget)

    def load(self) -> tuple[dc.Instance, dc.BudgetSpec]:
        inst = dc.Instance.from_files(self.graph, self.adoption, dc.DiscountMenu(rates=self.rates))
        return inst, dc.BudgetSpec(budget=self.budget, mode="hard")


class Workload:
    """Interface shared by the workloads; `run.py` drives these five steps.

    generate() writes the inputs, untimed and in a process of its own;
    the attributes it sets travel with the workload object to the
    measuring process. setup() returns prepared state (timed as
    setup_s); solve(prepared) returns the answer (timed as solve_s);
    influence(answer) and checks(answer, influence, reference) run
    outside every timed region.
    """

    name = ""
    uses_pool = False
    # Whether reference.json keeps this workload's answers per seed, or one
    # entry for every seed (when a seed only relabels the same problems and
    # the answers are exact).
    reference_per_seed = True

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir

    def answers(self, answer) -> dict:
        """What the solve computed, as plain data, compared between the traced
        and untraced passes."""
        raise NotImplementedError


class NonAdaptive10k(Workload):
    """Hill climbing with Monte Carlo estimates on a 10,000-node graph.

    Seed 0: random_instance(10_000, 5/9_999, 424242, rates=(0.5, 1.0)),
    hard budget 3.0, MCEvaluator(samples=200, stream=5). Seed s relabels
    the graph and uses evaluator stream 5 + s. At 200 samples a solve
    takes about 10 s, so every 30-second run measures two solves; at 300
    samples a run in one of the host's slow phases would fit only one.
    """

    name = "nonadaptive-10k"
    SIZES = {"full": (10_000, 200, 20_000), "toy": (300, 100, 2_000)}  # nodes, samples, re-score samples
    # Re-scored influence vs the recorded reference. Other MC draws pick
    # other near-tied nodes: over seeds 0-19 the re-score spans 8.30-9.12.
    REL_TOL = 0.15
    # The solver's own estimate of its allocation vs the re-score. Greedy keeps
    # the offers whose noisy estimates came out high, so the estimate runs
    # high: by 2-8% over seeds 0-19 (by 3-12% at 100 samples).
    ESTIMATE_TOL = 0.15

    def generate(self) -> None:
        nodes, self.samples, self.rescore_samples = self.SIZES[self.size]
        inst = relabel(dc.random_instance(nodes, 5 / (nodes - 1), 424242, rates=(0.5, 1.0)), self.seed)
        self.spec = dc.BudgetSpec(budget=3.0, mode="hard")
        self.files = LoadedInstance.write(inst, self.spec, self.workdir)

    def setup(self):
        inst, spec = self.files.load()
        return inst, spec, dc.MCEvaluator(inst, samples=self.samples, stream=as_stream(5 + self.seed))

    def solve(self, prepared):
        inst, spec, evaluator = prepared
        config = dc.hill_climbing(inst, spec, evaluator)
        return inst, spec, config, evaluator.value(config)

    def influence(self, answer) -> float:
        """Re-score on a substream the solver never draws from (it uses keys 0 and 1)."""
        inst, _spec, config, _estimate = answer
        return dc.f_mc(config, inst, self.rescore_samples, child(as_stream(5 + self.seed), 2))

    def offers_kept(self, answer) -> int:
        return len(answer[2].effective_map)

    def answers(self, answer) -> dict:
        _inst, _spec, config, estimate = answer
        return {
            "estimate": estimate,
            "allocation": [[v, r] for v, r in sorted(config.effective_map.items())],
        }

    def checks(self, answer, influence, reference) -> list[Check]:
        inst, spec, config, estimate = answer
        menu = inst.menu
        cost = exact_cost(config, menu)
        out = [
            Check("allocation.nonempty", bool(config.effective_map)),
            Check("allocation.on_menu", all(r in menu.exact for r in config.effective_map.values())),
            Check("allocation.budget", cost <= spec.exact_budget, f"cost {cost} budget {spec.exact_budget}"),
            Check("allocation.config_cost", dc.config_cost(config, inst.model, spec) <= spec.budget),
            Check("influence.vs_estimate", within(estimate, influence, self.ESTIMATE_TOL),
                  f"estimate {estimate} re-score {influence}"),
        ]
        if reference is not None:
            out.append(Check("influence.reference", within(influence, reference["influence"], self.REL_TOL),
                             f"{influence} vs {reference['influence']}"))
        return out


@dataclass(frozen=True)
class ExactAnswer:
    oracle: float
    greedy: float
    enhanced: float
    hill: float
    hill_config: dc.Configuration
    brute: float
    brute_config: dc.Configuration


class AdaptiveExact(Workload):
    """The criterion-7 instances run through every exact routine.

    Seed 0: tiny_instance(200..211); seed s relabels each of them.
    """

    name = "adaptive-exact"
    reference_per_seed = False
    SIZES = {"full": 12, "toy": 2}
    REPLAYS = 20  # sampled trajectories per policy and instance for the budget audit

    def generate(self) -> None:
        self.files = []
        for i in range(self.SIZES[self.size]):
            inst, spec = tiny_instance(200 + i)
            self.files.append(LoadedInstance.write(relabel(inst, self.seed, i), spec, self.workdir / f"inst{i:02d}"))

    def setup(self):
        prepared = []
        for files in self.files:
            inst, spec = files.load()
            prepared.append((inst, spec, dc.GreedyFactory(inst, spec), dc.EnhancedFactory(inst, spec),
                             dc.ExactEvaluator(inst)))
        return prepared

    def solve(self, prepared):
        out = []
        for inst, spec, greedy, enhanced, evaluator in prepared:
            oracle = dc.optimal_policy_oracle(inst, spec)
            g, _ = dc.evaluate_policy(greedy, inst, spec, "exhaustive", stream=0)
            e, _ = dc.evaluate_policy(enhanced, inst, spec, "exhaustive", stream=0)
            hill_config = dc.hill_climbing(inst, spec, evaluator)
            brute_config, brute = dc.brute_force_config(inst, spec)
            out.append((inst, spec, ExactAnswer(oracle, g, e, evaluator.value(hill_config), hill_config,
                                                brute, brute_config)))
        return out

    def influence(self, answer) -> float:
        return sum(a.greedy + a.enhanced for _inst, _spec, a in answer)

    def offers_kept(self, answer) -> int:
        return sum(len(a.hill_config.effective_map) for _inst, _spec, a in answer)

    def answers(self, answer) -> dict:
        return {"values": [[a.oracle, a.greedy, a.enhanced, a.hill, a.brute] for _i, _s, a in answer]}

    def checks(self, answer, influence, reference) -> list[Check]:
        out = []
        for i, (inst, spec, a) in enumerate(answer):
            tag = f"inst{i:02d}"
            b, d_max = spec.budget, inst.menu.d_max
            g_bound = 1.0 - math.exp(-(b - d_max) / b)
            vstar = max(range(inst.graph.node_count), key=lambda v: (dc.spread_exact(inst.graph, [v]), -v))
            e_bound = inst.model.probs[vstar][-1] * (1.0 - 1.0 / math.e) / 2.0
            out += [
                Check(f"{tag}.greedy_le_oracle", a.greedy <= a.oracle + EXACT_TOL),
                Check(f"{tag}.enhanced_le_oracle", a.enhanced <= a.oracle + EXACT_TOL),
                Check(f"{tag}.criterion7_greedy", a.greedy >= g_bound * a.oracle - EXACT_TOL,
                      f"{a.greedy} vs {g_bound} x {a.oracle}"),
                Check(f"{tag}.criterion7_enhanced", a.enhanced >= e_bound * a.oracle - EXACT_TOL,
                      f"{a.enhanced} vs {e_bound} x {a.oracle}"),
                Check(f"{tag}.criterion6", a.hill >= GREEDY_FACTOR * a.brute - EXACT_TOL and
                      a.hill <= a.brute + EXACT_TOL, f"{a.hill} vs optimum {a.brute}"),
                Check(f"{tag}.hill_budget", exact_cost(a.hill_config, inst.menu) <= spec.exact_budget),
                Check(f"{tag}.brute_budget", exact_cost(a.brute_config, inst.menu) <= spec.exact_budget),
                Check(f"{tag}.trajectory_budget", self._replays_within_budget(inst, spec, i)),
            ]
            if reference is not None:
                ref = reference["values"][i]
                got = [a.oracle, a.greedy, a.enhanced, a.hill, a.brute]
                out.append(Check(f"{tag}.reference", all(abs(x - y) <= EXACT_TOL for x, y in zip(got, ref)),
                                 f"{got} vs {ref}"))
        return out

    def _replays_within_budget(self, inst, spec, i) -> bool:
        root = as_stream(derived_seed(self.seed, 7000 + i))
        policies = [dc.GreedyFactory(inst, spec)(as_stream(0)), dc.EnhancedFactory(inst, spec)(as_stream(0))]
        for t in range(self.REPLAYS):
            real = dc.sample_realization(inst, child(root, t))
            for policy in policies:
                record = dc.run_policy(policy, inst, spec, real)
                if trajectory_cost(record, inst.menu) > spec.exact_budget:
                    return False
        return True


class AdaptiveSampled(Workload):
    """The iterated policy evaluated by sampling, on a process pool.

    Seed 0: random_instance(60, 3/59, 7, rates=(0.1, 0.5)), hard budget
    0.6, IteratedFactory with the MC estimator at 200 samples and the
    rollout branch at 10 rollouts, evaluate_policy over 256 trials on
    stream 0. Seed s relabels the graph and evaluates on stream s.
    """

    name = "adaptive-sampled"
    uses_pool = True
    SIZES = {"full": (60, 256, 200, 10), "toy": (20, 128, 30, 2)}  # nodes, trials, samples, rollouts
    # Sampled value vs the recorded reference: about seven standard errors
    # of a 256-trial mean (per-trial standard deviation 1.40 at seed 0).
    REL_TOL = 0.10
    REPLAYS = 4

    def generate(self) -> None:
        nodes, self.trials, samples, rollouts = self.SIZES[self.size]
        inst = relabel(dc.random_instance(nodes, 3 / (nodes - 1), 7, rates=(0.1, 0.5)), self.seed)
        self.spec = dc.BudgetSpec(budget=0.6, mode="hard")
        self.estimator = dc.EstimatorConfig(mode="mc", samples=samples)
        self.branch = dc.BranchConfig(mode="rollouts", rollouts=rollouts)
        self.files = LoadedInstance.write(inst, self.spec, self.workdir)

    def setup(self):
        inst, spec = self.files.load()
        return inst, spec, dc.IteratedFactory(inst, spec, self.estimator, self.branch)

    def solve(self, prepared, workers=2):
        inst, spec, factory = prepared
        value, _radius = dc.evaluate_policy(factory, inst, spec, self.trials, stream=self.seed, workers=workers)
        return inst, spec, factory, value

    def influence(self, answer) -> float:
        return answer[3]

    def offers_kept(self, answer) -> int:
        return 0

    def answers(self, answer) -> dict:
        return {"value": answer[3]}

    def checks(self, answer, influence, reference) -> list[Check]:
        inst, spec, factory, value = answer
        n = inst.graph.node_count
        root = as_stream(derived_seed(self.seed, 9000))
        policy = factory(child(root, 0))
        within_budget = True
        for t in range(self.REPLAYS):
            record = dc.run_policy(policy, inst, spec, dc.sample_realization(inst, child(root, 1, t)))
            within_budget &= trajectory_cost(record, inst.menu) <= spec.exact_budget
        out = [
            Check("value.range", 0.0 < value <= n, f"{value} of {n} nodes"),
            Check("trajectory_budget", within_budget),
        ]
        if reference is not None:
            out.append(Check("value.reference", within(value, reference["value"], self.REL_TOL),
                             f"{value} vs {reference['value']}"))
        return out


WORKLOADS = {w.name: w for w in (NonAdaptive10k, AdaptiveExact, AdaptiveSampled)}
