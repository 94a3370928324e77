"""Which discountcast boundaries the traced run wraps, and the per-layer metrics.

Each span name is ``<module>.<what>``, after the package module that
defines the function. A name is wrapped at every site it is looked up
from: the defining module (for calls inside it, such as
``evaluate_policy`` calling ``run_policy``), the modules that import it
(``nonadaptive.spread_mc``, ``adaptive.spread_mc``, ...) and the package
namespace the benchmark calls through. ``rng`` is wrapped only where
other modules import it, so ``generator`` calling ``child`` inside
``rng`` counts once. ``generators`` and ``cli`` are not wrapped:
generation happens before anything is timed, and no workload goes
through the CLI. A site a later version of the package no longer has
is skipped and listed under ``missing``.
"""
from __future__ import annotations

import weakref

from tracer import Tracer

PKG = "discountcast"

TIMED = {
    "graph.load": [("graph", "load_instance")],
    "rng": [(m, a) for m in ("cascade", "nonadaptive", "adaptive") for a in ("child", "generator")],
    "cascade.spread_mc": [("cascade", "spread_mc"), ("nonadaptive", "spread_mc"), ("adaptive", "spread_mc")],
    "cascade.spread_exact": [("cascade", "spread_exact"), ("nonadaptive", "spread_exact"),
                             ("adaptive", "spread_exact")],
    "cascade.reveal_cascade": [("adaptive", "reveal_cascade")],
    "nonadaptive.f_mc": [("nonadaptive", "f_mc")],
    "nonadaptive.f_exact": [("nonadaptive", "f_exact")],
    "nonadaptive.hill_climbing": [("nonadaptive", "hill_climbing")],
    "nonadaptive.brute_force_config": [("nonadaptive", "brute_force_config")],
    "adaptive.evaluate_policy": [("adaptive", "evaluate_policy")],
    "adaptive.run_policy": [("adaptive", "run_policy")],
    "adaptive.oracle": [("adaptive", "optimal_policy_oracle")],
    "adaptive.sample_conditional": [("adaptive", "sample_conditional_realization")],
}
FACTORIES = ("GreedyFactory", "EnhancedFactory", "IteratedFactory")
# The boundaries the time shares are taken from. The coarse pass wraps only
# these, with no counters, so that its solve time stays close to the
# untraced one: on adaptive-exact the fine pass's per-call wrappers (2.4M
# residual_spread calls) sit inside run_policy and would inflate its share.
COARSE = ("cascade.spread_mc", "adaptive.run_policy", "adaptive.evaluate_policy")


def _sites(pairs):
    """Module-qualified sites, plus the package namespace, each once."""
    out = [(f"{PKG}.{m}", a) for m, a in pairs]
    for _m, a in pairs:
        if (PKG, a) not in out:
            out.append((PKG, a))
    return out


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def install_coarse(tracer: Tracer, dc) -> list[str]:
    """Wrap only the COARSE boundaries; returns the span names that found no site."""
    return [name for name in COARSE
            if not tracer.patch_sites(_sites(TIMED[name]), lambda fn, n=name: tracer.timed(n, fn))]


def install(tracer: Tracer, dc) -> list[str]:
    """Wrap every boundary; returns the span names that found no site."""
    counts = tracer.counts
    missing = []

    def add_counts(name, fn):
        return lambda result, args, kwargs: counts.update({name: fn(result, args, kwargs)})

    after = {
        "cascade.spread_mc": add_counts("cascade.spread_mc.replicates", lambda r, a, k: _arg(a, k, 2, "samples")),
        "nonadaptive.f_mc": add_counts("nonadaptive.f_mc.replicates", lambda r, a, k: _arg(a, k, 2, "samples")),
        "adaptive.run_policy": add_counts("adaptive.probes", lambda r, a, k: len(r.probes)),
    }
    for name, pairs in TIMED.items():
        if not tracer.patch_sites(_sites(pairs), lambda fn, n=name: tracer.timed(n, fn, after.get(n))):
            missing.append(name)
    enum_sites = _sites([("adaptive", "enumerate_conditional_realizations")])
    if not tracer.patch_sites(enum_sites, lambda fn: tracer.timed_generator(
            "adaptive.enumerate", fn, "adaptive.realizations")):
        missing.append("adaptive.enumerate")

    # Cache behaviour, judged from the outside, so it stays meaningful if
    # caching moves: an estimator call is a miss when it ran the cascade
    # kernel, and an evaluator's distinct count is the number of
    # configurations it was asked about for the first time.
    calls = tracer.calls

    def residual_spread(fn):
        # Called millions of times on adaptive-exact, so kept to a few dict operations.
        def wrapper(*args, **kwargs):
            before = calls["cascade.spread_exact"] + calls["cascade.spread_mc"]
            result = fn(*args, **kwargs)
            counts["adaptive.residual_spread.calls"] += 1
            if calls["cascade.spread_exact"] + calls["cascade.spread_mc"] != before:
                counts["adaptive.residual_spread.misses"] += 1
            return result

        return wrapper

    seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def first_time(obj, key) -> bool:
        keys = seen.setdefault(obj, set())
        if key in keys:
            return False
        keys.add(key)
        return True

    def value(result, args, kwargs):
        evaluator, config = args[0], _arg(args, kwargs, 1, "config")
        eff = config.effective_map
        counts["nonadaptive.value.calls"] += 1
        counts["nonadaptive.value.distinct"] += first_time(evaluator, tuple(sorted(eff.items())))
        counts["nonadaptive.value.multi_offer"] += len(eff) >= 2

    def factory_call(result, args, kwargs):
        counts["adaptive.policy_builds"] += 1

    # A branch estimate that neither enumerates nor samples came from the memo.
    def branch(fn):
        timed = tracer.timed("adaptive.branch", fn)

        def wrapper(*args, **kwargs):
            before = calls["adaptive.enumerate"] + calls["adaptive.sample_conditional"]
            result = timed(*args, **kwargs)
            counts["adaptive.branch.hits"] += calls["adaptive.enumerate"] + calls["adaptive.sample_conditional"] == before
            return result

        return wrapper

    methods = [("SpreadEstimator", "residual_spread", residual_spread),
               ("BranchEstimator", "greedy_value_from", branch)]
    methods += [(cls, "value", lambda fn: tracer.counted(fn, value)) for cls in ("MCEvaluator", "ExactEvaluator")]
    methods += [(cls, "__call__", lambda fn: tracer.counted(fn, factory_call)) for cls in FACTORIES]
    for cls_name, attr, make in methods:
        owner = getattr(dc, cls_name, None)
        if owner is None or attr not in owner.__dict__:
            missing.append(f"{cls_name}.{attr}")
            continue
        tracer.patch(owner, attr, make)
    return missing


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tr: Tracer, offers_kept: int, coarse: Tracer, coarse_solve_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as name -> (value, unit): the time shares from the
    coarse pass, everything else from the fine pass `tr`."""
    c, t, s, n = tr.calls, tr.total_s, tr.self_s, tr.counts
    mc_reps = n["cascade.spread_mc.replicates"]
    value_calls = n["nonadaptive.value.calls"]
    rs_calls = n["adaptive.residual_spread.calls"]
    return {
        "graph.load_s": (t["graph.load"], "s"),
        "rng.streams": (c["rng"], "count"),
        "rng.s": (t["rng"], "s"),
        "cascade.spread_mc.calls": (c["cascade.spread_mc"], "count"),
        "cascade.spread_mc.s": (t["cascade.spread_mc"], "s"),
        "cascade.spread_mc.replicates": (mc_reps, "count"),
        "cascade.spread_mc.us_per_replicate": (_ratio(t["cascade.spread_mc"] * 1e6, mc_reps), "us"),
        "cascade.spread_mc.share": (_ratio(coarse.total_s["cascade.spread_mc"], coarse_solve_s), "ratio"),
        "cascade.spread_exact.calls": (c["cascade.spread_exact"], "count"),
        "cascade.spread_exact.s": (t["cascade.spread_exact"], "s"),
        "cascade.reveal_cascade.calls": (c["cascade.reveal_cascade"], "count"),
        "cascade.reveal_cascade.s": (t["cascade.reveal_cascade"], "s"),
        "nonadaptive.value.calls": (value_calls, "count"),
        "nonadaptive.value.distinct": (n["nonadaptive.value.distinct"], "count"),
        "nonadaptive.value.hit_ratio": (_ratio(value_calls - n["nonadaptive.value.distinct"], value_calls), "ratio"),
        "nonadaptive.f_mc.calls": (c["nonadaptive.f_mc"], "count"),
        "nonadaptive.f_mc.s": (t["nonadaptive.f_mc"], "s"),
        "nonadaptive.f_mc.replicates": (n["nonadaptive.f_mc.replicates"], "count"),
        "nonadaptive.hill_climbing.self_s": (s["nonadaptive.hill_climbing"], "s"),
        "nonadaptive.greedy.accept_ratio": (_ratio(offers_kept, n["nonadaptive.value.multi_offer"]), "ratio"),
        "nonadaptive.f_exact.s": (t["nonadaptive.f_exact"], "s"),
        "nonadaptive.brute_force_config.s": (t["nonadaptive.brute_force_config"], "s"),
        "adaptive.trajectories": (c["adaptive.run_policy"], "count"),
        "adaptive.run_policy.s": (t["adaptive.run_policy"], "s"),
        "adaptive.run_policy.share": (_ratio(coarse.total_s["adaptive.run_policy"], coarse_solve_s), "ratio"),
        "adaptive.probes": (n["adaptive.probes"], "count"),
        "adaptive.realizations": (n["adaptive.realizations"], "count"),
        "adaptive.enumerate.s": (t["adaptive.enumerate"], "s"),
        "adaptive.residual_spread.calls": (rs_calls, "count"),
        "adaptive.residual_spread.misses": (n["adaptive.residual_spread.misses"], "count"),
        "adaptive.residual_spread.hit_ratio": (
            _ratio(rs_calls - n["adaptive.residual_spread.misses"], rs_calls), "ratio"),
        "adaptive.branch.calls": (c["adaptive.branch"], "count"),
        "adaptive.branch.s": (t["adaptive.branch"], "s"),
        "adaptive.branch.hit_ratio": (_ratio(n["adaptive.branch.hits"], c["adaptive.branch"]), "ratio"),
        "adaptive.oracle.s": (t["adaptive.oracle"], "s"),
        "adaptive.sample_conditional.calls": (c["adaptive.sample_conditional"], "count"),
        "adaptive.sample_conditional.s": (t["adaptive.sample_conditional"], "s"),
        "adaptive.policy_builds": (n["adaptive.policy_builds"], "count"),
    }


# Work counts that repeat exactly for a fixed seed and code; two sets of
# runs are compared on these for equality, not within a bound.
EXACT_COUNTS = (
    "adaptive.trajectories",
    "adaptive.realizations",
    "adaptive.probes",
    "cascade.spread_mc.calls",
    "cascade.spread_mc.replicates",
    "cascade.spread_exact.calls",
    "nonadaptive.f_mc.calls",
    "adaptive.residual_spread.calls",
    "adaptive.policy_builds",
)
