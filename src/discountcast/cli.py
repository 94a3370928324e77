"""Command-line harness: generate instances, run allocators, emit JSON reports.

Every run prints one JSON report (and writes it to --out when given)
echoing enough configuration to reproduce it: algorithm, instance
paths, menu, budget, sample counts, and the master seed. With a fixed
seed, reports are byte-identical across runs and worker counts except
for the wall_time_s field.

Each option declares its default, type and range once, in its click
declaration. A JSON config file given with --config becomes the
command's default map: click converts and checks its values exactly
as if they were typed after their flags, explicit flags win, and a
null value leaves its option unset.
"""
from __future__ import annotations

import csv
import functools
import json
import time
from pathlib import Path

import click

from . import __version__
from .adaptive import (
    BranchConfig,
    EnhancedFactory,
    EstimatorConfig,
    GreedyFactory,
    IteratedFactory,
    evaluate_policy,
    optimal_policy_oracle,
    run_policy,
)
from .cascade import load_realization, sample_realization, write_realization
from .errors import (
    ParseError,
    PolicyContractError,
    TooLargeError,
    ValidationError,
)
from .generators import (
    fig1_instance,
    fig2_realization,
    random_instance,
    worstcase_instance,
    write_instance,
)
from .graph import Instance
from .nonadaptive import (
    BudgetSpec,
    ExactEvaluator,
    MCEvaluator,
    brute_force_config,
    config_cost,
    hill_climbing,
)
from .rng import as_stream, child

_NONADAPTIVE_ALGOS = ("nonadaptive-greedy", "brute-config")
_ADAPTIVE_ALGOS = ("adaptive-greedy", "enhanced", "iterated")
_POLICY_KEYS = ("estimator", "samples", "branch", "rollouts")


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except FileNotFoundError as exc:
            raise click.ClickException(f"missing file: {exc.filename or exc}") from exc
        except (ParseError, ValidationError, TooLargeError, PolicyContractError,
                ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc
    return wrapper


def _load_config(ctx: click.Context, param: click.Parameter, fh) -> None:
    """Make a JSON config file's values the defaults of the command's options."""
    if fh is None:
        return
    try:
        raw = json.load(fh)
    except ValueError as exc:
        raise click.BadParameter(str(exc), ctx, param) from exc
    if not isinstance(raw, dict):
        raise click.BadParameter("config file must hold a JSON object", ctx, param)
    names = {p.name for p in ctx.command.params} - {param.name}
    for key in raw:
        if key.replace("-", "_") not in names:
            raise click.BadParameter(f"unknown config key: {key}", ctx, param)
    # A null in the default map would count as a value given; null means unset.
    ctx.default_map = {key.replace("-", "_"): val for key, val in raw.items() if val is not None}


class _Rates(click.ParamType):
    """Menu rates: '1,2' on the command line, or a JSON list in a config file."""

    name = "rates"

    def convert(self, value, param, ctx):
        parts = value if isinstance(value, (list, tuple)) else [s for s in str(value).split(",") if s.strip()]
        try:
            return tuple(float(x) for x in parts)
        except (TypeError, ValueError):
            self.fail(f"{value!r} is not a comma-separated list of rates.", param, ctx)


def _require(params: dict, *keys: str) -> None:
    for key in keys:
        if params[key] is None:
            flag = key.replace("_", "-")
            raise ValidationError(f"missing required option --{flag} (or config key {key!r})")


def _load_instance(params: dict) -> tuple[Instance, BudgetSpec, dict]:
    """The instance, its budget and their report fields."""
    instance = Instance.from_files(params["graph"], params["adoption"], params["discounts"])
    spec = BudgetSpec(budget=params["budget"], mode=params["mode"])
    echo = {
        "graph": str(params["graph"]),
        "adoption": str(params["adoption"]),
        "discounts": list(instance.menu.rates),
        "budget": spec.budget,
        "mode": spec.mode,
    }
    return instance, spec, echo


def _emit(report: dict, out, start: float) -> None:
    report = {**report, "version": __version__, "wall_time_s": time.perf_counter() - start}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    click.echo(text, nl=False)


def _policy_factory(algorithm: str, instance: Instance, spec: BudgetSpec, params: dict):
    estimator = EstimatorConfig(mode=params["estimator"], samples=params["samples"])
    if algorithm == "adaptive-greedy":
        return GreedyFactory(instance, spec, estimator)
    factory = EnhancedFactory if algorithm == "enhanced" else IteratedFactory
    return factory(instance, spec, estimator, BranchConfig(mode=params["branch"], rollouts=params["rollouts"]))


def _add_options(options):
    def deco(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return deco


_config_option = click.option(
    "--config", type=click.File(), is_eager=True, expose_value=False, callback=_load_config,
    help="JSON object of option values; explicit flags win",
)
_instance_options = [
    click.option("--graph", type=click.Path(), required=True, help="edge list file"),
    click.option("--adoption", type=click.Path(), required=True, help="adoption probability file"),
    click.option("--discounts", type=_Rates(), required=True, help="comma-separated menu rates, e.g. '1,2'"),
    click.option("--budget", type=float, required=True),
    click.option("--mode", type=click.Choice(["hard", "soft"]), default="hard",
                 help="budget counts committed rates (hard) or expected payout (soft)"),
]
_policy_options = [
    click.option("--estimator", type=click.Choice(["exact", "mc"]), default=EstimatorConfig.mode),
    click.option("--samples", type=click.IntRange(min=1), default=EstimatorConfig.samples,
                 help="cascade samples per estimate (mc)"),
    click.option("--branch", type=click.Choice(["exhaustive", "rollouts"]), default=BranchConfig.mode),
    click.option("--rollouts", type=click.IntRange(min=1), default=BranchConfig.rollouts),
]
_report_options = [click.option("--out", type=click.Path(), help="report path"), _config_option]
_run_options = [click.option("--seed", type=int, default=0), *_report_options]


@click.group(context_settings={"show_default": True})
@click.version_option(version=__version__, prog_name="discountcast")
def main():
    """Discount allocation experiments on influence networks."""


@main.command()
@click.option("--name", type=click.Choice(["fig1", "fig2", "worstcase", "random"]), required=True)
@click.option("--nodes", type=int)
@click.option("--edge-prob", type=float)
@click.option("--discounts", type=_Rates(), help="menu rates for random instances")
@click.option("--prob-lo", type=float)
@click.option("--prob-hi", type=float)
@click.option("--accept-lo", type=float)
@click.option("--accept-hi", type=float)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), required=True, help="output directory")
@_config_option
@_guarded
def generate(name, seed, out, **params):
    """Write a named or random instance as graph and adoption files."""
    start = time.perf_counter()
    out_dir = Path(out)
    if name in ("fig1", "fig2"):
        instance = fig1_instance()
    elif name == "worstcase":
        _require(params, "nodes")
        instance = worstcase_instance(params["nodes"])
    else:
        _require(params, "nodes", "edge_prob")
        kwargs = {}
        if params["discounts"] is not None:
            kwargs["rates"] = params["discounts"]
        if params["prob_lo"] is not None or params["prob_hi"] is not None:
            _require(params, "prob_lo", "prob_hi")
            kwargs["prob_range"] = (params["prob_lo"], params["prob_hi"])
        if params["accept_lo"] is not None or params["accept_hi"] is not None:
            _require(params, "accept_lo", "accept_hi")
            kwargs["accept_range"] = (params["accept_lo"], params["accept_hi"])
        instance = random_instance(params["nodes"], params["edge_prob"], seed, **kwargs)
    files = write_instance(instance, out_dir)
    discounts = files.pop("discounts")
    if name == "fig2":
        realization_path = out_dir / "realization.txt"
        write_realization(realization_path, instance, fig2_realization(instance))
        files["realization"] = str(realization_path)
    report = {
        "command": "generate",
        "name": name,
        "nodes": instance.graph.node_count,
        "edges": len(instance.graph.src),
        "files": files,
        "discounts": discounts,
        "master_seed": seed,
    }
    _emit(report, None, start)


@main.command()
@_add_options(_instance_options)
@click.option("--algorithm", type=click.Choice(_NONADAPTIVE_ALGOS), default="nonadaptive-greedy")
@click.option("--evaluator", type=click.Choice(["exact", "mc"]), default="exact")
@click.option("--samples", type=click.IntRange(min=1), default=1000, help="cascade samples per estimate (mc)")
@click.option("--gain-rule", type=click.Choice(["marginal", "total"]), default="marginal")
@_add_options(_run_options)
@_guarded
def nonadaptive(algorithm, evaluator, samples, gain_rule, seed, out, **params):
    """Choose a discount configuration up front and report its value."""
    start = time.perf_counter()
    instance, spec, echo = _load_instance(params)
    if evaluator == "exact":
        scorer = ExactEvaluator(instance)
    else:
        scorer = MCEvaluator(instance, samples=samples, stream=child(as_stream(seed), 0))
    if algorithm == "nonadaptive-greedy":
        chosen = hill_climbing(instance, spec, scorer, gain_rule=gain_rule)
        value = scorer.value(chosen)
    else:
        if evaluator != "exact":
            raise ValidationError("brute-config enumerates with the exact evaluator; drop --evaluator mc")
        chosen, value = brute_force_config(instance, spec)
    effective = chosen.normalized()
    labels = instance.graph.labels
    report = {
        "command": "nonadaptive",
        "algorithm": algorithm,
        **echo,
        "evaluator": evaluator,
        "samples": samples,
        "gain_rule": gain_rule,
        "allocation": [[labels[p.node], p.rate] for p in effective.sorted_pairs()],
        "cost": config_cost(effective, instance.model, spec),
        "value": value,
        "radius": scorer.radius(),
        "master_seed": seed,
    }
    _emit(report, out, start)


def _write_trajectory_csv(path, instance: Instance, record) -> None:
    labels = instance.graph.labels
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["probe", "node", "rate", "accepted", "newly_influenced", "revealed_edges"])
        for i, rec in enumerate(record.probes, 1):
            newly = ";".join(labels[v] for v in rec.newly_influenced)
            revealed = ";".join(rec.revealed_text(instance.graph))
            writer.writerow([i, labels[rec.pair.node], rec.pair.rate, int(rec.accepted), newly, revealed])


@main.command()
@_add_options(_instance_options)
@click.option("--algorithm", type=click.Choice(_ADAPTIVE_ALGOS), default="adaptive-greedy")
@_add_options(_policy_options)
@click.option("--realization", type=click.Path(), help="replay a stored realization instead of sampling one")
@click.option("--trajectory-csv", type=click.Path())
@_add_options(_run_options)
@_guarded
def adaptive(algorithm, realization, trajectory_csv, seed, out, **params):
    """Run one adaptive trajectory, logging every probe on stderr."""
    start = time.perf_counter()
    instance, spec, echo = _load_instance(params)
    root = as_stream(seed)
    policy = _policy_factory(algorithm, instance, spec, params)(child(root, 1))
    if realization:
        truth, realization_src = load_realization(realization, instance), str(realization)
    else:
        truth, realization_src = sample_realization(instance, child(root, 3)), "sampled"
    record = run_policy(policy, instance, spec, truth)
    for line in record.log_lines(instance.graph):
        click.echo(line, err=True)
    if trajectory_csv:
        _write_trajectory_csv(trajectory_csv, instance, record)
    labels = instance.graph.labels
    report = {
        "command": "adaptive",
        "algorithm": algorithm,
        **echo,
        **{key: params[key] for key in _POLICY_KEYS},
        "realization": realization_src,
        "probes": [
            {
                "node": labels[rec.pair.node],
                "rate": rec.pair.rate,
                "accepted": rec.accepted,
                "revealed": [list(edge) for edge in rec.revealed_edges(instance.graph)],
            }
            for rec in record.probes
        ],
        "delivered_cost": record.delivered_cost,
        "cascade_size": record.cascade_size,
        "influenced": sorted(labels[v] for v in record.influenced),
        "value": float(record.cascade_size),
        "radius": 0.0,
        "master_seed": seed,
    }
    _emit(report, out, start)


@main.command()
@_add_options(_instance_options)
@click.option("--algorithm", type=click.Choice(_ADAPTIVE_ALGOS), default="adaptive-greedy")
@click.option("--trials", type=click.IntRange(min=1), default=1000)
@click.option("--exhaustive", is_flag=True, help="enumerate every realization instead of sampling")
@click.option("--workers", type=click.IntRange(min=1), default=1)
@_add_options(_policy_options)
@_add_options(_run_options)
@_guarded
def evaluate(algorithm, trials, exhaustive, workers, seed, out, **params):
    """Estimate a policy's expected cascade size."""
    start = time.perf_counter()
    instance, spec, echo = _load_instance(params)
    trials = "exhaustive" if exhaustive else trials
    factory = _policy_factory(algorithm, instance, spec, params)
    value, radius = evaluate_policy(factory, instance, spec, trials, stream=as_stream(seed), workers=workers)
    report = {
        "command": "evaluate",
        "algorithm": algorithm,
        **echo,
        **{key: params[key] for key in _POLICY_KEYS},
        "trials": trials,
        "value": value,
        "radius": radius,
        "master_seed": seed,
    }
    _emit(report, out, start)


@main.command()
@_add_options(_instance_options)
@_add_options(_report_options)
@_guarded
def oracle(out, **params):
    """Exact optimal adaptive value on a tiny instance, by backward induction."""
    start = time.perf_counter()
    instance, spec, echo = _load_instance(params)
    value = optimal_policy_oracle(instance, spec)
    report = {"command": "oracle", "algorithm": "oracle", **echo, "value": value, "radius": 0.0, "master_seed": None}
    _emit(report, out, start)


if __name__ == "__main__":
    main()
