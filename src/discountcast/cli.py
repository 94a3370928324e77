"""Command-line harness: generate instances, run allocators, emit JSON reports.

Every run prints one JSON report (and writes it to --out when given)
echoing enough configuration to reproduce it: algorithm, instance
paths, menu, budget, sample counts, and the master seed. With a fixed
seed, reports are byte-identical across runs and worker counts except
for the wall_time_s field. Options may also come from a JSON config
file via --config; explicit flags win over file values.
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


def _with_config(params: dict, config_path) -> dict:
    """Fill unset options from a JSON config file; explicit flags win.

    A file value passes through its option's click type as if it were
    typed after the flag. Choices are left to the commands, which name
    what is unknown, and a list stays a list (`discounts` may be one).
    """
    merged = dict(params)
    if not config_path:
        return merged
    raw = json.loads(Path(config_path).read_text())
    if not isinstance(raw, dict):
        raise ValidationError("config file must hold a JSON object")
    ctx = click.get_current_context()
    options = {p.name: p for p in ctx.command.params}
    for key, val in raw.items():
        name = key.replace("-", "_")
        if name not in merged:
            raise ValidationError(f"unknown config key: {key}")
        if merged[name] is None or merged[name] is False:
            param = options[name]
            if val is not None and not isinstance(val, list) and not isinstance(param.type, click.Choice):
                try:
                    val = param.type.convert(str(val), param, ctx)
                except click.BadParameter as exc:
                    raise ValidationError(f"config key {key}: {exc.message}") from exc
            merged[name] = val
    return merged


def _require(params: dict, *keys: str) -> None:
    for key in keys:
        if params[key] is None:
            flag = key.replace("_", "-")
            raise ValidationError(f"missing required option --{flag} (or config key {key!r})")


def _parse_discounts(value) -> tuple[float, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(float(x) for x in value)
    return tuple(float(part) for part in str(value).split(",") if part.strip())


def _load_instance(params: dict) -> tuple[Instance, BudgetSpec]:
    _require(params, "graph", "adoption", "discounts", "budget")
    rates = _parse_discounts(params["discounts"])
    instance = Instance.from_files(params["graph"], params["adoption"], rates)
    spec = BudgetSpec(budget=float(params["budget"]), mode=params["mode"] or "hard")
    return instance, spec


def _instance_echo(params: dict, instance: Instance, spec: BudgetSpec) -> dict:
    return {
        "graph": str(params["graph"]),
        "adoption": str(params["adoption"]),
        "discounts": list(instance.menu.rates),
        "budget": spec.budget,
        "mode": spec.mode,
    }


def _emit(report: dict, out) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    click.echo(text, nl=False)


def _policy_factory(algorithm: str, instance: Instance, spec: BudgetSpec,
                    estimator: EstimatorConfig, branch: BranchConfig):
    if algorithm == "adaptive-greedy":
        return GreedyFactory(instance, spec, estimator)
    if algorithm == "enhanced":
        return EnhancedFactory(instance, spec, estimator, branch)
    if algorithm == "iterated":
        return IteratedFactory(instance, spec, estimator, branch)
    raise ValidationError(f"unknown adaptive algorithm: {algorithm}")


def _estimator_options(params: dict) -> tuple[EstimatorConfig, BranchConfig]:
    est = EstimatorConfig(
        mode=params["estimator"] or "exact",
        samples=params["samples"] if params["samples"] is not None else 1000,
    )
    if est.samples < 1:
        raise ValidationError("--samples must be at least 1")
    branch = BranchConfig(
        mode=params["branch"] or "exhaustive",
        rollouts=params["rollouts"] if params["rollouts"] is not None else 1000,
    )
    return est, branch


_instance_options = [
    click.option("--graph", type=click.Path(), default=None, help="edge list file"),
    click.option("--adoption", type=click.Path(), default=None, help="adoption probability file"),
    click.option("--discounts", default=None, help="comma-separated menu rates, e.g. '1,2'"),
    click.option("--budget", type=float, default=None),
    click.option("--mode", type=click.Choice(["hard", "soft"]), default=None,
                 help="budget counts committed rates (hard) or expected payout (soft)"),
]


def _add_options(options):
    def deco(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return deco


@click.group()
@click.version_option(version=__version__, prog_name="discountcast")
def main():
    """Discount allocation experiments on influence networks."""


@main.command()
@click.option("--name", type=click.Choice(["fig1", "fig2", "worstcase", "random"]), default=None)
@click.option("--nodes", type=int, default=None)
@click.option("--edge-prob", type=float, default=None)
@click.option("--discounts", default=None, help="menu rates for random instances")
@click.option("--prob-lo", type=float, default=None)
@click.option("--prob-hi", type=float, default=None)
@click.option("--accept-lo", type=float, default=None)
@click.option("--accept-hi", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None, help="output directory")
@click.option("--config", "config_path", type=click.Path(), default=None)
@_guarded
def generate(**params):
    """Write a named or random instance as graph and adoption files."""
    start = time.perf_counter()
    params = _with_config(params, params.pop("config_path"))
    _require(params, "name", "out")
    name = params["name"]
    seed = params["seed"] if params["seed"] is not None else 0
    out_dir = Path(params["out"])
    if name in ("fig1", "fig2"):
        instance = fig1_instance()
    elif name == "worstcase":
        _require(params, "nodes")
        instance = worstcase_instance(params["nodes"])
    else:
        _require(params, "nodes", "edge_prob")
        kwargs = {}
        if params["discounts"] is not None:
            kwargs["rates"] = _parse_discounts(params["discounts"])
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
        "edges": len(instance.graph.edges),
        "files": files,
        "discounts": discounts,
        "master_seed": seed,
        "version": __version__,
        "wall_time_s": time.perf_counter() - start,
    }
    _emit(report, None)


@main.command()
@_add_options(_instance_options)
@click.option("--algorithm", type=click.Choice(_NONADAPTIVE_ALGOS), default=None)
@click.option("--evaluator", type=click.Choice(["exact", "mc"]), default=None)
@click.option("--samples", type=int, default=None, help="cascade samples per estimate (mc)")
@click.option("--gain-rule", type=click.Choice(["marginal", "total"]), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None, help="report path")
@click.option("--config", "config_path", type=click.Path(), default=None)
@_guarded
def nonadaptive(**params):
    """Choose a discount configuration up front and report its value."""
    start = time.perf_counter()
    params = _with_config(params, params.pop("config_path"))
    instance, spec = _load_instance(params)
    algorithm = params["algorithm"] or "nonadaptive-greedy"
    if algorithm not in _NONADAPTIVE_ALGOS:
        raise ValidationError(f"unknown algorithm: {algorithm}")
    evaluator_mode = params["evaluator"] or "exact"
    if evaluator_mode not in ("exact", "mc"):
        raise ValidationError(f"unknown evaluator: {evaluator_mode}")
    samples = params["samples"] if params["samples"] is not None else 1000
    if samples < 1:
        raise ValidationError("--samples must be at least 1")
    gain_rule = params["gain_rule"] or "marginal"
    seed = params["seed"] if params["seed"] is not None else 0
    root = as_stream(seed)
    if evaluator_mode == "exact":
        evaluator = ExactEvaluator(instance)
    else:
        evaluator = MCEvaluator(instance, samples=samples, stream=child(root, 0))
    if algorithm == "nonadaptive-greedy":
        chosen = hill_climbing(instance, spec, evaluator, gain_rule=gain_rule)
        value = evaluator.value(chosen)
    else:
        if evaluator_mode != "exact":
            raise ValidationError("brute-config enumerates with the exact evaluator; drop --evaluator mc")
        chosen, value = brute_force_config(instance, spec)
    effective = chosen.normalized()
    labels = instance.graph.labels
    report = {
        "command": "nonadaptive",
        "algorithm": algorithm,
        **_instance_echo(params, instance, spec),
        "evaluator": evaluator_mode,
        "samples": samples,
        "gain_rule": gain_rule,
        "allocation": [[labels[p.node], p.rate] for p in effective.sorted_pairs()],
        "cost": config_cost(effective, instance.model, spec),
        "value": value,
        "radius": evaluator.radius(),
        "master_seed": seed,
        "version": __version__,
        "wall_time_s": time.perf_counter() - start,
    }
    _emit(report, params["out"])


def _write_trajectory_csv(path, instance: Instance, record) -> None:
    labels = instance.graph.labels
    edges = instance.graph.edges
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["probe", "node", "rate", "accepted", "newly_influenced", "revealed_edges"])
        for i, rec in enumerate(record.probes, 1):
            revealed = ";".join(
                f"{labels[edges[e].src]}->{labels[edges[e].dst]}:{'live' if live else 'blocked'}"
                for e, live in rec.revealed
            )
            newly = ";".join(labels[v] for v in rec.newly_influenced)
            writer.writerow([i, labels[rec.pair.node], rec.pair.rate, int(rec.accepted), newly, revealed])


@main.command()
@_add_options(_instance_options)
@click.option("--algorithm", type=click.Choice(_ADAPTIVE_ALGOS), default=None)
@click.option("--estimator", type=click.Choice(["exact", "mc"]), default=None)
@click.option("--samples", type=int, default=None, help="cascade samples per estimate (mc)")
@click.option("--branch", type=click.Choice(["exhaustive", "rollouts"]), default=None)
@click.option("--rollouts", type=int, default=None)
@click.option("--realization", "realization_path", type=click.Path(), default=None,
              help="replay a stored realization instead of sampling one")
@click.option("--trajectory-csv", type=click.Path(), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None, help="report path")
@click.option("--config", "config_path", type=click.Path(), default=None)
@_guarded
def adaptive(**params):
    """Run one adaptive trajectory, logging every probe on stderr."""
    start = time.perf_counter()
    params = _with_config(params, params.pop("config_path"))
    instance, spec = _load_instance(params)
    algorithm = params["algorithm"] or "adaptive-greedy"
    est_cfg, br_cfg = _estimator_options(params)
    seed = params["seed"] if params["seed"] is not None else 0
    root = as_stream(seed)
    factory = _policy_factory(algorithm, instance, spec, est_cfg, br_cfg)
    policy = factory(child(root, 1))
    if params["realization_path"]:
        realization = load_realization(params["realization_path"], instance)
        realization_src = str(params["realization_path"])
    else:
        realization = sample_realization(instance, child(root, 3))
        realization_src = "sampled"
    record = run_policy(policy, instance, spec, realization)
    for line in record.log_lines(instance.graph):
        click.echo(line, err=True)
    if params["trajectory_csv"]:
        _write_trajectory_csv(params["trajectory_csv"], instance, record)
    labels = instance.graph.labels
    edges = instance.graph.edges
    report = {
        "command": "adaptive",
        "algorithm": algorithm,
        **_instance_echo(params, instance, spec),
        "estimator": est_cfg.mode,
        "samples": est_cfg.samples,
        "branch": br_cfg.mode,
        "rollouts": br_cfg.rollouts,
        "realization": realization_src,
        "probes": [
            {
                "node": labels[rec.pair.node],
                "rate": rec.pair.rate,
                "accepted": rec.accepted,
                "revealed": [
                    [labels[edges[e].src], labels[edges[e].dst], "live" if live else "blocked"]
                    for e, live in rec.revealed
                ],
            }
            for rec in record.probes
        ],
        "delivered_cost": record.delivered_cost,
        "cascade_size": record.cascade_size,
        "influenced": sorted(labels[v] for v in record.influenced),
        "value": float(record.cascade_size),
        "radius": 0.0,
        "master_seed": seed,
        "version": __version__,
        "wall_time_s": time.perf_counter() - start,
    }
    _emit(report, params["out"])


@main.command()
@_add_options(_instance_options)
@click.option("--algorithm", type=click.Choice(_ADAPTIVE_ALGOS), default=None)
@click.option("--trials", type=int, default=None)
@click.option("--exhaustive", is_flag=True, default=False,
              help="enumerate every realization instead of sampling")
@click.option("--workers", type=int, default=None)
@click.option("--estimator", type=click.Choice(["exact", "mc"]), default=None)
@click.option("--samples", type=int, default=None)
@click.option("--branch", type=click.Choice(["exhaustive", "rollouts"]), default=None)
@click.option("--rollouts", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None, help="report path")
@click.option("--config", "config_path", type=click.Path(), default=None)
@_guarded
def evaluate(**params):
    """Estimate a policy's expected cascade size."""
    start = time.perf_counter()
    params = _with_config(params, params.pop("config_path"))
    instance, spec = _load_instance(params)
    algorithm = params["algorithm"] or "adaptive-greedy"
    est_cfg, br_cfg = _estimator_options(params)
    seed = params["seed"] if params["seed"] is not None else 0
    workers = params["workers"] if params["workers"] is not None else 1
    if workers < 1:
        raise ValidationError("--workers must be at least 1")
    if params["exhaustive"]:
        trials = "exhaustive"
    else:
        trials = params["trials"] if params["trials"] is not None else 1000
    factory = _policy_factory(algorithm, instance, spec, est_cfg, br_cfg)
    value, radius = evaluate_policy(
        factory, instance, spec, trials, stream=as_stream(seed), workers=workers
    )
    report = {
        "command": "evaluate",
        "algorithm": algorithm,
        **_instance_echo(params, instance, spec),
        "estimator": est_cfg.mode,
        "samples": est_cfg.samples,
        "branch": br_cfg.mode,
        "rollouts": br_cfg.rollouts,
        "trials": trials,
        "value": value,
        "radius": radius,
        "master_seed": seed,
        "version": __version__,
        "wall_time_s": time.perf_counter() - start,
    }
    _emit(report, params["out"])


@main.command()
@_add_options(_instance_options)
@click.option("--out", type=click.Path(), default=None, help="report path")
@click.option("--config", "config_path", type=click.Path(), default=None)
@_guarded
def oracle(**params):
    """Exact optimal adaptive value on a tiny instance, by backward induction."""
    start = time.perf_counter()
    params = _with_config(params, params.pop("config_path"))
    instance, spec = _load_instance(params)
    value = optimal_policy_oracle(instance, spec)
    report = {
        "command": "oracle",
        "algorithm": "oracle",
        **_instance_echo(params, instance, spec),
        "value": value,
        "radius": 0.0,
        "master_seed": None,
        "version": __version__,
        "wall_time_s": time.perf_counter() - start,
    }
    _emit(report, params["out"])


if __name__ == "__main__":
    main()
