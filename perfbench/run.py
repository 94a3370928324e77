"""Run one workload of the discountcast benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload nonadaptive-10k --seed 0 --seconds 20 --trace 0

The package is imported from ``src/`` under the working directory, so
the code measured is the checkout's own; without it the run exits with
code 2 and prints no result. ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` makes an untraced base pass, a
coarse traced pass and a fine traced pass, and reports the per-layer
metrics. The last line of
standard output is the result object; the line before it gives the run
environment and the path of the full record (every sample, every check,
the spans) under ``.perfbench_out/``.

The inputs are generated in one forked child process and measured in
another, so the measuring process's peak memory (and that of the pool
workers it starts) holds nothing of input generation.
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

OUT_DIR = ".perfbench_out"
# setup_s is the median over batches of the mean set-up time in each batch.
# A batch repeats set-up for at least SETUP_BATCH_S, and one runs before
# every solve: the host's speed changes in phases lasting from a fraction
# of a second to tens of seconds, which back-to-back set-ups of a
# millisecond would sample one phase at a time.
SETUP_BATCHES = 7
SETUP_BATCH_S = 0.3
BENCH_DIR = Path(__file__).resolve().parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0, help="length of the measured window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy shrinks every input, for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_package(root: Path):
    """Import discountcast from root/src, refusing any other copy."""
    src = root / "src"
    if not (src / "discountcast" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    # Pool workers start from this process and look the package up the same way.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    import discountcast
    if Path(discountcast.__file__).resolve().parent != (src / "discountcast").resolve():
        return None
    return discountcast


def git_commit(root: Path) -> str | None:
    """HEAD's commit id when the checkout is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, dc) -> dict:
    import numpy
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "discountcast": dc.__version__,
        "git_commit": git_commit(root),
        "src_lines": src_lines,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any worker it waited for (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def in_child(fn, *args):
    """fn(*args) in a forked child process, which has ended when this returns.

    A child's peak memory counts toward its own getrusage figures and,
    once it is waited for, toward this process's RUSAGE_CHILDREN; never
    toward a sibling's.
    """
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_send_result, args=(writer, fn, args))
    proc.start()
    writer.close()
    try:
        result = reader.recv()
    except EOFError:
        result = None
    finally:
        reader.close()
        proc.join()
    if proc.exitcode != 0:
        raise RuntimeError(f"{fn.__name__} failed in its child process (exit code {proc.exitcode})")
    return result


def _send_result(writer, fn, args):
    writer.send(fn(*args))
    writer.close()


def generated(wl):
    """The workload with its inputs written, ready to be sent to the measuring process."""
    wl.generate()
    return wl


def one_pass(wl, **solve_kw):
    """One set-up and one solve: (answer, set-up seconds, solve seconds)."""
    t0 = time.perf_counter()
    prepared = wl.setup()
    t1 = time.perf_counter()
    answer = wl.solve(prepared, **solve_kw)
    t2 = time.perf_counter()
    return answer, t1 - t0, t2 - t1


def setup_batch(wl):
    """Mean time of set-ups repeated until they add up to SETUP_BATCH_S, and the
    last prepared state. Only the set-up calls are timed: freeing the previous
    copy happens off the clock."""
    count, total = 0, 0.0
    while True:
        prepared = None  # free the last copy first, so peak memory holds one
        t0 = time.perf_counter()
        prepared = wl.setup()
        total += time.perf_counter() - t0
        count += 1
        if total >= SETUP_BATCH_S:
            return total / count, prepared


def measure(wl, seconds: float):
    """Passes of one set-up batch and one solve, until the next pass would overrun
    the window (at least one pass); then set-up batches up to SETUP_BATCHES. A
    batch per pass spreads the set-up samples over the run's speed phases."""
    setup_s, solve_s, pass_s = [], [], []
    start = time.perf_counter()
    while True:
        answer = prepared = None  # let the last pass's data go before the next set-up
        t0 = time.perf_counter()
        setup, prepared = setup_batch(wl)
        t1 = time.perf_counter()
        answer = wl.solve(prepared)
        t2 = time.perf_counter()
        setup_s.append(setup)
        solve_s.append(t2 - t1)
        pass_s.append(t2 - t0)
        if t2 - start + statistics.median(pass_s) > seconds:
            break
    while len(setup_s) < SETUP_BATCHES:
        setup_s.append(setup_batch(wl)[0])
    return answer, setup_s, solve_s


def run_checks(wl, answer, influence, reference):
    """Answer checks; a check that raises counts as failed."""
    try:
        return wl.checks(answer, influence, reference)
    except Exception:
        from workloads import Check
        return [Check("checks.raised", False, traceback.format_exc())]


def probes(dc) -> dict:
    """Fixed-input kernel timings, the same on every workload and seed."""
    fig1 = dc.fig1_instance().graph
    walk = dc.random_instance(2000, 5 / 1999, 2000).graph

    def median_of(fn, budget_s=0.4, min_reps=5):
        times, value = [], None
        while len(times) < min_reps or sum(times) < budget_s:
            t0 = time.perf_counter()
            value = fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times), len(times), value

    tab_s, tab_n, tab_v = median_of(lambda: dc.spread_mc(fig1, [0], 10_000, 1))
    walk_s, walk_n, walk_v = median_of(lambda: dc.spread_mc(walk, [0], 1000, 1))
    exact_s, exact_n, exact_v = median_of(lambda: dc.spread_exact(fig1, [0]))
    return {
        "cascade.probe.mc_tabulated_us": (tab_s * 1e6, "us", tab_n, tab_v),
        "cascade.probe.mc_walk_ms": (walk_s * 1e3, "ms", walk_n, walk_v),
        "cascade.probe.exact_us": (exact_s * 1e6, "us", exact_n, exact_v),
    }


def load_reference(wl):
    """The seed code's recorded answers for this workload and seed, or None."""
    path = BENCH_DIR / "reference.json"
    if wl.size != "full" or not path.is_file():
        return None
    entry = json.loads(path.read_text()).get(wl.name, {})
    return entry.get(str(wl.seed)) if wl.reference_per_seed else entry


def untraced_run(wl, seconds: float) -> tuple[dict, list, dict]:
    answer, setup_s, solve_s = measure(wl, seconds)
    # Read before the re-score and the checks, so it covers set-up and solve.
    rss = peak_rss_mb()
    influence = wl.influence(answer)
    checks = run_checks(wl, answer, influence, load_reference(wl))
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "solve_s": (statistics.median(solve_s), "s"),
        "peak_rss_mb": (rss, "MB"),
        "influence": (influence, "users"),
    }
    return metrics, checks, {"setup_s": setup_s, "solve_s": solve_s}


def traced_pass(wl, dc, install, **solve_kw):
    """One set-up and solve with `install(tracer, dc)` in place:
    (tracer, span names that found no site, answer, set-up s, solve s)."""
    from tracer import Tracer
    tracer = Tracer()
    try:
        missing = install(tracer, dc)
        answer, setup, solve = one_pass(wl, **solve_kw)
    finally:
        tracer.uninstall()
    return tracer, missing, answer, setup, solve


def traced_run(wl, out_stem: Path) -> tuple[dict, list, dict]:
    """An untraced base pass, a coarse traced pass that wraps only the
    boundaries the time shares are taken from, and a fine traced pass that
    collects every other per-layer figure."""
    import discountcast as dc
    from layers import EXACT_COUNTS, install, install_coarse, per_layer
    from workloads import Check

    solo = {"workers": 1} if wl.uses_pool else {}
    base, base_setup, base_solve = one_pass(wl, **solo)
    extra: dict = {"base_setup_s": base_setup, "base_solve_s": base_solve}
    checks = []
    if wl.uses_pool:
        pooled, _, pooled_solve = one_pass(wl)
        extra["pool_solve_s"] = pooled_solve
        checks.append(Check("pool.same_answer", wl.answers(pooled) == wl.answers(base),
                            f"{wl.answers(pooled)} vs {wl.answers(base)}"))

    coarse, coarse_missing, coarse_answer, _, coarse_solve = traced_pass(wl, dc, install_coarse, **solo)
    tracer, missing, answer, setup, solve = traced_pass(wl, dc, install, **solo)
    checks.append(Check("trace.coarse_same_answer", wl.answers(coarse_answer) == wl.answers(base)))
    checks.append(Check("trace.same_answer", wl.answers(answer) == wl.answers(base)))
    influence = wl.influence(base)
    checks += run_checks(wl, base, influence, load_reference(wl))

    metrics = per_layer(tracer, wl.offers_kept(answer), coarse, coarse_solve)
    metrics["adaptive.pool_speedup"] = (base_solve / extra["pool_solve_s"] if wl.uses_pool else 0.0, "ratio")
    metrics["trace.solve_s"] = (solve, "s")
    metrics["trace.base_solve_s"] = (base_solve, "s")
    metrics["trace.overhead"] = (solve / base_solve - 1.0, "ratio")
    metrics["trace.coarse_overhead"] = (coarse_solve / base_solve - 1.0, "ratio")
    probe = probes(dc)
    metrics.update({name: (v[0], v[1]) for name, v in probe.items()})
    failed = sum(not c.ok for c in checks)
    metrics["error_rate"] = (failed / len(checks), "ratio")

    spans_path = out_stem.with_name(out_stem.name + "-spans.json")
    spans_path.write_text(json.dumps(tracer.dump()))
    extra.update({
        "traced_setup_s": setup,
        "coarse_solve_s": coarse_solve,
        "exact_counts": {k: metrics[k][0] for k in EXACT_COUNTS},
        "missing_sites": coarse_missing + missing,
        "probe_values": {name: {"samples": v[2], "value": v[3]} for name, v in probe.items()},
        "spans": str(spans_path),
    })
    return metrics, checks, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    dc = import_package(root)
    if dc is None:
        print(f"perfbench: no src/discountcast under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    out = root / OUT_DIR
    stem = out / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    inputs = out / "inputs" / f"{args.workload}-{args.size}-seed{args.seed}"
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, inputs)
    out.mkdir(parents=True, exist_ok=True)
    try:
        wl = in_child(generated, wl)
        if args.trace:
            metrics, checks, extra = in_child(traced_run, wl, stem)
        else:
            metrics, checks, extra = in_child(untraced_run, wl, args.seconds)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    failed = sum(not c.ok for c in checks)
    env = environment(root, dc)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "env": env, **extra,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record_path = stem.with_suffix(".json")
    record_path.write_text(json.dumps(record, indent=1))
    for c in checks:
        if not c.ok:
            print(f"perfbench: check {c.name} failed: {c.detail}", file=sys.stderr)
    print(json.dumps({"env": env, "record": str(record_path.relative_to(root))}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
