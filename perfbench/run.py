"""Run one benchmark workload against the bilevelreg sources in this checkout.

    python3 perfbench/run.py --workload sweep-1d --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times set-up and whole driver calls with no tracing and
prints the end-to-end metrics.  With ``--trace 1`` it wraps the package's
public functions from outside (perfbench/tracer.py), alternates untraced and
traced driver calls on one instance, and prints the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up takes under a millisecond; its median needs many samples, taken
# throughout the run because machine speed drifts over seconds.
SETUPS_PER_REP = 11
SETUPS_PER_HELDOUT = 3
TRACED_SETUP_REPS = 5
MIN_TRACED_REPS = 2  # counts are compared between two traced calls


def _limit_blas_threads() -> None:
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _attempt(workload, inst, traced=contextlib.nullcontext):
    """One driver call, timed inside ``traced()``, then its output check
    (untimed, untraced).

    Returns (seconds or None, outcome, problems).  Any exception is a failed
    attempt: the benchmark keeps running and reports it.
    """
    try:
        with traced():
            t0 = time.perf_counter()
            result, outcome = workload.drive(inst)
            elapsed = time.perf_counter() - t0
    except Exception:
        return None, None, [traceback.format_exc()]
    try:
        problems = workload.check(inst, result)
    except Exception:
        problems = [traceback.format_exc()]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return elapsed, outcome, problems


def run_plain(workload, seed, seconds, workdir):
    """Untraced run.

    Repetition r sets up instance r of the seed and makes one timed driver
    call on it, until ``seconds`` have passed and at least ``min_reps`` ran.
    The thetas of the first ``min_reps`` repetitions are then scored on
    held-out signals.  Set-up is timed several times before every driver
    call and between held-out solves, so its samples span the whole run.
    """
    from tracer import median, tail_percentile
    from workloads import heldout_psnr, setup, write_config

    setup_times = []

    def timed_setups(path, held, times):
        for _ in range(times):
            t0 = time.perf_counter()
            inst = setup(path, held)
            setup_times.append(time.perf_counter() - t0)
        return inst

    run_times, scored = [], []
    attempted, failed = 0, 0
    begin = time.perf_counter()
    while attempted < workload.min_reps or time.perf_counter() - begin < seconds:
        path, held = write_config(workload, seed, attempted, workdir)
        inst = timed_setups(path, held, SETUPS_PER_REP)
        attempted += 1
        elapsed, outcome, problems = _attempt(workload, inst)
        if elapsed is not None:
            run_times.append(elapsed)
        failed += bool(problems)
        if attempted <= workload.min_reps and not problems:
            scored.append((path, held, inst, outcome.theta))

    metrics = {}
    if run_times and scored:
        psnrs = []
        for path, held, inst, theta in scored:
            for i in range(workload.heldout_signals):
                psnrs.append(heldout_psnr(inst, theta, i))
                timed_setups(path, held, SETUPS_PER_HELDOUT)
        metrics["setup_s"] = (median(setup_times), "s")
        metrics["run_s"] = (median(run_times), "s")
        metrics["heldout_psnr_db"] = (sum(psnrs) / len(psnrs), "dB")
        metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    notes = [f"setup_s: median of {len(setup_times)} set-ups"]
    if run_times:
        p, value, n = tail_percentile(run_times)
        tail = f", p{p} {value:.6g} s" if p is not None else ""
        notes.append(f"run_s: median of {n} driver calls{tail} "
                     f"(min {min(run_times):.6g} s, max {max(run_times):.6g} s)")
    notes.append(f"heldout_psnr_db: mean over {len(scored)} returned thetas x "
                 f"{workload.heldout_signals} held-out signals")
    notes.append(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} runs)")
    return attempted, failed, metrics, notes


def _snapshot(tracer):
    """Call and work counts of the last traced call (times excluded)."""
    return ({name: rec[0] for name, rec in tracer.stats.items()},
            dict(tracer.counters))


def _observers():
    def conv(tr, args, kwargs, result):
        x = args[0] if args else kwargs["x" if "x" in kwargs else "u"]
        c = args[1] if len(args) > 1 else kwargs["c"]
        tr.count("signals.conv.flops_computed", 2 * c.size * x.size)

    def gd(tr, args, kwargs, result):
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        tr.count("solvers.gd_minimize.iters", result.iters_run)
        if cfg.grad_tol > 0:
            ok = result.final_grad_norm <= cfg.grad_tol
        else:  # a fixed-budget solve meets its rule by running the budget
            ok = result.iters_run == cfg.max_iters
        tr.count("solvers.gd_minimize.converged", int(ok))

    def cg(tr, args, kwargs, result):
        tol = args[2] if len(args) > 2 else kwargs["tol"]
        tr.count("solvers.cg_solve.iters", result.iters_run)
        tr.count("solvers.cg_solve.converged", int(result.residual_norm <= tol))

    return {
        "signals.circ_conv": conv,
        "signals.circ_conv_adjoint": conv,
        "solvers.gd_minimize": gd,
        "solvers.cg_solve": cg,
    }


def layer_metrics(stats, counters, self_s, data_s, step_ms, upper_steps, overhead):
    """Per-layer metrics of one traced driver call.

    ``stats`` and ``counters`` give counts; ``self_s`` maps span names and
    layers to median self time over the traced calls.
    """
    from tracer import median, tail_percentile

    def calls(name):
        return stats.get(name, 0)

    def per_call_us(name):
        n = calls(name)
        return self_s.get(name, 0.0) / n * 1e6 if n else 0.0

    def frac(hit, total):
        return counters.get(hit, 0) / total if total else 1.0

    m = {}
    for fn in ("circ_conv", "circ_conv_adjoint"):
        name = f"signals.{fn}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        m[f"{name}.us_per_call"] = (per_call_us(name), "us")
    m["signals.conv.flops_computed"] = (
        counters.get("signals.conv.flops_computed", 0), "flop")
    for name in ("potentials.dphi", "potentials.ddphi",
                 "forward.apply", "forward.adjoint"):
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("lower.grad_x", "lower.hess_vec", "lower.jac_adjoint_apply",
                 "lower.lipschitz_grad", "solvers.gd_minimize",
                 "solvers.cg_solve", "hypergrad.hypergrad_unrolled_reverse",
                 "losses.bind_loss"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    m["lower.hess_vec.per_upper_iter"] = (
        calls("lower.hess_vec") / upper_steps, "count")
    gd_calls = calls("solvers.gd_minimize")
    gd_iters = counters.get("solvers.gd_minimize.iters", 0)
    m["solvers.gd_minimize.iters"] = (gd_iters, "count")
    m["solvers.gd_minimize.iters_per_solve"] = (
        gd_iters / gd_calls if gd_calls else 0.0, "count")
    m["solvers.gd_minimize.converged_frac"] = (
        frac("solvers.gd_minimize.converged", gd_calls), "1")
    cg_calls = calls("solvers.cg_solve")
    m["solvers.cg_solve.iters"] = (counters.get("solvers.cg_solve.iters", 0), "count")
    m["solvers.cg_solve.converged_frac"] = (
        frac("solvers.cg_solve.converged", cg_calls), "1")
    for name in ("upper.adam_or_gd_upper", "upper.ttsa", "upper.grid_search"):
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    p, tail, n = tail_percentile(step_ms)
    m["upper.step_ms_p50"] = (median(step_ms), "ms")
    m["upper.step_ms_tail"] = (tail if p is not None else median(step_ms), "ms")
    m["upper.step_ms_tail_pct"] = (p if p is not None else 50, "percentile")
    m["upper.step_ms_n"] = (n, "count")
    for layer in ("signals", "potentials", "forward", "lower", "solvers",
                  "hypergrad", "upper", "losses"):
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    for name, value in data_s.items():
        m[f"{name}.s"] = (value, "s")
    m["trace.overhead_frac"] = (overhead, "1")
    return m


def run_traced(workload, seed, seconds, workdir):
    """Traced run on instance 0 of the seed.

    Times five traced set-ups, then alternates an untraced and a traced
    driver call until ``seconds`` have passed (at least two of each).  Counts
    must repeat between traced calls and satisfy the workload's completeness
    identities; otherwise the run exits with an error and no result.
    """
    import bilevelreg
    import workloads
    from tracer import LAYERS, Tracer, install_package, median
    from workloads import setup, write_config

    path0, held0 = write_config(workload, seed, 0, workdir)
    tracer = Tracer()
    observers = _observers()
    keep = ("upper.evaluate_upper",)

    data_samples = {k: [] for k in ("data.load_config", "data.build_train_set",
                                    "data.build_theta")}

    @contextlib.contextmanager
    def traced():
        tracer.reset()
        install_package(tracer, bilevelreg, observers, keep, (workloads,))
        try:
            yield
        finally:
            tracer.uninstall()

    for _ in range(TRACED_SETUP_REPS):
        with traced():
            inst = setup(path0, held0)
        for k, samples in data_samples.items():
            samples.append(tracer.stats[k][1])

    attempted, failed = 0, 0
    untraced, traced_times, snapshots, step_ms = [], [], [], []
    self_samples: dict[str, list[float]] = {}
    upper_steps = None
    begin = time.perf_counter()
    while attempted < 2 * MIN_TRACED_REPS or time.perf_counter() - begin < seconds:
        attempted += 2
        elapsed, _, problems = _attempt(workload, inst)
        failed += bool(problems)
        if elapsed is not None:
            untraced.append(elapsed)

        elapsed, outcome, problems = _attempt(workload, inst, traced)
        failed += bool(problems)
        if elapsed is None:
            continue
        traced_times.append(elapsed)
        snapshots.append(_snapshot(tracer))
        upper_steps = outcome.upper_steps
        step_ms.extend(outcome.step_ms or
                       [d * 1e3 for d in tracer.durations["upper.evaluate_upper"]])
        for name, rec in tracer.stats.items():
            self_samples.setdefault(name, []).append(rec[2])
        for layer in LAYERS:
            self_samples.setdefault(layer, []).append(tracer.layer_self_s(layer))

    if not traced_times or not untraced:
        return attempted, failed, {}, ["no successful traced and untraced call"]

    stats, counters = snapshots[0]
    for other in snapshots[1:]:
        if other != snapshots[0]:
            raise SystemExit("error: call or work counts differ between two "
                             "traced calls of the same instance")
    counts = {f"{name}.calls": n for name, n in stats.items()}
    counts.update(counters)
    for desc, lhs, rhs in workload.identities(counts, inst):
        if lhs != rhs:
            raise SystemExit(f"error: tracer completeness identity failed: "
                             f"{desc}: {lhs} != {rhs}")

    self_s = {name: median(v) for name, v in self_samples.items()}
    data_s = {k: median(v) for k, v in data_samples.items()}
    overhead = median(traced_times) / median(untraced) - 1.0
    metrics = layer_metrics(stats, counters, self_s, data_s, step_ms,
                            upper_steps, overhead)
    total = median(traced_times)
    notes = [f"traced calls {len(traced_times)}, untraced calls {len(untraced)}; "
             f"traced run_s {total:.6g} s, untraced {median(untraced):.6g} s",
             "layer self-time share of the traced driver call:"]
    for layer in LAYERS[:-1]:
        notes.append(f"  {layer:<11} {self_s[layer]:10.4f} s "
                     f"{100 * self_s[layer] / total:6.1f} %")
    notes.append("completeness identities hold")
    return attempted, failed, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _limit_blas_threads()
    src = ROOT / "src"
    if not (src / "bilevelreg" / "__init__.py").is_file():
        print(f"error: bilevelreg sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from tracer import valid_metric_name
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as tmp:
        runner = run_traced if args.trace else run_plain
        attempted, failed, metrics, notes = runner(
            workload, seed, args.seconds, Path(tmp))

    print(f"workload {workload.name}, seed {seed}, trace {args.trace}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        if not valid_metric_name(name):
            raise SystemExit(f"error: invalid metric name {name!r}")
        print(f"{name} {value:.6g} {unit}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
