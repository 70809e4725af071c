"""mclab benchmark: trials per second over run-kind workloads.

Run from the repository root:

    python3 perfbench/run.py --workload phase-converge --seed 0 --seconds 26 --trace 0

Each workload (see ``workloads.py``) is a closed loop of
``mclab.experiments.run`` calls, one after another on one thread, with
``threads=1``, until ``--seconds`` have passed and a round of the
workload's call cycle is complete.  Every call's output is checked.

``--trace 0`` measures end to end with tracing off and reports
``trials_per_s``, ``call_s_p50``, ``call_s_tail``, ``setup_s``,
``peak_rss_mb`` and ``ok_rate``.  Its timings are scaled to a reference
host speed, measured by a fixed kernel timed around every call and every
set-up probe (``hostspeed.py``); ``# notes`` gives them unscaled too.
``--trace 1`` makes every call twice, straight after one another:
untraced, then with spans recorded around the calls into each layer
(``spans.py``).  It checks that each traced call's CSV rows equal its
untraced twin's byte for byte and that every wrapped attribute is
restored, writes the spans to ``perfbench/out/`` as JSONL and reports the
per-layer metrics.

The benchmark runs BLAS on one thread: it sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 where the caller left them
unset, for itself and the set-up probes.  The ``# env`` line records the
caller's values and the ones in effect, with the machine.  The last line
of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# OpenBLAS's default is one thread per CPU.  On two shared vCPUs the check-04
# solves then kept a second thread spinning (1.96 CPUs busy) and ran about 17%
# slower than on one thread, at a speed that followed the other load on the
# host.  Set before numpy is first imported, here or in a set-up probe.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CALLER_THREAD_ENV = {k: os.environ.get(k) for k in THREAD_VARS}
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import hostspeed
import workloads
from spans import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 7
# sum of self shares over all layers may miss 1 by this much: the time the
# loop's clock sees outside the root span
SELF_SHARE_SLACK = 0.01


def import_mclab():
    """Import mclab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import mclab
    if not os.path.abspath(mclab.__file__).startswith(SRC + os.sep):
        raise ImportError("mclab imported from %s, not %s" % (mclab.__file__, SRC))
    return mclab


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(load_avg: float) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "load_avg_1m_at_start": load_avg,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env_caller": CALLER_THREAD_ENV,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def measure_setup(workload_name: str):
    """Median wall seconds from launching a fresh interpreter to its warm-up
    call being done (import mclab, numpy and scipy, one tiny call), scaled
    to the reference host speed, and the median unscaled."""
    probe = os.path.join(HERE, "setup_probe.py")
    times, scaled = [], []
    kernel = hostspeed.kernel_s()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, probe, workload_name], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            rc = proc.wait(timeout=120)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError("set-up probe failed (exit %d)" % rc)
        after = hostspeed.kernel_s()
        scaled.append(times[-1] * 2 * hostspeed.REF_KERNEL_S / (kernel + after))
        kernel = after
    return statistics.median(scaled), statistics.median(times)


# -- the measured loop ------------------------------------------------------

def one_call(ex, i, kind, seed, reference, tracer=None):
    """One ``run()`` call, timed and checked: kind, seed, wall, trials,
    error, pooled, csv.  With a tracer the call runs inside its root span."""
    cfg = workloads.make_config(ex, kind, seed)
    rows = error = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rows = ex.run(cfg)
        else:
            tracer.begin_call(i, kind)
            rows = tracer.span("experiments.run", "experiments", ex.run, cfg)
    except Exception as exc:  # a failing call is counted, not fatal
        error = "raised %s: %s" % (type(exc).__name__, exc)
    wall = time.perf_counter() - t0
    call = {"kind": kind, "seed": seed, "wall": wall, "trials": 0,
            "error": error, "pooled": None, "csv": None}
    if rows is not None:
        call["trials"] = sum(r.trials for r in rows)
        call["csv"] = ex.rows_to_csv(rows)
        call["error"], call["pooled"] = workloads.check_call(kind, seed, rows, reference)
    return call


def check_run(workload, calls):
    """Apply the pooled acceptance conditions and report failed calls."""
    for kind in dict.fromkeys(workload.cycle):
        pooled = [c for c in calls if c["kind"] == kind and c["pooled"] is not None]
        err = workloads.check_pooled(kind, [c["pooled"] for c in pooled])
        for c in pooled if err else ():
            c["error"] = err
    for c in calls:
        if c["error"]:
            print("call %s seed=%d failed: %s" % (c["kind"], c["seed"], c["error"]),
                  file=sys.stderr)


def run_calls(mclab, workload, run_seed, reference, seconds, tracer=None):
    """Make the calls of the run's plan until ``seconds`` have passed and a
    round is complete.

    Returns (untraced calls, traced calls).  Without a tracer the host-speed
    kernel runs before the first call and after every call, and each call's
    ``host`` is its slowness: the mean of the kernel's times around it over
    the reference.  With a tracer every call is made twice in a row,
    untraced and then traced, the tracer installed only for the second, so
    that the two share the host's speed of that moment; the traced list is
    empty otherwise.  Attributes the tracer failed to restore are collected
    in ``tracer.not_restored``.
    """
    ex = mclab.experiments
    plain, traced = [], []
    cycle = len(workload.cycle)
    kernel = hostspeed.kernel_s() if tracer is None else None
    t_end = time.perf_counter() + seconds
    for i, (kind, seed) in enumerate(workloads.call_plan(workload, run_seed)):
        plain.append(one_call(ex, i, kind, seed, reference))
        if tracer is None:
            after = hostspeed.kernel_s()
            plain[-1]["host"] = (kernel + after) / (2 * hostspeed.REF_KERNEL_S)
            kernel = after
        else:
            tracer.install(mclab)
            try:
                traced.append(one_call(ex, i, kind, seed, reference, tracer))
            finally:
                tracer.not_restored += tracer.uninstall()
        if (i + 1) % cycle == 0 and time.perf_counter() >= t_end:
            break
    check_run(workload, plain)
    check_run(workload, traced)
    return plain, traced


def tail(values):
    """(value, percentile): the highest percentile with at least ten values
    beyond it, and the median when there are too few values for that."""
    xs = sorted(values)
    n = len(xs)
    if n <= 20:  # at n = 20 that percentile is the median itself
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def trials_per_s(calls, walls=None) -> float:
    walls = [c["wall"] for c in calls] if walls is None else walls
    return sum(c["trials"] for c in calls) / sum(walls)


def end_to_end(calls, setup_s, setup_raw_s):
    walls = [c["wall"] / c["host"] for c in calls]
    raw = [c["wall"] for c in calls]
    failed = sum(1 for c in calls if c["error"])
    tail_s, pct = tail(walls)
    metrics = {
        "trials_per_s": (trials_per_s(calls, walls), "1/s"),
        "call_s_p50": (statistics.median(walls), "s"),
        "call_s_tail": (tail_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_rate": (1.0 - failed / len(calls), "ratio"),
    }
    notes = {"calls": len(calls), "call_s_tail_percentile": pct,
             "error_rate": failed / len(calls),
             "host_slowness_p50": statistics.median(c["host"] for c in calls),
             "unscaled": {"trials_per_s": trials_per_s(calls),
                          "call_s_p50": statistics.median(raw),
                          "call_s_tail": tail(raw)[0], "setup_s": setup_raw_s}}
    return metrics, notes


# -- per-layer metrics from the traced calls --------------------------------

def _p50_ms(durations):
    return 1e3 * statistics.median(durations) if durations else 0.0


def _ratio(flags):
    return sum(flags) / len(flags) if flags else 0.0


def per_layer(tracer, wall, overhead_ratio):
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[1], []).append(s)

    def dur(*names):
        return [s[4] - s[3] for n in names for s in by_name.get(n, ())]

    def info(name, key):
        return [s[10][key] for s in by_name.get(name, ()) if s[10] and key in s[10]]

    def ops(layer):
        calls = sum(v[0] for k, v in tracer.ops.items() if k.startswith(layer + "."))
        secs = sum(v[1] for k, v in tracer.ops.items() if k.startswith(layer + "."))
        return calls, (1e6 * secs / calls if calls else 0.0)

    gens = [n for n in by_name if n.startswith("models.gen_")]
    samples = ("sampling.sample_bernoulli", "sampling.sample_uniform")
    solves = [s for s in by_name.get("solver.complete", ()) if "iters" in s[10]]
    conv = [s for s in solves if s[10]["converged"]]
    unconv = [s for s in solves if not s[10]["converged"]]
    iters = [s[10]["iters"] for s in solves]
    solve_self = sum(s[4] - s[3] - s[9] for s in solves)
    sampling_ops, sampling_op_us = ops("sampling")
    geometry_ops, geometry_op_us = ops("geometry")

    m = {}
    for layer in LAYERS:
        if layer != "experiments":
            m[layer + ".busy_share"] = (tracer.busy_s[layer] / wall, "ratio")
        m[layer + ".self_share"] = (tracer.self_s[layer] / wall, "ratio")
    m.update({
        "models.gen_calls": (len(dur(*gens)), "count"),
        "models.gen_ms_p50": (_p50_ms(dur(*gens)), "ms"),
        "sampling.sample_calls": (len(dur(*samples)), "count"),
        "sampling.sample_ms_p50": (_p50_ms(dur(*samples)), "ms"),
        "sampling.op_calls": (sampling_ops, "count"),
        "sampling.op_us_mean": (sampling_op_us, "us"),
        "geometry.tangent_space_ms_p50": (_p50_ms(dur("geometry.tangent_space")), "ms"),
        "geometry.incoherence_ms_p50": (_p50_ms(dur("geometry.incoherence")), "ms"),
        "geometry.op_calls": (geometry_ops, "count"),
        "geometry.op_us_mean": (geometry_op_us, "us"),
        "linalg.spectral_norm_calls": (len(dur("linalg.spectral_norm")), "count"),
        "linalg.spectral_norm_ms_p50": (_p50_ms(dur("linalg.spectral_norm")), "ms"),
        "certificate.build_ms_p50": (_p50_ms(dur("certificate.try_build_certificate")), "ms"),
        "certificate.deviation_ms_p50": (_p50_ms(dur("certificate.deviation_stat")), "ms"),
        "certificate.moment_ms_p50": (_p50_ms(dur("certificate.estimate_trace_moment")), "ms"),
        "certificate.certified_ratio": (_ratio(info("certificate.verify_certificate", "ok")), "ratio"),
        "certificate.build_failed_ratio": (_ratio(info("certificate.try_build_certificate", "failed")), "ratio"),
        "solver.solve_calls": (len(solves), "count"),
        "solver.converged_ratio": (len(conv) / len(solves) if solves else 0.0, "ratio"),
        "solver.iters_p50": (statistics.median(iters) if iters else 0.0, "count"),
        "solver.solve_converged_ms_p50": (_p50_ms([s[4] - s[3] for s in conv]), "ms"),
        "solver.solve_unconverged_ms_p50": (_p50_ms([s[4] - s[3] for s in unconv]), "ms"),
        "solver.step_us": (1e6 * solve_self / sum(iters) if iters else 0.0, "us"),
        "solver.recovered_ratio": (_ratio(info("solver.recovered", "ok")), "ratio"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    })
    return m


def traced(mclab, workload, run_seed, seconds, reference):
    tracer = Tracer(workload.name)
    plain, with_spans = run_calls(mclab, workload, run_seed, reference, seconds, tracer)
    problems = ["attribute not restored: %s" % a for a in sorted(set(tracer.not_restored))]
    problems += ["call %d: traced CSV differs from untraced" % i
                 for i, (a, b) in enumerate(zip(plain, with_spans)) if a["csv"] != b["csv"]]
    wall = sum(c["wall"] for c in with_spans)
    # paired calls did the same trials, so this is the ratio of their walls
    metrics = per_layer(tracer, wall, trials_per_s(with_spans) / trials_per_s(plain))
    self_sum = sum(metrics[layer + ".self_share"][0] for layer in LAYERS)
    if abs(self_sum - 1.0) > SELF_SHARE_SLACK:
        problems.append("self shares sum to %.4f, not 1 +- %g" % (self_sum, SELF_SHARE_SLACK))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "spans-%s-seed%d.jsonl" % (workload.name, run_seed))
    tracer.write_jsonl(path)
    notes = {"calls": len(with_spans), "spans": len(tracer.spans),
             "spans_file": os.path.relpath(path, ROOT), "self_share_sum": self_sum,
             "untraced_trials_per_s": trials_per_s(plain), "problems": problems}
    return plain + with_spans, metrics, notes, not problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_avg = os.getloadavg()[0]
    try:
        mclab = import_mclab()
    except ImportError as exc:
        print("perfbench: cannot import mclab from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = environment(load_avg)
    reference = workloads.load_reference(workloads.reference_path())
    hostspeed.warm_up()
    setup_s, setup_raw_s = (None, None) if args.trace else measure_setup(workload.name)
    workloads.warm_up(mclab, workload)
    if args.trace:
        calls, metrics, notes, ok = traced(mclab, workload, args.seed, args.seconds,
                                           reference)
    else:
        calls, _ = run_calls(mclab, workload, args.seed, reference, args.seconds)
        metrics, notes = end_to_end(calls, setup_s, setup_raw_s)
        ok = True
    failed = sum(1 for c in calls if c["error"])
    for name, (value, unit) in metrics.items():
        print("%-34s %14.6g %s" % (name, value, unit))
    print("# notes " + json.dumps(notes))
    print("# env " + json.dumps(env))
    result = {
        "correct": bool(ok and failed == 0),
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
