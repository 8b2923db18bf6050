"""dualband benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload scenarios --seed 7 --seconds 20 --trace 0

Run from the root of a checkout.  Set-up (a fresh import of dualband,
input generation from the seed, a warm-up) is done SETUP_REPEATS times
and its median reported as ``setup_s``.  The run then executes passes,
each a fixed list of cases made from the seed, until ``--seconds`` have
been spent (at least one pass).  Each case starts when the previous one
has finished.  Timing statistics are taken per pass and the median over
passes is reported, so they do not depend on how many passes fit.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
pass twice, untraced and then traced with the functions in
``bench_tracing.TARGETS`` wrapped, and prints the per-layer metrics per
traced pass and the tracing overhead.  Every output is checked against
``dualband.cli.CONTRACTS`` in both modes.  On ``corpus``, a probe then
runs the step that fails on valid input (the known defect) on a few
unmeasured cases and lists the ids of those that show it.  The last line
of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import glob
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
TAIL_BEYOND = 10           # samples that must lie beyond the tail percentile

if __name__ == "__main__":
    # One BLAS thread, set before numpy loads: with two BLAS threads on a
    # two-core machine the corpus ran slower and spread more from run to run.
    for _var in BLAS_THREAD_VARS:
        os.environ[_var] = "1"

sys.path.insert(0, HERE)
import bench_tracing  # noqa: E402
import bench_workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"), ("case_p50_s", "s"), ("case_tail_s", "s"),
    ("cases_per_s", "1/s"), ("residual_margin_digits", "digits"),
    ("peak_rss_mb", "MB"),
)

_CALLS_SELF = (
    "symbols.sample", "symbols.inner_sample", "symbols.refine_grid",
    "model_space.basis_values", "model_space.tto_matrix",
    "dual_band.build_dualband", "dual_band.block_w",
    "dual_band.dualband_matrix", "matsym.max_tail",
    "extension.build_G", "extension.kernel_lift", "extension.kernel_project",
    "shift_spectra.point_spectrum", "shift_spectra.eigvec_build",
    "shift_spectra.solve_theta_equals", "factorization.canonical_factors",
    "factorization.meromorphic_factors", "factorization.hminus_split",
    "factorization.resolvent_apply", "hankel.hankel_norm",
)
_SELF_ONLY = (
    "matsym.solve_values", "matsym.matmul",
    "factorization.verify_factorization", "scenario.parse_scenario",
    "scenario.build_space", "cli.write_artifacts",
)
CLI_TASKS = ("validate", "spectrum", "kernel", "factorize", "resolvent",
             "norm")

PER_LAYER = tuple(
    [(f"{layer}.calls", "count") for layer in _CALLS_SELF] +
    [(f"{layer}.self_s", "s") for layer in _CALLS_SELF + _SELF_ONLY] +
    [("symbols.sample.points", "points"),
     ("symbols.sample.reuse_ratio", "ratio"),
     ("factorization.grid_points", "points")] +
    [(f"cli.task.{t}_s", "s") for t in CLI_TASKS] +
    [(f"{m}.errors", "count") for m in bench_tracing.MODULES] +
    [("trace.overhead_ratio", "ratio")])


# ---------------------------------------------------------------------------
# environment

def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads(np):
    """Thread count reported by the OpenBLAS bundled with numpy."""
    import ctypes
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(seed, threads_env):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "git_commit": _git_commit(),
        "seed": seed,
        "DUALBAND_THREADS": threads_env,
        "note": ("DUALBAND_THREADS is removed before the run, so the "
                 "program default (one worker) is measured; the "
                 "ThreadPoolExecutor path is unmeasured"),
    }


# ---------------------------------------------------------------------------
# set-up

class Modules:
    """The dualband modules the workloads call, looked up at call time so
    that the traced pass sees the wrappers."""

    NAMES = bench_tracing.MODULES + ("errors",)

    def __init__(self):
        for name in self.NAMES:
            setattr(self, name, importlib.import_module(f"dualband.{name}"))


def fresh_import():
    for key in [k for k in sys.modules
                if k == "dualband" or k.startswith("dualband.")]:
        del sys.modules[key]
    importlib.import_module("dualband")
    return Modules()


def setup(workload_cls, seed, workdir):
    """Import, generate inputs, warm up.  Returns (mods, workload,
    warm-up results)."""
    mods = fresh_import()
    wl = workload_cls(mods, seed, ROOT, workdir)
    wl.pass_inputs(0)
    warm = [run_case(wl, mods, case) for case in wl.warmup_inputs()]
    return mods, wl, warm


# ---------------------------------------------------------------------------
# running

def run_case(wl, mods, case, fn=None):
    t0 = time.perf_counter()
    try:
        return (fn or wl.run_case)(case)
    except mods.errors.DualbandError as exc:
        msg = f"{type(exc).__name__}: {exc}"
        code = "error"
    except Exception as exc:   # a crash is a failed case, not a dead run
        msg = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        code = "crash"
        traceback.print_exc(file=sys.stderr)
    return bench_workloads.CaseResult(case["id"], time.perf_counter() - t0,
                                      [(code, msg)])


def run_pass(wl, mods, cases, tracer=None):
    results = []
    t0 = time.perf_counter()
    for case in cases:
        if tracer is None:
            results.append(run_case(wl, mods, case))
            continue
        tracer.case_id = case["id"]
        with tracer.span("case"):
            results.append(run_case(wl, mods, case))
    return results, time.perf_counter() - t0


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it."""
    xs = sorted(values)
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0:
        raise ValueError(f"{len(xs)} samples leave no percentile with "
                         f"{TAIL_BEYOND} beyond it")
    return xs[k], 100.0 * (k + 1) / len(xs)


def pass_stats(results, wall):
    times = [r.seconds for r in results]
    tail_value, tail_pct = tail(times)
    return {"p50": statistics.median(times), "tail": tail_value,
            "tail_pct": tail_pct, "n": len(times),
            "worst_ratio": max(r.worst_ratio for r in results),
            "wall": wall,
            "case_seconds": [[r.case_id, r.seconds] for r in results]}


class Measurement:
    """Everything the passes of one run produced."""

    def __init__(self):
        self.passes = []          # pass_stats of each untraced pass
        self.results = []         # every CaseResult, traced ones too
        self.tracers = []         # one Tracer per traced pass
        self.untraced_s = 0.0     # case time of the untraced twins ...
        self.traced_s = 0.0       # ... of the traced passes
        self.task_seconds = {}    # cli report timings in traced passes


def measure(wl, mods, seconds, trace):
    m = Measurement()
    t_start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - t_start < seconds:
        cases = wl.pass_inputs(k)
        res, wall = run_pass(wl, mods, cases)
        m.results.extend(res)
        m.passes.append(pass_stats(res, wall))
        if trace:
            tracer = bench_tracing.Tracer()
            with tracer.installed():
                tres, _ = run_pass(wl, mods, cases, tracer)
            m.results.extend(tres)
            m.tracers.append(tracer)
            m.untraced_s += sum(r.seconds for r in res)
            m.traced_s += sum(r.seconds for r in tres)
            for r in tres:
                for t, s in r.task_seconds.items():
                    m.task_seconds[t] = m.task_seconds.get(t, 0.0) + s
        k += 1
    return m


def layer_metrics(m):
    """Per-layer metrics per traced pass."""
    passes = len(m.tracers)
    calls, selfs, counters = {}, {}, {}
    for tr in m.tracers:
        for name, (c, s) in tr.layer_totals().items():
            calls[name] = calls.get(name, 0) + c
            selfs[name] = selfs.get(name, 0.0) + s
        for key, v in tr.counters.items():
            counters[key] = counters.get(key, 0.0) + v
    out = {}
    for name, unit in PER_LAYER:
        if name.endswith(".calls"):
            val = calls.get(name[:-6], 0) / passes
        elif name.endswith(".self_s"):
            val = selfs.get(name[:-7], 0.0) / passes
        elif name == "symbols.sample.reuse_ratio":
            n = calls.get("symbols.sample", 0)
            val = counters.get("symbols.sample.repeats", 0.0) / n if n else 0.0
        elif name.startswith("cli.task."):
            val = m.task_seconds.get(name[9:-2], 0.0) / passes
        elif name.endswith(".errors"):
            val = sum(tr.errors(name[:-7]) for tr in m.tracers) / passes
        elif name == "trace.overhead_ratio":
            val = m.traced_s / m.untraced_s - 1.0
        else:
            val = counters.get(name, 0.0) / passes
        out[name] = {"value": val, "unit": unit}
    return out


def end_to_end(setups, passes):
    worst_ratio = statistics.median(p["worst_ratio"] for p in passes)
    return {
        "setup_s": statistics.median(setups),
        "case_p50_s": statistics.median(p["p50"] for p in passes),
        "case_tail_s": statistics.median(p["tail"] for p in passes),
        "cases_per_s": (sum(p["n"] for p in passes) /
                        sum(p["wall"] for p in passes)),
        "residual_to_contract_max": worst_ratio,
        # the raw maximum is heavy-tailed across seeds; its log is steady
        "residual_margin_digits": -math.log10(max(worst_ratio, 1e-300)),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_probe(wl, mods):
    """The known-defect probe of a workload that has one (``corpus``):
    cases that are not measured, run once after the measurement."""
    if not hasattr(wl, "probe_inputs"):
        return []
    return [run_case(wl, mods, p, wl.run_probe) for p in wl.probe_inputs()]


def print_summary(args, m, e2e, warm, probe, env):
    """Human-readable lines; returns the verdict and the failed cases."""
    failed = [r for r in m.results if r.failed]
    unexpected = failed + [r for r in warm + probe
                           if r.failed and not r.known_defect]
    known = [r.case_id for r in probe if r.known_defect]
    first = m.passes[0]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(m.passes)} pass(es) of {first['n']} cases")
    for name, unit in END_TO_END + (("residual_to_contract_max", "ratio"),):
        line = f"  {name} = {e2e[name]!r} {unit}"
        if name == "case_tail_s":
            line += (f" (p{first['tail_pct']:.1f}, {TAIL_BEYOND} of "
                     f"{first['n']} samples per pass beyond it)")
        print(line)
    print(f"  fail_ratio = {len(failed)}/{len(m.results)} = "
          f"{len(failed) / len(m.results)!r} ratio")
    if probe:
        print(f"  known-defect probe: {len(known)} of {len(probe)} "
              f"unmeasured case(s) show it: {bench_workloads.KNOWN_DEFECT}")
        print(f"  known-defect case ids: {' '.join(known) or '(none)'}")
    for r in unexpected:
        print(f"  FAILED {r.case_id}: "
              f"{'; '.join(msg for _, msg in r.violations)}")
    print(f"  verdict: {'INCORRECT' if unexpected else 'correct'}")
    if m.tracers:
        print(f"  tracing overhead = {m.traced_s / m.untraced_s - 1.0!r} "
              "(traced / untraced case time - 1)")
    print(f"  env = {json.dumps(env, sort_keys=True)}")
    if unexpected:
        print(f"perfbench: {len(unexpected)} case(s) broke their contract",
              file=sys.stderr)
    return not unexpected, failed


def write_details(args, wl, m, e2e, warm, probe, env, setups, failed,
                  metrics):
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "input_digest": wl.digest(),
        "setup_runs_s": setups, "passes": m.passes, "end_to_end": e2e,
        "fail_ratio": len(failed) / len(m.results),
        "failing_cases": [
            {"id": r.case_id, "violations": [msg for _, msg in r.violations]}
            for r in failed],
        "known_defect_probe": [
            {"id": r.case_id, "known_defect": r.known_defect,
             "violations": [msg for _, msg in r.violations]}
            for r in probe],
        "warmup_failures": [
            {"id": r.case_id, "violations": [msg for _, msg in r.violations]}
            for r in warm if r.failed],
        "known_defect": bench_workloads.KNOWN_DEFECT,
        "metrics": metrics,
    }
    os.makedirs(os.path.join(WORKDIR, "results"), exist_ok=True)
    with open(os.path.join(WORKDIR, "results", stem + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if m.tracers:
        os.makedirs(os.path.join(WORKDIR, "spans"), exist_ok=True)
        for i, tr in enumerate(m.tracers):
            tr.write_spans(os.path.join(WORKDIR, "spans",
                                        f"{stem}-pass{i}.tsv"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(bench_workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "dualband")):
        print(f"error: no dualband sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    threads_env = os.environ.pop("DUALBAND_THREADS", None)
    scratch = os.path.join(WORKDIR, "run")
    shutil.rmtree(scratch, ignore_errors=True)
    workload_cls = bench_workloads.WORKLOADS[args.workload]

    setups = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mods, wl, warm = setup(workload_cls, args.seed,
                               os.path.join(scratch, f"setup{i}"))
        setups.append(time.perf_counter() - t0)
    env = environment(args.seed, threads_env)

    m = measure(wl, mods, args.seconds, args.trace)
    probe = run_probe(wl, mods)
    e2e = end_to_end(setups, m.passes)
    if args.trace:
        metrics = layer_metrics(m)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    correct, failed = print_summary(args, m, e2e, warm, probe, env)
    write_details(args, wl, m, e2e, warm, probe, env, setups, failed,
                  metrics)
    print(json.dumps({"correct": correct, "attempted": len(m.results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
