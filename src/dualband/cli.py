"""Command line runner: scenario ingestion, tasks, reports, goldens.

Each task checks its own contract thresholds; a run exits 0 when every
task met its contract, 2 when a residual exceeded a threshold, and 3 on
input errors (unparseable scenario, degenerate space, missing task
prerequisites).  Reports are JSON with sorted keys so that repeated runs
are byte-identical apart from the timing block.
"""

import argparse
import functools
import glob
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import DualbandError
from .scenario import (TASK_NAMES, build_space, check_prerequisites,
                       parse_scenario)
from .dual_band import (cm_symmetry_residual, dualband_matrix,
                        is_zero_operator, shift_quadrature_residual,
                        unitary_equiv_check)
from .shift_spectra import point_spectrum
from .extension import kernel_lift, kernel_project
from .factorization import (canonical_factors, hminus_split,
                            meromorphic_factors, resolvent_apply,
                            verify_factorization)
from .hankel import hankel_norm

CONTRACTS = {
    "validate": 1e-10,
    "spectrum": 1e-7,
    "kernel": 1e-8,
    "factorize_identity": 1e-10,
    "factorize_tail": 1e-9,
    "factorize_det": 1e-9,
    "resolvent": 1e-6,
    "norm": 1e-8,
}

RESOLVENT_SEED = 20260819


def _limit(opts, key):
    # a tol override replaces every module threshold at once
    if opts.get("tol") is not None:
        return opts["tol"]
    return CONTRACTS[key]


def _check(violations, label, value, limit, where=""):
    """Record "<label> <value> [at <where>] exceeds <limit>" when value is
    above limit or is NaN, which compares False with every limit and
    would otherwise pass."""
    if not value <= limit:
        at = "" if where == "" else f" at {where}"
        violations.append(f"{label} {value:.3e}{at} exceeds {limit:.3e}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if obj is None or isinstance(obj, str):
        return obj
    return repr(obj)


# ---------------------------------------------------------------------------
# tasks
#
# Every task takes (space, scn, opts).  Some also take a dict of one
# run's results passed along (``_PASSED``): the factorize and resolvent
# tasks take ``factors``, the canonical factorizations
# {lam: FactorizationResult} at the run's grid, which the factorize task
# fills and the resolvent task solves with instead of building them
# again; the spectrum and kernel tasks take ``spectrum``, where the
# spectrum task puts its point spectrum under "points" for the kernel
# task to lift.

def _task_validate(space, scn, opts):
    lim = _limit(opts, "validate")
    G = opts.get("grid")
    assembly = unitary_equiv_check(space, scn.g, G=G)
    cm = cm_symmetry_residual(space, scn.g, G=G)
    zero, block_norms = is_zero_operator(space, scn.g)
    tnorm = float(np.linalg.norm(dualband_matrix(space, scn.g, G=G).entries,
                                 2))
    zero_by_norm = tnorm <= 2 * space.n * 1e-10
    shift = shift_quadrature_residual(space)
    violations = []
    _check(violations, "block assembly residual", assembly, lim)
    _check(violations, "conjugation symmetry residual", cm, lim)
    if shift is not None:
        _check(violations, "shift quadrature residual", shift, lim)
    if zero != zero_by_norm:
        violations.append("block zero test disagrees with the operator norm")
    return {
        "ok": not violations, "violations": violations,
        "block_assembly_residual": assembly,
        "cm_symmetry_residual": cm,
        "shift_quadrature_residual": shift,
        "operator_norm": tnorm,
        "is_zero_operator": zero,
        "block_norms": block_norms,
        "space_report": dict(space.report),
    }


def _task_spectrum(space, scn, opts, spectrum=None):
    lim = _limit(opts, "spectrum")
    rep = point_spectrum(space)
    if spectrum is not None:
        spectrum["points"] = rep.points
    points = []
    violations = []
    for p in rep.points:
        points.append({
            "re": float(p.lam.real), "im": float(p.lam.imag),
            "ker_dim": int(p.kernel_dim), "residual": float(p.residual),
            "region": p.region, "det_value": p.det_value,
        })
        _check(violations, "eigenvector residual", p.residual, lim, p.lam)
    if not rep.cross_check.get("agrees", True):
        violations.append("matrix eigensolver disagrees with the root "
                          "finder")
    return {
        "ok": not violations, "violations": violations, "points": points,
        "constants": dict(rep.constants), "regime": rep.regime,
        "cross_check": rep.cross_check,
    }


def _task_kernel(space, scn, opts, spectrum=None):
    lim = _limit(opts, "kernel")
    points = (spectrum or {}).get("points")
    if points is None:
        points = point_spectrum(space, cross_check=False).points
    n_ext = opts.get("cutoff") or 128
    entries = []
    violations = []
    for p in points:
        for row in np.atleast_2d(p.coords):
            vec = kernel_lift(space, row, lam=p.lam, n_ext=n_ext)
            back = kernel_project(space, vec, lam=p.lam)
            scale = float(np.linalg.norm(row))
            roundtrip = float(np.linalg.norm(back - row)) / scale
            rh = float(vec.meta["rh_residual"]) / max(vec.norm(), 1e-300)
            entries.append({"lambda": p.lam, "roundtrip": roundtrip,
                            "rh_residual": rh, "window": vec.n_ext})
            _check(violations, "kernel roundtrip", roundtrip, lim, p.lam)
            _check(violations, "extension residual", rh, lim, p.lam)
    out = {"ok": not violations, "violations": violations,
           "lifts": entries}
    if not points:
        out["note"] = "empty point spectrum, nothing to lift"
    return out


def _task_factorize(space, scn, opts, factors=None):
    ilim = _limit(opts, "factorize_identity")
    tlim = _limit(opts, "factorize_tail")
    dlim = _limit(opts, "factorize_det")
    violations = []
    canonical = []
    G = opts.get("grid") or space.extension_grid()
    for lam in scn.lambdas:
        res = canonical_factors(space, lam, G=G)
        if factors is not None:
            factors[lam] = res
        chk = verify_factorization(res)
        canonical.append({"lambda": lam, "kind": res.kind, "grid": res.grid,
                          "region": res.extras["region"],
                          "warnings": list(res.warnings), **chk})
        for key in ("identity_residual", "reconstruction_residual",
                    "plus_identity_residual"):
            _check(violations, key, chk[key], ilim, lam)
        for key in ("plus_tail", "minus_tail"):
            _check(violations, key, chk[key], tlim, lam)
        for key in ("det_minus_dev", "det_plus_inverse_dev"):
            _check(violations, key, chk[key], dlim, lam)
    meromorphic = []
    for R in scn.rfactors:
        GR = opts.get("grid") or space.extension_grid(R)
        res = meromorphic_factors(space, R, G=GR)
        chk = verify_factorization(res)
        _, _, split_res = hminus_split(space, R, G=GR)
        meromorphic.append({"r": repr(R), "kind": res.kind, "grid": res.grid,
                            "split_residual": split_res, **chk})
        _check(violations, "meromorphic identity", chk["identity_residual"],
               ilim)
        _check(violations, "meromorphic plus identity",
               chk["plus_identity_residual"], ilim)
        _check(violations, "split residual", split_res, ilim)
    return {"ok": not violations, "violations": violations,
            "canonical": canonical, "meromorphic": meromorphic}


def _task_resolvent(space, scn, opts, factors=None):
    lim = _limit(opts, "resolvent")
    rng = np.random.default_rng(RESOLVENT_SEED)
    h = rng.standard_normal(2 * space.n) + \
        1j * rng.standard_normal(2 * space.n)
    violations = []
    solves = []
    for lam in scn.lambdas:
        _, diag = resolvent_apply(space, lam, h, G=opts.get("grid"),
                                  factors=(factors or {}).get(lam))
        solves.append({"lambda": lam, "residual": diag["residual"],
                       "cond_minus": diag["cond_minus"], "grid": diag["grid"],
                       "kind": diag["kind"], "region": diag["region"],
                       "warnings": diag["warnings"]})
        _check(violations, "resolvent residual", diag["residual"], lim, lam)
        violations.extend(f"resolvent warning at {lam}: {w}"
                          for w in diag["warnings"])
    return {"ok": not violations, "violations": violations,
            "solves": solves}


def _task_norm(space, scn, opts):
    lim = _limit(opts, "norm")
    rep = hankel_norm(space, scn.g)
    tnorm = float(np.linalg.norm(dualband_matrix(space, scn.g).entries, 2))
    # np.ptp, unlike max() - min() on a tuple, carries a NaN through
    spread = float(np.ptp([rep.norm, rep.matrix_norm, tnorm]))
    violations = []
    _check(violations, "norm spread", spread, lim)
    return {"ok": not violations, "violations": violations,
            "hankel_norm": rep.norm, "block_matrix_norm": rep.matrix_norm,
            "compression_norm": tnorm, "spread": spread,
            "hankel_block_shape": list(rep.block.shape)}


_TASKS = {
    "validate": _task_validate,
    "spectrum": _task_spectrum,
    "kernel": _task_kernel,
    "factorize": _task_factorize,
    "resolvent": _task_resolvent,
    "norm": _task_norm,
}
_PASSED = {"factorize": "factors", "resolvent": "factors",
           "spectrum": "spectrum", "kernel": "spectrum"}


# ---------------------------------------------------------------------------
# orchestration

def run_scenario(scn, opts, fail_fast=False):
    """Run a scenario's tasks; returns (report dict, exit code)."""
    tasks = opts.get("tasks") or scn.tasks
    check_prerequisites(scn, tasks)
    t_start = time.perf_counter()
    space = build_space(scn, grid=opts.get("grid"))

    results = {}
    timings = {}
    passed = {"factors": {}, "spectrum": {}}
    for name in tasks:
        t0 = time.perf_counter()
        shared = ({_PASSED[name]: passed[_PASSED[name]]}
                  if name in _PASSED else {})
        try:
            res = _TASKS[name](space, scn, opts, **shared)
        except DualbandError as exc:
            res = {"ok": False, "input_error": True,
                   "error": f"{type(exc).__name__}: {exc}",
                   "violations": []}
        results[name] = res
        timings[name] = time.perf_counter() - t0
        if fail_fast and not res["ok"]:
            break

    timings["total"] = time.perf_counter() - t_start
    report = {
        "schema": 1,
        "name": scn.name,
        "digest": scn.digest,
        "version": __version__,
        "tasks": {k: results[k] for k in sorted(results)},
        "timings": timings,
    }
    if any(r.get("input_error") for r in results.values()):
        code = 3
    elif any(not r["ok"] for r in results.values()):
        code = 2
    else:
        code = 0
    return report, code


def write_artifacts(report, out_dir, fmt="both"):
    os.makedirs(out_dir, exist_ok=True)
    name = report["name"]
    paths = []
    if fmt in ("json", "both"):
        path = os.path.join(out_dir, f"{name}.report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_jsonable(report), fh, sort_keys=True, indent=2)
            fh.write("\n")
        paths.append(path)
    spectrum = report["tasks"].get("spectrum")
    if fmt in ("csv", "both") and spectrum and "points" in spectrum:
        path = os.path.join(out_dir, f"{name}.eigs.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("re,im,ker_dim,residual\n")
            for p in spectrum["points"]:
                fh.write(f"{p['re']!r},{p['im']!r},{p['ker_dim']},"
                         f"{p['residual']!r}\n")
        paths.append(path)
    return paths


def golden_bytes(report):
    """Report serialization with the timing block removed."""
    body = {k: v for k, v in report.items() if k != "timings"}
    return (json.dumps(_jsonable(body), sort_keys=True, indent=2) +
            "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# argument handling

def _add_common(p, with_tasks=False):
    p.add_argument("--scenario", required=True, help="path to a .scn file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--grid", type=int, default=None,
                   help="override the sampling grid size")
    p.add_argument("--tol", type=float, default=None,
                   help="replace every contract threshold")
    p.add_argument("--cutoff", type=int, default=None,
                   help="starting coefficient window for extension lifts")
    p.add_argument("--format", choices=("json", "csv", "both"),
                   default="both")
    p.add_argument("--fail-fast", action="store_true",
                   help="stop at the first failing task")
    if with_tasks:
        p.add_argument("--tasks", default=None,
                       help="comma list overriding the scenario task list")


def _opts_from_args(args, forced_tasks=None):
    tasks = forced_tasks
    if tasks is None and getattr(args, "tasks", None):
        tasks = tuple(t.strip() for t in args.tasks.split(",") if t.strip())
        bad = [t for t in tasks if t not in TASK_NAMES and t != "all"]
        if bad:
            raise DualbandError(f"unknown tasks: {', '.join(bad)}")
        if "all" in tasks:
            tasks = TASK_NAMES
    return {"grid": args.grid, "tol": args.tol, "cutoff": args.cutoff,
            "tasks": tasks}


def _cmd_run(args, forced_tasks=None):
    try:
        scn = parse_scenario(args.scenario)
        # the command line wins over the scenario's [numerics]
        for key in ("grid", "tol", "cutoff"):
            if getattr(args, key) is None:
                setattr(args, key, getattr(scn, key))
        opts = _opts_from_args(args, forced_tasks)
        report, code = run_scenario(scn, opts, fail_fast=args.fail_fast)
    except (DualbandError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    write_artifacts(report, args.out, args.format)
    for name in sorted(report["tasks"]):
        res = report["tasks"][name]
        status = "ok" if res["ok"] else "FAIL"
        line = f"{report['name']}:{name}: {status}"
        if res.get("error"):
            line += f" ({res['error']})"
        for v in res.get("violations", []):
            line += f"\n  {v}"
        print(line)
    return code


def _cmd_regold(args):
    paths = sorted(glob.glob(os.path.join(args.directory, "*.scn")))
    if not paths:
        print(f"error: no scenarios under {args.directory}",
              file=sys.stderr)
        return 3
    out_dir = args.out or args.directory
    goldens = {}
    failures = []
    worst = 0
    for path in paths:
        try:
            scn = parse_scenario(path)
            opts = {"grid": scn.grid, "tol": scn.tol, "cutoff": scn.cutoff,
                    "tasks": None}
            report, code = run_scenario(scn, opts)
        except (DualbandError, OSError) as exc:
            failures.append(f"{path}: {exc}")
            worst = 3
            continue
        if code != 0:
            failing = [t for t, r in report["tasks"].items() if not r["ok"]]
            failures.append(f"{path}: tasks failed: {', '.join(failing)}")
            worst = max(worst, code)
            continue
        goldens[os.path.join(out_dir, f"{scn.name}.golden.json")] = \
            golden_bytes(report)
    if failures:
        print("refusing to regold, failing scenarios:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return worst
    os.makedirs(out_dir, exist_ok=True)
    for path, blob in goldens.items():
        with open(path, "wb") as fh:
            fh.write(blob)
        print(f"wrote {path}")
    return 0


@functools.cache
def _parser():
    """The argument parser, built once per process: ``parse_args`` fills
    a new namespace on every call, so no option value carries over."""
    parser = argparse.ArgumentParser(
        prog="dualband",
        description="dual-band Toeplitz verification runner")
    sub = parser.add_subparsers(dest="command")
    sub.required = True

    run_p = sub.add_parser("run", help="run a scenario's task list")
    _add_common(run_p, with_tasks=True)

    for name in TASK_NAMES:
        task_p = sub.add_parser(name, help=f"run only the {name} task")
        _add_common(task_p)

    regold_p = sub.add_parser(
        "regold", help="rebuild golden reports for a scenario directory")
    regold_p.add_argument("directory")
    regold_p.add_argument("--out", default=None)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "regold":
        return _cmd_regold(args)
    return _cmd_run(args, forced_tasks=(args.command,))


if __name__ == "__main__":
    sys.exit(main())
