"""The benchmark's workloads: seeded inputs, one case at a time, checked.

Every workload is a sequence of passes.  A pass is a fixed list of case
inputs made from the workload seed alone, so that per-pass statistics
(median, tail percentile, worst residual) do not depend on how fast the
program is.  ``run_case`` calls the program, times only the program's
calls, and checks every output against ``cli.CONTRACTS``.

* ``scenarios``: the shipped ``.scn`` files with seeded ``[lambdas]``,
  run through ``dualband.cli.main(["run", ...])``.  Each input repeats
  within a pass, so repeated sampling and factorization work shows, and
  golden bytes must match across the repeats.
* ``twist_sweep``: the twist family at n in {16, 32, 64}, a in {0.3, 0.5}:
  dense assembly, per-point rebuilds, large grids.
* ``corpus``: many small, fresh spaces of four kinds; no input repeats
  anywhere in a run, so nothing carries over from one case to the next.
  Its nilpotent cases skip ``point_spectrum``, which fails on them (the
  known defect); ``Corpus.run_probe`` runs that step apart and reports it.
"""

import contextlib
import glob
import hashlib
import io
import json
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

SCENARIO_VARIANTS = 6      # seeded [lambdas] per shipped scenario
SCENARIO_REPEATS = 2       # each variant runs this often per pass
TWIST_GRID = tuple((n, a) for n in (16, 32, 64) for a in (0.3, 0.5))
TWIST_REPEATS = 3          # seeded cases per (n, a) per pass
CORPUS_PASS = 200          # fresh corpus cases per pass
CORPUS_KINDS = ("monomial", "twist", "free", "realized_theta")
KERNEL_WINDOW = 128        # the CLI's default extension window


@dataclass
class CaseResult:
    case_id: str
    seconds: float
    violations: list = field(default_factory=list)  # (code, message)
    worst_ratio: float = 0.0       # max checked residual / its limit
    known_defect: bool = False
    task_seconds: dict = field(default_factory=dict)

    @property
    def failed(self):
        return bool(self.violations)


class Checker:
    """Collects residual-versus-contract checks for one case."""

    def __init__(self, contracts):
        self.contracts = contracts
        self.violations = []
        self.worst = 0.0

    def residual(self, key, value, where):
        limit = self.contracts[key]
        value = float(value)
        self.worst = max(self.worst, value / limit)
        if not value <= limit:
            self.violations.append(
                (key, f"{where}: {value:.3e} exceeds the {key} limit "
                      f"{limit:.1e}"))

    def require(self, code, ok, message):
        if not ok:
            self.violations.append((code, message))


def _complex_literal(z):
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real!r} {sign} {abs(z.imag)!r}i"


def _seeded_lambdas(rng):
    """Two points with |lam| in [0.1, 0.5] and two with |lam| in [3, 10]."""
    radii = np.concatenate([rng.uniform(0.1, 0.5, 2), rng.uniform(3, 10, 2)])
    angles = rng.uniform(0, 2 * np.pi, 4)
    return [complex(r * np.cos(t), r * np.sin(t))
            for r, t in zip(radii, angles)]


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# scenarios

_LAMBDA_LINE = re.compile(r"(?ms)^(\[lambdas\][^\[]*?^values\s*=)[^\n]*$")


class Scenarios:
    name = "scenarios"

    def __init__(self, mods, seed, root, workdir):
        # workdir must be fresh: on ext4, rewriting a file that was just
        # written waits for its blocks to reach disk (about 50 ms on a
        # virtual disk), which would put disk latency into the measured times
        self.mods = mods
        self.workdir = workdir
        self.runs = 0
        paths = sorted(glob.glob(os.path.join(root, "scenarios", "*.scn")))
        if not paths:
            raise FileNotFoundError("no scenarios/*.scn under the checkout")
        rng = np.random.default_rng([seed, 1])
        self.inputs = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            stem = os.path.splitext(os.path.basename(path))[0]
            for v in range(SCENARIO_VARIANTS):
                lams = ", ".join(_complex_literal(z)
                                 for z in _seeded_lambdas(rng))
                new, count = _LAMBDA_LINE.subn(
                    lambda m, lams=lams: f"{m.group(1)} {lams}", text)
                if count != 1:
                    raise ValueError(f"{path}: no [lambdas] values line")
                vid = f"{stem}-v{v}"
                scn_path = os.path.join(workdir, "inputs", vid + ".scn")
                os.makedirs(os.path.dirname(scn_path), exist_ok=True)
                with open(scn_path, "w", encoding="utf-8") as fh:
                    fh.write(new)
                self.inputs.append({"id": vid, "text": new,
                                    "path": scn_path})
        self.golden = {}

    def digest(self):
        return _digest([(i["id"], i["text"]) for i in self.inputs])

    def warmup_inputs(self):
        # one input whose task list is longest, so every task has run once
        parse = self.mods.scenario.parse_scenario_text
        firsts = [i for i in self.inputs if i["id"].endswith("-v0")]
        return [max(firsts, key=lambda i: len(parse(i["text"]).tasks))]

    def pass_inputs(self, k):
        return [i for _ in range(SCENARIO_REPEATS) for i in self.inputs]

    def run_case(self, case):
        cli = self.mods.cli
        out = io.StringIO()
        err = io.StringIO()
        self.runs += 1
        out_dir = os.path.join(self.workdir, "out", str(self.runs))
        argv = ["run", "--scenario", case["path"], "--out", out_dir]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        dt = time.perf_counter() - t0
        chk = Checker(cli.CONTRACTS)
        chk.require("exit", code == 0,
                    f"exit code {code}: {err.getvalue().strip()}")
        report = None
        if code in (0, 2):
            name = re.search(r"(?m)^name\s*=\s*(\S+)", case["text"]).group(1)
            with open(os.path.join(out_dir, f"{name}.report.json"),
                      encoding="utf-8") as fh:
                report = json.load(fh)
            _check_report(report, chk)
            blob = cli.golden_bytes(report)
            first = self.golden.setdefault(case["id"], blob)
            chk.require("golden", blob == first,
                        "golden bytes differ from an earlier repeat")
        timings = {k: v for k, v in (report or {}).get("timings", {}).items()
                   if k != "total"}
        return CaseResult(case["id"], dt, chk.violations, chk.worst,
                          task_seconds=timings)


def _check_report(report, chk):
    """Every residual the CLI checks, re-checked against CONTRACTS."""
    for name, res in report["tasks"].items():
        chk.require("task", res.get("ok"),
                    f"task {name} failed: {res.get('error') or ''} "
                    f"{res.get('violations')}")
    tasks = report["tasks"]
    if "validate" in tasks:
        t = tasks["validate"]
        chk.residual("validate", t["block_assembly_residual"], "validate")
        chk.residual("validate", t["cm_symmetry_residual"], "validate")
    if "spectrum" in tasks:
        t = tasks["spectrum"]
        for p in t.get("points", []):
            chk.residual("spectrum", p["residual"], "spectrum")
        chk.require("cross_check", t.get("cross_check", {}).get("agrees"),
                    "matrix eigensolver disagrees with the root finder")
    if "kernel" in tasks:
        for e in tasks["kernel"].get("lifts", []):
            chk.residual("kernel", e["roundtrip"], "kernel roundtrip")
            chk.residual("kernel", e["rh_residual"], "kernel rh")
    if "factorize" in tasks:
        t = tasks["factorize"]
        for e in t.get("canonical", []):
            for key, limit in (("identity_residual", "factorize_identity"),
                               ("reconstruction_residual",
                                "factorize_identity"),
                               ("plus_tail", "factorize_tail"),
                               ("minus_tail", "factorize_tail"),
                               ("det_minus_dev", "factorize_det"),
                               ("det_plus_inverse_dev", "factorize_det")):
                if key in e:
                    chk.residual(limit, e[key], f"canonical {key}")
        for e in t.get("meromorphic", []):
            chk.residual("factorize_identity", e["identity_residual"],
                         "meromorphic identity")
            chk.residual("factorize_identity", e["split_residual"],
                         "meromorphic split")
    if "resolvent" in tasks:
        for s in tasks["resolvent"].get("solves", []):
            chk.residual("resolvent", s["residual"], "resolvent")
    if "norm" in tasks:
        chk.residual("norm", tasks["norm"]["spread"], "norm spread")


# ---------------------------------------------------------------------------
# twist family

def twist_space(mods, n, a):
    """The acceptance tests' twist family: psi = conj(z^n) (z^2n - a) /
    (1 - a z^2n) over theta = z^n, phi = 1."""
    LS = mods.symbols.LaurentSymbol
    num = [0.0] * (2 * n + 1)
    den = [0.0] * (2 * n + 1)
    num[0], num[2 * n] = -a, 1.0
    den[0], den[2 * n] = 1.0, -a
    blk = LS.rational(num, den)
    theta = mods.symbols.InnerFunction.blaschke([0.0] * n)
    return mods.dual_band.build_dualband(
        theta, phi=LS.constant(1.0), psi=LS.monomial(n).conj() * blk)


class TwistSweep:
    name = "twist_sweep"

    def __init__(self, mods, seed, root, workdir):
        self.mods = mods
        rng = np.random.default_rng([seed, 2])
        cases = []
        for r in range(TWIST_REPEATS):
            for n, a in TWIST_GRID:
                cases.append({
                    "id": f"n{n}-a{a}-r{r}", "n": n, "a": a,
                    "pick": int(rng.integers(0, 2 ** 31)),
                    "lam_angle": float(rng.uniform(0, 2 * np.pi)),
                    "h": rng.standard_normal((2, 2 * n)).tolist()})
        # a fixed order: each case follows the same predecessor whatever
        # the seed, so memory left behind by an n = 64 case lands alike
        self.inputs = cases
        # warm up on the largest grid below n = 64, so the first round of
        # a pass does not pay for the allocator growing the heap
        first = next(c for c in cases if (c["n"], c["a"]) == (32, 0.5))
        self.warmup = [{**first, "id": "warmup",
                        "h": rng.standard_normal((2, 64)).tolist()}]

    def digest(self):
        return _digest(self.inputs)

    def warmup_inputs(self):
        return self.warmup

    def pass_inputs(self, k):
        return self.inputs

    def run_case(self, case):
        m = self.mods
        n, a = case["n"], case["a"]
        lam = 0.3 * np.exp(1j * case["lam_angle"])
        h = np.asarray(case["h"][0]) + 1j * np.asarray(case["h"][1])
        lifts = []
        t0 = time.perf_counter()
        space = twist_space(m, n, a)
        rep = m.shift_spectra.point_spectrum(space)
        pick = np.random.default_rng(case["pick"]).choice(
            len(rep.points), size=min(2, len(rep.points)), replace=False)
        for i in pick:
            p = rep.points[i]
            row = p.coords[0]
            vec = m.extension.kernel_lift(space, row, lam=p.lam,
                                          n_ext=KERNEL_WINDOW)
            back = m.extension.kernel_project(space, vec, lam=p.lam)
            lifts.append((row, vec, back))
        _, diag = m.factorization.resolvent_apply(space, lam, h)
        dt = time.perf_counter() - t0

        chk = Checker(m.cli.CONTRACTS)
        _check_spectrum(rep, chk)
        chk.require("eigen_count", len(rep.points) == 2 * n,
                    f"{len(rep.points)} eigenvalues, expected {2 * n}")
        for row, vec, back in lifts:
            scale = float(np.linalg.norm(row))
            chk.residual("kernel", np.linalg.norm(back - row) / scale,
                         "kernel roundtrip")
            chk.residual("kernel",
                         vec.meta["rh_residual"] / max(vec.norm(), 1e-300),
                         "kernel rh")
        chk.residual("resolvent", diag["residual"], "resolvent")
        return CaseResult(case["id"], dt, chk.violations, chk.worst)


def _check_spectrum(rep, chk):
    for p in rep.points:
        chk.residual("spectrum", p.residual, "eigenvector")
    chk.require("cross_check", rep.cross_check.get("agrees"),
                "matrix eigensolver disagrees with the root finder")


# ---------------------------------------------------------------------------
# corpus

def _cplx(rng, size, scale=1.0):
    """Random complex coefficients as [re, im] pairs."""
    return (scale * rng.standard_normal((size, 2))).tolist()


def _complex(pairs):
    return [complex(re, im) for re, im in pairs]


def _disc_zeros(rng, n):
    r = 0.7 * np.sqrt(rng.random(n))
    t = rng.uniform(0, 2 * np.pi, n)
    return np.column_stack([r * np.cos(t), r * np.sin(t)]).tolist()


def corpus_params(seed, k, stream=3):
    """Inputs of corpus case k: plain numbers, so they digest exactly."""
    rng = np.random.default_rng([seed, stream, k])
    # kind and n cycle rather than being drawn, so every pass holds the
    # same mix and its median case does not move with the seed
    kind = CORPUS_KINDS[k % len(CORPUS_KINDS)]
    n = 1 + (k // len(CORPUS_KINDS)) % 8
    p = {"id": f"c{k:06d}-{kind}-n{n}", "kind": kind, "n": n}
    if kind == "monomial":
        a = int(rng.integers(0, 4))
        b = a + n + 1 + int(rng.integers(0, 4))
        # g = z^(b-a) * (analytic), so every symbol entry is analytic and
        # the Hankel norm applies
        p.update(a=a, b=b, g=_cplx(rng, int(rng.integers(1, 5))), g_off=b - a)
    else:
        lo = -int(rng.integers(0, 3))
        p.update(g=_cplx(rng, int(rng.integers(1, 4)) - lo), g_off=lo)
    if kind == "twist":
        p["a"] = float(rng.uniform(0.2, 0.6))
    elif kind in ("free", "realized_theta"):
        p["zeros"] = _disc_zeros(rng, n)
        if kind == "free":
            p["aplus"] = _cplx(rng, int(rng.integers(1, 3)), 0.7)
            p["aminus"] = _cplx(rng, int(rng.integers(1, 3)), 0.7)
    return p


class Corpus:
    name = "corpus"

    def __init__(self, mods, seed, root, workdir):
        self.mods = mods
        self.seed = seed

    def digest(self):
        return _digest([corpus_params(self.seed, k)
                        for k in range(CORPUS_PASS)])

    def warmup_inputs(self):
        # a stream of its own, so no measured input is seen in set-up, and
        # the same for every seed, so set-up does the same work every run
        return [{**p, "id": "warmup-" + p["id"]}
                for p in (corpus_params(0, k, stream=4)
                          for k in range(4 * len(CORPUS_KINDS)))]

    def pass_inputs(self, k):
        return [corpus_params(self.seed, k * CORPUS_PASS + j)
                for j in range(CORPUS_PASS)]

    def _space(self, p):
        m = self.mods
        LS = m.symbols.LaurentSymbol
        IF = m.symbols.InnerFunction
        build = m.dual_band.build_dualband
        n = p["n"]
        if p["kind"] == "monomial":
            return build(IF.blaschke([0.0] * n), phi=LS.monomial(p["a"]),
                         psi=LS.monomial(p["b"]))
        if p["kind"] == "twist":
            return twist_space(m, n, p["a"])
        theta = IF.blaschke(_complex(p["zeros"]))
        if p["kind"] == "free":
            aplus = LS.from_coeffs(_complex(p["aplus"]), 0)
            aminus = LS.from_coeffs(_complex(p["aminus"]),
                                    1 - len(p["aminus"]))
            return build(theta, aplus=aplus, aminus=aminus)
        return build(theta, phi=LS.constant(1.0),
                     psi=LS.monomial(1) * theta.as_symbol())

    def run_case(self, p):
        m = self.mods
        db = m.dual_band
        chk = Checker(m.cli.CONTRACTS)
        g = m.symbols.LaurentSymbol.from_coeffs(_complex(p["g"]), p["g_off"])
        realized = p["kind"] != "free"
        # the nilpotent cases hit the known defect in point_spectrum; the
        # probe below runs that step on them, outside the measured cases
        split = p["kind"] != "realized_theta" and not nilpotent(p)
        t0 = time.perf_counter()
        space = self._space(p)
        assembly = db.unitary_equiv_check(space, g) if realized else None
        cm = db.cm_symmetry_residual(space, g)
        zero, _ = db.is_zero_operator(space, g)
        tnorm = float(np.linalg.norm(db.dualband_matrix(space, g).entries, 2))
        hank = m.hankel.hankel_norm(space, g) \
            if p["kind"] == "monomial" else None
        rep = m.shift_spectra.point_spectrum(space) if split else None
        dt = time.perf_counter() - t0

        if assembly is not None:
            chk.residual("validate", assembly, "block assembly")
        chk.residual("validate", cm, "conjugation symmetry")
        chk.require("zero_test", zero == (tnorm <= 2 * space.n * 1e-10),
                    "block zero test disagrees with the operator norm")
        if hank is not None:
            chk.residual("norm", hank.gap, "hankel norm gap")
        if rep is not None:
            _check_spectrum(rep, chk)
            if p["kind"] == "twist":
                chk.require("eigen_count", len(rep.points) == 2 * p["n"],
                            f"{len(rep.points)} eigenvalues, expected "
                            f"{2 * p['n']}")
        return CaseResult(p["id"], dt, chk.violations, chk.worst)

    def probe_inputs(self):
        """The nilpotent cases of the first pass, one for each n >= 3."""
        seen, out = set(), []
        for p in self.pass_inputs(0):
            if nilpotent(p) and p["n"] not in seen:
                seen.add(p["n"])
                out.append(p)
        return out

    def run_probe(self, p):
        """point_spectrum on a nilpotent case: the step the measured
        corpus leaves out.  A cross-check disagreement and nothing else
        is the known defect."""
        chk = Checker(self.mods.cli.CONTRACTS)
        t0 = time.perf_counter()
        rep = self.mods.shift_spectra.point_spectrum(self._space(p))
        dt = time.perf_counter() - t0
        _check_spectrum(rep, chk)
        known = (bool(chk.violations) and
                 all(code == "cross_check" for code, _ in chk.violations))
        return CaseResult(p["id"], dt, chk.violations, chk.worst,
                          known_defect=known)


def nilpotent(p):
    """Monomial bands over z^n with n >= 3: the known-defect cases."""
    return p["kind"] == "monomial" and p["n"] >= 3


KNOWN_DEFECT = (
    "monomial bands over z^n with n >= 3: the shift compression is "
    "nilpotent with Jordan blocks of size n, the dense eigenvalues scatter "
    "to about eps^(1/n), and the spectrum cross-check compares them with "
    "an absolute gap of 1e-6, so it reports a disagreement on valid input")

WORKLOADS = {w.name: w for w in (Scenarios, TwistSweep, Corpus)}
