"""Span tracing of dualband's public functions, from outside the package.

The program is not modified.  ``Tracer.installed`` swaps each target
function for a wrapper that records a span (name, start, end, parent
span, case id) around the call, in every ``dualband`` module namespace
that holds the function and, for methods, on the class.  Leaving the
``with`` block puts every original object back.  Spans stay in memory
until the run writes them out.

A layer's self time is its span time minus the part of that interval
its child spans cover (``self_times``).
"""

import hashlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (layer name, defining module, attribute path).  A dotted attribute is a
# method: "Class.method".  The first name component is the module's short
# name, which is how per-layer metrics and error counts are keyed.
TARGETS = (
    ("symbols.sample", "dualband.symbols", "LaurentSymbol.sample"),
    ("symbols.inner_sample", "dualband.symbols", "InnerFunction.sample"),
    ("symbols.refine_grid", "dualband.symbols", "refine_grid"),
    ("model_space.basis_values", "dualband.model_space",
     "ModelSpaceBasis.values"),
    ("model_space.tto_matrix", "dualband.model_space", "tto_matrix"),
    ("dual_band.build_dualband", "dualband.dual_band", "build_dualband"),
    ("dual_band.block_w", "dualband.dual_band", "block_w"),
    ("dual_band.dualband_matrix", "dualband.dual_band", "dualband_matrix"),
    ("dual_band.unitary_equiv_check", "dualband.dual_band",
     "unitary_equiv_check"),
    ("dual_band.cm_symmetry_residual", "dualband.dual_band",
     "cm_symmetry_residual"),
    ("dual_band.is_zero_operator", "dualband.dual_band", "is_zero_operator"),
    ("matsym.max_tail", "dualband.matsym", "MatrixSymbol.max_tail"),
    ("matsym.solve_values", "dualband.matsym", "MatrixSymbol.solve_values"),
    ("matsym.matmul", "dualband.matsym", "MatrixSymbol.matmul"),
    ("extension.build_G", "dualband.extension", "build_G"),
    ("extension.kernel_lift", "dualband.extension", "kernel_lift"),
    ("extension.kernel_project", "dualband.extension", "kernel_project"),
    ("shift_spectra.point_spectrum", "dualband.shift_spectra",
     "point_spectrum"),
    ("shift_spectra.eigvec_build", "dualband.shift_spectra", "eigvec_build"),
    ("shift_spectra.solve_theta_equals", "dualband.shift_spectra",
     "solve_theta_equals"),
    ("factorization.canonical_factors", "dualband.factorization",
     "canonical_factors"),
    ("factorization.meromorphic_factors", "dualband.factorization",
     "meromorphic_factors"),
    ("factorization.hminus_split", "dualband.factorization", "hminus_split"),
    ("factorization.resolvent_apply", "dualband.factorization",
     "resolvent_apply"),
    ("factorization.verify_factorization", "dualband.factorization",
     "verify_factorization"),
    ("hankel.hankel_norm", "dualband.hankel", "hankel_norm"),
    ("scenario.parse_scenario", "dualband.scenario", "parse_scenario"),
    ("scenario.build_space", "dualband.scenario", "build_space"),
    ("cli.main", "dualband.cli", "main"),
    ("cli.run_scenario", "dualband.cli", "run_scenario"),
    ("cli.write_artifacts", "dualband.cli", "write_artifacts"),
)

MODULES = ("symbols", "model_space", "dual_band", "matsym", "extension",
           "shift_spectra", "factorization", "hankel", "scenario", "cli")


def symbol_key(sym, G):
    """Content key of one LaurentSymbol sample: kind, data and grid size.

    Object identity would be wrong here: temporaries are collected and
    their ids reused, so equal ids do not mean equal samples.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(sym.kind.encode())
    if sym.kind == "laurent":
        h.update(sym.coeffs.tobytes())
        h.update(str(sym.offset).encode())
    elif sym.kind == "rational":
        h.update(sym.num.tobytes())
        h.update(b"/")
        h.update(sym.den.tobytes())
        h.update(str(sym.shift).encode())
    else:
        h.update(sym.values.tobytes())
    h.update(b"@%d" % int(G))
    return h.digest()


def self_times(starts, ends, parents):
    """Span time minus the union of the intervals its children cover."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_s = cur_e = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, s), min(ce, e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries (sample points and reuse, factorization grid points,
    typed errors escaping each module)."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.cases = []
        self.case_id = ""
        self._stack = []
        self.counters = defaultdict(float)
        self.sample_keys = set()
        self._escaped = defaultdict(dict)   # module -> {id(exc): exc}
        self._patches = []                  # (owner, attr, original)

    # ------------------------------------------------------------ spans
    def open(self, name):
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.cases.append(self.case_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def errors(self, module):
        return len(self._escaped[module])

    # --------------------------------------------------------- wrapping
    def _wrap(self, name, fn, error_type):
        tracer = self
        module = name.split(".", 1)[0]
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except error_type as exc:
                tracer._escaped[module].setdefault(id(exc), exc)
                raise
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(tracer, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        error_type = sys.modules["dualband.errors"].DualbandError
        loaded = [m for k, m in sorted(sys.modules.items())
                  if k == "dualband" or k.startswith("dualband.")]
        try:
            for name, modname, attr in TARGETS:
                owner = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, self._wrap(name, orig, error_type))
                    continue
                orig = getattr(owner, attr)
                wrapper = self._wrap(name, orig, error_type)
                for mod in loaded:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, wrapper)
            yield self
        finally:
            while self._patches:
                owner, attr, orig = self._patches.pop()
                setattr(owner, attr, orig)

    # ---------------------------------------------------------- results
    def layer_totals(self):
        """{layer: (calls, self seconds)} over every recorded span."""
        totals = defaultdict(lambda: [0, 0.0])
        for name, st in zip(self.names,
                            self_times(self.starts, self.ends, self.parents)):
            totals[name][0] += 1
            totals[name][1] += st
        return {k: tuple(v) for k, v in totals.items()}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tcase\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{self.starts[i] - t0!r}\t"
                         f"{self.ends[i] - t0!r}\t{self.parents[i]}\t"
                         f"{self.cases[i]}\n")


def _observe_sample(tracer, args, kwargs, out):
    sym = args[0]
    G = args[1] if len(args) > 1 else kwargs["G"]
    tracer.counters["symbols.sample.points"] += int(G)
    key = symbol_key(sym, G)
    if key in tracer.sample_keys:
        tracer.counters["symbols.sample.repeats"] += 1
    else:
        tracer.sample_keys.add(key)


def _observe_factors(tracer, args, kwargs, out):
    tracer.counters["factorization.grid_points"] += int(out.grid)


_OBSERVERS = {
    "symbols.sample": _observe_sample,
    "factorization.canonical_factors": _observe_factors,
    "factorization.meromorphic_factors": _observe_factors,
}
