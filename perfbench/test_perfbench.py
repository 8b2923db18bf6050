"""Tests of the benchmark itself: seeded inputs, self time, tracer hygiene."""

import os
import sys

import pytest

import bench_tracing
import bench_workloads
import run

if run.ROOT + os.sep + "src" not in sys.path:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))


@pytest.fixture(scope="module")
def mods():
    return run.Modules()


@pytest.mark.parametrize("name", sorted(bench_workloads.WORKLOADS))
def test_same_seed_same_input_digest(name, mods, tmp_path):
    cls = bench_workloads.WORKLOADS[name]
    first = cls(mods, 11, run.ROOT, str(tmp_path / "a")).digest()
    again = cls(mods, 11, run.ROOT, str(tmp_path / "b")).digest()
    other = cls(mods, 12, run.ROOT, str(tmp_path / "c")).digest()
    assert first == again
    assert first != other


def test_self_time_is_span_minus_child_cover():
    # span 0 = [0, 10] with children [1, 3] and [2, 5] (overlapping) and
    # [8, 12] (clipped at the parent's end); span 1 has a child [1.5, 2]
    starts = [0.0, 1.0, 2.0, 8.0, 1.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.0]
    parents = [-1, 0, 0, 0, 1]
    got = bench_tracing.self_times(starts, ends, parents)
    assert got == pytest.approx([10 - (4 + 2), 2 - 0.5, 3.0, 4.0, 0.5])


def test_tracer_records_nested_spans_and_sample_reuse(mods):
    tracer = bench_tracing.Tracer()
    LS = mods.symbols.LaurentSymbol
    with tracer.installed():
        mods.symbols.refine_grid(LS.monomial(1), start=16)
        LS.monomial(1).sample(16)
        LS.monomial(1).sample(32)
    assert tracer.names == ["symbols.refine_grid"] + ["symbols.sample"] * 3
    assert tracer.parents == [-1, 0, -1, -1]
    assert tracer.counters["symbols.sample.points"] == 64
    # equal content on the same grid is reuse, whatever the object
    assert tracer.counters["symbols.sample.repeats"] == 1
    assert tracer.layer_totals()["symbols.sample"][0] == 3


def _snapshot():
    mods = {k: m for k, m in sys.modules.items()
            if k == "dualband" or k.startswith("dualband.")}
    slots = {}
    for k, m in mods.items():
        for attr, val in vars(m).items():
            slots[(k, attr)] = val
            if isinstance(val, type):
                for meth, fn in vars(val).items():
                    slots[(k, attr, meth)] = fn
    return slots


def test_traced_run_restores_every_wrapped_function(mods):
    before = _snapshot()
    corpus = bench_workloads.Corpus(mods, 5, run.ROOT, "")
    case = bench_workloads.corpus_params(5, 0)
    tracer = bench_tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert mods.dual_band.build_dualband is not \
                before[("dualband.dual_band", "build_dualband")]
            corpus.run_case(case)
            raise RuntimeError("leave the block abnormally")
    assert "dual_band.build_dualband" in tracer.names
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_typed_errors_count_once_per_module(mods):
    LS = mods.symbols.LaurentSymbol
    theta = mods.symbols.InnerFunction.blaschke([0.0])
    tracer = bench_tracing.Tracer()
    with tracer.installed():
        with pytest.raises(mods.errors.DualbandError):
            # psi / phi = theta: the bands are degenerate
            mods.scenario.build_dualband(theta, phi=LS.constant(1.0),
                                         psi=LS.monomial(1))
    assert tracer.errors("dual_band") == 1
    assert tracer.errors("symbols") == 0


def test_tail_is_highest_percentile_with_ten_beyond():
    with pytest.raises(ValueError):
        run.tail(range(10))
    value, pct = run.tail([float(x) for x in range(12)])
    assert value == 1.0 and pct == pytest.approx(100 * 2 / 12)


def test_corpus_probe_takes_the_nilpotent_cases_of_the_first_pass(mods):
    corpus = bench_workloads.Corpus(mods, 5, run.ROOT, "")
    probe = corpus.probe_inputs()
    first = {p["id"] for p in corpus.pass_inputs(0)}
    assert [p["n"] for p in probe] == list(range(3, 9))
    assert all(bench_workloads.nilpotent(p) and p["id"] in first
               for p in probe)
