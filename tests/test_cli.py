"""Command line runner: exit codes, artifacts, determinism, goldens."""

import dataclasses
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from dualband.cli import _check, golden_bytes, main

SCN_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                       "scenarios"))
NILPOTENT = os.path.join(SCN_DIR, "nilpotent.scn")
CASE_II = os.path.join(SCN_DIR, "case_ii.scn")

DEGENERATE = """
[space]
theta = mono(2)
phi = mono(0)
psi = mono(2)

[operator]
g = mono(1)

[tasks]
run = validate
"""


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestRun:
    def test_all_scenarios_pass(self, tmp_path):
        for fname in sorted(os.listdir(SCN_DIR)):
            if not fname.endswith(".scn"):
                continue
            path = os.path.join(SCN_DIR, fname)
            code = main(["run", "--scenario", path, "--out", str(tmp_path)])
            assert code == 0, fname

    def test_report_structure(self, tmp_path):
        assert main(["run", "--scenario", NILPOTENT,
                     "--out", str(tmp_path)]) == 0
        rep = read_json(tmp_path / "nilpotent.report.json")
        assert rep["schema"] == 1
        assert rep["name"] == "nilpotent"
        assert len(rep["digest"]) == 64
        assert set(rep["tasks"]) == {"validate", "spectrum", "kernel",
                                     "factorize", "resolvent", "norm"}
        assert all(res["ok"] for res in rep["tasks"].values())
        assert set(rep["tasks"]) <= set(rep["timings"])
        assert "total" in rep["timings"]

    def test_eigenvalue_csv(self, tmp_path):
        assert main(["run", "--scenario", NILPOTENT,
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "nilpotent.eigs.csv").read_text().splitlines()
        assert lines[0] == "re,im,ker_dim,residual"
        assert len(lines) == 2
        re_, im_, dim, res = lines[1].split(",")
        assert float(re_) == 0.0
        assert float(im_) == 0.0
        assert int(dim) == 2
        assert float(res) < 1e-12

    def test_degenerate_input_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(DEGENERATE, encoding="utf-8")
        code = main(["run", "--scenario", str(bad), "--out", str(tmp_path)])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("warn", ["default", "error"])
    @pytest.mark.parametrize("theta", [
        "mono(0)", "atomic([(2, 1)])", "atomic([])",
        "blaschke([0.5]) * atomic([(1, 1)])"])
    def test_bad_theta_exit_three(self, tmp_path, capsys, theta, warn):
        bad = tmp_path / "bad.scn"
        bad.write_text(DEGENERATE.replace("mono(2)\nphi", f"{theta}\nphi"),
                       encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter(warn)
            code = main(["run", "--scenario", str(bad),
                         "--out", str(tmp_path)])
        assert code == 3
        assert "error: line 3" in capsys.readouterr().err

    def test_missing_file_exit_three(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "nope.scn")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_impossible_tolerance_exit_two(self, tmp_path):
        code = main(["run", "--scenario", NILPOTENT, "--out", str(tmp_path),
                     "--tol", "1e-20", "--tasks", "validate"])
        assert code == 2
        rep = read_json(tmp_path / "nilpotent.report.json")
        assert not rep["tasks"]["validate"]["ok"]
        assert rep["tasks"]["validate"]["violations"]

    def test_deterministic_reports(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            out.mkdir()
            assert main(["run", "--scenario", NILPOTENT,
                         "--out", str(out)]) == 0
        ra = golden_bytes(read_json(a / "nilpotent.report.json"))
        rb = golden_bytes(read_json(b / "nilpotent.report.json"))
        assert ra == rb
        assert (a / "nilpotent.eigs.csv").read_bytes() == \
            (b / "nilpotent.eigs.csv").read_bytes()


class TestNumericsGrid:
    """A scenario's [numerics] grid reaches the tasks; --grid wins."""

    @pytest.mark.parametrize("command, flags, want", [
        ("run", [], 8192),
        ("regold", [], 8192),
        ("run", ["--grid", "4096"], 4096),
    ])
    def test_grid_reaches_factorize(self, tmp_path, monkeypatch, command,
                                    flags, want):
        import dualband.cli as cli
        seen = []
        real = cli.canonical_factors

        def recording(space, lam, G=None):
            seen.append(G)
            return real(space, lam, G=G)

        monkeypatch.setattr(cli, "canonical_factors", recording)
        text = Path(NILPOTENT).read_text(encoding="utf-8")
        text = text.replace("run = all", "run = factorize")
        text = text.replace("[tasks]", "[numerics]\ngrid = 8192\n\n[tasks]")
        scn = tmp_path / "gridded.scn"
        scn.write_text(text, encoding="utf-8")
        out = str(tmp_path / "out")
        if command == "run":
            argv = ["run", "--scenario", str(scn), "--out", out] + flags
        else:
            argv = ["regold", str(tmp_path), "--out", out]
        assert main(argv) == 0
        assert seen and set(seen) == {want}


class TestFactorsBuiltOnce:
    def test_one_build_per_space_lambda_grid(self, tmp_path, monkeypatch):
        # the resolvent task solves with the factorize task's factors
        import dualband.cli as cli
        import dualband.factorization as fz
        builds = []
        real = fz.canonical_factors

        def recording(space, lam, G=None):
            res = real(space, lam, G=G)
            builds.append((id(space), res.lam, res.grid))
            return res

        monkeypatch.setattr(cli, "canonical_factors", recording)
        monkeypatch.setattr(fz, "canonical_factors", recording)
        path = os.path.join(SCN_DIR, "blaschke_twist.scn")
        assert main(["run", "--scenario", path, "--out", str(tmp_path)]) == 0
        rep = read_json(tmp_path / "blaschke_twist.report.json")
        assert len(rep["tasks"]["resolvent"]["solves"]) == 4
        assert len(builds) == len(set(builds)) == 4


class TestResultsPassedAlong:
    """One run does each step once and hands its result to the next."""

    @pytest.fixture
    def spectra(self, monkeypatch):
        """The cross_check flag of every point_spectrum call the CLI
        makes."""
        import dualband.cli as cli
        calls = []
        real = cli.point_spectrum

        def counting(space, cross_check=True):
            calls.append(cross_check)
            return real(space, cross_check=cross_check)

        monkeypatch.setattr(cli, "point_spectrum", counting)
        return calls

    def test_kernel_reads_the_spectrum_task_points(self, tmp_path, spectra):
        path = os.path.join(SCN_DIR, "blaschke_twist.scn")
        assert main(["run", "--scenario", path, "--out", str(tmp_path),
                     "--tasks", "spectrum,kernel"]) == 0
        assert spectra == [True]
        rep = read_json(tmp_path / "blaschke_twist.report.json")
        assert len(rep["tasks"]["kernel"]["lifts"]) == 4

    def test_kernel_alone_computes_its_own(self, tmp_path, spectra):
        assert main(["kernel", "--scenario", CASE_II,
                     "--out", str(tmp_path)]) == 0
        assert spectra == [False]

    def test_kernel_report_is_the_same_either_way(self, tmp_path):
        path = os.path.join(SCN_DIR, "blaschke_twist.scn")
        reports = []
        for tasks in ("spectrum,kernel", "kernel"):
            out = tmp_path / tasks.replace(",", "_")
            assert main(["run", "--scenario", path, "--out", str(out),
                         "--tasks", tasks]) == 0
            rep = read_json(out / "blaschke_twist.report.json")
            reports.append(json.dumps(rep["tasks"]["kernel"],
                                      sort_keys=True))
        assert reports[0] == reports[1]

    def test_factorize_grids_once_per_symbol(self, tmp_path, monkeypatch):
        from dualband.dual_band import DualBandSpace
        calls = []
        real = DualBandSpace.extension_grid

        def counting(self, g=None, n_ext=0):
            calls.append(g)
            return real(self, g, n_ext)

        monkeypatch.setattr(DualBandSpace, "extension_grid", counting)
        path = os.path.join(SCN_DIR, "blaschke_twist.scn")
        assert main(["run", "--scenario", path, "--out", str(tmp_path),
                     "--tasks", "factorize"]) == 0
        # one grid for the four lambdas, one for each of the three R
        assert len(calls) == 4
        assert calls[0] is None and all(g is not None for g in calls[1:])

    def test_calls_share_no_option_values(self, tmp_path):
        # the parser is built once per process; options are not
        assert main(["run", "--scenario", NILPOTENT, "--out", str(tmp_path),
                     "--tol", "1e-20"]) == 2
        assert main(["run", "--scenario", NILPOTENT,
                     "--out", str(tmp_path)]) == 0


class TestSugar:
    def test_single_task(self, tmp_path):
        code = main(["spectrum", "--scenario", CASE_II,
                     "--out", str(tmp_path)])
        assert code == 0
        rep = read_json(tmp_path / "case_ii.report.json")
        assert list(rep["tasks"]) == ["spectrum"]
        pts = rep["tasks"]["spectrum"]["points"]
        assert len(pts) == 2

    def test_missing_prerequisite(self, tmp_path, capsys):
        code = main(["norm", "--scenario", CASE_II, "--out", str(tmp_path)])
        assert code == 3
        assert "error:" in capsys.readouterr().err


class TestRegold:
    def test_write_and_reproduce(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["regold", SCN_DIR, "--out", str(first)]) == 0
        assert main(["regold", SCN_DIR, "--out", str(second)]) == 0
        names = sorted(os.listdir(first))
        assert names == ["blaschke_twist.golden.json", "case_ii.golden.json",
                         "nilpotent.golden.json"]
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_refuses_on_failure(self, tmp_path, capsys):
        scn_dir = tmp_path / "scn"
        scn_dir.mkdir()
        text = Path(NILPOTENT).read_text(encoding="utf-8")
        text = text.replace("[tasks]", "[numerics]\ntol = 1e-16\n\n[tasks]")
        (scn_dir / "doomed.scn").write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["regold", str(scn_dir), "--out", str(out)])
        assert code == 2
        assert "refusing to regold" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_directory(self, tmp_path, capsys):
        code = main(["regold", str(tmp_path)])
        assert code == 3
        assert "no scenarios" in capsys.readouterr().err


class TestNonFiniteResidual:
    """A NaN residual fails its contract: NaN > limit is False."""

    @pytest.mark.parametrize("value, where, want", [
        (2e-3, 0.5 + 0j, ["kernel roundtrip 2.000e-03 at (0.5+0j) exceeds "
                          "1.000e-08"]),
        (np.nan, 0j, ["kernel roundtrip nan at 0j exceeds 1.000e-08"]),
        (np.nan, "", ["kernel roundtrip nan exceeds 1.000e-08"]),
        (1e-8, 0.5, []),
    ])
    def test_check_formats_each_violation(self, value, where, want):
        violations = []
        _check(violations, "kernel roundtrip", value, 1e-8, where)
        assert violations == want

    def test_nan_minus_factor_fails_factorize(self, tmp_path, monkeypatch):
        import dualband.cli as cli
        real = cli.canonical_factors

        def planted(space, lam, G=None):
            res = real(space, lam, G=G)
            res.minus.values[0, 0, 7] = np.nan
            return res

        monkeypatch.setattr(cli, "canonical_factors", planted)
        out = str(tmp_path / "out")
        code = main(["factorize", "--scenario", CASE_II, "--out", out])
        assert code == 2
        task = read_json(os.path.join(out, "case_ii.report.json"))[
            "tasks"]["factorize"]
        assert task["ok"] is False
        text = "\n".join(task["violations"])
        for key in ("identity_residual", "reconstruction_residual",
                    "minus_tail", "det_minus_dev"):
            assert key in text

    def test_nan_norm_fails_norm(self, tmp_path, monkeypatch):
        import dualband.cli as cli
        real = cli.hankel_norm

        def planted(space, g):
            return dataclasses.replace(real(space, g), matrix_norm=np.nan)

        monkeypatch.setattr(cli, "hankel_norm", planted)
        code = main(["norm", "--scenario", NILPOTENT,
                     "--out", str(tmp_path)])
        assert code == 2
