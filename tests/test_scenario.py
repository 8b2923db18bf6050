"""Scenario grammar: expressions, sections, prerequisites."""

import os

import numpy as np
import pytest

from dualband import (InnerFunction, LaurentSymbol, ScenarioError,
                      build_space, parse_scenario, parse_scenario_text)
from dualband.cli import main
from dualband.scenario import check_prerequisites, parse_expression

SCN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "scenarios")

NILPOTENT = """
[scenario]
name = nilpotent

[space]
theta = mono(2)
phi = mono(0)
psi = mono(3)

[operator]
g = mono(3)

[tasks]
run = all

[lambdas]
values = 0.3, 0.5 + 0.4i, 2.0

[rfactors]
values = poly([-0.3, 1]), poly([1, -2.5, 1])
"""

FREE = """
[space]
theta = blaschke([-0.4])
aplus = poly([2.5])
aminus = poly([2.5])

[tasks]
run = spectrum
"""


class TestExpressions:
    def test_monomial(self):
        s = parse_expression("mono(3)")
        assert isinstance(s, LaurentSymbol)
        assert s.support() == (3, 3)

    def test_poly_with_offset(self):
        s = parse_expression("poly([2, 1], -1)")
        assert s.support() == (-1, 0)
        cd = s.coeff_dict()
        assert cd[-1] == pytest.approx(2.0)
        assert cd[0] == pytest.approx(1.0)

    def test_rational(self):
        s = parse_expression("rat([0.75], [1, 0, 0, 0, -0.5])")
        assert s.eval_at(0.5) == pytest.approx(0.75 / (1 - 0.5 ** 5))

    def test_conj(self):
        s = parse_expression("conj(mono(2))")
        assert s.support() == (-2, -2)

    def test_complex_literals(self):
        assert parse_expression("0.5 + 0.4i") == 0.5 + 0.4j
        assert parse_expression("2j") == 2j
        assert parse_expression("-i") == -1j
        assert parse_expression("1.5e-1") == pytest.approx(0.15)

    def test_arithmetic(self):
        s = parse_expression("mono(1) * mono(2)")
        assert s.support() == (3, 3)
        s = parse_expression("(1 + 2i) * mono(0) - mono(1)")
        cd = s.coeff_dict()
        assert cd[0] == pytest.approx(1 + 2j)
        assert cd[1] == pytest.approx(-1.0)

    def test_blaschke_as_symbol(self):
        s = parse_expression("blaschke([0.5])")
        assert isinstance(s, LaurentSymbol)
        theta = InnerFunction.blaschke([0.5])
        assert s.eval_at(0.3) == pytest.approx(theta.eval_at(0.3))

    def test_inner_mode(self):
        f = parse_expression("blaschke([0, 0.5])", mode="inner")
        assert isinstance(f, InnerFunction)
        assert f.zeros.size == 2 and not f.points
        f = parse_expression("atomic([(1, 1), (-1, 0.5)])", mode="inner")
        assert f.zeros.size == 0
        assert len(f.points) == 2

    def test_inner_product(self):
        f = parse_expression("mono(1) * blaschke([0.5])", mode="inner")
        assert list(f.zeros) == [0.0, 0.5] and not f.is_monomial

    def test_unknown_name(self):
        with pytest.raises(ScenarioError, match="unknown"):
            parse_expression("wavelet(2)")

    def test_atomic_rejected_as_symbol(self):
        with pytest.raises(ScenarioError):
            parse_expression("atomic([(1, 1)])")

    def test_inner_sum_rejected(self):
        with pytest.raises(ScenarioError):
            parse_expression("mono(1) + mono(2)", mode="inner")

    def test_zero_outside_disc_rejected(self):
        with pytest.raises(ScenarioError):
            parse_expression("blaschke([2])", mode="inner")

    def test_trailing_garbage(self):
        with pytest.raises(ScenarioError):
            parse_expression("mono(1) mono(2)")


class TestSections:
    def test_full_roundtrip(self):
        scn = parse_scenario_text(NILPOTENT)
        assert scn.name == "nilpotent"
        assert scn.realized
        assert scn.theta.zeros.size == 2
        assert scn.g.support() == (3, 3)
        assert scn.tasks == ("validate", "spectrum", "kernel", "factorize",
                             "resolvent", "norm")
        assert scn.lambdas == (0.3 + 0j, 0.5 + 0.4j, 2.0 + 0j)
        assert len(scn.rfactors) == 2
        assert scn.rfactors[1].support() == (0, 2)

    def test_task_dedup_keeps_order(self):
        text = NILPOTENT.replace("run = all", "run = norm, all, norm")
        scn = parse_scenario_text(text)
        assert scn.tasks == ("norm", "validate", "spectrum", "kernel",
                             "factorize", "resolvent")

    def test_name_falls_back_to_hint(self):
        scn = parse_scenario_text(FREE, name_hint="free_case")
        assert scn.name == "free_case"
        assert not scn.realized

    def test_digest_tracks_text(self):
        a = parse_scenario_text(NILPOTENT)
        b = parse_scenario_text(NILPOTENT)
        c = parse_scenario_text(NILPOTENT + "\n# trailing comment\n")
        assert a.digest == b.digest
        assert a.digest != c.digest

    def test_comments_ignored(self):
        text = NILPOTENT.replace("theta = mono(2)",
                                 "theta = mono(2)  # squared shift")
        scn = parse_scenario_text(text)
        assert scn.theta.zeros.size == 2

    def test_unknown_section(self):
        with pytest.raises(ScenarioError, match="line 2.*unknown section"):
            parse_scenario_text("\n[bogus]\nkey = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ScenarioError, match="unknown key 'weight'"):
            parse_scenario_text("[space]\nweight = 2\n")

    def test_duplicate_key(self):
        text = "[space]\ntheta = mono(2)\ntheta = mono(3)\n"
        with pytest.raises(ScenarioError, match="line 3.*duplicate"):
            parse_scenario_text(text)

    def test_key_outside_section(self):
        with pytest.raises(ScenarioError, match="outside any section"):
            parse_scenario_text("theta = mono(2)\n")

    def test_unterminated_header(self):
        with pytest.raises(ScenarioError, match="unterminated"):
            parse_scenario_text("[space\ntheta = mono(2)\n")

    def test_missing_theta(self):
        with pytest.raises(ScenarioError, match="missing .space. theta"):
            parse_scenario_text("[tasks]\nrun = spectrum\n")

    def test_missing_tasks(self):
        text = "[space]\ntheta = mono(2)\nphi = mono(0)\npsi = mono(3)\n"
        with pytest.raises(ScenarioError, match="missing .tasks. run"):
            parse_scenario_text(text)

    def test_unknown_task(self):
        text = NILPOTENT.replace("run = all", "run = validate, audit")
        with pytest.raises(ScenarioError, match="unknown task 'audit'"):
            parse_scenario_text(text)

    def test_half_realized_space(self):
        text = NILPOTENT.replace("psi = mono(3)\n", "")
        with pytest.raises(ScenarioError, match="both phi and psi"):
            parse_scenario_text(text)

    def test_half_free_space(self):
        text = FREE.replace("aminus = poly([2.5])\n", "")
        with pytest.raises(ScenarioError, match="phi/psi or aplus/aminus"):
            parse_scenario_text(text)

    def test_rfactor_must_be_symbol(self):
        text = NILPOTENT.replace("values = poly([-0.3, 1]), poly([1, -2.5, 1])",
                                 "values = 3.0")
        with pytest.raises(ScenarioError, match="rfactors"):
            parse_scenario_text(text)

    def test_numbers_become_constant_symbols(self):
        scn = parse_scenario_text(NILPOTENT.replace("g = mono(3)", "g = 2")
                                  .replace("phi = mono(0)", "phi = 1"))
        assert scn.g.support() == (0, 0) and scn.g.coeffs[0] == 2
        assert scn.phi.support() == (0, 0) and scn.phi.coeffs[0] == 1

    @pytest.mark.parametrize("old, new", [
        ("g = mono(3)", "g = [1, 2]"), ("psi = mono(3)", "psi = [0, 1]")])
    def test_band_or_g_must_be_symbol(self, old, new):
        with pytest.raises(ScenarioError, match="a number or a symbol"):
            parse_scenario_text(NILPOTENT.replace(old, new))

    def test_numerics_section_exits_three(self, tmp_path, capsys):
        # the space's rules pick every grid and the runner's contracts
        # hold every limit; no section overrides either
        bad = tmp_path / "gridded.scn"
        bad.write_text(NILPOTENT + "\n[numerics]\ngrid = 4096\n",
                       encoding="utf-8")
        code = main(["run", "--scenario", str(bad), "--out", str(tmp_path)])
        assert code == 3
        assert "error: line 22: unknown section [numerics]" in \
            capsys.readouterr().err
        assert not (tmp_path / "nilpotent.report.json").exists()


class TestPrerequisites:
    def test_factorize_needs_lambdas(self):
        text = FREE.replace("run = spectrum", "run = factorize")
        with pytest.raises(ScenarioError, match="needs a .lambdas."):
            parse_scenario_text(text)

    def test_validate_needs_operator(self):
        text = NILPOTENT.replace("[operator]\ng = mono(3)\n\n", "")
        with pytest.raises(ScenarioError, match="needs an .operator."):
            parse_scenario_text(text)

    def test_norm_needs_realized_space(self):
        scn = parse_scenario_text(FREE + "\n[operator]\ng = mono(1)\n")
        with pytest.raises(ScenarioError, match="realized"):
            check_prerequisites(scn, tasks=("norm",))

    def test_unknown_task_name(self):
        scn = parse_scenario_text(FREE)
        with pytest.raises(ScenarioError, match="unknown task"):
            check_prerequisites(scn, tasks=("audit",))

    def test_subset_passes(self):
        scn = parse_scenario_text(FREE)
        check_prerequisites(scn, tasks=("spectrum", "kernel"))


class TestBuild:
    def test_realized(self):
        scn = parse_scenario_text(NILPOTENT)
        sp = build_space(scn)
        assert sp.mode == "realized"
        assert sp.n == 2

    def test_free(self):
        scn = parse_scenario_text(FREE)
        sp = build_space(scn)
        assert sp.mode == "free"
        assert sp.n == 1
        ap0, amb0 = sp.split_constants()
        assert ap0 == pytest.approx(2.5)
        assert amb0 == pytest.approx(2.5)

    def test_from_file(self, tmp_path):
        p = tmp_path / "case_a.scn"
        p.write_text(FREE, encoding="utf-8")
        scn = parse_scenario(str(p))
        assert scn.name == "case_a"
        assert scn.path == str(p)


# Each admitted value with its parse at the hand-written reader this
# module replaced: ("number", (re, im)); ("laurent", coeffs, offset);
# ("rational", num, den, shift); ("inner", const, zeros, points), every
# complex entry as an exact (re, im) pair, signed zeros included.
ADMITTED = [
    ('mono(0)', 'symbol', ('laurent', [(1.0, 0.0)], 0)),
    ('mono(2)', 'symbol', ('laurent', [(1.0, 0.0)], 2)),
    ('mono(3)', 'symbol', ('laurent', [(1.0, 0.0)], 3)),
    ('mono(1)', 'symbol', ('laurent', [(1.0, 0.0)], 1)),
    ('conj(mono(2)) * rat([-0.5, 0, 0, 0, 1], [1, 0, 0, 0, -0.5])', 'symbol', ('rational', [(-0.5, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (1.0, 0.0)], [(1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (-0.5, 0.0)], -2)),
    ('poly([1, -0.7, 0.2], 0)', 'symbol', ('laurent', [(1.0, 0.0), (-0.7, -0.0), (0.2, 0.0)], 0)),
    ('poly([-0.3, 1])', 'symbol', ('laurent', [(-0.3, -0.0), (1.0, 0.0)], 0)),
    ('poly([-2, 1])', 'symbol', ('laurent', [(-2.0, -0.0), (1.0, 0.0)], 0)),
    ('poly([1, -2.5, 1])', 'symbol', ('laurent', [(1.0, 0.0), (-2.5, -0.0), (1.0, 0.0)], 0)),
    ('poly([2.5])', 'symbol', ('laurent', [(2.5, 0.0)], 0)),
    ('poly([2, 1], -1)', 'symbol', ('laurent', [(2.0, 0.0), (1.0, 0.0)], -1)),
    ('rat([0.75], [1, 0, 0, 0, -0.5])', 'symbol', ('rational', [(0.75, 0.0)], [(1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (-0.5, -0.0)], 0)),
    ('conj(mono(2))', 'symbol', ('laurent', [(1.0, -0.0)], -2)),
    ('mono(1) * mono(2)', 'symbol', ('laurent', [(1.0, 0.0)], 3)),
    ('(1 + 2i) * mono(0) - mono(1)', 'symbol', ('laurent', [(1.0, 2.0), (-1.0, 0.0)], 0)),
    ('blaschke([0.5])', 'symbol', ('rational', [(-0.5, 0.0), (1.0, 0.0)], [(1.0, 0.0), (-0.5, 0.0)], 0)),
    ('0.3', 'symbol', ('number', (0.3, 0.0))),
    ('0.5 + 0.4i', 'symbol', ('number', (0.5, 0.4))),
    ('2.0', 'symbol', ('number', (2.0, 0.0))),
    ('10.0', 'symbol', ('number', (10.0, 0.0))),
    ('0.2', 'symbol', ('number', (0.2, 0.0))),
    ('0.1 + 0.3i', 'symbol', ('number', (0.1, 0.3))),
    ('3.0', 'symbol', ('number', (3.0, 0.0))),
    ('2', 'symbol', ('number', (2.0, 0.0))),
    ('1', 'symbol', ('number', (1.0, 0.0))),
    ('2048', 'symbol', ('number', (2048.0, 0.0))),
    ('1e-9', 'symbol', ('number', (1e-09, 0.0))),
    ('-1e-9', 'symbol', ('number', (-1e-09, -0.0))),
    ('64', 'symbol', ('number', (64.0, 0.0))),
    ('12.5', 'symbol', ('number', (12.5, 0.0))),
    ('1.5e-1', 'symbol', ('number', (0.15, 0.0))),
    ('2j', 'symbol', ('number', (0.0, 2.0))),
    ('-i', 'symbol', ('number', (-0.0, -1.0))),
    ('1.5e-1i', 'symbol', ('number', (0.0, 0.15))),
    ('1.i', 'symbol', ('number', (0.0, 1.0))),
    ('mono(2)', 'inner', ('inner', (1.0, 0.0), [(0.0, 0.0), (0.0, 0.0)], [])),
    ('blaschke([-0.4])', 'inner', ('inner', (1.0, 0.0), [(-0.4, -0.0)], [])),
    ('blaschke([0, 0.5])', 'inner', ('inner', (1.0, 0.0), [(0.0, 0.0), (0.5, 0.0)], [])),
    ('atomic([(1, 1), (-1, 0.5)])', 'inner', ('inner', (1.0, 0.0), [], [((1.0, 0.0), 1.0), ((-1.0, -0.0), 0.5)])),
    ('mono(1) * blaschke([0.5])', 'inner', ('inner', (1.0, 0.0), [(0.0, 0.0), (0.5, 0.0)], [])),
]

REFUSED = ["+1", "1/2", "2**3", "2 @ 3", "True", "None", "'x'", "0x10",
           "1_0", "2J", "mono(k=2)", "mono(*a)", "mono.x", "a[0]", "1 < 2",
           "lambda: 1", "1 if 1 else 2", "{1}", "(1, 2)", "mono((1, 2))"]


def pair_bits(pairs):
    return [(float(re).hex(), float(im).hex()) for re, im in pairs]


def describe(v):
    """An admitted value in the ADMITTED row format, as bit strings."""
    if isinstance(v, complex):
        return ("number", pair_bits([(v.real, v.imag)]))
    if isinstance(v, LaurentSymbol):
        if v.kind == "laurent":
            return ("laurent", pair_bits(zip(v.coeffs.real, v.coeffs.imag)),
                    v.offset)
        return ("rational", pair_bits(zip(v.num.real, v.num.imag)),
                pair_bits(zip(v.den.real, v.den.imag)), v.shift)
    return ("inner", pair_bits([(v.const.real, v.const.imag)]),
            pair_bits(zip(v.zeros.real, v.zeros.imag)),
            [(pair_bits([(complex(x).real, complex(x).imag)]), float(m).hex())
             for x, m in v.points])


def expected(row):
    kind = row[0]
    if kind == "number":
        return ("number", pair_bits([row[1]]))
    if kind == "laurent":
        return ("laurent", pair_bits(row[1]), row[2])
    if kind == "rational":
        return ("rational", pair_bits(row[1]), pair_bits(row[2]), row[3])
    return ("inner", pair_bits([row[1]]), pair_bits(row[2]),
            [(pair_bits([x]), float(m).hex()) for x, m in row[3]])


def scenario_with(key, value):
    """NILPOTENT with one value replaced, on line 8 (psi) or 17 (values)."""
    old = {"psi": "psi = mono(3)",
           "values": "values = 0.3, 0.5 + 0.4i, 2.0"}[key]
    return NILPOTENT.replace(old, f"{key} = {value}")


class TestAdmittedLanguage:
    @pytest.mark.parametrize("text, mode, row", ADMITTED)
    def test_same_object_bit_for_bit(self, text, mode, row):
        assert describe(parse_expression(text, mode=mode)) == expected(row)

    @pytest.mark.parametrize("text", REFUSED)
    def test_refused_naming_line_and_column(self, text):
        with pytest.raises(ScenarioError, match=r"^line 7, col \d+: "):
            parse_expression(text, line=7)

    @pytest.mark.parametrize("name, lambdas, rfactors", [
        ("blaschke_twist", ["0.3", "0.5 + 0.4i", "2.0", "10.0"],
         ["poly([-0.3, 1])", "poly([-2, 1])", "poly([1, -2.5, 1])"]),
        ("case_ii", ["0.2", "0.1 + 0.3i", "3.0", "10.0"], []),
        ("nilpotent", ["0.3", "0.5 + 0.4i", "2.0", "10.0"],
         ["poly([-0.3, 1])", "poly([-2, 1])", "poly([1, -2.5, 1])"])])
    def test_shipped_comma_lists(self, name, lambdas, rfactors):
        """[lambdas] and [rfactors], each read as one tuple, give the
        objects their items gave one by one."""
        scn = parse_scenario(os.path.join(SCN_DIR, f"{name}.scn"))
        rows = {text: row for text, mode, row in ADMITTED if mode == "symbol"}
        assert [describe(v) for v in scn.lambdas] == [
            expected(rows[t]) for t in lambdas]
        assert [describe(v) for v in scn.rfactors] == [
            expected(rows[t]) for t in rfactors]


class TestDeepValues:
    """Nesting deeper than Python's parser, or this reader, allows is a
    ScenarioError (exit 3), not a RecursionError."""

    DEEP = {"parens_400": "(" * 400 + "mono(3)" + ")" * 400,
            "minus_3000": "-" * 3000 + "mono(3)",
            "minus_10000": "-" * 10000 + "mono(3)",
            "sum_5000": " + ".join(["mono(3)"] * 5000)}

    @pytest.mark.parametrize("name", sorted(DEEP))
    def test_parse_refuses(self, name):
        with pytest.raises(ScenarioError, match=r"^line 8, col \d+: "):
            parse_scenario_text(scenario_with("psi", self.DEEP[name]))

    @pytest.mark.parametrize("name", sorted(DEEP))
    def test_run_exits_three(self, name, tmp_path, capsys):
        bad = tmp_path / "deep.scn"
        bad.write_text(scenario_with("psi", self.DEEP[name]),
                       encoding="utf-8")
        code = main(["run", "--scenario", str(bad), "--out", str(tmp_path)])
        assert code == 3
        assert "error: line 8, col " in capsys.readouterr().err

    def test_150_parentheses_still_parse(self):
        scn = parse_scenario_text(
            scenario_with("psi", "(" * 150 + "mono(3)" + ")" * 150))
        assert describe(scn.psi) == expected(("laurent", [(1.0, 0.0)], 3))


class TestBehaviourChanges:
    """Where the reader differs from the hand-written one it replaced."""

    def test_empty_list_item_refused(self):
        # the old reader dropped the empty item
        with pytest.raises(ScenarioError, match=r"^line 17, col \d+: "):
            parse_scenario_text(scenario_with("values", "0.3,, 0.5"))

    def test_trailing_comma_accepted(self):
        scn = parse_scenario_text(scenario_with("values", "0.3, 0.5,"))
        assert scn.lambdas == (0.3 + 0j, 0.5 + 0j)
        assert parse_expression("[1, 2,]") == [1 + 0j, 2 + 0j]
        assert describe(parse_expression("mono(2,)")) == \
            describe(parse_expression("mono(2)"))
        assert describe(parse_expression("poly([1, 2,])")) == \
            describe(parse_expression("poly([1, 2])"))

    def test_parenthesised_list_read_as_its_items(self):
        # one tuple expression, with or without parentheses; the old
        # reader refused the parentheses
        scn = parse_scenario_text(scenario_with("values", "(0.3, 0.5)"))
        assert scn.lambdas == (0.3 + 0j, 0.5 + 0j)

    def test_unknown_name_reported_as_written(self):
        # the i-to-j rewrite reaches a digit's i inside a name too
        with pytest.raises(ScenarioError, match="unknown name 'x2i'"):
            parse_expression("x2i")

    @pytest.mark.parametrize("text, col", [
        ("\u0663", 1), ("mono(\u0663)", 6), ("1 +\u00a02", 4),
        ("2 * mono(1)\x00", 12)])
    def test_non_ascii_refused(self, text, col):
        # the old reader took Unicode digits and spaces: "\u0663" was 3
        with pytest.raises(ScenarioError,
                           match=rf"^line 3, col {col}: unexpected"):
            parse_expression(text, line=3)

    def test_leading_zero_integer_refused(self):
        # Python refuses 007; the old reader read it as 7
        with pytest.raises(ScenarioError, match=r"^line 1, col \d+: "):
            parse_expression("007")
