"""Scenario files: a sectioned key = value text format driving the CLI.

A scenario describes one dual-band space, an optional operator symbol,
a task list, and numeric overrides.  A value is read by Python's own
parser, ``ast.parse(value, mode="eval")``, once a numeral's i suffix is
rewritten to j (same length, so columns hold), and its tree may hold
only: decimal numerals with an optional i or j, and the names i and j;
binary +, -, * and unary -; calls of a bare constructor name with
positional arguments: mono(k), poly([c...], offset), blaschke([a...], c),
rat(num, den, shift), atomic([(xi, mu), ...]), conj(...); lists, with
(point, mass) pairs as items.  Any other syntax (/, **, keywords, 0x10,
1_0, 2J, 007), text outside printable ASCII and tab (Unicode digits and
spaces included), or a value nested deeper than the parser allows (200
parentheses; about a thousand operators, fewer on some Python versions;
write a long expansion as poly([...])) is a ScenarioError naming line
and column.  A trailing comma is allowed; an empty item is not.
[lambdas] and [rfactors] values parse as one tuple expression, so
parentheses around the whole list are allowed too.

Sections and keys:

    [scenario]  name
    [space]     theta, phi, psi, aplus, aminus
    [operator]  g
    [tasks]     run            comma list or "all"
    [lambdas]   values         comma list of complex numbers
    [rfactors]  values         comma list of symbol expressions
    [numerics]  grid, tol, cutoff

Unknown sections or keys are rejected.  Parse errors carry line and
column positions; a constructor's refusal of its arguments is one.
``[space] theta`` multiplies mono, blaschke and atomic factors and must
be a finite Blaschke product: atomic factors are evaluation-only.
"""

import ast
import hashlib
import os
import re
from dataclasses import dataclass

from .errors import ScenarioError
from .symbols import InnerFunction, LaurentSymbol
from .dual_band import build_dualband

TASK_NAMES = ("validate", "spectrum", "kernel", "factorize", "resolvent",
              "norm")

_SECTION_KEYS = {
    "scenario": ("name",),
    "space": ("theta", "phi", "psi", "aplus", "aminus"),
    "operator": ("g",),
    "tasks": ("run",),
    "lambdas": ("values",),
    "rfactors": ("values",),
    "numerics": ("grid", "tol", "cutoff"),
}


# ---------------------------------------------------------------------------
# expression reader

# a numeral as the scenario language writes it, i or j marking imaginary
_NUMERAL = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?[ij]?")
# a numeral's i suffix, which Python spells j: same length, same columns
_I_SUFFIX = re.compile(r"(?<=[\d.])i")
# all but printable ASCII and tabs; col_offset counts UTF-8 bytes
_FOREIGN = re.compile(r"[^\t -~]")


class _Parser:
    """Evaluates one value's Python syntax tree over the admitted subset."""

    def __init__(self, text, line, mode):
        self.text = text.strip()
        self.line = line
        self.mode = mode  # "inner" or "symbol"
        self.col = 1

    def fail(self, msg):
        raise ScenarioError(f"line {self.line}, col {self.col}: {msg}")

    def parse(self, items=False):
        """The value; with items, a comma list read as one tuple."""
        bad = _FOREIGN.search(self.text)
        if bad:
            self.col = bad.start() + 1
            self.fail(f"unexpected character {bad.group()!r}")
        try:
            node = ast.parse(_I_SUFFIX.sub("j", self.text), mode="eval").body
            if items and type(node) is ast.Tuple:
                return [self.value(n) for n in node.elts]
            val = self.value(node)
        except SyntaxError as exc:
            self.col = exc.offset or 1
            self.fail(exc.msg)
        except (RecursionError, MemoryError):
            # how CPython's parser, or this walk, refuses deep nesting
            self.col = 1
            self.fail("value nested too deeply")
        return [val] if items else val

    def value(self, node, item=False):
        kind = type(node)
        src = self.text[node.col_offset:node.end_col_offset]
        if kind is ast.Constant and _NUMERAL.fullmatch(src):
            if src[-1] in "ij":
                return complex(0.0, float(src[:-1]))
            return complex(float(src), 0.0)
        if kind is ast.Call and type(node.func) is ast.Name \
                and not node.keywords:
            args = [self.value(arg) for arg in node.args]
            self.col = node.col_offset + 1
            build = _inner_call if self.mode == "inner" else _symbol_call
            try:
                return build(node.func.id, args, self)
            except ValueError as exc:
                # a constructor's refusal of its arguments is an input error
                self.fail(str(exc))
        if kind is ast.BinOp and type(node.op) in _BINARY:
            a, b = self.value(node.left), self.value(node.right)
            self.col = node.col_offset + 1
            return _BINARY[type(node.op)](a, b, self)
        if kind is ast.UnaryOp and type(node.op) is ast.USub:
            a = self.value(node.operand)
            self.col = node.col_offset + 1
            return _neg(a, self)
        if kind is ast.List:
            return [self.value(elt, item=True) for elt in node.elts]
        if item and kind is ast.Tuple and len(node.elts) == 2:
            # a (point, mass) pair
            return tuple(self.value(elt) for elt in node.elts)
        self.col = node.col_offset + 1
        if kind is ast.Name:
            if src in ("i", "j"):
                return complex(0.0, 1.0)
            self.fail(f"unknown name {src!r}")
        self.fail(f"unsupported syntax {src!r}")


def _as_int(val, parser, what):
    if not isinstance(val, complex) or val.imag != 0 or \
            val.real != int(val.real):
        parser.fail(f"{what} must be an integer")
    return int(val.real)


def _scalar_list(vals, parser, what):
    out = []
    for v in vals:
        if not isinstance(v, complex):
            parser.fail(f"{what} entries must be numbers")
        out.append(v)
    return out


def _symbol_call(name, args, parser):
    if name == "mono":
        if len(args) != 1:
            parser.fail("mono takes one argument")
        return LaurentSymbol.monomial(_as_int(args[0], parser, "mono power"))
    if name == "poly":
        if len(args) not in (1, 2) or not isinstance(args[0], list):
            parser.fail("poly takes a coefficient list and optional offset")
        coeffs = _scalar_list(args[0], parser, "poly coefficient")
        offset = _as_int(args[1], parser, "poly offset") if len(args) == 2 \
            else 0
        return LaurentSymbol.from_coeffs(coeffs, offset)
    if name == "rat":
        if len(args) not in (2, 3) or not isinstance(args[0], list) \
                or not isinstance(args[1], list):
            parser.fail("rat takes numerator and denominator lists and an "
                        "optional shift")
        num = _scalar_list(args[0], parser, "rat numerator")
        den = _scalar_list(args[1], parser, "rat denominator")
        shift = _as_int(args[2], parser, "rat shift") if len(args) == 3 else 0
        return LaurentSymbol.rational(num, den, shift)
    if name == "blaschke":
        return _inner_blaschke(args, parser).as_symbol()
    if name == "conj":
        if len(args) != 1:
            parser.fail("conj takes one argument")
        val = args[0]
        if isinstance(val, complex):
            return val.conjugate()
        if isinstance(val, LaurentSymbol):
            return val.conj()
        parser.fail("conj needs a number or a symbol")
    if name == "atomic":
        parser.fail("atomic inner functions have no coefficient form here")
    parser.fail(f"unknown constructor {name!r}")


def _inner_blaschke(args, parser):
    if len(args) not in (1, 2) or not isinstance(args[0], list):
        parser.fail("blaschke takes a zero list and an optional constant")
    zeros = _scalar_list(args[0], parser, "blaschke zero")
    const = args[1] if len(args) == 2 else complex(1.0)
    if not isinstance(const, complex):
        parser.fail("blaschke constant must be a number")
    return InnerFunction.blaschke(zeros, const)


def _inner_call(name, args, parser):
    if name == "mono":
        if len(args) != 1:
            parser.fail("mono takes one argument")
        return InnerFunction.monomial(_as_int(args[0], parser, "mono power"))
    if name == "blaschke":
        return _inner_blaschke(args, parser)
    if name == "atomic":
        if len(args) != 1 or not isinstance(args[0], list):
            parser.fail("atomic takes a list of (point, mass) pairs")
        points = []
        for item in args[0]:
            if not (isinstance(item, tuple) and len(item) == 2):
                parser.fail("atomic entries must be (point, mass) pairs")
            xi, mu = item
            if not (isinstance(xi, complex) and isinstance(mu, complex)):
                parser.fail("atomic entries must be numeric pairs")
            if mu.imag != 0 or mu.real <= 0:
                parser.fail("atomic mass must be a positive real")
            points.append((xi, mu.real))
        return InnerFunction.atomic(points)
    parser.fail(f"{name!r} does not name an inner function")


def _mul(a, b, parser):
    if isinstance(a, complex) and isinstance(b, complex):
        return a * b
    if isinstance(a, InnerFunction) or isinstance(b, InnerFunction):
        if isinstance(a, InnerFunction) and isinstance(b, InnerFunction):
            return InnerFunction.product([a, b])
        parser.fail("inner functions only combine with other inner functions")
    a, b = _promote(a, parser), _promote(b, parser)
    return a * b


def _add(a, b, parser):
    if isinstance(a, complex) and isinstance(b, complex):
        return a + b
    if isinstance(a, InnerFunction) or isinstance(b, InnerFunction):
        parser.fail("inner functions cannot be added")
    return _promote(a, parser) + _promote(b, parser)


def _sub(a, b, parser):
    return _add(a, _neg(b, parser), parser)


def _neg(a, parser):
    if isinstance(a, complex):
        return -a
    if isinstance(a, LaurentSymbol):
        return a * LaurentSymbol.constant(-1.0)
    parser.fail("cannot negate this value")


_BINARY = {ast.Add: _add, ast.Sub: _sub, ast.Mult: _mul}


def _promote(val, parser):
    if isinstance(val, LaurentSymbol):
        return val
    if isinstance(val, complex):
        return LaurentSymbol.constant(val)
    parser.fail("expected a number or a symbol")


def parse_expression(text, line=1, mode="symbol"):
    """Evaluate one expression string; mode selects the constructor set."""
    return _Parser(text, line, mode).parse()


def _parse_symbol(text, line):
    """A band or the operator symbol: numbers become constant symbols."""
    val = parse_expression(text, line, mode="symbol")
    if isinstance(val, complex):
        return LaurentSymbol.constant(val)
    if not isinstance(val, LaurentSymbol):
        raise ScenarioError(f"line {line}: expected a number or a symbol")
    return val


def _parse_complex(text, line):
    val = parse_expression(text, line, mode="symbol")
    if not isinstance(val, complex):
        raise ScenarioError(f"line {line}: expected a number, got a symbol")
    return val


# ---------------------------------------------------------------------------
# scenario file

@dataclass
class Scenario:
    name: str
    theta: InnerFunction
    phi: object = None
    psi: object = None
    aplus: object = None
    aminus: object = None
    g: object = None
    tasks: tuple = ()
    lambdas: tuple = ()
    rfactors: tuple = ()
    grid: int = None
    tol: float = None
    cutoff: int = None
    digest: str = ""
    path: str = ""

    @property
    def realized(self):
        return self.phi is not None


def _read_sections(text):
    """Raw pass: {(section, key): (value_text, line_number)}."""
    entries = {}
    section = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ScenarioError(f"line {ln}: unterminated section header")
            section = stripped[1:-1].strip()
            if section not in _SECTION_KEYS:
                raise ScenarioError(f"line {ln}: unknown section "
                                    f"[{section}]")
            continue
        if section is None:
            raise ScenarioError(f"line {ln}: key outside any section")
        if "=" not in line:
            raise ScenarioError(f"line {ln}: expected key = value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _SECTION_KEYS[section]:
            raise ScenarioError(f"line {ln}: unknown key {key!r} in "
                                f"[{section}]")
        slot = (section, key)
        if slot in entries:
            raise ScenarioError(f"line {ln}: duplicate key {key!r} in "
                                f"[{section}]")
        entries[slot] = (value.strip(), ln)
    return entries


def parse_scenario_text(text, name_hint="scenario", path=""):
    entries = _read_sections(text)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()

    def take(section, key):
        return entries.pop((section, key), (None, None))

    name_text, _ = take("scenario", "name")
    name = name_text or name_hint

    theta_text, theta_line = take("space", "theta")
    if theta_text is None:
        raise ScenarioError("scenario is missing [space] theta")
    theta = parse_expression(theta_text, theta_line, mode="inner")
    if theta.points:
        raise ScenarioError(f"line {theta_line}: [space] theta must be a "
                            "finite Blaschke product; atomic factors are "
                            "evaluation-only")

    fields = {}
    for key in ("phi", "psi", "aplus", "aminus"):
        text_k, line_k = take("space", key)
        fields[key] = None if text_k is None else \
            _parse_symbol(text_k, line_k)
    realized = fields["phi"] is not None or fields["psi"] is not None
    if realized and (fields["phi"] is None or fields["psi"] is None):
        raise ScenarioError("realized spaces need both phi and psi")
    if not realized and (fields["aplus"] is None or fields["aminus"] is None):
        raise ScenarioError("a space needs phi/psi or aplus/aminus")

    g_text, g_line = take("operator", "g")
    g = None if g_text is None else _parse_symbol(g_text, g_line)

    tasks_text, tasks_line = take("tasks", "run")
    if tasks_text is None:
        raise ScenarioError("scenario is missing [tasks] run")
    tasks = []
    for item in filter(None, (t.strip() for t in tasks_text.split(","))):
        if item == "all":
            tasks.extend(TASK_NAMES)
        elif item in TASK_NAMES:
            tasks.append(item)
        else:
            raise ScenarioError(f"line {tasks_line}: unknown task {item!r}")
    seen = set()
    tasks = tuple(t for t in tasks if not (t in seen or seen.add(t)))

    def items(section, kind, msg):
        """A section's comma list of values, read as one tuple."""
        text_k, line_k = take(section, "values")
        if not text_k:
            return ()
        vals = tuple(_Parser(text_k, line_k, "symbol").parse(items=True))
        if not all(isinstance(v, kind) for v in vals):
            raise ScenarioError(f"line {line_k}: {msg}")
        return vals

    lambdas = items("lambdas", complex, "expected a number, got a symbol")
    rfactors = items("rfactors", LaurentSymbol, "rfactors must be symbols")

    grid_text, grid_line = take("numerics", "grid")
    tol_text, tol_line = take("numerics", "tol")
    cut_text, cut_line = take("numerics", "cutoff")
    grid = None
    if grid_text is not None:
        grid = _as_int_text(grid_text, grid_line, "grid")
    tol = None
    if tol_text is not None:
        tol = _parse_complex(tol_text, tol_line)
        if tol.imag != 0 or tol.real <= 0:
            raise ScenarioError(f"line {tol_line}: tol must be positive")
        tol = tol.real
    cutoff = None
    if cut_text is not None:
        cutoff = _as_int_text(cut_text, cut_line, "cutoff")

    if entries:
        (section, key), (_, ln) = next(iter(entries.items()))
        raise ScenarioError(f"line {ln}: unused key {key!r} in [{section}]")

    scn = Scenario(name=name, theta=theta, phi=fields["phi"],
                   psi=fields["psi"], aplus=fields["aplus"],
                   aminus=fields["aminus"], g=g, tasks=tasks,
                   lambdas=lambdas, rfactors=rfactors, grid=grid, tol=tol,
                   cutoff=cutoff, digest=digest, path=path)
    check_prerequisites(scn)
    return scn


def _as_int_text(text, line, what):
    val = _parse_complex(text, line)
    if val.imag != 0 or val.real != int(val.real) or val.real <= 0:
        raise ScenarioError(f"line {line}: {what} must be a positive "
                            "integer")
    return int(val.real)


def check_prerequisites(scn, tasks=None):
    """Reject task lists whose inputs the scenario does not carry."""
    tasks = scn.tasks if tasks is None else tasks
    for task in tasks:
        if task not in TASK_NAMES:
            raise ScenarioError(f"unknown task {task!r}")
    for task in ("factorize", "resolvent"):
        if task in tasks and not scn.lambdas:
            raise ScenarioError(f"task {task!r} needs a [lambdas] section")
    for task in ("validate", "norm"):
        if task in tasks and scn.g is None:
            raise ScenarioError(f"task {task!r} needs an [operator] g")
        if task in tasks and not scn.realized:
            raise ScenarioError(f"task {task!r} needs a realized space "
                                "(phi and psi)")


def parse_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name_hint = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario_text(text, name_hint=name_hint, path=str(path))


def build_space(scn, grid=None):
    """Assemble the dual-band space a scenario describes."""
    if scn.realized:
        return build_dualband(scn.theta, phi=scn.phi, psi=scn.psi,
                              grid=grid or scn.grid)
    return build_dualband(scn.theta, aplus=scn.aplus, aminus=scn.aminus,
                          grid=grid or scn.grid)
