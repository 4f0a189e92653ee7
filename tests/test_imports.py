"""Package modules use each other only through public names."""

import ast
import builtins
import re
from pathlib import Path

import cgalgebra

PACKAGE = Path(cgalgebra.__file__).resolve().parent


def private_imports(path: Path) -> list:
    """(line, module, name) of each underscore name ``path`` takes from another
    package module, by ``from .m import _x`` or as ``m._x`` after ``from . import m``."""
    tree = ast.parse(path.read_text(), str(path))
    modules = {}  # local name -> package module imported under it
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level == 0 and not source.startswith("cgalgebra"):
            continue
        for alias in node.names:
            if not source or source == "cgalgebra":  # from . import m
                modules[alias.asname or alias.name] = alias.name
            elif alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append((node.lineno, source, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append((node.lineno, modules[node.value.id], node.attr))
    return found


def test_no_module_imports_another_modules_private_names():
    found = {path.name: private_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_check_sees_both_import_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import fock\nfrom .weyl import _falling, multiply\nfock._pairing\n")
    assert private_imports(probe) == [(2, "weyl", "_falling"), (3, "fock", "_pairing")]


def package_imports(path: Path) -> set:
    """The package modules ``path`` imports, by ``from .m import x``, ``from . import m``
    or ``from cgalgebra.m import x``, anywhere in the file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level == 0 and source.split(".")[0] != "cgalgebra":
            continue
        source = source.removeprefix("cgalgebra").lstrip(".")
        found |= {source} if source else {alias.name for alias in node.names}
    return found


EXACT_LAYERS = ("ring", "weyl", "linalg", "realizations", "invariance")


def test_package_imports_point_one_way():
    """No import cycle among the package modules, and the exact layers never
    import the ladder layer or the command line."""
    graph = {path.stem: package_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    upward = {name: graph[name] & {"fock", "cli"} for name in EXACT_LAYERS}
    assert {name: deps for name, deps in upward.items() if deps} == {}
    done, on_path = set(), []

    def visit(name):
        assert name not in on_path, f"import cycle {on_path[on_path.index(name):] + [name]}"
        if name in done:
            return
        on_path.append(name)
        for dep in sorted(graph.get(name, ())):
            visit(dep)
        on_path.pop()
        done.add(name)

    for name in graph:
        visit(name)


def test_the_import_graph_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import fock, cli\nfrom .weyl import multiply\nimport numpy\n"
                     "def f():\n    from cgalgebra.invariance import contract\n    from numpy import eye\n")
    assert package_imports(probe) == {"fock", "cli", "weyl", "invariance"}


STORAGE = ("_num", "_den")


def storage_reads(path: Path) -> list:
    """(line, attribute) of each read of a Coefficient's storage, ``x._num`` or ``x._den``."""
    return [(node.lineno, node.attr) for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute) and node.attr in STORAGE]


def test_only_the_ring_reads_coefficient_storage():
    found = {path.name: storage_reads(path) for path in sorted(PACKAGE.glob("*.py"))}
    del found["ring.py"]
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_storage_check_sees_every_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(c, d):\n    return c._den, [v for v in d.coef()._num.values()], c.num\n")
    assert sorted(storage_reads(probe)) == [(2, "_den"), (2, "_num")]


def term_map_reads(path: Path) -> list:
    """Line of each read of an operator's term map, ``x._terms``."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute) and node.attr == "_terms"]


def test_only_weyl_reads_operator_term_maps():
    """Every sum into a term map goes through ``weyl``, which makes it one
    ``ring.summed`` pass; ``ring``'s own ``_terms`` is a Coefficient's Fraction view."""
    found = {path.name: term_map_reads(path) for path in sorted(PACKAGE.glob("*.py"))}
    del found["weyl.py"], found["ring.py"]
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_term_map_check_sees_every_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(op, ops):\n    d = dict(op._terms)\n"
                     "    return d, [o._terms.items() for o in ops], op.terms()\n")
    assert sorted(term_map_reads(probe)) == [2, 3]


def _called_name(node: ast.AST):
    """The name of a ``Name`` or the attribute of an ``Attribute``, else None."""
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def monomial_storage_reads(path: Path) -> list:
    """(line, form) of each read of a monomial's storage: the attribute ``spatial``, a
    direct ``Monomial(...)`` call, or ``_key`` or ``tuple.__new__`` called with ``Monomial``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "spatial":
            found.append((node.lineno, "spatial"))
        elif isinstance(node, ast.Call) and _called_name(node.func) == "Monomial":
            found.append((node.lineno, "Monomial"))
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) in ("_key", "tuple.__new__")
              and any(_called_name(arg) == "Monomial" for arg in node.args)):
            found.append((node.lineno, ast.unparse(node.func)))
    return found


def test_only_weyl_reads_monomial_storage():
    """A monomial's entries are ``weyl``'s to lay out: other modules build monomials with
    ``Monomial.make`` and read a coordinate's powers with ``Monomial.powers``."""
    found = {path.name: monomial_storage_reads(path) for path in sorted(PACKAGE.glob("*.py"))}
    del found["weyl.py"]
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_monomial_storage_check_sees_every_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import weyl\nfrom .weyl import Monomial, _key\n"
                     "def f(m, fields):\n    return m.spatial, Monomial(0, 0, 0, (), 0), weyl.Monomial(*fields)\n"
                     "g = [_key(Monomial, x) for x in ()] + [tuple.__new__(weyl.Monomial, ())]\n"
                     "h = Monomial.make(x_pows={1: 2}).powers(1), tuple.__new__(tuple, ()), m._replace(dt_pow=0)\n")
    assert sorted(monomial_storage_reads(probe)) == [
        (4, "Monomial"), (4, "Monomial"), (4, "spatial"), (5, "_key"), (5, "tuple.__new__")]


def unused_imports(path: Path) -> list:
    """(line, name) of each name ``path`` imports and never reads, leaving out
    ``from __future__`` imports, names listed in ``__all__``, and imports whose
    line carries ``# noqa: F401``."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, str(path))
    imported = [(alias.lineno, alias.asname or alias.name.split(".")[0])
                for node in ast.walk(tree)
                if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
             for elt in node.value.elts}
    return sorted((line, name) for line, name in imported
                  if name not in used and "# noqa: F401" not in lines[line - 1])


def test_no_module_imports_a_name_it_does_not_use():
    found = {path.name: unused_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_unused_import_check_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
                     "from .ring import (Coefficient,\n    summed)\nfrom .linalg import rank  # noqa: F401\n"
                     "from .weyl import multiply\n__all__ = ['multiply']\n"
                     "def f(x: Coefficient):\n    from itertools import product\n    return np\n")
    assert unused_imports(probe) == [(2, "os"), (5, "summed"), (10, "product")]


def scoped_nodes(path: Path):
    """(scope, node) for every node of ``path``, in source order; the scope is the
    dotted name of the function (or class body) the node sits in, ``""`` at
    module level."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield scope, child
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                yield from visit(child, scope)

    return visit(ast.parse(path.read_text(), str(path)), "")


def builtin_raises(path: Path) -> list:
    """(line, function, exception) of each ``raise`` of a builtin exception class,
    as ``raise ValueError(...)`` or ``raise KeyError``, in the scope it sits in."""
    builtin = {name for name, obj in vars(builtins).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)}
    found = []
    for scope, node in scoped_nodes(path):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in builtin:
                found.append((node.lineno, scope, exc.id))
    return found


# The command line's flag converters raise ValueError on purpose: argparse
# turns it into exit 2 with a message.
FLAG_CONVERTERS = {("cli.py", name) for name in ("_rational", "_count", "_modes", "_signs")}

# Raises of a builtin class still waiting for a typed error: none is left,
# and the set may not grow.
UNTYPED_RAISES: set = set()


def test_library_raises_only_typed_errors():
    found = {(path.name, scope, exc) for path in sorted(PACKAGE.glob("*.py"))
             for _, scope, exc in builtin_raises(path)}
    assert {hit for hit in found if hit[:2] not in FLAG_CONVERTERS} == UNTYPED_RAISES


def test_the_raise_check_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .errors import NotInIdeal\nraise KeyError\n"
                     "class C:\n    def f(self):\n        raise ValueError('x') from None\n"
                     "def g(e):\n    try:\n        pass\n    except OSError:\n        raise\n"
                     "    raise NotInIdeal('y')\n    raise e\n"
                     "def h():\n    def inner():\n        raise TypeError(1)\n")
    assert builtin_raises(probe) == [(2, "", "KeyError"), (5, "C.f", "ValueError"),
                                     (15, "h.inner", "TypeError")]


def elimination_reads(path: Path) -> list:
    """(line, scope) of each read of ``rref_fraction_free``, called or not, as a
    bare name or as ``linalg.rref_fraction_free``."""
    return [(node.lineno, scope) for scope, node in scoped_nodes(path)
            if isinstance(node, ast.Name) and node.id == "rref_fraction_free"
            or isinstance(node, ast.Attribute) and node.attr == "rref_fraction_free"]


def test_one_elimination_outside_linalg():
    """Outside ``linalg`` only ``close_algebra`` reads an elimination off directly;
    every other solve goes through ``nullspace`` or ``solve_in_span``."""
    found = [(path.name, scope) for path in sorted(PACKAGE.glob("*.py")) if path.name != "linalg.py"
             for _, scope in elimination_reads(path)]
    assert found == [("invariance.py", "close_algebra")]


def test_the_elimination_check_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import linalg\nfrom .linalg import rref_fraction_free\n"
                     "red = rref_fraction_free([])\n"
                     "class C:\n    def f(self, m):\n        return linalg.rref_fraction_free(m)\n"
                     "def g(ms):\n    solve = rref_fraction_free\n    return [solve(m) for m in ms]\n")
    assert elimination_reads(probe) == [(3, ""), (6, "C.f"), (8, "g")]


def zeros_reads(path: Path) -> list:
    """(line, scope) of each read of numpy's ``zeros``, called or not, as ``np.zeros``,
    ``numpy.zeros``, or a bare name taken by ``from numpy import zeros``."""
    return [(node.lineno, scope) for scope, node in scoped_nodes(path)
            if isinstance(node, ast.Attribute) and node.attr == "zeros"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            or isinstance(node, ast.Name) and node.id == "zeros"]


def test_one_fill_of_the_float_matrices():
    """``fock``'s float matrices come from one fill, which scatters the entries and
    raises ``FloatOverflow`` on the first one that is not finite: no builder makes a
    matrix of its own."""
    assert {scope for _, scope in zeros_reads(PACKAGE / "fock.py")} == {"_filled"}


def test_the_fill_check_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\nimport numpy\nfrom numpy import zeros\n"
                     "def f(n):\n    return np.zeros((n, n))\n"
                     "class C:\n    make = numpy.zeros\n    def g(self):\n        return zeros(3), self.zeros\n")
    assert zeros_reads(probe) == [(5, "f"), (7, "C"), (9, "C.g")]


# numpy's readers of a matrix's structure: which entries are nonzero, above, below or on the diagonal
STRUCTURE_READERS = ("nonzero", "triu", "tril", "diag")


def structure_reads(path: Path) -> list:
    """(line, scope, name) of each read of one of ``STRUCTURE_READERS``, called or not, as
    ``np.nonzero``, ``numpy.triu``, or a bare name taken by ``from numpy import tril``."""
    return [(node.lineno, scope, node.attr if isinstance(node, ast.Attribute) else node.id)
            for scope, node in scoped_nodes(path)
            if isinstance(node, ast.Attribute) and node.attr in STRUCTURE_READERS
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            or isinstance(node, ast.Name) and node.id in STRUCTURE_READERS]


def test_only_fock_knows_the_matrices_structure():
    """``fock`` certifies the triangles of K and of the eigenstate rows exactly, from the
    formal entries it caches; the command line takes its verdicts and reads no float
    matrix's structure itself."""
    assert structure_reads(PACKAGE / "cli.py") == []


def test_the_structure_check_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\nimport numpy\nfrom numpy import tril\n"
                     "def f(m):\n    return np.nonzero(m)\n"
                     "class C:\n    upper = numpy.triu\n"
                     "    def g(self, m):\n        return tril(m), np.diag(m), self.diag, np.diagonal(m)\n")
    assert structure_reads(probe) == [(5, "f", "nonzero"), (7, "C", "triu"), (9, "C.g", "tril"), (9, "C.g", "diag")]


def accumulator_passes(path: Path) -> list:
    """(line, scope) of each call that passes ``into=``, whatever it calls."""
    return [(node.lineno, scope) for scope, node in scoped_nodes(path)
            if isinstance(node, ast.Call) and any(kw.arg == "into" for kw in node.keywords)]


def test_only_the_brackets_pass_an_accumulator():
    """``multiply(..., into=acc)`` leaves the summing to its caller: only the
    commutator and anticommutator in ``weyl`` sum both orders of a product at once."""
    found = [(path.name, scope) for path in sorted(PACKAGE.glob("*.py"))
             for _, scope in accumulator_passes(path)]
    assert found == [("weyl.py", "commutator")] * 2 + [("weyl.py", "anticommutator")] * 2


def test_the_accumulator_check_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import weyl\nfrom .weyl import multiply\n"
                     "multiply(a, b, into=acc)\n"
                     "class C:\n    def f(self):\n        return weyl.multiply(a, b, contracted=True, into={})\n"
                     "def g(ops, acc):\n    mul = multiply\n    return [mul(x, y, into=acc) for x, y in ops]\n"
                     "multiply(a, b, contracted=True)\n")
    assert accumulator_passes(probe) == [(3, ""), (6, "C.f"), (9, "g")]


MEMOS = ("cache", "lru_cache")


def memo_parameters(path: Path) -> list:
    """(line of its ``def``, function, parameter, annotation) of each parameter of
    a function under ``cache`` or ``lru_cache``, as a bare name or ``functools.``
    attribute, called or not; the annotation as its source text, ``""`` where
    there is none."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(getattr(d, "id", getattr(d, "attr", None)) in MEMOS for d in decorators):
            continue
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]:
            ann = arg.annotation
            text = "" if ann is None else ann.value if isinstance(ann, ast.Constant) else ast.unparse(ann)
            found.append((node.lineno, node.name, arg.arg, text))
    return found


def test_product_memos_key_on_exponents_only():
    """A memo in the product layers keys on ints and Fractions only, never on an
    operator, a Monomial or a Coefficient: a table keyed by exponents stays a few
    dozen entries, where one keyed by operands grows with every distinct operand."""
    params = [(path.name, *hit[1:]) for path in (PACKAGE / "ring.py", PACKAGE / "weyl.py")
              for hit in memo_parameters(path)]
    assert {"_contractions", "_time_block"} <= {function for _, function, _, _ in params}
    assert [hit for hit in params if hit[3] not in ("int", "Fraction")] == []


def memo_keys_outside(paths, allowed) -> list:
    """(file, function, parameter, annotation) of each memo parameter in ``paths``
    whose annotation is not one of ``allowed``."""
    return [(path.name, *hit[1:]) for path in paths for hit in memo_parameters(path) if hit[3] not in allowed]


FOCK_KEYS = ("int", "Tuple[int, int]")


def test_fock_memos_key_on_cutoffs_and_modes_only():
    """A memo in ``fock`` keys on cutoffs, quantum numbers and mode pairs, never on a
    coupling: every coupling-dependent result is built once with the coupling formal
    and substituted per call, so no cache there wins only when a coupling repeats."""
    path = PACKAGE / "fock.py"
    assert {"_decoupling", "_formal_modes", "_root_factorial", "_k_entries", "_formal_rows"} <= \
        {hit[1] for hit in memo_parameters(path)}
    assert memo_keys_outside((path,), FOCK_KEYS) == []


def test_the_fock_memo_rule_refuses_a_coupling_key(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from functools import cache\n"
                     "@cache\ndef _rows(na: int, nb: int, modes: Tuple[int, int]):\n    pass\n"
                     "@cache\ndef _at(gbar: GbarLike, na: int):\n    pass\n"
                     "@cache\ndef _amp(c: Coefficient, modes):\n    pass\n")
    assert memo_keys_outside((probe,), FOCK_KEYS) == [
        ("probe.py", "_at", "gbar", "GbarLike"), ("probe.py", "_amp", "c", "Coefficient"),
        ("probe.py", "_amp", "modes", "")]


def test_the_memo_check_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import functools\nfrom functools import cache, lru_cache\n"
                     "@cache\ndef f(p: int, q: 'Fraction') -> tuple:\n    return p, q\n"
                     "@functools.lru_cache(maxsize=None)\ndef g(m: Monomial, *rest, k: int = 0):\n    pass\n"
                     "class C:\n    @functools.cache\n    def h(self, c: 'Coefficient'):\n        pass\n"
                     "@staticmethod\ndef plain(op: WeylOp):\n    pass\n")
    assert sorted(memo_parameters(probe)) == [
        (4, "f", "p", "int"), (4, "f", "q", "Fraction"), (7, "g", "k", "int"), (7, "g", "m", "Monomial"),
        (7, "g", "rest", ""), (11, "h", "c", "Coefficient"), (11, "h", "self", "")]


# a digit class after a "/": the denominator of a numeral spelled as a pattern
DENOMINATOR = re.compile(r"/\??\(?(?:\?:)?(?:\\d|\[\d)")


def numeral_patterns(path: Path) -> list:
    """(line, scope) of each string literal, or literal part of an f-string, that
    spells a numeral with a denominator as a pattern, such as ``-?\\d+(?:/\\d+)?``."""
    return [(node.lineno, scope) for scope, node in scoped_nodes(path)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and DENOMINATOR.search(node.value)]


def test_only_the_ring_spells_the_numeral():
    """Both text readers take their numbers through ``ring.parse_number``; only the
    command line's flag converters read a flag value on their own."""
    found = {(path.name, scope) for path in sorted(PACKAGE.glob("*.py")) if path.name != "ring.py"
             for _, scope in numeral_patterns(path)}
    assert {hit for hit in found if hit not in FLAG_CONVERTERS} == set()


def test_the_numeral_check_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import re\nRX = re.compile(r'-?\\d+(?:/\\d+)?')\n"
                     "def f(s, n):\n    return re.match(rf'e\\[(-?[0-9]+/[1-9][0-9]*),{n}\\]', s)\n"
                     "class C:\n    PART = r'\\d*/?\\d*'\n"
                     "def g():\n    '''-3/2 is a numeral, \\\\d+ a pattern.'''\n    return re.compile(r'x\\d+/y')\n")
    assert numeral_patterns(probe) == [(2, ""), (4, "f"), (6, "C")]


def basis_reads(path: Path) -> list:
    """(line, scope) of each place ``path`` names ``FockBasis``: an import of it, a
    bare name, or an attribute such as ``fock.FockBasis``."""
    return [(node.lineno, scope) for scope, node in scoped_nodes(path)
            if isinstance(node, ast.Name) and node.id == "FockBasis"
            or isinstance(node, ast.Attribute) and node.attr == "FockBasis"
            or isinstance(node, ast.alias) and node.name == "FockBasis"]


def test_only_fock_names_the_basis():
    """The basis order is ``fock``'s own: K is lower triangular in it, so a
    caller reads rows and columns as they come and never rebuilds the states."""
    found = {(path.name, scope) for path in sorted(PACKAGE.glob("*.py")) if path.name != "fock.py"
             for _, scope in basis_reads(path)}
    assert found == set()


def test_the_basis_check_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import fock\nfrom .fock import (spectrum,\n    FockBasis)\n"
                     "def f(na, nb):\n    return fock.FockBasis(na, nb).states()\n"
                     "class C:\n    kind = FockBasis\n    basis = 'FockBasis'\n")
    assert basis_reads(probe) == [(3, ""), (5, "f"), (7, "C")]


def index_imports(path: Path) -> list:
    """Line of each import of ``operator.index``: ``from operator import index``,
    under any alias, or a read of ``index`` off the module after ``import operator``
    (also ``as`` another name)."""
    tree = ast.parse(path.read_text(), str(path))
    modules = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "operator"}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "operator"
                  and any(alias.name == "index" for alias in node.names)
                  or isinstance(node, ast.Attribute) and node.attr == "index"
                  and isinstance(node.value, ast.Name) and node.value.id in modules)


def test_only_errors_reads_integers_with_operator_index():
    """An integer argument is read by ``errors.integer``, which names what it
    refuses; no other module calls ``operator.index`` on its own."""
    found = {path.name: index_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("errors.py")
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_index_check_sees_both_import_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import operator\nimport operator as op\nfrom operator import add, index as ix\n"
                     "def f(k, basis):\n    return operator.index(k), op.index(k), basis.index(), ix(k)\n")
    assert index_imports(probe) == [3, 5, 5]
