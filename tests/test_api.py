"""A guard against dead code in src/factorbench.

Every public top-level function or class, and every public method of a public
class, must be referenced somewhere in the package outside its own definition
(an import in __init__.py is no reference), or be a paper object listed in
PAPER_OBJECTS with the test that pins it.  Every module-level private
function, class and constant must be referenced likewise.  A reference is any
name or attribute spelled like the object, so a method or function of the same
name counts.
"""

import ast
import fnmatch
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "factorbench"

# paper objects and test references that nothing in the package calls,
# each with the test that pins it; a method is listed as Class.method
PAPER_OBJECTS = {
    "f_k_F": "tests/test_dirichlet.py::test_f_k_F_*",
    "check_counting_bound": "tests/test_acceptance.py::test_accept_11_counting_inequality",
    "B_sum": "tests/test_zfamily.py::test_B_sum_equals_closed_*",
    "B_closed": "tests/test_zfamily.py::test_B_sum_equals_closed_*",
    "fk_prime_power_expansion": "tests/test_zfamily.py::test_fk_prime_power_expansion",
    "non_multiplicativity_witness": "tests/test_zfamily.py::test_witness_discrepancy",
    "is_kappa_free": "tests/test_sieve.py::test_kappa_free_mask_matches_pointwise",
    "count_bigomega": "tests/test_counting.py::test_N_kappa_ell_*",
    "ArithFn.from_values": "tests/test_dirichlet.py::test_from_values_fills_1_to_n",
    "CountingBoundReport.passes": "tests/test_counting.py::test_counting_bound_ell1_is_prime_count",
    "MultiplicativityWitness.discrepancy": "tests/test_zfamily.py::test_witness_discrepancy",
}


def modules(package: Path):
    """(path, syntax tree) of each of the package's modules, __init__.py included."""
    for path in sorted(package.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def unreferenced(defs: dict, package: Path) -> set[str]:
    """The keys of defs, each (name, node, path) of a definition, whose name
    no name or attribute in the package uses outside the definition's own
    lines.  An import is no use."""
    refs = {}
    for path, tree in modules(package):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path, node.lineno))
    return {
        key for key, (name, node, path) in defs.items()
        if all(p == path and node.lineno <= line <= node.end_lineno for p, line in refs.get(name, ()))
    }


def unreferenced_public_objects(package: Path = PACKAGE) -> set[str]:
    """The public top-level functions and classes of the package's modules,
    and the public methods of those classes as Class.method, that no name or
    attribute outside their own definition refers to."""
    defs = {}
    for path, tree in modules(package):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs[node.name] = (node.name, node, path)
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                            defs[f"{node.name}.{item.name}"] = (item.name, item, path)
    return unreferenced(defs, package)


def unreferenced_private_names(package: Path = PACKAGE) -> set[str]:
    """The module-level private functions, classes and constants of the
    package's modules that no name or attribute outside their own
    definition refers to."""
    defs = {}
    for path, tree in modules(package):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defs[name] = (name, node, path)
    return unreferenced(defs, package)


def code_lines(package: Path = PACKAGE) -> int:
    """The code lines of the package's modules: every line a statement spans,
    less its docstrings and the blank and comment-only lines inside a
    statement. Decorator lines are not counted."""
    total = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        lines, spanned, docstrings = text.splitlines(), set(), set()
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
            if isinstance(node, ast.stmt):
                spanned.update(range(node.lineno, node.end_lineno + 1))
        code = [lines[n - 1].strip() for n in spanned - docstrings]
        total += sum(1 for line in code if line and not line.startswith("#"))
    return total


def test_every_public_object_is_used_or_a_pinned_paper_object():
    dead = unreferenced_public_objects()
    unlisted, stale = sorted(dead - set(PAPER_OBJECTS)), sorted(set(PAPER_OBJECTS) - dead)
    assert not unlisted, f"public but never referenced in the package: {unlisted}"
    assert not stale, f"in PAPER_OBJECTS but gone or now referenced: {stale}"


def test_every_private_name_is_used_in_the_package():
    dead = sorted(unreferenced_private_names())
    assert not dead, f"private but never referenced in the package: {dead}"


def test_a_dead_private_name_is_found(tmp_path):
    (tmp_path / "module.py").write_text(
        "from math import pi as _PI\n"
        "_USED = 2\n"
        "_DEAD = 3\n"
        "\n"
        "\n"
        "def _dead(x):\n"
        "    return _dead(x - 1) if x else _USED  # its own body does not count\n"
        "\n"
        "\n"
        "class _Table:\n"
        "    pass\n"
        "\n"
        "\n"
        "def area():\n"
        "    return _PI * _Table.__name__\n"
    )
    assert unreferenced_private_names(tmp_path) == {"_DEAD", "_dead"}


def test_each_paper_object_names_a_test_that_exists():
    for name, pin in PAPER_OBJECTS.items():
        path, pattern = pin.split("::")
        tree = ast.parse((ROOT / path).read_text())
        tests = [n.name for n in tree.body if isinstance(n, ast.FunctionDef)]
        assert fnmatch.filter(tests, pattern), f"{name}: no test matches {pin}"


def test_a_dead_method_is_found(tmp_path):
    (tmp_path / "module.py").write_text(
        "class Table:\n"
        "    def live(self):\n"
        "        return 1\n"
        "\n"
        "    def dead(self):\n"
        "        return self.dead  # its own body does not count\n"
        "\n"
        "    def _private(self):\n"
        "        return 0\n"
        "\n"
        "\n"
        "def read(table):\n"
        "    return table.live()\n"
        "\n"
        "\n"
        "VALUE = read(Table())\n"
    )
    assert unreferenced_public_objects(tmp_path) == {"Table.dead"}


def test_code_lines_count_statements_less_docstrings_comments_and_blanks(tmp_path):
    (tmp_path / "module.py").write_text(
        '"""A module docstring,\n'
        'over two lines."""\n'
        "\n"
        "import math  # a trailing comment counts with its line\n"
        "\n"
        "\n"
        "@staticmethod\n"
        "def area(r):\n"
        '    """One line."""\n'
        "    # a comment inside the function\n"
        "    return (math.pi\n"
        "\n"
        "            * r ** 2)\n"
    )
    (tmp_path / "empty.py").write_text("# nothing but a comment\n")
    assert code_lines(tmp_path) == 4  # import, def, and the return's two lines
