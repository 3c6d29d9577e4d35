"""Package-level checks: the export list, and imports and private names
that nothing reads."""

import ast
from pathlib import Path

import pytest

import polyrec

SRC = Path(polyrec.__file__).parent

#: Every name the package exported when its export list was kept by hand,
#: less the helpers deleted since because nothing read them.
EXPORTED = [
    "Constants", "ExperimentConfig", "Tolerances", "ConfigError",
    "DEFAULT_CONSTANTS", "DEFAULT_TOLERANCES", "load_config",
    "IntegerSet", "bernoulli_mask", "generate_set",
    "ExactnessError", "Spectrum", "ZnFunction", "balanced_function",
    "dft", "ellp_norm", "exact_correlation", "indicator",
    "inverse_dft", "lp_norm",
    "CoefficientMatrix", "IntPolynomial", "LiftResult", "PolynomialFamily",
    "ShiftRange", "check_difference_identity", "check_lift_implication",
    "coefficient_analysis", "lift_construction", "shift_range",
    "GrowthProbe", "TarryCount", "WeylSum", "count_solutions_mod",
    "growth_probe", "moment_2k", "tarry_count", "tarry_count_poly",
    "value_range", "weyl_sum", "wrap_free",
    "DecompositionResult", "ShiftReport", "UniformCertificate", "decompose",
    "default_schedule", "find_good_shifts", "intersection_profile",
    "uniform_certificate",
    "AverageBoundsReport", "BlockVector", "GoodSet", "ProductLattice",
    "SchmidtReport", "WeylDenominatorReport", "approx_good_set_family",
    "approx_good_set_power", "check_average_bounds", "gaussian_average",
    "gaussian_mass", "nearest_integer_norm", "schmidt_scan", "theta",
    "weyl_denominator",
    "FiniteMPSystem", "GriesmerResult", "KhintchineResult", "griesmer_search",
    "khintchine_search", "recurrence_measure",
]


def test_export_list_keeps_every_name_once_and_resolves():
    assert not set(EXPORTED) - set(polyrec.__all__)
    assert len(polyrec.__all__) == len(set(polyrec.__all__))
    for name in polyrec.__all__:
        getattr(polyrec, name)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (star and __future__ imports
    aside); a name listed in a literal __all__ counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_check_flags_an_unread_name():
    assert unused_imports("import math\nfrom itertools import product as p\n"
                          "from os import path, sep\npath.join\n"
                          "__all__ = ['sep']\n") == ["line 1: math", "line 2: p"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_modules_import_nothing_they_do_not_use(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(source: str) -> dict[str, int]:
    """Private module-level functions, classes and constants, and private
    methods, each with its line (dunder names aside)."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found.update((name, node.lineno) for name in names if _is_private(name))
        if isinstance(node, ast.ClassDef):
            found.update((item.name, item.lineno) for item in node.body
                         if isinstance(item, ast.FunctionDef) and _is_private(item.name))
    return found


def names_read(source: str) -> set[str]:
    """Names a module loads, attributes it reads and names it imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_private_name_check_flags_an_unread_definition():
    source = ("_A = 1\n_B: int = 2\ndef _f():\n    return _A\n"
              "class _C:\n    def _m(self):\n        return self._n()\n"
              "    def _n(self):\n        return _f()\n    def __len__(self):\n"
              "        return 0\n")
    unread = set(private_definitions(source)) - names_read(source)
    assert unread == {"_B", "_C", "_m"}


def test_private_names_are_read_in_the_package():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    read = set().union(*map(names_read, sources.values()))
    unread = [f"{module} line {line}: {name}"
              for module, source in sorted(sources.items())
              for name, line in private_definitions(source).items() if name not in read]
    assert unread == []


def test_system_methods_the_tracer_patches_exist():
    # perfbench/tracing.py wraps FiniteMPSystem.__dict__[name] for each key
    # of _SYSTEM_METHODS; a missing method would break every traced run
    tracing = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text(encoding="utf-8"))
    [table] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "_SYSTEM_METHODS" for t in node.targets)]
    names = ast.literal_eval(table)
    assert names and [n for n in names if n not in polyrec.FiniteMPSystem.__dict__] == []


#: The functions of lattice_dioph.py that may call np.floor or np.rint: the
#: one guarded phase reduction, and the box of an enumeration of lattice
#: points, whose floor is of a radius, not a phase.
ROUNDING_FUNCTIONS = {"_phases", "_lattice_points_within"}
MODULE = "<module>"


def owned_nodes(source: str):
    """Each node of the module with its owner: the top-level function or
    method it lies in (nested functions count as their owner), or <module>."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner == MODULE:
                yield from visit(child, child.name)
                continue
            yield owner, child
            yield from visit(child, owner)

    return visit(ast.parse(source), MODULE)


def rounding_outside(source: str, allowed=ROUNDING_FUNCTIONS) -> list[str]:
    """Each np.floor or np.rint that the module body or a top-level function
    or method outside `allowed` names, with its line and owner."""
    return [f"line {node.lineno}: np.{node.attr} in {owner}"
            for owner, node in owned_nodes(source)
            if isinstance(node, ast.Attribute) and node.attr in ("floor", "rint")
            and getattr(node.value, "id", None) == "np" and owner not in allowed]


def test_rounding_check_flags_each_reduction_outside_the_allowed_functions():
    source = ("x = np.floor(1.5)\n"
              "def _phases(x):\n    return x - np.floor(x)\n"
              "def scan(x):\n    d = np.abs(x - np.rint(x))\n"
              "    def inner(y):\n        return np.floor(y)\n    return inner\n"
              "class C:\n    def m(self, x):\n        return x - np.floor(x)\n")
    assert rounding_outside(source) == ["line 1: np.floor in <module>",
                                        "line 5: np.rint in scan",
                                        "line 7: np.floor in scan",
                                        "line 11: np.floor in m"]


def test_lattice_dioph_reduces_phases_in_one_place():
    assert rounding_outside((SRC / "lattice_dioph.py").read_text(encoding="utf-8")) == []


def callers(source: str, names) -> dict[str, list[str]]:
    """For each name, the owner (as in owned_nodes) of each call to it."""
    found = {name: [] for name in names}
    for owner, node in owned_nodes(source):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in found):
            found[node.func.id].append(owner)
    return found


def test_callers_names_the_owner_of_each_call():
    source = ("k()\n"
              "def f():\n    def g():\n        return k(1)\n    return k(2) + h()\n"
              "class C:\n    def m(self):\n        return h()\n")
    assert callers(source, ("k", "h")) == {"k": ["<module>", "f", "f"], "h": ["f", "m"]}


def test_weyl_tarry_counts_equal_sums_in_one_place():
    source = (SRC / "weyl_tarry.py").read_text(encoding="utf-8")
    assert callers(source, ("_shift_add_square_sum", "_grouped_square_sum")) == {
        "_shift_add_square_sum": ["_equal_sums"], "_grouped_square_sum": ["_equal_sums"]}
    defined = {node.name for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_tarry_convolution", "_tarry_mitm"}
