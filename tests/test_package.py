"""Package-level checks: the export list and imports that nothing uses."""

import ast
from pathlib import Path

import pytest

import polyrec

SRC = Path(polyrec.__file__).parent

#: Every name the package exported when its export list was kept by hand.
EXPORTED = [
    "Constants", "ExperimentConfig", "Tolerances", "ConfigError",
    "DEFAULT_CONSTANTS", "DEFAULT_TOLERANCES", "load_config",
    "IntegerSet", "bernoulli_mask", "generate_set",
    "ExactnessError", "Spectrum", "ZnFunction", "balanced_function",
    "correlation", "dft", "ellp_norm", "exact_correlation", "indicator",
    "inverse_dft", "lp_norm",
    "CoefficientMatrix", "IntPolynomial", "LiftResult", "PolynomialFamily",
    "ShiftRange", "check_difference_identity", "check_lift_implication",
    "coefficient_analysis", "lift_construction", "shift_range",
    "GrowthProbe", "TarryCount", "WeylSum", "count_solutions_mod",
    "growth_probe", "moment_2k", "tarry_count", "tarry_count_poly",
    "value_range", "weyl_sum", "wrap_free",
    "DecompositionResult", "ShiftReport", "UniformCertificate", "decompose",
    "default_schedule", "error_term_census", "find_good_shifts",
    "intersection_profile", "main_term", "reference_schedule_log",
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
