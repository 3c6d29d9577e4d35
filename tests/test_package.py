"""Package-level checks: the export list; exported functions, methods,
record fields, imports (the tests' too) and private names that nothing
reads; and exported parameters that no caller sets."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import polyrec

SRC = Path(polyrec.__file__).parent
TESTS = Path(__file__).parent

#: Every name the package exported when its export list was kept by hand,
#: less the helpers deleted since because nothing read them.
EXPORTED = [
    "Constants", "ExperimentConfig", "Tolerances", "ConfigError",
    "DEFAULT_CONSTANTS", "DEFAULT_TOLERANCES", "load_config",
    "IntegerSet", "bernoulli_mask", "generate_set",
    "ExactnessError", "Spectrum", "ZnFunction", "balanced_function",
    "dft", "ellp_norm", "exact_correlation", "inverse_dft", "lp_norm",
    "CoefficientMatrix", "IntPolynomial", "LiftResult", "PolynomialFamily",
    "ShiftRange", "check_difference_identity", "check_lift_implication",
    "coefficient_analysis", "lift_construction", "shift_range",
    "TarryCount", "count_solutions_mod",
    "growth_probe", "moment_2k", "tarry_count", "value_range", "weyl_sum", "wrap_free",
    "DecompositionResult", "ShiftReport", "decompose", "default_schedule",
    "find_good_shifts", "intersection_profile",
    "AverageBoundsReport", "BlockVector", "GoodSet", "ProductLattice",
    "SchmidtReport", "WeylDenominatorReport", "approx_good_set_family",
    "approx_good_set_power", "check_average_bounds", "gaussian_average",
    "gaussian_mass", "schmidt_scan", "theta",
    "weyl_denominator",
    "FiniteMPSystem", "GriesmerResult", "KhintchineResult", "griesmer_search",
    "khintchine_search", "recurrence_measure",
]


def test_export_list_keeps_every_name_once_and_resolves():
    assert not set(EXPORTED) - set(polyrec.__all__)
    assert len(polyrec.__all__) == len(set(polyrec.__all__))
    for name in polyrec.__all__:
        getattr(polyrec, name)


def literal_all(tree) -> set[str]:
    """The names listed in a literal __all__ of the module."""
    return {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
            for elt in node.value.elts if isinstance(elt, ast.Constant)}


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
    used |= literal_all(tree)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_check_flags_an_unread_name():
    assert unused_imports("import math\nfrom itertools import product as p\n"
                          "from os import path, sep\npath.join\n"
                          "__all__ = ['sep']\n") == ["line 1: math", "line 2: p"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_modules_import_nothing_they_do_not_use(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _loads(node) -> list[str]:
    """Each name and attribute loaded under node, once per load."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)]


#: Receivers whose attributes are none of the package's: the CLI's
#: argparse namespace and numpy.
FOREIGN_ROOTS = {"args", "np"}


def _root(node):
    """The name an attribute chain, call or subscript hangs from, if any."""
    while isinstance(node, (ast.Attribute, ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return getattr(node, "id", None)


def _attribute_loads(node) -> list[str]:
    """Each attribute loaded under node, once per load, but for those whose
    receiver is rooted at a name in FOREIGN_ROOTS."""
    return [n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and _root(n.value) not in FOREIGN_ROOTS]


def public_callables(tree):
    """Each top-level function named in the module's literal __all__, as
    (None, node), and each public method of a class named there, as
    (class name, node)."""
    exported = literal_all(tree)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in exported:
            yield None, node
        elif isinstance(node, ast.ClassDef) and node.name in exported:
            yield from ((node.name, item) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def unread_exports(sources: dict[str, str], exempt=frozenset()) -> list[str]:
    """Each top-level function named in a literal __all__ that no source
    loads, as a name or an attribute, outside the function's own body; and
    each public method of a class named there that no source reads as an
    attribute outside the method's own body, unless exempt names it as
    Class.method."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loads = Counter(name for tree in trees.values() for name in _loads(tree))
    attributes = Counter(name for tree in trees.values() for name in _attribute_loads(tree))
    unread = []
    for module, tree in sorted(trees.items()):
        for owner, node in public_callables(tree):
            if owner is None:
                label, read = node.name, loads[node.name] - _loads(node).count(node.name)
            else:
                label = f"{owner}.{node.name}"
                read = attributes[node.name] - _attribute_loads(node).count(node.name)
            if not read and label not in exempt:
                unread.append(f"{module} line {node.lineno}: {label}")
    return unread


def test_export_check_flags_a_function_read_only_by_itself():
    sources = {"a.py": "__all__ = ['f', 'g', 'h', 'C']\n"
                       "def f(n):\n    return f(n - 1)\n"
                       "def g():\n    return 1\ndef h():\n    return 2\n"
                       "class C:\n    pass\n",
               "b.py": "import a\nfrom a import g\nx = g() + a.h()\n"}
    assert unread_exports(sources) == ["a.py line 2: f"]


def test_export_check_flags_a_method_nothing_else_reads():
    sources = {"a.py": "__all__ = ['C']\n"
                       "class C:\n    def used(self):\n        return self.size\n"
                       "    def recursive(self):\n        return self.recursive()\n"
                       "    def shadowed(self):\n        return 0\n"
                       "    def pinned(self):\n        return 0\n"
                       "    def _private(self):\n        return 0\n"
                       "    @property\n    def size(self):\n        return 1\n",
               "b.py": "from a import C\nshadowed = C().used()\nprint(shadowed)\n"}
    assert unread_exports(sources, {"C.pinned"}) == ["a.py line 5: C.recursive",
                                                     "a.py line 7: C.shadowed"]


def tracer_system_methods() -> list[str]:
    """The keys of perfbench/tracing.py's _SYSTEM_METHODS, the FiniteMPSystem
    methods the tracer wraps by name."""
    tracing = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text(encoding="utf-8"))
    [table] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "_SYSTEM_METHODS" for t in node.targets)]
    return list(ast.literal_eval(table))


def test_every_exported_function_is_read_in_the_package():
    # a public function or method that no module reads is reached only by
    # tests and examples: delete it, or give it a reader in the program.
    # The tracer wraps its FiniteMPSystem methods by name, so they stay
    # while it does
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    pinned = {f"FiniteMPSystem.{name}" for name in tracer_system_methods()}
    assert unread_exports(sources, pinned) == []


def record_fields(tree):
    """Each annotated field of a class named in the module's literal __all__,
    as (class name, node)."""
    exported = literal_all(tree)
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in exported:
            yield from ((node.name, item) for item in node.body if isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name))


def unread_fields(sources: dict[str, str], exempt=frozenset()) -> list[str]:
    """Each field that record_fields yields and no source reads as an
    attribute, unless exempt names its class, or the field as Class.field."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    attributes = {name for tree in trees.values() for name in _attribute_loads(tree)}
    return [f"{module} line {node.lineno}: {owner}.{node.target.id}"
            for module, tree in sorted(trees.items()) for owner, node in record_fields(tree)
            if node.target.id not in attributes
            and not {owner, f"{owner}.{node.target.id}"} & exempt]


def test_field_check_flags_a_field_nothing_reads():
    sources = {"a.py": "__all__ = ['R', 'S', 'T']\n"
                       "class R:\n    read: int\n    unread: int\n    pinned: int\n"
                       "class S:\n    whole: int\n"
                       "class T:\n    eps: float\n    dtype: str\n    size: int = 0\n"
                       "class _P:\n    hidden: int\n",
               "b.py": "def f(r, args):\n    return r.read, args.eps, np.zeros(1).dtype, r.x.size\n"}
    assert unread_fields(sources, {"R.pinned", "S"}) == ["a.py line 4: R.unread",
                                                        "a.py line 9: T.eps",
                                                        "a.py line 10: T.dtype"]


#: Records the CLI serializes whole, through dataclasses.asdict or vars(),
#: so that every field reaches a report.
SERIALIZED_RECORDS = {"AverageBoundsReport", "SchmidtReport", "WeylDenominatorReport",
                      "LevelInfo", "GrowthRow", "Constants", "Tolerances"}
#: Fields that no module reads, kept on purpose.  ShiftReport.counts is the
#: one public path to cyclic counts: intersection_profile counts inside
#: [1, N] only.
UNREAD_FIELDS = {"ShiftReport.counts"}


def test_every_exported_record_field_is_read_in_the_package():
    # a field that nothing reads is computed and stored for no one: delete
    # it, or give it a reader in the program
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert unread_fields(sources, SERIALIZED_RECORDS | UNREAD_FIELDS) == []


def _passes(call: ast.Call, name: str, position) -> bool:
    """Whether call passes the parameter name, at position (None when it is
    keyword-only); *args and **kwargs pass every parameter."""
    return (any(kw.arg in (None, name) for kw in call.keywords)
            or any(isinstance(arg, ast.Starred) for arg in call.args)
            or position is not None and position < len(call.args))


def unset_parameters(sources: dict[str, str]) -> list[str]:
    """Each defaulted parameter of a function or method that public_callables
    yields, that no call in the sources outside the function's own body
    passes, as "module: function(parameter)".  A call is matched by the name
    or attribute it calls; a method's self or cls takes no position, unless
    it is a staticmethod."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unset = []
    for module, tree in sorted(trees.items()):
        for owner, func in public_callables(tree):
            own = {id(node) for node in ast.walk(func)}
            mine = [call for call in calls if id(call) not in own
                    and func.name in (getattr(call.func, "id", None),
                                      getattr(call.func, "attr", None))]
            static = any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list)
            bound = owner is not None and not static
            positional = (func.args.posonlyargs + func.args.args)[int(bound):]
            first = len(positional) - len(func.args.defaults)
            defaulted = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
            defaulted += [(arg.arg, None) for arg, default
                          in zip(func.args.kwonlyargs, func.args.kw_defaults) if default]
            label = func.name if owner is None else f"{owner}.{func.name}"
            unset += [f"{module}: {label}({name})" for name, i in defaulted
                      if not any(_passes(call, name, i) for call in mine)]
    return unset


def test_parameter_check_flags_a_default_no_call_overrides():
    sources = {"a.py": "__all__ = ['f', 'C']\n"
                       "def f(x, y=1, *, z=2, w=3):\n    return f(x, 0, z=1, w=1)\n"
                       "def g(v=0):\n    return v\n"
                       "class C:\n    def m(self, p=0, q=1):\n        return p\n"
                       "    @staticmethod\n    def s(p=0):\n        return p\n",
               "b.py": "from a import f, C\nf(1, w=4)\nC().m(5)\nC.s(**{})\n"}
    assert unset_parameters(sources) == ["a.py: f(y)", "a.py: f(z)", "a.py: C.m(q)"]


#: Defaulted parameters that no call in the package sets, kept on purpose.
#: decompose's schedule is a test seam: tests pass schedules whose marks
#: grow by one, or jump to N, which the default schedule never reaches.
TEST_SEAMS = ["recurrence.py: decompose(schedule)"]


def test_every_exported_parameter_is_set_in_the_package():
    # an option that no caller sets is one fixed value in disguise: fold the
    # value in, or give the option a caller in the program
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert unset_parameters(sources) == TEST_SEAMS


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
    names = tracer_system_methods()
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


def test_polyfam_finds_every_lift_offset_in_one_place():
    source = (SRC / "polyfam.py").read_text(encoding="utf-8")
    assert callers(source, ("exact_correlation",)) == {"exact_correlation": ["_best_offset"]}
    defined = {node.name for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_argmax_offset", "_distribution", "member_mask"}


def test_ergodic_searches_share_one_counter():
    # Griesmer's base case reads its own red matrix: it neither re-enters
    # khintchine_search nor builds the system T^c
    source = (SRC / "ergodic_lab.py").read_text(encoding="utf-8")
    assert callers(source, ("khintchine_search",)) == {"khintchine_search": []}
    assert [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "power_system"] == []
    assert callers(source, ("_level",)) == {"_level": ["khintchine_search",
                                                       "griesmer_search"]}


def test_ergodic_counts_gather_the_mask_and_build_no_power():
    # every count gathers the one-byte mask through squares of T
    # (_gathered); the int64 power T^s is built only for the two public
    # methods that return it
    source = (SRC / "ergodic_lab.py").read_text(encoding="utf-8")
    powers = [owner for owner, node in owned_nodes(source)
              if isinstance(node, ast.Attribute) and node.attr == "_power"]
    assert sorted(powers) == ["power_map", "power_system"]
    assert callers(source, ("_gathered",)) == {"_gathered": ["recurrence_measure", "_level"]}
    gathers = [f"line {node.lineno}: {owner}" for owner, node in owned_nodes(source)
               if owner in ("recurrence_measure", "_level")
               and (isinstance(node, ast.Subscript)
                    or isinstance(node, ast.Attribute) and node.attr == "take")]
    assert gathers == []


def test_lattice_dioph_reads_every_n_and_q_through_one_scan():
    # _orbit alone reads the block size and holds the budget; the theta
    # table of either side, the good set, S_N and the two q scans all take
    # their n or q from it, and neither q scan walks a range of its own
    source = (SRC / "lattice_dioph.py").read_text(encoding="utf-8")
    readers = [owner for owner, node in owned_nodes(source) if isinstance(node, ast.Name)
               and node.id == "_DILATE_CHUNK" and isinstance(node.ctx, ast.Load)]
    assert readers == ["_orbit"]
    assert callers(source, ("_orbit", "_orbit_theta")) == {
        "_orbit": ["_orbit_theta", "_good_set", "schmidt_scan",
                   "weyl_denominator", "weyl_denominator"],
        "_orbit_theta": ["gaussian_average", "check_average_bounds", "check_average_bounds"]}
    defined = {node.name for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.FunctionDef)}
    assert "_dilate_matrix" not in defined
    range_loops = {owner for owner, node in owned_nodes(source)
                   if isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
                   and getattr(node.iter.func, "id", None) == "range"}
    assert not range_loops & {"schmidt_scan", "weyl_denominator"}


def test_one_lag_counter_serves_the_profiles_and_the_lift_check():
    # the counter lives beside the blocked FFT whose layout its route rule
    # prices; recurrence and polyfam only call it, and the lift's check is
    # two calls of it, with no loop over n
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    counter = {"_intersection_counts", "_packed_counts", "_count_directly"}
    homes = sorted((node.name, module) for module, source in sources.items()
                   for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.FunctionDef) and node.name in counter)
    assert homes == sorted((name, "zn_fourier") for name in counter)
    owners = sorted(owner for source in sources.values()
                    for owner in callers(source, ("_intersection_counts",))
                    ["_intersection_counts"])
    assert owners == ["_count_table", "check_lift_implication", "check_lift_implication"]
    imported = {alias.name for node in ast.walk(ast.parse(sources["recurrence"]))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "_block_layout" not in imported
    loops = [owner for owner, node in owned_nodes(sources["polyfam"])
             if isinstance(node, (ast.For, ast.While))]
    assert "check_lift_implication" not in loops


def set_reads(source: str) -> list[str]:
    """Each read of an IntegerSet parameter's attribute other than mask and
    n, and each read of .array or .elements on anything but np, with its
    line and owner."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        sets = {arg.arg for arg in func.args.args
                if getattr(arg.annotation, "id", None) == "IntegerSet"}
        for node in ast.walk(func):
            if not isinstance(node, ast.Attribute):
                continue
            name = getattr(node.value, "id", None)
            if (name in sets and node.attr not in ("mask", "n")
                    or name != "np" and node.attr in ("array", "elements")):
                found.add(f"line {node.lineno}: {name}.{node.attr} in {func.name}")
    return sorted(found)


def test_set_read_check_flags_every_view_but_the_mask():
    source = ("def f(a: IntegerSet, b):\n    return a.mask, a.n, a.size, b.array, np.array(b)\n"
              "def g(c):\n    return c.elements, c.mask\n")
    assert set_reads(source) == ["line 2: a.size in f", "line 2: b.array in f",
                                 "line 4: c.elements in g"]


def test_zn_fourier_reads_a_set_through_its_mask_alone():
    # one indicator conversion, the set's own mask: no sorted array is
    # scattered into a second one
    source = (SRC / "zn_fourier.py").read_text(encoding="utf-8")
    assert set_reads(source) == []
    assert callers(source, ("_residue_mask",))["_residue_mask"] == [
        "balanced_function", "_intersection_counts"]


def _flatnonzero(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "flatnonzero")


def _one(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == 1


def one_based_members(source: str) -> list[str]:
    """The owner (as in owned_nodes) of each np.flatnonzero(...) + 1, and of
    each += 1 on a name that its owner binds to an np.flatnonzero(...) call:
    a boolean table turned into the 1-based members it marks."""
    nodes = list(owned_nodes(source))
    indices = {(owner, target.id) for owner, node in nodes
               if isinstance(node, ast.Assign) and _flatnonzero(node.value)
               for target in node.targets if isinstance(target, ast.Name)}
    return [owner for owner, node in nodes
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and (_flatnonzero(node.left) and _one(node.right)
                 or _one(node.left) and _flatnonzero(node.right))
            or isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
            and _one(node.value) and (owner, getattr(node.target, "id", None)) in indices]


def test_member_check_flags_each_table_made_one_based():
    source = ("def f(t):\n    return np.flatnonzero(t) + 1, 1 + np.flatnonzero(t)\n"
              "class C:\n    def g(self, t):\n        m = np.flatnonzero(t)\n"
              "        m += 1\n        return m\n"
              "def h(t):\n    i = np.flatnonzero(t)\n    j = i.size\n    j += 1\n"
              "    return i[0] + 1, np.flatnonzero(t) + 2\n"
              "def k(m):\n    m += 1\n    return m\n")
    assert one_based_members(source) == ["f", "f", "g"]


def test_only_an_integer_set_turns_a_boolean_table_into_members():
    # a search or scan hands its boolean table to IntegerSet, whose array
    # is the one place the marked entries become the 1-based members
    found = {path.name: one_based_members(path.read_text(encoding="utf-8"))
             for path in SRC.glob("*.py")}
    assert {name: owners for name, owners in found.items() if owners} == {
        "intset.py": ["array"]}


def dual_bases(source: str) -> list[str]:
    """The owner of each inverse-transpose basis, inv(...).T, formed in source."""
    return [owner for owner, node in owned_nodes(source)
            if isinstance(node, ast.Attribute) and node.attr == "T"
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "attr", getattr(node.value.func, "id", None)) == "inv"]


def test_gaussian_mass_reads_the_dual_side_of_theta():
    # both sides are theta at 0, once direct and once dual, so the dual
    # side reads _dual_points and no dual lattice is enumerated directly:
    # a dual basis is formed only there and in the Schmidt scan
    source = (SRC / "lattice_dioph.py").read_text(encoding="utf-8")
    assert dual_bases(source) == ["_dual_points", "schmidt_scan"]
    assert dual_bases("def f(b):\n    return np.linalg.inv(b).T, inv(b), b.T\n") == ["f"]
    assert callers(source, ("theta",))["theta"].count("gaussian_mass") == 2


def test_both_sides_of_theta_are_one_block_product():
    # theta, the mass, the bounds and both sides of an average read one
    # evaluator; the dual points are enumerated in one place, and the
    # average expands no combinations of them across blocks
    source = (SRC / "lattice_dioph.py").read_text(encoding="utf-8")
    assert callers(source, ("_dual_points", "_theta_values")) == {
        "_dual_points": ["_block_terms"], "_theta_values": ["theta", "_orbit_theta"]}
    assert [owner for owner, node in owned_nodes(source)
            if isinstance(node, ast.Attribute) and node.attr == "meshgrid"
            and owner == "gaussian_average"] == []
    defined = {node.name if isinstance(node, ast.FunctionDef) else node.targets[0].id
               for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef)
               or isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    assert not defined & {"_DUAL_COMBO_BUDGET", "_theta_direct_many"}


def test_the_cli_holds_no_budget_of_its_own():
    # each budget is checked by the module that allocates what it bounds; the
    # CLI reads only the ambient one, for the random values decompose draws,
    # and states no threshold (the Weyl count once had M^(2K) <= 10^7)
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not imported & {"WEYL_M_BUDGET", "TIMES_BUDGET", "_LIFT_MAX_AMBIENT"}
    assert {name for name in imported if name.lstrip("_").isupper()} == {"AMBIENT_BUDGET"}
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and type(node.value) is int and node.value >= 1000] == []


def array_copies(source: str) -> list[str]:
    """Each frozenset call, and each tuple call with a .tolist() in its
    arguments, with its line and owner (as in owned_nodes)."""
    found = []
    for owner, node in owned_nodes(source):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        lists = any(isinstance(inner, ast.Attribute) and inner.attr == "tolist"
                    for arg in node.args for inner in ast.walk(arg))
        if node.func.id == "frozenset" or node.func.id == "tuple" and lists:
            found.append(f"line {node.lineno}: {node.func.id} in {owner}")
    return found


def test_array_copy_check_flags_frozensets_and_tuples_of_lists():
    source = ("s = frozenset(x)\n"
              "def f(x):\n    return tuple(x.tolist())\n"
              "def g(x):\n    return tuple(map(tuple, x.tolist())), tuple(x), x.tolist()\n")
    assert array_copies(source) == ["line 1: frozenset in <module>", "line 3: tuple in f",
                                    "line 5: tuple in g"]


def test_result_records_keep_the_arrays_they_computed():
    # shift counts, good sets, lifted points and implication reports stay
    # read-only arrays; the CLI alone lists them, at its JSON edge, and the
    # lift builds its box values from one axis, with no meshgrid of it
    sources = {name: (SRC / f"{name}.py").read_text(encoding="utf-8")
               for name in ("recurrence", "polyfam", "lattice_dioph")}
    assert {name: array_copies(source) for name, source in sources.items()} == {
        name: [] for name in sources}
    assert "lift_construction" not in [
        owner for owner, node in owned_nodes(sources["polyfam"])
        if isinstance(node, ast.Attribute) and node.attr == "meshgrid"]
