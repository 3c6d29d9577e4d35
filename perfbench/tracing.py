"""Spans around the public functions of every polyrec module.

Only a traced worker imports this.  `Tracer.install` wraps each function
named in a module's ``__all__`` (for modules without one: the public
functions it defines) and rebinds every reference to it in the
``polyrec.*`` namespaces, since ``from .x import y`` copies the binding.
The FiniteMPSystem constructors and methods are patched on the class.
Per-element helpers such as IntPolynomial.evaluate are left alone, so
their time stays in the caller's self time.

A span is [name, start, end, parent index, query id, raised, note];
spans stay in memory until the worker ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("cli", "config", "intset", "zn_fourier", "polyfam", "weyl_tarry",
           "recurrence", "lattice_dioph", "ergodic_lab")

#: Span names that merge several functions into one layer metric.
_ALIASES = {
    "lattice_dioph.approx_good_set_power": "lattice_dioph.approx_good_set",
    "lattice_dioph.approx_good_set_family": "lattice_dioph.approx_good_set",
}

#: FiniteMPSystem attribute -> span name.
_SYSTEM_METHODS = {
    "rotation": "ergodic_lab.system_build",
    "skew_product": "ergodic_lab.system_build",
    "from_permutation": "ergodic_lab.system_build",
    "__post_init__": "ergodic_lab.system_build",
    "cycles": "ergodic_lab.cycles",
    "order": "ergodic_lab.order",
    "power_map": "ergodic_lab.power_map",
    "power_system": "ergodic_lab.power_system",
    "validate_subset": "ergodic_lab.validate_subset",
}

#: Facts kept from a span's return value, for counts the report lacks.
_NOTES = {
    "weyl_tarry.tarry_count": lambda r: r.method,
    "ergodic_lab.khintchine_search": lambda r: r.pairs_scanned,
    "zn_fourier.dft": lambda r: r.modulus,
    "zn_fourier.inverse_dft": lambda r: r.modulus,
}


def _public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.query = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query,
                   False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                rec[6] = note(result)
            return result
        return traced

    def install(self) -> None:
        import polyrec.cli  # noqa: F401  (loads every module)
        from polyrec.ergodic_lab import FiniteMPSystem

        replaced = {}
        for short in MODULES:
            module = sys.modules[f"polyrec.{short}"]
            for fname in _public_functions(module):
                name = f"{short}.{fname}"
                fn = getattr(module, fname)
                replaced[id(fn)] = (fn, self.wrap(_ALIASES.get(name, name), fn))
        for modname, module in list(sys.modules.items()):
            if modname != "polyrec" and not modname.startswith("polyrec."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        for attr, name in _SYSTEM_METHODS.items():
            raw = FiniteMPSystem.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(FiniteMPSystem, attr,
                        classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(FiniteMPSystem, attr, self.wrap(name, raw))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
