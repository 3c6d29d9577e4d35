"""Experiment harness: one subcommand per module, JSON/CSV reports.

Reports are deterministic given the same config and arguments: payloads
are emitted with sorted keys and no timestamps unless --timing is passed.
Exit code 0 means every hard check in the run passed, 1 means a check,
an internal assertion or an exactness guard failed, 2 means the invocation
or config was invalid.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import random
import sys
import time
from fractions import Fraction
from typing import Optional

import numpy as np

from .config import (ConfigError, ExperimentConfig, load_config)
from .intset import AMBIENT_BUDGET, IntegerSet, _Fresh, bernoulli_mask, generate_set
from .zn_fourier import (ExactnessError, ZnFunction, balanced_function, dft,
                         ellp_norm, inverse_dft, lp_norm)
from .polyfam import (IntPolynomial, PolynomialFamily, check_difference_identity,
                      check_lift_implication, coefficient_analysis, lift_construction)
from .weyl_tarry import (count_mod_admitted, count_solutions_mod, growth_probe,
                         moment_2k, tarry_count, weyl_sum, wrap_free)
from .recurrence import decompose, find_good_shifts, intersection_profile
from .lattice_dioph import (BlockVector, ProductLattice, approx_good_set_family,
                            approx_good_set_power, check_average_bounds,
                            gaussian_average, gaussian_mass, schmidt_scan,
                            theta, weyl_denominator)
from .ergodic_lab import (FiniteMPSystem, griesmer_search, khintchine_search,
                          recurrence_measure)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------- parsing

def _parse_set(spec: str, n: int, default_seed: int) -> IntegerSet:
    """Set literals: full | evens | ap:start:step | random:density[:seed]."""
    parts = spec.split(":")
    kind = parts[0].lower()
    if kind in ("full", "all", "even", "evens") and len(parts) != 1:
        raise ValueError(f"{kind} literal is {kind}")
    if kind in ("full", "all"):
        return generate_set("full", n)
    if kind in ("even", "evens"):
        return generate_set("evens", n)
    if kind == "ap":
        if len(parts) != 3:
            raise ValueError("ap literal is ap:start:step")
        return generate_set("ap", n, start=int(parts[1]), step=int(parts[2]))
    if kind == "random":
        if len(parts) not in (2, 3):
            raise ValueError("random literal is random:density[:seed]")
        seed = int(parts[2]) if len(parts) == 3 else default_seed
        return generate_set("random", n, density=float(parts[1]), seed=seed)
    raise ValueError(f"unknown set literal {spec!r}")


def _parse_subset(spec: str, m: int, default_seed: int):
    """0-based subsets: all | range:a:b | list:i,j,... | random:density[:seed].

    all and random give a boolean mask over the m points, range and list
    the points themselves (FiniteMPSystem.validate_subset checks them).
    """
    parts = spec.split(":")
    kind = parts[0].lower()
    if kind == "all":
        if len(parts) != 1:
            raise ValueError("all literal is all")
        return np.ones(m, dtype=bool)
    if kind == "range":
        if len(parts) != 3:
            raise ValueError("range literal is range:a:b (inclusive)")
        a, b = int(parts[1]), int(parts[2])
        if a <= b and (a < 0 or b >= m):  # refused before the points are listed
            raise ValueError("subset contains points outside the space")
        return range(a, b + 1)
    if kind == "list":
        if len(parts) != 2:
            raise ValueError("list literal is list:i,j,...")
        return [int(x) for x in parts[1].split(",")]
    if kind == "random":
        if len(parts) not in (2, 3):
            raise ValueError("random literal is random:density[:seed]")
        seed = int(parts[2]) if len(parts) == 3 else default_seed
        return bernoulli_mask(m, float(parts[1]), seed)
    raise ValueError(f"unknown subset literal {spec!r}")


def _parse_family(text: str) -> PolynomialFamily:
    return PolynomialFamily.parse([t for t in text.split(";") if t.strip()])


def _parse_times(text: str):
    """Time lists: 'a..b' for a range, else comma-separated integers."""
    if ".." in text:
        lo, hi = (int(t) for t in text.split(".."))
        return range(lo, hi + 1)
    return [int(x) for x in text.split(",")]


def _parse_system(spec: str) -> FiniteMPSystem:
    """System literals: rotation:m[:a] | skew:m[:a] | perm:path."""
    parts = spec.split(":")
    kind = parts[0].lower()
    if kind in ("rotation", "skew"):
        if len(parts) not in (2, 3):
            raise ValueError(f"{kind} literal is {kind}:m[:a]")
        m = int(parts[1])
        a = int(parts[2]) if len(parts) > 2 else 1
        if kind == "rotation":
            return FiniteMPSystem.rotation(m, a)
        return FiniteMPSystem.skew_product(m, a)
    if kind == "perm":
        if len(parts) < 2:
            raise ValueError("perm literal is perm:path")
        with open(spec.split(":", 1)[1]) as fh:  # the path may hold ':'
            data = json.load(fh)
        return FiniteMPSystem.from_permutation(data)
    raise ValueError(f"unknown system literal {spec!r}")


def _parse_lattice(spec: str) -> ProductLattice:
    """Lattice literals: int:d1,d2,... | scaled:s:d1,d2,... | file:path."""
    parts = spec.split(":")
    kind = parts[0].lower()
    if kind == "int":
        if len(parts) != 2:
            raise ValueError("int literal is int:d1,d2,...")
        return ProductLattice.integers([int(d) for d in parts[1].split(",")])
    if kind == "scaled":
        if len(parts) != 3:
            raise ValueError("scaled literal is scaled:s:d1,d2,...")
        dims = [int(d) for d in parts[2].split(",")]
        return ProductLattice.scaled_integers(float(parts[1]), dims)
    if kind == "file":
        if len(parts) < 2:
            raise ValueError("file literal is file:path")
        with open(spec.split(":", 1)[1]) as fh:  # the path may hold ':'
            data = json.load(fh)
        try:
            return ProductLattice.from_spec(data)
        except (KeyError, TypeError):  # not a list of {"dim": d, "basis": ...}
            raise ValueError("lattice file must hold a list of blocks "
                             "{\"dim\": d, \"basis\": [[...], ...]}") from None
    raise ValueError(f"unknown lattice literal {spec!r}")


def _parse_number(text: str):
    """'p/q' stays an exact Fraction; anything else becomes a float."""
    text = text.strip()
    if "/" in text:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    return float(text)


def _parse_blockvector(text: str) -> BlockVector:
    """Blocks separated by ';', entries by ','; empty block is ''."""
    blocks = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            blocks.append(())
        else:
            blocks.append(tuple(_parse_number(x) for x in chunk.split(",")))
    return BlockVector(tuple(blocks))


# ---------------------------------------------------------------- reports

def _jsonify(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit(report: dict, path: Optional[str]) -> None:
    """Write the report as strict JSON: a NaN or infinity in it raises
    ValueError, since no answer may carry one.  Public, so that a traced
    benchmark run times serialization as a stage of its own."""
    text = json.dumps(report, indent=2, sort_keys=True, default=_jsonify,
                      allow_nan=False)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _require(args, context: str, *names: str) -> None:
    """Refuse with one line naming every missing option."""
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"{context} needs {' and '.join(missing)}")


# ------------------------------------------------------------ subcommands

def _cmd_search(args, config: ExperimentConfig):
    a = _parse_set(args.set, args.N, config.seed)
    family = _parse_family(args.poly)
    report = find_good_shifts(a, family, args.eps, c=args.c, mode=args.mode,
                              permissive=args.permissive)
    results = {
        "N": args.N,
        "density": a.density,
        "shift_bound": report.shift_range.m,
        "shift_bound_adjusted": report.shift_range.adjusted,
        "threshold": report.threshold,
        "good_shifts": report.good_shifts.array[:200].tolist(),
        "good_count": report.good_shifts.size,
        "density_of_good": float(report.good_shifts.density),
        "within_hypotheses": report.within_hypotheses,
        "empty": not report.good_shifts.size,
    }
    return results, {}


def _cmd_decompose(args, config: ExperimentConfig):
    if args.set is not None:
        a = _parse_set(args.set, args.N, config.seed)
        f = balanced_function(a)
    elif args.N > AMBIENT_BUDGET:  # refused before N values are drawn
        raise ValueError(f"ambient budget exceeded: need N <= {AMBIENT_BUDGET}")
    else:
        rng = np.random.default_rng(config.seed)
        vals = rng.standard_normal(args.N) + 1j * rng.standard_normal(args.N)
        vals /= max(lp_norm(ZnFunction(args.N, vals), 2), 1e-30)
        f = ZnFunction(args.N, _Fresh(vals))
        del vals  # f holds the draw, and lets it go below
    out = decompose(f, args.eps, tol=config.tolerances)
    del f  # the re-transforms below need room for their own arrays
    recon = out.reconstruction_error
    smallest = min(200, out.support.size)
    l2_f2 = lp_norm(out.f2, 2)
    # f3 holds ranks [m, next mark), empty exactly when m = N
    linf_f3_hat = 0.0 if out.m == args.N else ellp_norm(dft(out.f3), math.inf)
    results = {
        "N": args.N,
        "eps": args.eps,
        "m": out.m,
        "rounds": out.rounds,
        "support_size": int(out.support.size),
        "support": np.sort(np.partition(out.support, smallest - 1)[:smallest]).tolist(),
        "eta_of_m": out.eta_of_m,
        "l1_f1_hat": ellp_norm(dft(out.f1), 1),
        "l2_f2": l2_f2,
        "linf_f3_hat": linf_f3_hat,
        "reconstruction_error": recon,
    }
    checks = {
        "parts_sum_to_f": recon < config.tolerances.decomposition_sum,
        "round_bound": out.rounds <= math.ceil(Fraction(args.eps) ** -2),
        "f2_small": l2_f2 <= args.eps + 1e-12,
        "f3_uniform": linf_f3_hat <= out.eta_of_m + 1e-12,
    }
    return results, checks


def _cmd_weyl(args, config: ExperimentConfig):
    poly = IntPolynomial.parse(args.poly)
    weights = None
    if args.weights == "random":  # drawn only once weyl_sum admits M
        rng = random.Random(config.seed)
        weights = (1 if rng.random() < 0.5 else -1 for _ in range(args.M))
    s = weyl_sum(poly, args.M, args.N, weights)
    moment = moment_2k(s, args.K)
    mags = np.abs(s.values)
    results = {
        "poly": str(poly),
        "M": args.M,
        "N": args.N,
        "K": args.K,
        "weights": "plus_minus_one" if weights is not None else "unit",
        "s_abs_max_nonzero": float(np.max(mags[1:])) if args.N > 1 else None,
        "s_at_zero": float(mags[0]),
        "moment_2K": moment,
        "wrap_free": wrap_free(poly, args.M, args.N, args.K),
    }
    checks = {}
    if count_mod_admitted(args.M, args.N, args.K):
        count = count_solutions_mod(poly, args.M, args.N, args.K)
        results["count_solutions_mod"] = count
        predicted = args.N * count
        if weights is None:
            rel = abs(moment - predicted) / max(predicted, 1)
            results["moment_identity_rel_error"] = rel
            checks["moment_identity"] = rel < config.tolerances.moment_identity_rel
        else:
            checks["moment_inequality"] = moment <= predicted * (
                1 + config.tolerances.moment_identity_rel)
    return results, checks


def _cmd_tarry(args, config: ExperimentConfig):
    results = {"K": args.K, "k": args.k}
    checks = {}
    if args.growth:
        ms = sorted(int(x) for x in args.growth.split(","))
        rows = growth_probe(args.K, args.k, ms)
        results["growth_rows"] = [dataclasses.asdict(r) for r in rows]
        results["fitted_slope"] = rows[-1].fitted_slope
        results["theory_exponent"] = rows[-1].theory_exponent
        if args.csv:
            lines = ["M,count,log_count,fitted_slope,theory_exponent"]
            for r in rows:
                slope = "" if r.fitted_slope is None else f"{r.fitted_slope:.6f}"
                lines.append(f"{r.m},{r.count},{r.log_count:.6f},{slope},{r.theory_exponent}")
            with open(args.csv, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            results["csv_path"] = args.csv
    else:
        _require(args, "tarry without --growth", "M")
        out = tarry_count(args.K, args.k, args.M, method=args.method)
        results.update({"M": args.M, "count": out.count, "method": out.method})
        checks["diagonal_lower_bound"] = out.count >= args.M ** args.K
    return results, checks


def _cmd_dioph(args, config: ExperimentConfig):
    tol = config.tolerances
    checks: dict = {}
    needs = {"mass": ("lattice",), "average": ("lattice", "alpha"),
             "bounds": ("lattice", "alpha"), "schmidt": ("lattice", "alpha"),
             "goodset": ("theta",) if args.poly else ("alpha",),
             "denominator": ("theta",)}
    need = needs[args.action]
    _require(args, f"dioph --action {args.action}", *need)
    lattice = _parse_lattice(args.lattice) if "lattice" in need else None
    alpha = _parse_blockvector(args.alpha) if "alpha" in need else None
    if args.action == "mass":
        value = gaussian_mass(lattice, tol)  # two-sided agreement asserted
        results = {"action": "mass", "determinant": lattice.determinant,
                   "gaussian_mass": value}
        checks["two_sided_agreement"] = True
    elif args.action == "average":
        value = gaussian_average(lattice, alpha, args.N,
                                 check_dual=args.check_dual, tol=tol)
        results = {"action": "average", "N": args.N, "average": value,
                   "dual_checked": args.check_dual}
        if args.check_dual:
            checks["dual_agreement"] = True
    elif args.action == "bounds":
        rep = check_average_bounds(lattice, alpha, args.N, args.c, args.q, tol=tol)
        results = {"action": "bounds", **dataclasses.asdict(rep)}
        checks["scaling_bound"] = rep.holds_scaling
        checks["subsampling_bound"] = rep.holds_subsampling
    elif args.action == "schmidt":
        rep = schmidt_scan(lattice, alpha, args.N, args.q_max, args.radius,
                           config.constants.B_quality, tol=tol)
        results = {"action": "schmidt", **dataclasses.asdict(rep)}
    elif args.action == "goodset":
        if args.poly:
            family = _parse_family(args.poly)
            thetas = [_parse_number(t) for t in args.theta.split(",")]
            good = approx_good_set_family(family, thetas, args.eps, args.N)
        else:
            good = approx_good_set_power(alpha, args.eps, args.N)
        results = {
            "action": "goodset", "N": args.N, "eps": args.eps,
            "exact_arithmetic": good.exact, "count": good.members.size,
            "density": good.members.density, "members": good.members.array[:200].tolist(),
        }
    elif args.action == "denominator":
        thetas = [_parse_number(t) for t in args.theta.split(",")]
        rep = weyl_denominator(thetas, args.N, args.delta, args.q_max,
                               c_exponent=args.c_exp)
        results = {"action": "denominator", **dataclasses.asdict(rep),
                   "found": rep.found}
    else:
        raise ValueError(f"unknown dioph action {args.action!r}")
    return results, checks


def _cmd_ergodic(args, config: ExperimentConfig):
    system = _parse_system(args.system)
    subset = system.validate_subset(_parse_subset(args.subset, system.size,
                                                  config.seed))
    mu = Fraction(int(np.count_nonzero(subset)), system.size)
    results: dict = {"system_size": system.size, "mu_A": mu}
    checks: dict = {}
    times = None if args.action == "measure" else _parse_times(args.times)
    if args.action == "measure":
        value = recurrence_measure(system, subset, args.shift)
        results.update({"action": "measure", "shift": args.shift,
                        "measure": value})
    elif args.action == "khintchine":
        out = khintchine_search(system, subset, args.eps, times,
                                permissive=args.permissive)
        results.update({
            "action": "khintchine", "eps": args.eps, "found": out.found,
            "pair": list(out.pair) if out.pair else None, "n": out.n,
            "measure": out.measure, "threshold": out.threshold,
            "strict": out.strict, "pairs_scanned": out.pairs_scanned,
        })
        checks["khintchine_found"] = out.found
    elif args.action == "griesmer":
        constants = [int(c) for c in args.constants.split(",")]
        out = griesmer_search(system, subset, args.eps, constants, times)
        results.update({
            "action": "griesmer", "eps": args.eps, "found": out.found,
            "n": out.n, "measures": list(out.measures),
            "threshold": out.threshold,
            "levels": [dataclasses.asdict(lv) for lv in out.levels],
            "failure_reason": out.failure_reason,
        })
        checks["griesmer_found"] = out.found
    else:
        raise ValueError(f"unknown ergodic action {args.action!r}")
    return results, checks


def _cmd_lift(args, config: ExperimentConfig):
    a = _parse_set(args.set, args.N, config.seed)
    family = _parse_family(args.poly)
    lift = lift_construction(a, family, args.half_width)
    implication = check_lift_implication(lift, a, family)
    analysis = lift.analysis
    results = {
        "N": args.N,
        "half_width": lift.half_width,
        "ambient": a.n,
        "rank": analysis.rank,
        "independent_rows": list(analysis.independent_rows),
        "offset": list(lift.offset),
        "size": len(lift.points),
        "density": lift.density,
        "required_multiple": lift.required_multiple,
        "implication_candidates": implication.candidates,
        "implication_hits": implication.hits,
    }
    checks = {
        "implication_holds": implication.ok,
        "nonempty": len(lift.points) > 0,
    }
    return results, checks


def _cmd_selftest(args, config: ExperimentConfig):
    """Quick deterministic battery across every module."""
    tol = config.tolerances
    checks: dict = {}
    rng = np.random.default_rng(config.seed)

    n = 256
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    f = ZnFunction(n, vals)
    back = inverse_dft(dft(f))
    checks["fourier_roundtrip"] = float(np.max(np.abs(back.values - f.values))) \
        < tol.inversion_max
    checks["plancherel"] = abs(lp_norm(f, 2) - ellp_norm(dft(f), 2)) \
        < tol.plancherel_rel * lp_norm(f, 2)

    a = generate_set("evens", 100)
    family = _parse_family("0,1")
    table = intersection_profile(a, family, 5)
    brute = []
    for shift in (p.evaluate(nn) for p in family.members for nn in range(1, 6)):
        elems = set(a.elements)
        brute.append(Fraction(sum(1 for x in elems if x + shift in elems), 100))
    checks["intersection_oracle"] = list(table[0]) == brute

    poly = IntPolynomial((0, 1))
    s = weyl_sum(poly, 6, 50)
    checks["moment_identity"] = abs(
        moment_2k(s, 2) - 50 * count_solutions_mod(poly, 6, 50, 2)
    ) < tol.moment_identity_rel * 50 * count_solutions_mod(poly, 6, 50, 2)

    checks["tarry_2_1_2"] = tarry_count(2, 1, 2).count == 6
    checks["tarry_2_1_3"] = tarry_count(2, 1, 3).count == 19

    checks["difference_identity"] = all(
        check_difference_identity(j, 7, -3) for j in range(1, 7))

    g = generate_set("random", 512, density=0.5, seed=config.seed)
    out = decompose(balanced_function(g), 0.2, tol=tol)
    checks["decomposition_rounds"] = out.rounds <= math.ceil(0.2 ** -2)

    lat = ProductLattice.integers([1])
    checks["poisson_theta"] = abs(
        theta(lat, 1.3, [0.4]) - theta(lat, 1.3, [0.4], side="dual")
    ) < tol.poisson_rel * theta(lat, 1.3, [0.4])
    checks["gaussian_mass_z"] = abs(gaussian_mass(lat, tol) - 1.0864348112) < 1e-6

    sys_rot = FiniteMPSystem.rotation(100)
    khi = khintchine_search(sys_rot, range(0, 50), 0.1, list(range(1, 11)))
    checks["khintchine"] = khi.found and khi.measure >= Fraction(1, 4) - Fraction(1, 10)

    small = generate_set("random", 60, density=0.6, seed=config.seed)
    lift = lift_construction(small, _parse_family("1;0,1"), 60)
    checks["lift_implication"] = check_lift_implication(
        lift, small, _parse_family("1;0,1")).ok

    cm = coefficient_analysis(_parse_family("1,1;1,-1;2"))
    checks["coefficient_analysis"] = cm.rank == 2 and cm.dependent_rows == (2,)

    return {"cases": len(checks)}, checks


# ----------------------------------------------------------------- driver

class _Parser(argparse.ArgumentParser):
    """A usage error exits 2 with one line, as every other refusal does."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polyrec",
        description="Desk-scale experiments on polynomial recurrence: Fourier "
                    "profiles, Weyl sums, lattice Gaussians, recurrence searches.",
    )
    parser.add_argument("--config", help="path to a JSON config (else "
                        "POLYREC_CONFIG, else defaults)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--output", help="write the JSON report here instead "
                        "of stdout")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock time in the report "
                             "(breaks byte-for-byte determinism)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("search", help="good shifts for a set and family")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--poly", required=True,
                   help="family literal, e.g. '0,1;1,1' for n^2 and n+n^2")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--mode", choices=("integer", "cyclic"), default="integer")
    p.add_argument("--permissive", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("decompose", help="structured/small/uniform splitting")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--set", help="decompose the balanced function of this set")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("weyl", help="exponential sums and moment counts")
    p.add_argument("--poly", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--weights", choices=("unit", "random"), default="unit")
    p.set_defaults(func=_cmd_weyl)

    p = sub.add_parser("tarry", help="equal-power-sum tuple counting")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--M", type=int)
    p.add_argument("--method", choices=("auto", "convolution", "mitm"),
                   default="auto")
    p.add_argument("--growth", help="comma-separated M values for a growth probe")
    p.add_argument("--csv", help="CSV output path for the growth probe")
    p.set_defaults(func=_cmd_tarry)

    p = sub.add_parser("dioph", help="lattice Gaussians and approximation scans")
    p.add_argument("--action", required=True,
                   choices=("mass", "average", "bounds", "schmidt", "goodset",
                            "denominator"))
    p.add_argument("--lattice", help="int:d1,d2 | scaled:s:d1,d2 | file:path")
    p.add_argument("--alpha", help="block vector, e.g. '1/2;0.3,0.7'")
    p.add_argument("--poly", help="family literal for goodset")
    p.add_argument("--theta", help="comma-separated reals (fractions stay exact)")
    p.add_argument("--N", type=int, default=100)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--c", type=float, default=0.5)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--q-max", type=int, default=100)
    p.add_argument("--radius", type=float, default=2.5)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--c-exp", type=float, default=2.0)
    p.add_argument("--check-dual", action="store_true")
    p.set_defaults(func=_cmd_dioph)

    p = sub.add_parser("ergodic", help="finite recurrence searches")
    p.add_argument("--action", required=True,
                   choices=("measure", "khintchine", "griesmer"))
    p.add_argument("--system", required=True,
                   help="rotation:m[:a] | skew:m[:a] | perm:path")
    p.add_argument("--subset", required=True,
                   help="all | range:a:b | list:... | random:density[:seed]")
    p.add_argument("--shift", type=int, default=1)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--times", default="1..20")
    p.add_argument("--constants", default="1")
    p.add_argument("--permissive", action="store_true")
    p.set_defaults(func=_cmd_ergodic)

    p = sub.add_parser("lift", help="multidimensional lift and implication check")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--half-width", type=int, required=True)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("selftest", help="fast deterministic invariant battery")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    started = time.monotonic()
    try:
        results, checks = args.func(args, config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ExactnessError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1

    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": args.subcommand,
        "config": {
            "seed": config.seed,
            "constants": vars(config.constants),  # flat records: no deep copy
            "tolerances": vars(config.tolerances),
            "threads": config.threads,
        },
        "results": results,
        "checks": checks,
        "all_checks_passed": all(checks.values()),
    }
    if args.timing:
        report["wall_clock_seconds"] = time.monotonic() - started
    try:
        emit(report, args.output)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"internal check failed: report is not strict JSON: {exc}", file=sys.stderr)
        return 1
    return 0 if report["all_checks_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
