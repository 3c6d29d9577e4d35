import json
import re
import subprocess
import sys

import pytest

from polyrec.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_selftest_passes_and_exits_zero(capsys):
    code, report = run_cli(capsys, "selftest")
    assert code == 0
    assert report["all_checks_passed"]
    assert report["schema_version"] == 1
    assert all(report["checks"].values())


def test_search_even_squares_reexposed(capsys):
    code, report = run_cli(capsys, "search", "--N", "10000", "--set", "even",
                           "--poly", "0,1", "--eps", "0.1")
    assert code == 0
    results = report["results"]
    assert results["shift_bound"] == 31
    assert results["good_count"] == 15
    assert abs(results["density_of_good"] - 0.5) < 0.02
    assert results["good_shifts"] == list(range(2, 32, 2))


def test_tarry_small_case_reexposed(capsys):
    code, report = run_cli(capsys, "tarry", "--K", "2", "--k", "1", "--M", "2")
    assert code == 0
    assert report["results"]["count"] == 6
    assert report["checks"]["diagonal_lower_bound"]


def test_search_with_no_good_shift_reports_an_empty_set(capsys):
    # A = 1, 51, 101, ...: every shift n <= M = 2 misses A, and count 0 is
    # not above the limit, so the boolean table is all False
    code, report = run_cli(capsys, "search", "--N", "10000", "--set", "ap:1:50",
                           "--poly", "1", "--eps", "0.0003")
    assert code == 0
    results = report["results"]
    assert results["shift_bound"] == 2
    assert results["good_count"] == 0
    assert results["density_of_good"] == 0.0
    assert results["empty"] is True
    assert results["good_shifts"] == []


def test_goodset_with_no_member_reports_an_empty_set(capsys):
    # |n/3| = 1/3 > 0.2 at n = 1 and 2
    code, report = run_cli(capsys, "dioph", "--action", "goodset", "--alpha", "1/3",
                           "--N", "2", "--eps", "0.2")
    assert code == 0
    results = report["results"]
    assert results["exact_arithmetic"] is True
    assert results["count"] == 0
    assert results["density"] == "0"
    assert results["members"] == []


def test_tarry_growth_probe_writes_csv(tmp_path, capsys):
    path = tmp_path / "growth.csv"
    code, report = run_cli(capsys, "tarry", "--K", "2", "--k", "1",
                           "--growth", "20,40,60", "--csv", str(path))
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "M,count,log_count,fitted_slope,theory_exponent"
    assert len(lines) == 4
    assert abs(report["results"]["fitted_slope"] - 3.0) < 0.5
    # one point fits no slope; each later row has the slope of the rows up
    # to it, to six decimals, and the last is the reported one
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["20", "40", "60"]
    assert rows[0][3] == ""
    for row in rows[1:]:
        assert re.fullmatch(r"\d+\.\d{6}", row[3]), row
    assert rows[-1][3] == f"{report['results']['fitted_slope']:.6f}"


def test_reports_are_byte_identical_across_runs(tmp_path):
    args = [sys.executable, "-m", "polyrec.cli", "search", "--N", "2000",
            "--set", "random:0.5:9", "--poly", "0,1", "--eps", "0.1"]
    first = subprocess.run(args, capture_output=True, text=True)
    second = subprocess.run(args, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert "wall_clock" not in first.stdout


def test_timing_flag_adds_wall_clock(capsys):
    code, report = run_cli(capsys, "--timing", "selftest")
    assert code == 0
    assert "wall_clock_seconds" in report


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _ = run_cli(capsys, "--output", str(path), "tarry", "--K", "1",
                      "--k", "2", "--M", "7")
    assert code == 0
    report = json.loads(path.read_text())
    assert report["results"]["count"] == 7


def test_bad_config_names_the_field(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"constants": {"C1": -2.0}}))
    code = main(["--config", str(cfg), "selftest"])
    err = capsys.readouterr().err
    assert code == 2
    assert "C1" in err


def test_boolean_threads_is_refused(tmp_path, capsys):
    # bool is an int subclass: true must not pass as one thread
    cfg = tmp_path / "threads.json"
    cfg.write_text(json.dumps({"threads": True}))
    code = main(["--config", str(cfg), "selftest"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.strip().splitlines() == [
        "config error: threads: expected an integer >= 1, got True"]


def test_config_seed_flows_into_generators(capsys):
    code_a, rep_a = run_cli(capsys, "--seed", "5", "search", "--N", "500",
                            "--set", "random:0.5", "--poly", "0,1",
                            "--eps", "0.2")
    code_b, rep_b = run_cli(capsys, "--seed", "6", "search", "--N", "500",
                            "--set", "random:0.5", "--poly", "0,1",
                            "--eps", "0.2")
    assert code_a == code_b == 0
    assert rep_a["config"]["seed"] == 5
    # different seeds give different random sets, hence (generically)
    # different profiles
    assert rep_a["results"] != rep_b["results"]


def test_dioph_goodset_exact_density(capsys):
    code, report = run_cli(capsys, "dioph", "--action", "goodset",
                           "--alpha", "1/3", "--eps", "0.2", "--N", "300")
    assert code == 0
    results = report["results"]
    assert results["exact_arithmetic"]
    assert results["density"] == "1/3"
    assert results["count"] == 100


def test_dioph_mass_and_bounds(capsys):
    code, report = run_cli(capsys, "dioph", "--action", "mass",
                           "--lattice", "int:1,1")
    assert code == 0
    want = 1.0864348112133082 ** 2
    assert abs(report["results"]["gaussian_mass"] - want) < 1e-9

    code, report = run_cli(capsys, "dioph", "--action", "bounds",
                           "--lattice", "int:1", "--alpha", "0.37",
                           "--N", "60", "--c", "0.5", "--q", "3")
    assert code == 0
    assert report["checks"]["scaling_bound"]
    assert report["checks"]["subsampling_bound"]


def test_dioph_average_checks_the_dual_side_of_three_3d_blocks(capsys):
    # the dual side of int:3,3,3 sums its blocks' dual points, not every
    # combination of them across blocks (once refused, exit 2)
    argv = ["dioph", "--action", "average", "--lattice", "int:3,3,3",
            "--alpha", "0.3,0.2,0.1;0.7,0.5,0.4;0.11,0.13,0.17", "--N", "50"]
    code, checked = run_cli(capsys, *argv, "--check-dual")
    assert code == 0
    assert checked["checks"]["dual_agreement"]
    code, report = run_cli(capsys, *argv)
    assert code == 0
    assert checked["results"]["average"] == report["results"]["average"]


def test_ergodic_measure_subcommand(capsys):
    code, report = run_cli(capsys, "ergodic", "--action", "measure",
                           "--system", "rotation:10", "--subset", "range:0:4",
                           "--shift", "5")
    assert code == 0
    assert report["results"]["measure"] == "0"
    code, report = run_cli(capsys, "ergodic", "--action", "khintchine",
                           "--system", "rotation:100", "--subset", "range:0:49",
                           "--eps", "0.1", "--times", "1..10")
    assert code == 0
    assert report["results"]["found"]
    assert report["results"]["measure"] == "49/100"


def test_lift_subcommand(capsys):
    code, report = run_cli(capsys, "lift", "--N", "40", "--set", "random:0.6:3",
                           "--poly", "1;0,1", "--half-width", "40")
    assert code == 0
    assert report["checks"]["implication_holds"]
    assert report["results"]["size"] > 0


def test_a_wide_lift_checks_its_implication_in_a_child():
    # 120000 candidates n: the check is two lag counts, not a loop over n
    out = subprocess.run([sys.executable, "-m", "polyrec.cli", "lift", "--N", "10",
                          "--set", "evens", "--poly", "1", "--half-width", "30000"],
                         capture_output=True, text=True, timeout=20)
    assert out.returncode == 0, out.stderr
    results = json.loads(out.stdout)["results"]
    assert len(results["implication_candidates"]) == 120000
    assert results["implication_hits"] == [-8, -6, -4, -2, 2, 4, 6, 8]


def test_invalid_literals_exit_2(capsys):
    assert main(["search", "--N", "100", "--set", "primes", "--poly", "0,1",
                 "--eps", "0.1"]) == 2
    assert main(["dioph", "--action", "goodset", "--alpha", "x,y",
                 "--eps", "0.1"]) == 2


@pytest.mark.parametrize("argv", [
    ["ergodic", "--action", "measure", "--system", "skew", "--subset", "all"],
    ["ergodic", "--action", "measure", "--system", "rotation", "--subset", "all"],
    ["ergodic", "--action", "measure", "--system", "rotation:5:1:2", "--subset", "all"],
    ["ergodic", "--action", "measure", "--system", "perm", "--subset", "all"],
    ["ergodic", "--action", "measure", "--system", "rotation:5", "--subset", "list"],
    ["dioph", "--action", "mass", "--lattice", "int"],
    ["dioph", "--action", "mass", "--lattice", "scaled:1.5"],
    ["dioph", "--action", "mass", "--lattice", "file"],
])
def test_truncated_literals_exit_2_with_one_line(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert " literal is " in captured.err


@pytest.mark.parametrize("argv, flag, literal, content, same_as", [
    (["ergodic", "--action", "measure", "--subset", "range:0:1", "--shift", "1"],
     "--system", "perm", [1, 2, 0], "rotation:3"),
    (["dioph", "--action", "mass"], "--lattice", "file", [{"dim": 1}], "int:1"),
])
def test_path_literals_keep_colons_in_the_path(tmp_path, capsys, argv, flag, literal,
                                                content, same_as):
    path = tmp_path / "a:b" / "spec.json"
    path.parent.mkdir()
    path.write_text(json.dumps(content))
    code, report = run_cli(capsys, *argv, flag, f"{literal}:{path}")
    assert code == 0
    assert report["results"] == run_cli(capsys, *argv, flag, same_as)[1]["results"]


def test_search_with_a_huge_c_scans_to_the_first_bad_shift(capsys):
    code, report = run_cli(capsys, "search", "--N", "1000", "--set", "evens",
                           "--poly", "0,0,1", "--eps", "0.1", "--c", "1e200")
    assert code == 0
    # j^3 <= eps N = 100 holds up to j = 4
    assert report["results"]["shift_bound"] == 4
    assert report["results"]["shift_bound_adjusted"]


@pytest.mark.parametrize("flag, value", [("--eps", "inf"), ("--c", "inf"),
                                         ("--eps", "nan")])
def test_search_refuses_non_finite_eps_and_c(capsys, flag, value):
    argv = {"--N": "1000", "--set": "evens", "--poly": "0,1", "--eps": "0.1",
            flag: value}
    code = main(["search", *(part for item in argv.items() for part in item)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


_PEAK = ("import resource, sys\n"
         "from polyrec.cli import main\n"
         "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
         "code = main(sys.argv[1:])\n"
         "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
         "print(code, peak - base)\n")


def test_weyl_reports_the_count_whenever_the_counter_admits_it(capsys):
    # M^(2K) = 10^8 was past the CLI's own gate of 10^7, which left out the
    # count; the counter admits it at about 2*10^6 adds
    code, report = run_cli(capsys, "weyl", "--poly", "0,1", "--M", "100", "--N", "20011",
                           "--K", "2")
    assert code == 0
    assert report["results"]["count_solutions_mod"] == 33632
    assert report["checks"] == {"moment_identity": True}


def test_weyl_leaves_out_a_count_the_counter_refuses(capsys):
    # 10^5 rows on cyclic layers of 10^5: 10^10 adds, past DENSE_BUDGET
    code, report = run_cli(capsys, "weyl", "--poly", "1", "--M", "100000", "--N", "100000")
    assert code == 0
    assert "count_solutions_mod" not in report["results"]
    assert report["checks"] == {}


@pytest.mark.parametrize("m,message", [
    # shift-and-add in Python integers: 5e11 weighted adds
    ("100000", "error: shift-and-add budget exceeded"),
    # grouping of 10^14 tuples, refused before a table of 10^7 values
    ("10000000", "error: meet-in-the-middle budget exceeded"),
])
def test_tarry_past_its_budget_is_refused_before_the_work(m, message):
    argv = ["tarry", "--K", "2", "--k", "1", "--M", m]
    out = subprocess.run([sys.executable, "-c", _PEAK, *argv], capture_output=True,
                         text=True, timeout=30)
    code, grown_kb = map(int, out.stdout.split())
    assert code == 2
    assert out.stderr.count("\n") == 1 and out.stderr.startswith(message)
    assert grown_kb < 20_000  # ru_maxrss is in KiB; a 10^7 table takes 80 MB or more


#: Runs main on argv in a child whose address space is capped {mib} MiB above
#: its size after import.
_CAPPED_AT = ("import resource, sys\n"
              "from polyrec.cli import main\n"
              "with open('/proc/self/statm') as fh:\n"
              "    size = int(fh.read().split()[0]) * resource.getpagesize()\n"
              "cap = size + ({mib} << 20)\n"
              "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
              "sys.exit(main(sys.argv[1:]))\n")
#: 256 MiB: far below the 640 MB a Weyl sum at N = 10^7 takes.
_CAPPED = _CAPPED_AT.format(mib=256)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
@pytest.mark.parametrize("n", ["10000001", "1000000000000"])
def test_weyl_past_its_n_budget_is_refused_before_any_allocation(n):
    out = subprocess.run([sys.executable, "-c", _CAPPED, "weyl", "--poly", "1",
                          "--M", "5", "--N", n], capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "error: Weyl sum budget exceeded: need N <= 10000000\n"


_ERGODIC = ["ergodic", "--action", "measure", "--subset", "all"]
_AVERAGE = ["dioph", "--action", "average", "--lattice", "int:1", "--alpha", "0.3"]
_AMBIENT = "ambient budget exceeded: need N <= 2000000"
_TIMES = "time list budget exceeded: need at most 4096 times"
_SEARCHES = [["ergodic", "--action", action, "--system", "rotation:10", "--subset", "all"]
             for action in ("khintchine", "griesmer")]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
@pytest.mark.parametrize("argv,message", [
    (_ERGODIC + ["--system", "rotation:10000000000"], "system budget exceeded"),
    (_ERGODIC + ["--system", "rotation:16777217"], "system budget exceeded"),
    (_ERGODIC + ["--system", "skew:100000"], "system budget exceeded"),
    (["ergodic", "--action", "khintchine", "--system", "rotation:10", "--subset", "all",
      "--times", "1..10000000000"], "time list budget exceeded: need at most 4096 times"),
    (["ergodic", "--action", "griesmer", "--system", "rotation:10", "--subset", "all",
      "--times", "1..4097"], "time list budget exceeded: need at most 4096 times"),
    (["ergodic", "--action", "measure", "--system", "rotation:10",
      "--subset", "range:-100000000000:3"], "subset contains points outside the space"),
    (["weyl", "--poly", "1", "--M", "1000000000000", "--N", "5"],
     "Weyl sum budget exceeded: need M <= 2000000"),
    (["weyl", "--poly", "1", "--M", "1000000000000", "--N", "5", "--weights", "random"],
     "Weyl sum budget exceeded: need M <= 2000000"),
    (_AVERAGE + ["--N", "100000000"], "orbit scan budget exceeded: need N <= 10000000"),
    (_AVERAGE + ["--N", "1000000000000"], "orbit scan budget exceeded: need N <= 10000000"),
    (["dioph", "--action", "denominator", "--theta", "0.3", "--N", "100000000"],
     "orbit scan budget exceeded: need N <= 10000000"),
    (["dioph", "--action", "denominator", "--theta", "0.3", "--q-max", "1000000000000"],
     "orbit scan budget exceeded: need q_max <= 10000000"),
    (["dioph", "--action", "goodset", "--alpha", "1/3", "--N", "1000000000000"],
     "orbit scan budget exceeded: need N <= 10000000"),
    # F(4) < 1/2 here, so the scan over q is reached
    (["dioph", "--action", "schmidt", "--lattice", "scaled:6:1,1", "--alpha", "2.5;1.7",
      "--N", "4", "--radius", "0.9", "--q-max", "1000000000000"],
     "orbit scan budget exceeded: need q_max <= 10000000"),
    # 171,896 candidates: q_max = 1000 took 8.1 s
    (["dioph", "--action", "schmidt", "--lattice", "scaled:6:2", "--alpha", "2.5,1.7",
      "--N", "4", "--radius", "50", "--q-max", "1000"],
     "Schmidt scan budget exceeded: q_max * candidates > 100000000"),
    # each was an _ArrayMemoryError traceback, exit 1
    (["search", "--N", "1000000000000", "--set", "evens", "--poly", "1", "--eps", "0.1"],
     _AMBIENT),
    (["search", "--N", "100000000", "--set", "random:0.3:1", "--poly", "1", "--eps", "0.1"],
     _AMBIENT),
    (["decompose", "--N", "1000000000000", "--set", "evens", "--eps", "0.1"], _AMBIENT),
    (["decompose", "--N", "1000000000000", "--eps", "0.1"], _AMBIENT),
    (["lift", "--N", "1000000000000", "--set", "evens", "--poly", "1", "--half-width", "10"],
     _AMBIENT),
    # m = 10^301 shifts: the shift range check read ever longer blocks
    (["search", "--N", "10", "--set", "full", "--poly", "1", "--eps", "1e300"],
     "shift budget exceeded: need l * m <= 4000000"),
    # a comma list was read whole, and khintchine took any number of times
    (_SEARCHES[0] + ["--times", ",".join(map(str, range(1, 4098)))], _TIMES),
    (_SEARCHES[0] + ["--times", "1..100000000000000000000"], _TIMES),
    (_SEARCHES[1] + ["--times", "1..100000000000000000000"], _TIMES),
    # each ran past 15 s: 2^(10^12) formed as a Python integer, 10^6 monomials
    # and their spans, and a grouping of 12 key columns of 1.6*10^7 sums
    (["tarry", "--K", "1000000000000", "--k", "1", "--M", "2"],
     "meet-in-the-middle budget exceeded"),
    (["tarry", "--K", "2", "--k", "1000000", "--M", "2"],
     "degree budget exceeded: need k <= 64"),
    (["tarry", "--K", "2", "--k", "12", "--M", "4000"],
     "meet-in-the-middle budget exceeded"),
])
def test_inputs_past_a_budget_are_refused_before_any_allocation(argv, message):
    out = subprocess.run([sys.executable, "-c", _CAPPED, *argv], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.count("\n") == 1 and out.stderr.startswith(f"error: {message}")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_an_average_over_a_million_n_answers_in_a_capped_child():
    # theta values are kept as one float64 per n, the dilates only per block
    # of the orbit scan: whole-N tables took about 330 bytes per n
    out = subprocess.run([sys.executable, "-c", _CAPPED, *_AVERAGE, "--N", "1000000"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["results"]["N"] == 1000000


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_an_average_over_a_fine_lattice_answers_in_a_capped_child():
    # an orbit block holds as many n as keep the 18,293 points of this
    # block's cloud within _PHASE_BLOCK terms; all 1000 n at once took 293 MB
    argv = ["dioph", "--action", "average", "--lattice", "scaled:0.05:2",
            "--alpha", "0.3,0.7", "--N", "1000"]
    out = subprocess.run([sys.executable, "-c", _CAPPED, *argv],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["results"]["average"] == 1.0000000000000002


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
@pytest.mark.parametrize("argv,mib,field,value", [
    # every n is good: the boolean table takes 10 MB, and the members as a
    # tuple of Python ints took the child to 503 MiB
    (["dioph", "--action", "goodset", "--alpha", "1/1", "--N", "10000000"], 256,
     "count", 10 ** 7),
    # a box of 271^3 points: its meshgrid, coordinates and value table took
    # the child to 1,606 MiB; its values are now built column by column
    (["lift", "--N", "10", "--set", "random:0.5:1", "--poly", "0,0,1",
      "--half-width", "135"], 1024, "size", 440646),
])
def test_large_results_answer_in_a_capped_child(argv, mib, field, value):
    out = subprocess.run([sys.executable, "-c", _CAPPED_AT.format(mib=mib), *argv],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["results"][field] == value
