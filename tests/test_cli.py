import json
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


def test_tarry_growth_probe_writes_csv(tmp_path, capsys):
    path = tmp_path / "growth.csv"
    code, report = run_cli(capsys, "tarry", "--K", "2", "--k", "1",
                           "--growth", "20,40,60", "--csv", str(path))
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "M,count,log_count,fitted_slope,theory_exponent"
    assert len(lines) == 4
    assert abs(report["results"]["fitted_slope"] - 3.0) < 0.5


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
