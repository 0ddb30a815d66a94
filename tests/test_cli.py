"""CLI tests drive main(argv) in-process and check text + exit codes."""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdpb import acceptance, cli, harness
from qdpb.cli import main
from qdpb.harness import read_instance, write_instance
from qdpb.instances import Example2Params, example2_set_cover, random_max_coverage
from qdpb.core import RandomSource
from qdpb.errors import QdpbError
from qdpb.problems import MaxCoverageInstance

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def star5(tmp_path):
    path = tmp_path / "star5.json"
    assert main(["gen-instance", "example2", "--n", "5", "--out", str(path)]) == 0
    return str(path)


def test_gen_instance_writes_readable_files(tmp_path, capsys):
    out = tmp_path / "bip.json"
    code = main(["gen-instance", "example1", "--n", "9", "--delta", "1/3", "--out", str(out)])
    assert code == 0
    assert "n=9" in capsys.readouterr().out
    inst = read_instance(out)
    assert (inst.n, inst.m_elements, inst.k) == (9, 20, 4)
    rand = tmp_path / "rand.json"
    code = main(
        [
            "gen-instance", "random-set-cover", "--n", "7", "--m-elements", "8",
            "--density", "0.4", "--max-weight", "5", "--instance-seed", "3",
            "--out", str(rand),
        ]
    )
    assert code == 0
    assert read_instance(rand).n == 7


@pytest.mark.parametrize(
    "family, description, flags",
    [
        ("example1", "bipartite max-coverage family", ["--n", "--delta"]),
        ("example2", "umbrella-vs-singletons set cover family", ["--n"]),
        (
            "random-max-coverage",
            "random coverage instance",
            ["--n", "--m-elements", "--density", "--k", "--instance-seed"],
        ),
        (
            "random-set-cover",
            "random weighted cover instance",
            ["--n", "--m-elements", "--density", "--max-weight", "--instance-seed"],
        ),
    ],
)
def test_gen_instance_help_shows_the_family_and_its_flags(family, description, flags, capsys):
    assert main(["gen-instance", family, "--help"]) == 0
    out = capsys.readouterr().out
    assert description in out
    assert set(re.findall(r"(?<![\w-])--[a-z-]+", out)) == {"--help", "--out", *flags}


def test_gen_instance_rejects_inadmissible_parameters(tmp_path, capsys):
    out = tmp_path / "never.json"
    code = main(["gen-instance", "example1", "--n", "10", "--delta", "1/10", "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    code = main(["gen-instance", "example1", "--n", "9", "--delta", "abc", "--out", str(out)])
    assert code == 1
    assert "delta must be a fraction string" in capsys.readouterr().err
    assert not out.exists()


def test_gen_instance_refuses_sizes_no_problem_could_serve(tmp_path, capsys):
    out = tmp_path / "never.json"
    huge = ["--n", "8", "--m-elements", str(10**30), "--density", "0.3", "--instance-seed", "1"]
    for argv in (
        ["random-max-coverage", *huge, "--k", "3"],
        ["random-set-cover", *huge, "--max-weight", "3"],
        ["example1", "--n", "30000", "--delta", "1/10"],
    ):
        assert main(["gen-instance", *argv, "--out", str(out)]) == 1, argv
        assert "MiB, over the 512 MiB limit" in capsys.readouterr().err
        assert not out.exists()


def test_gen_instance_refuses_more_draws_than_the_limit(tmp_path, capsys):
    out = tmp_path / "never.json"
    argv = ["--n", "8", "--m-elements", str(2**24), "--density", "0.3", "--k", "3", "--instance-seed", "1"]
    assert main(["gen-instance", "random-max-coverage", *argv, "--out", str(out)]) == 1
    assert "134,217,728 element draws, over the 4,194,304 limit" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_reports_optimum(star5, capsys):
    assert main(["oracle", star5]) == 0
    out = capsys.readouterr().out
    assert "OPT=4" in out
    assert "01111" in out
    assert "optima count: 1" in out


@pytest.fixture
def bip9(tmp_path):
    path = tmp_path / "bip9.json"
    assert main(["gen-instance", "example1", "--n", "9", "--delta", "1/3", "--out", str(path)]) == 0
    return str(path)


def test_oracle_reports_coverage_optimum_and_no_gamma(bip9, capsys):
    # Coverage is submodular: its submodularity ratio is always 1, so the
    # oracle prints no such constant.
    capsys.readouterr()
    assert main(["oracle", bip9]) == 0
    out = capsys.readouterr().out
    assert "OPT=20" in out
    assert "gamma" not in out


def test_oracle_enumerates_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "rand12.json"
    args = ["--n", "12", "--m-elements", "20", "--density", "0.25", "--k", "4", "--instance-seed", "3"]
    assert main(["gen-instance", "random-max-coverage", *args, "--out", str(path)]) == 0
    calls = 0
    brute_force_opt = cli.brute_force_opt

    def counted(problem):
        nonlocal calls
        calls += 1
        return brute_force_opt(problem)

    monkeypatch.setattr(cli, "brute_force_opt", counted)
    monkeypatch.setattr(harness, "brute_force_opt", counted)
    assert main(["oracle", str(path)]) == 0
    assert calls == 1
    assert "OPT=" in capsys.readouterr().out


def test_run_target_ratio_enumerates_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "rand16.json"
    args = ["--n", "16", "--m-elements", "20", "--density", "0.25", "--k", "4", "--instance-seed", "3"]
    assert main(["gen-instance", "random-max-coverage", *args, "--out", str(path)]) == 0
    calls = 0
    brute_force_opt = harness.brute_force_opt

    def counted(problem):
        nonlocal calls
        calls += 1
        return brute_force_opt(problem)

    monkeypatch.setattr(cli, "brute_force_opt", counted)
    monkeypatch.setattr(harness, "brute_force_opt", counted)
    run = ["run", "--instance", str(path), "--algo", "ea", "--budget", "200", "--target-ratio", "0.5"]
    assert main(run) == 0
    assert calls == 1
    assert "OPT=" in capsys.readouterr().out


def _random_instance(folder, n) -> str:
    """A random max-coverage instance of ``n`` sets, in no recognized family."""
    path = folder / f"rand{n}.json"
    args = ["--n", str(n), "--m-elements", "8", "--density", "0.3", "--k", "3", "--instance-seed", "4"]
    assert main(["gen-instance", "random-max-coverage", *args, "--out", str(path)]) == 0
    return str(path)


def test_oracle_enumerates_beyond_the_resolve_limit(tmp_path, monkeypatch, capsys):
    # resolve_problem enumerates only up to n=20 before a run; `qdpb oracle`
    # goes up to the oracle's own guard.
    path = _random_instance(tmp_path, 21)
    calls = 0
    brute_force_opt = cli.brute_force_opt

    def counted(problem):
        nonlocal calls
        calls += 1
        return brute_force_opt(problem)

    monkeypatch.setattr(cli, "brute_force_opt", counted)
    monkeypatch.setattr(harness, "brute_force_opt", counted)
    assert harness.resolve_problem(harness.ProblemSpec(kind="file", path=path)).known_opt is None
    assert calls == 0
    assert main(["oracle", path]) == 0
    assert calls == 1
    assert "OPT=" in capsys.readouterr().out


def test_oracle_past_the_enumeration_limit(tmp_path, capsys):
    # n > 24: a recognized family prints its closed-form optimum, any other
    # instance is refused.
    star = tmp_path / "star30.json"
    assert main(["gen-instance", "example2", "--n", "30", "--out", str(star)]) == 0
    capsys.readouterr()
    assert main(["oracle", str(star)]) == 0
    assert "OPT=29 (closed form; instance too large to enumerate)" in capsys.readouterr().out
    assert main(["oracle", _random_instance(tmp_path, 25)]) == 1
    assert "n=25 is too large for exhaustive search" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error, message", [(QdpbError("stale"), "runtime error: stale"), (KeyError("x"), "runtime error: KeyError: 'x'")]
)
def test_runtime_failures_exit_2(error, message, star5, monkeypatch, capsys):
    def fail(problem):
        raise error

    monkeypatch.setattr(cli, "brute_force_opt", fail)
    capsys.readouterr()
    assert main(["oracle", star5]) == 2
    assert message in capsys.readouterr().err


def test_oracle_missing_file_exits_1(capsys):
    assert main(["oracle", "/nonexistent/f.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_umbrella_solution(star5, capsys):
    assert main(["analyze", star5, "--solution", "10000", "--escape-radius"]) == 0
    out = capsys.readouterr().out
    assert "fitness: 32" in out
    assert "ratio: 8" in out
    assert "feasible: yes" in out
    assert "escape radius: 5" in out
    assert main(["analyze", star5, "--solution", "01111", "--escape-radius"]) == 0
    assert "escape radius: none (no strictly better solution exists)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "instance, word, fitness",
    [("bip9", "111111111", "-1"), ("star5", "00011", "324")],  # over the size cap; uncovered elements
)
def test_analyze_prints_no_ratio_for_an_infeasible_solution(instance, word, fitness, request, capsys):
    path = request.getfixturevalue(instance)
    capsys.readouterr()  # the fixture's gen-instance line names a tmp path holding the test name
    assert main(["analyze", path, "--solution", word]) == 0
    out = capsys.readouterr().out
    assert f"fitness: {fitness}" in out
    assert "feasible: no" in out
    assert "ratio" not in out


def test_an_instance_with_optimum_zero_runs_and_is_analysed_without_a_ratio(tmp_path, capsys):
    # No set covers anything, so OPT = 0 and the approximation ratio is undefined.
    path = tmp_path / "empty.json"
    doc = {"format": "qdpb-instance-v1", "kind": "max-coverage", "n": 3, "m_elements": 2, "k": 1}
    path.write_text(json.dumps({**doc, "sets": [[], [], []]}))
    rows = tmp_path / "rows.csv"
    assert main(["run", "--algo", "ea", "--instance", str(path), "--budget", "50", "--rows", str(rows)]) == 0
    assert main(["analyze", str(path), "--solution", "100"]) == 0
    out = capsys.readouterr().out
    assert "OPT=0" in out and "fitness: 0" in out
    assert "ratio" not in out
    header, row = (line.split(",") for line in rows.read_text().splitlines())
    assert dict(zip(header, row))["ratio"] == "nan"


def test_analyze_prints_fitness_exactly(tmp_path, capsys):
    path = str(tmp_path / "star30.json")
    assert main(["gen-instance", "example2", "--n", "30", "--out", path]) == 0
    assert main(["analyze", path, "--solution", "1" + "0" * 29]) == 0
    assert "fitness: 1073741824\n" in capsys.readouterr().out


@pytest.mark.parametrize("trials, median", [(3, "20925481"), (2, "20925481.0")])
def test_run_prints_best_fitness_exactly(trials, median, tmp_path, capsys):
    path = str(tmp_path / "cover.json")
    assert main([
        "gen-instance", "random-set-cover", "--n", "16", "--m-elements", "20", "--density", "0.2",
        "--max-weight", "9000000", "--instance-seed", "3", "--out", path,
    ]) == 0
    assert main(["run", "--instance", path, "--algo", "map-elites", "--budget", "2000", "--trials", str(trials)]) == 0
    out = capsys.readouterr().out
    assert "OPT=20925481" in out
    assert f"best fitness: 20925481 (median {median})\n" in out, out


def test_analyze_refuses_the_escape_radius_past_its_limit_before_printing(tmp_path, capsys):
    path = str(tmp_path / "bip30.json")
    assert main(["gen-instance", "example1", "--n", "30", "--delta", "1/10", "--out", path]) == 0
    capsys.readouterr()
    assert main(["analyze", path, "--solution", "0" * 30, "--escape-radius"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "escape radius search is limited to n <= 20, got n=30" in err


def test_analyze_rejects_wrong_length(star5, capsys):
    assert main(["analyze", star5, "--solution", "101"]) == 1
    assert "5" in capsys.readouterr().err


def test_run_trap_experiment(star5, tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    code = main(
        [
            "run", "--algo", "ea", "--instance", star5,
            "--seed-population", "local", "--budget", "2000", "--trials", "2",
            "--master-seed", "41",
            "--target-fitness", "32", "--target-strict", "--target-allow-infeasible",
            "--rows", str(rows),
        ]
    )
    assert code == 0
    lines = rows.read_text().strip().splitlines()
    assert len(lines) == 3  # header + one line per trial
    assert lines[0].startswith("trial,seed,")
    out = capsys.readouterr().out
    assert "successes:" in out


def test_run_map_elites_with_ratio_target(star5, tmp_path, capsys):
    doc = tmp_path / "report.json"
    code = main(
        [
            "run", "--algo", "map-elites", "--instance", star5,
            "--budget", "400", "--trials", "2", "--target-ratio", "1.0",
            "--document", str(doc),
        ]
    )
    assert code == 0
    data = json.loads(doc.read_text())
    assert data["format"] == "qdpb-report-v1"
    assert data["known_opt"] == 4
    assert len(data["records"]) == 2
    assert "successes: 2/2" in capsys.readouterr().out


def test_run_config_file(star5, tmp_path, capsys):
    config = {
        "problem": {"kind": "file", "path": star5},
        "algorithm": "map-elites",
        "budget": 300,
        "trials": 2,
        "master_seed": 9,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == 0
    assert "algorithm: map-elites" in capsys.readouterr().out
    # Any experiment flag next to --config is a config error, naming the flags;
    # only the output flags may be given with it.
    for flags in (
        ["--algo", "ea"],
        ["--algo", "map-elites"],
        ["--trials", "7", "--master-seed", "9", "--target-fitness", "5", "--workers", "2"],
        ["--master-seed", "0"],
        ["--run-to-budget"],
    ):
        assert main(["run", "--config", str(path), *flags]) == 1, flags
        err = capsys.readouterr().err
        assert "--config replaces the experiment flags" in err
        assert all(flag in err for flag in flags if flag.startswith("--")), err
    rows, document = tmp_path / "rows.csv", tmp_path / "report.json"
    assert main(["run", "--config", str(path), "--rows", str(rows), "--document", str(document)]) == 0
    assert "master-seed=9" in capsys.readouterr().out
    assert len(rows.read_text().splitlines()) == 3  # header + one line per trial
    assert json.loads(document.read_text())["config"]["master_seed"] == 9
    # So is a number given as a string.
    path.write_text(json.dumps({**config, "budget": "300"}))
    assert main(["run", "--config", str(path)]) == 1
    assert "budget must be an integer" in capsys.readouterr().err
    # So are mistyped problem and target numbers.
    random_cover = {"kind": "random-set-cover", "n": 6, "m_elements": 7, "max_weight": 5, "instance_seed": 1}
    for overrides, message in (
        ({"problem": {"kind": "example2", "n": "12"}}, "n must be an integer"),
        ({"problem": {"kind": "example2", "n": 12.0}}, "n must be an integer"),
        ({"problem": {**random_cover, "density": "0.3"}}, "density must be a number"),
        ({"target": {"threshold": "5"}}, "threshold must be a number"),
        ({"target": {"threshold": 5, "required_cell": "3"}}, "required_cell must be an integer"),
        # Malformed nested objects and a delta that is not a fraction.
        ({"target": 5}, "target must be an object"),
        ({"target": [1]}, "target must be an object"),
        ({"problem": {"kind": "example1", "n": 9, "delta": "abc"}}, "delta must be a fraction string"),
        # A number would be opened as a file descriptor.
        ({"problem": {"kind": "file", "path": 5}}, "path must be a string"),
        # Seed members that are not strings, and bools given as strings.
        ({"algorithm": "ea", "seed_population": [5]}, "seed_population members must be strings"),
        ({"strict": "yes"}, "strict must be true or false"),
        ({"stop_on_target": 1}, "stop_on_target must be true or false"),
        ({"target": {"threshold": 5, "strict": "yes"}}, "strict must be true or false"),
        ({"target": {"threshold": 5, "require_feasible": "no"}}, "require_feasible must be true or false"),
        # A target cell outside the grid of 5 cells.
        ({"target": {"threshold": 99999, "required_cell": 999}}, "target cell 999 outside 0..4"),
        ({"target": {"threshold": 99999, "required_cell": -1}}, "target cell -1 outside 0..4"),
        # A field the problem kind does not take.
        ({"problem": {"kind": "example1", "n": 9, "delta": "1/3", "path": star5}}, "does not take 'path'"),
        ({"problem": {"kind": "example2", "n": 6, "delta": "1/10"}}, "does not take 'delta'"),
        ({"problem": {"kind": "file", "path": star5, "k": 3}}, "does not take 'k'"),
        ({"problem": {**random_cover, "density": 0.4, "k": 3}}, "does not take 'k'"),
        (
            {"problem": {**random_cover, "kind": "random-max-coverage", "density": 0.4, "k": 3}},
            "does not take 'max_weight'",
        ),
    ):
        path.write_text(json.dumps({**config, **overrides}))
        assert main(["run", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err


def test_run_refuses_non_finite_targets(tmp_path, capsys):
    path = tmp_path / "star6.json"
    assert main(["gen-instance", "example2", "--n", "6", "--out", str(path)]) == 0
    run = ["run", "--algo", "ea", "--instance", str(path), "--budget", "200", "--trials", "2"]
    for flag, value in (
        ("--target-fitness", "nan"),
        ("--target-fitness", "inf"),
        ("--target-fitness", "-inf"),
        ("--target-ratio", "nan"),
        ("--target-ratio", "inf"),
    ):
        capsys.readouterr()
        assert main([*run, f"{flag}={value}"]) == 1, (flag, value)
        assert "threshold must be finite" in capsys.readouterr().err
    # json.load parses NaN and Infinity, so a config file can carry them too.
    config = tmp_path / "config.json"
    data = {
        "problem": {"kind": "file", "path": str(path)},
        "algorithm": "ea",
        "budget": 200,
        "trials": 2,
        "master_seed": 0,
    }
    config.write_text(json.dumps({**data, "target": {"threshold": 5}}))
    assert main(["run", "--config", str(config)]) == 0
    for threshold in (float("nan"), float("inf")):
        capsys.readouterr()
        config.write_text(json.dumps({**data, "target": {"threshold": threshold}}))
        assert main(["run", "--config", str(config)]) == 1
        assert "threshold must be finite" in capsys.readouterr().err


def test_malformed_documents_exit_1_naming_the_file(star5, tmp_path, capsys):
    doc = json.loads(Path(star5).read_text())
    for name, bad, message in (
        ("unknown-key", {**doc, "comment": "x"}, "unknown instance field(s): comment"),
        ("float-n", {**doc, "n": 2.0}, "n must be an integer"),
        ("set-not-list", {**doc, "sets": [[0, 1, 2, 3], 1, [1], [2], [3]]}, "sets[1] must be a tuple"),
        ("weights-int", {**doc, "weights": 5}, "weights must be a list"),
        ("no-kind", {k: v for k, v in doc.items() if k != "kind"}, "'kind'"),
        # json.load parses NaN, so an int field can carry it.
        ("nan-penalty", {**doc, "penalty": float("nan")}, "penalty must be an integer"),
        ("latin-1", b'{"format": "qdpb-instance-v1", "kind": "\xe9t\xe9"}', "not valid UTF-8"),
        ("nested", b"[" * 100_000, "maximum recursion depth"),
        # json.loads refuses an int of over 4,300 digits with a ValueError.
        ("huge-int", b'{"format": "qdpb-instance-v1", "n": 1' + b"0" * 4300 + b"}", "Exceeds the limit"),
    ):
        path = tmp_path / f"{name}.json"
        path.write_bytes(bad if isinstance(bad, bytes) else json.dumps(bad).encode())
        for argv in (["oracle", str(path)], ["run", "--algo", "ea", "--instance", str(path), "--budget", "50"]):
            capsys.readouterr()
            assert main(argv) == 1, (name, argv)
            err = capsys.readouterr().err
            assert str(path) in err and message in err, (name, argv, err)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"problem": {"kind": "file", "path": star5}, "algorithm": "ea"}))
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert str(config) in err and "missing 'budget'" in err


@pytest.mark.parametrize("case", ["oracle", "analyze", "run-config", "seed-folder", "seed-latin-1"])
def test_unreadable_input_exits_1_naming_the_path(case, star5, tmp_path, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    latin1 = tmp_path / "members.txt"
    latin1.write_bytes(b"10000\n\xe9t\xe9\n")
    seeded = ["run", "--algo", "ea", "--instance", star5, "--budget", "50", "--seed-population"]
    path, argv = {
        "oracle": (folder, ["oracle", str(folder)]),
        "analyze": (folder, ["analyze", str(folder), "--solution", "010"]),
        "run-config": (folder, ["run", "--config", str(folder)]),
        "seed-folder": (folder, [*seeded, f"@{folder}"]),
        "seed-latin-1": (latin1, [*seeded, f"@{latin1}"]),
    }[case]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err, err


@pytest.mark.parametrize("writer", ["instance", "rows", "document"])
def test_unwritable_output_exits_1_naming_the_path(writer, star5, tmp_path, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    for path in (folder, tmp_path / "missing" / "out"):
        argv = {
            "instance": ["gen-instance", "example2", "--n", "5", "--out", str(path)],
            "rows": ["run", "--algo", "ea", "--instance", star5, "--budget", "50", "--rows", str(path)],
            "document": ["run", "--algo", "ea", "--instance", star5, "--budget", "50", "--document", str(path)],
        }[writer]
        capsys.readouterr()
        assert main(argv) == 1, path
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{path}: cannot be written" in err, err


def test_output_paths_are_checked_before_the_first_trial(star5, tmp_path, capsys, monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_trial", no_trials)
    folder = tmp_path / "folder"
    folder.mkdir()
    kept = tmp_path / "kept.csv"
    kept.write_text("an earlier report\n")
    fresh = tmp_path / "fresh.csv"
    run = ["run", "--algo", "ea", "--instance", star5, "--budget", "50"]
    for outputs in (
        ["--rows", str(folder)],
        ["--rows", str(kept), "--document", str(folder)],
        ["--rows", str(fresh), "--document", str(tmp_path / "missing" / "report.json")],
    ):
        capsys.readouterr()
        assert main([*run, *outputs]) == 1, outputs
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "cannot be written" in err, err
        # Neither the file already there nor a fresh path is touched.
        assert kept.read_text() == "an earlier report\n"
        assert not fresh.exists()


def test_output_check_leaves_no_target_behind_a_dangling_link(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link").symlink_to("target")
    missing = str(tmp_path / "missing.json")
    assert main(["run", "--algo", "ea", "--instance", missing, "--budget", "10", "--rows", "link"]) == 1
    _out, err = capsys.readouterr()
    assert missing in err, err
    assert not (tmp_path / "target").exists()
    assert (tmp_path / "link").is_symlink() and os.readlink(tmp_path / "link") == "target"


def test_rows_and_document_must_name_different_files(star5, tmp_path, capsys, monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_trial", no_trials)
    report = tmp_path / "report"
    (tmp_path / "link").symlink_to(report)
    run = ["run", "--algo", "ea", "--instance", star5, "--budget", "100"]
    for rows, document in (
        (report, report),
        (report, tmp_path / "." / "report"),
        (tmp_path / "link", report),
    ):
        capsys.readouterr()
        assert main([*run, "--rows", str(rows), "--document", str(document)]) == 1, (rows, document)
        out, err = capsys.readouterr()
        assert out == "" and "--rows and --document name the same file" in err, err
        assert not report.exists()


def test_run_refuses_an_output_that_names_an_input(star5, tmp_path, capsys, monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_trial", no_trials)
    monkeypatch.chdir(tmp_path)
    members = tmp_path / "members.txt"
    members.write_text("10000\n" * 5)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "problem": {"kind": "file", "path": star5}, "algorithm": "ea", "budget": 100, "trials": 1,
        "master_seed": 0,
    }))
    (tmp_path / "link").symlink_to(star5)
    flags = ["run", "--algo", "ea", "--instance", star5, "--budget", "100"]
    cases = (
        ([*flags, "--document", star5], "--instance and --document"),
        ([*flags, "--rows", "link"], "--instance and --rows"),
        ([*flags, "--seed-population", "@members.txt", "--rows", str(members)], "--seed-population and --rows"),
        (["run", "--config", str(config), "--document", "config.json"], "--config and --document"),
        (["run", "--config", str(config), "--rows", "x.csv", "--document", star5],
         "--config's problem path and --document"),
    )
    inputs = {path: path.read_bytes() for path in (Path(star5), members, config)}
    for argv, names in cases:
        capsys.readouterr()
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and f"error: {names} name the same file" in err, err
        assert {path: path.read_bytes() for path in inputs} == inputs
        assert not (tmp_path / "x.csv").exists()


def test_run_refuses_a_milestone_log_over_the_row_limit(star5, tmp_path, capsys):
    rows, document = tmp_path / "rows.csv", tmp_path / "report.json"
    start = time.perf_counter()
    code = main([
        "run", "--algo", "map-elites", "--instance", star5, "--milestone-every", "1",
        "--budget", "1000000000", "--rows", str(rows), "--document", str(document),
    ])
    assert code == 1 and time.perf_counter() - start < 5
    assert "would log about 1,000,000,000 rows" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["star5.json"]


def test_run_refuses_a_target_cell_that_does_not_exist(tmp_path, capsys):
    path = tmp_path / "star6.json"
    assert main(["gen-instance", "example2", "--n", "6", "--out", str(path)]) == 0
    run = [
        "run", "--algo", "map-elites", "--instance", str(path),
        "--budget", "2000", "--trials", "3", "--target-fitness", "99999",
    ]
    for cell in ("999", "-1"):
        capsys.readouterr()
        assert main([*run, "--target-cell", cell]) == 1, cell
        assert f"target cell {cell} outside 0..5" in capsys.readouterr().err
    capsys.readouterr()
    assert main([*run, "--target-cell", "5"]) == 0  # the full cover's cell; any cover meets 99999
    assert "successes: 3/3" in capsys.readouterr().out


def test_instance_with_oversize_chunk_tables_exits_1(tmp_path, capsys):
    # 64 sets of one element: a tiny file whose probe tables would take 1 GiB.
    m = 2**22
    path = tmp_path / "oversize.json"
    write_instance(MaxCoverageInstance(n=64, m_elements=m, sets=((m - 1,),) * 64, k=3), path)
    for argv in (["run", "--algo", "ea", "--instance", str(path), "--budget", "100"], ["oracle", str(path)]):
        assert main(argv) == 1, argv
        assert "over the 512 MiB limit" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Hostile input, run in a subprocess with its address space capped at 1 GiB


_CAPPED_MAIN = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "from qdpb.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)
needs_rlimit = pytest.mark.skipif(
    importlib.util.find_spec("resource") is None, reason="address-space caps need the resource module"
)


def _capped_main(argv, cwd=ROOT):
    """``main(argv)`` in a fresh interpreter capped at 1 GiB of address space and 10 s."""
    return subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=10,
    )


def _far_cover_file(folder) -> str:
    """A 3.5 kB set-cover file: 200 sets of elements 0 and 10^9, whose masks
    would take 125 MB each."""
    n = 200
    doc = {
        "format": "qdpb-instance-v1", "kind": "set-cover", "n": n, "m_elements": 10**9 + 1,
        "weights": [1] * n, "penalty": n + 1, "sets": [[0, 10**9]] * n,
    }
    path = os.path.join(folder, "far.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return path


@needs_rlimit
def test_instance_with_far_elements_exits_1_naming_the_file(tmp_path):
    path = _far_cover_file(tmp_path)
    for argv in (
        ["oracle", path],
        ["analyze", path, "--solution", "0" * 200],
        ["run", "--algo", "ea", "--instance", path, "--budget", "100"],
    ):
        proc = _capped_main(argv)
        assert proc.returncode == 1, (argv, proc.stderr)
        assert proc.stderr.startswith(f"error: {path}: ") and "999999999 element(s)" in proc.stderr, proc.stderr


@needs_rlimit
def test_an_oversized_population_exits_1_and_writes_nothing(tmp_path):
    star = str(tmp_path / "star12.json")
    write_instance(example2_set_cover(Example2Params(12)), star)
    out = tmp_path / "out.json"
    proc = _capped_main([
        "run", "--algo", "ea", "--instance", star, "--budget", "200000000", "--init-count", "200000000",
        "--allow-unfair", "--seed-population", "local", "--document", str(out),
    ])
    assert proc.returncode == 1, proc.stderr
    assert "200,000,000 members" in proc.stderr and "2,097,152 member limit" in proc.stderr, proc.stderr
    assert not out.exists()


_HOSTILE = st.one_of(
    st.none(),
    st.booleans(),
    st.just(math.nan),
    st.sampled_from([10**30, -(10**30), 2**63, 1e30, -1, 0]),
    st.text(max_size=6),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.sampled_from(["n", "kind", "x"]), st.integers(-2, 2), max_size=2),
)


def _paths(value, prefix=()):
    """The path of every field and item inside a JSON value, outermost first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield prefix + (key,)
        yield from _paths(item, prefix + (key,))


@st.composite
def _mutated(draw, doc, fixed=()):
    """``doc`` with one or two of its fields or items (none in ``fixed``) hostile."""
    doc = json.loads(json.dumps(doc))
    paths = [path for path in _paths(doc) if path[0] not in fixed]
    chosen = draw(st.lists(st.sampled_from(paths), min_size=1, max_size=2, unique=True))
    for path in sorted(chosen, key=len, reverse=True):  # inner fields first
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(_HOSTILE)
    return doc


def _instance_doc(inst) -> dict:
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "inst.json")
        write_instance(inst, path)
        with open(path) as fh:
            return json.load(fh)


_COVERAGE_DOC = _instance_doc(random_max_coverage(6, 8, 0.4, 3, RandomSource(5)))
_COVER_DOC = _instance_doc(example2_set_cover(Example2Params(5)))


@st.composite
def _far_elements(draw):
    """A file of one or two sets whose elements lie near 10^9, with m_elements to match."""
    n = draw(st.integers(1, 2))
    sets = [
        sorted(draw(st.sets(st.integers(10**9 - 20, 10**9 + 20), min_size=1, max_size=3)))
        for _ in range(n)
    ]
    m_elements = max(max(s) for s in sets) + 1 + draw(st.integers(0, 3))
    doc = {"format": "qdpb-instance-v1", "n": n, "m_elements": m_elements, "sets": sets}
    if draw(st.booleans()):
        return {**doc, "kind": "max-coverage", "k": 1}
    return {**doc, "kind": "set-cover", "weights": [1] * n, "penalty": n + 1}


@needs_rlimit
@settings(max_examples=30, deadline=None)
@given(
    doc=st.one_of(_mutated(_COVERAGE_DOC), _mutated(_COVER_DOC), _far_elements()),
    command=st.sampled_from(["oracle", "analyze"]),
    solution=st.sampled_from(["000000", "110000", "10000", "1"]),
)
@example(doc=None, command="oracle", solution="1")  # None: the 200-set file of far elements
def test_hostile_instance_files_exit_0_or_1(doc, command, solution):
    with tempfile.TemporaryDirectory() as folder:
        if doc is None:
            path = _far_cover_file(folder)
        else:
            path = os.path.join(folder, "inst.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
        argv = [command, path]
        if command == "analyze":
            argv += ["--solution", solution, "--escape-radius"]
        proc = _capped_main(argv)
    assert proc.returncode in (0, 1), (argv, doc, proc.stderr[-2000:])


_RUN = {"budget": 60, "trials": 2}
_CONFIGS = (
    {
        **_RUN, "algorithm": "map-elites", "master_seed": 1, "milestone_every": 10,
        "problem": {
            "kind": "random-max-coverage", "n": 8, "m_elements": 10, "density": 0.4, "k": 3, "instance_seed": 1,
        },
        "target": {"threshold": 5, "strict": False, "require_feasible": True, "required_cell": 3},
    },
    {
        **_RUN, "algorithm": "ea", "master_seed": 2, "init_count": 3, "allow_unfair": True,
        "problem": {
            "kind": "random-set-cover", "n": 6, "m_elements": 7, "density": 0.4, "max_weight": 5,
            "instance_seed": 2,
        },
        "seed_population": ["101010", "010101"], "stop_on_target": False, "strict": True,
    },
    {
        **_RUN, "algorithm": "ea", "master_seed": 3, "seed_population": "local", "workers": 1,
        "problem": {"kind": "example1", "n": 9, "delta": "1/3"},
    },
    {**_RUN, "algorithm": "map-elites", "master_seed": 4, "problem": {"kind": "example2", "n": 6}},
    {**_RUN, "algorithm": "ea", "master_seed": 5, "problem": {"kind": "file", "path": "star5.json"}},
)


@needs_rlimit
@settings(max_examples=30, deadline=None)
@given(config=st.one_of([_mutated(config, fixed=tuple(_RUN)) for config in _CONFIGS]))
@example(config={**_CONFIGS[1], "problem": {**_CONFIGS[1]["problem"], "n": -1}})  # no set to patch into
@example(config={**_CONFIGS[2], "budget": 2 * 10**8, "init_count": 2 * 10**8, "allow_unfair": True})
def test_hostile_configs_exit_0_or_1(config):
    # budget and trials stay as they are: a huge budget is a long run the user asked for.
    with tempfile.TemporaryDirectory() as folder:
        write_instance(example2_set_cover(Example2Params(5)), os.path.join(folder, "star5.json"))
        with open(os.path.join(folder, "config.json"), "w") as fh:
            json.dump(config, fh)
        proc = _capped_main(["run", "--config", "config.json"], cwd=folder)
    assert proc.returncode in (0, 1), (config, proc.stderr[-2000:])


def test_run_requires_enough_flags(star5, tmp_path, capsys):
    run = ["run", "--algo", "ea", "--instance", star5, "--budget", "100"]
    # Past n = 20 a run resolves no optimum for an unrecognized instance.
    unknown_opt = ["run", "--algo", "ea", "--instance", _random_instance(tmp_path, 21), "--budget", "100"]
    for argv, message in (
        (["run", "--algo", "ea"], "run needs --instance"),
        (["run", "--instance", star5, "--budget", "100"], "run needs --algo"),
        (["run", "--algo", "ea", "--instance", star5], "run needs --budget"),
        ([*run, "--target-fitness", "4", "--target-ratio", "1"], "give either --target-fitness or --target-ratio"),
        ([*unknown_opt, "--target-ratio", "0.9"], "--target-ratio needs a known optimum"),
        ([*run, "--target-strict"], "target modifiers need --target-fitness or --target-ratio"),
        ([*run, "--target-fitness", "four"], "'four' is not a number"),
    ):
        capsys.readouterr()
        assert main(argv) == 1, argv
        assert message in capsys.readouterr().err, argv


def test_run_seed_population_file(star5, tmp_path, capsys):
    members = tmp_path / "members.txt"
    run = [
        "run", "--algo", "ea", "--instance", star5,
        "--seed-population", f"@{members}", "--budget", "100", "--trials", "1",
    ]
    members.write_text("10000\n" * 5)
    assert main(run) == 0
    members.write_text("\n  \n")
    capsys.readouterr()
    assert main(run) == 1
    assert f"seed population file {str(members)!r} is empty" in capsys.readouterr().err


def test_unknown_flag_exits_1(capsys):
    assert main(["run", "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 1
    assert "gen-instance" in capsys.readouterr().out


def test_verify_list_and_unknown_criterion(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    for cid in ("c1", "c2", "c3", "c4", "c5", "c6", "c7"):
        assert cid in out
    assert main(["verify", "--only", "c99"]) == 1
    assert "c99" in capsys.readouterr().err
    assert main(["verify", "--only", ","]) == 1
    assert "--only got an empty criterion list" in capsys.readouterr().err


def test_verify_refuses_a_criterion_named_twice(capsys):
    assert main(["verify", "--only", "c7,c7"]) == 1
    captured = capsys.readouterr()
    assert "'c7' is named twice" in captured.err
    assert "c7 PASS" not in captured.out


def test_verify_runs_a_fast_criterion(monkeypatch, capsys):
    assert main(["verify", "--only", "c7"]) == 0
    out = capsys.readouterr().out
    assert "c7 PASS" in out
    assert "all 1 criteria passed" in out
    name, limit, _ = acceptance._CRITERIA["c7"]
    monkeypatch.setitem(acceptance._CRITERIA, "c7", (name, limit, lambda: (False, "planted failure")))
    assert main(["verify", "--only", "c7"]) == 1
    out = capsys.readouterr().out
    assert "planted failure" in out
    assert out.endswith("FAILED: c7\n")


def test_verify_runs_on_the_standard_library_alone():
    # A None entry in sys.modules makes every import of that package raise.
    code = (
        "import sys\n"
        "sys.modules['scipy'] = sys.modules['numpy'] = None\n"
        "from qdpb.cli import main\n"
        "sys.exit(main(['verify', '--only', 'c7']))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert re.search(r"^c7 PASS \(.*\) 7/7 invariant groups hold$", done.stdout, re.MULTILINE), done.stdout
