"""CLI tests drive main(argv) in-process and check text + exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qdpb import cli, harness
from qdpb.cli import main
from qdpb.harness import read_instance, write_instance
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


def test_oracle_gamma_for_small_coverage(tmp_path, capsys):
    path = tmp_path / "bip9.json"
    main(["gen-instance", "example1", "--n", "9", "--delta", "1/3", "--out", str(path)])
    assert main(["oracle", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OPT=20" in out
    assert "gamma_min at k=4: 1" in out


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


def test_oracle_enumerates_beyond_the_resolve_limit(tmp_path, monkeypatch, capsys):
    # resolve_problem enumerates only up to n=20 before a run; `qdpb oracle`
    # goes up to the oracle's own guard.
    path = tmp_path / "rand21.json"
    args = ["--n", "21", "--m-elements", "8", "--density", "0.3", "--k", "3", "--instance-seed", "4"]
    assert main(["gen-instance", "random-max-coverage", *args, "--out", str(path)]) == 0
    calls = 0
    brute_force_opt = cli.brute_force_opt

    def counted(problem):
        nonlocal calls
        calls += 1
        return brute_force_opt(problem)

    monkeypatch.setattr(cli, "brute_force_opt", counted)
    monkeypatch.setattr(harness, "brute_force_opt", counted)
    assert harness.resolve_problem(harness.ProblemSpec(kind="file", path=str(path))).known_opt is None
    assert calls == 0
    assert main(["oracle", str(path)]) == 0
    assert calls == 1
    assert "OPT=" in capsys.readouterr().out


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


def test_archive_profile_script_reports_bad_parameters():
    # n=12 with the default delta 1/10 is not an admissible bipartite instance.
    proc = subprocess.run(
        [sys.executable, "scripts/archive_profile.py", "--n", "12"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_archive_profile_script_prints_the_archive():
    proc = subprocess.run(
        [sys.executable, "scripts/archive_profile.py", "--n", "12", "--delta", "1/4", "--budget", "500"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    occupied = lines[0].split(": ")[1].split("/")[0]
    assert lines[0].endswith("cells occupied after 500 evaluations")
    assert len(lines) == int(occupied) + 2  # header, one line per cell, summary
    assert lines[-1].startswith(f"coverage {occupied}, best feasible ")


def test_run_requires_enough_flags(capsys):
    assert main(["run", "--algo", "ea"]) == 1
    assert "instance" in capsys.readouterr().err


def test_run_seed_population_file(star5, tmp_path, capsys):
    members = tmp_path / "members.txt"
    members.write_text("10000\n" * 5)
    code = main(
        [
            "run", "--algo", "ea", "--instance", star5,
            "--seed-population", f"@{members}", "--budget", "100", "--trials", "1",
        ]
    )
    assert code == 0


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


def test_verify_runs_a_fast_criterion(capsys):
    assert main(["verify", "--only", "c7"]) == 0
    out = capsys.readouterr().out
    assert "c7 PASS" in out
    assert "all 1 criteria passed" in out
