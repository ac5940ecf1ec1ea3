"""Command-line behavior: outputs, formats, exit codes."""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from dfv import classifier, cli, polyhedra
from dfv.classifier import DiffReport, enumerate_pairs
from dfv.cli import EXIT_CAP, EXIT_DIFF, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_complexity_values(capsys):
    code, out, _ = run(capsys, "complexity", "--family", "E8", "--p", "a1", "--q", "a1")
    assert code == EXIT_OK and out.strip() == "2"
    code, out, _ = run(capsys, "complexity", "--family", "SL", "--n", "4", "--p", "2,2", "--q", "2,2")
    assert code == EXIT_OK and out.strip() == "0"
    code, out, _ = run(capsys, "complexity", "--family", "E6", "--p", "a1", "--q", "a5")
    assert code == EXIT_OK and out.strip() == "0"


def test_usage_errors(capsys):
    code, _, err = run(capsys, "complexity", "--family", "SL", "--p", "2,2", "--q", "2,2")
    assert code == EXIT_USAGE and "required" in err
    code, _, _ = run(capsys, "complexity", "--family", "XX", "--p", "1", "--q", "1")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "complexity", "--family", "SO", "--n", "9", "--p", "4,1,4'", "--q", "4,1,4")
    assert code == EXIT_USAGE and "stroke" in err


def test_subcommands_reject_flags_they_do_not_read(capsys):
    pair = ("--family", "SL", "--n", "4", "--p", "2,2", "--q", "2,2")
    for flag in (("--seed", "1"), ("--jobs", "2"), ("--format", "json"), ("--tie-break", "revlex")):
        code, _, err = run(capsys, "complexity", *pair, *flag)
        assert code == EXIT_USAGE and "unrecognized arguments" in err
    for flag in (("--seed", "1"), ("--jobs", "2")):
        code, _, _ = run(capsys, "classify", "--family", "SL", "--n", "4", *flag)
        assert code == EXIT_USAGE
    code, _, err = run(capsys, "classify", "--family", "SL", "--n", "4", "--tie-break", "revlex")
    assert code == EXIT_USAGE and "unrecognized arguments" in err
    lam_mu = ("--family", "Sp", "--n", "4", "--lam", "1,0", "--mu", "0,1")
    for flag in (("--seed", "1"), ("--jobs", "2"), ("--tie-break", "revlex")):
        code, _, _ = run(capsys, "oracle", *lam_mu, *flag)
        assert code == EXIT_USAGE
    for flag in (("--tie-break", "revlex"), ("--format", "json"), ("--cap", "4")):
        code, _, err = run(capsys, "oracle-check", "--family", "Sp", "--n", "4", *flag)
        assert code == EXIT_USAGE and "unrecognized arguments" in err


def test_classify_needs_n_for_classical_families(capsys):
    code, out, err = run(capsys, "classify", "--family", "SL")
    assert code == EXIT_USAGE and out == "" and "--n is required" in err


def test_n_with_exceptional_family_is_usage_error(capsys):
    for argv in (
        ("verify-tables", "--family", "E6", "--n", "4..5"),
        ("classify", "--family", "G2", "--n", "99"),
        ("complexity", "--family", "E6", "--n", "3", "--p", "a1", "--q", "a2"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == "", argv
        assert err.startswith("error: --n "), argv


@pytest.mark.parametrize("argv", [
    ("verify-tables", "--n", "abc"),
    ("verify-tables", "--family", "SL", "--n", "5..3"),
    ("verify-tables", "--n", "8"),
    ("oracle", "--family", "SL", "--n", "3", "--lam", "1,x", "--mu", "0,1"),
    ("oracle", "--family", "SL", "--n", "3", "--lam", "1,0,0", "--mu", "0,1"),
    ("oracle", "--family", "SL", "--n", "3", "--lam=-1,0", "--mu", "0,1"),
    ("oracle", "--family", "E6", "--lam", "1,0,0,0,0,0", "--mu", "0,0,0,0,0,1", "--method", "lr"),
    ("oracle-check", "--family", "Sp", "--n", "4", "--seeds", "0"),
    ("oracle-check", "--family", "SL"),
    ("decompose", "example2", "--q1", "3", "--q2", "3", "--q3", "3", "--m", "1,1"),
    ("classify", "--family", "SL", "--n", "4", "--cmax", "-1"),
    ("verify-tables", "--family", "G2", "--jobs", "0"),
    ("oracle-check", "--family", "Sp", "--n", "4", "--jobs", "-3"),
])
def test_malformed_input_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert "error:" in err


def test_verify_tables_success(capsys):
    code, out, _ = run(capsys, "verify-tables", "--family", "G2")
    assert code == EXIT_OK and "reproduced exactly" in out
    code, out, _ = run(capsys, "verify-tables", "--family", "SL", "--n", "4..5")
    assert code == EXIT_OK
    assert out.count("reproduced exactly") == 2


def test_verify_tables_json_records(capsys, monkeypatch):
    keys = {"family", "n", "kind", "p", "q", "actual", "expected", "rows"}
    code, out, _ = run(capsys, "verify-tables", "--family", "SL", "--n", "4..5", "--format", "json")
    records = [json.loads(line) for line in out.splitlines()]
    assert code == EXIT_OK
    assert [(r["n"], r["kind"]) for r in records] == [(4, "ok"), (5, "ok")]
    assert all(set(r) == keys for r in records)

    a, b, c = enumerate_pairs("SL", 4)[:3]
    report = DiffReport("SL", 4, missing=[(a, 1, ["row 3"])], unexpected=[(b, 0)],
                        mismatched=[(c, 1, 0, ["row 1", "row 2"])])
    monkeypatch.setattr(cli, "verify_tables", lambda family, n: report)
    code, out, _ = run(capsys, "verify-tables", "--family", "SL", "--n", "4", "--format", "json")
    records = [json.loads(line) for line in out.splitlines()]
    assert code == EXIT_DIFF
    assert all(set(r) == keys for r in records)
    assert [(r["kind"], r["actual"], r["expected"], r["rows"]) for r in records] == [
        ("missing", None, 1, ["row 3"]),
        ("unexpected", 0, None, []),
        ("mismatched", 1, 0, ["row 1", "row 2"]),
    ]
    assert records[0]["p"] == str(a.p) and records[0]["q"] == str(a.q)
    code, out, _ = run(capsys, "verify-tables", "--family", "SL", "--n", "4")
    assert code == EXIT_DIFF and out.splitlines() == report.lines()


@pytest.mark.parametrize("n", ["11", "12"])
def test_verify_tables_outside_table_range_fails_before_classifying(capsys, monkeypatch, n):
    def refuse(*args, **kwargs):
        raise AssertionError("classified before reading the table")

    monkeypatch.setattr(classifier, "classify", refuse)
    started = time.perf_counter()
    code, out, err = run(capsys, "verify-tables", "--family", "SL", "--n", n)
    assert time.perf_counter() - started < 2
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: SL_{n} outside the supported table range 2..10\n"


def test_verify_tables_jobs_do_not_change_output(capsys):
    serial = run(capsys, "verify-tables", "--family", "SL", "--n", "4..6", "--jobs", "1")
    pooled = run(capsys, "verify-tables", "--family", "SL", "--n", "4..6", "--jobs", "2")
    assert serial[0] == EXIT_OK and serial[1].count("reproduced exactly") == 3
    assert pooled == serial


def test_jobs_start_at_most_one_worker_per_task_and_cpu(capsys, monkeypatch):
    started = []

    class InProcessPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            return [fn(*task) for task in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    argv = ("verify-tables", "--family", "SL", "--n", "4..6")
    serial = run(capsys, *argv)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert run(capsys, *argv, "--jobs", "1000") == serial
    assert run(capsys, *argv, "--jobs", "2") == serial
    assert started == [3, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert run(capsys, *argv, "--jobs", "1000") == serial
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run(capsys, *argv, "--jobs", "1000") == serial
    assert started == [3, 2]


def test_classify_stream_json(capsys):
    code, out, _ = run(capsys, "classify", "--family", "SO", "--n", "7", "--cmax", "1", "--format", "json")
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.splitlines()]
    assert records and all(
        set(rec) == {"family", "n", "p", "q", "p_stroke", "q_stroke", "complexity"}
        for rec in records
    )
    assert all(rec["complexity"] in (0, 1) for rec in records)


def test_decompose_example1(capsys):
    code, out, _ = run(capsys, "decompose", "example1", "--l", "2", "--p", "1", "--q", "1")
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 2


def test_decompose_example2(capsys):
    code, out, _ = run(
        capsys, "decompose", "example2", "--q1", "3", "--q2", "3", "--q3", "3",
        "--m", "1,1,0", "--format", "json",
    )
    assert code == EXIT_OK
    recs = [json.loads(line) for line in out.splitlines()]
    assert len(recs) == 4 and all(r["multiplicity"] == 1 for r in recs)


def test_decompose_fm_row_limit_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(polyhedra, "_FM_ROW_LIMIT", 2)
    code, out, err = run(
        capsys, "decompose", "example2", "--q1", "3", "--q2", "3", "--q3", "3", "--m", "1,1,1",
    )
    assert code == EXIT_CAP and out == ""
    assert err == "error: cap exceeded: Fourier-Motzkin projection exceeded size limit\n"


@pytest.mark.parametrize("argv", [
    ("example1", "--l", "0", "--p", "1", "--q", "1"),
    ("example1", "--l", "2", "--p", "-1", "--q", "1"),
    ("example2", "--q1", "0", "--q2", "3", "--q3", "3", "--m", "1,1,0"),
    ("example2", "--q1", "3", "--q2", "3", "--q3", "3", "--m", "1,-1,0"),
])
def test_decompose_out_of_range_parameters_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, "decompose", *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ")


def test_oracle_and_methods(capsys):
    for method in ("peel", "reflection"):
        code, out, _ = run(
            capsys, "oracle", "--family", "Sp", "--n", "4",
            "--lam", "1,0", "--mu", "0,1", "--method", method, "--format", "tsv",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "weight\tmultiplicity"
        assert len(out.splitlines()) == 3


def test_oracle_cap_exit_code(capsys):
    code, out, err = run(
        capsys, "oracle", "--family", "SL", "--n", "9", "--lam", "0,0,1,0,0,0,0,0",
        "--mu", "0,0,1,0,0,1,0,0", "--method", "peel",
    )
    assert code == EXIT_CAP and out == ""
    assert err.startswith("error: cap exceeded: dim 148500 of weight")


def test_oracle_check_matrix_cap_exit_code(capsys, monkeypatch):
    # the cap is checked before the pairs are enumerated
    def refuse(*args):
        raise AssertionError("pairs were enumerated before the cap check")

    monkeypatch.setattr(cli, "enumerate_pairs", refuse)
    started = time.perf_counter()
    code, out, err = run(capsys, "oracle-check", "--family", "SL", "--n", "21")
    assert time.perf_counter() - started < 2
    assert code == EXIT_CAP and out == ""
    assert err == "error: cap exceeded: matrix size 21 above oracle cap 20\n"


def test_oracle_check(capsys):
    code, out, _ = run(capsys, "oracle-check", "--family", "Sp", "--n", "4")
    assert code == EXIT_OK and "0 disagreements" in out


def test_oracle_check_states_miss_bound(capsys):
    # Sp_4 has N = 4 positive roots; entries are uniform over 2*10^6+1 integers
    code, out, _ = run(capsys, "oracle-check", "--family", "Sp", "--n", "4")
    assert code == EXIT_OK
    assert out == "Sp_4: 10 orbits x 3 seeds, 0 disagreements, miss bound per call <= (4/2000001)^3\n"


def test_determinism(capsys):
    a = run(capsys, "classify", "--family", "Sp", "--n", "8", "--format", "json")
    b = run(capsys, "classify", "--family", "Sp", "--n", "8", "--format", "json")
    assert a == b
