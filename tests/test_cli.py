"""Command-line checks.

Most call ``cli.main`` in this process, many through ``run_main``.
``run_cli`` runs ``python -m exclab.cli`` in a fresh interpreter only where
one is the point: the ``-m`` entry point, EXCLAB_SEED read from the
environment, a fresh process printing what this one does, or an address
space limit on the child.  Every check of what the commands print lives in
tier-1: CI calls each command once through the installed ``exclab`` script
and checks nothing else of it.
"""

import concurrent.futures
import csv
import hashlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exclab import classical, cli, game
from exclab.bounds import BoundsRow, GameParameters, bounds_row
from exclab.classical import EXCLUDED_COUNT_MAX_N, ORACLE_BUDGET
from exclab.game import TRIAL_MAX_N
from exclab.steering import choose_k

CSV_HEADER = ("n,m,gamma_log2,classical_ic_lower,"
              "quantum_entropy_upper,quantum_ic_upper")


def run_cli(*argv: str, env_extra: dict | None = None, preexec_fn=None):
    env = {k: v for k, v in os.environ.items() if k != "EXCLAB_SEED"}
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "exclab.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=preexec_fn,
    )


@pytest.fixture
def run_main(capsys, monkeypatch):
    """``run_cli`` in this process: ``cli.main``'s exit code (argparse's
    too) and what it printed, with EXCLAB_SEED unset as ``run_cli`` has it."""
    monkeypatch.delenv("EXCLAB_SEED", raising=False)

    def run(*argv: str) -> subprocess.CompletedProcess:
        try:
            code = cli.main(list(argv))
        except SystemExit as stop:
            code = stop.code
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(argv, code, out, err)

    return run


def _strict_json(text: str):
    """``json.loads``, refusing NaN and Infinity, which it would take."""
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


def _quantum(trials: int, threads: int) -> list[str]:
    return ["simulate", "--strategy", "quantum", "--n", "8", "--m", "4",
            "--trials", str(trials), "--seed", "1", "--threads", str(threads)]


def test_verify_pbr_reports_and_passes(run_main):
    result = run_main("verify-pbr", "4")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "verify-pbr"
    assert doc["pass"] is True
    assert [row["m"] for row in doc["rows"]] == [1, 2, 3, 4]
    first = doc["rows"][0]
    assert first["theta"] == pytest.approx(math.pi / 2, rel=1e-11)
    assert first["max_exclusion_overlap"] <= 1e-12
    assert first["parseval_residual"] <= 1e-10
    assert first["distance_law_residual"] <= 1e-10
    assert set(first) == {"m", "theta", "max_exclusion_overlap",
                          "subcritical_overlap", "parseval_residual",
                          "distance_law_residual", "pass"}
    # The same measurement must demonstrably fail below the critical angle.
    assert first["subcritical_overlap"] > 1e-6
    assert first["pass"] is True


def test_verify_pbr_is_byte_deterministic(run_main):
    # A fresh interpreter prints what this one does.
    first = run_cli("verify-pbr", "3")
    second = run_main("verify-pbr", "3")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_verify_pbr_rejects_out_of_range_m_max(capsys, run_main):
    assert run_main("verify-pbr", "21").returncode == 2
    below = run_main("verify-pbr", "0")
    assert below.returncode == 2 and "resource limit" not in below.stderr
    _assert_rows_refused_outside_1_to_cap(capsys, ["verify-pbr"], 20)


def _assert_rows_refused_outside_1_to_cap(capsys, command, cap):
    """Both row commands state one rule, and only past the cap is it a
    refused resource budget."""
    for m_max in (0, -3, cap + 1, 10**12):
        assert cli.main([*command, str(m_max)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"m_max must lie in 1..{cap}, got {m_max}" in err
        assert ("resource limit" in err) == (m_max > cap)


# sha256 of the `verify-pbr 10` report with every row's max_exclusion_overlap,
# parseval_residual and distance_law_residual removed, re-serialized with
# sorted keys.  Those three are left out: their last bits follow libm.
VERIFY_PBR_10_SHA256 = (
    "bfe91123dd9b1db1532267fbc4208f51ce11d2f000cd2b6f5f2c138f9a181391")


def test_verify_pbr_report_is_pinned_apart_from_libm_residuals(capsys):
    assert cli.main(["verify-pbr", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 10
    for row in doc["rows"]:
        assert 0.0 <= row.pop("max_exclusion_overlap") <= 1e-12
        assert 0.0 <= row.pop("parseval_residual") <= 1e-10
        assert 0.0 <= row.pop("distance_law_residual") <= 1e-10
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_PBR_10_SHA256


def test_verify_pbr_reaches_twenty_qubits_through_the_transform(tmp_path):
    report = tmp_path / "verify.json"
    start = time.perf_counter()
    code = cli.main(["verify-pbr", "20", "--output", str(report)])
    elapsed = time.perf_counter() - start
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["pass"] is True and len(doc["rows"]) == 20
    last = doc["rows"][-1]
    assert last["max_exclusion_overlap"] <= 1e-12
    assert last["parseval_residual"] <= 1e-10
    assert last["distance_law_residual"] <= 1e-10
    # 0.9 theta_20 still fails to exclude, by about 1.3e-4.
    assert last["subcritical_overlap"] > 1e-6
    # About a second on a 2-CPU host; the dense path would need 8 TiB.
    assert elapsed < 5.0


def test_bounds_csv_values_match_library(run_main):
    result = run_main("bounds", "--n", "16", "64", "--m-rule", "linear:0.25")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    for line, n, m in zip(lines[1:], (16, 64), (4, 16)):
        cells = line.split(",")
        assert cells[0] == str(n)
        assert cells[1] == str(m)
        row = bounds_row(GameParameters(n, m))
        assert float(cells[2]) == pytest.approx(row.gamma_log2, rel=1e-9)
        assert float(cells[3]) == pytest.approx(row.classical_ic_lower, rel=1e-9)
        assert float(cells[5]) == pytest.approx(2 * float(cells[4]), rel=1e-9)


def test_bounds_empty_n_list_gives_header_only_csv(run_main):
    result = run_main("bounds", "--n", "--m-rule", "power:0.75")
    assert result.returncode == 0, result.stderr
    assert result.stdout == CSV_HEADER + "\n"


def test_bounds_json_format(run_main):
    result = run_main("bounds", "--n", "32", "--m-rule", "power:0.5",
                      "--format", "json")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["schema_version"] == "1"
    assert doc["m_rule"] == "power:0.5"
    (row,) = doc["rows"]
    assert row["n"] == 32 and row["m"] == 5
    assert set(row) == {"n", "m", "gamma_log2", "classical_ic_lower",
                        "quantum_entropy_upper", "quantum_ic_upper"}


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "8", "--m-rule", "power:0.75",
     "--output", "{tmp}/absent/table.csv"],
    ["simulate", "--strategy", "quantum", "--n", "4", "--m", "2",
     "--trials", "10", "--output", "{tmp}/absent/report.json"],
    ["simulate", "--strategy", "quantum", "--n", "4", "--m", "2",
     "--trials", "10", "--transcripts", "{tmp}/absent/trials.jsonl"],
    ["choose-k", "1.0", "0.05", "--output", "{tmp}/absent/k.txt"],
], ids=["bounds-output", "simulate-output", "transcripts",
        "choose-k-output"])
def test_unusable_files_exit_2_with_a_message(tmp_path, capsys, argv):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("exclab: ") and "No such file" in err


@pytest.mark.parametrize("n", ["0", "-8"])
def test_bounds_refuses_n_below_one_with_exit_2(n, run_main):
    # (-8) ** 0.75 is complex: n must be refused before it meets the power.
    result = run_main("bounds", "--n", n, "--m-rule", "power:0.75")
    assert result.returncode == 2
    assert result.stdout == "" and "Traceback" not in result.stderr
    assert f"n must be >= 1, got {n}" in result.stderr


def test_bounds_requires_inputs(run_main):
    for argv, missing in ((["--n", "8"], "--m-rule"),
                          (["--m-rule", "power:0.75"], "--n"),
                          ([], "--n, --m-rule")):
        result = run_main("bounds", *argv)
        assert result.returncode == 2
        assert result.stdout == ""
        assert f"the following arguments are required: {missing}" in (
            result.stderr)


def test_bounds_refuses_a_batch_file(tmp_path, run_main):
    # The table is asked for by --n and --m-rule only; a shell reads a list
    # from a file: exclab bounds --n $(cat n_values.txt) --m-rule ...
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps({"schema_version": "1", "n_values": [16, 64],
                                 "m_rule": "linear:0.25", "format": "csv"}))
    for extra, message in (
            ([], "required: --n, --m-rule"),
            (["--n", "16", "64", "--m-rule", "linear:0.25"],
             f"unrecognized arguments: --spec {batch}")):
        result = run_main("bounds", "--spec", str(batch), *extra)
        assert result.returncode == 2
        assert result.stdout == "" and message in result.stderr


def test_bounds_at_the_cap_answers_in_constant_memory(tmp_path):
    target = tmp_path / "table.csv"
    tracemalloc.start()
    try:
        code = cli.main(["bounds", "--n", "100000000000", "1000000000000",
                         "--m-rule", "power:0.75", "--output", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    rows = target.read_text().strip().split("\n")[1:]
    assert [row.split(",")[:2] for row in rows] == [
        ["100000000000", "177827941"], ["1000000000000", "1000000000"]]
    assert peak < len(rows) << 20


def test_bounds_past_the_cap_exits_2_before_any_row(run_main):
    for n in ("10000000000000", str(10**18)):
        result = run_main("bounds", "--n", "100", n, "--m-rule", "power:0.75")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "resource limit" in result.stderr


def _limit_address_space():
    # The shell's ulimit -v 3000000 (KiB), for this child process only.
    limit = 3_000_000 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_bounds_under_an_address_space_limit_never_exit_1():
    for rule, n_values, expected in (
        ("power:0.75", ["1000000000000"], 0),
        ("linear:0.5", ["1000000000000"], 0),
        ("power:0.75", ["10000000000000", str(10**18)], 2),
    ):
        result = run_cli("bounds", "--n", *n_values, "--m-rule", rule,
                         preexec_fn=_limit_address_space)
        assert result.returncode == expected, result.stderr


def test_bounds_output_file(tmp_path, run_main):
    target = tmp_path / "table.csv"
    result = run_main("bounds", "--n", "8", "--m-rule", "linear:0.5",
                      "--output", str(target))
    assert result.returncode == 0
    assert result.stdout == ""
    content = target.read_text()
    assert content.startswith(CSV_HEADER)
    assert content.split("\n")[1].startswith("8,4,")


# sha256 over the stdout of each `bounds` call below, in order, per format:
# perfbench's small-m and large-m n lists under power:0.75, and a linear:0.5
# list that takes the exact, series and complement paths.
BOUNDS_PINNED_RUNS = (
    (tuple(range(8, 65)) + (100, 1000, 10000), "power:0.75"),
    ((10**5, 10**6, 10**7, 10**8), "power:0.75"),
    ((8, 64, 65, 100, 10**12), "linear:0.5"),
)
BOUNDS_REPORTS_SHA256 = {
    "json": "15cae060742cd46e9b904b66a3958a9fb983cb5ef48e8303183bdae872e55070",
    "csv": "e6345a8616706c6cd8cff1398c12159a4fff1268387fe9af6faa156e7bf322da",
}


# No --format prints the csv bytes.
@pytest.mark.parametrize("format_args", [["--format", "json"],
                                         ["--format", "csv"], []],
                         ids=["json", "csv", "default"])
def test_bounds_reports_are_pinned(capsys, format_args):
    digest = hashlib.sha256()
    for n_values, rule in BOUNDS_PINNED_RUNS:
        assert cli.main(["bounds", "--n", *map(str, n_values), "--m-rule",
                         rule, *format_args]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        digest.update(captured.out.encode())
    output_format = format_args[-1] if format_args else "csv"
    assert digest.hexdigest() == BOUNDS_REPORTS_SHA256[output_format]


# linear:0.9 reaches what power:0.75 barely does: most exact rows take the
# 2*gamma > 2**n branch, the large ones the series complement.
@pytest.mark.parametrize("rule, n_values", [
    ("power:0.75", [*range(8, 65), 100, 1000, 10**4, 10**5, 10**8]),
    ("linear:0.9", [*range(2, 66), 100, 10**6]),
], ids=["power:0.75", "linear:0.9"])
def test_bounds_csv_and_json_agree_field_by_field(tmp_path, capsys, rule,
                                                  n_values):
    # CSV prints .12g and JSON the repr of the rounded value: the same floats,
    # exact and log-domain rows alike.  README's shell form reads the n list
    # from a file: exclab bounds --n $(cat n_values.txt) --m-rule ...
    n_values = [*map(str, n_values)]
    n_file = tmp_path / "n_values.txt"
    n_file.write_text(" ".join(n_values) + "\n")

    def bounds(*argv):
        assert cli.main(["bounds", "--m-rule", rule, "--n", *argv]) == 0
        return capsys.readouterr().out

    csv_text = bounds(*n_values)
    assert bounds(*n_file.read_text().split()) == csv_text
    csv_rows = list(csv.DictReader(io.StringIO(csv_text)))
    json_rows = _strict_json(bounds(*n_values, "--format", "json"))["rows"]
    assert len(csv_rows) == len(json_rows) == len(n_values)
    for csv_row, json_row in zip(csv_rows, json_rows):
        assert csv_row.keys() == json_row.keys(), (csv_row, json_row)
        for key, value in json_row.items():
            assert float(csv_row[key]) == value, (key, csv_row, json_row)


NON_FINITE_BOUNDS = ["bounds", "--n", "8", "--m-rule", "linear:0.5",
                     "--format", "json"]


def _report_a_nan_bound(monkeypatch):
    nan_row = BoundsRow(n=8, m=4, gamma_log2=math.nan, classical_ic_lower=1.0,
                        quantum_entropy_upper=1.0, quantum_ic_upper=2.0)
    monkeypatch.setattr(cli.bounds_mod, "separation_table",
                        lambda n_values, rule: (nan_row,))


def test_a_non_finite_report_value_exits_2_with_no_report(monkeypatch,
                                                         capsys):
    _report_a_nan_bound(monkeypatch)
    assert cli.main(NON_FINITE_BOUNDS) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not finite" in captured.err


# One run of every command, and the quantum simulate report; main writes each
# report, to stdout or --output.
EVERY_COMMAND = {
    "verify-pbr": ["verify-pbr", "4"],
    "bounds-csv": ["bounds", "--n", "100", "1000", "--m-rule", "power:0.75"],
    "bounds-json": ["bounds", "--n", "100", "1000", "--m-rule", "power:0.75",
                    "--format", "json"],
    "simulate": ["simulate", "--strategy", "classical_cover", "--n", "6",
                 "--m", "3", "--trials", "200", "--seed", "2"],
    "simulate-quantum": ["simulate", "--strategy", "quantum", "--n", "8",
                         "--m", "4", "--trials", "200", "--seed", "1"],
    "oracle": ["oracle", "5", "2"],
    "steering": ["steering", "--m-max", "8"],
    "choose-k": ["choose-k", "1.0", "0.05"],
}


@pytest.mark.parametrize("name", EVERY_COMMAND)
def test_output_file_holds_exactly_what_stdout_would(tmp_path, capsys, name):
    argv = EVERY_COMMAND[name]
    assert cli.main(argv) == 0
    printed = capsys.readouterr()
    assert printed.err == "" and printed.out
    if name not in ("bounds-csv", "choose-k"):  # the JSON reports
        doc = _strict_json(printed.out)
        assert doc["command"] == argv[0]
    if name == "oracle":  # the exhaustive search finds the formula's minimum
        assert doc["pass"] is True
        assert doc["min_excluded"] == doc["closed_form"]
    target = tmp_path / "report"
    assert cli.main([*argv, "--output", str(target)]) == 0
    assert capsys.readouterr() == ("", "")
    assert target.read_bytes() == printed.out.encode()


def test_output_file_holds_every_byte_after_short_writes(tmp_path, capsys,
                                                        monkeypatch):
    # main writes --output and the transcripts unbuffered, through os.write,
    # and a raw write may take only some of the bytes: here at most 100.
    argv = _quantum(5000, 1)  # two blocks: the sink takes two chunks
    whole = {"report": tmp_path / "report.json",
             "transcripts": tmp_path / "trials.jsonl"}
    cut = {name: tmp_path / f"cut-{path.name}" for name, path in whole.items()}
    for path in cut.values():  # an earlier, longer file is replaced
        path.write_bytes(b"stale\n" * 10**5)
    assert cli.main([*argv, "--output", str(whole["report"]),
                     "--transcripts", str(whole["transcripts"])]) == 0
    write, taken = os.write, []

    def short_write(file, data):
        taken.append(write(file, bytes(data[:100])))
        return taken[-1]

    monkeypatch.setattr(cli.os, "write", short_write)
    assert cli.main([*argv, "--output", str(cut["report"]),
                     "--transcripts", str(cut["transcripts"])]) == 0
    monkeypatch.undo()
    assert capsys.readouterr() == ("", "")
    assert sum(taken) == sum(path.stat().st_size for path in whole.values())
    for name, path in whole.items():
        assert cut[name].read_bytes() == path.read_bytes(), name


REFUSED_COMMANDS = {
    "verify-pbr": ["verify-pbr", "21"],
    "bounds": ["bounds", "--n", "0", "--m-rule", "power:0.75"],
    "simulate": ["simulate", "--strategy", "quantum", "--n", "2000000",
                 "--m", "2", "--trials", "1"],
    "oracle": ["oracle", "21", "1"],
    "steering": ["steering", "--m-max", "1025"],
    "choose-k": ["choose-k", "1.5", "0.05"],
    "non-finite": NON_FINITE_BOUNDS,
}


@pytest.mark.parametrize("name", REFUSED_COMMANDS)
def test_a_refusal_with_an_output_file_writes_nothing(tmp_path, capsys,
                                                      monkeypatch, name):
    if name == "non-finite":
        _report_a_nan_bound(monkeypatch)
    target = tmp_path / "report"
    assert cli.main([*REFUSED_COMMANDS[name], "--output", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("exclab: ")
    assert not target.exists()


@pytest.mark.parametrize("argv, message", [
    (["choose-k", "1", "0.05", "--output", ""], "Is a directory"),
    (["simulate", "--strategy", "quantum", "--n", "4", "--m", "2",
      "--trials", "3", "--transcripts", ""], "Is a directory"),
    (["bounds", "--n", "8", "--m-rule", "power:0.75", "--output", ""],
     "Is a directory"),
], ids=["output", "transcripts", "bounds-output"])
def test_an_empty_path_exits_2_and_prints_nothing(capsys, argv, message):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("exclab: ") and message in err


def test_a_path_ending_in_a_slash_names_a_directory(tmp_path, capsys):
    # The OS reads the path; pathlib would drop the slash and write "report".
    argv = ["choose-k", "1", "0.05", "--output", f"{tmp_path}/report/"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Is a directory" in err
    assert not any(tmp_path.iterdir())


def _round_floats(obj):
    """The rounding the reports went through before json wrote them, kept as
    the reference for ``cli._to_json``."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {key: _round_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(value) for value in obj]
    return obj


def _assert_writes_as_json_does(obj):
    reference = _round_floats(obj)
    assert cli._to_json(obj) == json.dumps(reference, indent=2,
                                           sort_keys=True)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**40), 10**40)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)),
    max_leaves=30)


def _small_m_bounds_report() -> dict:
    """The benchmark's small-m bounds report as main hands it to the writer:
    60 rows, each a dict with the same keys."""
    args = cli.build_parser().parse_args([
        "bounds", "--n", *map(str, [*range(8, 65), 100, 1000, 10000]),
        "--m-rule", "power:0.75", "--format", "json"])
    report, _ = args.func(args)
    assert len(report["rows"]) == 60
    return {"schema_version": cli.SCHEMA_VERSION, "command": "bounds", **report}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(JSON_VALUES)
@example(_small_m_bounds_report())
def test_report_writer_matches_json_after_rounding(obj):
    _assert_writes_as_json_does(obj)


@pytest.mark.parametrize("value, text", [
    (-0.0, "-0.0"),
    (5e-324, "5e-324"),
    (2.2250738585072014e-308 / 3, "7.41691286169e-309"),
    # .12g leaves fixed notation at 1e12, repr only at 1e16.
    (999999999999.4, "999999999999.0"),
    (1e12, "1000000000000.0"),
    (123456789012345.67, "123456789012000.0"),
    (9999999999999998.0, "1e+16"),
    (1e16, "1e+16"),
    (1.2345678901234567e20, "1.23456789012e+20"),
    (1.7976931348623157e308, "1.79769313486e+308"),
    (np.float64(0.1), "0.1"),
    # .12g rounds up to 1e+12, which repr writes in fixed notation.
    (999999999999.5, "1000000000000.0"),
    (1.5e15, "1500000000000000.0"),
    (1e100, "1e+100"),
    # Rounds across into fixed notation.
    (9.99999999999995e-05, "0.0001"),
    (1e-05, "1e-05"),
    (1e-300, "1e-300"),
    # The smallest normal and the largest subnormal.
    (2.2250738585072014e-308, "2.22507385851e-308"),
    (2.225073858507201e-308, "2.22507385851e-308"),
    (-1e-320, "-1e-320"),
], ids=repr)
def test_report_writer_float_edges(value, text):
    assert cli._to_json(value) == text
    _assert_writes_as_json_does([value, {"v": value}])


@settings(derandomize=True, max_examples=3000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_report_writer_floats_take_the_rounded_repr(x):
    reference = float.__repr__(float(f"{x:.12g}"))
    assert cli._to_json(x) == reference
    assert cli._to_json([x]) == f"[\n  {reference}\n]"


@pytest.mark.parametrize("value", [np.int64(1), np.bool_(True), {1: 2},
                                   {"a": [{(1, 2): 3}]}, {1, 2}, b"x"],
                         ids=repr)
def test_report_writer_refuses_what_json_refuses_and_non_str_keys(value):
    with pytest.raises(TypeError):
        cli._to_json(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                   [{"a": np.float64("nan")}]], ids=repr)
def test_report_writer_refuses_non_finite_floats(value):
    with pytest.raises(ValueError, match="not finite"):
        cli._to_json(value)


def test_simulate_quantum_json_and_determinism(run_main):
    argv = ("simulate", "--strategy", "quantum", "--n", "4", "--m", "2",
            "--trials", "50", "--seed", "3", "--threads", "1")
    first = run_cli(*argv)  # a fresh interpreter, then this one
    second = run_main(*argv)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["schema_version"] == "1"
    assert doc["config"]["n"] == 4
    assert doc["config"]["seed"] == 3
    stats = doc["statistics"]
    assert stats["trials"] == 50
    assert stats["wins"] == 50
    assert stats["win_rate"] == 1.0
    assert stats["message_bits"] == {"qubits": 4.0}


def test_simulate_thread_count_does_not_change_output(run_main):
    # 10,000 trials are three blocks, so --threads 3 really runs a pool.
    for strategy in ("quantum", "classical_cover"):
        argv = ("simulate", "--strategy", strategy, "--n", "6", "--m", "3",
                "--trials", "10000", "--seed", "5")
        serial = run_main(*argv, "--threads", "1")
        parallel = run_main(*argv, "--threads", "3")
        assert serial.returncode == parallel.returncode == 0
        assert serial.stdout == parallel.stdout


def test_simulate_seed_from_environment():
    argv = ("simulate", "--strategy", "quantum", "--n", "3", "--m", "1",
            "--trials", "20", "--threads", "1")
    from_env = run_cli(*argv, env_extra={"EXCLAB_SEED": "9"})
    from_flag = run_cli(*argv, "--seed", "9")
    assert from_env.returncode == 0, from_env.stderr
    assert from_env.stdout == from_flag.stdout
    assert json.loads(from_env.stdout)["config"]["seed"] == 9
    bad = run_cli(*argv, env_extra={"EXCLAB_SEED": "not-a-number"})
    assert bad.returncode == 2


def test_simulate_transcript_stream(tmp_path, run_main):
    path = tmp_path / "transcripts.ndjson"
    result = run_main("simulate", "--strategy", "entanglement_assisted",
                      "--n", "3", "--m", "3", "--k", "11", "--delta", "0.05",
                      "--trials", "40", "--seed", "1", "--threads", "1",
                      "--transcripts", str(path))
    assert result.returncode == 0, result.stderr
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 40
    records = [json.loads(line) for line in lines]
    assert [record["trial"] for record in records] == list(range(40))
    for record in records:
        assert set(record) == {"x", "y", "message", "answer", "aborted", "won",
                               "trial"}
        assert record["aborted"] == (record["answer"] is None)
    stats = json.loads(result.stdout)["statistics"]
    assert stats["wins"] == sum(1 for r in records if r["won"])
    assert stats["aborts"] == sum(1 for r in records if r["aborted"])


@pytest.mark.parametrize("strategy, m, extra", [
    ("quantum", 20, ()),
    ("entanglement_assisted", 200, ("--k", "3", "--delta", "0.05")),
])
def test_simulate_at_n_300_does_not_depend_on_threads_or_the_sink(
        tmp_path, capsys, pool_sizes, strategy, m, extra):
    # BLOCK_TRIALS + 1 trials are two blocks, and a sink at n = 300 draws
    # 3,333 rows at a time, so the first block is two chunks.  The report
    # must not depend on the worker count or the sink, nor the transcripts
    # on the worker count.  pool_sizes runs the pool in this process;
    # test_simulate_at_n_8_does_not_depend_on_threads_or_the_sink runs both
    # strategies on a real one.
    trials = game.BLOCK_TRIALS + 1
    argv = ["simulate", "--strategy", strategy, "--n", "300", "--m", str(m),
            "--trials", str(trials), "--seed", "8", *extra]
    reports, streams = set(), set()
    for threads in ("1", "2", "3"):
        assert cli.main([*argv, "--threads", threads]) == 0
        reports.add(capsys.readouterr().out)
        path = tmp_path / f"trials-{threads}.jsonl"
        assert cli.main([*argv, "--threads", threads,
                         "--transcripts", str(path)]) == 0
        reports.add(capsys.readouterr().out)
        streams.add(path.read_bytes())
    assert pool_sizes == [2, 2]
    assert len(reports) == len(streams) == 1
    records = [json.loads(line) for line in streams.pop().splitlines()]
    assert [record["trial"] for record in records] == list(range(trials))
    stats = json.loads(reports.pop())["statistics"]
    assert stats["aborts"] == sum(record["aborted"] for record in records)
    if strategy == "entanglement_assisted":
        assert 0 < stats["aborts"] < trials


@pytest.mark.parametrize("strategy, extra", [
    ("quantum", ()),
    ("classical_cover", ()),
    ("entanglement_assisted", ("--k", "3", "--delta", "0.05")),
])
def test_simulate_at_n_8_does_not_depend_on_threads_or_the_sink(
        tmp_path, strategy, extra):
    # 5,000 trials at n = 8 are two blocks.  The report must not depend on
    # the sink (a block draws for it last) or on the worker count, nor the
    # transcripts on the worker count; the file holds one line per trial.
    argv = ["simulate", "--strategy", strategy, "--n", "8", "--m", "4",
            "--trials", "5000", "--seed", "2", *extra]
    reports, streams = set(), set()
    for threads in ("1", "2"):
        for sink in (False, True):
            report = tmp_path / f"report-{threads}-{sink}.json"
            path = tmp_path / f"trials-{threads}.jsonl"
            assert cli.main([*argv, "--threads", threads, "--output",
                             str(report), *(("--transcripts", str(path))
                                            if sink else ())]) == 0
            reports.add(report.read_bytes())
        streams.add(path.read_bytes())
    assert len(reports) == len(streams) == 1
    assert streams.pop().count(b"\n") == 5000


def test_the_cube_cover_report_does_not_depend_on_the_sink_or_workers(
        tmp_path):
    # (16, 6) needs many rounds and ends on the cube, whose 2**16 input
    # table is gathered from the lattice state like any other.
    argv = ["simulate", "--strategy", "classical_cover", "--n", "16",
            "--m", "6", "--trials", "5000", "--seed", "2"]
    path = tmp_path / "trials.jsonl"
    reports = set()
    for extra in ((), ("--transcripts", str(path)), ("--threads", "2")):
        report = tmp_path / "report.json"
        assert cli.main([*argv, *extra, "--output", str(report)]) == 0
        reports.add(report.read_bytes())
    assert len(reports) == 1
    assert path.read_bytes().count(b"\n") == 5000


# sha256 over the stdout of each `simulate` run below, in order, then the
# transcript stream of the last.  The (3, 2) run has workers that fold their
# inputs into 2**n counts.
SIMULATE_PINNED_RUNS = [
    ("quantum", 12, 6, 150, 3, ()),
    ("classical_cover", 12, 6, 500, 3, ()),
    ("classical_cover", 16, 8, 9000, 1, ("--threads", "2")),
    ("classical_cover", 3, 2, 20000, 0, ("--threads", "3")),
    ("entanglement_assisted", 8, 4, 5000, 5,
     ("--k", "47", "--delta", "0.05")),
    ("classical_cover", 5, 2, 300, 7, ("--transcripts", "{tmp}/trials.jsonl")),
]
SIMULATE_REPORTS_SHA256 = (
    "8ec28b4eacf75b333a9a214ab014bd6f944d5bbbb88363c32d53e443ffccbef8")


def test_simulate_reports_are_pinned(tmp_path, capsys, pool_sizes):
    digest = hashlib.sha256()
    for strategy, n, m, trials, seed, extra in SIMULATE_PINNED_RUNS:
        argv = ["simulate", "--strategy", strategy, "--n", str(n),
                "--m", str(m), "--trials", str(trials), "--seed", str(seed),
                *(arg.format(tmp=tmp_path) for arg in extra)]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        digest.update(captured.out.encode())
        # A pooled run reports what a serial one does.  The pool runs in
        # this process (pool_sizes); the cover at n = 16 runs on a real pool
        # in test_the_cube_cover_report_does_not_depend_on_the_sink_or_workers.
        if "--threads" in extra:
            assert cli.main([*argv, "--threads", "1"]) == 0
            assert capsys.readouterr() == captured
    digest.update((tmp_path / "trials.jsonl").read_bytes())
    assert pool_sizes == [2, 3]
    assert digest.hexdigest() == SIMULATE_REPORTS_SHA256


@pytest.mark.parametrize("refused", [
    ["--strategy", "quantum", "--n", "4", "--m", "2", "--threads", "0"],
    ["--strategy", "quantum", "--n", "2000000", "--m", "1"],
    ["--strategy", "classical_cover", "--n", "16", "--m", "1"],
], ids=["threads-0", "n-past-the-trial-budget", "cover-past-its-budget"])
def test_refused_simulate_leaves_the_transcript_file_as_it_was(
        tmp_path, capsys, refused):
    path = tmp_path / "trials.jsonl"
    path.write_text("an earlier run's transcripts\n")
    argv = ["simulate", *refused, "--trials", "5", "--transcripts", str(path)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("exclab: ")
    assert path.read_text() == "an earlier run's transcripts\n"


def test_simulate_usage_errors(run_main):
    missing_k = run_main("simulate", "--strategy", "entanglement_assisted",
                         "--n", "4", "--m", "2", "--trials", "5")
    assert missing_k.returncode == 2
    too_big = run_main("simulate", "--strategy", "classical_cover",
                       "--n", "17", "--m", "2", "--trials", "5",
                       "--threads", "1")
    assert too_big.returncode == 2
    assert "resource" in too_big.stderr
    # The greedy cover at (16, 1) needs 2**16 rounds; it is refused up front.
    start = time.perf_counter()
    too_many_rounds = run_main("simulate", "--strategy", "classical_cover",
                               "--n", "16", "--m", "1", "--trials", "1")
    assert time.perf_counter() - start < 5.0
    assert too_many_rounds.returncode == 2
    assert too_many_rounds.stdout == ""
    assert "resource limit" in too_many_rounds.stderr


def test_verify_pbr_past_the_qubit_cap_exits_2_before_allocating(capsys):
    # verify-pbr transforms 2**m amplitudes up to pbr.MAX_QUBITS = 20.
    tracemalloc.start()
    try:
        code = cli.main(["verify-pbr", "21"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "resource limit" in err and "m_max" in err
    assert peak < 1 << 20


def test_simulate_steering_past_the_qubit_cap_runs_with_zero_loss(run_main):
    # The 13-qubit cap guards dense verification only; completed steering
    # rounds are measured through the distance law, as quantum trials are.
    for m in ("14", "100"):
        result = run_main("simulate", "--strategy", "entanglement_assisted",
                          "--n", m, "--m", m, "--k", "11", "--delta", "0.05",
                          "--trials", "200", "--seed", "1")
        assert result.returncode == 0, result.stderr
        stats = json.loads(result.stdout)["statistics"]
        assert stats["trials"] == 200 and stats["aborts"] < 200
        assert stats["wins"] == stats["trials"] - stats["aborts"]


def test_simulate_past_the_qubit_cap_runs_with_zero_loss(run_main):
    result = run_main("simulate", "--strategy", "quantum", "--n", "200",
                      "--m", "100", "--trials", "200", "--seed", "1")
    assert result.returncode == 0, result.stderr
    stats = json.loads(result.stdout)["statistics"]
    assert stats["trials"] == stats["wins"] == 200


def test_simulate_past_the_trial_budget_exits_2_under_an_address_space_limit():
    steering = ("--k", "3", "--delta", "0.5")
    for strategy, n, extra in (("quantum", 10**9, ()),
                               ("quantum", TRIAL_MAX_N + 1, ()),
                               ("entanglement_assisted", 10**8, steering)):
        result = run_cli("simulate", "--strategy", strategy, "--n", str(n),
                         "--m", "2", "--trials", "1", *extra,
                         preexec_fn=_limit_address_space)
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert "input bits" in result.stderr
    # At the budget a trial runs within the same limit.
    at_budget = run_cli("simulate", "--strategy", "quantum", "--n",
                        str(TRIAL_MAX_N), "--m", "2", "--trials", "1",
                        preexec_fn=_limit_address_space)
    assert at_budget.returncode == 0, at_budget.stderr


@pytest.mark.parametrize("trials", [38 * 10**21, 10**24])
def test_simulate_splits_more_blocks_than_int64_holds(monkeypatch, capsys,
                                                      trials):
    # Past 2**63 blocks a float or int64 split of the blocks among workers
    # loses or overflows ranges; every trial must still be counted once.
    size = game.BLOCK_TRIALS

    def every_trial_wins(config, first, stop, sink=None):
        return min(stop * size, config.trials) - first * size, 0, None, []

    monkeypatch.setattr(game, "_run_blocks", every_trial_wins)
    assert cli.main(["simulate", "--strategy", "quantum", "--n", "3",
                     "--m", "2", "--trials", str(trials)]) == 0
    stats = json.loads(capsys.readouterr().out)["statistics"]
    assert stats["trials"] == stats["wins"] == trials
    assert stats["win_rate"] == 1.0


def test_simulate_plays_steering_runs_at_constant_communication_k(run_main):
    # k = choose_k(alpha, 0.05) at alpha = m/n = 0.05 and 0.01: pair by pair
    # a round would walk ~1/p_g = 2e10 and 5e51 sets.
    for n, alpha in ((60, 0.05), (300, 0.01)):
        start = time.perf_counter()
        result = run_main("simulate", "--strategy", "entanglement_assisted",
                          "--n", str(n), "--m", "3",
                          "--k", str(choose_k(alpha, 0.05)), "--delta", "0.05",
                          "--trials", "1000")
        assert time.perf_counter() - start < 5.0
        assert result.returncode == 0, result.stderr
        stats = json.loads(result.stdout)["statistics"]
        assert stats["wins"] == stats["trials"] - stats["aborts"] == 1000


def test_threads_default_to_one_worker():
    parser = cli.build_parser()
    assert parser.parse_args(["oracle", "4", "2"]).threads == 1
    simulate = parser.parse_args(["simulate", "--strategy", "quantum",
                                  "--n", "4", "--m", "2", "--trials", "5"])
    assert simulate.threads == 1


# argv, and whether its run asks the OS for its usable CPUs: only a run that
# could use more than one worker does.  5,000 trials are two blocks.
AFFINITY_CASES = {
    "simulate-threads-1": (_quantum(5000, 1), False),
    "simulate-one-block": (_quantum(200, 2), False),
    "oracle": (["oracle", "5", "2", "--threads", "4"], False),
    "simulate-two-blocks": (_quantum(5000, 2), True),
}


@pytest.mark.parametrize("name", AFFINITY_CASES)
def test_only_a_run_that_can_pool_asks_for_the_cpus(monkeypatch, capsys,
                                                    pool_sizes, name):
    argv, asks = AFFINITY_CASES[name]
    assert cli.main(argv) == 0  # on pool_sizes' FAKE_CPUS
    expected = capsys.readouterr()
    assert pool_sizes == ([2] if asks else [])

    def refuse(pid):
        raise AssertionError("asked the OS for its CPUs")

    monkeypatch.setattr(os, "sched_getaffinity", refuse)
    if asks:
        with pytest.raises(AssertionError, match="asked the OS"):
            cli.main(argv)
    else:
        assert cli.main(argv) == 0
        assert capsys.readouterr() == expected


def test_importing_the_cli_loads_no_scipy():
    # Nor the process pool: qcore.pool_map imports it only to start one.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run(
        [sys.executable, "-c",
         "import exclab.cli, sys; print(sorted(name for name in sys.modules "
         "if name.split('.')[0] in ('scipy', 'multiprocessing') "
         "or name.split('.')[:2] == ['concurrent', 'futures']))"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cached_parser_gives_fresh_results_after_a_usage_error(capsys):
    # The parser is built once per process; a usage error (argparse exits 2)
    # and earlier options must not leak into later calls.
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as usage_error:
        cli.main(["simulate", "--strategy", "quantum", "--n", "4"])
    assert usage_error.value.code == 2
    capsys.readouterr()
    for argv in (("simulate", "--strategy", "classical_cover", "--n", "5",
                  "--m", "2", "--trials", "30", "--seed", "4"),
                 ("bounds", "--n", "100", "1000", "--m-rule", "power:0.75",
                  "--format", "json"),
                 ("bounds", "--n", "100", "--m-rule", "linear:0.5"),
                 ("oracle", "4", "2")):
        assert cli.main(list(argv)) == 0
        assert capsys.readouterr().out == run_cli(*argv).stdout


# argv and the exit code of its parse (None: it parses), for main's parse
# and build_parser().parse_args alike.
PARSE_CASES = {
    **{name: (argv, None) for name, argv in EVERY_COMMAND.items()},
    "abbreviated": (["simulate", "--strategy", "quantum", "--n", "4", "--m",
                     "2", "--trials", "5", "--thr", "2"], None),
    "missing-required": (["simulate", "--strategy", "quantum", "--n", "4"],
                         2),
    "bad-int": (["oracle", "five", "2"], 2),
    "retired-spec": (["bounds", "--spec", "x"], 2),
    "leftover-token": (["oracle", "5", "2", "--bogus"], 2),
    "no-arguments": ([], 2),
    "unknown-command": (["nosuch"], 2),
    "help": (["-h"], 0),
    "command-help": (["simulate", "--help"], 0),
}


@pytest.mark.parametrize("name", PARSE_CASES)
def test_main_parses_as_the_full_parser_does(capsys, name):
    argv, code = PARSE_CASES[name]

    def parse(parse_args):
        try:
            return vars(parse_args(list(argv))), capsys.readouterr()
        except SystemExit as stop:
            return stop.code, capsys.readouterr()

    once = parse(cli._parse_args)
    assert once == parse(cli.build_parser().parse_args)
    assert once[0] == code if code is not None else "func" in once[0]
    if name == "missing-required":  # the refusing parser's usage line
        assert once[1].err.startswith("usage: exclab simulate ")
    if name == "help":  # one line for each command
        for command in {run[0] for run in EVERY_COMMAND.values()}:
            assert re.search(rf"^ +{command} ", once[1].out, re.M), command


def test_oracle_small_instance(run_main):
    result = run_main("oracle", "4", "2", "--threads", "1")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["min_excluded"] == 11
    assert doc["closed_form"] == 11
    assert doc["matches_closed_form"] is True
    assert doc["witness_consistent"] is True
    assert doc["witness_excluded_count"] == 11
    assert doc["pass"] is True
    assert len(doc["witness_answers"]) == 6


def test_oracle_threads_do_not_change_output(run_main):
    serial = run_main("oracle", "4", "3", "--threads", "1")
    parallel = run_main("oracle", "4", "3", "--threads", "2")
    assert serial.returncode == parallel.returncode == 0
    assert serial.stdout == parallel.stdout


def test_oracle_threads_start_no_pool(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("the oracle started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert cli.main(["oracle", "5", "4", "--threads", "1"]) == 0
    serial = capsys.readouterr()
    assert cli.main(["oracle", "5", "4", "--threads", "2"]) == 0
    assert capsys.readouterr() == serial


@pytest.mark.parametrize("m, consistent", [(1, True), (2, False)],
                         ids=["consistent", "inconsistent"])
def test_oracle_checks_its_witness_without_scanning_every_string(
        monkeypatch, capsys, m, consistent):
    # At n = 20, scanning the strings for one the witness fits took over 10 s.
    # Every m = 1 witness fits one; at m = 2, one wrong answer fits none.
    witness = list(classical.consistent_answer_set(20, m, (1 << 20) - 1))
    if not consistent:
        witness[7] ^= 1  # (1, 9) now says bit 9 is 0; (2, 9) still says 1
    witness = tuple(witness)
    monkeypatch.setattr(classical, "brute_force_min_exclusion",
                        lambda n, m: (classical.excluded_count(n, m, witness),
                                      witness))
    start = time.perf_counter()
    code = cli.main(["oracle", "20", str(m)])
    assert time.perf_counter() - start < 2.0
    report = json.loads(capsys.readouterr().out)
    assert report["witness_consistent"] is consistent
    if not consistent:
        assert code == 1 and report["pass"] is False


# sha256 over the stdout of `oracle n m`, in ascending (n, m), for every
# shape that ORACLE_BUDGET and the n <= 20 cap admit.
ORACLE_REPORTS_SHA256 = (
    "7dcebd0c3168356695f203b224065d18203f1de402960dba3819eeb58dcae026")


def test_every_admitted_oracle_report_is_pinned(capsys):
    shapes = [(n, m) for n in range(1, EXCLUDED_COUNT_MAX_N + 1)
              for m in range(1, n + 1)
              if m * math.comb(n, m) <= math.log2(ORACLE_BUDGET)]
    assert len(shapes) == 44
    digest = hashlib.sha256()
    for n, m in shapes:
        assert cli.main(["oracle", str(n), str(m)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        digest.update(captured.out.encode())
    assert digest.hexdigest() == ORACLE_REPORTS_SHA256


def test_oracle_refusals(run_main):
    over_budget = run_main("oracle", "5", "3")
    assert over_budget.returncode == 2
    assert "budget" in over_budget.stderr
    assert run_main("oracle", "3", "5").returncode == 2
    # Inside the answer-set budget but past n = 20: refused before any mask.
    # Far past it, C(n, m) has 301,027 digits: refused before it is formed.
    for n, m in (("21", "1"), ("1000000", "500000")):
        start = time.perf_counter()
        past_cap = run_main("oracle", n, m)
        assert time.perf_counter() - start < 5.0
        assert past_cap.returncode == 2
        assert past_cap.stdout == "" and "n <= 20" in past_cap.stderr


def _limit_address_space_to_1_gib():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_oracle_keeps_one_mask_at_m_equal_n():
    result = run_cli("oracle", "18", "18",
                     preexec_fn=_limit_address_space_to_1_gib)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["pass"] is True


def test_transcripts_at_the_trial_budget_fit_in_1_gib(tmp_path):
    # A sink at n = TRIAL_MAX_N draws and writes one row at a time: two
    # trials at (10**6, 31,622) write two lines, each with its 10**6-bit x,
    # and the report is the sinkless run's.
    argv = ("simulate", "--strategy", "quantum", "--n", str(TRIAL_MAX_N),
            "--m", "31622", "--trials", "2")
    path = tmp_path / "trials.jsonl"
    with_sink = run_cli(*argv, "--transcripts", str(path),
                        preexec_fn=_limit_address_space_to_1_gib)
    assert with_sink.returncode == 0, with_sink.stderr
    plain = run_cli(*argv, preexec_fn=_limit_address_space_to_1_gib)
    assert plain.returncode == 0, plain.stderr
    assert with_sink.stdout == plain.stdout
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [record["trial"] for record in records] == [0, 1]
    for record in records:
        assert len(record["x"]) == TRIAL_MAX_N
        assert set(record["x"]) <= {"0", "1"}
        assert len(record["y"]) == len(record["answer"]) == 31622


@pytest.mark.parametrize("argv", [
    ("oracle", "3", "2"),
    ("simulate", "--strategy", "quantum", "--n", "4", "--m", "2",
     "--trials", "10"),
], ids=["oracle", "simulate"])
def test_zero_threads_exit_2(argv, run_main):
    result = run_main(*argv, "--threads", "0")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "workers must be >= 1, got 0" in result.stderr


def test_steering_report(run_main):
    result = run_main("steering", "--m-max", "8")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["pass"] is True
    assert len(doc["rows"]) == 8
    first = doc["rows"][0]
    assert first["p_steer"] == pytest.approx(0.5, abs=1e-12)
    for row in doc["rows"]:
        assert row["probability_residual"] <= 1e-12
        assert row["closed_form_residual"] <= 1e-12
        assert row["fidelity_residual"] <= 1e-12
        assert row["pass"] is True


# sha256 of the `steering --m-max 32` report with every row's
# fidelity_residual removed, re-serialized with sorted keys.  The residual is
# left out: its last bits follow the arithmetic that forms the post-states.
STEERING_32_SHA256 = (
    "2d35daf83af868f023e712713129c3875dedf57f7d75df5907b98c86ee7b8a4d")


def test_steering_report_is_pinned_apart_from_fidelity_residuals(capsys):
    assert cli.main(["steering", "--m-max", "32"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 32
    for row in doc["rows"]:
        assert 0.0 <= row.pop("fidelity_residual") <= 1e-15
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == STEERING_32_SHA256


def test_steering_rejects_bad_m_max(capsys, run_main):
    assert run_main("steering", "--m-max", "0").returncode == 2
    _assert_rows_refused_outside_1_to_cap(capsys, ["steering", "--m-max"],
                                          cli.STEERING_MAX_M)


def test_steering_past_the_row_cap_exits_2_before_any_row(capsys):
    assert cli.main(["steering", "--m-max", str(cli.STEERING_MAX_M)]) == 0
    capsys.readouterr()
    for m_max in (cli.STEERING_MAX_M + 1, 10**12):
        start = time.perf_counter()
        assert cli.main(["steering", "--m-max", str(m_max)]) == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and "resource limit" in err


def test_choose_k_prints_bare_integer(run_main):
    # Through the -m entry point: its exit code and the process's stdout.
    result = run_cli("choose-k", "1.0", "0.05")
    assert result.returncode == 0
    assert result.stdout == "11\n"
    assert run_main("choose-k", "1.5", "0.05").returncode == 2


def test_choose_k_small_alpha_exact_or_refused(run_main):
    small = run_main("choose-k", "0.03", "0.05")
    assert small.returncode == 0, small.stderr
    assert small.stdout == "350888694609641424159\n"
    tiny = run_main("choose-k", "0.005", "0.05")
    assert tiny.returncode == 2
    assert "resource limit" in tiny.stderr


WORKFLOW = Path(__file__).resolve().parents[1] / ".github/workflows/tier1.yml"


def test_the_ci_workflow_names_files_and_commands_that_exist():
    # Read as text: the CI legs install no YAML parser.  The workflow calls
    # each registered command once through the installed exclab script.
    text = WORKFLOW.read_text(encoding="utf-8")
    paths = re.findall(r"\b(?:tests|perfbench)/[\w/]+\.py\b", text)
    root = WORKFLOW.parents[2]
    assert paths and all((root / path).is_file() for path in paths), paths
    calls = re.findall(r"^ *exclab ([\w-]+)", text, re.M)
    assert sorted(calls) == sorted(cli._parsers()[1])
