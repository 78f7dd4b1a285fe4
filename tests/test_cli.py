"""End-to-end command-line checks via subprocess."""

import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc

import pytest

from exclab import cli
from exclab.bounds import GameParameters, classical_ic_lower_bound, gamma_log2
from exclab.game import TRIAL_MAX_N

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


def test_verify_pbr_reports_and_passes():
    result = run_cli("verify-pbr", "4")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "verify-pbr"
    assert doc["pass"] is True
    assert [row["m"] for row in doc["rows"]] == [1, 2, 3, 4]
    first = doc["rows"][0]
    assert first["theta"] == pytest.approx(math.pi / 2, rel=1e-11)
    assert first["max_exclusion_overlap"] <= 1e-12
    assert first["gram_residual"] <= 1e-10
    assert first["formula_residual"] <= 1e-12
    # The same measurement must demonstrably fail below the critical angle.
    assert first["subcritical_overlap"] > 1e-6
    assert first["pass"] is True


def test_verify_pbr_is_byte_deterministic():
    first = run_cli("verify-pbr", "3")
    second = run_cli("verify-pbr", "3")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_verify_pbr_rejects_out_of_range_m_max():
    assert run_cli("verify-pbr", "11").returncode == 2
    assert run_cli("verify-pbr", "0").returncode == 2


def test_bounds_csv_values_match_library():
    result = run_cli("bounds", "--n", "16", "64", "--m-rule", "linear:0.25")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    for line, n, m in zip(lines[1:], (16, 64), (4, 16)):
        cells = line.split(",")
        assert cells[0] == str(n)
        assert cells[1] == str(m)
        assert float(cells[2]) == pytest.approx(gamma_log2(n, m), rel=1e-9)
        assert float(cells[3]) == pytest.approx(
            classical_ic_lower_bound(GameParameters(n, m)), rel=1e-9
        )
        assert float(cells[5]) == pytest.approx(2 * float(cells[4]), rel=1e-9)


def test_bounds_empty_n_list_gives_header_only_csv():
    result = run_cli("bounds", "--n", "--m-rule", "power:0.75")
    assert result.returncode == 0, result.stderr
    assert result.stdout == CSV_HEADER + "\n"


def test_bounds_json_format():
    result = run_cli("bounds", "--n", "32", "--m-rule", "power:0.5",
                     "--format", "json")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["schema_version"] == "1"
    assert doc["m_rule"] == "power:0.5"
    (row,) = doc["rows"]
    assert row["n"] == 32 and row["m"] == 5
    assert set(row) == {"n", "m", "gamma_log2", "classical_ic_lower",
                        "quantum_entropy_upper", "quantum_ic_upper"}


def test_bounds_batch_file(tmp_path):
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps({
        "schema_version": "1",
        "n_values": [16, 64],
        "m_rule": "linear:0.25",
        "format": "csv",
    }))
    from_spec = run_cli("bounds", "--spec", str(batch))
    from_flags = run_cli("bounds", "--n", "16", "64",
                         "--m-rule", "linear:0.25")
    assert from_spec.returncode == 0, from_spec.stderr
    assert from_spec.stdout == from_flags.stdout


def test_bounds_batch_file_rejections(tmp_path):
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({
        "n_values": [8], "m_rule": "power:0.75", "surprise": 1,
    }))
    assert run_cli("bounds", "--spec", str(unknown)).returncode == 2

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"n_values": [8]}))
    assert run_cli("bounds", "--spec", str(missing)).returncode == 2

    wrong_version = tmp_path / "version.json"
    wrong_version.write_text(json.dumps({
        "schema_version": "9", "n_values": [8], "m_rule": "power:0.75",
    }))
    assert run_cli("bounds", "--spec", str(wrong_version)).returncode == 2

    rule_type = tmp_path / "rule_type.json"
    rule_type.write_text(json.dumps({"n_values": [8], "m_rule": 0.75}))
    assert run_cli("bounds", "--spec", str(rule_type)).returncode == 2

    good = tmp_path / "good.json"
    good.write_text(json.dumps({"n_values": [8], "m_rule": "power:0.75"}))
    both = run_cli("bounds", "--spec", str(good), "--n", "8",
                   "--m-rule", "power:0.75")
    assert both.returncode == 2


@pytest.mark.parametrize("n_values", [["100"], [100.5], [True], "100"])
def test_bounds_batch_file_refuses_non_integer_n_values(tmp_path, n_values):
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps({"n_values": n_values,
                                 "m_rule": "power:0.75"}))
    result = run_cli("bounds", "--spec", str(batch))
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert "n_values" in result.stderr


def test_bounds_requires_inputs():
    assert run_cli("bounds").returncode == 2
    assert run_cli("bounds", "--m-rule", "power:0.75").returncode == 2


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


def test_bounds_past_the_cap_exits_2_before_any_row():
    for n in ("10000000000000", str(10**18)):
        result = run_cli("bounds", "--n", "100", n, "--m-rule", "power:0.75")
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


def test_bounds_output_file(tmp_path):
    target = tmp_path / "table.csv"
    result = run_cli("bounds", "--n", "8", "--m-rule", "linear:0.5",
                     "--output", str(target))
    assert result.returncode == 0
    assert result.stdout == ""
    content = target.read_text()
    assert content.startswith(CSV_HEADER)
    assert content.split("\n")[1].startswith("8,4,")


def test_simulate_quantum_json_and_determinism():
    argv = ("simulate", "--strategy", "quantum", "--n", "4", "--m", "2",
            "--trials", "50", "--seed", "3", "--threads", "1")
    first = run_cli(*argv)
    second = run_cli(*argv)
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


def test_simulate_thread_count_does_not_change_output():
    # 10,000 trials are three blocks, so --threads 3 really runs a pool.
    for strategy in ("quantum", "classical_cover"):
        argv = ("simulate", "--strategy", strategy, "--n", "6", "--m", "3",
                "--trials", "10000", "--seed", "5")
        serial = run_cli(*argv, "--threads", "1")
        parallel = run_cli(*argv, "--threads", "3")
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


def test_simulate_transcript_stream(tmp_path):
    path = tmp_path / "transcripts.ndjson"
    result = run_cli("simulate", "--strategy", "entanglement_assisted",
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


def test_simulate_usage_errors():
    missing_k = run_cli("simulate", "--strategy", "entanglement_assisted",
                        "--n", "4", "--m", "2", "--trials", "5")
    assert missing_k.returncode == 2
    too_big = run_cli("simulate", "--strategy", "classical_cover",
                      "--n", "17", "--m", "2", "--trials", "5",
                      "--threads", "1")
    assert too_big.returncode == 2
    assert "resource" in too_big.stderr


def test_simulate_past_the_qubit_cap_exits_2_before_allocating(capsys):
    # Completed steering rounds measure the steered qubits densely.
    tracemalloc.start()
    try:
        code = cli.main(["simulate", "--strategy", "entanglement_assisted",
                         "--n", "14", "--m", "14", "--k", "11",
                         "--delta", "0.05", "--trials", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "resource limit" in capsys.readouterr().err
    assert peak < 1 << 20


def test_verify_pbr_past_the_qubit_cap_exits_2_before_allocating(capsys):
    # The 13-qubit cap guards the dense measurement, which only verification
    # builds; verify-pbr itself stops at m = 10.
    tracemalloc.start()
    try:
        code = cli.main(["verify-pbr", "14"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "m_max" in capsys.readouterr().err
    assert peak < 1 << 20


def test_simulate_past_the_qubit_cap_runs_with_zero_loss():
    result = run_cli("simulate", "--strategy", "quantum", "--n", "200",
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


def test_simulate_refuses_a_steering_run_past_the_set_budget():
    # k = choose_k(0.05, 0.05): one trial walks ~1/p_g = 2e10 sets.
    start = time.perf_counter()
    result = run_cli("simulate", "--strategy", "entanglement_assisted",
                     "--n", "60", "--m", "3", "--k", "3293842468475",
                     "--delta", "0.05", "--trials", "1")
    assert time.perf_counter() - start < 5.0
    assert result.returncode == 2
    assert "shared sets" in result.stderr


def test_threads_default_to_one_worker():
    parser = cli.build_parser()
    assert parser.parse_args(["oracle", "4", "2"]).threads == 1
    simulate = parser.parse_args(["simulate", "--strategy", "quantum",
                                  "--n", "4", "--m", "2", "--trials", "5"])
    assert simulate.threads == 1


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


def test_oracle_small_instance():
    result = run_cli("oracle", "4", "2", "--threads", "1")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["min_excluded"] == 11
    assert doc["closed_form"] == 11
    assert doc["matches_closed_form"] is True
    assert doc["witness_consistent"] is True
    assert doc["witness_excluded_count"] == 11
    assert doc["pass"] is True
    assert len(doc["witness_answers"]) == 6


def test_oracle_threads_do_not_change_output():
    serial = run_cli("oracle", "4", "3", "--threads", "1")
    parallel = run_cli("oracle", "4", "3", "--threads", "2")
    assert serial.returncode == parallel.returncode == 0
    assert serial.stdout == parallel.stdout


def test_oracle_refusals():
    over_budget = run_cli("oracle", "5", "3")
    assert over_budget.returncode == 2
    assert "budget" in over_budget.stderr
    assert run_cli("oracle", "3", "5").returncode == 2


def test_steering_report():
    result = run_cli("steering", "--m-max", "8")
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


def test_steering_rejects_bad_m_max():
    assert run_cli("steering", "--m-max", "0").returncode == 2


def test_choose_k_prints_bare_integer():
    result = run_cli("choose-k", "1.0", "0.05")
    assert result.returncode == 0
    assert result.stdout == "11\n"
    assert run_cli("choose-k", "1.5", "0.05").returncode == 2


def test_choose_k_small_alpha_exact_or_refused():
    small = run_cli("choose-k", "0.03", "0.05")
    assert small.returncode == 0, small.stderr
    assert small.stdout == "350888694609641424159\n"
    tiny = run_cli("choose-k", "0.005", "0.05")
    assert tiny.returncode == 2
    assert "resource limit" in tiny.stderr
