"""Command-line front end.

    exclab verify-pbr 6              check the exclusion measurement up to m=6
    exclab bounds --n 100 1000 --m-rule power:0.75
    exclab simulate --strategy quantum --n 8 --m 4 --trials 10000
    exclab oracle 4 2                exhaustive minimum vs the closed form
    exclab steering --m-max 16       steering identities as residuals
    exclab choose-k 1.0 0.05         smallest k meeting an abort budget

Exit codes: 0 on success, 1 when a verification command finds a violated
invariant, 2 on usage errors or refused resource budgets.  All reports are
JSON (bounds also ships CSV) with floats at 12 significant digits; output is
byte-identical across runs for the same arguments and seed.  The EXCLAB_SEED
environment variable supplies the seed when --seed is not given.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import classical, game, steering
from .pbr import (
    BitString,
    bit_state,
    critical_angle,
    exclusion_measurement,
    exclusion_vector,
    product_state,
)
from .qcore import (
    MATRIX_TOL,
    VECTOR_TOL,
    ResourceLimitError,
    StateVector,
    inner_product,
)

SCHEMA_VERSION = "1"

CSV_COLUMNS = ("n", "m", "gamma_log2", "classical_ic_lower",
               "quantum_entropy_upper", "quantum_ic_upper")


def _sig12(value: float) -> float:
    return float(f"{value:.12g}")


def _round_floats(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return _sig12(obj)
    if isinstance(obj, dict):
        return {key: _round_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(value) for value in obj]
    return obj


def _emit_text(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, output: str | None) -> None:
    _emit_text(json.dumps(_round_floats(doc), indent=2, sort_keys=True) + "\n",
               output)


SUBCRITICAL_FACTOR = 0.9
SUBCRITICAL_MARGIN = 1e-6


def cmd_verify_pbr(args: argparse.Namespace) -> int:
    if not 1 <= args.m_max <= 10:
        raise ValueError(f"m_max must lie in 1..10, got {args.m_max}")
    rows = []
    all_pass = True
    for m in range(1, args.m_max + 1):
        theta = critical_angle(m)
        measurement = exclusion_measurement(m)
        kets = measurement.kets
        gram_residual = float(
            np.abs(kets @ kets.conj().T - np.eye(1 << m)).max()
        )
        overlap = 0.0
        subcritical_overlap = 0.0
        formula_residual = 0.0
        for ket, z in zip(kets, measurement.labels):
            overlap = max(overlap, abs(complex(np.vdot(
                ket, product_state(z, theta).amplitudes))))
            # Below the critical angle exclusion must demonstrably fail.
            subcritical_overlap = max(subcritical_overlap, abs(complex(np.vdot(
                ket, product_state(z, SUBCRITICAL_FACTOR * theta).amplitudes))))
            formula_residual = max(formula_residual, float(np.abs(
                exclusion_vector(z).amplitudes - ket
            ).max()))
        row_pass = (overlap <= VECTOR_TOL
                    and gram_residual <= MATRIX_TOL
                    and formula_residual <= VECTOR_TOL
                    and subcritical_overlap > SUBCRITICAL_MARGIN)
        all_pass = all_pass and row_pass
        rows.append({
            "m": m,
            "theta": theta,
            "max_exclusion_overlap": overlap,
            "subcritical_overlap": subcritical_overlap,
            "gram_residual": gram_residual,
            "formula_residual": formula_residual,
            "pass": row_pass,
        })
    _emit_json({
        "schema_version": SCHEMA_VERSION,
        "command": "verify-pbr",
        "m_max": args.m_max,
        "rows": rows,
        "pass": all_pass,
    }, args.output)
    return 0 if all_pass else 1


_BATCH_FIELDS = {"schema_version", "n_values", "m_rule", "format"}


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.spec:
        if args.n or args.m_rule:
            raise ValueError("--spec replaces --n and --m-rule")
        doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        unknown = set(doc) - _BATCH_FIELDS
        if unknown:
            raise ValueError(f"unknown batch fields: {sorted(unknown)}")
        if doc.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {doc.get('schema_version')!r}"
            )
        if "n_values" not in doc or "m_rule" not in doc:
            raise ValueError("batch file needs n_values and m_rule")
        n_values = doc["n_values"]
        rule_text = doc["m_rule"]
        # type() is int refuses bools and floats, which isinstance would pass.
        if not isinstance(n_values, list) or any(type(n) is not int
                                                 for n in n_values):
            raise ValueError(f"n_values must be a list of integers, "
                             f"got {n_values!r}")
        if not isinstance(rule_text, str):
            raise ValueError(f"m_rule must be a string, got {rule_text!r}")
        output_format = doc.get("format", args.format)
    else:
        if args.n is None or args.m_rule is None:
            raise ValueError("need --n and --m-rule (or --spec)")
        n_values = args.n
        rule_text = args.m_rule
        output_format = args.format

    rule = bounds_mod.MRule.parse(rule_text)
    rows = bounds_mod.separation_table(n_values, rule)

    if output_format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for row in rows:
            record = row.to_dict()
            cells = []
            for column in CSV_COLUMNS:
                value = record[column]
                cells.append(str(value) if isinstance(value, int)
                             else f"{value:.12g}")
            lines.append(",".join(cells))
        _emit_text("\n".join(lines) + "\n", args.output)
    else:
        _emit_json({
            "schema_version": SCHEMA_VERSION,
            "command": "bounds",
            "m_rule": rule_text,
            "rows": [row.to_dict() for row in rows],
        }, args.output)
    return 0


def _resolve_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("EXCLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"EXCLAB_SEED must be an integer, got {env!r}") from exc
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = game.GameConfig(
        n=args.n,
        m=args.m,
        strategy=args.strategy,
        trials=args.trials,
        seed=_resolve_seed(args.seed),
        delta=args.delta,
        k=args.k,
    )
    sink = None
    transcript_file = None
    if args.transcripts:
        transcript_file = Path(args.transcripts).open("w", encoding="utf-8")

        def sink(transcript: game.Transcript) -> None:
            transcript_file.write(
                json.dumps(_round_floats(transcript.to_dict()), sort_keys=True)
                + "\n"
            )

    try:
        stats = game.monte_carlo(config, workers=args.threads,
                                 transcript_sink=sink)
    finally:
        if transcript_file is not None:
            transcript_file.close()

    _emit_json({
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "config": asdict(config),
        "statistics": stats.to_dict(),
    }, args.output)
    # Success means the zero-error invariant held: no non-aborted loss.
    return 0 if stats.wins == stats.trials - stats.aborts else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    count, witness = classical.brute_force_min_exclusion(
        args.n, args.m, workers=args.threads
    )
    closed_form = (1 << args.n) - bounds_mod.gamma(args.n, args.m)
    witness_consistent = any(
        witness == classical.consistent_answer_set(BitString.from_index(a, args.n),
                                                   args.m)
        for a in range(1 << args.n)
    )
    recount = classical.excluded_count(witness)
    ok = count == closed_form and witness_consistent and recount == count
    _emit_json({
        "schema_version": SCHEMA_VERSION,
        "command": "oracle",
        "n": args.n,
        "m": args.m,
        "min_excluded": count,
        "closed_form": closed_form,
        "matches_closed_form": count == closed_form,
        "witness_consistent": witness_consistent,
        "witness_excluded_count": recount,
        "witness_answers": [str(z) for z in witness.answers],
        "pass": ok,
    }, args.output)
    return 0 if ok else 1


def cmd_steering(args: argparse.Namespace) -> int:
    if args.m_max < 1:
        raise ValueError(f"m-max must be >= 1, got {args.m_max}")
    root_half = 1.0 / math.sqrt(2.0)
    minus = StateVector(np.array([root_half, -root_half]), 1)
    plus = StateVector(np.array([root_half, root_half]), 1)
    rows = []
    all_pass = True
    for m in range(1, args.m_max + 1):
        kit = steering.build_kit(m)
        # Branch post-states in kit order, built without the kit.
        targets = (bit_state(0, kit.theta), minus, bit_state(1, kit.theta), plus)
        closed = steering.p_steer(m)
        algebraic = 1.0 + 2.0 ** ((m - 2.0) / m) - 2.0 ** ((m - 1.0) / m)
        probability_residual = max(
            abs(kit.branch_probs[bit][0] - closed) for bit in (0, 1)
        )
        total_residual = max(
            abs(kit.branch_probs[bit][0] + kit.branch_probs[bit][1] - 1.0)
            for bit in (0, 1)
        )
        fidelity_residual = 0.0
        for branch, target in enumerate(targets):
            post = kit.branch_posts[branch // 2][branch % 2]
            fidelity = abs(inner_product(target, post)) ** 2
            fidelity_residual = max(fidelity_residual, abs(1.0 - fidelity))
        row_pass = (probability_residual <= VECTOR_TOL
                    and abs(closed - algebraic) <= VECTOR_TOL
                    and total_residual <= VECTOR_TOL
                    and fidelity_residual <= VECTOR_TOL)
        all_pass = all_pass and row_pass
        rows.append({
            "m": m,
            "theta": kit.theta,
            "p_steer": closed,
            "closed_form_residual": abs(closed - algebraic),
            "probability_residual": probability_residual,
            "total_probability_residual": total_residual,
            "fidelity_residual": fidelity_residual,
            "pass": row_pass,
        })
    _emit_json({
        "schema_version": SCHEMA_VERSION,
        "command": "steering",
        "m_max": args.m_max,
        "rows": rows,
        "pass": all_pass,
    }, args.output)
    return 0 if all_pass else 1


def cmd_choose_k(args: argparse.Namespace) -> int:
    k = steering.choose_k(args.alpha, args.delta)
    _emit_text(f"{k}\n", args.output)
    return 0


# Built once per process: parse_args fills a fresh namespace on every call.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exclab",
        description="Exclusion-game simulator and bounds toolkit.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser(
        "verify-pbr", help="verify the exclusion measurement up to m_max")
    verify.add_argument("m_max", type=int)
    verify.add_argument("--output", default=None)
    verify.set_defaults(func=cmd_verify_pbr)

    bounds_cmd = commands.add_parser(
        "bounds", help="tabulate classical and quantum information bounds")
    bounds_cmd.add_argument("--n", type=int, nargs="*", default=None)
    bounds_cmd.add_argument("--m-rule", default=None,
                            help="power:C for m=floor(n**C), "
                                 "linear:A for m=floor(A*n)")
    bounds_cmd.add_argument("--spec", default=None,
                            help="JSON batch file with n_values and m_rule")
    bounds_cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    bounds_cmd.add_argument("--output", default=None)
    bounds_cmd.set_defaults(func=cmd_bounds)

    simulate = commands.add_parser(
        "simulate", help="run Monte Carlo trials of one strategy")
    simulate.add_argument("--strategy", required=True,
                          choices=game.STRATEGIES)
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--m", type=int, required=True)
    simulate.add_argument("--trials", type=int, required=True)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--delta", type=float, default=None)
    simulate.add_argument("--k", type=int, default=None)
    simulate.add_argument("--threads", type=int, default=1)
    simulate.add_argument("--output", default=None)
    simulate.add_argument("--transcripts", default=None,
                          help="write one JSON transcript per line here")
    simulate.set_defaults(func=cmd_simulate)

    oracle = commands.add_parser(
        "oracle", help="exhaustive minimum excluded count vs the closed form")
    oracle.add_argument("n", type=int)
    oracle.add_argument("m", type=int)
    oracle.add_argument("--threads", type=int, default=1)
    oracle.add_argument("--output", default=None)
    oracle.set_defaults(func=cmd_oracle)

    steer = commands.add_parser(
        "steering", help="check the steering identities as residuals")
    steer.add_argument("--m-max", type=int, default=32)
    steer.add_argument("--output", default=None)
    steer.set_defaults(func=cmd_steering)

    choose = commands.add_parser(
        "choose-k", help="smallest set count meeting an abort budget")
    choose.add_argument("alpha", type=float)
    choose.add_argument("delta", type=float)
    choose.add_argument("--output", default=None)
    choose.set_defaults(func=cmd_choose_k)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"exclab: resource limit: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"exclab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
