"""Command-line front end.

    exclab verify-pbr 6              check the exclusion measurement up to m=6
    exclab bounds --n 100 1000 --m-rule power:0.75
    exclab simulate --strategy quantum --n 8 --m 4 --trials 10000
    exclab oracle 4 2                exhaustive minimum vs the closed form
    exclab steering --m-max 16       steering identities as residuals
    exclab choose-k 1.0 0.05         smallest k meeting an abort budget

Each command builds its report and exit code and writes nothing; ``main``
alone writes the report, to stdout or to ``--output``.  Exit codes: 0 on
success, 1 when a verification command finds a violated invariant, 2 on
usage errors, unusable files, refused resource budgets or a non-finite
report value, each with no report.  Reports are strict JSON (bounds also
ships CSV, choose-k prints a bare integer), floats at 12 significant
digits, byte-identical for equal arguments and seed.
The EXCLAB_SEED environment variable supplies the seed when --seed is not
given.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import bounds as bounds_mod
from . import classical, game, steering
from .pbr import (
    MAX_QUBITS,
    BitString,
    critical_angle,
    distance_distribution,
    exclusion_overlaps,
    product_state,
)
from .qcore import MATRIX_TOL, VECTOR_TOL, ResourceLimitError, usable_workers

SCHEMA_VERSION = "1"


def _float_json(x: float) -> str:
    text = f"{x:.12g}"
    if "e" not in text:  # fixed notation, or inf or nan
        if "n" not in text:
            return text if "." in text else text + ".0"
    elif text[-4:] not in _REPR_FIXED and abs(x) >= sys.float_info.min:
        return text
    if not math.isfinite(x):
        raise ValueError(f"report value {x!r} is not finite")
    return float.__repr__(float(text))


_REPR_FIXED = frozenset({"e+12", "e+13", "e+14", "e+15"})
# Found by exact type in containers; bool precedes int for isinstance.
_SCALARS = {float: _float_json, str: encode_basestring_ascii,
            bool: ("false", "true").__getitem__, type(None): lambda _: "null",
            int: int.__repr__}


def _to_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, floats rounded to 12
    significant digits.  Refuses what json refuses and non-str keys with
    TypeError, and NaN and infinities (not JSON) with ValueError.

    A float is written as ``float.__repr__(float(f"{x:.12g}"))``, mostly
    as the ``.12g`` text: a normal double keeps every decimal of up to 15
    digits (DBL_DIG), so only the notation can differ.  repr adds ".0" to
    an integral fixed value and keeps fixed notation in [1e12, 1e16); that
    window, subnormals (fewer digits), NaN and infinities take the repr."""
    parts: list[str] = []
    put, get, labels = parts.append, _SCALARS.get, {}

    def write(obj, newline: str) -> None:
        keys, ends = (sorted(obj), "{}") if isinstance(obj, dict) else (None, "[]")
        if keys is None and not isinstance(obj, (list, tuple)):
            for kind, scalar in _SCALARS.items():  # subclasses, e.g. np.float64
                if isinstance(obj, kind):
                    return put(scalar(obj))
            raise TypeError(f"{type(obj).__name__} is not JSON serializable")
        if not obj:
            return put(ends)
        separator, first = "," + (inner := newline + "  "), len(parts)
        for item in obj if keys is None else keys:
            put(separator)
            if keys is not None:  # encode_basestring_ascii refuses other keys
                put(labels.get(item) or labels.setdefault(
                    item, encode_basestring_ascii(item) + ": "))
                item = obj[item]
            if (scalar := get(type(item))) is None:  # exact type; write() the rest
                write(item, inner)
            else:
                put(scalar(item))
        parts[first] = ends[0] + inner  # over the first separator
        put(newline + ends[1])

    write(obj, "\n")
    return "".join(parts)


def _write(path: str, text: str, flags: int = os.O_TRUNC) -> None:
    """Write ``text`` as UTF-8 to ``path`` ("" is "."), unbuffered, created
    with mode 0o666 under the umask, truncated or (os.O_APPEND) added to."""
    file = os.open(path or ".", os.O_WRONLY | os.O_CREAT | flags, 0o666)
    try:
        data = text.encode("utf-8")
        while data:  # a raw write may take only some of the bytes
            data = data[os.write(file, data):]
    finally:
        os.close(file)


def _rows(m_max: int, cap: int, row) -> tuple[dict, int]:
    """Report ``row(m)`` for m = 1..m_max, each a dict with its "pass"; exit
    1 unless every row passes.  An m_max below 1 is a usage error and one
    past ``cap`` a refused budget, both before any row is built."""
    if not 1 <= m_max <= cap:
        error = ValueError if m_max < 1 else ResourceLimitError
        raise error(f"m_max must lie in 1..{cap}, got {m_max}")
    rows = [row(m) for m in range(1, m_max + 1)]
    all_pass = all(r["pass"] for r in rows)
    return {"m_max": m_max, "rows": rows, "pass": all_pass}, int(not all_pass)


SUBCRITICAL_FACTOR = 0.9
SUBCRITICAL_MARGIN = 1e-6
# steering builds and caches one kit per row; 1,024 rows take about 0.08 s
# in-process (2-CPU Xeon).
STEERING_MAX_M = 1024


def cmd_verify_pbr(args: argparse.Namespace) -> tuple[dict, int]:
    def row(m: int) -> dict:
        theta = critical_angle(m)
        overlap = subcritical_overlap = parseval_residual = law_residual = 0.0
        # Z**w maps zeta_z to zeta_{z xor w}, so truth 0 would do; all-ones
        # and 1010... check the implementation.
        for truth in sorted({0, (1 << m) - 1, int(("10" * m)[:m], 2)}):
            x = BitString.from_index(truth, m)
            # Row 1 is below the critical angle: exclusion must fail there.
            overlaps = exclusion_overlaps([
                product_state(x, factor * theta).amplitudes.real
                for factor in (1.0, SUBCRITICAL_FACTOR)])
            probabilities = overlaps**2
            overlap = max(overlap, float(abs(overlaps[0, truth])))
            subcritical_overlap = max(subcritical_overlap,
                                      float(abs(overlaps[1, truth])))
            parseval_residual = max(parseval_residual, float(
                np.abs(probabilities.sum(axis=1) - 1.0).max()))
            shells = np.bincount(np.bitwise_count(np.arange(1 << m) ^ truth),
                                 weights=probabilities[0], minlength=m + 1)
            law_residual = max(law_residual, float(
                np.abs(shells - distance_distribution(m)[0]).max()))
        return {
            "m": m,
            "theta": theta,
            "max_exclusion_overlap": overlap,
            "subcritical_overlap": subcritical_overlap,
            "parseval_residual": parseval_residual,
            "distance_law_residual": law_residual,
            "pass": (overlap <= VECTOR_TOL
                     and parseval_residual <= MATRIX_TOL
                     and law_residual <= MATRIX_TOL
                     and subcritical_overlap > SUBCRITICAL_MARGIN),
        }
    return _rows(args.m_max, MAX_QUBITS, row)


def cmd_bounds(args: argparse.Namespace) -> tuple[dict | str, int]:
    rows = bounds_mod.separation_table(args.n, bounds_mod.MRule.parse(args.m_rule))
    if args.format == "csv":  # a row's fields are the columns, in order
        lines = [",".join(bounds_mod.BoundsRow._fields), *(",".join(
            str(value) if isinstance(value, int) else f"{value:.12g}"
            for value in row) for row in rows)]
        return "\n".join(lines) + "\n", 0
    return {"m_rule": args.m_rule, "rows": [row.to_dict() for row in rows]}, 0


def _resolve_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("EXCLAB_SEED", "0")
    try:
        return int(env)
    except ValueError as exc:
        raise ValueError(f"EXCLAB_SEED must be an integer, got {env!r}") from exc


def cmd_simulate(args: argparse.Namespace) -> tuple[dict, int]:
    config = game.GameConfig(
        n=args.n, m=args.m, strategy=args.strategy, trials=args.trials,
        seed=_resolve_seed(args.seed), delta=args.delta, k=args.k)
    sink, flags = None, os.O_TRUNC
    if args.transcripts is not None:
        # Truncated at the first chunk, so a refused run leaves it as it was.
        def sink(lines: str) -> None:
            nonlocal flags
            _write(args.transcripts, lines, flags)
            flags = os.O_APPEND

    stats = game.monte_carlo(config, workers=args.threads,
                             transcript_sink=sink)

    # Success means the zero-error invariant held: no non-aborted loss.
    return ({"config": dict(vars(config)), "statistics": stats.to_dict()},
            int(stats.wins != stats.trials - stats.aborts))


def cmd_oracle(args: argparse.Namespace) -> tuple[dict, int]:
    # The search is serial; --threads is still accepted and checked.
    usable_workers(args.threads, 1)
    count, witness = classical.brute_force_min_exclusion(args.n, args.m)
    closed_form = (1 << args.n) - bounds_mod.gamma(args.n, args.m)
    # Only one a can fit: answers to (1..m), then (1..m-1, p > m), spell it.
    a = functools.reduce(lambda bits, z: bits << 1 | z & 1,
                         witness[1:args.n - args.m + 1], witness[0])
    witness_consistent = witness == classical.consistent_answer_set(
        args.n, args.m, a)
    recount = classical.excluded_count(args.n, args.m, witness)
    ok = count == closed_form and witness_consistent and recount == count
    return {
        "n": args.n,
        "m": args.m,
        "min_excluded": count,
        "closed_form": closed_form,
        "matches_closed_form": count == closed_form,
        "witness_consistent": witness_consistent,
        "witness_excluded_count": recount,
        "witness_answers": [format(z, f"0{args.m}b") for z in witness],
        "pass": ok,
    }, int(not ok)


def cmd_steering(args: argparse.Namespace) -> tuple[dict, int]:
    root_half = 1.0 / math.sqrt(2.0)

    def row(m: int) -> dict:
        theta = critical_angle(m)
        probs, posts = steering.build_kit(m)
        # Branch post-states in kit order, built without the kit: the bit
        # states at theta after outcome 0, |-> and |+> after outcome 1.
        cos_h, sin_h = math.cos(0.5 * theta), math.sin(0.5 * theta)
        targets = np.array([[[cos_h, sin_h], [root_half, -root_half]],
                            [[cos_h, -sin_h], [root_half, root_half]]])
        closed = steering.p_steer(m)
        algebraic = 1.0 + 2.0 ** ((m - 2.0) / m) - 2.0 ** ((m - 1.0) / m)
        probability_residual = float(np.abs(probs[:, 0] - closed).max())
        total_residual = float(np.abs(probs.sum(-1) - 1.0).max())
        fidelities = (targets * posts).sum(-1) ** 2
        fidelity_residual = float(np.abs(1.0 - fidelities).max())
        return {
            "m": m,
            "theta": theta,
            "p_steer": closed,
            "closed_form_residual": abs(closed - algebraic),
            "probability_residual": probability_residual,
            "total_probability_residual": total_residual,
            "fidelity_residual": fidelity_residual,
            "pass": (probability_residual <= VECTOR_TOL
                     and abs(closed - algebraic) <= VECTOR_TOL
                     and total_residual <= VECTOR_TOL
                     and fidelity_residual <= VECTOR_TOL),
        }
    return _rows(args.m_max, STEERING_MAX_M, row)


def cmd_choose_k(args: argparse.Namespace) -> tuple[str, int]:
    return f"{steering.choose_k(args.alpha, args.delta)}\n", 0


# The full parser and each command's own parser by name, built once per
# process: parse_args fills a fresh namespace on every call.
@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="exclab",
        description="Exclusion-game simulator and bounds toolkit.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser(
        "verify-pbr", help="verify the exclusion measurement up to m_max")
    verify.add_argument("m_max", type=int)
    verify.set_defaults(func=cmd_verify_pbr)

    bounds_cmd = commands.add_parser(
        "bounds", help="tabulate classical and quantum information bounds")
    bounds_cmd.add_argument("--n", type=int, nargs="*", required=True)
    bounds_cmd.add_argument("--m-rule", required=True,
                            help="power:C for m=floor(n**C), "
                                 "linear:A for m=floor(A*n)")
    bounds_cmd.add_argument("--format", choices=("csv", "json"), default="csv")
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
    simulate.add_argument("--transcripts", default=None,
                          help="write one JSON transcript per line here")
    simulate.set_defaults(func=cmd_simulate)

    oracle = commands.add_parser(
        "oracle", help="exhaustive minimum excluded count vs the closed form")
    oracle.add_argument("n", type=int)
    oracle.add_argument("m", type=int)
    oracle.add_argument("--threads", type=int, default=1,
                        help="checked (>= 1) but unused: the search is serial")
    oracle.set_defaults(func=cmd_oracle)

    steer = commands.add_parser(
        "steering", help="check the steering identities as residuals")
    steer.add_argument("--m-max", type=int, default=32)
    steer.set_defaults(func=cmd_steering)

    choose = commands.add_parser(
        "choose-k", help="smallest set count meeting an abort budget")
    choose.add_argument("alpha", type=float)
    choose.add_argument("delta", type=float)
    choose.set_defaults(func=cmd_choose_k)

    for command in commands.choices.values():  # main writes every report
        command.add_argument("--output", default=None)
    return parser, commands.choices


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, parsing a command's tokens once,
    with its own parser; other argv and leftovers go to the full parser."""
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        report, code = args.func(args)
        if isinstance(report, dict):
            report = _to_json({"schema_version": SCHEMA_VERSION,
                               "command": args.command, **report}) + "\n"
        if args.output is None:
            sys.stdout.write(report)
        else:
            _write(args.output, report)
        return code
    except ResourceLimitError as exc:
        print(f"exclab: resource limit: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # usage errors and unusable files
        print(f"exclab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
