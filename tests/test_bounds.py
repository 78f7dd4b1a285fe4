"""Counting bounds, entropy bounds, and the separation table."""

import math
from collections import Counter
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exclab import bounds
from exclab.bounds import (
    BOUNDS_MAX_N,
    EXACT_GAMMA_MAX_N,
    BoundsRow,
    GameParameters,
    MRule,
    _series_log2,
    bounds_row,
    gamma,
    separation_table,
)
from exclab.pbr import critical_angle
from exclab.qcore import ResourceLimitError, binary_entropy


def _row(n: int, m: int) -> BoundsRow:
    return bounds_row(GameParameters(n, m))


def test_game_parameters_validation():
    GameParameters(5, 5)
    with pytest.raises(ValueError):
        GameParameters(0, 1)
    with pytest.raises(ValueError):
        GameParameters(4, 0)
    with pytest.raises(ValueError):
        GameParameters(4, 5)


def test_gamma_small_values():
    assert gamma(3, 2) == 4
    assert gamma(10, 5) == 386
    assert gamma(6, 1) == 1
    # m = n leaves exactly one string unexcluded short of everything.
    assert gamma(6, 6) == (1 << 6) - 1
    for n in range(1, EXACT_GAMMA_MAX_N + 1):
        for m in range(1, n + 1):
            assert gamma(n, m) == sum(math.comb(n, i) for i in range(m))


def test_gamma_exact_cap():
    with pytest.raises(ResourceLimitError, match="use bounds_row"):
        gamma(EXACT_GAMMA_MAX_N + 1, 3)


def test_gamma_log2_exact_and_series_paths_agree():
    # The exact-integer and log-domain paths overlap for n <= 64.
    for n in (10, 32, 64):
        for m in (1, 2, n // 2, n):
            exact = _row(n, m).gamma_log2
            series, rest = _series_log2(n, m)
            assert series == pytest.approx(exact, rel=1e-9)
            assert rest == pytest.approx(n - exact, rel=1e-9, abs=1e-12)


def test_gamma_log2_large_n_against_exact_big_integers():
    # math.comb is exact at any size, so it oracles the log-domain path.
    for n, m in ((100, 31), (500, 120), (1000, 177)):
        exact = math.log2(sum(math.comb(n, i) for i in range(m)))
        assert _row(n, m).gamma_log2 == pytest.approx(exact, rel=1e-10)


def test_classical_ic_lower_examples():
    assert _row(3, 2).classical_ic_lower == pytest.approx(1.0, abs=1e-12)
    row = _row(20, 7)
    expected = 20 - row.gamma_log2
    assert row.classical_ic_lower == pytest.approx(expected, abs=1e-12)
    assert _row(4, 4).classical_ic_lower > 0.0


def test_quantum_entropy_eigenvalue_forms_agree():
    # H2 of either eigenvalue of the per-qubit mixture is the same quantity;
    # the sine form is the well conditioned one.
    for m in (1, 2, 8, 64, 4096):
        half = 0.5 * critical_angle(m)
        sine_form = binary_entropy(math.sin(half) ** 2)
        cosine_form = binary_entropy(math.cos(half) ** 2)
        assert sine_form == pytest.approx(cosine_form, rel=1e-6)
        assert _row(m, m).quantum_entropy_upper == pytest.approx(
            m * sine_form, rel=1e-12
        )


def test_quantum_ic_upper_doubles_entropy():
    row = _row(100, 10)
    assert row.quantum_ic_upper == pytest.approx(
        2.0 * row.quantum_entropy_upper, rel=1e-15
    )


def test_quantum_entropy_per_qubit_shrinks_with_m():
    values = [_row(m, m).quantum_entropy_upper / m for m in (1, 2, 4, 8, 16)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_gamma_log2_below_entropy_bound_on_grid():
    # log2( sum_{i<=qn} C(n,i) ) <= n*H2(q) for 0 < q <= 1/2.
    for n in (5, 17, 64, 129, 1000):
        for q in (0.05, 0.2, 1.0 / 3.0, 0.5):
            lhs = _row(n, math.floor(q * n) + 1).gamma_log2
            assert lhs <= n * binary_entropy(q) + 1e-12
    # Exact equality case: n=1, q=1/2 sums C(1,0) = 1, and H2(1/2) = 1.
    assert _row(1, 1).gamma_log2 == 0.0
    assert 1 * binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 2000).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n))))
@example((2000, 2))
@example((2000, 1000))
@example((2000, 1001))
@example((2000, 2000))
@example((65, 34))
def test_gamma_log2_matches_exact_sum(n_m):
    # Both branches of the tail sum (m - 1 <= n/2 and its complement) and the
    # exact path, against the big-integer sum.
    n, m = n_m
    exact = math.log2(sum(math.comb(n, i) for i in range(m)))
    assert math.isclose(_row(n, m).gamma_log2, exact, rel_tol=1e-13)


def test_gamma_log2_complement_does_not_overflow():
    # Summed down from C(n, m-1), the terms past n/2 would grow to inf.
    value = _row(10**5, 90000).gamma_log2
    assert math.isfinite(value)
    assert value == pytest.approx(10**5, rel=1e-15)


_PI = Decimal("3.14159265358979323846264338327950288419716939937510")


def _decimal_log_factorial(x: int) -> Decimal:
    # Stirling's series for ln x!; for x >= 10**6 the first omitted term,
    # 1/(1188 x**9), is below 1e-56.
    x = Decimal(x)
    series = sum(c / x ** (2 * k - 1) for k, c in enumerate(
        (Decimal(1) / 12, Decimal(-1) / 360, Decimal(1) / 1260,
         Decimal(-1) / 1680), start=1))
    return (x + Decimal("0.5")) * x.ln() - x + (2 * _PI).ln() / 2 + series


def _decimal_log_comb(n: int, k: int) -> Decimal:
    return (_decimal_log_factorial(n) - _decimal_log_factorial(k)
            - _decimal_log_factorial(n - k))


def test_gamma_log2_at_the_cap_against_decimal_reference():
    n = BOUNDS_MAX_N
    m = MRule.parse("power:0.75").apply(n)
    with localcontext() as ctx:
        ctx.prec = 40
        series = term = Decimal(1)
        for i in range(m - 1, 0, -1):
            term *= Decimal(i) / (n - i + 1)
            series += term
            if term < Decimal("1e-45"):
                break
        reference = ((_decimal_log_comb(n, m - 1) + series.ln())
                     / Decimal(2).ln())
    assert math.isclose(_row(n, m).gamma_log2, float(reference), rel_tol=1e-12)


def test_gamma_log2_near_half_against_closed_forms():
    # For even n, sum_{i<n/2} C(n,i) = (2**n - c 2**n)/2 with c = C(n,n/2)/2**n,
    # and sum_{i<=n/2+1} C(n,i) = (2**n + c 2**n)/2 + C(n, n/2+1).
    n = 10**10
    with localcontext() as ctx:
        ctx.prec = 40
        c = (_decimal_log_comb(n, n // 2) - n * Decimal(2).ln()).exp()
        ln2 = Decimal(2).ln()
        below = n - 1 + (1 - c).ln() / ln2
        above = n - 1 + (1 + c + 2 * c * (n // 2) / (n // 2 + 1)).ln() / ln2
    assert MRule.parse("linear:0.5").apply(n) == n // 2
    assert math.isclose(_row(n, n // 2).gamma_log2, float(below), rel_tol=1e-12)
    assert math.isclose(_row(n, n // 2 + 2).gamma_log2, float(above),
                        rel_tol=1e-12)


def test_classical_lower_bound_near_half_against_decimal_reference():
    # At n = 2k, m = k the bound is 1 - log2(1 - c) with c = C(2k, k)/4**k =
    # (pi k)**-1/2 (1 - 1/(8k) + 1/(128k**2) + 5/(1024k**3) - ...), about one
    # bit: n - gamma_log2 kept only ulp(n) of it (1.00244140625 at 10**12).
    for n in (10**5, 10**10, 10**12):
        k = MRule.parse("linear:0.5").apply(n)
        assert 2 * k == n
        with localcontext() as ctx:
            ctx.prec = 40
            k_dec = Decimal(k)
            c = (1 - 1 / (8 * k_dec) + 1 / (128 * k_dec**2)
                 + 5 / (1024 * k_dec**3)) / (_PI * k_dec).sqrt()
            reference = 1 - (1 - c).ln() / Decimal(2).ln()
        assert math.isclose(_row(n, k).classical_ic_lower, float(reference),
                            rel_tol=1e-10)


def decimal_classical_lower(n: int, m: int) -> Decimal:
    """n - log2(gamma) = -log2(1 - (2**n - gamma) / 2**n), from exact
    integers in 60-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = 60
        excluded = Decimal((1 << n) - sum(math.comb(n, i) for i in range(m)))
        return -(1 - excluded / Decimal(1 << n)).ln() / Decimal(2).ln()


def test_classical_lower_bound_on_every_exact_pair_against_decimal():
    # Near m = n the bound falls to 7.8e-20 at (64, 64), far below the
    # ulp(n) that n - log2(gamma) keeps.
    for n in range(1, EXACT_GAMMA_MAX_N + 1):
        for m in range(1, n + 1):
            lower = _row(n, m).classical_ic_lower
            assert math.isclose(lower, float(decimal_classical_lower(n, m)),
                                rel_tol=1e-13), (n, m)


def test_classical_lower_bound_paths_agree_across_the_exact_cap():
    # The exact path ends at n = 64 and the log-domain path takes n = 65;
    # both give the bound at m = n and m = n - 1, and at n = 64 both run.
    for n in (EXACT_GAMMA_MAX_N, EXACT_GAMMA_MAX_N + 1):
        for m in (n, n - 1):
            reference = float(decimal_classical_lower(n, m))
            lower = _row(n, m).classical_ic_lower
            assert math.isclose(lower, reference, rel_tol=1e-13), (n, m)
            assert math.isclose(_series_log2(n, m)[1], reference,
                                rel_tol=1e-13), (n, m)


def test_bounds_refuse_past_the_cap_before_any_row(monkeypatch):
    with pytest.raises(ResourceLimitError, match="n <= "):
        _row(BOUNDS_MAX_N + 1, 2)
    computed = []
    monkeypatch.setattr(bounds, "bounds_row", computed.append)
    for n in (BOUNDS_MAX_N + 1, 10**18, 10**400):
        with pytest.raises(ResourceLimitError):
            separation_table((100, n), MRule.parse("power:0.75"))
    assert computed == []


def test_a_float_size_is_refused_before_any_row(monkeypatch):
    # GameParameters(100.5, 10) used to give a row for n = 100.5.
    for n, m in ((100.5, 10), (100, 10.0)):
        with pytest.raises(ValueError, match="non-integer"):
            bounds_row(GameParameters(n, m))
    computed = []
    monkeypatch.setattr(bounds, "bounds_row", computed.append)
    with pytest.raises(ValueError, match="non-integer"):
        separation_table((100, 100.5), MRule.parse("power:0.75"))
    assert computed == []


def test_m_rule_parse_and_apply():
    power = MRule.parse("power:0.75")
    assert power.apply(10) == 5
    assert power.apply(10**6) == 31622
    linear = MRule.parse("linear:0.5")
    assert linear.apply(9) == 4
    assert linear.apply(2) == 1


def test_m_rule_validation():
    with pytest.raises(ValueError):
        MRule.parse("cubic:2")
    with pytest.raises(ValueError):
        MRule.parse("power")
    with pytest.raises(ValueError):
        MRule("power", 1.5)
    with pytest.raises(ValueError):
        MRule.parse("linear:0.4").apply(2)  # m = 0
    for n in (0, -8):  # refused before n meets the power: (-8)**0.75 is complex
        with pytest.raises(ValueError, match="n must be >= 1"):
            MRule.parse("power:0.75").apply(n)


def test_separation_table_rows_in_input_order():
    rows = separation_table((64, 16, 256), MRule.parse("linear:0.25"))
    assert [row.n for row in rows] == [64, 16, 256]
    assert [row.m for row in rows] == [16, 4, 64]
    for row in rows:
        assert row.classical_ic_lower == pytest.approx(
            row.n - row.gamma_log2, abs=1e-9
        )
        assert row.quantum_ic_upper == pytest.approx(
            2 * row.quantum_entropy_upper, rel=1e-12
        )


def test_separation_table_empty_input_gives_empty_table():
    assert separation_table((), MRule.parse("power:0.75")) == ()


def test_bounds_row_fields_match_csv_schema():
    row = _row(8, 2)
    record = row._asdict()
    assert list(record) == [
        "n", "m", "gamma_log2", "classical_ic_lower",
        "quantum_entropy_upper", "quantum_ic_upper",
    ]
    assert record["n"] == 8
    assert record["m"] == 2
    assert record["gamma_log2"] == pytest.approx(math.log2(9), abs=1e-12)
    assert isinstance(row, BoundsRow)


def test_game_parameters_has_one_home_in_pbr():
    from exclab import pbr
    assert GameParameters is pbr.GameParameters


def test_bounds_row_evaluates_gamma_and_the_entropy_once(monkeypatch):
    # gamma or _series_log2 once per row; the per-qubit entropy once per row
    # from bounds_row, and once per distinct m in a table, whose rows of that
    # m share it.
    calls = Counter()
    for name in ("gamma", "_series_log2", "binary_entropy"):
        def counted(*args, _name=name, _original=getattr(bounds, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(bounds, name, counted)
    exact = bounds_row(GameParameters(EXACT_GAMMA_MAX_N, 22))
    assert calls == {"gamma": 1, "binary_entropy": 1}
    calls.clear()
    series = bounds_row(GameParameters(EXACT_GAMMA_MAX_N + 1, 22))
    assert calls == {"_series_log2": 1, "binary_entropy": 1}
    calls.clear()
    rows = separation_table([*range(60, 71), 64, 10**6],
                            MRule.parse("power:0.75"))
    assert calls == {"gamma": 6, "_series_log2": 7,
                     "binary_entropy": len({row.m for row in rows})}
    assert len({row.m for row in rows}) == 5 < len(rows)
    for row in (exact, series):
        assert row.quantum_ic_upper == 2.0 * row.quantum_entropy_upper
        exact_sum = sum(math.comb(row.n, i) for i in range(row.m))
        assert math.isclose(row.gamma_log2, math.log2(exact_sum), rel_tol=1e-13)


def test_a_bounds_table_checks_each_game_size_once(monkeypatch):
    # rule.apply is each row's one check of (n, m), exact (n <= 64) and
    # log-domain alike: no row builds a GameParameters to check it again.
    checks, applied = [], []
    original_check, original_apply = GameParameters.__post_init__, MRule.apply

    def counting_check(self):
        checks.append((self.n, self.m))
        original_check(self)

    def counting_apply(self, n):
        applied.append(n)
        return original_apply(self, n)

    monkeypatch.setattr(GameParameters, "__post_init__", counting_check)
    monkeypatch.setattr(MRule, "apply", counting_apply)
    rule = MRule.parse("power:0.75")
    n_values = [*range(8, 68), 100, 10**6]
    rows = separation_table(n_values, rule)
    assert len(rows) == 62
    assert applied == [row.n for row in rows] == n_values
    assert checks == []
    # The public entry points keep their own checks.
    assert gamma(8, 3) == 37 and checks == []
    for n, m in ((4, 5), (0, 0), (3, 0)):
        with pytest.raises(ValueError):
            gamma(n, m)
    with pytest.raises(ValueError, match="n must be >= 1"):
        rule.apply(0)


def test_separation_table_takes_a_one_shot_iterable(monkeypatch):
    rule = MRule.parse("power:0.75")
    table = separation_table((n for n in (8, 9, 100)), rule)
    assert len(table) == 3
    assert table == separation_table([8, 9, 100], rule)
    computed = []
    monkeypatch.setattr(bounds, "bounds_row", computed.append)
    with pytest.raises(ResourceLimitError):
        separation_table((n for n in (100, BOUNDS_MAX_N + 1)), rule)
    assert computed == []


@pytest.mark.parametrize("rule, n_values", [
    ("power:0.75", range(1, 201)),
    # linear:0.9 takes the 2*gamma > 2**n branch on most exact rows and the
    # series complement on the three log-domain ones.
    ("linear:0.9", [*range(2, 65), 65, 100, 10**6]),
], ids=["power:0.75", "linear:0.9"])
def test_table_rows_equal_bounds_row_of_each_size(rule, n_values):
    # A table shares each m's per-qubit entropy; a lone row computes its own.
    rows = separation_table(n_values, MRule.parse(rule))
    assert [row.n for row in rows] == list(n_values)
    for row in rows:
        assert row == bounds_row(GameParameters(row.n, row.m))
        entropy = row.n * binary_entropy(math.sin(0.5 * critical_angle(row.m)) ** 2)
        assert row.quantum_entropy_upper == entropy
        assert row.quantum_ic_upper == 2.0 * entropy
