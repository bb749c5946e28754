import pytest

from scan_oracle import mean_fit, summarize
from superposer.analysis import (
    Case,
    classify,
    cnot_count,
    resource_report,
    scan,
    scan_rows,
)
from superposer.ir import entangler_count
from superposer.lowering import lower
from superposer.synthesis import plan, synthesize


def test_cnot_count_examples():
    assert cnot_count(31) == 7
    assert cnot_count(16) == 0
    assert cnot_count(17) == 4
    assert cnot_count(29) == 6
    assert cnot_count(30) == 5
    assert cnot_count(7) == 3
    assert cnot_count(1) == 0
    assert cnot_count(2) == 0


def test_cnot_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        cnot_count(0)


def test_cnot_count_closed_form_identities():
    for n in range(2, 21):
        assert cnot_count(1 << n) == 0
        assert cnot_count((1 << n) - 1) == 2 * n - 3
        assert cnot_count((1 << (n - 1)) + 1) == n - 1


def test_cnot_count_matches_lowered_circuits():
    for N in range(2, 513):
        lowered, _ = lower(synthesize(N))
        assert cnot_count(N) == entangler_count(lowered)


def test_classify_examples():
    assert classify(16) is Case.I
    assert classify(17) is Case.II
    assert classify(31) is Case.III
    assert classify(29) is Case.IV
    assert classify(30) is Case.V


def test_classify_small_table():
    families = {
        Case.I: (2, 4, 8, 16),
        Case.II: (3, 5, 9, 17),
        Case.III: (7, 15, 31),
        Case.IV: (11, 13, 19, 21, 23, 25, 27, 29),
        Case.V: (6, 10, 12, 14, 18, 20, 22, 24, 26, 28, 30),
    }
    for case, members in families.items():
        for N in members:
            assert classify(N) is case, N


def test_classify_rejects_trivial_n():
    with pytest.raises(ValueError):
        classify(1)


def test_case_bounds_hold_exhaustively_to_n14():
    for row in scan_rows(14):
        if row.case is Case.I:
            assert row.cnot == 0
        elif row.case is Case.II:
            assert row.cnot == row.n - 1
        elif row.case is Case.III:
            assert row.cnot == 2 * row.n - 3
        elif row.case is Case.IV:
            assert row.cnot <= 2 * row.n - 4
        else:
            assert row.cnot <= 2 * row.n - 5


def test_scan_row_population():
    rows = list(scan_rows(4))
    assert [r.N for r in rows if r.n == 2] == [3, 4]
    assert [r.N for r in rows if r.n == 3] == [5, 6, 7, 8]
    assert len([r for r in rows if r.n == 4]) == 8


def test_scan_summary_for_n3():
    stats = scan(3)
    summary = stats.for_n(3)
    assert summary.max_count == 3
    assert summary.mean_count == 1.5
    assert summary.histogram == {0: 1, 1: 1, 2: 1, 3: 1}


def test_scan_summary_for_n2_and_n5():
    stats = scan(5)
    assert stats.for_n(2).histogram == {0: 1, 1: 1}
    assert stats.for_n(5).max_count == 7


def test_scan_rejects_out_of_range_width():
    with pytest.raises(ValueError):
        list(scan_rows(1))
    with pytest.raises(ValueError):
        list(scan_rows(21))
    for n_max in (1, 21):
        with pytest.raises(ValueError, match="n_max"):
            scan(n_max)


def test_scan_equals_summarized_rows():
    for n in range(2, 17):
        assert scan(n) == summarize(scan_rows(n))


def test_summarize_groups_by_width():
    stats = summarize(scan_rows(6))
    assert [s.n for s in stats.per_n] == [2, 3, 4, 5, 6]
    with pytest.raises(KeyError):
        stats.for_n(9)


def test_max_law_through_n12():
    stats = scan(12)
    for n in range(2, 13):
        summary = stats.for_n(n)
        assert summary.max_count == 2 * n - 3
        assert cnot_count((1 << n) - 1) == 2 * n - 3


def test_mean_fit_is_roughly_linear():
    slope, intercept = mean_fit(scan(12))
    assert 1.3 < slope < 1.6
    assert -4.0 < intercept < -2.0


def test_mean_fit_needs_two_points():
    with pytest.raises(ValueError):
        mean_fit(scan(3), n_min=3)


def test_resource_report():
    report = resource_report(29)
    assert (report.N, report.n, report.g, report.m) == (29, 5, 4, 5)
    assert report.cnot_count == 6
    assert report.case is Case.IV
    assert report.depth >= 1


def test_scan_rows_match_plan_and_lowered_circuits():
    for row in scan_rows(10):
        pl = plan(row.N)
        assert (row.n, row.xi, row.M, row.g, row.m) == (pl.n, pl.xi, pl.M, pl.g, pl.m)
        assert row.cnot == entangler_count(lower(synthesize(row.N))[0])
