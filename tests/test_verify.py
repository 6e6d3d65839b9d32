"""Tests for the verification suites: report shape, pass status on the
shipped data, witness emission on injected corruption, and the erratum
diagnostics for the published full-group forms."""
from __future__ import annotations

import json
from dataclasses import replace

import pytest

import horogrowth.verify as verify
from horogrowth.errors import BudgetError
from horogrowth.series import ONE, poly, poly_str, rf_normalize
from horogrowth.verify import SUITES, run_suite


@pytest.mark.parametrize("suite", SUITES)
def test_suite_passes_and_serializes(suite):
    report = run_suite(suite)
    assert report["suite"] == suite
    assert report["pass"] is True
    assert report["checks"]
    assert all(c["pass"] for c in report["checks"])
    json.dumps(report)


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_appendix_restricted_to_one_rank():
    report = verify.verify_appendix(m=7)
    assert report["pass"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "rank 7: subgroup series rational form",
        "rank 7: subgroup series row",
    ]


@pytest.mark.parametrize("m", [0, 11, 20])
def test_appendix_rejects_ranks_outside_the_tables(m):
    with pytest.raises(ValueError, match="ranks 1 to 10"):
        verify.verify_appendix(m)


def test_appendix_witness_on_corruption(monkeypatch):
    good = verify.subgroup_series

    def tampered(m):
        f = good(m)
        return rf_normalize(f.num + poly(0, 1), f.den)

    monkeypatch.setattr(verify, "subgroup_series", tampered)
    report = verify.verify_appendix(m=1)
    assert report["pass"] is False
    failed = [c for c in report["checks"] if not c["pass"]]
    assert failed
    series_fail = next(c for c in failed if "row" in c["name"])
    assert series_fail["witness"]["index"] == 1


def test_appendix_checks_the_whole_cap_polynomial(monkeypatch):
    # a term above the table's degree must fail the row, not be cut off
    good = verify.cap_poly
    monkeypatch.setattr(verify, "cap_poly", lambda k: good(k) + ONE.shift(40))
    report = verify.verify_appendix(m=2)
    check = next(c for c in report["checks"] if c["name"] == "rank 2: cap polynomial row")
    assert check["pass"] is False
    assert check["witness"]["computed_length"] == 41
    assert report["pass"] is False


def test_bfs_erratum_diagnostics():
    report = verify.verify_bfs(m=1, radius=4)
    assert report["pass"] is True
    (diag,) = report["erratum"]
    assert diag["erratum"] is True
    assert diag["first_mismatch"] == 1
    assert diag["published_prefix"][1] == 2
    assert diag["enumerated_prefix"][1] == 4


def test_bfs_erratum_rank_two():
    report = verify.verify_bfs(m=2, radius=3)
    (diag,) = report["erratum"]
    assert diag["published_prefix"][1] == 7
    assert diag["enumerated_prefix"][1] == 6


def test_census_checks_full_series_against_its_product_form(monkeypatch):
    name = "rank 1: assembled full series equals its product form"
    report = verify.verify_census(m=1)
    assert next(c for c in report["checks"] if c["name"] == name)["pass"] is True

    good = verify.full_series

    def tampered(m):
        f = good(m)
        return rf_normalize(f.num + poly(0, 1), f.den)

    monkeypatch.setattr(verify, "full_series", tampered)
    report = verify.verify_census(m=1)
    check = next(c for c in report["checks"] if c["name"] == name)
    assert check["pass"] is False
    assert set(check["witness"]) == {"computed", "expected"}


def test_census_reports_a_failed_level_series_fit(monkeypatch):
    good = verify.level_series

    def unfitted(m):
        ls = good(m)
        return replace(ls, X_0=rf_normalize(ls.X_0.num + poly(0, 0, 0, 0, 0, 1), ls.X_0.den))

    monkeypatch.setattr(verify, "level_series", unfitted)
    report = verify.verify_census(m=1)
    assert report["pass"] is False
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed == ["rank 1: level series certified through x^16"]
    fit = next(c for c in report["checks"] if c["name"] == failed[0])
    # X_0 at rank 1 starts 1, 1, 3, 7, 13, 29
    assert fit["witness"] == {"level": 0, "power": 5, "closed_form": 30, "stem_table": 29}
    assert fit["data"]["certified_to"] == 16
    # the full series no longer reads a certified level series, so its check still runs
    assert any("product form" in c["name"] for c in report["checks"])


def test_census_reports_fitted_numerators():
    report = verify.verify_census(m=1)
    fit = next(c for c in report["checks"] if "certified" in c["name"])
    assert fit["pass"] is True
    assert fit["data"]["p_hat"] == poly_str(poly(0, 1, 0, -1))
    assert fit["data"]["q_hat"] == poly_str(poly(1, 0, -1))
    assert fit["data"]["certified_to"] >= 2 * (1 + 4) + 6


def test_language_fetches_its_ball_before_spelling(monkeypatch):
    def no_spelling(*args):
        raise AssertionError("spelled before the ball was fetched")

    monkeypatch.setenv("HOROGROWTH_BUDGET_MB", "1")
    monkeypatch.setattr(verify, "spell", no_spelling)
    with pytest.raises(BudgetError):
        verify.verify_language(2)


def test_language_rejects_large_rank():
    with pytest.raises(ValueError):
        verify.verify_language(3)


def test_golden_data_notes_present():
    data = verify._golden()
    assert len(data["notes"]) == 2
    assert len(data["subgroup"]) == 10
