import json

import mpmath
import pytest

from lawsonarea import omega
from lawsonarea.precision import PrecisionConfig
from lawsonarea.verify import (SUITE_NAMES, alpha3_factored_pieces, alpha3_raw,
                               alpha3_simplified, alpha3_suite, alpha5_classical_value,
                               closed_form_suite, conjecture_suite, integral_identity_suite,
                               parity_shuffle_stuffle_suite, reports_to_json,
                               run_suites)

CFG = PrecisionConfig(40)
CTX = CFG.context


def test_closed_form_suite(table40_pi4_L4):
    report = closed_form_suite(CFG, table=table40_pi4_L4)
    assert report.passed
    assert len(report.checks) == 9
    ids = [c.check_id for c in report.checks]
    assert ids == sorted(ids)


def test_alpha3_suite(table40_pi4_L4):
    report = alpha3_suite(CFG, table=table40_pi4_L4)
    assert report.passed
    assert len(report.checks) == 3
    assert report.counts == (3, 3)


def test_alpha3_factorizations(table40_pi4_L4):
    pieces = alpha3_factored_pieces(table40_pi4_L4)
    assert abs(pieces["A_raw"] - pieces["A_reduced"]) < CFG.eps(6)
    assert abs(pieces["B_raw"] - pieces["B_reduced"]) < CFG.eps(6)
    assert abs(pieces["C_raw"] - pieces["C_reduced"]) < CFG.eps(6)
    target = CTX.mpf(9) / 4 * CTX.zeta(3)
    assert abs(alpha3_raw(table40_pi4_L4) - target) < CFG.eps(6)
    assert abs(alpha3_simplified(table40_pi4_L4) - target) < CFG.eps(6)


def test_parity_suite_passes_and_is_deterministic(table40_pi4_L4):
    rep1 = parity_shuffle_stuffle_suite(CFG, seed=0, table=table40_pi4_L4)
    rep2 = parity_shuffle_stuffle_suite(CFG, seed=0, table=table40_pi4_L4)
    assert rep1.passed
    assert reports_to_json([rep1]) == reports_to_json([rep2])
    rep3 = parity_shuffle_stuffle_suite(CFG, seed=12, table=table40_pi4_L4)
    assert rep3.passed  # different samples, same verdict


def test_integral_identity_suite():
    report = integral_identity_suite(CFG)
    assert report.passed
    assert len(report.checks) == 6


def test_conjecture_suite_is_stretch(state40_o6):
    report = conjecture_suite(CFG, state=state40_o6)
    assert all(c.stretch for c in report.checks)
    assert [c.check_id for c in report.checks] == ["1-alpha5-vs-mzv",
                                                   "3-alpha5-vs-classical-polylogs"]
    assert all(c.passed for c in report.checks)
    assert report.passed    # stretch rows never block the suite verdict


def test_alpha5_classical_polylog_value():
    """alpha_5 through Li_5(1/2) and Li_4(1/2) log 2, against the paper's 51 digits."""
    paper = CTX.mpf("3.69962699449761843989338013547104461773632954830910")
    assert abs(alpha5_classical_value(CFG) - paper) < CFG.eps(2)


def test_report_json_schema(table40_pi4_L4):
    report = closed_form_suite(CFG, table=table40_pi4_L4)
    payload = json.loads(reports_to_json([report]))
    assert payload[0]["suite"] == "closed-forms"
    assert payload[0]["passed"] is True
    row = payload[0]["checks"][0]
    assert set(row) == {"id", "expected", "computed", "residual", "passed", "stretch"}
    # expected/computed are full-precision decimal strings
    assert len(row["expected"].split(".")[-1].rstrip(")j ")) >= 20


def test_report_render(table40_pi4_L4):
    text = closed_form_suite(CFG, table=table40_pi4_L4).render()
    assert "9/9 pass" in text
    assert "PASS" in text and "FAIL" not in text


def test_run_suites_dispatch(monkeypatch):
    """The suites run in the order named.  The closed-form, alpha_3 and
    parity suites share one depth-4 word table, and a run without them
    builds none."""
    calls = []
    build = omega.build_table
    monkeypatch.setattr(omega, "build_table",
                        lambda *args: calls.append(args[:3]) or build(*args))
    names = ["closed-forms", "alpha3", "parity"]
    reports = run_suites(names, CFG)
    assert [r.suite for r in reports] == names and all(r.passed for r in reports)
    assert calls == [("1", "pi/4", 4)]
    calls.clear()
    report, = run_suites(["integral-identities"], CFG)
    assert report.passed and len(report.checks) == 6
    assert ("1", "pi/4", 4) not in calls
    with pytest.raises(ValueError):
        run_suites(["bogus"], CFG)
    assert set(SUITE_NAMES) == {"closed-forms", "alpha3", "parity", "conjectures",
                                "integral-identities"}


def test_failure_is_reported(table40_pi4_L4):
    report = closed_form_suite(CFG, table=table40_pi4_L4)
    report.add("99-intentional", CTX.mpf(1), CTX.mpf(2), CFG, CTX.mpf("1e-30"))
    report.finalize()
    assert not report.passed
    assert "FAIL" in report.render()
    assert abs(report.checks[-1].residual - 1) < 1e-10


def test_tolerance_formula(tables, cfg45):
    report = closed_form_suite(cfg45, table=tables.get("1", "pi/4", 4, cfg45))
    assert mpmath.mpf(report.tolerance) == mpmath.mpf(10) ** (-39)
