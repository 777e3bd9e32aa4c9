"""Verification bundles: exact checks, deterministic reports."""

import json
from fractions import Fraction

import pytest

from schreier_lab.budget import Budget, BudgetExceededError
from schreier_lab.ordinal import parse
from schreier_lab.reports import Check, Report
from schreier_lab.spaces import NormSpec
from schreier_lab.verify import (_sum_functionals, verify_example_schreier,
                                 verify_example_star, verify_prop_formula)


@pytest.mark.parametrize("xi_text", ["0", "1"])
def test_schreier_bundle_passes(xi_text):
    report = verify_example_schreier(parse(xi_text), 12)
    assert report.ok and report.exit_code == 0
    names = [c.name for c in report.checks]
    assert names == ["spreading-constant-is-one", "basis-large-below-one",
                     "dual-certificates-hold"]
    assert report.results["sm"]["value"] == "1"
    assert report.results["large"]["ok"] is True


def test_sum_functionals_count_the_family_first():
    # 338,300 members: refused on the count, before any functional exists,
    # with the enumeration meter's own text.
    order = parse("2")
    with pytest.raises(BudgetExceededError) as info:
        _sum_functionals(order, NormSpec.schreier(order), 20,
                         budget=Budget(work=2000))
    assert str(info.value).endswith(
        "family enumeration: limit 2000 (needs >= 2001)")
    # Counting 31 members of order 0 takes about 60 steps; when the count
    # is refused, the metered enumeration decides alone.
    order = parse("0")
    functionals = _sum_functionals(order, NormSpec.schreier(order), 30,
                                   budget=Budget(work=40))
    assert len(functionals) == 30


@pytest.mark.parametrize("xi_text", ["0", "1"])
def test_star_bundle_passes(xi_text):
    report = verify_example_star(parse(xi_text), 12)
    assert report.ok
    assert report.results["sm"]["value"] == "1/2"
    assert report.results["sm"]["witness"] == "2,3;1,-1"
    routes = report.results["mean_distance_routes"]
    assert routes["exact"] + routes["l1-certificate"] == 12 * 11 // 2
    assert routes["exact"] > 0


def test_schreier_bundle_fails_above_one():
    report = verify_example_schreier(parse("1"), 8,
                                     c_override=Fraction(11, 10))
    assert not report.ok and report.exit_code == 1
    failed = {c.name for c in report.checks if not c.ok}
    assert failed == {"basis-large-below-one"}
    assert report.results["large"]["certificate"] == "1"


def test_prop_bundle_passes():
    report = verify_prop_formula(40, Fraction(1, 2))
    assert report.ok
    assert report.results["final"]["l"] == 40
    assert report.results["table"][0]["l"] == 1
    assert report.results["table"][-1]["l"] == 40


def test_prop_bundle_validation():
    with pytest.raises(ValueError):
        verify_prop_formula(0, Fraction(1, 2))
    with pytest.raises(ValueError):
        verify_prop_formula(10, Fraction(0))
    with pytest.raises(ValueError):
        verify_prop_formula(10, Fraction(-1, 2))


def test_reports_are_byte_identical_across_runs():
    for make in (lambda: verify_example_schreier(parse("0"), 10),
                 lambda: verify_example_star(parse("0"), 10),
                 lambda: verify_prop_formula(25, Fraction(1, 2))):
        first, second = make(), make()
        assert first.json_bytes() == second.json_bytes()


def test_json_rendering_excludes_wall_time():
    report = verify_prop_formula(5, Fraction(1, 2))
    assert report.wall_seconds is not None and report.wall_seconds > 0
    payload = json.loads(report.json_bytes().decode())
    assert "wall" not in json.dumps(payload)
    assert payload["schema_version"] == 1
    assert payload["command"] == "verify prop-formula --l-max 5 --c 1/2"


def test_text_rendering():
    report = Report("demo", {"N": 3})
    report.check("works", True, "fine")
    report.check("breaks", False)
    text = report.render_text()
    assert text.endswith("\n")
    assert "PASS works: fine" in text
    assert "FAIL breaks" in text
    assert "SOME CHECKS FAILED" in text
    assert report.checks[0] == Check("works", True, "fine")


def test_empty_report_is_vacuously_ok():
    report = Report("empty")
    assert report.ok and report.exit_code == 0
    assert "all checks passed" in report.render_text()
