"""Verification bundles: exact checks, deterministic reports."""

import hashlib
import json
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreier_lab import quantities, schreier, spaces, verify
from schreier_lab.budget import Budget, BudgetExceededError
from schreier_lab.ordinal import parse
from schreier_lab.reports import Check, Report
from schreier_lab.cli.quantity import _sum_members
from schreier_lab.quantities import prop_formula
from schreier_lab.spaces import NormSpec, _norm_total
from schreier_lab.vectors import CanonicalBasis, ExplicitSequence, RatVec
from schreier_lab.verify import (_dual_certificate_trials,
                                 verify_example_schreier, verify_example_star,
                                 verify_prop_formula)


@pytest.mark.parametrize("xi_text", ["0", "1"])
def test_schreier_bundle_passes(xi_text):
    report = verify_example_schreier(parse(xi_text), 12)
    assert report.ok and report.exit_code == 0
    names = [c.name for c in report.checks]
    assert names == ["spreading-constant-is-one", "basis-large-below-one",
                     "dual-certificates-hold"]
    assert report.results["sm"]["value"] == "1"
    assert report.results["large"]["ok"] is True


def test_sum_functionals_count_the_family_first(monkeypatch):
    # 338,300 members: refused on the count, before any member is walked,
    # with the enumeration meter's own text.
    def sum_members(order, N):
        args = SimpleNamespace(space="schreier", gamma_xi=None, N=N)
        return _sum_members(args, NormSpec.schreier(parse(order)))

    monkeypatch.setenv("SCHREIER_LAB_BUDGET", "2000")
    with pytest.raises(BudgetExceededError) as info:
        sum_members("2", 20)
    assert str(info.value).endswith(
        "family enumeration: limit 2000 (needs >= 2001)")
    # The count charges only the states that take a value, never more
    # than the 30 nonempty members of order 0, so it fits in 40.
    monkeypatch.setenv("SCHREIER_LAB_BUDGET", "40")
    assert len(sum_members("0", 30)) == 30


@pytest.mark.parametrize("bundle", [verify_example_schreier, verify_example_star])
def test_bundles_count_and_walk_their_family_once(monkeypatch, bundle):
    calls = {"count": 0, "walk": 0}
    count_family, enumerate_family = schreier.count_family, schreier.enumerate_family

    def counting(*args, **kwargs):
        calls["count"] += 1
        return count_family(*args, **kwargs)

    def walking(*args, **kwargs):
        calls["walk"] += 1
        return enumerate_family(*args, **kwargs)

    monkeypatch.setattr(schreier, "count_family", counting)
    for module in (schreier, quantities):
        monkeypatch.setattr(module, "enumerate_family", walking)
    assert bundle(parse("1"), 10).ok
    assert calls == {"count": 1, "walk": 1}


@pytest.mark.parametrize("bundle", [verify_example_schreier, verify_example_star])
def test_bundles_build_no_functional_and_scale_their_basis_once(monkeypatch,
                                                                bundle):
    # The largeness hit sets come from the members on the bundle's own
    # scaling: no Functional, no f_delta, and one _scaled_horizon.  Every
    # nonempty member is its own hit set, so the scan builds no index.
    calls = {"Functional": 0, "f_delta": 0, "_scaled_horizon": 0, "index": 0}
    init, f_delta = spaces.Functional.__init__, quantities.f_delta
    scaled_horizon = quantities._scaled_horizon

    class Indexing(quantities._HitMasks):
        def __init__(self, *args):
            calls["index"] += 1
            super().__init__(*args)

    def constructing(self, *args, **kwargs):
        calls["Functional"] += 1
        init(self, *args, **kwargs)

    def thresholding(*args, **kwargs):
        calls["f_delta"] += 1
        return f_delta(*args, **kwargs)

    def scaling(*args, **kwargs):
        calls["_scaled_horizon"] += 1
        return scaled_horizon(*args, **kwargs)

    monkeypatch.setattr(spaces.Functional, "__init__", constructing)
    monkeypatch.setattr(quantities, "f_delta", thresholding)
    monkeypatch.setattr(quantities, "_HitMasks", Indexing)
    for module in (verify, quantities):
        monkeypatch.setattr(module, "_scaled_horizon", scaling)
    assert bundle(parse("1"), 10).ok
    assert calls == {"Functional": 0, "f_delta": 0, "_scaled_horizon": 1,
                     "index": 0}


@pytest.mark.parametrize("refused", [
    lambda: verify_example_schreier(parse("w"), 14, budget=Budget(work=300)),
    lambda: quantities.sm_constant(
        parse("w+1"), CanonicalBasis(NormSpec.schreier(parse("1"))), 3000,
        budget=Budget(work=2000)),
], ids=["example-schreier", "sm_constant"])
def test_a_refused_count_walks_no_member(monkeypatch, refused):
    calls = {"refused count": 0, "walk": 0}
    count_family, enumerate_family = schreier.count_family, schreier.enumerate_family

    def counting(*args, **kwargs):
        try:
            return count_family(*args, **kwargs)
        except BudgetExceededError:
            calls["refused count"] += 1
            raise

    def walking(*args, **kwargs):
        calls["walk"] += 1
        return enumerate_family(*args, **kwargs)

    monkeypatch.setattr(schreier, "count_family", counting)
    for module in (schreier, quantities):
        monkeypatch.setattr(module, "enumerate_family", walking)
    with pytest.raises(BudgetExceededError) as info:
        refused()
    assert info.value.what == "family enumeration"
    assert calls == {"refused count": 1, "walk": 0}


@pytest.mark.parametrize("bundle, xi_text, digest", [
    (verify_example_schreier, "w",
     "b4a2ba51e47e851dae91eefd0a8196752c93c48bc7abe278dd6e7e830e5c6349"),
    (verify_example_star, "1",
     "06b844131c06ced3a466db385a1c95628e6c36b1e6f87e2bb68bbba981fc304e"),
])
def test_bundle_report_bytes_are_pinned(bundle, xi_text, digest):
    # Recorded from the bundles when each check still walked the family
    # on its own and compared the spreading ratios as fractions.
    report = bundle(parse(xi_text), 10)
    assert hashlib.sha256(report.json_bytes()).hexdigest() == digest


BUNDLES = {"schreier": verify_example_schreier, "star": verify_example_star}


@pytest.mark.parametrize("bundle, xi_text, N, digest", [
    ("schreier", "0", 6, "d43f68ee17a8bf0d2ed4224f56c731c6b89b01cac300aa2e676a1f48da3d2b00"),
    ("schreier", "0", 12, "a420907ae93fdbc59cc6fdd0f704f5dc4848e6e0574a1d4e6cae6564a9840a84"),
    ("schreier", "0", 20, "c5e60ca2a1c434a92d20280e1a6e51c8ddd2fc731a56eada52cc4261228dba0b"),
    ("schreier", "1", 6, "271176a8ebf545d51886975a344d977c2447b87acbf3b87a57d7efcf4af7489c"),
    ("schreier", "1", 10, "a70eeaf2878a0326323dd322a44c6826a4826a3207f843dbd728ebb27e30a6b3"),
    ("schreier", "1", 14, "2b382ddcf86595d4574d202f3eeb6d04c11ea4f5daba1696f181b21048d0709d"),
    ("schreier", "1", 16, "7413d21f7d9bde793aa2ba21784b26d234698bb3cf7d818a56635bb6f3211dbe"),
    ("schreier", "w", 6, "3ac7d57c0a1659b49d67658912bb2a2a6fa8bf6d3ac3acaca0bbd949dd621f08"),
    ("schreier", "w", 10, "b4a2ba51e47e851dae91eefd0a8196752c93c48bc7abe278dd6e7e830e5c6349"),
    ("schreier", "w", 14, "ce90a6b1e0bbefccb551e385afb2ec2ccb133f352747a55dba357b8b4533dc7e"),
    ("schreier", "w+1", 6, "d514ec060148f65ca68758482e9307f6d193120b5452029b5a49022360bb5740"),
    ("schreier", "w+1", 10, "470bd523089a6e73cc359aabb16a7bae2fea56cea7538879335c29632353800e"),
    ("schreier", "w+1", 14, "02e345199e115c44f535718dec2ed918af09572cfafa940c0fcf6a128e8f04b6"),
    ("schreier", "w^2", 6, "900b716a264c90c40fce9baea6c91ae169a90194d645de24c419ca1b7b1d356d"),
    ("schreier", "w^2", 10, "fc0a38f116de08a18a1c52b6f77cb27888eb9dadf4b9f3a820228235c6540f0b"),
    ("schreier", "w^2", 14, "72671c3887ad70191d0922def6dba9f631c7355325b8065acba93ef3dc656df2"),
    ("star", "0", 6, "af227ea7b4d9ac769e90b72172d427527e990272a8d065420171df6c3fbdaba4"),
    ("star", "0", 12, "acbfae3b3d2a9362307702af6292a79002c2a5caea660865e17a920b94afbd06"),
    ("star", "0", 20, "6689ffbe779cc648210eb42abc6d19cef865db20941e46e5e86077f7672f8525"),
    ("star", "1", 6, "3040d1190eb682a463c35778b2ca22a27ba83461ec152f267abec27b71655449"),
    ("star", "1", 10, "06b844131c06ced3a466db385a1c95628e6c36b1e6f87e2bb68bbba981fc304e"),
    ("star", "1", 14, "e163ac235ba150e723c9fca72600b7795413bd9b7cb36a78d46172b19af17f32"),
    ("star", "1", 16, "bf8a5e51b41707583224f0cb864f49e7822eaba61fcf48de1f312cf2b408226a"),
    ("star", "w", 6, "cf39a08d6ebf671d349cc934da81da455f1b2aedfca1302b568ff72f84f8e4dd"),
    ("star", "w", 10, "5c9bc77570e944117cc94d2d82928a21fd1fa713b6ea6e8864c1592244a88164"),
    ("star", "w", 14, "20a024101ecc0ae3f87cb6f649686c989519ee035f91c9af200947f2b3b9a5b3"),
    ("star", "w+1", 6, "f598d9703eb5f23691e4dcb5e262dadc28915d5a9f6fdcdcda3ccbfbfc5f610e"),
    ("star", "w+1", 10, "c8af6313c30d390eb95df3240547deaf4af59e4b42404cdebff69912a4cf6a80"),
    ("star", "w+1", 14, "0deaf5e37bf8d4fab84d09532909e5c9602738b8004f1da6f80692f678086aa8"),
    ("star", "w^2", 6, "4a63caceeadab83b1feabeaf992922b73731c406536307b344597e12519bac9f"),
    ("star", "w^2", 10, "467c9c8ba58656b5bf0f19244b8d128e7adc276254dbb7ae43154bb3f0568028"),
    ("star", "w^2", 14, "58a6382a33a03bfdee67bd4c84c07b15850814c96a6ab35efd36779294a67538"),
])
def test_bundle_report_bytes_are_pinned_on_a_grid(bundle, xi_text, N, digest):
    # Recorded from the bundles when the sign-pattern scan brought each
    # member's rows to a denominator of their own.  The largest N of each
    # order takes up to about a second.
    report = BUNDLES[bundle](parse(xi_text), N)
    assert hashlib.sha256(report.json_bytes()).hexdigest() == digest


def _members(order, N):
    return list(schreier.enumerate_family(order, N))


def test_dual_certificates_take_one_norm_per_sample(monkeypatch):
    order = parse("2")
    spec = NormSpec.schreier(order)
    calls = []

    def counted(*args):
        calls.append(args[1])
        return _norm_total(*args)

    monkeypatch.setattr(verify, "_norm_total", counted)
    ok, detail = _dual_certificate_trials(spec, _members(order, 12), 12,
                                          budget=Budget())
    assert ok and detail.startswith("30 certified evaluations")
    assert len(calls) == 30


def test_dual_certificates_fail_on_a_violation(monkeypatch):
    order = parse("1")
    spec = NormSpec.schreier(order)
    # A norm that reads half the true total must be caught on some sample.
    monkeypatch.setattr(verify, "_norm_total",
                        lambda spec, support, values, budget: (
                            Fraction(_norm_total(spec, support, values,
                                                 budget)[0], 2), None))
    ok, detail = _dual_certificate_trials(spec, _members(order, 8), 8,
                                          budget=Budget())
    assert not ok and detail.startswith("|")


def test_star_bundle_fails_a_mean_distance_past_one(monkeypatch):
    # A total of 18 over L = lcm(1..4) = 12 reads every distance of running
    # means at 3/2, past one.
    monkeypatch.setattr(verify, "_norm_total",
                        lambda spec, support, values, budget: (18, None))
    report = verify_example_star(parse("1"), 4)
    check = next(c for c in report.checks
                 if c.name == "mean-distances-capped-at-one")
    assert check == Check("mean-distances-capped-at-one", False,
                          "max distance 0 (6 exact, 0 certified)")


def test_dual_certificates_pass_norm_refusals_on():
    order = parse("2")
    with pytest.raises(BudgetExceededError):
        _dual_certificate_trials(NormSpec.schreier(order), _members(order, 12),
                                 12, budget=Budget(work=1))


@pytest.mark.parametrize("xi_text", ["0", "1"])
def test_star_bundle_passes(xi_text):
    report = verify_example_star(parse(xi_text), 12)
    assert report.ok
    assert report.results["sm"]["value"] == "1/2"
    assert report.results["sm"]["witness"] == "2,3;1,-1"
    routes = report.results["mean_distance_routes"]
    assert routes["exact"] + routes["l1-certificate"] == 12 * 11 // 2
    assert routes["exact"] > 0


@pytest.mark.parametrize("xi_text", ["0", "1"])
def test_star_bundle_certifies_distances_whose_norm_is_refused(monkeypatch,
                                                               xi_text):
    # The distance of the means k < l has support {1..l}; refuse every norm
    # past 8 points, so the pairs with l > 8 take the l1 route.  There each
    # sign part has mass 1 - k/l, the largest 11/12 at (1, 12).
    def capped(spec, support, values, budget, memo=None):
        if len(support) > 8:
            raise BudgetExceededError("norm support", 8, needed=len(support))
        return _norm_total(spec, support, values, budget, memo)

    monkeypatch.setattr(verify, "_norm_total", capped)
    report = verify_example_star(parse(xi_text), 12)
    exact = 8 * 7 // 2
    assert report.results["mean_distance_routes"] == {
        "exact": exact, "l1-certificate": 12 * 11 // 2 - exact}
    check = next(c for c in report.checks
                 if c.name == "mean-distances-capped-at-one")
    assert check.ok and report.ok
    assert check.detail == "max distance 11/12 (28 exact, 38 certified)"


@pytest.mark.parametrize("bundle", [verify_example_schreier,
                                    verify_example_star])
@pytest.mark.parametrize("N", [0, -3])
def test_bundles_need_a_positive_horizon(bundle, N):
    # N = 0 used to divide by zero in the default level 1 - 1/N.
    with pytest.raises(ValueError, match="N must be at least 1"):
        bundle(parse("1"), N)


@pytest.mark.parametrize("N", [1, 2])
def test_star_bundle_needs_its_witness_in_the_horizon(N):
    # The alternating witness lives on {2,3}: a shorter horizon cannot
    # show the constant 1/2, so it is bad input, not a failed check.
    with pytest.raises(ValueError, match=r"at least 3 to reach the witness \{2,3\}"):
        verify_example_star(parse("1"), N)


def test_schreier_bundle_fails_above_one():
    report = verify_example_schreier(parse("1"), 8,
                                     c_override=Fraction(11, 10))
    assert not report.ok and report.exit_code == 1
    failed = {c.name for c in report.checks if not c.ok}
    assert failed == {"basis-large-below-one"}
    assert report.results["large"]["certificate"] == "1"


@pytest.mark.parametrize("xi_text, N, c, digest", [
    ("1", 8, Fraction(0),
     "4e6aafdbcc9f3a9bb4608ae7107aaab22569d5d0b9a7892570ea97f410dc4d53"),
    ("1", 8, Fraction(-1, 2),
     "a62a021488200a4903dee567e54a0832784c35d0c3ca68218f91f8bce0c613a9"),
    ("w", 8, Fraction(1),
     "5a8db04e37f30d57705016064016b9538a32bc67bd5222154e9e4565314a6aee"),
    ("0", 10, Fraction(0),
     "fca0e50667da978726fdb31bf010a431829230d9e33639ea09b8ed4484905cdf"),
])
def test_schreier_bundle_level_paths_are_pinned(xi_text, N, c, digest):
    # Recorded when the hit sets still came from one Functional per member.
    # A level c <= 0 starts every element at total 0; at c = 1 each member
    # sum meets its own basis vectors exactly at the level.
    report = verify_example_schreier(parse(xi_text), N, c_override=c)
    assert report.ok
    assert hashlib.sha256(report.json_bytes()).hexdigest() == digest


# Levels below, inside and above the interval (0, 1] the basis sums hit.
LEVELS = st.one_of(
    st.fractions(max_value=0, max_denominator=12),
    st.fractions(min_value=0, max_value=1, max_denominator=12).filter(
        lambda c: 0 < c < 1),
    st.just(Fraction(1)),
    st.fractions(min_value=1, max_value=3, max_denominator=12).filter(
        lambda c: c > 1))


@given(order=st.sampled_from(["0", "1", "2", "w", "w+1"]), N=st.integers(1, 10),
       c=LEVELS)
@settings(max_examples=150, deadline=None)
def test_basis_hit_sets_match_the_scaled_totals(order, N, c):
    # The bundles' hit sets by construction against the totals of every
    # member sum on the scaled canonical basis: the same distinct sets, in
    # the same order, which is all the largeness scan reads of them.
    spec = NormSpec.schreier(parse(order))
    members = _members(spec.xi, N)
    rows, D = quantities._scaled_horizon(CanonicalBasis(spec), N)
    totals = quantities._hit_sets(((F, [1] * len(F), 1) for F in members if F),
                                  rows, D, c)
    assert list(verify._basis_hit_sets(members, N, c)) == list(dict.fromkeys(totals))


def test_prop_bundle_passes():
    report = verify_prop_formula(40, Fraction(1, 2))
    assert report.ok
    assert report.results["final"]["l"] == 40
    assert report.results["table"][0]["l"] == 1
    assert report.results["table"][-1]["l"] == 40


def test_prop_bundle_checks_a_hundred_thousand_rows_in_a_second():
    started = time.perf_counter()
    report = verify_prop_formula(100_000, Fraction(1, 2))
    assert time.perf_counter() - started < 1
    assert report.ok and report.results["final"]["l"] == 100_000


def test_prop_bundle_lists_the_first_offending_rows(monkeypatch):
    # Rows 4..11 get a hundred times the remainder: it rises at 4 only and
    # stays above 1/l on all eight rows, of which the first five are listed.
    # Row 15 gets half the main term, which drops there and leaves the 5/l
    # envelope.  The shown rows keep the true values.
    terms = verify._prop_formula_terms

    def perturbed(l):
        v, a, b = terms(l)
        if 4 <= l <= 11:
            v *= 100
        if l == 15:
            a //= 2
        return v, a, b

    monkeypatch.setattr(verify, "_prop_formula_terms", perturbed)
    report = verify_prop_formula(20, Fraction(1, 2))
    details = {c.name: (c.ok, c.detail) for c in report.checks}
    assert details == {
        "main-within-five-over-l": (False, "violated at l = [15]"),
        "vanishing-below-one-over-l": (False, "violated at l = [4, 5, 6, 7, 8]"),
        "main-climbs-from-two": (False, "drops at l = [15]"),
        "vanishing-falls-from-two": (False, "rises at l = [4]"),
    }
    assert report.results["final"] == prop_formula(20, Fraction(1, 2)).to_json()


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


def _sized_globals(modules) -> dict:
    return {(module.__name__, name): len(value)
            for module in modules for name, value in vars(module).items()
            if isinstance(value, (dict, list, set))}


def test_sign_pattern_scans_evaluate_each_kernel_key_at_most_once(monkeypatch):
    # A kernel evaluation is a _magnitude_norm call without a memo; the
    # memo a call goes through names the scan it belongs to.
    real = spaces._magnitude_norm
    scan = [None]
    evaluations = []
    requested: dict = {}

    def counting(spec, support, mags, budget, memo):
        if memo is None:
            evaluations.append((scan[0], (support, tuple(mags))))
            return real(spec, support, mags, budget, None)
        requested.setdefault(id(memo), set()).add((support, tuple(mags)))
        outer, scan[0] = scan[0], id(memo)
        try:
            return real(spec, support, mags, budget, memo)
        finally:
            scan[0] = outer

    modules = (spaces, quantities, verify)
    before = _sized_globals(modules)
    monkeypatch.setattr(spaces, "_magnitude_norm", counting)
    # The bundles walk their space's own order, and every sign pattern lives
    # inside its member: all totals come from the integers, none through a
    # memo.
    assert verify_example_schreier(parse("1"), 8).ok
    assert verify_example_star(parse("1"), 8).ok
    assert not requested
    # x_n = e_n + e_{n+1} puts supports outside the members, so the scan
    # needs the kernels, through one memo: each key is evaluated once.
    spec = NormSpec.star(parse("2"))
    xs = ExplicitSequence(spec, [RatVec({n: 1, n + 1: 1}) for n in range(1, 9)])
    quantities.sm_constant(parse("2"), xs, 8, coeff_budget=3)
    monkeypatch.undo()
    per_scan: dict = {}
    for memo, key in evaluations:
        if memo is not None:
            per_scan.setdefault(memo, []).append(key)
    assert len(per_scan) == 1 and requested.keys() == per_scan.keys()
    for memo, keys in per_scan.items():
        assert sorted(keys) == sorted(requested[memo])
    # Nothing outlives the call at module level.
    assert _sized_globals(modules) == before
