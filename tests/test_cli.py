"""Command line behavior: argument shapes, formats, exit codes."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import schreier_lab
from schreier_lab import averages, spaces
from schreier_lab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


def write_vec(tmp_path, name, entries):
    path = tmp_path / name
    path.write_text(json.dumps({"entries": entries}))
    return f"@{path}"


def write_vecs(tmp_path, name, *entry_maps):
    path = tmp_path / name
    path.write_text(json.dumps([{"entries": e} for e in entry_maps]))
    return f"@{path}"


# -- ord ---------------------------------------------------------------------------


def test_ord_parse_normalizes(capsys):
    code, payload = run_json(capsys, "ord", "parse", "--text", "w^0*7")
    assert code == 0
    assert payload == {"ordinal": "7", "kind": "successor"}


def test_ord_classify_and_fseq(capsys):
    code, payload = run_json(capsys, "ord", "classify", "--xi", "w*2")
    assert code == 0
    assert payload["kind"] == "limit" and payload["predecessor"] is None

    code, payload = run_json(capsys, "ord", "fseq", "--xi", "w", "--n", "3")
    assert payload["sequence"] == ["1", "2", "3"]


def test_ord_fseq_needs_a_positive_length(capsys):
    for n in ("0", "-2"):
        code, out, err = run(capsys, "ord", "fseq", "--xi", "w", "--n", n)
        assert code == 2 and out == ""
        assert err.startswith("error:")


def test_ord_fseq_past_the_budget_is_refused_up_front(capsys, monkeypatch):
    monkeypatch.setenv("SCHREIER_LAB_BUDGET", "1000")
    code, out, err = run(capsys, "ord", "fseq", "--xi", "w", "--n", "1001")
    assert (code, out) == (2, "")
    assert err == ("budget exceeded: budget exceeded for fundamental-sequence "
                   "terms: limit 1000 (needs = 1001)\n")
    code, payload = run_json(capsys, "ord", "fseq", "--xi", "w", "--n", "1000")
    assert code == 0 and len(payload["sequence"]) == 1000


def test_ord_parse_error_exits_two(capsys):
    code, out, err = run(capsys, "ord", "parse", "--text", "w+w")
    assert code == 2 and out == ""
    assert err.startswith("error:")


# -- schreier ---------------------------------------------------------------------


def test_schreier_member_verbatim_shape(capsys):
    code, payload = run_json(capsys, "schreier", "member",
                             "--xi", "w", "--set", "2,3,7")
    assert code == 0
    assert payload == {"xi": "w", "set": "2,3,7", "member": True}


def test_schreier_member_text_format(capsys):
    code, out, err = run(capsys, "schreier", "member",
                         "--xi", "1", "--set", "1,2")
    assert code == 0
    assert "member = false" in out.splitlines()


def test_schreier_oracle_and_trace(capsys):
    code, payload = run_json(capsys, "schreier", "oracle",
                             "--xi", "2", "--set", "2,3,4,5,6,7")
    assert code == 0 and payload["member"] is True

    code, payload = run_json(capsys, "schreier", "trace", "--xi", "1",
                             "--stream", "evens", "--set", "2,4")
    assert payload["member"] is True
    code, payload = run_json(capsys, "schreier", "image", "--xi", "1",
                             "--stream", "evens", "--set", "2,4")
    assert payload["member"] is False
    # A value past 2**63 is found at its stream position, 10**20.
    code, out, err = run(capsys, "schreier", "image", "--xi", "1",
                         "--stream", "evens", "--set", "200000000000000000000")
    assert (code, err) == (0, "")
    assert "member = true" in out.splitlines()


def test_schreier_enum_with_limit(capsys):
    code, payload = run_json(capsys, "schreier", "enum", "--xi", "1",
                             "--max-value", "4", "--limit", "3")
    assert code == 0
    assert payload["count"] == 8
    assert payload["sets"] == ["", "1", "2"]


def test_schreier_enum_limit_zero_and_negative(capsys):
    code, payload = run_json(capsys, "schreier", "enum", "--xi", "1",
                             "--max-value", "4", "--limit", "0")
    assert code == 0
    assert payload["count"] == 8 and payload["sets"] == []

    code, out, err = run(capsys, "schreier", "enum", "--xi", "1",
                         "--max-value", "4", "--limit", "-1")
    assert (code, out, err) == (2, "", "error: --limit must be at least 0\n")


def test_schreier_count(capsys):
    code, payload = run_json(capsys, "schreier", "count", "--xi", "1",
                             "--max-value", "15")
    assert code == 0
    assert payload == {"xi": "1", "max_value": 15, "count": 1597}
    code, out, err = run(capsys, "schreier", "count", "--xi", "w",
                         "--max-value", "40")
    assert code == 0 and "count = 277510579805" in out.splitlines()


def test_schreier_member_at_a_deep_order(capsys):
    started = time.perf_counter()
    code, payload = run_json(capsys, "schreier", "member", "--xi", "3000",
                             "--set", "1,2")
    assert code == 0 and payload["member"] is False
    code, payload = run_json(capsys, "schreier", "member", "--xi", "3000",
                             "--set", "5,6,7")
    assert code == 0 and payload["member"] is True
    assert time.perf_counter() - started < 1


def test_schreier_oracle_at_a_deep_order(capsys):
    started = time.perf_counter()
    code, payload = run_json(capsys, "schreier", "oracle", "--xi", "3000",
                             "--set", "1,2")
    assert code == 0 and payload["member"] is False
    assert time.perf_counter() - started < 1


def test_schreier_threshold(capsys):
    code, payload = run_json(capsys, "schreier", "threshold", "--zeta", "2",
                             "--xi", "1", "--max-value", "8")
    assert code == 0 and payload["threshold"] == 5


# -- avg ---------------------------------------------------------------------------


def test_avg_default_op_verbatim_shape(capsys):
    code, payload = run_json(capsys, "avg", "--xi", "w", "--stream", "all",
                             "--n", "2")
    assert code == 0
    assert payload["size"] == 6
    assert payload["vector"] == {"2": "1/4", "3": "1/4", "4": "1/8",
                                 "5": "1/8", "6": "1/8", "7": "1/8"}


def test_avg_budget_refusal(capsys):
    code, out, err = run(capsys, "avg", "--xi", "w", "--stream", "all",
                         "--n", "5")
    assert code == 2 and out == ""
    assert err.startswith("budget exceeded:")
    assert "needs >=" in err


def test_avg_deep_limit_order_refuses_in_time(capsys, monkeypatch):
    # Vector 2 of w^3 along the cubes descends through hundreds of
    # successor levels before any count passes the budget.
    monkeypatch.delenv("SCHREIER_LAB_BUDGET", raising=False)
    monkeypatch.setattr(averages, "_AVERAGES_CACHE", {})
    started = time.perf_counter()
    code, out, err = run(capsys, "avg", "--xi", "w^3", "--stream", "cubes",
                         "--n", "3")
    elapsed = time.perf_counter() - started
    assert code == 2 and out == ""
    found = re.fullmatch(r"budget exceeded: budget exceeded for "
                         r"repeated-average support entries: limit 200000 "
                         r"\(needs >= (\d+)\)\n", err)
    assert found and int(found.group(1)) > 200_000
    assert elapsed < 1


def test_avg_size_at_a_tall_omega_power_refuses_in_time(capsys, monkeypatch):
    # Vector 2 of w^20 along all indices descends through about 2^20 orders
    # before a count passes the budget; whatever the exponent, the refusal
    # is the one met at w+1.
    monkeypatch.delenv("SCHREIER_LAB_BUDGET", raising=False)
    monkeypatch.setattr(averages, "_AVERAGES_CACHE", {})
    started = time.perf_counter()
    code, out, err = run(capsys, "avg", "size", "--xi", "w^20",
                         "--stream", "all", "--n", "3")
    elapsed = time.perf_counter() - started
    assert (code, out) == (2, "")
    assert err == ("budget exceeded: budget exceeded for repeated-average "
                   "support entries: limit 200000 (needs >= 262136)\n")
    assert elapsed < 1


def test_avg_size_without_materializing(capsys):
    code, payload = run_json(capsys, "avg", "size", "--xi", "2", "--n", "3")
    assert code == 0 and payload["size"] == 2040


def test_avg_apply_and_pair_sum(capsys, tmp_path):
    seq = write_vecs(tmp_path, "seq.json",
                     {"11": "1"}, {"12": "1"}, {"13": "1"})
    code, payload = run_json(capsys, "avg", "apply", "--xi", "1",
                             "--n", "2", "--seq", seq)
    assert code == 0
    assert payload["vector"] == {"12": "1/2", "13": "1/2"}

    code, payload = run_json(capsys, "avg", "pair-sum",
                             "--vec", '{"entries": {"1": "1/2", "5": "1"}}',
                             "--set", "1,5")
    assert payload["value"] == "3/2"


def test_avg_apply_past_a_short_sequence_exits_two(capsys, tmp_path):
    seq = write_vecs(tmp_path, "short.json", {"11": "1"}, {"12": "1"})
    code, out, err = run(capsys, "avg", "apply", "--xi", "1", "--n", "3",
                         "--seq", seq)
    assert (code, out, err) == (2, "", "error: sequence has 2 vectors, "
                                       "asked for 4\n")


def test_avg_validate(capsys, tmp_path):
    good = write_vecs(tmp_path, "good.json", {"1": "1"},
                      {"2": "1/2", "3": "1/2"})
    code, payload = run_json(capsys, "avg", "validate", "--seq", good)
    assert code == 0 and payload["ok"] is True

    gapped = write_vecs(tmp_path, "gapped.json", {"1": "1"}, {"3": "1"})
    code, out, err = run(capsys, "avg", "validate", "--seq", gapped)
    assert code == 2 and err.startswith("error:")


def test_avg_nibcc_generated(capsys):
    code, payload = run_json(capsys, "avg", "nibcc", "--xi", "0",
                             "--count", "2")
    assert code == 0
    assert payload["ok"] is True
    assert payload["witness"] == {"breakpoints": [0, 1, 3],
                                  "weights": ["1", "1/2", "1/2"]}


def test_avg_nibcc_from_files(capsys, tmp_path):
    z = write_vecs(tmp_path, "z.json", {"1": "1/3", "2": "2/3"})
    y = write_vecs(tmp_path, "y.json", {"1": "1"}, {"2": "1"})
    code, payload = run_json(capsys, "avg", "nibcc", "--z", z, "--y", y)
    assert code == 1
    assert payload["ok"] is False and payload["witness"] is None

    code, out, err = run(capsys, "avg", "nibcc", "--z", z)
    assert code == 2 and "--z and --y go together" in err


def test_avg_nibcc_ambiguous_weights_exit_two(capsys, tmp_path):
    # y2 overlaps both neighbours: z is 1/4 y1 + 3/4 y3, and also
    # 1/2 y2 + 1/2 y3, so no unique weights exist.
    z = write_vecs(tmp_path, "z.json", {"1": "1/4", "2": "3/4"})
    y = write_vecs(tmp_path, "y.json", {"1": "1"}, {"1": "1/2", "2": "1/2"},
                   {"2": "1"})
    for argv in (("nibcc",), ("reweight", "--n", "1")):
        code, out, err = run(capsys, "avg", *argv, "--z", z, "--y", y)
        assert (code, out) == (2, "")
        assert err == ("ambiguous: combination weights are underdetermined; "
                       "the given vectors are not support-separated\n")


def test_avg_validate_rejects_a_malformed_list_entry(capsys):
    code, out, err = run(capsys, "avg", "validate",
                         "--seq", '[{"entries":{"1":"1"}},[]]')
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_avg_validate_rejects_a_length_past_the_list(capsys):
    code, out, err = run(capsys, "avg", "validate",
                         "--seq", '[{"entries": {"1": "1"}}]', "--n", "3")
    assert code == 2 and out == ""
    assert err == "error: --n 3 is past the 1 listed vectors\n"


def test_avg_validate_rejects_a_negative_length(capsys):
    # A negative --n would slice the list from its end, and validate a
    # prefix nobody asked for.
    code, out, err = run(capsys, "avg", "validate", "--seq",
                         '[{"entries":{"1":"1"}},{"entries":{"3":"1"}}]',
                         "--n", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --n must be at least 0, got -1\n"


def test_avg_nibcc_and_reweight_need_an_order_or_vectors(capsys):
    for argv in (("nibcc",), ("reweight", "--n", "1")):
        code, out, err = run(capsys, "avg", *argv)
        assert code == 2 and out == ""
        assert err == "error: give --xi, or --z and --y\n"


def test_avg_nibcc_and_reweight_need_a_positive_count(capsys):
    for count in ("0", "-1"):
        for argv in (("nibcc",), ("reweight", "--n", "1")):
            code, out, err = run(capsys, "avg", *argv, "--xi", "0",
                                 "--stream", "all", "--count", count)
            assert code == 2 and out == ""
            assert err == "error: count must be at least 1\n"


def test_avg_reweight(capsys):
    code, payload = run_json(capsys, "avg", "reweight", "--xi", "0",
                             "--count", "3", "--n", "2")
    assert code == 0
    assert payload["beta"] == {"1": "1/2", "2": "0", "3": "3/2"}
    assert payload["total"] == "2"


@pytest.mark.parametrize("argv, digest", [
    # 10 combined vectors over 3,069 originals, in json.
    ("avg nibcc --xi 0 --stream shift:2 --count 10 --format json",
     "2ed6af4f428553067710a8cf468131b8a755edb305e49f5c2e40a5cf3d1ba676"),
    ("avg reweight --xi 1 --stream all --count 3 --n 2",
     "69f212f50346058768056f8abe3451114693227623f56373f6cb31a869c4f92f"),
])
def test_avg_nibcc_and_reweight_bytes_are_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- norm --------------------------------------------------------------------------


def test_norm_default_op_verbatim_shape(capsys, tmp_path):
    vec = write_vec(tmp_path, "x.json",
                    {str(i): "1" for i in range(1, 8)})
    code, payload = run_json(capsys, "norm", "--space", "schreier",
                             "--xi", "1", "--vec", vec)
    assert code == 0
    assert payload["value"] == "4"
    assert payload["witness"] == "4,5,6,7"
    assert payload["spec"] == "schreier:1"


def test_norm_classical_inline_vector(capsys):
    code, payload = run_json(capsys, "norm", "--space", "l2",
                             "--vec", '{"entries": {"1": "3", "2": "4"}}')
    assert code == 0 and payload["value"] == "5"


def test_norm_oracle_matches_eval(capsys):
    vec = '{"entries": {"2": "1", "3": "-1", "5": "1/2"}}'
    code, fast = run_json(capsys, "norm", "--space", "star", "--xi", "1",
                          "--vec", vec)
    code, slow = run_json(capsys, "norm", "oracle", "--space", "star",
                          "--xi", "1", "--vec", vec)
    assert fast["value"] == slow["value"]


def test_norm_functional(capsys):
    code, payload = run_json(capsys, "norm", "functional", "--space",
                             "schreier", "--xi", "1", "--set", "2,3",
                             "--vec", '{"entries": {"2": "1", "3": "1"}}')
    assert code == 0
    assert payload["value"] == "2" and payload["label"] == "sum[2,3]"

    code, out, err = run(capsys, "norm", "functional", "--space", "schreier",
                         "--xi", "1", "--set", "1,2")
    assert code == 2 and "not admissible" in err


def test_norm_functional_check_refused_past_the_search_budget(capsys):
    ones = json.dumps({"entries": {str(i): "1" for i in range(1, 30)}})
    code, out, err = run(capsys, "norm", "functional", "--space", "schreier",
                         "--xi", "2", "--set", "2,3", "--vec", ones)
    assert code == 2 and out == ""
    assert err.startswith("budget exceeded:")
    assert err.endswith("norm search nodes: limit 200000 (needs >= 200001)\n")


def test_norm_rejects_entries_that_are_not_an_object(capsys):
    code, out, err = run(capsys, "norm", "--space", "schreier", "--xi", "1",
                         "--vec", '{"entries":[1,2]}')
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_norm_rejects_an_exponent_past_the_int_string_limit(capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, "norm", "--space", "schreier", "--xi", "1",
                         "--vec", '{"entries": {"1": "1e3000000"}}')
    assert code == 2 and out == ""
    assert err == "error: bad rational literal '1e3000000'\n"
    assert time.perf_counter() - started < 1


def test_norm_too_large_for_its_approximation_exits_two(capsys):
    vec = '{"entries": {"2": 1.7e308, "3": 1.7e308}}'
    for argv in (["norm", "--space", "schreier", "--xi", "1", "--vec", vec],
                 ["norm", "functional", "--space", "schreier", "--xi", "1",
                  "--set", "2,3", "--vec", vec]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: integer division result too large for a float\n"


def test_norm_missing_file_exits_two(capsys, tmp_path):
    code, out, err = run(capsys, "norm", "--space", "l1",
                         "--vec", f"@{tmp_path}/absent.json")
    assert code == 2 and err.startswith("error:")


# -- quantity ----------------------------------------------------------------------


def test_quantity_ca_and_windows(capsys):
    code, payload = run_json(capsys, "quantity", "ca", "--space-xi", "1",
                             "--n0", "2", "--N", "10")
    assert code == 0
    assert payload["value"] == "2" and payload["window"] == [2, 10]

    code, payload = run_json(capsys, "quantity", "cca", "--space-xi", "1",
                             "--N", "4")
    assert payload["value"] == "3/4"

    code, payload = run_json(capsys, "quantity", "cca-xi", "--xi", "1",
                             "--N", "2")
    assert payload["value"] == "1/2" and payload["kind"] == "cca-xi"


def test_quantity_sequence_flags(capsys):
    code, payload = run_json(capsys, "quantity", "ca", "--space-xi", "1",
                             "--along", "evens", "--N", "3")
    assert code == 0
    assert payload["value"] == "2" and payload["sequence"] == "basis[evens]"

    code, payload = run_json(capsys, "quantity", "ca", "--space-xi", "1",
                             "--weights", "2,1", "--N", "2")
    assert payload["value"] == "2"
    assert payload["sequence"].startswith("weighted-basis[2 weights")


def test_quantity_catalog_estimates(capsys):
    code, payload = run_json(capsys, "quantity", "cca-tilde", "--xi", "1",
                             "--catalog", "all,evens", "--N", "2")
    assert code == 0
    assert payload["value"] == "1/2"
    assert payload["direction"] == "upper_bound"
    assert payload["witness"] == "all"

    code, payload = run_json(capsys, "quantity", "cca-tilde-sup", "--xi", "1",
                             "--catalog", "all,evens", "--N", "2")
    assert payload["direction"] == "unverified"


def test_quantity_cca_tilde_sup_refusal_stores_no_composed_values(
        capsys, monkeypatch):
    # Each refinement composes the base stream with a catalog stream, and its
    # averages read that composition far out before they refuse; it keeps no
    # memo, so the peak does not grow with the budget.
    monkeypatch.setenv("SCHREIER_LAB_BUDGET", "2000000")
    monkeypatch.setattr(averages, "_AVERAGES_CACHE", {})
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "quantity", "cca-tilde-sup", "--xi", "w",
                             "--catalog", "shift:1,shift:2", "--N", "4",
                             "--space-xi", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == ("budget exceeded: budget exceeded for repeated-average "
                   "support entries: limit 2000000 (needs >= 3145725)\n")
    assert peak < 10_000_000


def test_quantity_ca_in_a_classical_space(capsys):
    code, out, err = run(capsys, "quantity", "ca", "--space", "l1", "--N", "4")
    assert (code, err) == (0, "")
    assert "space = l1\n" in out and "value = 2\n" in out


@pytest.mark.parametrize("argv, message", [
    (("quantity", "ca", "--N", "4"), "--space schreier needs --space-xi"),
    (("quantity", "fdelta", "--space", "l1", "--delta", "1/2", "--N", "4"),
     "--space l1 needs an explicit --gamma-xi"),
    (("quantity", "ca", "--space-xi", "1", "--seq", "foo", "--N", "4"),
     "unknown sequence 'foo'; use basis or @file"),
])
def test_quantity_flag_errors_exit_two(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("raw, message", [
    ("abc", "must be an integer, got 'abc'"),
    ("0", "must be positive, got 0"),
    ("-3", "must be positive, got -3"),
])
def test_a_malformed_budget_variable_exits_two(capsys, monkeypatch, raw,
                                               message):
    monkeypatch.setenv("SCHREIER_LAB_BUDGET", raw)
    code, out, err = run(capsys, "schreier", "count", "--xi", "1",
                         "--max-value", "5")
    assert (code, out) == (2, "")
    assert err == f"error: SCHREIER_LAB_BUDGET {message}\n"


def test_quantity_sm_verbatim_shape(capsys):
    code, payload = run_json(capsys, "quantity", "sm", "--xi", "2",
                             "--space", "schreier", "--N", "14")
    assert code == 0
    assert payload["value"] == "1"
    assert payload["direction"] == "upper_bound"
    assert payload["witness"] == "1;1"


def test_quantity_sm_prints_an_irrational_value_as_its_float(capsys):
    # In l2 the least ratio is 1/sqrt(3), at the uniform pattern on {3,4,5}.
    argv = ("quantity", "sm", "--space", "l2", "--xi", "1", "--N", "6")
    assert run(capsys, *argv) == (0, """approx = 0.5773502691896257
direction = upper_bound
horizon = 6
kind = sm
sequence = basis
space = l2
value = 0.5773502691896257
witness = 3,4,5;1,1,1
xi = 1
""", "")
    assert run(capsys, *argv, "--format", "json") == (0, """{
  "approx": 0.5773502691896257,
  "direction": "upper_bound",
  "horizon": "6",
  "kind": "sm",
  "sequence": "basis",
  "space": "l2",
  "value": "0.5773502691896257",
  "witness": "3,4,5;1,1,1",
  "xi": "1"
}
""", "")


def test_quantity_sm_charges_its_sign_patterns(capsys, monkeypatch):
    # Every sign choice on the 24,653 members up to 12 points is 5,894,907
    # patterns, all totalled on the space's own walk: one unit each, spent
    # per member, so the refusal counts through the member that passes the
    # limit, a lower bound.
    monkeypatch.delenv("SCHREIER_LAB_BUDGET", raising=False)
    started = time.perf_counter()
    assert run(capsys, "quantity", "sm", "--xi", "2", "--N", "16",
               "--coeff-budget", "12") == (
        2, "", "budget exceeded: budget exceeded for sign patterns: "
               "limit 200000 (needs >= 200296)\n")
    assert time.perf_counter() - started < 2


# -- README commands, byte for byte ---------------------------------------------------
#
# The JSON forms carry no wall time, so their bytes are fixed; these were
# recorded while the sign-pattern scans still ran on Fraction vectors.

README_SM_JSON = '''{
  "approx": 1.0,
  "direction": "upper_bound",
  "horizon": "14",
  "kind": "sm",
  "sequence": "basis",
  "space": "schreier:2",
  "value": "1",
  "witness": "1;1",
  "xi": "2"
}
'''

README_STAR_JSON = '''{
  "checks": [
    {
      "detail": "norm 1",
      "name": "alternating-pair-has-norm-one",
      "ok": true
    },
    {
      "detail": "1204 sign patterns, 0 below half mass",
      "name": "half-lower-bound-holds",
      "ok": true
    },
    {
      "detail": "min ratio 1/2 at 2,3;1,-1",
      "name": "spreading-constant-is-half",
      "ok": true
    },
    {
      "detail": "377 admissible sets at level 11/12",
      "name": "basis-large-below-one",
      "ok": true
    },
    {
      "detail": "max distance 11/12 (66 exact, 0 certified)",
      "name": "mean-distances-capped-at-one",
      "ok": true
    }
  ],
  "command": "verify example-star --xi 0 --N 12",
  "config": {
    "N": 12,
    "c": "11/12",
    "coeff_budget": 3,
    "seed": 0,
    "space": "star:1",
    "xi": "0"
  },
  "ok": true,
  "results": {
    "large": {
      "certificate": null,
      "checked": 377,
      "horizon": 12,
      "ok": true,
      "order": "1",
      "stream": "all"
    },
    "mean_distance_routes": {
      "exact": 66,
      "l1-certificate": 0
    },
    "sm": {
      "approx": 0.5,
      "direction": "upper_bound",
      "horizon": "12",
      "value": "1/2",
      "witness": "2,3;1,-1"
    }
  },
  "schema_version": 1
}
'''


@pytest.mark.parametrize("argv, expected", [
    (("quantity", "sm", "--xi", "2", "--space", "schreier", "--N", "14"),
     README_SM_JSON),
    (("verify", "example-star", "--xi", "0", "--N", "12"), README_STAR_JSON),
], ids=["quantity-sm", "verify-example-star"])
def test_readme_commands_are_byte_stable(capsys, argv, expected):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, out, err) == (0, expected, "")


README = Path(__file__).resolve().parents[1] / "README.md"
# The README's one example that refuses at the default budget.
README_REFUSALS = {"avg --xi w --stream all --n 5 --format json"}


def _readme_commands(*headings):
    """The ``schreier-lab`` lines of the first ``sh`` block under each
    heading, continuation lines joined, as (environment, argv) params."""
    text = README.read_text()
    commands = []
    for heading in headings:
        section = text.split(f"\n## {heading}\n", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if "schreier-lab" in words:
                at = words.index("schreier-lab")
                env = dict(word.split("=", 1) for word in words[:at])
                commands.append(pytest.param(env, words[at + 1:],
                                             id=" ".join(words)))
    return commands


# sha256 of stdout per README command, in text and in JSON (_stdout_digest).
README_DIGESTS = {
    'ord parse --text w^2*3+w+4':
        {"text": "1342736a81dc4aa72d0fcc0af0b07a51c64ddd4837ce1ab020d0c500896415e5",
         "json": "a40ec66ed31b4a6c445a2979db846245561a2a7d9b73875d0c779d21d6e05977"},
    'ord fseq --xi w --n 5':
        {"text": "d5d00bc4c3143c4e2739246c8aa7b8242f0326798a09a7535fcc7c7b35eb9439",
         "json": "20417e8a6d7428d3983b3df991c5320d0c568a6c9049208cd5f566685843221e"},
    'schreier member --xi w --set 2,3,7':
        {"text": "ed738bb1f986eeac3c16f366c87671032b20cc56231e3ffb4f6d15b2159def99",
         "json": "7bb244bbf00b724451ab7ed1ffe0fea0801f31f7a1a8b2b6bb75d148cfbc1c57"},
    'schreier enum --xi 1 --max-value 4':
        {"text": "84ad836d65447c51ccdfa750e2de7955fa42f71a107b7bd3657e3b90ab9b224d",
         "json": "6104773913d7726cf0604f6ddb115bf399fe60da79aa12e1cdf04e978169a66b"},
    'schreier count --xi w --max-value 40':
        {"text": "e7dfe8ee14d4536f63b2fca0ba33ebdf2b6fb418107e5d99aa41413f1bb1d744",
         "json": "ceba1e4813aa5f32f374c22848544df18e6c233889400dda1f972da9eb2d9f9f"},
    'schreier trace --xi 1 --stream evens --set 2,4':
        {"text": "a10f3b450dc4e890cc799eaedccdd668391702d36b4ea9c4b4387a86366bb6db",
         "json": "5c9ce98d061672e91cf9a6e9828fc61d898155d5724c8435e110e0a6880594e0"},
    'avg --xi w --stream all --n 5 --format json':
        {"text": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "json": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    'avg nibcc --xi 0 --stream all --count 4':
        {"text": "6b6ccd3d0e3be0b0085909e00bb4b8520901cb85d179a57a6676f7f3f34755d1",
         "json": "10a464a65aa8418232544b4e18e92b4f606df831c101976db282b3a43889b229"},
    'avg reweight --xi 0 --stream all --count 4 --n 2':
        {"text": "69f212f50346058768056f8abe3451114693227623f56373f6cb31a869c4f92f",
         "json": "0bf93c4fd1e8f8000fbc9699a03e52a497447c8761619f5ed9beba7ceafb45db"},
    'norm --space schreier --xi 1 --vec @vec.json':
        {"text": "5bb02b3b9c24fa6b1525aba98ebd37f268b840dc5d733bd58d33284387c2eedd",
         "json": "7fbb15c362af355930694601a0c51158b029e225ddc3d289ebda420e8923920d"},
    'norm eval --space star --xi 1 --vec {"entries": {"2": "1", "3": "-1"}}':
        {"text": "484f25887d6c4b1ee77bba27e491282322737adbf825ac01344d1be8c360e56a",
         "json": "5bb33121160120ca90152cf826d9365b9a744cb3034afc897e00298c1dd4c488"},
    'norm functional --space schreier --xi 1 --set 2,3 --vec @vec.json':
        {"text": "a3853a1f3691aa9a66b3595bd688e8e4cfaad19371e347238c08ef14d540c65c",
         "json": "dbfdc9f725f4ff53a3d78b9448da8928961426aef4b5cb6f5a7279a79be9fa8e"},
    'quantity ca --space-xi 1 --n0 1 --N 4':
        {"text": "fcaa94e7fcfd948cd10066c6b88d142385fbc7452d98a777fec458bc360d49e0",
         "json": "4a2d08bd57f5ec330436cc0db0e26d059bf7733b39a3f846f06167fd331eae9c"},
    'quantity sm --xi 2 --space schreier --N 14':
        {"text": "d902a56eb27428acf74be2efac9a7c14369057677b8dfdd019a455210d59f6e3",
         "json": "248b5bffdd6e86ea27f8695c38c373c63410310334517a3058b80cb52f9cd878"},
    'quantity large --xi 2 --c 9/10 --N 12':
        {"text": "a41ee583ba47295dd84e0e2286c27f8be744339f1c28fac52a5a8cb8fefd4247",
         "json": "85da732f5267277f5960a7f5c3622555f2d953f8c0b0933969bbf8e07375ec8a"},
    'quantity prop-formula --l 10 --c 1/2':
        {"text": "e0a5ae2f519c6683f5e4e1fb8fe504bd3fc89f734d447c960a62015f69d22fcd",
         "json": "65f37b4977d65827cc4652d1b1d5d823062cc4e44a1723a270772448a68fc43e"},
    'verify example-schreier --xi 1 --N 12':
        {"text": "984ef79e4a44d73a9f0fae1206c1288eaca60cbeb108cc41783e392bd4acb459",
         "json": "bd1ad5e88e9cd2550e03da8cc194552f1075487b3b900ee5e0351823cb766e1e"},
    'verify example-star --xi 0 --N 12':
        {"text": "be9fb182d67ef53857b7a1c7fe32f1e4e84a1e9ac4ba96e7c03f8910694957a5",
         "json": "acbfae3b3d2a9362307702af6292a79002c2a5caea660865e17a920b94afbd06"},
    'verify prop-formula --l-max 40 --c 1/2':
        {"text": "9d8dde4a7867da1f053f235747cedd36aad139e3fdd82dfcf8046af0e5e546ae",
         "json": "d2a3186ee40fa896795ba5d21b438224782b019e77e2cbb190e6301f4c387ffa"},
    'avg --xi 1 --stream all --n 19':
        {"text": "3feef3ce3da342c3afcd5e97c7afe6f1bdc0f00007b86e94bee0303a91e9d615",
         "json": "9f6a528f539c5ff53fdcc391ea0c639d4fc5bd5d74058db763a69d0970d93132"},
}


@pytest.mark.parametrize("env, argv", _readme_commands("Command line", "Budget"))
def test_readme_commands_run(capsys, monkeypatch, tmp_path, env, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "vec.json").write_text(
        '{"entries": {"2": "3/2", "3": "-1", "5": "2", "8": "1/3"}}\n')
    monkeypatch.delenv("SCHREIER_LAB_BUDGET", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    if " ".join(argv) in README_REFUSALS:
        assert code == 2 and re.match(r"budget exceeded: .*needs", err), err
    else:
        assert code == 0 and out and err == "", err
    # Both forms of the output, byte for byte: as written, and in the other
    # format.
    written = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    other = "text" if written == "json" else "json"
    outputs = {written: out, other: run(capsys, *argv, "--format", other)[1]}
    assert ({fmt: _stdout_digest(outputs[fmt]) for fmt in ("text", "json")}
            == README_DIGESTS[" ".join(argv)])


def _stdout_digest(out: str) -> str:
    """The sha256 of ``out`` with the ``wall time:`` line of a text report
    dropped, since only that line varies from run to run."""
    kept = [line for line in out.splitlines(keepends=True)
            if not line.startswith("wall time: ")]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def test_quantity_fdelta(capsys):
    code, payload = run_json(capsys, "quantity", "fdelta", "--space-xi", "1",
                             "--delta", "1", "--N", "3")
    assert code == 0
    assert payload["hit_sets"] == ["1", "2", "2,3", "3"]
    assert payload["labels"] == ["sum[1]", "sum[2]", "sum[2,3]", "sum[3]"]


def test_quantity_fdelta_refuses_a_functional_order_past_the_space(capsys):
    # Order-2 sets such as {2,3,4} are not order-1 admissible, so the
    # space cannot certify their coordinate sums.
    code, out, err = run(capsys, "quantity", "fdelta", "--space-xi", "1",
                         "--gamma-xi", "2", "--delta", "1/2", "--N", "6")
    assert (code, out, err) == (2, "", "error: {2,3,4} is not admissible "
                                       "at order 1\n")


def test_quantity_large_exit_codes(capsys):
    code, payload = run_json(capsys, "quantity", "large", "--xi", "1",
                             "--c", "1", "--N", "6")
    assert code == 0 and payload["ok"] is True

    code, payload = run_json(capsys, "quantity", "large", "--xi", "1",
                             "--c", "11/10", "--N", "6")
    assert code == 1
    assert payload["ok"] is False and payload["certificate"] == "1"


def test_quantity_large_refuses_past_the_budget(capsys, monkeypatch):
    # The family is counted before any member is walked, so the refusal
    # costs no enumeration.
    monkeypatch.delenv("SCHREIER_LAB_BUDGET", raising=False)
    started = time.perf_counter()
    code, out, err = run(capsys, "quantity", "large", "--xi", "2",
                         "--c", "9/10", "--N", "20")
    assert code == 2
    assert err.startswith("budget exceeded:")
    assert err == ("budget exceeded: budget exceeded for family enumeration: "
                   "limit 200000 (needs >= 200001)\n")
    assert time.perf_counter() - started < 1
    # The count comes before the weak limit is read.
    assert run(capsys, "quantity", "large", "--xi", "2", "--c", "9/10",
               "--N", "20", "--weak-limit", "{not json") == (2, "", err)


def test_quantity_large_recenters_by_the_weak_limit(capsys, tmp_path):
    # The drift example of the library test, x_n = e_1 + e_{n+1}, with the
    # coordinate sums over the order-1 members the command certifies.
    from fractions import Fraction

    from schreier_lab.ordinal import parse
    from schreier_lab.quantities import large_check
    from schreier_lab.schreier import enumerate_family
    from schreier_lab.spaces import NormSpec, coordinate_sum_functional
    from schreier_lab.streams import IndexStream
    from schreier_lab.vectors import ExplicitSequence, RatVec
    space, drift = NormSpec.schreier(parse("1")), RatVec.unit(1)
    xs = ExplicitSequence(space, [drift + RatVec.unit(n + 1) for n in range(1, 5)])
    functionals = [coordinate_sum_functional(F, space)
                   for F in enumerate_family(parse("1"), 4) if F]
    seq = write_vecs(tmp_path, "seq.json", *({"1": "1", str(n + 1): "1"}
                                             for n in range(1, 5)))
    argv = ("quantity", "large", "--xi", "1", "--c", "1", "--space-xi", "1",
            "--seq", seq, "--N", "4")
    centered = ("--weak-limit", '{"entries": {"1": "1"}}')
    for weak_limit, flags in ((None, ()), (drift, centered)):
        expected = large_check(parse("1"), Fraction(1), xs,
                               IndexStream.all_indices(), functionals, 4,
                               weak_limit=weak_limit)
        code, payload = run_json(capsys, *argv, *flags)
        assert code == (0 if expected.ok else 1)
        assert (payload["ok"], payload["certificate"]) == (
            expected.ok, None if expected.certificate is None
            else str(expected.certificate))
    assert expected.certificate is not None   # recentering loses largeness


@pytest.mark.parametrize("op", [("fdelta", "--delta", "1/2"),
                                ("large", "--xi", "2", "--c", "1/2")])
def test_quantity_threshold_ops_build_no_functional(capsys, monkeypatch, op):
    # The hit sets come from the members, on the space's own walk and on a
    # walk at another order alike: no Functional is built, and the output
    # is that of the coordinate sums.  The order-1 sums do not make the
    # basis large at order 2 (exit 1).
    calls = []
    init = spaces.Functional.__init__

    def constructing(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(spaces.Functional, "__init__", constructing)
    for walk, members, large_exit in (
            (("--space-xi", "2"), 488, 0),
            (("--space-xi", "2", "--gamma-xi", "1"), 143, 1)):
        code, payload = run_json(capsys, "quantity", *op, *walk, "--N", "10")
        assert (code, calls) == (large_exit if op[0] == "large" else 0, [])
        assert payload["functionals"] == members


def test_quantity_large_meters_its_subset_tests(capsys, monkeypatch, tmp_path):
    # x_n = e_n + e_{n+1}: the sets that are no hit set are tested on the
    # hit-set index, 35,311 ANDs, past this budget but within the default.
    seq = write_vecs(tmp_path, "seq.json",
                     *({str(n): "1", str(n + 1): "1"} for n in range(1, 15)))
    monkeypatch.setenv("SCHREIER_LAB_BUDGET", "7000")
    code, out, err = run(capsys, "quantity", "large", "--xi", "2", "--c", "1",
                         "--space", "schreier", "--space-xi", "2",
                         "--seq", seq, "--N", "14")
    assert (code, out) == (2, "")
    assert err == ("budget exceeded: budget exceeded for largeness subset "
                   "tests: limit 7000 (needs >= 7001)\n")


@pytest.mark.parametrize("argv", [
    ("quantity", "sm", "--xi", "2", "--space", "schreier", "--N", "22"),
    ("schreier", "enum", "--xi", "w", "--max-value", "40"),
    ("schreier", "threshold", "--zeta", "3", "--xi", "2", "--max-value", "30"),
])
def test_whole_family_walks_refuse_before_walking(capsys, monkeypatch, argv):
    # Each walks every member; the count refuses first, with the text the
    # enumeration would give after 200,000 sets (38 s for the sm case).
    monkeypatch.delenv("SCHREIER_LAB_BUDGET", raising=False)
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == ("budget exceeded: budget exceeded for family enumeration: "
                   "limit 200000 (needs >= 200001)\n")
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("argv", [
    ("quantity", "large", "--xi", "2", "--c", "9/10", "--N", "-3"),
    ("quantity", "fdelta", "--space-xi", "2", "--delta", "1/2", "--N", "-3"),
    ("quantity", "sm", "--xi", "2", "--N", "-3"),
    ("schreier", "enum", "--xi", "2", "--max-value", "-2"),
    ("schreier", "count", "--xi", "2", "--max-value", "-2"),
    ("schreier", "threshold", "--zeta", "2", "--xi", "1", "--max-value", "-2"),
])
def test_a_negative_horizon_is_bad_input(capsys, argv):
    assert run(capsys, *argv) == (
        2, "", f"error: horizon must be at least 0, got {argv[-1]}\n")


@pytest.mark.parametrize("argv", [
    ("quantity", "sm", "--xi", "2", "--N", "6", "--coeff-budget", "-1"),
    ("verify", "example-schreier", "--xi", "1", "--N", "6", "--coeff-budget", "-2"),
    ("verify", "example-star", "--xi", "1", "--N", "6", "--coeff-budget", "-1"),
], ids=["quantity-sm", "example-schreier", "example-star"])
def test_a_negative_coefficient_budget_is_bad_input(capsys, argv):
    assert run(capsys, *argv) == (
        2, "", f"error: coefficient budget must be at least 0, got {argv[-1]}\n")


def test_quantity_prop_formula(capsys):
    code, out, err = run(capsys, "quantity", "prop-formula",
                         "--l", "10", "--c", "1/2")
    assert code == 0
    lines = out.splitlines()
    assert "main = 945/1111" in lines
    assert "vanishing = 9/1111" in lines


@pytest.mark.parametrize("argv", [
    ["quantity", "prop-formula", "--l", "3", "--c", "-1"],
    ["quantity", "prop-formula", "--l", "3", "--c", "0"],
    ["verify", "prop-formula", "--l-max", "3", "--c", "0"],
], ids=["quantity-negative", "quantity-zero", "verify-zero"])
def test_prop_formula_refuses_a_non_positive_level(capsys, argv):
    assert run(capsys, *argv) == (2, "", "error: the level must be positive\n")


# -- verify ------------------------------------------------------------------------


def test_verify_schreier_json(capsys):
    code, payload = run_json(capsys, "verify", "example-schreier",
                             "--xi", "1", "--N", "8")
    assert code == 0
    assert payload["ok"] is True
    assert payload["schema_version"] == 1
    assert "wall" not in json.dumps(payload)


def test_verify_schreier_override_fails(capsys):
    code, payload = run_json(capsys, "verify", "example-schreier",
                             "--xi", "1", "--N", "8",
                             "--c-override", "11/10")
    assert code == 1 and payload["ok"] is False


def test_verify_star_text(capsys):
    code, out, err = run(capsys, "verify", "example-star",
                         "--xi", "0", "--N", "8")
    assert code == 0
    assert "PASS spreading-constant-is-half" in out
    assert "all checks passed" in out
    assert "wall time:" in out


def test_verify_prop_formula(capsys):
    code, out, err = run(capsys, "verify", "prop-formula",
                         "--l-max", "20", "--c", "1/2")
    assert code == 0 and "all checks passed" in out


def test_verify_prop_formula_past_the_budget_is_refused_up_front(capsys,
                                                                 monkeypatch):
    monkeypatch.delenv("SCHREIER_LAB_BUDGET", raising=False)
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", "prop-formula",
                         "--l-max", "200001", "--c", "1/2")
    assert time.perf_counter() - started < 1
    assert (code, out) == (2, "")
    assert err == ("budget exceeded: budget exceeded for prop-formula rows: "
                   "limit 200000 (needs = 200001)\n")


@pytest.mark.parametrize("bundle", ["example-schreier", "example-star"])
@pytest.mark.parametrize("N", ["0", "-3"])
def test_verify_needs_a_positive_horizon(capsys, bundle, N):
    code, out, err = run(capsys, "verify", bundle, "--xi", "1", "--N", N)
    assert (code, out, err) == (2, "", "error: N must be at least 1\n")


def test_verify_json_is_reproducible(capsys):
    _, first = run_json(capsys, "verify", "example-star", "--xi", "0",
                        "--N", "8")
    _, second = run_json(capsys, "verify", "example-star", "--xi", "0",
                         "--N", "8")
    assert first == second


# -- plumbing ----------------------------------------------------------------------


def test_unknown_group_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_an_option_before_the_group_is_reported_alone(capsys):
    # The group named after the option is still built, so only the option
    # is left over.
    with pytest.raises(SystemExit) as exc:
        main(["--foo", "ord", "parse", "--text", "w"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "schreier-lab: error: unrecognized arguments: --foo\n")


_LAYERS = {"ordinal", "streams", "schreier", "vectors", "averages", "spaces",
           "quantities", "verify", "reports"}


@pytest.mark.parametrize("argv, unloaded", [
    (["ord", "parse", "--text", "w+1"], _LAYERS - {"ordinal"}),
    (["schreier", "member", "--xi", "w", "--set", "2,3"],
     {"streams", "vectors", "averages", "spaces", "quantities", "verify",
      "reports"}),
    (["avg", "--xi", "1", "--n", "3"], {"schreier", "quantities", "verify"}),
    (["avg", "nibcc", "--xi", "0", "--count", "2"],
     {"schreier", "quantities", "verify"}),
    (["avg", "apply", "--xi", "1", "--n", "2"],
     {"schreier", "quantities", "spaces", "verify"}),
    (["avg", "validate", "--seq", '[{"entries": {"1": "1"}}]'],
     {"schreier", "quantities", "spaces", "verify"}),
    (["norm", "--space", "schreier", "--xi", "1",
      "--vec", '{"entries": {"2": "1", "3": "-1"}}'],
     {"streams", "averages", "quantities", "verify"}),
    (["quantity", "large", "--xi", "2", "--c", "9/10", "--N", "8"],
     {"averages", "verify", "reports"}),
    (["verify", "example-star", "--xi", "0", "--N", "6"], {"averages"}),
], ids=["ord", "schreier", "avg", "avg-nibcc", "avg-apply", "avg-validate",
        "norm", "quantity-large", "verify"])
def test_a_command_loads_only_its_layers(argv, unloaded):
    # A fresh interpreter, so no other test has imported the layers.
    probe = ("import json, sys\n"
             "from schreier_lab import cli\n"
             "code = cli.main(sys.argv[1:])\n"
             "print(json.dumps([code, list(sys.modules)]), file=sys.stderr)\n")
    src = str(Path(schreier_lab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", probe, *argv],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0
    loaded = {m.split(".")[1] if m.startswith("schreier_lab.") else m
              for m in modules}
    # No command loads dataclasses, nor the inspect it imports.
    unloaded = unloaded | {"dataclasses", "inspect"}
    assert unloaded.isdisjoint(loaded), sorted(unloaded & loaded)
    # Of the command line, only the core and the invoked group's module.
    groups = {m for m in modules if m.startswith("schreier_lab.cli.")}
    assert groups == {f"schreier_lab.cli.{argv[0]}"}


def test_the_module_entry_point_runs_main(capsys):
    src = str(Path(schreier_lab.__file__).resolve().parents[1])
    argv = ["ord", "parse", "--text", "w+1"]
    proc = subprocess.run([sys.executable, "-m", "schreier_lab.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
    assert proc.returncode == 0 and "ordinal = w+1" in proc.stdout


def test_text_output_sorts_keys(capsys):
    code, out, err = run(capsys, "avg", "size", "--xi", "1", "--n", "4")
    assert code == 0
    keys = [line.split(" = ")[0] for line in out.splitlines()]
    assert keys == sorted(keys)
    assert "size = 8" in out


# -- arbitrary JSON at the vector flags ------------------------------------------------

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)
_index = st.one_of(st.integers(-3, 40).map(str), st.text(max_size=4))
_value = st.one_of(st.fractions(max_denominator=50).map(str),
                   st.integers(-5, 5), st.text(max_size=6), _json)
_vector_json = st.one_of(
    _json,
    st.builds(lambda e: {"entries": e},
              st.one_of(st.dictionaries(_index, _value, max_size=5), _json)))
_vector_list_json = st.one_of(_json, st.lists(_vector_json, max_size=4))


def _fuzz_commands(vec, seq, z, y, path):
    return [
        ["norm", "--space", "schreier", "--xi", "1", f"--vec={vec}"],
        ["norm", "--space", "star", "--xi", "2", f"--vec={vec}"],
        ["norm", "functional", "--space", "schreier", "--xi", "1",
         "--set", "2,3", f"--vec={vec}"],
        ["avg", "pair-sum", "--set", "1,2", f"--vec={vec}"],
        ["avg", "validate", f"--seq={seq}"],
        ["avg", "validate", f"--seq={seq}", "--n", "5"],
        ["avg", "apply", "--xi", "1", "--n", "2", f"--seq=@{path}"],
        ["avg", "nibcc", f"--z={z}", f"--y={y}"],
        ["avg", "reweight", "--n", "1", f"--z={z}", f"--y={y}"],
    ]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(vec=_vector_json, seq=_vector_list_json, z=_vector_list_json,
       y=_vector_list_json)
def test_vector_flags_survive_arbitrary_json(capsys, vec, seq, z, y):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "seq.json"
        path.write_text(json.dumps(seq))
        for argv in _fuzz_commands(json.dumps(vec), json.dumps(seq),
                                   json.dumps(z), json.dumps(y), path):
            code = main(argv)
            captured = capsys.readouterr()
            assert code in (0, 1, 2), argv
            assert "Traceback" not in captured.err


# -- a refusal probe over every op -------------------------------------------------

_PROBE_ORDERS = ["0", "1", "2", "w", "w+1", "w*2", "w^2", "w^2+w+3"]
_PROBE_STREAMS = ["all", "shift:3", "evens", "cubes"]
_PROBE_SIZES = [1, 5, 40, 3000]


def _probe_ops(xi: str, stream: str, size: int) -> dict:
    """The arguments of every op of every group for one draw: ``size`` is
    the horizon, the count, the vector length or the set ``1..size``,
    whichever the op reads."""
    n = str(size)
    first = ",".join(map(str, range(1, size + 1)))
    vec = json.dumps({"entries": {str(i): f"{(-1) ** i * (i % 5 + 1)}/3"
                                  for i in range(1, size + 1)}})
    units = json.dumps([{"entries": {str(i): "1"}} for i in range(1, size + 1)])
    return {
        "ord parse": ["--text", xi],
        "ord classify": ["--xi", xi],
        "ord fseq": ["--xi", xi, "--n", n],
        "schreier member": ["--xi", xi, "--set", first],
        "schreier oracle": ["--xi", xi, "--set", first],
        "schreier image": ["--xi", xi, "--stream", stream, "--set", first],
        "schreier trace": ["--xi", xi, "--stream", stream, "--set", first],
        "schreier enum": ["--xi", xi, "--max-value", n],
        "schreier count": ["--xi", xi, "--max-value", n],
        "schreier threshold": ["--zeta", xi, "--xi", "1", "--max-value", n],
        "avg vector": ["--xi", xi, "--stream", stream, "--n", n],
        "avg size": ["--xi", xi, "--stream", stream, "--n", n],
        "avg apply": ["--xi", xi, "--stream", stream, "--n", n],
        "avg pair-sum": ["--vec", vec, "--set", first],
        "avg validate": ["--seq", units, "--stream", stream, "--n", n],
        "avg nibcc": ["--xi", xi, "--stream", stream, "--count", n],
        "avg reweight": ["--xi", xi, "--stream", stream, "--count", n, "--n", n],
        "norm eval": ["--space", "schreier", "--xi", xi, "--vec", vec],
        "norm oracle": ["--space", "star", "--xi", xi, "--vec", vec],
        "norm functional": ["--space", "star", "--xi", xi, "--set", first,
                            "--vec", vec],
        "quantity ca": ["--space-xi", xi, "--along", stream, "--N", n],
        "quantity cca": ["--space", "star", "--space-xi", xi, "--along", stream,
                         "--N", n],
        "quantity cca-xi": ["--xi", xi, "--stream", stream, "--N", n],
        "quantity cca-tilde": ["--xi", xi, "--catalog", f"all,{stream}",
                               "--N", n],
        "quantity cca-tilde-sup": ["--xi", xi, "--catalog", f"{stream},evens",
                                   "--N", n],
        "quantity sm": ["--xi", xi, "--N", n],
        "quantity fdelta": ["--space-xi", xi, "--delta", "1/4", "--N", n],
        "quantity large": ["--xi", xi, "--c", "9/10", "--N", n,
                           "--stream", stream],
        "quantity prop-formula": ["--l", n, "--c", "1/2"],
        "verify example-schreier": ["--xi", xi, "--N", n],
        "verify example-star": ["--xi", xi, "--N", n],
        "verify prop-formula": ["--l-max", n, "--c", "1/2"],
    }


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(op=st.sampled_from(list(_probe_ops("1", "all", 1))),
       xi=st.sampled_from(_PROBE_ORDERS), stream=st.sampled_from(_PROBE_STREAMS),
       size=st.sampled_from(_PROBE_SIZES))
def test_every_op_answers_or_refuses_in_time(capsys, monkeypatch, op, xi,
                                             stream, size):
    monkeypatch.setenv("SCHREIER_LAB_BUDGET", "2000")
    argv = op.split() + _probe_ops(xi, stream, size)[op]
    started = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:   # a usage error from argparse
        code = exc.code
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.out + captured.err
    assert elapsed < 2


# One call of every probe op at one small input (order 1, along evens, size 5)
# under a work budget of 2000: the exit code, the sha256 of stdout in text and
# in JSON (_stdout_digest), and stderr, which a refusal fills.
_PROBE_PINNED = ("1", "evens", 5)
PROBE_DIGESTS = {
    'ord parse':
        (0, 'c95b5adee55e0466faf631e60594e3d92a16aab99af9de29c5db898afc1c8470',
         '7506918b35e0265ff82ecd41a26fb57400ee900480237e8ee551e3d0306a44cc',
         ''),
    'ord classify':
        (0, 'f11f94041c86056ff071a135a18c575a3e8a7d685f8c7034ca2f9f8704d121ae',
         '2980eaa3340fc6c974a3c3e70206f9c1b851c5307d1caa811f9585c548249451',
         ''),
    'ord fseq':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'error: 1 is not a limit ordinal\n'),
    'schreier member':
        (0, '780fbfccde1f32fb8ec0c0f48c0489c68fd899c51e376f6ff66aae2d5263cd7a',
         '203b48b4330518fb3b6a769a433ef0064cd4fac8d235b676015eae2d4266f5ae',
         ''),
    'schreier oracle':
        (0, '780fbfccde1f32fb8ec0c0f48c0489c68fd899c51e376f6ff66aae2d5263cd7a',
         '203b48b4330518fb3b6a769a433ef0064cd4fac8d235b676015eae2d4266f5ae',
         ''),
    'schreier image':
        (0, 'f07c67fd1a790d02cfab72abee6c4098e8a05c284ddd82fd489c3698ed6dedf2',
         'b3aa5892914199c9db7edc997b4bc6aaf41baa29de4c17a61c6fed8ca298c3c4',
         ''),
    'schreier trace':
        (0, 'f07c67fd1a790d02cfab72abee6c4098e8a05c284ddd82fd489c3698ed6dedf2',
         'b3aa5892914199c9db7edc997b4bc6aaf41baa29de4c17a61c6fed8ca298c3c4',
         ''),
    'schreier enum':
        (0, 'c5c4736daef4cb9d74a68ea926ac9ae818479c752f491c0f59b8a8e54b2cd3e0',
         '5fb4bbd9c359005e2504c475eae4f324fc49964f9e1182ef5e4f38ed7e477edc',
         ''),
    'schreier count':
        (0, '6817a75c1e712f597e92f1040b46662748e86465e027149eb56b0d1a750796b9',
         'e34b75e6e271300e92cd1fda22f2ab258f9d8b9f28ee0cea8de81a1d99f090c0',
         ''),
    'schreier threshold':
        (0, '6fa80f1cb1a10eb4552c93ad2ce6f2fa878876917a34302a9921b67abcc23721',
         '05154d964774659aabe6c82a98960d3e1b7f5df075daafe66d6616ba61a24600',
         ''),
    'avg vector':
        (0, '5a71693f351e01e460fdf89e02dcf394809d929d89114e48e8d3ae097739543d',
         'fe2257c263810560237d1a2c2880dc9afb25926b1b610f310d0fff3914d5f77d',
         ''),
    'avg size':
        (0, '14728a247b271c639fb9a5d1f18674f01de0ec9310baf76ab000225d53623138',
         'e08d888a31f479879dfc5e3110e14989c0f05126f20c63bae88c99a6f38801e7',
         ''),
    'avg apply':
        (0, 'e09d1517b3c89a175d31c9d320ee35ab4d675661d9d52e3b00d98a47d7897807',
         '20c38f40421c0db57945de9920d49f8b6bc69b044156229d98a0e51f94be285e',
         ''),
    'avg pair-sum':
        (0, 'dce520a403c2ae617a9257752f6c095368471899887263c278d7325a60b682d9',
         '0c5830bc4761c33e3d993e66220b7239d4e2600ba92a93f770abb051dda9a53e',
         ''),
    'avg validate':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'error: supports do not tile a prefix of the stream\n'),
    'avg nibcc':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'budget exceeded: budget exceeded for repeated-average support entries: limit 2000 (needs >= 2186)\n'),
    'avg reweight':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'budget exceeded: budget exceeded for repeated-average support entries: limit 2000 (needs >= 2186)\n'),
    'norm eval':
        (0, '6ae2b111f6625d0c310f127b834443bc3d1d9362553df45bf0b3339f12c82f0e',
         '86f24439694d037856d3bca39c7bc869a207f64c3b4d1e9c94a86c66c936b7bf',
         ''),
    'norm oracle':
        (0, '3b4d8493f74db2a4bf34f33ac2925356e0ed30e5fd6ab26b39258be9ca0b77db',
         'f8f3c0fe89f590f887dc444e7b665225c15d6d8261cfab2f627e2b030b1ff56b',
         ''),
    'norm functional':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'error: {1,2,3,4,5} is not admissible at order 1\n'),
    'quantity ca':
        (0, 'a944ffefa2daad194059eb6a23bc8e22fa487c7de9891b24a452fd93243da631',
         '337d6ad00e900cddab44c264b77cf80f835abf7fc1c40f0dbda1119cb90cd78a',
         ''),
    'quantity cca':
        (0, '61fa6850df7a9f48cb5fd6fafe1af96bcf96f9d78fb1c45e404c712ec4b8a908',
         '680ce7ec133cf9a1bd6423de7b7fcf167151c579da082db63286b8d21e7653d4',
         ''),
    'quantity cca-xi':
        (0, '63bf9e761c8a3cfd729c2e00e20f47c636a50524a5e417fc17472cd887755aa9',
         'a410b2ae5fe403e8e1966a8642e706c03968318c5e8114a920792ade4e3f8dd8',
         ''),
    'quantity cca-tilde':
        (0, '5f1aea397decf30691c617c9cfd077c110a148e0153c09ed77d11378e7536cc2',
         '91c90a9fdbd72f5710737bf545bf1a4762031d588c1889d7346a454cdabd5356',
         ''),
    'quantity cca-tilde-sup':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'budget exceeded: budget exceeded for repeated-average support entries: limit 2000 (needs >= 3124)\n'),
    'quantity sm':
        (0, 'e28857d258ab797b3effbc73b57a29c562dad6c53ee858d5ac51c84d4120f536',
         '0a69f4f0b3ec163ac1b3cbe7e41852e909c6dc521364f626cf613d1761d1f8f2',
         ''),
    'quantity fdelta':
        (0, '4982f92c5bb39a3bd3ca75271589ed48d17cb9182faa9bd91ede264b8378edd4',
         'cfbe8c50ade42b392dbb3d72526eca729832655db33602004ff70a5a373d8693',
         ''),
    'quantity large':
        (0, '80085700396b305097582e94c1aaac0024aaa0eafa5fa9aca00a5b9eb76fe641',
         'fdd592b0e94f872900f89e4e305aad379bc9f614dd9e3a1772ee710418d50801',
         ''),
    'quantity prop-formula':
        (0, 'c5ef091dcc00b26185be74d77572f5c2819a7b731a3ee4aa6e5315ac48bea217',
         '45dd708e107c4a22f8b4cc744fcce18e4a02f7c36b7ea13d990085461c225e2f',
         ''),
    'verify example-schreier':
        (0, '75297599578882cf24f5b9b0e62254c267c997867da5de48548ea9181acda571',
         '845967111fb08436e2b1d9ac673ff6c6afccb18ca750bf99a91a7653cfa1578b',
         ''),
    'verify example-star':
        (0, 'd9f42a7844e2ed4c92619082d105151536fc99df4e0e095548443c3607870a14',
         'e3a113019bc2924f27e9e47e527291c63cb3b919c1fc827b333e60b73d095ea5',
         ''),
    'verify prop-formula':
        (0, 'b158da49957df201888091dff1f7759b1db5195e5c0947d2f286e132acd807d9',
         '5d0be7e42f807efcd5411b5d2bab3c0f3bfb3e404d9e49691a6e2fb1d8da2444',
         ''),
}


def _pinned_output(capsys, argv) -> tuple:
    """The exit code, the stdout digests in text and JSON, and stderr, which
    both formats must share."""
    (code, text, err), (json_code, json_out, json_err) = (
        run(capsys, *argv, "--format", fmt) for fmt in ("text", "json"))
    assert (json_code, json_err) == (code, err)
    return code, _stdout_digest(text), _stdout_digest(json_out), err


@pytest.mark.parametrize("op", list(PROBE_DIGESTS))
def test_every_op_keeps_its_output(capsys, monkeypatch, op):
    monkeypatch.setenv("SCHREIER_LAB_BUDGET", "2000")
    argv = op.split() + _probe_ops(*_PROBE_PINNED)[op]
    assert _pinned_output(capsys, argv) == PROBE_DIGESTS[op]


def test_the_pinned_probe_covers_every_op():
    assert list(PROBE_DIGESTS) == list(_probe_ops(*_PROBE_PINNED))


# A second input, the first size at which all three sign-pattern scans pass
# the same budget of 2000 (at size 11 both bundles still answer): each
# refusal, pinned as above, says how far past the limit its scan got.
_PROBE_NEAR_BUDGET = ("1", "evens", 12)
NEAR_BUDGET_DIGESTS = {
    'quantity sm':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'budget exceeded: budget exceeded for sign patterns: limit 2000 (needs >= 2003)\n'),
    'verify example-schreier':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'budget exceeded: budget exceeded for sign patterns: limit 2000 (needs >= 2001)\n'),
    'verify example-star':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'budget exceeded: budget exceeded for sign patterns: limit 2000 (needs >= 2001)\n'),
}


@pytest.mark.parametrize("op", list(NEAR_BUDGET_DIGESTS))
def test_the_sign_pattern_scans_keep_their_refusals(capsys, monkeypatch, op):
    monkeypatch.setenv("SCHREIER_LAB_BUDGET", "2000")
    argv = op.split() + _probe_ops(*_PROBE_NEAR_BUDGET)[op]
    assert _pinned_output(capsys, argv) == NEAR_BUDGET_DIGESTS[op]


# `quantity sm` on a weighted basis whose listed weights differ point to point:
# its mixed members build their records from summed rows, and its uniform
# members past the listed weights share theirs.  Pinned as above: the exit
# code, the stdout digests in text and JSON, and stderr.
MIXED_WEIGHT_DIGESTS = {
    '--space star --xi 1 --weights 4,5,6,-5,4 --weight-tail 5 --N 10':
        (0, 'b47ffa638d74b630d12eac600233fd65eb945272339f0d7b10fee0a19a30639c',
         'a386844862f0ae3c04a9081261df50ad54456b02c8694a513a428553fa9df046',
         ''),
    '--space star --xi 2 --weights 4,5,6,-5,4 --weight-tail 5 --N 9':
        (0, 'e7cf0dece28b6db2fc8fdded990e4ae009e481ef4d5a24eeb37c9092cc032849',
         '67f697aa9d65071f819d9b4ba1a19af29c7c7b0c4171df71bce11c04e4c69361',
         ''),
    '--space schreier --xi 1 --weights 4,5,6,-5,4 --weight-tail 5 --N 10':
        (0, 'f4401e0c22ec1cfd9891799a31dbde6ec928418ebf0c6f293246424bf930e526',
         'fa41539e8847afb6a81d4df31b94f20510ce32d050dd63453fe281f257ed1219',
         ''),
}


@pytest.mark.parametrize("args", list(MIXED_WEIGHT_DIGESTS))
def test_quantity_sm_on_mixed_listed_weights_keeps_its_output(capsys, args):
    argv = ["quantity", "sm", *args.split()]
    assert _pinned_output(capsys, argv) == MIXED_WEIGHT_DIGESTS[args]
