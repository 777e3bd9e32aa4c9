"""Command line behavior: argument shapes, formats, exit codes."""

import json

import pytest

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


def test_schreier_enum_with_limit(capsys):
    code, payload = run_json(capsys, "schreier", "enum", "--xi", "1",
                             "--max-value", "4", "--limit", "3")
    assert code == 0
    assert payload["count"] == 8
    assert payload["sets"] == ["", "1", "2"]


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


def test_avg_validate_rejects_a_malformed_list_entry(capsys):
    code, out, err = run(capsys, "avg", "validate",
                         "--seq", '[{"entries":{"1":"1"}},[]]')
    assert code == 2 and out == ""
    assert err.startswith("error:")


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


def test_norm_rejects_entries_that_are_not_an_object(capsys):
    code, out, err = run(capsys, "norm", "--space", "schreier", "--xi", "1",
                         "--vec", '{"entries":[1,2]}')
    assert code == 2 and out == ""
    assert err.startswith("error:")


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


def test_quantity_sm_verbatim_shape(capsys):
    code, payload = run_json(capsys, "quantity", "sm", "--xi", "2",
                             "--space", "schreier", "--N", "14")
    assert code == 0
    assert payload["value"] == "1"
    assert payload["direction"] == "upper_bound"
    assert payload["witness"] == "1;1"


def test_quantity_fdelta(capsys):
    code, payload = run_json(capsys, "quantity", "fdelta", "--space-xi", "1",
                             "--delta", "1", "--N", "3")
    assert code == 0
    assert payload["hit_sets"] == ["1", "2", "2,3", "3"]
    assert payload["labels"] == ["sum[1]", "sum[2]", "sum[2,3]", "sum[3]"]


def test_quantity_large_exit_codes(capsys):
    code, payload = run_json(capsys, "quantity", "large", "--xi", "1",
                             "--c", "1", "--N", "6")
    assert code == 0 and payload["ok"] is True

    code, payload = run_json(capsys, "quantity", "large", "--xi", "1",
                             "--c", "11/10", "--N", "6")
    assert code == 1
    assert payload["ok"] is False and payload["certificate"] == "1"


def test_quantity_large_refuses_past_the_budget(capsys):
    code, out, err = run(capsys, "quantity", "large", "--xi", "2",
                         "--c", "9/10", "--N", "20")
    assert code == 2
    assert err.startswith("budget exceeded:")


def test_quantity_prop_formula(capsys):
    code, out, err = run(capsys, "quantity", "prop-formula",
                         "--l", "10", "--c", "1/2")
    assert code == 0
    lines = out.splitlines()
    assert "main = 945/1111" in lines
    assert "vanishing = 9/1111" in lines


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


def test_text_output_sorts_keys(capsys):
    code, out, err = run(capsys, "avg", "size", "--xi", "1", "--n", "4")
    assert code == 0
    keys = [line.split(" = ")[0] for line in out.splitlines()]
    assert keys == sorted(keys)
    assert "size = 8" in out
