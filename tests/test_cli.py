import json
import time

import pytest

from ncvanish import certify, cli
from ncvanish.cli import dispatch
from ncvanish.evaluate import weyl_pair
from ncvanish.linalg import rational_text
from ncvanish.poly import format_poly
from ncvanish.serialize import load_document, save_document, verify_certificate

from conftest import standard_poly


def run(argv):
    return dispatch(list(argv))


def load_cert(path):
    return load_document(str(path))


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_member_left_member(tmp_path):
    rc = run(["member-left", "-d", "2", "-f", "x1", "-g", "x2*x1"])
    assert rc == 0
    doc = load_cert(tmp_path / "member-left.cert.json")
    assert doc["certificate"]["kind"] == "left_combination"
    assert verify_certificate(doc).ok
    record = json.loads((tmp_path / "member-left.cert.json.run.json").read_text())
    assert record["command"] == "member-left"
    assert record["outcome"] == "member"
    assert record["wall_time_s"] >= 0
    assert all(len(v) == 64 for v in record["inputs"].values())


def test_member_left_witness_still_decides(tmp_path):
    rc = run(["member-left", "-d", "2", "-f", "x1*x2+1", "-g", "x1*x2*x1+x1"])
    assert rc == 0
    doc = load_cert(tmp_path / "member-left.cert.json")
    assert doc["certificate"]["kind"] == "left_witness"
    assert verify_certificate(doc).ok


def test_member_span_non_member_exit_code(tmp_path):
    # a non-member always gets a verified weak witness, never an Unknown
    rc = run(["member-span", "-d", "2", "-f", "x1", "-g", "x1*x1", "--seed", "0"])
    assert rc == 0
    doc = load_cert(tmp_path / "member-span.cert.json")
    assert doc["certificate"]["kind"] == "span_witness"
    assert verify_certificate(doc).ok


def test_member_span_ignores_the_seed(tmp_path):
    argv = ["member-span", "-d", "2", "-f", "x1", "-f", "x2*x1", "-g", "x1*x2 + x2"]
    for name, seed in (("a.json", ["--seed", "0"]), ("b.json", ["--seed", "1"]), ("c.json", [])):
        assert run(argv + seed + ["--out", name]) == 0
    docs = [(tmp_path / name).read_bytes() for name in ("a.json", "b.json", "c.json")]
    assert docs[0] == docs[1] == docs[2]
    assert verify_certificate(load_cert(tmp_path / "c.json")).ok


def test_seed_is_mandatory_for_randomized_commands():
    with pytest.raises(SystemExit) as ei:
        run(["member-comp", "-d", "1", "-f", "x1", "-g", "x1*x1"])
    assert ei.value.code == 1


def test_consecutive_dispatches_share_one_parser(tmp_path):
    assert run(["member-left", "-d", "2", "-f", "x1", "-f", "x2", "-g", "x1", "--out", "a.json"]) == 0
    assert run(["member-left", "-d", "2", "-f", "x1", "-g", "x1", "--out", "b.json"]) == 0
    assert load_cert(tmp_path / "a.json")["problem"]["generators"] == ["x1", "x2"]
    assert load_cert(tmp_path / "b.json")["problem"]["generators"] == ["x1"]
    with pytest.raises(SystemExit) as ei:
        run(["assoc", "-d", "2", "-p", "x1", "-q", "x2"])
    assert ei.value.code == 1
    assert cli._build_parser() is cli._build_parser()


def test_composition_of_high_degree_is_fast(tmp_path, monkeypatch):
    # the powers of x1 are triangular by lead word: one reduction pass, no
    # elimination, and the 2000-letter words evaluate without recursion
    def no_insert(self, row, expr):
        raise AssertionError("composition inserted a row")

    monkeypatch.setattr(certify.WordRREF, "insert", no_insert)
    for target, kind in (("x1^2000 + x2", "composition_not_member"),
                         ("x1^2000 + 3*x1", "composition")):
        started = time.perf_counter()
        assert run(["member-comp", "-d", "2", "-f", "x1", "-g", target, "--seed", "0",
                    "--force"]) == 0
        doc = load_cert(tmp_path / "member-comp.cert.json")
        assert doc["certificate"]["kind"] == kind
        assert verify_certificate(doc).ok
        assert time.perf_counter() - started < 2


def test_composition_check_of_high_degree_is_fast(tmp_path):
    # x1^0..x1^10000 are built one at a time, and products skip the letter
    # checks of NcPoly(d, terms), which took most of the time
    coefficients = ["0"] * 10001
    coefficients[1], coefficients[10000] = "3", "1"
    doc = {"format": "ncvanish-certificate", "version": 1,
           "problem": {"d": 2, "inner": "x1", "target": "x1^10000 + 3*x1"},
           "certificate": {"kind": "composition", "coefficients": coefficients,
                           "verification": "verified"}}
    (tmp_path / "comp.json").write_text(json.dumps(doc))
    started = time.perf_counter()
    assert run(["verify-cert", "comp.json"]) == 0
    assert time.perf_counter() - started < 1.5


def test_composition_powers_are_bounded(tmp_path, capsys):
    # each power of x1 + x2 doubles its terms: unbounded, both inputs take
    # time growing ~4x per coefficient or degree
    doc = {"format": "ncvanish-certificate", "version": 1,
           "problem": {"d": 2, "inner": "x1 + x2", "target": "0"},
           "certificate": {"kind": "composition", "coefficients": ["0"] * 24,
                           "verification": "verified"}}
    (tmp_path / "forged.json").write_text(json.dumps(doc))
    started = time.perf_counter()
    assert run(["verify-cert", "forged.json"]) == 1
    assert "m + 1 = 1" in capsys.readouterr().out
    assert run(["member-comp", "-d", "2", "-f", "x1 + x2", "-g", "x1^24", "--seed", "0"]) == 1
    assert "MAX_PARSE_TERMS" in capsys.readouterr().err
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("argv", [
    ["member-hom", "-d", "2", "-f", "0", "-g", "x1^24"],
    ["member-left", "-d", "2", "-f", "0", "-g", "x1^13"],
    ["member-left", "-d", "2", "-f", "0", "-g", "x1^10"],
], ids=["hom-degree-24", "left-degree-13", "left-degree-10"])
def test_ideal_witness_past_max_witness_dimension_fails_in_one_line(capsys, argv):
    # every word up to the target degree is a quotient-basis word here
    started = time.perf_counter()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MAX_WITNESS_DIMENSION" in err and err.count("\n") == 1
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("argv", [
    ["member-hom", "-d", "2", "-f", "x1*x1", "-g", "x2^14"],
    ["member-left", "-d", "2", "-f", "x1", "-g", "x2^15"],
], ids=["hom-x2^14", "left-x2^15"])
def test_ideal_store_reaches_the_witness_cap_in_seconds(capsys, argv):
    # tens of thousands of monomial multiples: each insert reduces one row,
    # it does not revisit the stored ones
    started = time.perf_counter()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MAX_WITNESS_DIMENSION" in err and err.count("\n") == 1
    assert time.perf_counter() - started < 3


def test_left_member_over_a_long_generator_is_fast(tmp_path):
    started = time.perf_counter()
    assert run(["member-left", "-d", "2", "-f", "x1", "-f", "x2^14", "-g", "x1"]) == 0
    doc = load_cert(tmp_path / "member-left.cert.json")
    assert doc["certificate"]["kind"] == "left_combination"
    assert run(["verify-cert", "member-left.cert.json"]) == 0
    assert time.perf_counter() - started < 3


def test_weak_basis_store_stops_at_its_entry_cap(capsys):
    # x1 times each of the 2^19 words of length 19 would be inserted to
    # reduce the top part of x2^20; the echelon store stops at its cap
    started = time.perf_counter()
    assert run(["member-left", "-d", "2", "-f", "x1", "-f", "x2^20", "-g", "x1"]) == 1
    assert time.perf_counter() - started < 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MAX_SPAN_ENTRIES" in err and err.count("\n") == 1


def test_two_sided_witness_is_capped_by_its_own_size(tmp_path):
    # 511 words up to degree 8, of which 45 are not leading words of the ideal
    argv = ["member-hom", "-d", "2", "-f", "x1*x2 - x2*x1", "-g", "x1^4*x2^4"]
    assert run(argv) == 0
    doc = load_cert(tmp_path / "member-hom.cert.json")
    assert doc["certificate"]["kind"] == "hom_witness"
    assert doc["certificate"]["point"]["n"] == 45
    assert run(["verify-cert", "member-hom.cert.json"]) == 0


def test_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as ei:
        run(["frobnicate"])
    assert ei.value.code == 1


def test_polynomial_argument_may_start_with_minus(tmp_path, capsys):
    # format_poly prints -3*x1, so printed output must be accepted back
    assert run(["member-left", "-d", "2", "-f", "-3*x1", "-g", "x1"]) == 0
    doc = load_cert(tmp_path / "member-left.cert.json")
    assert doc["problem"]["generators"] == ["-3*x1"]
    assert doc["certificate"]["cofactors"] == ["-1/3"]
    # an option where the value belongs is a usage error, not a polynomial
    with pytest.raises(SystemExit) as exc:
        run(["assoc", "--seed", "1", "-d", "2", "-p", "x1", "-q", "--n-max", "3"])
    assert exc.value.code == 1
    assert "argument -q: expected one argument" in capsys.readouterr().err


def test_parse_error_exits_one(tmp_path, capsys):
    rc = run(["member-left", "-d", "2", "-f", "x9", "-g", "x1"])
    assert rc == 1
    assert not (tmp_path / "member-left.cert.json").exists()


def test_overwrite_guard(tmp_path):
    argv = ["factor", "-d", "2", "-f", "x1*x2*x1+x1"]
    assert run(argv) == 0
    before = (tmp_path / "factor.cert.json").read_bytes()
    assert run(argv) == 1  # refuses to clobber
    assert (tmp_path / "factor.cert.json").read_bytes() == before
    assert run(argv + ["--force"]) == 0


def test_eval_against_point_file(tmp_path):
    point_path = tmp_path / "point.json"
    save_document(weyl_pair(3).to_json(), str(point_path))
    rc = run(["eval", "-d", "2", "-f", "1 - (x1*x2 - x2*x1)", "--point", str(point_path)])
    assert rc == 0
    doc = load_cert(tmp_path / "eval.cert.json")
    assert verify_certificate(doc).ok
    value = doc["certificate"]["value"]
    assert value[2][2] == "3"
    assert all(value[i][j] == "0" for i in range(3) for j in range(3) if (i, j) != (2, 2))


def test_eval_value_past_the_int_str_digit_limit(tmp_path):
    # 3^10000 has 4772 digits, more than str() of an int writes by default
    (tmp_path / "p3.json").write_text(json.dumps({"n": 1, "d": 1, "matrices": [[["3"]]]}))
    assert run(["eval", "-d", "1", "-f", "x1^10000", "--point", "p3.json"]) == 0
    value = load_cert(tmp_path / "eval.cert.json")["certificate"]["value"][0][0]
    assert len(value) == 4772 and value.startswith("1631350185") and value.endswith("6552200001")
    assert run(["verify-cert", "eval.cert.json"]) == 0


def test_eval_of_a_coefficient_past_the_int_str_digit_limit(tmp_path, capsys):
    # 7^6000 has 5071 digits: the problem's polynomial is written and re-read
    (tmp_path / "p3.json").write_text(json.dumps({"n": 1, "d": 1, "matrices": [[["3"]]]}))
    assert run(["eval", "-d", "1", "-f", "7^6000*x1", "--point", "p3.json"]) == 0
    doc = load_cert(tmp_path / "eval.cert.json")
    assert len(doc["problem"]["polynomial"]) == 5074
    assert doc["certificate"]["value"][0][0] == rational_text(3 * 7**6000)
    capsys.readouterr()
    assert run(["verify-cert", "eval.cert.json"]) == 0
    assert capsys.readouterr().out.startswith("VERIFIED [eval]")


def test_point_entry_written_as_a_long_json_integer(tmp_path, capsys):
    # json.load reads integer literals as string entries are read
    digits = "3" * 5000
    for name, entry in (("int", digits), ("str", f'"{digits}"')):
        (tmp_path / f"{name}.json").write_text(f'{{"n": 1, "d": 1, "matrices": [[[{entry}]]]}}')
        assert run(["eval", "-d", "1", "-f", "x1^2 + 1", "--point", f"{name}.json",
                    "--out", f"{name}.cert.json"]) == 0
    assert load_cert(tmp_path / "int.cert.json") == load_cert(tmp_path / "str.cert.json")
    capsys.readouterr()
    (tmp_path / "long.json").write_text(f'{{"n": 1, "d": 1, "matrices": [[[{"3" * 40000}]]]}}')
    assert run(["eval", "-d", "1", "-f", "x1", "--point", "long.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MAX_ENTRY_BITS" in err and err.count("\n") == 1


def test_eval_dimension_mismatch(tmp_path):
    point_path = tmp_path / "point.json"
    save_document(weyl_pair(2).to_json(), str(point_path))
    rc = run(["eval", "-d", "3", "-f", "x3", "--point", str(point_path)])
    assert rc == 1


def test_classify_with_direction_vectors(tmp_path):
    point_path = tmp_path / "point.json"
    save_document(weyl_pair(2).to_json(), str(point_path))
    rc = run(
        ["classify", "-d", "2", "-f", "x1", "-g", "x2", "--point", str(point_path),
         "--left", "1,0", "--right", "0,1"]
    )
    assert rc == 0
    doc = load_cert(tmp_path / "classify.cert.json")
    assert doc["certificate"]["kind"] == "classification"
    assert verify_certificate(doc).ok


def test_classification_stored_values_are_checked(tmp_path):
    save_document(weyl_pair(2).to_json(), str(tmp_path / "point.json"))
    assert run(["classify", "-d", "2", "-f", "x1", "-g", "x2", "--point", "point.json"]) == 0
    doc = load_cert(tmp_path / "classify.cert.json")
    assert verify_certificate(doc).ok
    # right memberships, wrong values
    for field, value in (("f_dets", ["12345"]), ("f_ranks", [99]), ("g_rank", 99),
                         ("g_trace", "7"), ("f_traces", ["1/2"]), ("g_det", "5")):
        forged = json.loads(json.dumps(doc))
        forged["certificate"][field] = value
        res = verify_certificate(forged)
        assert not res.ok and "dets, traces and ranks" in res.detail, field


def test_classification_vectors_must_fit_the_point(tmp_path):
    # without generators every membership holds vacuously, whatever the vectors
    save_document(weyl_pair(2).to_json(), str(tmp_path / "point.json"))
    assert run(["classify", "-d", "2", "-f", "x1", "-g", "x2", "--point", "point.json",
                "--left", "1,0", "--right", "0,1"]) == 0
    doc = load_cert(tmp_path / "classify.cert.json")
    doc["problem"]["generators"] = []
    doc["certificate"]["memberships"] = dict.fromkeys(doc["certificate"]["memberships"], True)
    for field in ("f_dets", "f_traces", "f_ranks"):
        doc["certificate"][field] = []
    assert verify_certificate(doc).ok
    for name in ("left", "right"):
        forged = json.loads(json.dumps(doc))
        forged["problem"][name] = forged["problem"][name] + ["0"]
        res = verify_certificate(forged)
        assert not res.ok and f"{name} vector length" in res.detail, name


def test_verify_cert_round_trip(tmp_path):
    assert run(["assoc", "-d", "2", "-p", "x1*x2+1", "-q", "x2*x1+1", "--seed", "0"]) == 0
    assert run(["verify-cert", "assoc.cert.json"]) == 0
    # tamper and watch it fail
    doc = json.loads((tmp_path / "assoc.cert.json").read_text())
    doc["certificate"]["p_mat"][0][0] = "x2"
    (tmp_path / "assoc.cert.json").write_text(json.dumps(doc))
    assert run(["verify-cert", "assoc.cert.json"]) == 1


def test_verify_cert_fails_in_one_line_on_bad_documents(tmp_path, capsys):
    # no certificate at all, and a target whose expansion exceeds the parse limits
    (tmp_path / "empty.json").write_text(
        '{"format": "ncvanish-certificate", "version": 1, "problem": {}}'
    )
    assert run(["verify-cert", "empty.json"]) == 1
    assert capsys.readouterr().out.startswith("FAILED")
    doc = {"format": "ncvanish-certificate", "version": 1,
           "problem": {"d": 1, "generators": ["x1"], "target": "x1^20000"},
           "certificate": {"kind": "left_combination", "cofactors": ["x1^19999"]}}
    (tmp_path / "huge.json").write_text(json.dumps(doc))
    assert run(["verify-cert", "huge.json"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAILED") and "MAX_PARSE_DEGREE" in out and out.count("\n") == 1


def test_verify_cert_on_garbage_file(tmp_path):
    (tmp_path / "junk.json").write_text("{not json")
    assert run(["verify-cert", "junk.json"]) == 1
    assert run(["verify-cert", "missing.json"]) == 1


def test_deeply_nested_json_fails_in_one_line(tmp_path, capsys):
    # 3,000 nested arrays are deeper than the JSON decoder's recursion limit
    (tmp_path / "deep.json").write_text("[" * 3000)
    for argv in (["verify-cert", "deep.json"],
                 ["eval", "-d", "1", "-f", "x1", "--point", "deep.json"],
                 ["classify", "-d", "1", "-f", "x1", "-g", "1", "--point", "deep.json"]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nesting" in err and err.count("\n") == 1


@pytest.mark.parametrize("point, extra", [
    ('{"n": 1}', []),
    ("[1]", []),
    ('{"n": 1, "d": 1, "matrices": [[[[1]]]]}', []),
    ('{"n": 1, "d": 1, "matrices": [[["1/0"]]]}', []),
    ('{"n": 1, "d": 1, "matrices": [[["1"]]]}', ["--left", "1/0"]),
], ids=["missing-keys", "not-an-object", "nested-entry", "zero-denominator", "vector-zero-denominator"])
def test_malformed_point_or_vector_fails_in_one_line(tmp_path, capsys, point, extra):
    (tmp_path / "p.json").write_text(point)
    command = ["classify", "-g", "1"] if extra else ["eval"]
    assert run(command + ["-d", "1", "-f", "x1", "--point", "p.json"] + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_classify_refuses_left_without_right(tmp_path, capsys):
    save_document(weyl_pair(3).to_json(), str(tmp_path / "w3.json"))
    argv = ["classify", "-d", "2", "-f", "x1", "-g", "x2", "--point", "w3.json"]
    assert run(argv + ["--left", "1,2,3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--right" in err and err.count("\n") == 1
    assert not (tmp_path / "classify.cert.json").exists()


@pytest.mark.parametrize("vectors, name", [
    (["--left", "1,2", "--right", "1,0,0"], "--left"),
    (["--left", "1,2,3", "--right", "1,0"], "--right"),
    (["--right", "1,0,0,0"], "--right"),
], ids=["short-left", "short-right", "long-right"])
def test_classify_checks_vector_lengths(tmp_path, capsys, vectors, name):
    save_document(weyl_pair(3).to_json(), str(tmp_path / "w3.json"))
    argv = ["classify", "-d", "2", "-f", "x1", "-g", "x2", "--point", "w3.json"]
    assert run(argv + vectors) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} has") and "3x3" in err and err.count("\n") == 1


HUGE_ENTRY = "1e10000000"  # 11 bytes; Fraction would build a 33-million-bit integer


@pytest.mark.parametrize("point, extra", [
    ({"n": 1, "d": 1, "matrices": [[[HUGE_ENTRY]]]}, []),
    ({"n": 1, "d": 1, "matrices": [[["1"]]]}, ["--right", HUGE_ENTRY]),
], ids=["point-file", "right-vector"])
def test_entry_past_max_entry_bits_fails_in_one_line(tmp_path, capsys, point, extra):
    (tmp_path / "p.json").write_text(json.dumps(point))
    command = ["classify", "-g", "1"] if extra else ["eval"]
    started = time.perf_counter()
    assert run(command + ["-d", "1", "-f", "x1", "--point", "p.json"] + extra) == 1
    assert time.perf_counter() - started < 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MAX_ENTRY_BITS" in err and err.count("\n") == 1


@pytest.mark.parametrize("problem, cert", [
    ({"d": 1, "polynomial": "x1", "point": {"n": 1, "d": 1, "matrices": [[[HUGE_ENTRY]]]}},
     {"kind": "eval", "value": [["1"]]}),
    ({"d": 1, "generators": ["x1"], "target": "x1"},
     {"kind": "span_coefficients", "coefficients": [HUGE_ENTRY]}),
], ids=["point-entry", "scalar"])
def test_verify_cert_entry_past_max_entry_bits_fails_in_one_line(tmp_path, capsys, problem, cert):
    doc = {"format": "ncvanish-certificate", "version": 1, "problem": problem, "certificate": cert}
    (tmp_path / "huge.json").write_text(json.dumps(doc))
    started = time.perf_counter()
    assert run(["verify-cert", "huge.json"]) == 1
    assert time.perf_counter() - started < 2
    out = capsys.readouterr().out
    assert out.startswith("FAILED") and "MAX_ENTRY_BITS" in out and out.count("\n") == 1


def test_identity_of_long_words_verifies(tmp_path, capsys):
    # each word is longer than the interpreter's recursion limit
    assert run(["pi", "-d", "2", "-f", "x1^1000*x2 - x2*x1^1000", "-n", "1"]) == 0
    capsys.readouterr()
    assert run(["verify-cert", "pi.cert.json"]) == 0
    assert capsys.readouterr().out.startswith("VERIFIED")


@pytest.mark.parametrize("argv, seconds", [
    (["-d", "2", "-f", "x1^1000*x2 - x2*x1^1000", "-n", "2"], 8),
    (["-d", "1", "-f", "x1", "-n", "3000"], 1),
], ids=["long-words", "large-n"])
def test_pi_past_its_cap_fails_in_one_line(capsys, argv, seconds):
    # the first runs for minutes and the second builds 9 million generic
    # entries unless the work is charged to PI_MAX_OPS before it is done
    started = time.perf_counter()
    assert run(["pi"] + argv) == 1
    assert time.perf_counter() - started < seconds
    err = capsys.readouterr().err
    assert err.startswith("error:") and "PI_MAX_OPS = 10000000" in err and err.count("\n") == 1


def test_identity_of_s6_on_3x3_verifies_fast(tmp_path, capsys):
    # Amitsur-Levitzki: s6 vanishes on 3x3 matrices
    assert run(["pi", "-d", "6", f"-f={format_poly(standard_poly(6))}", "-n", "3"]) == 0
    started = time.perf_counter()
    assert run(["verify-cert", "pi.cert.json"]) == 0
    assert time.perf_counter() - started < 2
    assert capsys.readouterr().out.splitlines()[-1].startswith("VERIFIED [pi_result]")


def test_pi_result_of_s4_on_3x3_with_flipped_value_fails(tmp_path, capsys):
    assert run(["pi", "-d", "4", f"-f={format_poly(standard_poly(4))}", "-n", "3"]) == 0
    doc = load_cert(tmp_path / "pi.cert.json")
    assert doc["certificate"]["value"] is False
    doc["certificate"]["value"] = True
    save_document(doc, "flipped.json")
    capsys.readouterr()
    assert run(["verify-cert", "flipped.json"]) == 1
    assert capsys.readouterr().out.startswith("FAILED [pi_result] symbolic expansion has a nonzero entry")


def test_assoc_unknown_exit_code(tmp_path):
    rc = run(
        ["assoc", "-d", "2", "-p", "x1*x2+1", "-q", "x2*x1+1",
         "--seed", "0", "--chain-depth", "0", "--n-max", "1", "--samples", "2"]
    )
    assert rc == 2
    doc = load_cert(tmp_path / "assoc.cert.json")
    assert doc["certificate"]["kind"] == "assoc_unknown"


def test_detzero_yes(tmp_path):
    rc = run(["detzero", "-d", "2", "-f", "x1*x2+1", "-g", "x2*x1+1", "--seed", "0"])
    assert rc == 0
    doc = load_cert(tmp_path / "detzero.cert.json")
    assert doc["certificate"]["kind"] == "detzero_yes"
    assert verify_certificate(doc).ok


def test_lowrank_exact_and_report(tmp_path):
    rc = run(
        ["lowrank", "-d", "1", "-f", "x1", "-n", "2", "-r", "0",
         "--seed", "0", "--restarts", "2"]
    )
    assert rc == 0
    doc = load_cert(tmp_path / "lowrank.cert.json")
    assert doc["certificate"]["kind"] == "lowrank_exact"
    assert verify_certificate(doc).ok

    rc = run(
        ["lowrank", "-d", "2", "-f", "1", "-n", "2", "-r", "1",
         "--seed", "0", "--restarts", "1", "--max-iters", "50", "--force"]
    )
    assert rc == 2
    doc = load_cert(tmp_path / "lowrank.cert.json")
    assert doc["certificate"]["kind"] == "lowrank_report"


def test_paper_witnesses_command(tmp_path):
    assert run(["paper-witnesses"]) == 0
    doc = load_cert(tmp_path / "paper-witnesses.cert.json")
    assert doc["certificate"]["kind"] == "reference_witnesses"
    assert verify_certificate(doc).ok


def test_weyl_and_rankprofile(tmp_path):
    assert run(["weyl", "-n", "4"]) == 0
    assert verify_certificate(load_cert(tmp_path / "weyl.cert.json")).ok
    rc = run(
        ["rankprofile", "-d", "2", "-f", "1 - (x1*x2 - x2*x1)",
         "--n-min", "2", "--n-max", "3", "--samples", "4", "--seed", "1"]
    )
    assert rc == 0
    doc = load_cert(tmp_path / "rankprofile.cert.json")
    assert doc["certificate"]["table"] == {"2": "1", "3": "1"} or doc["certificate"][
        "table"
    ] == {"2": 1, "3": 1}
    assert verify_certificate(doc).ok


def test_member_trace_and_hom_and_comp(tmp_path):
    assert run(["member-trace", "-d", "2", "-f", "x1*x2", "-g", "x2*x1"]) == 0
    assert verify_certificate(load_cert(tmp_path / "member-trace.cert.json")).ok
    assert run(["member-hom", "-d", "2", "-f", "x1", "-g", "x1*x1"]) == 0
    assert verify_certificate(load_cert(tmp_path / "member-hom.cert.json")).ok
    assert run(["member-comp", "-d", "1", "-f", "x1", "-g", "x1*x1+2*x1+1", "--seed", "0"]) == 0
    assert verify_certificate(load_cert(tmp_path / "member-comp.cert.json")).ok


def test_seeded_runs_are_reproducible(tmp_path):
    argv = ["member-span", "-d", "2", "-f", "x1", "-g", "x1*x1", "--seed", "3"]
    assert run(argv + ["--out", "a.json"]) == 0
    assert run(argv + ["--out", "b.json"]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_custom_out_path(tmp_path):
    rc = run(["factor", "-d", "2", "-f", "x1*x1", "--out", "sub.cert.json"])
    assert rc == 0
    assert (tmp_path / "sub.cert.json").exists()
    assert (tmp_path / "sub.cert.json.run.json").exists()
