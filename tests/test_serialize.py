import copy
import json
import time
from fractions import Fraction

from ncvanish import certify, factorization, lowrank
from ncvanish.evaluate import (
    MatTuple,
    eval_poly,
    nonvanishing_point,
    pi_test,
    weyl_pair,
)
from ncvanish.linalg import QMatrix
from ncvanish.poly import NcPoly, commutator, format_poly, parse
from ncvanish.serialize import (
    FORMAT_NAME,
    FORMAT_VERSION,
    encode_certificate,
    load_document,
    make_document,
    save_document,
    verify_certificate,
)

from conftest import standard_poly


def gen_problem(gens, target, d):
    return {
        "d": d,
        "generators": [format_poly(f) for f in gens],
        "target": format_poly(target),
    }


def roundtrip(doc, tmp_path):
    path = tmp_path / "cert.json"
    save_document(doc, str(path))
    return load_document(str(path))


def check(problem, cert_obj, expect_kind, tmp_path):
    doc = make_document(problem, encode_certificate(cert_obj))
    assert doc["format"] == FORMAT_NAME
    assert doc["version"] == FORMAT_VERSION
    loaded = roundtrip(doc, tmp_path)
    res = verify_certificate(loaded)
    assert res.ok, f"{expect_kind}: {res.detail}"
    assert res.kind == expect_kind
    return loaded


# ---------------------------------------------------------------------------
# positive round trips, one per certificate family


def test_left_combination_round_trip(tmp_path):
    gens = [parse("x1", 2)]
    target = parse("x2*x1", 2)
    res = certify.left_ideal_membership(gens, target)
    check(gen_problem(gens, target, 2), res, "left_combination", tmp_path)


def test_left_witness_round_trip(tmp_path):
    gens = [parse("x1*x2 + 1", 2)]
    target = parse("x1*x2*x1 + x1", 2)
    res = certify.left_ideal_membership(gens, target)
    check(gen_problem(gens, target, 2), res, "left_witness", tmp_path)


def test_hom_round_trips(tmp_path):
    gens = [parse("x1", 2)]
    target = parse("x1*x1", 2)
    res = certify.hom_ideal_membership(gens, target)
    check(gen_problem(gens, target, 2), res, "hom_combination", tmp_path)
    res2 = certify.hom_ideal_membership([parse("x1*x1", 2)], parse("x1", 2))
    check(gen_problem([parse("x1*x1", 2)], parse("x1", 2), 2), res2, "hom_witness", tmp_path)


def test_trace_round_trips(tmp_path):
    gens = [parse("x1*x2", 2)]
    target = parse("x2*x1", 2)
    res = certify.trace_membership(gens, target)
    check(gen_problem(gens, target, 2), res, "trace_combination", tmp_path)
    res2 = certify.trace_membership([parse("x1", 2)], parse("x2", 2))
    check(gen_problem([parse("x1", 2)], parse("x2", 2), 2), res2, "trace_not_member", tmp_path)


def test_span_round_trips(tmp_path):
    gens = [parse("x1", 2), parse("x2", 2)]
    target = parse("2*x1 - 3*x2", 2)
    res = certify.span_membership(gens, target, seed=0)
    check(gen_problem(gens, target, 2), res, "span_coefficients", tmp_path)

    res2 = certify.span_membership([parse("x1", 2)], parse("x1*x1", 2), seed=1)
    check(gen_problem([parse("x1", 2)], parse("x1*x1", 2), 2), res2, "span_witness", tmp_path)

    # no seed: the witness is built from the separating functional
    res3 = certify.span_membership([parse("x1", 2)], parse("x1*x1", 2))
    check(gen_problem([parse("x1", 2)], parse("x1*x1", 2), 2), res3, "span_witness", tmp_path)


def test_composition_round_trips(tmp_path):
    inner = parse("x1", 1)
    target = parse("x1*x1 + 2*x1 + 1", 1)
    res = certify.in_univariate_subalgebra(target, inner, seed=0)
    problem = {"d": 1, "inner": format_poly(inner), "target": format_poly(target)}
    check(problem, res, "composition", tmp_path)

    res2 = certify.in_univariate_subalgebra(parse("x2", 2), parse("x1", 2), seed=0)
    problem2 = {"d": 2, "inner": "x1", "target": "x2"}
    check(problem2, res2, "composition_not_member", tmp_path)
    # the embedded eigenvector evidence also stands alone
    assert res2.witness is not None
    check(problem2, res2.witness, "composition_witness", tmp_path)


def test_factorization_round_trip(tmp_path):
    f = parse("x1*x2*x1 + x1", 2)
    opts = factorization.factor(f)
    problem = {"d": 2, "polynomial": format_poly(f), "max_degree": 10}
    check(problem, opts, "factorization", tmp_path)


def test_assoc_round_trips(tmp_path):
    p, q = parse("x1*x2 + 1", 2), parse("x2*x1 + 1", 2)
    res = factorization.stable_assoc(p, q)
    problem = {"d": 2, "p": format_poly(p), "q": format_poly(q)}
    check(problem, res, "assoc_yes", tmp_path)

    res2 = factorization.stable_assoc(parse("x1", 2), parse("x2*x1 + 1", 2))
    problem2 = {"d": 2, "p": "x1", "q": "1 + x2*x1"}
    check(problem2, res2, "assoc_no", tmp_path)

    res3 = factorization.stable_assoc(p, q, chain_depth=0, n_max=2, samples_per_size=3)
    check(problem, res3, "assoc_unknown", tmp_path)


def test_detzero_round_trips(tmp_path):
    res = factorization.detzero_inclusion([parse("x1*x2 + 1", 2)], parse("x2*x1 + 1", 2), seed=0)
    problem = gen_problem([parse("x1*x2 + 1", 2)], parse("x2*x1 + 1", 2), 2)
    check(problem, res, "detzero_yes", tmp_path)

    res2 = factorization.detzero_inclusion(
        [parse("x1*x2*x1 + x1", 2)], parse("x2*x1 + 1", 2), seed=0
    )
    problem2 = gen_problem([parse("x1*x2*x1 + x1", 2)], parse("x2*x1 + 1", 2), 2)
    check(problem2, res2, "detzero_no", tmp_path)

    res3 = factorization.detzero_inclusion(
        [parse("x1*x2 + 1", 2)], parse("x2*x1 + 1", 2),
        chain_depth=0, n_max=1, samples_per_size=2, seed=0,
    )
    check(problem, res3, "detzero_unknown", tmp_path)


# ---------------------------------------------------------------------------
# tampering must be detected


def tampered_fails(doc, mutate):
    bad = copy.deepcopy(doc)
    mutate(bad)
    res = verify_certificate(bad)
    assert not res.ok
    return res


def test_tampered_left_combination_rejected(tmp_path):
    gens = [parse("x1", 2)]
    target = parse("x2*x1", 2)
    res = certify.left_ideal_membership(gens, target)
    doc = check(gen_problem(gens, target, 2), res, "left_combination", tmp_path)
    tampered_fails(doc, lambda d: d["certificate"]["cofactors"].__setitem__(0, "x1"))
    # changing the problem must also break the stored combination
    tampered_fails(doc, lambda d: d["problem"].__setitem__("target", "x1*x1"))


def test_tampered_trace_combination_rejected(tmp_path):
    gens = [parse("x1*x2", 2)]
    target = parse("x2*x1", 2)
    res = certify.trace_membership(gens, target)
    doc = check(gen_problem(gens, target, 2), res, "trace_combination", tmp_path)
    tampered_fails(doc, lambda d: d["certificate"]["lambdas"].__setitem__(0, "2"))


def test_trace_not_member_functionals_checked(tmp_path):
    gens = [parse("x1*x2 - x2*x3", 3), parse("x3^2 + 2", 3)]
    target = parse("x1*x3*x2 + x3", 3)
    res = certify.trace_membership(gens, target)
    doc = check(gen_problem(gens, target, 3), res, "trace_not_member", tmp_path)
    tampered_fails(doc, lambda d: d["certificate"]["functionals"].__setitem__(0, "1"))
    tampered_fails(doc, lambda d: d["certificate"]["functionals"].__setitem__(1, "2*x1*x3*x2"))
    # x2*x1 is x1*x2 plus a commutator: a tracial member, so no functional
    # can separate it, with or without evidence
    forged = make_document(
        gen_problem([parse("x1*x2", 2)], parse("x2*x1", 2), 2),
        {"kind": "trace_not_member", "verification": "checked"},
    )
    assert not verify_certificate(forged).ok
    tampered_fails(forged, lambda d: d["certificate"].__setitem__("functionals", ["1", "x1*x2"]))


def test_tampered_assoc_yes_rejected(tmp_path):
    p, q = parse("x1*x2 + 1", 2), parse("x2*x1 + 1", 2)
    res = factorization.stable_assoc(p, q)
    problem = {"d": 2, "p": format_poly(p), "q": format_poly(q)}
    doc = check(problem, res, "assoc_yes", tmp_path)
    tampered_fails(doc, lambda d: d["certificate"]["p_mat"][0].__setitem__(0, "x2"))


def test_tampered_witness_rejected(tmp_path):
    gens = [parse("x1*x2 + 1", 2)]
    target = parse("x1*x2*x1 + x1", 2)
    res = certify.left_ideal_membership(gens, target)
    doc = check(gen_problem(gens, target, 2), res, "left_witness", tmp_path)

    def zero_vector(d):
        size = len(d["certificate"]["vector"])
        d["certificate"]["vector"] = ["0"] * size

    tampered_fails(doc, zero_vector)


def test_stored_values_compared_as_numbers(tmp_path):
    # a value claim stores its answer; the verifier reads it as numbers
    point = weyl_pair(2)
    f = parse("x1*x2", 2)
    problem = {"d": 2, "polynomial": format_poly(f), "point": point.to_json()}
    value = [[str(e) for e in row] for row in eval_poly(f, point).entries]
    doc = roundtrip(make_document(problem, {"kind": "eval", "value": value,
                                            "verification": "verified"}), tmp_path)

    def rewrite(entry):  # the same number, not in str(Fraction) form
        value = Fraction(entry)
        return 0 if value == 0 else f"{2 * value.numerator}/{2 * value.denominator}"

    doc["certificate"]["value"] = [[rewrite(e) for e in row] for row in doc["certificate"]["value"]]
    assert doc["certificate"]["value"] == [["2/2", 0], [0, 0]]
    assert verify_certificate(doc).ok
    tampered_fails(doc, lambda d: d["certificate"]["value"][0].__setitem__(0, "x1"))


def test_tampered_factorization_rejected(tmp_path):
    f = parse("x1*x2*x1 + x1", 2)
    opts = factorization.factor(f)
    problem = {"d": 2, "polynomial": format_poly(f), "max_degree": 10}
    doc = check(problem, opts, "factorization", tmp_path)
    tampered_fails(doc, lambda d: d["certificate"]["options"][0]["factors"].__setitem__(0, "x2"))


# ---------------------------------------------------------------------------
# structural failure modes


def test_unknown_kind_rejected():
    doc = make_document({"d": 1}, {"kind": "no-such-kind"})
    res = verify_certificate(doc)
    assert not res.ok
    assert "unknown" in res.detail.lower()


def test_malformed_certificate_reports_crash():
    doc = make_document({"d": 2}, {"kind": "left_combination"})  # missing fields
    res = verify_certificate(doc)
    assert not res.ok
    assert "crash" in res.detail.lower()


def test_document_without_certificate_fails_in_one_line():
    doc = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "problem": {}}
    res = verify_certificate(doc)
    assert not res.ok
    assert "certificate" in res.detail and "\n" not in res.detail


def test_wrong_format_marker_rejected():
    doc = make_document({"d": 1}, {"kind": "eval", "value": [["0"]]})
    doc["format"] = "something-else"
    res = verify_certificate(doc)
    assert not res.ok


def test_document_bytes_stable(tmp_path):
    gens = [parse("x1", 2)]
    target = parse("x2*x1", 2)
    res = certify.left_ideal_membership(gens, target)
    doc = make_document(gen_problem(gens, target, 2), encode_certificate(res))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_document(doc, str(p1))
    save_document(doc, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")
    # keys are sorted so logically equal documents serialize identically
    parsed = json.loads(p1.read_text())
    assert parsed == doc


# ---------------------------------------------------------------------------
# CLI-shaped certificates (built inline by the command layer)


def test_eval_certificate_verifies(tmp_path):
    point = weyl_pair(2)
    f = parse("x1*x2", 2)
    value = eval_poly(f, point)
    problem = {"d": 2, "polynomial": format_poly(f), "point": point.to_json()}
    cert = {
        "kind": "eval",
        "value": [[str(e) for e in row] for row in value.entries],
        "verification": "verified",
    }
    doc = roundtrip(make_document(problem, cert), tmp_path)
    assert verify_certificate(doc).ok
    tampered_fails(doc, lambda d: d["certificate"]["value"][0].__setitem__(0, "99"))


def test_pi_result_certificate_verifies(tmp_path):
    f = standard_poly(4)
    problem = {"d": 4, "polynomial": format_poly(f), "n": 2}
    cert = {"kind": "pi_result", "value": pi_test(f, 2), "verification": "verified"}
    doc = roundtrip(make_document(problem, cert), tmp_path)
    assert verify_certificate(doc).ok
    tampered_fails(doc, lambda d: d["certificate"].__setitem__("value", False))


def test_weyl_certificate_verifies(tmp_path):
    n = 3
    point = weyl_pair(n)
    problem = {"n": n}
    cert = {"kind": "weyl", "point": point.to_json(), "verification": "verified"}
    doc = roundtrip(make_document(problem, cert), tmp_path)
    assert verify_certificate(doc).ok
    wrong = MatTuple([eval_poly(parse("0", 2), point), eval_poly(parse("0", 2), point)])
    tampered_fails(doc, lambda d: d["certificate"].__setitem__("point", wrong.to_json()))


def rankprofile_document(samples):
    f = parse("1", 2) - commutator(NcPoly.var(1, 2), NcPoly.var(2, 2))
    profile = lowrank.rank_profile(f, range(2, 4), samples=4, seed=1)
    problem = {"d": 2, "polynomial": format_poly(f), "sizes": [2, 3], "samples": samples, "seed": 1}
    cert = {
        "kind": "rankprofile",
        "table": {str(n): r for n, (r, _) in profile.items()},
        "points": {str(n): point.to_json() for n, (_, point) in profile.items()},
        "verification": "verified",
    }
    return make_document(problem, cert)


def test_rankprofile_certificate_verifies(tmp_path):
    doc = roundtrip(rankprofile_document(4), tmp_path)
    assert verify_certificate(doc).ok
    tampered_fails(doc, lambda d: d["certificate"]["table"].__setitem__("2", 0))
    tampered_fails(doc, lambda d: d["certificate"].pop("points"))
    res = tampered_fails(doc, lambda d: d["certificate"]["points"].__setitem__(
        "2", d["certificate"]["points"]["3"]))
    assert "expected 2x2" in res.detail


def test_rankprofile_samples_are_metadata():
    # the checker evaluates the stored points and never reads samples
    doc = rankprofile_document(10**9)
    start = time.perf_counter()
    assert verify_certificate(doc).ok
    assert time.perf_counter() - start < 1.0


def test_pi_result_no_carries_its_point(tmp_path):
    f = standard_poly(3)
    point = nonvanishing_point(f, 2)
    problem = {"d": 3, "polynomial": format_poly(f), "n": 2}
    cert = {"kind": "pi_result", "value": False, "point": point.to_json(),
            "verification": "verified"}
    doc = roundtrip(make_document(problem, cert), tmp_path)
    assert verify_certificate(doc).ok
    tampered_fails(doc, lambda d: d["certificate"].__setitem__("value", True))
    tampered_fails(doc, lambda d: d["certificate"].pop("point"))
    # s3 vanishes on commuting matrices, the zero tuple among them
    zero = MatTuple([QMatrix.zeros(2, 2)] * 3)
    res = tampered_fails(doc, lambda d: d["certificate"].__setitem__("point", zero.to_json()))
    assert "vanishes" in res.detail


def test_reference_witnesses_tied_to_reference_polynomial(tmp_path):
    points = lowrank.reference_witnesses()
    problem = {"polynomial": format_poly(lowrank.reference_poly())}
    cert = {
        "kind": "reference_witnesses",
        "points": [p.to_json() for p in points],
        "ranks": {str(p.n): 1 for p in points},
        "identity_on_2x2": True,
        "verification": "verified",
    }
    doc = roundtrip(make_document(problem, cert), tmp_path)
    assert verify_certificate(doc).ok
    # 1 has rank 1 at any 1x1 point and 1 - 1 is an identity, but 1 is not
    # the reference polynomial
    one_by_one = MatTuple([QMatrix([[0]]), QMatrix([[0]])])
    forged = make_document(
        {"polynomial": "1"},
        {"kind": "reference_witnesses", "points": [one_by_one.to_json()],
         "ranks": {"1": 1}, "identity_on_2x2": True, "verification": "verified"},
    )
    res = verify_certificate(forged)
    assert not res.ok and "reference polynomial" in res.detail
    tampered_fails(doc, lambda d: d["problem"].__setitem__("polynomial", "1"))
