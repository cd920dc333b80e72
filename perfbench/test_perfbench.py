"""Tests of the benchmark's own code: the independent checkers, the tracer's
install/uninstall, and traced runs producing the untraced documents.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import copy
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checkers as ck  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
import ncvanish.cli  # noqa: E402,F401  (loaded so its bindings can be traced)
from ncvanish import certify, factorization, parse, serialize  # noqa: E402


def document(result, problem):
    return json.loads(wl.document_text(serialize.make_document(problem, serialize.encode_certificate(result))))


def two(d, *texts):
    return [parse(t, d) for t in texts]


# ---------------------------------------------------------------------------
# each checker accepts the program's answer and rejects a one-entry change
# ---------------------------------------------------------------------------


def test_product_checker_rejects_a_changed_cofactor():
    gens, g = [ck.parse_canonical("x1")], ck.parse_canonical("x2*x1 + 3*x1")
    res = certify.left_ideal_membership(two(2, "x1"), parse("x2*x1 + 3*x1", 2))
    cert = document(res, {})["certificate"]
    assert wl.check_combination("left_combination", gens, g, cert) == []
    cert["cofactors"][0] = cert["cofactors"][0].replace("3", "4")
    assert wl.check_combination("left_combination", gens, g, cert)


def test_product_checker_rejects_a_changed_two_sided_pair():
    gens, g = [ck.parse_canonical("x1*x2 - x2*x1")], ck.parse_canonical("x1^2*x2 - x1*x2*x1")
    res = certify.hom_ideal_membership(two(2, "x1*x2 - x2*x1"), parse("x1^2*x2 - x1*x2*x1", 2))
    cert = document(res, {})["certificate"]
    assert wl.check_combination("hom_combination", gens, g, cert) == []
    pair = cert["pairs"][0][0]
    pair[0] = "2*" + pair[0]
    assert wl.check_combination("hom_combination", gens, g, cert)


def test_product_checker_rejects_a_changed_factor_and_composition():
    f = ck.parse_canonical("x1*x2*x1 + x1")
    doc = document(factorization.factor(parse("x1*x2*x1 + x1", 2)), {})
    assert wl._factorization_check(f, doc) == []
    doc["certificate"]["options"][0]["unit"] = "2"
    assert wl._factorization_check(f, doc)

    inner = ck.parse_canonical("x1*x2 + x1")
    target = ck.poly_add(ck.poly_mul(inner, inner), ck.constant(2))
    res = certify.in_univariate_subalgebra(parse(ck.format_poly(target), 2), parse("x1*x2 + x1", 2))
    doc = document(res, {})
    assert wl._composition_check(inner, target, True, doc) == []
    doc["certificate"]["coefficients"][0] = "3"
    assert wl._composition_check(inner, target, True, doc)


def _witness_doc(engine, gens, target):
    res = engine(two(2, *gens), parse(target, 2))
    return document(res, {})["certificate"]


def test_evaluator_rejects_a_changed_directional_and_zero_witness():
    gens, g = [ck.parse_canonical("x1^2")], ck.parse_canonical("x1")
    cert = _witness_doc(certify.left_ideal_membership, ["x1^2"], "x1")
    assert wl.check_witness("left_witness", gens, g, cert) == []
    # X1 maps the vector to e_k and kills e_k; one entry sends e_k back
    x1 = cert["point"]["matrices"][0]
    v = cert["vector"].index("1")
    k = next(i for i, row in enumerate(x1) if row[v] != "0")
    x1[v][k] = "1"
    assert wl.check_witness("left_witness", gens, g, cert)

    cert = _witness_doc(certify.hom_ideal_membership, ["x1^2"], "x1")
    assert wl.check_witness("hom_witness", gens, g, cert) == []
    cert["point"]["matrices"][0][0][0] = "1"
    assert wl.check_witness("hom_witness", gens, g, cert)


def test_evaluator_rejects_a_changed_weak_witness():
    gens, g = [ck.parse_canonical("x1"), ck.parse_canonical("x2")], ck.parse_canonical("x1^2")
    res = certify.span_membership(two(2, "x1", "x2"), parse("x1^2", 2), seed=1)
    cert = document(res, {})["certificate"]
    assert wl.check_witness("span_witness", gens, g, cert) == []
    # one entry of X1 changed by 1 where u_i v_j != 0 makes u.X1 v = u_i v_j
    i = next(k for k, x in enumerate(cert["left"]) if x != "0")
    j = next(k for k, x in enumerate(cert["right"]) if x != "0")
    row = cert["point"]["matrices"][0][i]
    row[j] = str(Fraction(row[j]) + 1)
    assert wl.check_witness("span_witness", gens, g, cert)


def test_evaluator_rejects_a_changed_truncation_pair_and_lowrank_point():
    mats = wl.weyl_matrices(4)
    assert wl.check_weyl_value(mats, {}) == []
    mats[1][1][0] = Fraction(2)
    assert wl.check_weyl_value(mats, {})

    defect = ck.parse_canonical("1 - x1*x2 + x2*x1")
    point = wl.tuple_json(wl.weyl_matrices(3))
    assert wl._rank_at(defect, point) == 1
    point["matrices"][1][1][0] = "2"  # 1 - [X, Y] becomes diag(-1, 1, 3)
    assert wl._rank_at(defect, point) == 3


def test_sympy_rank_and_det_reject_a_changed_classification():
    gens, g = [ck.parse_canonical("x1*x2 - x2*x1")], ck.parse_canonical("x1")
    mats = [[[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]],
            [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(3)]]]
    u, v = [Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]
    from ncvanish import MatTuple, QVector, classify_point

    point = MatTuple.from_json(wl.tuple_json(mats))
    result = classify_point(two(2, "x1*x2 - x2*x1"), parse("x1", 2), point, QVector(u), QVector(v))
    doc = wl.classification_document(serialize, {}, result)
    assert wl.check_classification(gens, g, mats, u, v, 0, doc) == []
    for field, value in (("f_dets", ["7"]), ("f_ranks", [0])):
        bad = copy.deepcopy(doc)
        bad["certificate"][field] = value
        assert wl.check_classification(gens, g, mats, u, v, 0, bad)


def test_mutations_are_rejected_by_the_verifier():
    res = certify.left_ideal_membership(two(2, "x1"), parse("x2*x1", 2))
    doc = document(res, {"d": 2, "generators": ["x1"], "target": "x2*x1"})
    assert serialize.verify_certificate(doc).ok
    assert not serialize.verify_certificate(wl.mutate_document(doc)).ok


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def _originals():
    out = {}
    for name, targets in tracing.TARGETS.items():
        for module_name, path in targets:
            owner = sys.modules[module_name]
            for part in path.split("."):
                owner = vars(owner)[part] if isinstance(owner, type) else getattr(owner, part)
            out[tracing._function_of(owner)] = name
    return out


def _bindings(functions):
    """(namespace, attribute) of every binding of the given functions."""
    ids = {id(fn) for fn in functions}
    return [(space, attr) for space in tracing._namespaces()
            for attr, value in vars(space).items() if id(tracing._function_of(value)) in ids]


def test_install_and_uninstall_cover_every_binding():
    originals = _originals()
    before = _bindings(originals)
    modules_of = {}
    for space, attr in before:
        fn = tracing._function_of(vars(space)[attr])
        modules_of.setdefault(fn.__name__, set()).add(getattr(space, "__name__", ""))
    assert {"ncvanish", "ncvanish.evaluate", "ncvanish.certify", "ncvanish.factorization",
            "ncvanish.lowrank", "ncvanish.serialize"} <= modules_of["eval_poly"]
    assert {"ncvanish.poly", "ncvanish.serialize", "ncvanish.cli"} <= modules_of["parse"]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _bindings(originals) == []
        assert sorted(map(repr, tracer.bindings())) == sorted(map(repr, before))
        certify.left_ideal_membership(two(2, "x1"), parse("x2*x1", 2))
        assert tracer.stats["certify.engine"][0] == 1
        assert tracer.stats["poly.mul"][0] > 0
    finally:
        tracer.uninstall()
    assert sorted(map(repr, _bindings(originals))) == sorted(map(repr, before))
    for space in tracing._namespaces():
        for value in vars(space).values():
            assert not hasattr(tracing._function_of(value), "__traced__")


def test_traced_rounds_reproduce_the_untraced_documents():
    root = os.path.dirname(HERE)
    digests = []
    for trace in (False, True):
        workload = wl.points(7, root)
        result = run.Runner(workload).measure(0, trace)
        assert result["errors"] == []
        digests.append(result["digest"])
    assert digests[0] == digests[1]
    assert result["per_layer"]["evaluate.classify_point_s"]["value"] > 0
