"""Golden certificate digests.

Every certificate kind the verifier knows is produced from fixed inputs (the
README command-line examples plus small engine cases) and the sha256 of each
written document is compared with a pinned value.  A refactor that changes
certificate bytes fails here; a change that means to alter a document must
update its digest and say why.
"""

import copy
import hashlib
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import ncvanish
from ncvanish import certify, serialize
from ncvanish.cli import dispatch
from ncvanish.evaluate import MatTuple, eval_poly, eval_poly_vector, weyl_pair
from ncvanish.linalg import QVector
from ncvanish.poly import format_poly, parse
from ncvanish.serialize import (
    encode_certificate,
    load_document,
    make_document,
    save_document,
    verify_certificate,
)

# README examples and small cases, one command per document
CLI_CASES = {
    "member-left": ["member-left", "-d", "2", "-f", "x1", "-g", "x2*x1"],
    "member-left-witness": ["member-left", "-d", "2", "-f", "x1*x2 + 1", "-g", "x1*x2*x1 + x1"],
    "member-hom": ["member-hom", "-d", "2", "-f", "x1", "-g", "x1*x1"],
    "member-hom-witness": ["member-hom", "-d", "2", "-f", "x1*x1", "-g", "x1"],
    "member-trace": ["member-trace", "-d", "2", "-f", "x1*x2", "-g", "x2*x1"],
    "member-trace-no": ["member-trace", "-d", "2", "-f", "x1", "-g", "x2"],
    "member-span": ["member-span", "-d", "2", "-f", "x1", "-f", "x2", "-g", "2*x1 - 3*x2",
                    "--seed", "0"],
    "member-span-witness": ["member-span", "-d", "2", "-f", "x1", "-g", "x1*x1", "--seed", "1"],
    "member-comp": ["member-comp", "-d", "1", "-f", "x1", "-g", "x1*x1 + 2*x1 + 1", "--seed", "0"],
    "member-comp-no": ["member-comp", "-d", "2", "-f", "x1", "-g", "x2", "--seed", "0"],
    "factor": ["factor", "-d", "2", "-f", "x1*x2*x1 + x1"],
    "assoc": ["assoc", "-d", "2", "-p", "x1*x2 + 1", "-q", "x2*x1 + 1", "--seed", "0"],
    "assoc-no": ["assoc", "-d", "2", "-p", "x1", "-q", "x2*x1 + 1", "--seed", "0"],
    "assoc-unknown": ["assoc", "-d", "2", "-p", "x1*x2 + 1", "-q", "x2*x1 + 1", "--seed", "0",
                      "--chain-depth", "0", "--n-max", "2", "--samples", "3"],
    "detzero": ["detzero", "-d", "2", "-f", "x1*x2 + 1", "-g", "x2*x1 + 1", "--seed", "0"],
    "detzero-no": ["detzero", "-d", "2", "-f", "x1*x2*x1 + x1", "-g", "x2*x1 + 1", "--seed", "0"],
    "detzero-unknown": ["detzero", "-d", "2", "-f", "x1*x2 + 1", "-g", "x2*x1 + 1", "--seed", "0",
                        "--max-degree", "1"],
    "pi": ["pi", "-d", "4", "-f", "[x1,x2]*[x3,x4] - [x3,x4]*[x1,x2]", "-n", "1"],
    # s3 is not an identity on 2x2 matrices: the document stores a point
    "pi-no": ["pi", "-d", "3", "-f", "x1*x2*x3 - x1*x3*x2 - x2*x1*x3 + x2*x3*x1 + x3*x1*x2 - x3*x2*x1",
              "-n", "2"],
    "weyl": ["weyl", "-n", "5"],
    "rankprofile": ["rankprofile", "-d", "2", "-f", "1 - [x1,x2]", "--n-min", "2", "--n-max", "3",
                    "--samples", "4", "--seed", "1"],
    # 1x1 cases: the objectives are exact zeros and ones, free of BLAS rounding
    "lowrank": ["lowrank", "-d", "1", "-f", "x1", "-n", "1", "-r", "1", "--seed", "0",
                "--restarts", "1"],
    "lowrank-report": ["lowrank", "-d", "1", "-f", "1", "-n", "1", "-r", "0", "--seed", "0",
                       "--restarts", "1", "--max-iters", "5"],
    "paper-witnesses": ["paper-witnesses"],
    "eval": ["eval", "-d", "2", "-f", "1 - [x1,x2]", "--point", "weyl3.json"],
    "classify": ["classify", "-d", "2", "-f", "x1*x2 - x2*x1", "-g", "x1^2",
                 "--point", "weyl3.json", "--left", "1,0,2", "--right", "0,1,-1"],
}

GOLDEN = {
    "assoc": "bda48ca8f7e56ef4ca1b74168c4da139f4acd29c96e84c96a107cb00fff41192",  # assoc_yes
    "assoc-no": "aed1cbb77f407a0cd9df1ff63472ddd759e12933452454e68fce98651d094cd7",  # assoc_no
    "assoc-unknown": "180de78221dda556881970d10414098699d3ce03223848629aa20fee42595da8",  # assoc_unknown
    "classify": "92c7d3a40136c07e3a93a294cf19e3b9336aad5245fcc44727eac5f44efd671f",  # classification
    "composition-witness": "cb0935019abfa3fcfec3f21386c69a00fd54e8e1ca1fe866626c4d4e3d39100d",  # composition_witness
    "detzero": "cb410762c8fc409a54f9dcacb5f013c125dd95a14f36709016bf195639229966",  # detzero_yes
    "detzero-no": "72faa3724ed2273c6e745ace80805ad855d54656222d49ece7c68d78c515d44f",  # detzero_no
    "detzero-unknown": "7cd5b1c40db8d01b68dedab96384b98e245bb3fe29e0affdbb5c9f59fd3a7a8e",  # detzero_unknown
    "eval": "78e44fd293b16fd1df677708a1dc19716be7b856a6dffba28997170d8fce0390",  # eval
    "factor": "8c6e0569031200c483b4fe6e1dc4928017c817c8e3f8967077ae32270a3202cf",  # factorization
    "lowrank": "095335fa46c077113fea2d0e521ef4306a95f78b407908d41c95830aeaf67dc1",  # lowrank_exact
    "lowrank-report": "ea52cbd25a94f7198cee53c72fdc00a0b9565638f5f815bd99b0f2a59e4c7063",  # lowrank_report
    "member-comp": "351107c24a99338752ff8262e63bfe0f97597f55afcf0d409f2945125b9d44ec",  # composition
    "member-comp-no": "4dbc61c964a8b09f335e990287d638e9be179c9cf5d9dbdc5f1a59b16aff3d77",  # composition_not_member, functional and eigenvector witness
    "member-hom": "dcdd97d07b321cc6c8ce159c0a0fb0a0e93bcb46ec4e0c23028d6a58fd950958",  # hom_combination
    "member-hom-witness": "b7839db0fbbe36dfd875ca95f3db9cfadb5a613c4a88b9fa9ecf31407aba108b",  # hom_witness
    "member-left": "803eb6624adfb55f4dda832032d0694417aa511f324234a122fc3ebdd88eed9a",  # left_combination
    "member-left-witness": "98e5c96013d1fdcbf4769f493b5d91d93d84366bf379880ba6371fac524c3346",  # left_witness
    "member-span": "0a45376a293ad1abfb6758e3542f2be704e430199f912096cbd9e6a049b2036b",  # span_coefficients
    "member-span-witness": "8a282b68e6ce3cfd6fed2607419195ab9f9d287e3541bc9bf41edf402574e4be",  # span_witness from the separating functional
    "member-trace": "96b399551f73b9f21f1beab0a0a24bc8e3f87fcfd26e70551ad416600aa4c329",  # trace_combination
    "member-trace-no": "7d8456b47636ee1b5d4c7a1cfeed53f5cc45e8845ec8b227251b0daa5a54a855",  # trace_not_member
    "paper-witnesses": "d698e8afd073e0a3776146935ba29ef3f3d6d3866ec681651d1e2c630e34e44b",  # reference_witnesses
    "pi": "2922ca8ce50866b59e25bf387e65b8dff017a01ffe344a9e49cbd2ffe4349fc9",  # pi_result
    "pi-no": "df459ee0584db0010aa596cf64ba620b71b0473fbb867f585c559e92298c4f50",  # pi_result False, with its point
    "rankprofile": "26a06295459ddb15f0101aab02908b30ba37dc0bc0c710f07987a6b8f422dd13",  # rankprofile, with a point per size
    "weyl": "2f7928f3d89eb14929bbc912749ac46734b3bfaac16841819941028b4aab43f3",  # weyl
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest(), load_document(str(path))


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.fixture(scope="module")
def documents(golden_dir):
    """Digest and parsed document of every golden document."""
    root = golden_dir
    save_document(weyl_pair(3).to_json(), str(root / "weyl3.json"))
    out = {}
    for name, argv in CLI_CASES.items():
        argv = [a if not a.endswith(".json") else str(root / a) for a in argv]
        path = root / f"{name}.cert.json"
        assert dispatch(argv + ["--out", str(path)]) in (0, 2), name
        out[name] = _digest(path)
    # the eigenvector witness also stands alone as a document
    inner, target = parse("x1", 2), parse("x2", 2)
    witness = certify.in_univariate_subalgebra(target, inner, seed=0).witness
    problem = {"d": 2, "inner": format_poly(inner), "target": format_poly(target)}
    path = root / "composition-witness.cert.json"
    save_document(make_document(problem, encode_certificate(witness)), str(path))
    out["composition-witness"] = _digest(path)
    return out


def test_every_kind_has_a_golden_document(documents):
    assert {doc["certificate"]["kind"] for _, doc in documents.values()} == set(serialize._KINDS)


def test_every_golden_document_verifies(documents):
    for name, (_, doc) in documents.items():
        assert verify_certificate(doc).ok, name


def test_verification_draws_no_random_numbers(documents, monkeypatch):
    # checkers read evidence; a seeded replay of an engine would draw here
    def refuse(*args, **kwargs):
        raise AssertionError("verification drew a random number")

    monkeypatch.setattr(random, "Random", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    for name, (_, doc) in documents.items():
        result = verify_certificate(doc)
        assert result.ok, (name, result.detail)


# verifies each document as a library call and as `verify-cert`, then names
# the engine modules and numpy that verification loaded
_CLOSURE = """
import json, sys
from ncvanish import cli, serialize
for path in sys.argv[1:]:
    assert serialize.verify_certificate(serialize.load_document(path)).ok, path
    assert cli.dispatch(["verify-cert", path]) == 0, path
engines = ("ncvanish.certify", "ncvanish.factorization", "ncvanish.lowrank", "numpy")
print(json.dumps([name for name in engines if name in sys.modules]))
"""


def test_verification_loads_only_the_trusted_base(documents, golden_dir):
    paths = sorted(str(p) for p in golden_dir.glob("*.cert.json"))
    assert len(paths) == len(documents)
    src = os.path.dirname(os.path.dirname(ncvanish.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _CLOSURE, *paths], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


@pytest.mark.parametrize("name", sorted(list(CLI_CASES) + ["composition-witness"]))
def test_golden_digest(documents, name):
    assert documents[name][0] == GOLDEN[name]


# digests of witness documents that also stored f_j(X)v and g(X)v, or every
# f_j(X) and g(X), as documents did before witnesses carried their point only
STORED_VALUES = {
    "member-left-witness": "e9edceb9dd4f294dc1cf6420103c21509ff470a682d340228233fba57f6548fd",
    "member-hom-witness": "ffe5818ddf6007123198d3c85b9c29120e211bbea0deaca973948f9fbe586565",
}


@pytest.mark.parametrize("name", sorted(STORED_VALUES))
def test_documents_that_store_values_still_verify(documents, tmp_path, name):
    # fields the verifier does not read are not part of the claim
    doc = copy.deepcopy(documents[name][1])
    problem, cert = doc["problem"], doc["certificate"]
    point = MatTuple.from_json(cert["point"])
    polys = [parse(p, problem["d"]) for p in problem["generators"] + [problem["target"]]]
    if "vector" in cert:
        values = [eval_poly_vector(p, point, QVector(cert["vector"])) for p in polys]
    else:
        values = [eval_poly(p, point) for p in polys]
    cert["f_values"], cert["g_value"] = serialize._json(values[:-1]), serialize._json(values[-1])
    path = tmp_path / "stored.json"
    save_document(doc, str(path))
    assert _digest(path)[0] == STORED_VALUES[name]
    assert verify_certificate(load_document(str(path))).ok
