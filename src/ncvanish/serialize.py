"""Certificate documents: JSON encoding plus standalone re-verification.

One document per engine run: the problem statement, the certificate, and the
engine's verification status.  Each certificate kind is one row of `_KINDS`:
the constant `verification` string its documents carry, and a function that
decodes a document and runs the kind's checker from `checks`, the same
checker the engine ran before returning.  An engine's certificate dataclass
names its kind in a `KIND` class attribute, so neither the encoder nor the
verifier imports an engine: this module needs only `poly`, `linalg`,
`evaluate` and `checks`, and with them it is the trusted base that
`verify-cert` loads.  Decoding re-parses polynomials through the shared
grammar and matrices through the shared tuple format.  Search bounds and
completeness flags are carried as metadata: they describe how hard an engine
looked, not an algebraic fact a document could prove.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence

from . import checks
from .checks import CheckFailed
from .evaluate import MatTuple, eval_poly, load_json
from .linalg import QMatrix, QVector, rational, rational_text
from .poly import NcPoly, format_poly, parse

FORMAT_NAME = "ncvanish-certificate"
FORMAT_VERSION = 1


def _polys(data: Sequence[str], d: int) -> List[NcPoly]:
    return [parse(s, d) for s in data]


def _mat2_of(data, d: int) -> checks.Mat2:
    return tuple(tuple(parse(e, d) for e in row) for row in data)  # type: ignore[return-value]


def make_document(problem: dict, certificate: dict) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "problem": problem,
        "certificate": certificate,
    }


def save_document(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_document(path: str) -> dict:
    doc = load_json(path)
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ValueError("not a certificate document")
    return doc


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _json(value):
    """JSON form of a certificate value.  Certificate objects become objects
    keyed by field name, tagged with their kind and verification string when
    their type names a kind in its `KIND` class attribute."""
    if isinstance(value, NcPoly):
        return format_poly(value)
    if isinstance(value, (MatTuple, QMatrix, QVector)):
        return value.to_json()
    if isinstance(value, Fraction):
        return rational_text(value)
    if hasattr(value, "_asdict") or dataclasses.is_dataclass(value):
        fields = value._asdict() if hasattr(value, "_asdict") else vars(value)
        out = {name: _json(v) for name, v in fields.items()}
        kind = getattr(type(value), "KIND", None)
        return out if kind is None else tagged(kind, **out)
    if isinstance(value, (list, tuple)):
        return [_json(v) for v in value]
    return value


def tagged(kind: str, **fields) -> dict:
    """Certificate fields tagged with the kind and its verification string;
    the command layer builds its certificates through this."""
    return {"kind": kind, **fields, "verification": _KINDS[kind].verification}


def encode_certificate(cert) -> dict:
    """Certificate object to its JSON form."""
    if isinstance(cert, list):  # `factor` returns its options as a plain list
        return tagged("factorization", options=_json(cert))
    if not hasattr(type(cert), "KIND"):
        raise TypeError(f"no JSON encoding for {type(cert).__name__}")
    return _json(cert)


# ---------------------------------------------------------------------------
# Standalone verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    kind: str
    detail: str


def verify_certificate(doc: dict) -> VerifyResult:
    """Re-check a certificate document from first principles.

    Evidence-bearing kinds are re-checked by exact arithmetic; kinds that
    carry only search metadata are accepted structurally, with the detail
    naming what was and was not re-checked.  A malformed document fails
    with a one-line detail, never a traceback.
    """
    kind = "?"
    try:
        cert, problem = doc["certificate"], doc["problem"]
        kind = cert.get("kind", "?")
        row = _KINDS.get(kind)
        if row is None:
            return VerifyResult(False, kind, f"unknown certificate kind {kind!r}")
        return VerifyResult(True, kind, row.verify(problem, cert))
    except CheckFailed as exc:
        return VerifyResult(False, kind, str(exc))
    except Exception as exc:  # malformed documents land here, not in tracebacks
        return VerifyResult(False, str(kind), f"verification crashed: {type(exc).__name__}: {exc}")


def _same(stored, computed, what: str) -> None:
    """A value claim (`eval`, `classification`, `reference_witnesses`)
    stores its answer; it must equal the checker's.  Witness documents store
    no values: their checkers recompute every value at the point."""
    expected = _json(computed)
    if stored != expected and _numbers(stored) != _numbers(expected):
        raise CheckFailed(f"stored {what} disagree with re-evaluation")


def _scalar(value) -> Fraction:
    """A scalar of a document; a string is decoded within linalg.MAX_ENTRY_BITS."""
    return Fraction(rational(value) if isinstance(value, str) else value)


def _numbers(value):
    """JSON value with each numeric string read as a Fraction, so equal
    values written differently ("2/4", "0.5", 0) compare equal."""
    if isinstance(value, list):
        return [_numbers(v) for v in value]
    if isinstance(value, dict):
        return {k: _numbers(v) for k, v in value.items()}
    try:
        return _scalar(value) if isinstance(value, str) else value
    except (ValueError, ZeroDivisionError):
        return value


def _generators(problem: dict):
    d = int(problem["d"])
    return _polys(problem["generators"], d), parse(problem["target"], d)


def _left_combination(problem: dict, cert: dict) -> str:
    gens, target = _generators(problem)
    checks.left_combination(gens, target, _polys(cert["cofactors"], target.d))
    return "target equals the left combination exactly"


def _left_witness(problem: dict, cert: dict) -> str:
    gens, target = _generators(problem)
    checks.left_witness(gens, target, MatTuple.from_json(cert["point"]), QVector(cert["vector"]))
    return "directional zero of the generators, nonzero for the target"


def _hom_combination(problem: dict, cert: dict) -> str:
    gens, target = _generators(problem)
    pairs = [[(parse(p, target.d), parse(q, target.d)) for p, q in group] for group in cert["pairs"]]
    checks.hom_combination(gens, target, pairs)
    return "target equals the two-sided combination exactly"


def _hom_witness(problem: dict, cert: dict) -> str:
    gens, target = _generators(problem)
    checks.hom_witness(gens, target, MatTuple.from_json(cert["point"]))
    return "point kills every generator but not the target"


def _trace_combination(problem: dict, cert: dict) -> str:
    gens, target = _generators(problem)
    commutators = [(parse(a, target.d), parse(b, target.d)) for a, b in cert["commutators"]]
    lambdas = [_scalar(x) for x in cert["lambdas"]]
    checks.trace_combination(gens, target, cert["branch"], lambdas, commutators)
    return f"branch {cert['branch']}: goal equals the combination plus explicit commutators"


def _trace_not_member(problem: dict, cert: dict) -> str:
    gens, target = _generators(problem)
    checks.trace_not_member(gens, target, _polys(cert["functionals"], target.d))
    return "separating functionals vanish on every reduced generator and are 1 on 1 and on g"


def _span_coefficients(problem: dict, cert: dict) -> str:
    gens, target = _generators(problem)
    checks.span_coefficients(gens, target, [_scalar(x) for x in cert["coefficients"]])
    return "target equals the linear combination exactly"


def _span_witness(problem: dict, cert: dict) -> str:
    gens, target = _generators(problem)
    checks.span_witness(gens, target, MatTuple.from_json(cert["point"]),
                        QVector(cert["left"]), QVector(cert["right"]))
    return "weak zero of the generators, nonzero for the target"


def _composition_parts(problem: dict):
    d = int(problem["d"])
    return parse(problem["inner"], d), parse(problem["target"], d)


def _composition(problem: dict, cert: dict) -> str:
    inner, target = _composition_parts(problem)
    checks.composition(inner, target, [_scalar(x) for x in cert["coefficients"]])
    return "target equals the polynomial in the inner function"


def _composition_witness(problem: dict, cert: dict) -> str:
    inner, target = _composition_parts(problem)
    checks.eigen_witness(
        inner, target, MatTuple.from_json(cert["point"]), QVector(cert["vector"]),
        _scalar(cert["eigenvalue"]),
    )
    return "eigenvector of the inner value whose target value leaves the eigenline"


def _composition_not_member(problem: dict, cert: dict) -> str:
    inner, target = _composition_parts(problem)
    checks.composition_not_member(inner, target, parse(cert["functional"], target.d))
    detail = "functional is zero on every reachable power of the inner polynomial and 1 on the target"
    if cert["witness"] is None:
        return detail
    _composition_witness(problem, cert["witness"])
    return detail + "; eigenvector witness re-checked"


def _factorization(problem: dict, cert: dict) -> str:
    d = int(problem["d"])
    options = [
        (_scalar(o["unit"]), _polys(o["factors"], d), [e["degree"] for e in o["evidence"]])
        for o in cert["options"]
    ]
    checks.factorization(parse(problem["polynomial"], d), options)
    return (
        f"{len(options)} factorization(s) multiply back exactly; "
        "irreducibility flags are search metadata"
    )


def _assoc_mats(cert: dict, d: int):
    return [_mat2_of(cert[name], d) for name in ("p_mat", "q_mat", "p_inv", "q_inv")]


def _assoc_parts(problem: dict):
    d = int(problem["d"])
    return parse(problem["p"], d), parse(problem["q"], d)


def _assoc_yes(problem: dict, cert: dict) -> str:
    p, q = _assoc_parts(problem)
    checks.assoc_yes(p, q, *_assoc_mats(cert, p.d))
    return "2x2 identity and both inverses re-checked symbolically"


def _assoc_witness(cert: dict):
    return MatTuple.from_json(cert["point"]), QVector(cert["vector"]), cert["vanishing"]


def _assoc_no(problem: dict, cert: dict) -> str:
    p, q = _assoc_parts(problem)
    checks.assoc_no(p, q, *_assoc_witness(cert))
    return (
        "directional zero of one polynomial missed by the other; "
        "stable associates share directional zeros"
    )


def _detzero_yes(problem: dict, cert: dict) -> str:
    gens, target = _generators(problem)
    d = target.d
    matching = [
        (parse(m["factor"], d), parse(m["matched_to"], d), _assoc_mats(m["assoc"], d))
        for m in cert["matching"]
    ]
    j = cert["generator_index"]
    checks.detzero_yes(gens, target, j, _polys(cert["g_factors"], d), matching)
    return f"every factor of generator {j} matches a factor of the target, certificates re-checked"


def _detzero_no(problem: dict, cert: dict) -> str:
    gens, target = _generators(problem)
    d = target.d
    refutations = [
        (r["generator_index"], _polys(r["f_factors"], d), parse(r["refuted"], d),
         [_assoc_witness(c) for c in r["certs"]])
        for r in cert["refutations"]
    ]
    checks.detzero_no(gens, target, _polys(cert["g_factors"], d), refutations)
    return (
        "each generator has a factor separated from every factor of the target; "
        "factorization completeness flags are search metadata"
    )


def _polynomial(problem: dict) -> NcPoly:
    return parse(problem["polynomial"], int(problem["d"]))


def _lowrank_exact(problem: dict, cert: dict) -> str:
    stated = int(cert["rank"])
    point = MatTuple.from_json(cert["point"])
    checks.lowrank_exact(_polynomial(problem), point, stated, int(problem["target_rank"]))
    return f"exact rank {stated} at the reconstructed point"


def _pi_result(problem: dict, cert: dict) -> str:
    n, value = int(problem["n"]), bool(cert["value"])
    point = None if value else MatTuple.from_json(cert["point"])
    checks.pi_result(_polynomial(problem), n, value, point)
    if value:
        return f"identity on {n}x{n} matrices re-expanded symbolically"
    return f"polynomial is nonzero at the stored {n}x{n} point"


def _classification(problem: dict, cert: dict) -> str:
    gens, target = _generators(problem)
    u = QVector(problem["left"]) if problem.get("left") else None
    v = QVector(problem["right"]) if problem.get("right") else None
    point = MatTuple.from_json(problem["point"])
    values = checks.classification(gens, target, point, u, v, cert["memberships"])
    stored = [cert[name] for name in ("f_dets", "f_traces", "f_ranks", "g_det", "g_trace", "g_rank")]
    _same(stored, values, "dets, traces and ranks")
    return "membership table, dets, traces and ranks re-derived from exact evaluation"


def _weyl(problem: dict, cert: dict) -> str:
    checks.weyl(int(problem["n"]), MatTuple.from_json(cert["point"]))
    return "pair re-checked: 1 - [x1,x2] evaluates to the rank-1 corner"


def _rankprofile(problem: dict, cert: dict) -> str:
    table = {int(k): int(v) for k, v in cert["table"].items()}
    points = {int(k): MatTuple.from_json(v) for k, v in cert["points"].items()}
    checks.rankprofile(_polynomial(problem), table, points)
    return "rank at every stored point equals the table; samples and seed are search metadata"


def _reference_witnesses(problem: dict, cert: dict) -> str:
    points = [MatTuple.from_json(data) for data in cert["points"]]
    ranks = checks.reference_witnesses(parse(problem["polynomial"], points[0].d), points)
    _same(cert["ranks"], {str(n): r for n, r in ranks.items()}, "ranks")
    return "both rank-1 witnesses and the 2x2 identity re-checked"


def _eval(problem: dict, cert: dict) -> str:
    _same(cert["value"], eval_poly(_polynomial(problem), MatTuple.from_json(problem["point"])), "value")
    return "value reproduced by exact evaluation"


def _metadata(detail: str) -> Callable[[dict, dict], str]:
    return lambda problem, cert: detail


@dataclass(frozen=True)
class _Kind:
    verification: str  # constant status string written into every document of the kind
    verify: Callable[[dict, dict], str]  # decode, run the checker, return the detail line


_UNKNOWN = "unknown outcome; search bounds carried as metadata"

_KINDS: Dict[str, _Kind] = {
    "left_combination": _Kind("verified", _left_combination),
    "left_witness": _Kind("verified", _left_witness),
    "hom_combination": _Kind("verified", _hom_combination),
    "hom_witness": _Kind("verified", _hom_witness),
    "trace_combination": _Kind("verified", _trace_combination),
    "trace_not_member": _Kind("checked", _trace_not_member),
    "span_coefficients": _Kind("verified", _span_coefficients),
    "span_witness": _Kind("verified", _span_witness),
    "composition": _Kind("verified", _composition),
    "composition_witness": _Kind("verified", _composition_witness),
    "composition_not_member": _Kind("checked", _composition_not_member),
    "factorization": _Kind("verified", _factorization),
    "assoc_yes": _Kind("verified", _assoc_yes),
    "assoc_no": _Kind("verified", _assoc_no),
    "assoc_unknown": _Kind("none", _metadata(_UNKNOWN)),
    "detzero_yes": _Kind("verified", _detzero_yes),
    "detzero_no": _Kind("verified", _detzero_no),
    "detzero_unknown": _Kind("none", _metadata("unknown outcome; reason carried as metadata")),
    "lowrank_exact": _Kind("verified", _lowrank_exact),
    "lowrank_report": _Kind("none", _metadata("float-only outcome; nothing exact to re-check")),
    "pi_result": _Kind("verified", _pi_result),
    "classification": _Kind("verified", _classification),
    "weyl": _Kind("verified", _weyl),
    "rankprofile": _Kind("verified", _rankprofile),
    "reference_witnesses": _Kind("verified", _reference_witnesses),
    "eval": _Kind("verified", _eval),
}
