"""Seeded inputs, timed operations and output checks of each workload.

A workload is a fixed list of cases; the seed changes the polynomials and
points inside each case but never the number or the kind of cases, so every
round attempts the same operations.  A case has up to two timed parts:

  decide  engine call -> certificate document -> JSON text
          (in `cli`, one `cli.dispatch` call that writes the document)
  verify  JSON text -> `serialize.verify_certificate`
          (in `cli`, `cli.dispatch(["verify-cert", path])`)

and two untimed ones: `check`, which re-derives what the document claims
with the independent checkers, and `mutate_document`, a one-field change
that any sound verifier must reject.
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import checkers as ck
from checkers import Matrix, Poly


@dataclass
class Case:
    label: str
    decide: Optional[Callable[[], object]]
    verify: Callable[[str], bool]
    # the decide result -> document text (raises on a failed command)
    document: Callable[[object], str]
    check: Callable[[dict], List[str]]
    # verify-only cases: a forged document whose correct verdict is a rejection
    forged_text: Optional[str] = None


@dataclass
class Workload:
    name: str
    cases: List[Case]
    # does the program's verifier accept this document?
    accepts: Callable[[dict], bool]
    cleanup: Callable[[], None] = lambda: None


# ---------------------------------------------------------------------------
# Seeded generation on the benchmark's own dict polynomials
# ---------------------------------------------------------------------------


def rand_word(rng: random.Random, d: int, lo: int, hi: int) -> Tuple[int, ...]:
    return tuple(rng.randint(1, d) for _ in range(rng.randint(lo, hi)))


def word(w: Sequence[int], c=1) -> Poly:
    return {tuple(w): Fraction(c)}


def commutator(a: Poly, b: Poly) -> Poly:
    return ck.poly_add(ck.poly_mul(a, b), ck.poly_mul(b, a), Fraction(-1))


def standard_poly(k: int) -> Poly:
    """The alternating sum over all orderings of x1..xk."""
    out: Poly = {}
    for perm in itertools.permutations(range(1, k + 1)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        out[perm] = Fraction(-1 if inversions % 2 else 1)
    return out


def rand_matrices(rng: random.Random, n: int, d: int) -> List[Matrix]:
    return [[[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)] for _ in range(d)]


def weyl_matrices(n: int) -> List[Matrix]:
    """The size-n truncation pair: ones above the diagonal, 1..n-1 below."""
    x = [[Fraction(int(j == i + 1)) for j in range(n)] for i in range(n)]
    y = [[Fraction(i if j == i - 1 else 0) for j in range(n)] for i in range(n)]
    return [x, y]


def tuple_json(mats: List[Matrix]) -> dict:
    return {"n": len(mats[0]), "d": len(mats),
            "matrices": [[[str(e) for e in row] for row in m] for m in mats]}


def document_text(doc: dict) -> str:
    """The byte layout `serialize.save_document` writes."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Checks of certificate documents
# ---------------------------------------------------------------------------


def _parsed(texts: Sequence[str]) -> List[Poly]:
    return [ck.parse_canonical(s) for s in texts]


def check_combination(kind: str, gens: List[Poly], target: Poly, cert: dict) -> List[str]:
    """Combinations must multiply back under the benchmark's own product."""
    total: Poly = {}
    goal = target
    if kind == "left_combination":
        for p, f in zip(_parsed(cert["cofactors"]), gens):
            total = ck.poly_add(total, ck.poly_mul(p, f))
    elif kind == "hom_combination":
        for f, group in zip(gens, cert["pairs"]):
            for u, v in group:
                total = ck.poly_add(total, ck.poly_prod([ck.parse_canonical(u), f, ck.parse_canonical(v)]))
    elif kind == "trace_combination":
        for lam, f in zip(cert["lambdas"], gens):
            total = ck.poly_add(total, f, Fraction(lam))
        for a, b in cert["commutators"]:
            total = ck.poly_add(total, commutator(ck.parse_canonical(a), ck.parse_canonical(b)))
        if cert["branch"] == "one-in-span":
            goal = ck.constant(1)
    elif kind == "span_coefficients":
        for c, f in zip(cert["coefficients"], gens):
            total = ck.poly_add(total, f, Fraction(c))
    else:
        return [f"{kind} is not a combination"]
    return [] if total == goal else [f"{kind} does not multiply back to its goal"]


def check_witness(kind: str, gens: List[Poly], target: Poly, cert: dict) -> List[str]:
    """Witnesses must kill every generator and not the target under the
    benchmark's own evaluator."""
    mats = ck.matrices_of(cert["point"])
    if kind == "hom_witness":
        def value(p):
            return ck.eval_poly(p, mats)
    elif kind == "left_witness":
        v = [Fraction(x) for x in cert["vector"]]

        def value(p):
            return [ck.eval_poly_vector(p, mats, v)]
    elif kind == "span_witness":
        u = [Fraction(x) for x in cert["left"]]
        v = [Fraction(x) for x in cert["right"]]

        def value(p):
            return [[ck.dot(u, ck.eval_poly_vector(p, mats, v))]]
    else:
        return [f"{kind} is not a witness"]
    errors = [f"{kind}: generator {j} does not vanish"
              for j, f in enumerate(gens) if not ck.is_zero(value(f))]
    if ck.is_zero(value(target)):
        errors.append(f"{kind}: the target vanishes too")
    return errors


def in_trace_span(gens: List[Poly], goal: Poly) -> bool:
    """Is goal a combination of the generators modulo commutators?"""
    reduced = [ck.cyclic_normal(f) for f in gens]
    goal = ck.cyclic_normal(goal)
    words = sorted({w for p in reduced + [goal] for w in p})
    rows = [[p.get(w, Fraction(0)) for p in reduced] for w in words]
    rank = ck.rank_det(rows)[0] if reduced else 0
    return rank == ck.rank_det([r + [goal.get(w, Fraction(0))] for r, w in zip(rows, words)])[0]


def check_ideal(engine: str, member: bool, d: int, gens: List[Poly], target: Poly,
                doc: dict) -> List[str]:
    cert = doc["certificate"]
    kind = cert["kind"]
    if kind in ("left_combination", "hom_combination", "trace_combination", "span_coefficients"):
        return check_combination(kind, gens, target, cert)
    if member:
        return [f"constructed {engine} member came back as {kind}"]
    if kind in ("left_witness", "span_witness"):
        return check_witness(kind, gens, target, cert)
    if kind == "hom_witness":
        delta = max(len(w) for w in target)
        bound = (d ** (delta + 1) - 1) // (d - 1) if d > 1 else delta + 1
        errors = check_witness(kind, gens, target, cert)
        if cert["point"]["n"] > bound:
            errors.append(f"hom_witness dimension {cert['point']['n']} exceeds {bound}")
        return errors
    if kind == "trace_not_member":
        if in_trace_span(gens, ck.constant(1)) or in_trace_span(gens, target):
            return ["trace_not_member for a tracial member"]
        return []
    return [f"unexpected {kind} from the {engine} engine"]


def check_classification(gens: List[Poly], target: Poly, mats: List[Matrix],
                         u: List[Fraction], v: List[Fraction], k: int, doc: dict) -> List[str]:
    """Re-derive every flag and value with the own evaluator and sympy; for a
    target built from k products through the generators, also the rank bound
    rank g(X) <= k * max rank f_j(X)."""
    cert = doc["certificate"]
    f_values = [ck.eval_poly(f, mats) for f in gens]
    g_value = ck.eval_poly(target, mats)
    f_info = [ck.rank_det(m) for m in f_values]
    g_rank, g_det = ck.rank_det(g_value)
    f_dir = [ck.mat_vec(m, v) for m in f_values]
    expected = {
        "in_zero": all(ck.is_zero(m) for m in f_values),
        "in_directional": all(ck.is_zero([w]) for w in f_dir),
        "in_det_zero": all(det == 0 for _, det in f_info),
        "in_trace_zero": all(ck.trace(m) == 0 for m in f_values),
        "in_weak": all(ck.dot(u, w) == 0 for w in f_dir),
    }
    errors = [f"classification: {name} disagrees" for name, value in expected.items()
              if cert["memberships"][name] != value]
    if [Fraction(x) for x in cert["f_dets"]] != [det for _, det in f_info] \
            or Fraction(cert["g_det"]) != g_det:
        errors.append("classification: a determinant disagrees with sympy")
    if cert["f_ranks"] != [r for r, _ in f_info] or cert["g_rank"] != g_rank:
        errors.append("classification: a rank disagrees with sympy")
    if [Fraction(x) for x in cert["f_traces"]] != [ck.trace(m) for m in f_values] \
            or Fraction(cert["g_trace"]) != ck.trace(g_value):
        errors.append("classification: a trace disagrees")
    if k and g_rank > k * max(r for r, _ in f_info):
        errors.append(f"rank bound violated: rank g = {g_rank} > {k} * max rank f")
    return errors


def _bump(value: str) -> str:
    return str(Fraction(value) + 1)


def _plus_one(text: str) -> str:
    return ck.format_poly(ck.poly_add(ck.parse_canonical(text), ck.constant(1)))


def mutate_document(doc: dict) -> Optional[dict]:
    """A one-field change that makes the document's claim false, or None for
    kinds that carry no checkable evidence."""
    out = copy.deepcopy(doc)
    cert, problem = out["certificate"], out["problem"]
    kind = cert["kind"]
    if kind == "left_combination":
        cert["cofactors"][0] = _plus_one(cert["cofactors"][0])
    elif kind == "hom_combination":
        group = next(g for g in cert["pairs"] if g)
        group[0][0] = _plus_one(group[0][0])
    elif kind == "trace_combination":
        cert["lambdas"][0] = _bump(cert["lambdas"][0])
    elif kind in ("span_coefficients", "composition"):
        cert["coefficients"][0] = _bump(cert["coefficients"][0])
    elif kind in ("left_witness", "hom_witness", "span_witness"):
        problem["target"] = problem["generators"][0]
    elif kind == "composition_not_member" and cert["witness"] is not None:
        cert["witness"]["eigenvalue"] = _bump(cert["witness"]["eigenvalue"])
    elif kind == "classification":
        cert["memberships"]["in_det_zero"] = not cert["memberships"]["in_det_zero"]
    elif kind == "factorization":
        cert["options"][0]["factors"][0] = _plus_one(cert["options"][0]["factors"][0])
    elif kind == "assoc_yes":
        cert["p_mat"][0][0] = _plus_one(cert["p_mat"][0][0])
    elif kind in ("detzero_yes", "detzero_no"):
        cert["g_factors"][0] = _plus_one(cert["g_factors"][0])
    elif kind == "pi_result":
        cert["value"] = not cert["value"]
    elif kind == "weyl":
        problem["n"] += 1
    elif kind == "rankprofile":
        cert["table"][min(cert["table"], key=int)] += 1
    elif kind == "lowrank_exact":
        cert["rank"] = cert["rank"] - 1 if cert["rank"] > 0 else 1
    elif kind == "reference_witnesses":
        # the centre entry of the size-3 witness's X, 0 -> 1: its rank leaves 1
        cert["points"][0]["matrices"][0][1][1] = "1"
    elif kind == "eval":
        cert["value"][0][0] = _bump(cert["value"][0][0])
    else:
        return None
    return out


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

ENGINES = {"left": "left_ideal_membership", "hom": "hom_ideal_membership",
           "trace": "trace_membership", "span": "span_membership"}
# forged `trace_not_member` documents for targets that are tracial members
# with lambda = 1; a sound verifier rejects them
FORGED_TRACE = [(2, "x1*x2", "x2*x1"), (3, "x1*x2*x3", "x3*x1*x2")]


# Generator templates per case.  The seed relabels the variables and scales
# each generator, which keeps the size of every elimination and witness;
# targets are fresh random combinations of a fixed shape.
REPLICAS = 4  # seeded instances per template and round
LEFT_TEMPLATES = [  # (d, generators, cofactor degree, non-member perturbation, non-member copies)
    (1, ["x1^2 + 2*x1"], 2, "x1^3", REPLICAS),
    (2, ["x1*x2 + x1"], 2, "x2*x1^2", REPLICAS),
    (3, ["x1*x2 - x3"], 2, "x3*x2*x1", 1),  # 108x108 witness
    (1, ["x1^2 - 1", "x1^3 - x1"], 1, "x1", REPLICAS),
    (2, ["x1^2 - x2", "x2*x1 + 1"], 1, "x2^2", REPLICAS),
    (3, ["x1*x3 + x2", "x2^2"], 1, "x3*x1", REPLICAS),
]
HOM_TEMPLATES = [  # (d, homogeneous generators, outer degree, non-member perturbation, copies)
    (1, ["x1^2"], 1, "x1", REPLICAS),
    (2, ["x1*x2 - x2*x1"], 1, "x1^2*x2", REPLICAS),
    (3, ["x1*x2 + 2*x2*x3"], 1, "x1^2", 1),  # 108x108 witness
]
TRACE_TEMPLATES = [(2, "x1*x2 + x1^2"), (3, "x1*x2*x3 - x2"), (2, "x1^2*x2 - x2"), (3, "x1*x3 + x2^2")]
# members: combinations of several generators; non-members: one generator
# without a rational zero at size 1, so the witness search always moves on to
# size 2 after the same number of attempts
SPAN_TEMPLATES = [(2, ["x1*x2 + 1", "x2^2 - x1"]), (3, ["x1*x2 + x3", "x3^2", "x2*x1 - 1"])]
SPAN_NONMEMBER_TEMPLATES = [(2, ["x1^2 + x2^2 + 1"]), (3, ["x1^2 + x2^2 + x3^2 + 1"])]


def relabel(p: Poly, perm: Sequence[int], scale: Fraction = Fraction(1)) -> Poly:
    return {tuple(perm[i - 1] for i in w): scale * c for w, c in p.items()}


def template(rng: random.Random, d: int, texts: Sequence[str]) -> Tuple[List[int], List[Poly]]:
    """A seeded relabelling of the variables, and the template generators
    under it, each scaled by a seeded constant."""
    perm = rng.sample(range(1, d + 1), d)
    return perm, [relabel(ck.parse_canonical(t), perm, Fraction(rng.choice([-3, -2, -1, 1, 2, 3])))
                  for t in texts]


def rand_of_degree(rng: random.Random, d: int, degree: int, terms: int = 2) -> Poly:
    """Random polynomial of exactly the given degree: one word of that length
    and terms - 1 words of any length up to it, small integer coefficients."""
    while True:
        p = word(rand_word(rng, d, degree, degree), rng.choice([-2, -1, 1, 2]))
        for _ in range(terms - 1):
            p = ck.poly_add(p, word(rand_word(rng, d, 0, degree), rng.choice([-3, -2, -1, 1, 2, 3])))
        if p and max(len(w) for w in p) == degree:
            return p


def ideal_instances(rng: random.Random) -> List[Tuple[str, bool, int, List[Poly], Poly]]:
    """(engine, constructed member?, d, generators, target); the make-up is
    fixed, the seed only picks words, coefficients and labels."""
    out = []
    for engine, templates in (("left", LEFT_TEMPLATES), ("hom", HOM_TEMPLATES)):
        for d, texts, degree, extra, copies in templates:  # d 1-3, targets of degree <= 4
            for member, count in ((True, REPLICAS), (False, copies)):
                for _ in range(count):
                    perm, gens = template(rng, d, texts)
                    g: Poly = {}
                    for f in gens:
                        if engine == "left":
                            factors = [rand_of_degree(rng, d, degree), f]
                        else:  # one word on each side keeps the target's size fixed
                            factors = [rand_of_degree(rng, d, degree, 1), f,
                                       rand_of_degree(rng, d, degree, 1)]
                        g = ck.poly_add(g, ck.poly_prod(factors))
                    if not member:
                        g = ck.poly_add(g, relabel(ck.parse_canonical(extra), perm),
                                        Fraction(rng.choice([-1, 1, 2])))
                    out.append((engine, member, d, gens, g))
    # the large sparse witness: c*[xa, xb] against a degree-4 word in d = 3
    _, gens = template(rng, 3, ["x1*x2 - x2*x1"])
    out.append(("hom", False, 3, gens, word(rand_word(rng, 3, 4, 4), rng.choice([1, 2]))))
    for _ in range(REPLICAS):
        for d, text in TRACE_TEMPLATES:  # tracial: g-in-span and one-in-span members
            _, (f,) = template(rng, d, [text])
            g = ck.poly_add(ck.poly_mul(ck.constant(rng.choice([2, 3])), f),
                            commutator(word(rand_word(rng, d, 1, 1)), word(rand_word(rng, d, 2, 2))))
            out.append(("trace", True, d, [f], g))
            _, (f,) = template(rng, d, ["1 - x1*x2 + x2*x1"])
            out.append(("trace", True, d, [f], rand_of_degree(rng, d, 3, 3)))
        for d, text in TRACE_TEMPLATES[:2]:  # tracial, unrelated target
            out.append(("trace", False, d, template(rng, d, [text])[1], rand_of_degree(rng, d, 3, 3)))
        for member, templates in ((True, SPAN_TEMPLATES), (False, SPAN_NONMEMBER_TEMPLATES)):
            for d, texts in templates:
                _, gens = template(rng, d, texts)
                g = {}
                for f in gens:
                    g = ck.poly_add(g, f, Fraction(rng.choice([-3, -2, -1, 1, 2, 3])))
                if not member:
                    g = ck.poly_add(g, word(rand_word(rng, d, 2, 2)))
                out.append(("span", member, d, gens, g))
    return out


def ideals(seed: int, root: str) -> Workload:
    from ncvanish import certify, parse, serialize
    from ncvanish.poly import format_poly

    rng = random.Random(f"ideals:{seed}")

    def verify(text: str) -> bool:
        return serialize.verify_certificate(json.loads(text)).ok

    def decide(engine, args, kwargs, problem):
        # the engine is looked up at call time, so a traced run sees it
        cert = serialize.encode_certificate(getattr(certify, engine)(*args, **kwargs))
        return document_text(serialize.make_document(problem, cert))

    cases = []
    for index, (engine, member, d, gens, target) in enumerate(ideal_instances(rng)):
        f_list = [parse(ck.format_poly(f), d) for f in gens]
        g = parse(ck.format_poly(target), d)
        problem = {"d": d, "generators": [format_poly(f) for f in f_list], "target": format_poly(g)}
        kwargs = {"seed": rng.randrange(1 << 16)} if engine == "span" else {}
        cases.append(Case(
            label=f"{engine}-{index}",
            decide=functools.partial(decide, ENGINES[engine], (f_list, g), kwargs, problem),
            verify=verify,
            document=lambda text: text,
            check=functools.partial(check_ideal, engine, member, d, gens, target),
        ))
    for d, gen, target in FORGED_TRACE:
        doc = serialize.make_document({"d": d, "generators": [gen], "target": target},
                                      {"kind": "trace_not_member", "verification": "checked"})
        gens, goal = [ck.parse_canonical(gen)], ck.parse_canonical(target)
        cases.append(Case(
            label=f"forged-trace-d{d}",
            decide=None,
            verify=verify,
            document=lambda text: text,
            check=lambda doc, gens=gens, goal=goal: (
                [] if in_trace_span(gens, goal) else ["forged target is not a tracial member"]),
            forged_text=document_text(doc),
        ))
    return Workload("ideals", cases, accepts=lambda doc: serialize.verify_certificate(doc).ok)


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


POINT_TEMPLATES = {  # generator sets per d, relabelled and scaled per case
    2: [["x1*x2 - x2*x1"], ["x1^2 - x2", "x1*x2 + 1"], ["x1 + x2^2", "x2*x1", "x1^2 - 1"]],
    3: [["x1*x2 - x3"], ["x1*x3 + x2^2", "x3 - 1"], ["x1*x2 - x2*x1", "x3^2 + x1", "x2*x3"]],
}


def point_instances(rng: random.Random):
    """(d, generators, target, k, matrices, u, v, truncation pair?); k > 0
    marks a target built as a sum of k products w * f_j * w'.  A fifth of
    the cases are heavy ones (size 4, three generators, k = 3), so the
    slowest tenth of the operations is made of cases of one make-up."""
    out = []
    for i in range(80):
        if i % 10 == 9:  # 1 - [x1, x2] on the size-n truncation pair
            n = 2 + (i // 10) % 5
            gens = [ck.poly_add(ck.constant(1), commutator(word((1,)), word((2,))), Fraction(-1))]
            out.append((2, gens, rand_of_degree(rng, 2, 2), 0, weyl_matrices(n),
                        [Fraction(rng.randint(-2, 2)) for _ in range(n)],
                        [Fraction(rng.randint(-2, 2)) for _ in range(n)], True))
            continue
        heavy = i % 5 == 3
        n, d = (4, 3) if heavy else (1 + i % 3, 2 + i % 2)
        perm, gens = template(rng, d, POINT_TEMPLATES[d][2 if heavy else i % 3])
        if i % 5 == 1:  # commuting diagonal point: the commutator generator vanishes
            gens[0] = commutator(word(perm[:1]), word(perm[1:2]))
            mats = [[[Fraction(rng.randint(-3, 3)) if r == c else Fraction(0) for c in range(n)]
                     for r in range(n)] for _ in range(d)]
        else:
            mats = rand_matrices(rng, n, d)
        k = 3 if heavy else 1 + (i // 3) % 3
        g: Poly = {}
        for _ in range(k):
            outer = [rand_of_degree(rng, d, 1, 1) for _ in range(2)]
            g = ck.poly_add(g, ck.poly_prod([outer[0], gens[rng.randrange(len(gens))], outer[1]]))
        u = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        v = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        out.append((d, gens, g, k, mats, u, v, False))
    return out


def classification_document(serialize, problem: dict, result) -> dict:
    """The classification document `ncvanish classify` writes."""
    memberships = {
        "in_zero": result.in_zero,
        "in_directional": result.in_directional,
        "in_det_zero": result.in_det_zero,
        "in_trace_zero": result.in_trace_zero,
        "in_weak": result.in_weak,
    }
    cert = {
        "kind": "classification",
        "memberships": memberships,
        "f_dets": [str(x) for x in result.f_dets],
        "f_traces": [str(x) for x in result.f_traces],
        "f_ranks": list(result.f_ranks),
        "g_det": str(result.g_det),
        "g_trace": str(result.g_trace),
        "g_rank": result.g_rank,
        "verification": "verified",
    }
    return serialize.make_document(problem, cert)


def points(seed: int, root: str) -> Workload:
    from ncvanish import MatTuple, QVector, evaluate, parse, serialize
    from ncvanish.poly import format_poly

    rng = random.Random(f"points:{seed}")

    def verify(text: str) -> bool:
        return serialize.verify_certificate(json.loads(text)).ok

    def decide(f_list, g, point, u, v, problem):
        result = evaluate.classify_point(f_list, g, point, u, v)
        full = dict(problem, point=point.to_json(),
                    left=[str(e) for e in u.entries], right=[str(e) for e in v.entries])
        return document_text(classification_document(serialize, full, result))

    cases = []
    for index, (d, gens, target, k, mats, u, v, weyl) in enumerate(point_instances(rng)):
        f_list = [parse(ck.format_poly(f), d) for f in gens]
        g = parse(ck.format_poly(target), d)
        point = MatTuple.from_json(tuple_json(mats))
        problem = {"d": d, "generators": [format_poly(f) for f in f_list], "target": format_poly(g)}
        checks = [functools.partial(check_classification, gens, target, mats, u, v, k)]
        if weyl:
            checks.append(functools.partial(check_weyl_value, mats))
        cases.append(Case(
            label=f"point-{index}",
            decide=functools.partial(decide, f_list, g, point, QVector(u), QVector(v), problem),
            verify=verify,
            document=lambda text: text,
            check=lambda doc, checks=checks: [e for c in checks for e in c(doc)],
        ))
    return Workload("points", cases, accepts=lambda doc: serialize.verify_certificate(doc).ok)


def check_weyl_value(mats: List[Matrix], doc: dict) -> List[str]:
    """1 - [x1, x2] must evaluate to n * E_nn on the size-n pair."""
    n = len(mats[0])
    defect = ck.poly_add(ck.constant(1), commutator(word((1,)), word((2,))), Fraction(-1))
    expected = ck.zeros(n)
    expected[n - 1][n - 1] = Fraction(n)
    return [] if ck.eval_poly(defect, mats) == expected else [f"1 - [x1,x2] is not {n}*E_nn"]


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _factorization_check(f: Poly, doc: dict) -> List[str]:
    errors = []
    for option in doc["certificate"]["options"]:
        product = ck.poly_prod([ck.constant(option["unit"])] + _parsed(option["factors"]))
        if product != f:
            errors.append("factorization does not multiply back")
    return errors


def _mat2_mul(x, y):
    return [[ck.poly_add(ck.poly_mul(x[i][0], y[0][j]), ck.poly_mul(x[i][1], y[1][j]))
             for j in range(2)] for i in range(2)]


def _assoc_yes_errors(p: Poly, q: Poly, cert: dict) -> List[str]:
    """P diag(q,1) Q = diag(p,1) and both inverses, under the own product."""
    mats = {name: [_parsed(row) for row in cert[name]] for name in ("p_mat", "q_mat", "p_inv", "q_inv")}
    one = ck.constant(1)
    identity = [[one, {}], [{}, one]]
    errors = []
    if _mat2_mul(_mat2_mul(mats["p_mat"], [[q, {}], [{}, one]]), mats["q_mat"]) != [[p, {}], [{}, one]]:
        errors.append("assoc_yes: P diag(q,1) Q is not diag(p,1)")
    for m, inv in (("p_mat", "p_inv"), ("q_mat", "q_inv")):
        if _mat2_mul(mats[m], mats[inv]) != identity or _mat2_mul(mats[inv], mats[m]) != identity:
            errors.append(f"assoc_yes: {m} and its inverse do not multiply to 1")
    return errors


def _assoc_no_errors(p: Poly, q: Poly, cert: dict) -> List[str]:
    mats = ck.matrices_of(cert["point"])
    v = [Fraction(x) for x in cert["vector"]]
    killed, alive = (p, q) if cert["vanishing"] == "p" else (q, p)
    if not ck.is_zero([ck.eval_poly_vector(killed, mats, v)]) \
            or ck.is_zero([ck.eval_poly_vector(alive, mats, v)]):
        return ["assoc_no: the vector does not separate the pair"]
    return []


def _assoc_check(p: Poly, q: Poly, doc: dict) -> List[str]:
    if doc["certificate"]["kind"] != "assoc_yes":
        return ["assoc: the rotation chain was not found"]
    return _assoc_yes_errors(p, q, doc["certificate"])


def _lead(p: Poly) -> Fraction:
    """The coefficient of the deglex-greatest word."""
    return p[max(p, key=lambda w: (len(w), w))]


def _detzero_check(gens: List[Poly], g: Poly, kind: str, doc: dict) -> List[str]:
    cert = doc["certificate"]
    if cert["kind"] != kind:
        return [f"detzero: expected {kind}, got {cert['kind']}"]
    g_factors = _parsed(cert["g_factors"])
    errors = []
    if ck.poly_prod([ck.constant(_lead(g))] + g_factors) != g:
        errors.append("detzero: g_factors do not multiply back")
    if cert["kind"] == "detzero_yes":
        f = gens[cert["generator_index"]]
        if ck.poly_prod([ck.constant(_lead(f))] + _parsed(m["factor"] for m in cert["matching"])) != f:
            errors.append("detzero_yes: matched factors do not multiply back")
        for m in cert["matching"]:
            errors += _assoc_yes_errors(ck.parse_canonical(m["factor"]),
                                        ck.parse_canonical(m["matched_to"]), m["assoc"])
    else:
        for ref in cert["refutations"]:
            f = gens[ref["generator_index"]]
            if ck.poly_prod([ck.constant(_lead(f))] + _parsed(ref["f_factors"])) != f:
                errors.append("detzero_no: generator factors do not multiply back")
            refuted = ck.parse_canonical(ref["refuted"])
            for b, no in zip(g_factors, ref["certs"]):
                errors += _assoc_no_errors(refuted, b, no)
    return errors


def _composition_check(inner: Poly, target: Poly, member: bool, doc: dict) -> List[str]:
    cert = doc["certificate"]
    if cert["kind"] == "composition":
        total, power = {}, ck.constant(1)
        for c in cert["coefficients"]:
            total = ck.poly_add(total, power, Fraction(c))
            power = ck.poly_mul(power, inner)
        return [] if total == target else ["composition does not multiply back"]
    if member:
        return ["constructed composition member came back as a non-member"]
    w = cert["witness"]
    mats = ck.matrices_of(w["point"])
    v = [Fraction(x) for x in w["vector"]]
    lam = Fraction(w["eigenvalue"])
    gv = ck.eval_poly_vector(target, mats, v)
    if ck.eval_poly_vector(inner, mats, v) != [lam * x for x in v] or ck.is_zero([v]):
        return ["composition witness: not an eigenvector"]
    if all(v[i] * gv[j] == v[j] * gv[i] for i in range(len(v)) for j in range(len(v))):
        return ["composition witness: target value stays on the eigenline"]
    return []


def _rank_at(f: Poly, data: dict) -> int:
    return ck.rank_det(ck.eval_poly(f, ck.matrices_of(data)))[0]


CLI_REPLICAS = 3  # seeded variants of each subcommand per round


def cli(seed: int, root: str) -> Workload:
    from ncvanish import cli as cli_mod

    rng = random.Random(f"cli:{seed}")
    out_dir = os.path.join(root, "perfbench", "out", f"cli-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    fmt = ck.format_poly
    specs: List[Tuple[str, List[str], Callable[[dict], List[str]]]] = []

    def add(command: str, argv: List[str], check: Callable[[dict], List[str]]) -> None:
        specs.append((f"{command}-{len(specs)}", [command] + argv, check))

    def ideal(command: str, engine: str, member: bool, gens: List[Poly], g: Poly,
              extra: Sequence[str] = ()):
        argv = ["-d", "2"] + [f"-f={fmt(f)}" for f in gens] + [f"-g={fmt(g)}"] + list(extra)
        add(command, argv, functools.partial(check_ideal, engine, member, 2, gens, g))

    def point_file(mats: List[Matrix]) -> str:
        path = os.path.join(out_dir, f"point-{len(specs)}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(tuple_json(mats), handle)
        return path

    x1, x2 = word((1,)), word((2,))
    defect = ck.poly_add(ck.constant(1), commutator(x1, x2), Fraction(-1))
    inner_c = commutator(x1, x2)
    reference = ck.poly_add(ck.constant(1), commutator(x1, ck.poly_mul(inner_c, inner_c)), Fraction(-1))

    # the README examples, and fixed inputs with known answers
    add("member-left", ["-d", "2", "-f", "x1", "-g", "x2*x1"],
        functools.partial(check_ideal, "left", True, 2, [x1], word((2, 1))))
    readme_f = ck.poly_add(word((1, 2, 1)), x1)
    add("factor", ["-d", "2", "-f", "x1*x2*x1 + x1"], functools.partial(_factorization_check, readme_f))
    add("assoc", ["-d", "2", "-p", "x1*x2 + 1", "-q", "x2*x1 + 1", "--seed", "0"],
        functools.partial(_assoc_check, ck.poly_add(word((1, 2)), ck.constant(1)),
                          ck.poly_add(word((2, 1)), ck.constant(1))))
    add("weyl", ["-n", "5"], lambda doc: check_weyl_value(ck.matrices_of(doc["certificate"]["point"]), doc))
    add("lowrank", ["-d", "2", "-f", "1 - (x1*x2 - x2*x1)", "-n", "4", "-r", "1", "--seed", "0"],
        lambda doc: [] if doc["certificate"]["kind"] == "lowrank_exact"
        and _rank_at(defect, doc["certificate"]["point"]) == doc["certificate"]["rank"] <= 1
        else ["lowrank: exact rank disagrees with sympy"])
    add("paper-witnesses", [],
        lambda doc: [] if all(_rank_at(reference, pt) == 1 for pt in doc["certificate"]["points"])
        else ["paper witnesses: rank is not 1 under sympy"])
    # Amitsur-Levitzki: s4 vanishes on 2x2; s3 on 2x2 and s4 on 3x3 do not
    for k, n, expected in ((4, 2, True), (3, 2, False), (4, 3, False)):
        add("pi", ["-d", str(k), f"-f={fmt(standard_poly(k))}", "-n", str(n)],
            lambda doc, expected=expected: [] if doc["certificate"]["value"] is expected
            else ["pi disagrees with Amitsur-Levitzki"])
    no_f, no_g = ck.poly_add(word((1, 2)), ck.constant(1)), ck.poly_add(word((1, 1)), ck.constant(1))
    add("detzero", ["-d", "2", f"-f={fmt(no_f)}", f"-g={fmt(no_g)}", "--seed", "0"],
        functools.partial(_detzero_check, [no_f], no_g, "detzero_no"))

    # seeded variants of every subcommand, drawn from fixed templates
    for rep in range(CLI_REPLICAS):
        d, texts, degree, extra, _ = LEFT_TEMPLATES[1 + 3 * (rep % 2)]
        perm, gens = template(rng, d, texts)
        g = {}
        for f in gens:
            g = ck.poly_add(g, ck.poly_mul(rand_of_degree(rng, d, degree), f))
        ideal("member-left", "left", True, gens, g)
        ideal("member-left", "left", False, gens,
              ck.poly_add(g, relabel(ck.parse_canonical(extra), perm)))
        d, texts, degree, extra, _ = HOM_TEMPLATES[1]
        perm, gens = template(rng, d, texts)
        g = ck.poly_prod([rand_of_degree(rng, d, degree, 1), gens[0], rand_of_degree(rng, d, degree, 1)])
        ideal("member-hom", "hom", True, gens, g)
        ideal("member-hom", "hom", False, gens, ck.poly_add(g, relabel(ck.parse_canonical(extra), perm)))
        _, (f,) = template(rng, 2, [TRACE_TEMPLATES[0][1]])
        ideal("member-trace", "trace", True, [f],
              ck.poly_add(ck.poly_mul(ck.constant(rng.choice([2, 3])), f),
                          commutator(word(rand_word(rng, 2, 1, 1)), word(rand_word(rng, 2, 2, 2)))))
        _, gens = template(rng, 2, ["1 - x1*x2 + x2*x1"])
        ideal("member-trace", "trace", True, gens, rand_of_degree(rng, 2, 3, 3))
        _, gens = template(rng, 2, SPAN_TEMPLATES[0][1])
        g = {}
        for f in gens:
            g = ck.poly_add(g, f, Fraction(rng.choice([-3, -2, -1, 1, 2, 3])))
        ideal("member-span", "span", True, gens, g, ["--seed", str(rng.randrange(1000))])
        _, gens = template(rng, 2, SPAN_NONMEMBER_TEMPLATES[0][1])
        ideal("member-span", "span", False, gens, ck.poly_add(gens[0], word(rand_word(rng, 2, 2, 2))),
              ["--seed", str(rng.randrange(1000))])

        perm, (inner,) = template(rng, 2, ["x1*x2 + x1"])
        coeffs = [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)), Fraction(rng.choice([-2, -1, 1, 2]))]
        target = ck.poly_add(ck.poly_add(ck.constant(coeffs[0]), inner, coeffs[1]),
                             ck.poly_mul(inner, inner), coeffs[2])
        outside = relabel(ck.parse_canonical("x1^2 + x2"), perm)
        for goal, member in ((target, True), (outside, False)):
            add("member-comp", ["-d", "2", f"-f={fmt(inner)}", f"-g={fmt(goal)}",
                                "--seed", str(rng.randrange(1000))],
                functools.partial(_composition_check, inner, goal, member))

        a, (b, c) = rng.choice([1, 2]), rng.sample([1, 2], 2)
        f = ck.poly_mul(ck.poly_add(word((a,)), ck.constant(rng.choice([-2, -1, 1, 2]))),
                        ck.poly_add(word((b, c)), ck.constant(rng.choice([-2, -1, 1, 2]))))
        add("factor", ["-d", "2", f"-f={fmt(f)}"], functools.partial(_factorization_check, f))
        u, v, c = word(rand_word(rng, 2, 1, 1)), word(rand_word(rng, 2, 2, 2)), rng.choice([1, 2, 3])
        p, q = ck.poly_add(ck.poly_mul(u, v), ck.constant(c)), ck.poly_add(ck.poly_mul(v, u), ck.constant(c))
        add("assoc", ["-d", "2", f"-p={fmt(p)}", f"-q={fmt(q)}", "--seed", str(rng.randrange(1000))],
            functools.partial(_assoc_check, p, q))
        i, j = rng.sample([1, 2], 2)
        yes_f = ck.poly_add(word((i, j)), ck.constant(1))
        yes_g = ck.poly_mul(ck.poly_add(word((j, i)), ck.constant(1)), word((rng.randint(1, 2),)))
        add("detzero", ["-d", "2", f"-f={fmt(yes_f)}", f"-g={fmt(yes_g)}", "--seed", str(rng.randrange(1000))],
            functools.partial(_detzero_check, [yes_f], yes_g, "detzero_yes"))

        add("weyl", ["-n", str(rng.choice([4, 5, 6]))],
            lambda doc: check_weyl_value(ck.matrices_of(doc["certificate"]["point"]), doc))
        _, (rp,) = template(rng, 2, ["x1*x2 - x2*x1 + x1"])
        add("rankprofile", ["-d", "2", f"-f={fmt(rp)}", "--seed", str(rng.randrange(1000)),
                            "--n-max", "3", "--samples", "5"],
            lambda doc: [] if all(0 <= r <= int(n) for n, r in doc["certificate"]["table"].items())
            else ["rankprofile: a rank exceeds the size"])
        ev_f, ev_mats = rand_of_degree(rng, 2, 3, 3), rand_matrices(rng, 3, 2)
        add("eval", ["-d", "2", f"-f={fmt(ev_f)}", "--point", point_file(ev_mats)],
            lambda doc, ev_f=ev_f, ev_mats=ev_mats: [] if ck.eval_poly(ev_f, ev_mats)
            == ck.matrices_of({"matrices": [doc["certificate"]["value"]]})[0]
            else ["eval: value disagrees with the own evaluator"])
        _, cl_gens = template(rng, 2, POINT_TEMPLATES[2][1])
        cl_g = ck.poly_prod([rand_of_degree(rng, 2, 1, 1), cl_gens[0], rand_of_degree(rng, 2, 1, 1)])
        cl_mats = rand_matrices(rng, 3, 2)
        cl_u, cl_v = ([Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(2))
        add("classify", ["-d", "2"] + [f"-f={fmt(f)}" for f in cl_gens]
            + [f"-g={fmt(cl_g)}", "--point", point_file(cl_mats),
               "--left=" + ",".join(map(str, cl_u)), "--right=" + ",".join(map(str, cl_v))],
            functools.partial(check_classification, cl_gens, cl_g, cl_mats, cl_u, cl_v, 1))

    def run_cli(argv: List[str]) -> int:
        """The exit code `ncvanish <argv>` returns (argparse exits on usage errors)."""
        try:
            return cli_mod.dispatch(argv)
        except SystemExit as exc:
            return exc.code

    def make_case(label: str, argv: List[str], check) -> Case:
        path = os.path.join(out_dir, f"{label}.cert.json")

        def document(code: int) -> str:
            if code != 0:
                raise RuntimeError(f"{argv[0]} exited with {code}")
            with open(path, encoding="utf-8") as handle:
                return handle.read()

        return Case(
            label=label,
            decide=functools.partial(run_cli, argv + ["--out", path, "--force"]),
            verify=lambda text: run_cli(["verify-cert", path]) == 0,
            document=document,
            check=check,
        )

    def accepts(doc: dict) -> bool:
        path = os.path.join(out_dir, "mutant.cert.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(document_text(doc))
        return run_cli(["verify-cert", path]) == 0

    return Workload("cli", [make_case(*spec) for spec in specs], accepts=accepts,
                    cleanup=lambda: shutil.rmtree(out_dir, ignore_errors=True))


WORKLOADS = {"ideals": ideals, "points": points, "cli": cli}
