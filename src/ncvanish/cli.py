"""Command-line front end.

Every engine run writes two artifacts: a certificate document and a run
record carrying the full configuration, input digests and outcome, so any
result can be replayed or handed to `verify-cert` on its own.  Exit codes:
0 for a decided or verified outcome, 2 for an honest Unknown (`assoc`,
`detzero`, `lowrank`), 1 for usage or data errors.  Commands with any
randomness take a mandatory --seed; `member-span` is deterministic and
accepts a --seed only to ignore it.  Each handler imports the engine it runs,
so `verify-cert` loads only the verifier's trusted base (`serialize` and the
modules it imports) and never numpy.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from typing import Dict, List, Tuple

from . import serialize
from .checks import InternalInconsistencyError
from .evaluate import (
    MatTuple,
    ResourceCapError,
    classify_point,
    eval_poly,
    nonvanishing_point,
    weyl_pair,
)
from .linalg import QVector
from .poly import NcParseError, NcPoly, format_poly, parse

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the artifact contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="ncvanish", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add(name: str, help_text: str, seeded: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=f"{name}.cert.json", help="certificate output path")
        p.add_argument("--force", action="store_true", help="overwrite existing artifacts")
        if seeded:
            p.add_argument("--seed", type=int, required=True, help="seed (mandatory: no implicit randomness)")
        return p

    p = add("eval", "evaluate a polynomial at an exact matrix tuple")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-f", required=True, help="polynomial")
    p.add_argument("--point", required=True, help="matrix tuple JSON file")

    p = add("classify", "membership of a point in the vanishing sets")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-f", action="append", required=True, help="constraint (repeatable)")
    p.add_argument("-g", required=True, help="test polynomial")
    p.add_argument("--point", required=True, help="matrix tuple JSON file")
    p.add_argument("--left", help="comma-separated rational row vector (read with --right)")
    p.add_argument("--right", help="comma-separated rational column vector")

    p = add("member-left", "left ideal membership with certificate")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-f", action="append", required=True)
    p.add_argument("-g", required=True)

    p = add("member-hom", "homogeneous two-sided ideal membership")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-f", action="append", required=True)
    p.add_argument("-g", required=True)

    p = add("member-trace", "trace vanishing test (span modulo commutators)")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-f", action="append", required=True)
    p.add_argument("-g", required=True)

    p = add("member-span", "linear span membership / weak zero witness")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-f", action="append", required=True)
    p.add_argument("-g", required=True)
    p.add_argument("--seed", type=int, help="accepted and ignored: the answer is deterministic")

    p = add("member-comp", "membership in the subalgebra generated by one polynomial", seeded=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-f", required=True, help="inner polynomial")
    p.add_argument("-g", required=True, help="target polynomial")

    p = add("factor", "all complete factorizations")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-f", required=True)
    p.add_argument("--max-degree", type=int, default=10)

    p = add("assoc", "stable associativity of two polynomials", seeded=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-p", required=True)
    p.add_argument("-q", required=True)
    p.add_argument("--chain-depth", type=int, default=4)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--samples", type=int, default=200)

    p = add("detzero", "determinantal vanishing-set inclusion via factor matching", seeded=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-f", action="append", required=True)
    p.add_argument("-g", required=True)
    p.add_argument("--max-degree", type=int, default=10)

    p = add("pi", "polynomial identity test on n-by-n matrices")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-f", required=True)
    p.add_argument("-n", type=int, required=True)

    p = add("weyl", "emit the rank-1 truncation pair of a given size")
    p.add_argument("-n", type=int, required=True)

    p = add("rankprofile", "minimum observed exact rank per matrix size", seeded=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-f", required=True)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--samples", type=int, default=20)

    p = add("lowrank", "numerical low-rank search with exactification", seeded=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-f", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, required=True, help="target rank")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument("--max-den", type=int, default=10**6)
    p.add_argument("--tol", type=float, default=1e-12)

    p = add("paper-witnesses", "re-verify the published rank-1 reference witnesses")

    p = sub.add_parser("verify-cert", help="re-check a certificate document")
    p.add_argument("path", help="certificate JSON file")

    return parser


# ---------------------------------------------------------------------------
# Artifact plumbing
# ---------------------------------------------------------------------------


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _check_overwrite(args) -> None:
    for path in (args.out, args.out + ".run.json"):
        if os.path.exists(path) and not args.force:
            raise FileExistsError(f"{path} exists; pass --force to overwrite")


def _write_artifacts(
    args, problem: dict, certificate: dict, outcome: str,
    inputs: Dict[str, str], started: float,
) -> None:
    out = args.out
    run_path = out + ".run.json"
    doc = serialize.make_document(problem, certificate)
    serialize.save_document(doc, out)
    config = {
        k: v for k, v in vars(args).items()
        if k not in ("command", "func") and not k.startswith("_")
    }
    record = {
        "command": args.command,
        "config": config,
        "inputs": inputs,
        "outcome": outcome,
        "certificate": out,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    with open(run_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"certificate written to {out}")


def _parse_vector(text: str) -> QVector:
    return QVector([part.strip() for part in text.split(",")])


def _gen_problem(args) -> Tuple[dict, Dict[str, str], List[NcPoly], NcPoly]:
    gens = [parse(s, args.d) for s in args.f]
    target = parse(args.g, args.d)
    problem = {
        "d": args.d,
        "generators": [format_poly(f) for f in gens],
        "target": format_poly(target),
    }
    inputs = {"generators": _digest(json.dumps(problem["generators"])),
              "target": _digest(problem["target"])}
    return problem, inputs, gens, target


# ---------------------------------------------------------------------------
# Command handlers: each returns (exit_code, problem, certificate, outcome)
# ---------------------------------------------------------------------------


def _run_eval(args):
    f = parse(args.f, args.d)
    point = MatTuple.load(args.point)
    if point.d != args.d:
        raise ValueError(f"point has {point.d} coordinates, polynomial expects {args.d}")
    value = eval_poly(f, point)
    problem = {"d": args.d, "polynomial": format_poly(f), "point": point.to_json()}
    cert = serialize.tagged("eval", value=value.to_json())
    print(f"value of {args.f} at the {point.n}x{point.n} tuple:")
    for row in cert["value"]:
        print("  [" + ", ".join(row) + "]")
    inputs = {"polynomial": _digest(problem["polynomial"]), "point": _digest_file(args.point)}
    return EXIT_OK, problem, cert, "evaluated", inputs


def _run_classify(args):
    problem, inputs, gens, target = _gen_problem(args)
    point = MatTuple.load(args.point)
    if point.d != args.d:
        raise ValueError(f"point has {point.d} coordinates, polynomials expect {args.d}")
    u = _parse_vector(args.left) if args.left else None
    v = _parse_vector(args.right) if args.right else None
    if u is not None and v is None:
        raise ValueError("--left is read only together with --right")
    for name, vector in (("--left", u), ("--right", v)):
        if vector is not None and len(vector) != point.n:
            raise ValueError(f"{name} has {len(vector)} entries, the point is {point.n}x{point.n}")
    result = classify_point(gens, target, point, u, v)
    problem["point"] = point.to_json()
    problem["left"] = None if u is None else u.to_json()
    problem["right"] = None if v is None else v.to_json()
    memberships = {
        "in_zero": result.in_zero,
        "in_directional": result.in_directional,
        "in_det_zero": result.in_det_zero,
        "in_trace_zero": result.in_trace_zero,
        "in_weak": result.in_weak,
    }
    cert = serialize.tagged(
        "classification",
        memberships=memberships,
        f_dets=[str(x) for x in result.f_dets],
        f_traces=[str(x) for x in result.f_traces],
        f_ranks=list(result.f_ranks),
        g_det=str(result.g_det),
        g_trace=str(result.g_trace),
        g_rank=result.g_rank,
    )
    for name, value in memberships.items():
        shown = "n/a" if value is None else ("yes" if value else "no")
        print(f"{name:16s} {shown}")
    inputs["point"] = _digest_file(args.point)
    return EXIT_OK, problem, cert, "classified", inputs


def _run_member_left(args):
    from . import certify
    problem, inputs, gens, target = _gen_problem(args)
    result = certify.left_ideal_membership(gens, target)
    cert = serialize.encode_certificate(result)
    if isinstance(result, certify.LeftCombination):
        print("Member of the left ideal; cofactors:")
        for p, f in zip(result.cofactors, gens):
            print(f"  ({format_poly(p)}) * ({format_poly(f)})")
        outcome = "member"
    else:
        print(f"Not a member: directional witness of size {result.point.n}")
        outcome = "not-member"
    return EXIT_OK, problem, cert, outcome, inputs


def _run_member_hom(args):
    from . import certify
    problem, inputs, gens, target = _gen_problem(args)
    result = certify.hom_ideal_membership(gens, target)
    cert = serialize.encode_certificate(result)
    if isinstance(result, certify.HomCombination):
        print("Member of the two-sided ideal; cofactor pairs per generator:")
        for group, f in zip(result.pairs, gens):
            for p, q in group:
                print(f"  ({format_poly(p)}) * ({format_poly(f)}) * ({format_poly(q)})")
        outcome = "member"
    else:
        print(f"Not a member: matrix witness of size {result.point.n}")
        outcome = "not-member"
    return EXIT_OK, problem, cert, outcome, inputs


def _run_member_trace(args):
    from . import certify
    problem, inputs, gens, target = _gen_problem(args)
    result = certify.trace_membership(gens, target)
    cert = serialize.encode_certificate(result)
    if isinstance(result, certify.TraceCombination):
        print(f"Trace-membership holds via branch {result.branch}")
        outcome = "member"
    else:
        print("Not in the span modulo commutators")
        outcome = "not-member"
    return EXIT_OK, problem, cert, outcome, inputs


def _run_member_span(args):
    from . import certify
    problem, inputs, gens, target = _gen_problem(args)
    result = certify.span_membership(gens, target)
    cert = serialize.encode_certificate(result)
    if isinstance(result, certify.SpanCoefficients):
        print("In the linear span; coefficients: "
              + ", ".join(str(c) for c in result.coefficients))
        return EXIT_OK, problem, cert, "member", inputs
    print(f"Not in the span: weak witness at size {result.point.n}")
    return EXIT_OK, problem, cert, "not-member", inputs


def _run_member_comp(args):
    from . import certify
    inner = parse(args.f, args.d)
    target = parse(args.g, args.d)
    problem = {"d": args.d, "inner": format_poly(inner), "target": format_poly(target)}
    inputs = {"inner": _digest(problem["inner"]), "target": _digest(problem["target"])}
    result = certify.in_univariate_subalgebra(target, inner, seed=args.seed)
    cert = serialize.encode_certificate(result)
    if isinstance(result, certify.CompositionCoefficients):
        print("Target is a polynomial in the inner polynomial; coefficients (low degree first): "
              + ", ".join(str(c) for c in result.coefficients))
        outcome = "member"
    else:
        detail = "separating functional" + (" and eigenvector witness" if result.witness else "")
        print(f"Not a polynomial in the inner polynomial ({detail})")
        outcome = "not-member"
    return EXIT_OK, problem, cert, outcome, inputs


def _run_factor(args):
    from . import factorization as factor_mod
    f = parse(args.f, args.d)
    problem = {"d": args.d, "polynomial": format_poly(f), "max_degree": args.max_degree}
    inputs = {"polynomial": _digest(problem["polynomial"])}
    result = factor_mod.factor(f, max_degree=args.max_degree)
    cert = serialize.encode_certificate(result)
    print(f"{len(result)} complete factorization(s):")
    for fz in result:
        parts = " * ".join(f"({format_poly(p)})" for p in fz.factors) or "1"
        flags = "".join("!" if not e.exhaustive else "" for e in fz.evidence)
        print(f"  {fz.unit} * {parts}{'   [unverified irreducibility]' if flags else ''}")
    return EXIT_OK, problem, cert, f"{len(result)} factorizations", inputs


def _run_assoc(args):
    from . import factorization as factor_mod
    p = parse(args.p, args.d)
    q = parse(args.q, args.d)
    problem = {"d": args.d, "p": format_poly(p), "q": format_poly(q)}
    inputs = {"p": _digest(problem["p"]), "q": _digest(problem["q"])}
    result = factor_mod.stable_assoc(
        p, q, chain_depth=args.chain_depth, n_max=args.n_max,
        samples_per_size=args.samples, seed=args.seed,
    )
    cert = serialize.encode_certificate(result)
    if isinstance(result, factor_mod.AssocYes):
        print("Stably associated; P and Q over the free algebra:")
        for name, mat in (("P", result.p_mat), ("Q", result.q_mat)):
            for i, row in enumerate(mat):
                label = f"  {name} = " if i == 0 else "      "
                print(label + "[" + ", ".join(format_poly(e) for e in row) + "]")
        return EXIT_OK, problem, cert, "yes", inputs
    if isinstance(result, factor_mod.AssocNo):
        print(f"Not stably associated: separating directional zero at size {result.point.n}")
        return EXIT_OK, problem, cert, "no", inputs
    print("Unknown within the configured chain depth and sample bounds")
    return EXIT_UNKNOWN, problem, cert, "unknown", inputs


def _run_detzero(args):
    from . import factorization as factor_mod
    problem, inputs, gens, target = _gen_problem(args)
    result = factor_mod.detzero_inclusion(
        gens, target, max_degree=args.max_degree, seed=args.seed
    )
    cert = serialize.encode_certificate(result)
    if isinstance(result, factor_mod.DetZeroYes):
        print(f"Inclusion holds: every factor of generator {result.generator_index} "
              "matches a factor of the target")
        return EXIT_OK, problem, cert, "yes", inputs
    if isinstance(result, factor_mod.DetZeroNo):
        print("Inclusion fails: every generator has a factor matching nothing in the target")
        return EXIT_OK, problem, cert, "no", inputs
    print(f"Unknown: {result.reason}")
    return EXIT_UNKNOWN, problem, cert, "unknown", inputs


def _run_pi(args):
    f = parse(args.f, args.d)
    problem = {"d": args.d, "polynomial": format_poly(f), "n": args.n}
    inputs = {"polynomial": _digest(problem["polynomial"])}
    point = nonvanishing_point(f, args.n)
    value = point is None
    evidence = {} if value else {"point": point.to_json()}
    cert = serialize.tagged("pi_result", value=value, **evidence)
    print(f"identically zero on {args.n}x{args.n} matrices: {'yes' if value else 'no'}")
    return EXIT_OK, problem, cert, "identity" if value else "not-identity", inputs


def _run_weyl(args):
    point = weyl_pair(args.n)
    problem = {"n": args.n}
    cert = serialize.tagged("weyl", point=point.to_json())
    print(f"truncation pair of size {args.n} written; "
          f"1 - [x1,x2] evaluates to {args.n} * E_nn on it")
    return EXIT_OK, problem, cert, "emitted", {}


def _run_rankprofile(args):
    from . import lowrank as lowrank_mod
    f = parse(args.f, args.d)
    sizes = list(range(args.n_min, args.n_max + 1))
    problem = {
        "d": args.d, "polynomial": format_poly(f),
        "sizes": sizes, "samples": args.samples, "seed": args.seed,
    }
    inputs = {"polynomial": _digest(problem["polynomial"])}
    profile = lowrank_mod.rank_profile(f, sizes, samples=args.samples, seed=args.seed)
    cert = serialize.tagged(
        "rankprofile",
        table={str(n): r for n, (r, _) in profile.items()},
        points={str(n): point.to_json() for n, (_, point) in profile.items()},
    )
    print("n   min observed rank")
    for n in sizes:
        print(f"{n:<3d} {profile[n][0]}")
    return EXIT_OK, problem, cert, "profiled", inputs


def _run_lowrank(args):
    from . import lowrank as lowrank_mod
    f = parse(args.f, args.d)
    cfg = lowrank_mod.SearchConfig(
        target_rank=args.r, restarts=args.restarts, max_iters=args.max_iters,
        tolerance=args.tol, seed=args.seed, max_den=args.max_den,
    )
    problem = {
        "d": args.d, "polynomial": format_poly(f), "n": args.n,
        "target_rank": args.r, "restarts": args.restarts,
        "max_iters": args.max_iters, "seed": args.seed,
        "max_den": args.max_den, "tolerance": args.tol,
    }
    inputs = {"polynomial": _digest(problem["polynomial"])}
    result = lowrank_mod.lowrank_search(f, args.n, cfg)
    print(f"best objective {result.objective:.3e} at restart {result.restart} "
          f"after {result.iterations} iterations")
    if result.exact is not None:
        point, exact_rank = result.exact
        cert = serialize.tagged(
            "lowrank_exact", point=point.to_json(), rank=exact_rank,
            objective=result.objective, restart=result.restart,
        )
        print(f"exactified: rational point with exact rank {exact_rank}")
        return EXIT_OK, problem, cert, "exact", inputs
    cert = serialize.tagged(
        "lowrank_report", objective=result.objective, restart=result.restart,
        float_point=result.best.to_json(),
    )
    print("no exact witness recovered")
    return EXIT_UNKNOWN, problem, cert, "no-exact-witness", inputs


def _run_reference(args):
    from . import lowrank as lowrank_mod
    report = lowrank_mod.verify_reference_witnesses()
    points = lowrank_mod.reference_witnesses()
    cert = serialize.tagged(
        "reference_witnesses",
        points=[p.to_json() for p in points],
        ranks={str(n): r for n, r in report["ranks"].items()},
        identity_on_2x2=report["identity_on_2x2"],
    )
    problem = {"polynomial": format_poly(report["polynomial"])}
    print("published witnesses re-checked: rank 1 at sizes 3 and 4; "
          "the polynomial is constantly I on 2x2 matrices")
    return EXIT_OK, problem, cert, "verified", {}


_HANDLERS = {
    "eval": _run_eval,
    "classify": _run_classify,
    "member-left": _run_member_left,
    "member-hom": _run_member_hom,
    "member-trace": _run_member_trace,
    "member-span": _run_member_span,
    "member-comp": _run_member_comp,
    "factor": _run_factor,
    "assoc": _run_assoc,
    "detzero": _run_detzero,
    "pi": _run_pi,
    "weyl": _run_weyl,
    "rankprofile": _run_rankprofile,
    "lowrank": _run_lowrank,
    "paper-witnesses": _run_reference,
}


_POLYNOMIAL_STARTS = set("0123456789x([")


def _attach_polynomials(argv: List[str]) -> List[str]:
    """argparse takes a separate value starting with '-' for an option, so a
    polynomial such as -3*x1 after -f, -g, -p or -q is attached as -f=-3*x1.
    Only a '-' followed by what can start a polynomial is attached, so an
    option given where the value is missing (-f --n-max) stays an option."""
    out: List[str] = []
    for arg in argv:
        if out and out[-1] in ("-f", "-g", "-p", "-q") and arg.startswith("-") \
                and arg[1:2] in _POLYNOMIAL_STARTS:
            arg = f"{out.pop()}={arg}"
        out.append(arg)
    return out


def dispatch(argv: List[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_polynomials(argv))
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_ERROR

    if args.command == "verify-cert":
        try:
            doc = serialize.load_document(args.path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        result = serialize.verify_certificate(doc)
        status = "VERIFIED" if result.ok else "FAILED"
        print(f"{status} [{result.kind}] {result.detail}")
        return EXIT_OK if result.ok else EXIT_ERROR

    started = time.perf_counter()
    handler = _HANDLERS[args.command]
    try:
        _check_overwrite(args)
        code, problem, cert, outcome, inputs = handler(args)
        _write_artifacts(args, problem, cert, outcome, inputs, started)
    except (NcParseError, ValueError, OSError, json.JSONDecodeError,
            ResourceCapError, InternalInconsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
