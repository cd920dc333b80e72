"""One checker per certificate kind.

A checker takes the claim of a certificate as decoded objects (polynomials,
matrix tuples, vectors) and raises CheckFailed naming the first part of the
claim that does not hold.  A witness is its point and vectors (and an
eigenvalue): every value at them follows, so its checker computes them and
returns nothing, and a witness document stores none of them.  Only the
checkers of value claims return what they computed (`classification`'s
dets, traces and ranks, `reference_witnesses`' ranks), because the stored
values are the answer itself; `serialize.verify_certificate` compares them
with the document's.  Engines run the checker of every certificate they
build, through `self_check`, or as the test that accepts a search candidate
(eigenvector and separating-point witnesses, `try_candidate`).

Checkers use polynomial arithmetic, exact linear algebra and evaluation
only; nothing here imports an engine or draws a random number.  Kinds that
carry only search metadata (`assoc_unknown`, `detzero_unknown`,
`lowrank_report`) have no checker.  Rank and identity claims carry their
points: `rank_at` computes the exact rank at a stored point for
`lowrank_exact`, `reference_witnesses` and `rankprofile`, and a False
`pi_result` is checked by evaluating at its point.  Only a True
`pi_result`, and the 2x2 identity of the reference polynomial, run the
symbolic path-sum expansion of `pi_test` on generic matrices, because the
expansion is their proof; `evaluate.PI_MAX_OPS` bounds it (s6 on 3x3, an
Amitsur-Levitzki identity, charges about 2.2 million of its 10 million).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple

from .evaluate import (
    MatTuple,
    classify_point,
    eval_poly,
    eval_poly_vector,
    pi_test,
    reference_poly,
    weyl_pair,
)
from .linalg import QMatrix, QVector, rank
from .poly import MAX_PARSE_TERMS, NcPoly, commutator

Mat2 = Tuple[Tuple[NcPoly, NcPoly], Tuple[NcPoly, NcPoly]]


class CheckFailed(ValueError):
    """A certificate does not establish its claim."""


class NotSeparated(CheckFailed):
    """A witness candidate that is valid but separates nothing."""


class InternalInconsistencyError(RuntimeError):
    """A constructed certificate failed its own check: a bug."""


def self_check(checker: Callable, *args):
    """Run `checker` on a certificate an engine just built; a failure can
    only come from a bug, never from the input."""
    try:
        return checker(*args)
    except CheckFailed as exc:
        raise InternalInconsistencyError(f"constructed certificate failed its check: {exc}") from exc


def try_candidate(checker: Callable, *args) -> bool:
    """Run `checker` on a search candidate.  False when the candidate
    separates nothing, which only means trying the next one; any other
    failure can only come from a bug."""
    try:
        checker(*args)
        return True
    except NotSeparated:
        return False
    except CheckFailed as exc:
        raise InternalInconsistencyError(f"search candidate failed its check: {exc}") from exc


def _require(holds: bool, message: str) -> None:
    if not holds:
        raise CheckFailed(message)


def _total(polys: Iterable[NcPoly], d: int) -> NcPoly:
    total = NcPoly.zero(d)
    for p in polys:
        total = total + p
    return total


def _product(unit: Fraction, factors: Sequence[NcPoly], d: int) -> NcPoly:
    product = NcPoly.constant(unit, d)
    for p in factors:
        product = product * p
    return product


def _separates(f_values: Sequence, g_value, is_zero: Callable, where: str) -> None:
    for i, value in enumerate(f_values):
        _require(is_zero(value), f"generator {i} is nonzero {where}")
    _require(not is_zero(g_value), f"target also vanishes {where}")


# ---------------------------------------------------------------------------
# Ideal, trace and span membership
# ---------------------------------------------------------------------------


def left_combination(gens: Sequence[NcPoly], target: NcPoly, cofactors: Sequence[NcPoly]) -> None:
    """target = sum of cofactors[j] * f_j."""
    _require(len(cofactors) == len(gens), "cofactor count mismatch")
    total = _total((p * f for p, f in zip(cofactors, gens)), target.d)
    _require(total == target, "sum of cofactor products misses the target")


def left_witness(gens: Sequence[NcPoly], target: NcPoly, point: MatTuple, vector: QVector) -> None:
    """Directional zero: f_j(X)v = 0 for every generator, g(X)v != 0."""
    _separates(
        [eval_poly_vector(f, point, vector) for f in gens],
        eval_poly_vector(target, point, vector),
        QVector.is_zero,
        "on the vector",
    )


def hom_combination(
    gens: Sequence[NcPoly], target: NcPoly, pairs: Sequence[Sequence[Tuple[NcPoly, NcPoly]]]
) -> None:
    """target = sum over j of u * f_j * v for the (u, v) pairs of generator j."""
    _require(len(pairs) == len(gens), "pair group count mismatch")
    total = _total((u * f * v for f, group in zip(gens, pairs) for u, v in group), target.d)
    _require(total == target, "two-sided combination misses the target")


def hom_witness(gens: Sequence[NcPoly], target: NcPoly, point: MatTuple) -> None:
    """Every f_j(X) is the zero matrix while g(X) is not."""
    _separates(
        [eval_poly(f, point) for f in gens], eval_poly(target, point), QMatrix.is_zero, "at the point"
    )


def trace_combination(
    gens: Sequence[NcPoly],
    target: NcPoly,
    branch: str,
    lambdas: Sequence[Fraction],
    commutators: Sequence[Tuple[NcPoly, NcPoly]],
) -> None:
    """goal = sum of lambdas[j] f_j plus the commutators; the goal is 1 on
    branch 'one-in-span' and the target otherwise."""
    _require(len(lambdas) == len(gens), "lambda count mismatch")
    goal = NcPoly.one(target.d) if branch == "one-in-span" else target
    parts = [lam * f for lam, f in zip(lambdas, gens)] + [commutator(a, b) for a, b in commutators]
    _require(_total(parts, target.d) == goal, "combination plus commutators misses the goal")


def _pairing(functional: NcPoly, p: NcPoly) -> Fraction:
    return sum((c * functional.coeff(w) for w, c in p.terms.items()), Fraction(0))


def trace_not_member(
    gens: Sequence[NcPoly], target: NcPoly, functionals: Sequence[NcPoly]
) -> None:
    """One linear functional on cyclic words per goal (1, then the target),
    read as word -> coefficient.  Each vanishes on every cyclically reduced
    generator and is 1 on its cyclically reduced goal, so neither goal is a
    combination of the generators plus commutators."""
    _require(len(functionals) == 2, "need one functional for 1 and one for the target")
    reduced = [f.cyclic_reduce() for f in gens]
    for name, goal, phi in zip(("1", "the target"), (NcPoly.one(target.d), target), functionals):
        for i, r in enumerate(reduced):
            _require(_pairing(phi, r) == 0, f"functional for {name} is nonzero on generator {i}")
        _require(_pairing(phi, goal.cyclic_reduce()) == 1, f"functional for {name} is not 1 on it")


def span_coefficients(gens: Sequence[NcPoly], target: NcPoly, coefficients: Sequence[Fraction]) -> None:
    """target = sum of coefficients[j] * f_j."""
    _require(len(coefficients) == len(gens), "coefficient count mismatch")
    total = _total((c * f for c, f in zip(coefficients, gens)), target.d)
    _require(total == target, "linear combination misses the target")


def span_witness(
    gens: Sequence[NcPoly], target: NcPoly, point: MatTuple, left: QVector, right: QVector
) -> None:
    """Weak zero: u^t f_j(X) v = 0 for every generator, u^t g(X) v != 0,
    with u = left and v = right."""
    _separates(
        [left.dot(eval_poly_vector(f, point, right)) for f in gens],
        left.dot(eval_poly_vector(target, point, right)),
        lambda s: s == 0,
        "in the weak pairing",
    )


# ---------------------------------------------------------------------------
# Single-generator subalgebra
# ---------------------------------------------------------------------------


def _top_power(inner: NcPoly, target: NcPoly) -> int:
    """m = deg target // deg inner (0 for a constant inner or target): inner^i
    has lead word lead(inner)^i, so no higher power can reach the target."""
    return int(target.degree) // int(inner.degree) if min(inner.degree, target.degree) > 0 else 0


def inner_powers(inner: NcPoly, target: NcPoly) -> Iterator[NcPoly]:
    """inner^0 .. inner^m (`_top_power`), one at a time.  A power whose
    term-count bound (and work), the previous power's term count times
    inner's, exceeds MAX_PARSE_TERMS is refused."""
    power = NcPoly.one(target.d)
    yield power
    for i in range(1, _top_power(inner, target) + 1):
        _require(len(power.terms) * len(inner.terms) <= MAX_PARSE_TERMS,
                 f"term-count bound of inner^{i} exceeds MAX_PARSE_TERMS = {MAX_PARSE_TERMS}")
        power = power * inner
        yield power


def composition(inner: NcPoly, target: NcPoly, coefficients: Sequence[Fraction]) -> None:
    """target = sum of coefficients[i] * inner**i, i <= m (`inner_powers`)."""
    count = _top_power(inner, target) + 1
    _require(len(coefficients) <= count,
             f"{len(coefficients)} coefficients where m + 1 = {count} powers reach the target")
    total = _total((c * p for c, p in zip(coefficients, inner_powers(inner, target))), target.d)
    _require(total == target, "polynomial in the inner function misses the target")


def eigen_witness(
    inner: NcPoly, target: NcPoly, point: MatTuple, vector: QVector, eigenvalue: Fraction
) -> None:
    """inner(X)v = eigenvalue * v while target(X)v leaves the line of v."""
    _require(not vector.is_zero(), "witness vector is zero")
    _require(
        eval_poly_vector(inner, point, vector) == eigenvalue * vector,
        "vector is not an eigenvector at the stated eigenvalue",
    )
    g_value = eval_poly_vector(target, point, vector)
    n = len(vector)
    parallel = all(
        vector[i] * g_value[j] == vector[j] * g_value[i] for i in range(n) for j in range(n)
    )
    if parallel:
        raise NotSeparated("target value is parallel to the vector, witness shows nothing")


def composition_not_member(inner: NcPoly, target: NcPoly, functional: NcPoly) -> None:
    """The functional, read as word -> coefficient, vanishes on every power
    of `inner_powers` and is 1 on the target, so no polynomial in inner
    equals the target."""
    for i, power in enumerate(inner_powers(inner, target)):
        _require(_pairing(functional, power) == 0, f"functional is nonzero on inner^{i}")
    _require(_pairing(functional, target) == 1, "functional is not 1 on the target")


# ---------------------------------------------------------------------------
# Factorization, stable associativity, determinantal inclusion
# ---------------------------------------------------------------------------


def factorization(
    f: NcPoly, options: Sequence[Tuple[Fraction, Sequence[NcPoly], Sequence[int]]]
) -> None:
    """Every option (unit, factors, recorded factor degrees) multiplies back
    to f.  Irreducibility flags are search metadata."""
    _require(bool(options), "no factorizations recorded")
    for idx, (unit, factors, degrees) in enumerate(options):
        _require(
            [p.degree for p in factors] == list(degrees), f"option {idx}: recorded degree is wrong"
        )
        _require(_product(unit, factors, f.d) == f, f"option {idx} does not multiply back")


def mat2_mul(x: Mat2, y: Mat2) -> Mat2:
    return tuple(
        tuple(x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)) for i in range(2)
    )  # type: ignore[return-value]


def diag2(p: NcPoly) -> Mat2:
    one, zero = NcPoly.one(p.d), NcPoly.zero(p.d)
    return ((p, zero), (zero, one))


def assoc_yes(p: NcPoly, q: NcPoly, p_mat: Mat2, q_mat: Mat2, p_inv: Mat2, q_inv: Mat2) -> None:
    """P diag(q,1) Q = diag(p,1) with P, Q invertible through the recorded
    two-sided inverses."""
    _require(
        mat2_mul(mat2_mul(p_mat, diag2(q)), q_mat) == diag2(p),
        "P diag(q,1) Q does not equal diag(p,1)",
    )
    identity = diag2(NcPoly.one(p.d))
    for name, m, inv in (("P", p_mat, p_inv), ("Q", q_mat, q_inv)):
        _require(
            mat2_mul(m, inv) == identity and mat2_mul(inv, m) == identity,
            f"{name} and its recorded inverse do not multiply to the identity",
        )


def assoc_no(p: NcPoly, q: NcPoly, point: MatTuple, vector: QVector, vanishing: str) -> None:
    """A directional zero of p ("p") or q ("q") that the other misses;
    stable associates share directional zeros."""
    _require(not vector.is_zero(), "witness vector is zero")
    p_value = eval_poly_vector(p, point, vector)
    q_value = eval_poly_vector(q, point, vector)
    killed, alive = (p_value, q_value) if vanishing == "p" else (q_value, p_value)
    _require(killed.is_zero(), f"claimed vanishing polynomial {vanishing} does not kill the vector")
    if alive.is_zero():
        raise NotSeparated("both polynomials kill the vector; nothing is separated")


def _factors_of(f: NcPoly, factors: Sequence[NcPoly], what: str) -> None:
    _require(_product(f.lead_coeff, factors, f.d) == f, f"{what} do not multiply back")


def detzero_yes(
    gens: Sequence[NcPoly],
    target: NcPoly,
    generator_index: int,
    g_factors: Sequence[NcPoly],
    matching: Sequence[Tuple[NcPoly, NcPoly, Tuple[Mat2, Mat2, Mat2, Mat2]]],
) -> None:
    """Every factor of one generator is stably associated, through a checked
    2x2 certificate (P, Q, P^-1, Q^-1), to a factor of the target."""
    _factors_of(target, g_factors, "g_factors")
    _require(0 <= generator_index < len(gens), "generator index out of range")
    _factors_of(gens[generator_index], [a for a, _, _ in matching], "matched factors")
    for a, b, mats in matching:
        _require(b in g_factors, "a match target is not a recorded factor of g")
        try:
            assoc_yes(a, b, *mats)
        except CheckFailed as exc:
            raise CheckFailed(f"stable-associativity certificate broken: {exc}") from exc


def detzero_no(
    gens: Sequence[NcPoly],
    target: NcPoly,
    g_factors: Sequence[NcPoly],
    refutations: Sequence[
        Tuple[int, Sequence[NcPoly], NcPoly, Sequence[Tuple[MatTuple, QVector, str]]]
    ],
) -> None:
    """Every generator has a factor separated, by one directional zero per
    factor of the target, from all of the target's factors."""
    _factors_of(target, g_factors, "g_factors")
    for j, f_factors, refuted, witnesses in refutations:
        _factors_of(gens[j], f_factors, f"recorded factors of generator {j}")
        _require(refuted in f_factors, f"refuted factor is not a factor of generator {j}")
        _require(len(witnesses) == len(g_factors), f"generator {j} lacks one refutation per factor of g")
        try:
            for b, w in zip(g_factors, witnesses):
                assoc_no(refuted, b, *w)
        except CheckFailed as exc:
            raise CheckFailed(f"refutation broken: {exc}") from exc
    covered = {j for j, _, _, _ in refutations}
    _require(covered == set(range(len(gens))), "not every generator carries a refutation")


# ---------------------------------------------------------------------------
# Points, ranks and identities
# ---------------------------------------------------------------------------


def _fits(f: NcPoly, point: MatTuple, n: int) -> None:
    _require(point.n == n and point.d == f.d,
             f"point is {point.n}x{point.n} in {point.d} variables, expected {n}x{n} in {f.d}")


def rank_at(f: NcPoly, point: MatTuple, n: int) -> int:
    """Exact rank of f at a stored point, which must be n x n in f's
    variables."""
    _fits(f, point, n)
    return rank(eval_poly(f, point))


def lowrank_exact(f: NcPoly, point: MatTuple, stated: int, target_rank: int) -> None:
    actual = rank_at(f, point, point.n)
    _require(actual == stated, f"exact rank is {actual}, certificate says {stated}")
    _require(actual <= target_rank, "exact rank exceeds the target")


def reference_witnesses(f: NcPoly, points: Sequence[MatTuple]) -> Dict[int, int]:
    """f is the reference polynomial, has rank 1 at every point, and f - 1
    is an identity on 2x2 matrices; returns the rank per point size."""
    _require(f == reference_poly(), "polynomial is not the reference polynomial")
    ranks: Dict[int, int] = {}
    for point in points:
        ranks[point.n] = rank_at(f, point, point.n)
        _require(ranks[point.n] == 1, f"witness at n={point.n} has rank {ranks[point.n]}")
    _require(pi_test(f - NcPoly.one(f.d), 2), "polynomial minus 1 is not a 2x2 identity")
    return ranks


def weyl(n: int, point: MatTuple) -> None:
    """The size-n truncation pair, on which 1 - [x1,x2] is n * E_nn."""
    _require(point == weyl_pair(n), "point is not the truncation pair for this size")
    value = eval_poly(NcPoly.one(2) - commutator(NcPoly.var(1, 2), NcPoly.var(2, 2)), point)
    _require(value == Fraction(n) * QMatrix.unit(n, n - 1, n - 1),
             "1 - [x1,x2] does not collapse to the corner value")


def pi_result(f: NcPoly, n: int, value: bool, point: Optional[MatTuple]) -> None:
    """True: f vanishes on all n x n tuples, and the symbolic expansion is
    the proof (point is None).  False: f is nonzero at the stored n x n
    point."""
    if value:
        _require(pi_test(f, n), "symbolic expansion has a nonzero entry")
        return
    _fits(f, point, n)
    _require(not eval_poly(f, point).is_zero(), "polynomial vanishes at the stored point")


def rankprofile(f: NcPoly, table: Dict[int, int], points: Dict[int, MatTuple]) -> None:
    """For every size n of the table, f has rank table[n] at the stored
    n x n point: an upper bound on the minimum rank, nothing more."""
    _require(set(points) == set(table), "point sizes differ from the table sizes")
    for n, point in points.items():
        actual = rank_at(f, point, n)
        _require(actual == table[n], f"rank at the n={n} point is {actual}, table says {table[n]}")


def classification(
    gens: Sequence[NcPoly],
    target: NcPoly,
    point: MatTuple,
    left: Optional[QVector],
    right: Optional[QVector],
    memberships: Dict[str, Optional[bool]],
) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...], Tuple[int, ...], Fraction, Fraction, int]:
    """Re-derives the membership table by exact evaluation; returns the
    generators' dets, traces and ranks, then the target's."""
    for name, vector in (("left", left), ("right", right)):
        _require(vector is None or len(vector) == point.n,
                 f"{name} vector length differs from the point size {point.n}")
    result = classify_point(gens, target, point, left, right)
    for name in ("in_zero", "in_directional", "in_det_zero", "in_trace_zero", "in_weak"):
        _require(memberships.get(name) == getattr(result, name), f"{name} disagrees on re-evaluation")
    return (result.f_dets, result.f_traces, result.f_ranks,
            result.g_det, result.g_trace, result.g_rank)
