"""Membership procedures that return independently checkable certificates.

Five problems are covered, all over the free algebra on d variables:

  left ideal        g in L(f_1..f_l)  (left cofactors)
  homogeneous ideal g in (f_1..f_l)   (two-sided, homogeneous generators)
  tracial           1 or g equal to sum of lambda_j f_j plus commutators
  linear span       g in span(f_1..f_l)
  composition       g in the unital subalgebra generated by one f

The first four eliminate over words in one row echelon store (`WordRREF`).
A store is built from (key, row) items in its constructor, the one place
MAX_SPAN_ENTRIES is checked.  Each stored row keeps the reduction steps
that made it, over earlier rows; only a member's reduction is expanded
over keys (`WordRREF.combination`).

Every positive answer is a Combination that multiplies out to the target
exactly; every negative answer is a Witness or a separating functional
whose defining equalities and inequalities hold in exact rational
arithmetic.  Tracial, span and composition Nos share one functional
builder (`_separating_functional`), fed the store's rows or the powers.
Both pass the checker of their kind (`checks`) before being returned; a
failure raises InternalInconsistencyError because it can only come from a
bug, never from the input.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import checks
from .checks import InternalInconsistencyError, self_check
from .evaluate import MatTuple, ResourceCapError, eval_poly, random_tuple
from .linalg import QMatrix, QVector, rank_det_kernel, rational_roots
from .poly import NcPoly, Word, deglex_key, words_of_length

MAX_SPAN_ENTRIES = 200_000  # coefficient entries inserted into one echelon store
MAX_WITNESS_DIMENSION = 500  # quotient-basis words of one left or two-sided witness
# seeded eigenvector search of a composition No: sizes 2..max, tuples per size
EIGEN_MAX_SIZE = 3
EIGEN_ATTEMPTS_PER_SIZE = 25


class NonHomogeneousGeneratorError(ValueError):
    """General two-sided membership is refused; generators must be homogeneous."""


def _same_variable_count(f_list: Sequence[NcPoly], g: NcPoly) -> None:
    if any(f.d != g.d for f in f_list):
        raise ValueError("generators and target must share the variable count")


# ---------------------------------------------------------------------------
# Certificate types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeftCombination:
    """g = sum of cofactors[j] * f_j, right cofactors identically 1."""

    KIND = "left_combination"
    cofactors: Tuple[NcPoly, ...]


@dataclass(frozen=True)
class DirectionalWitness:
    """(X, v) with f_j(X)v = 0 for every generator and g(X)v != 0."""

    KIND = "left_witness"
    point: MatTuple
    vector: QVector


@dataclass(frozen=True)
class HomCombination:
    """g = sum over j of sum of u*f_j*v for the (u, v) pairs of generator j."""

    KIND = "hom_combination"
    pairs: Tuple[Tuple[Tuple[NcPoly, NcPoly], ...], ...]


@dataclass(frozen=True)
class MatrixWitness:
    """X with every f_j(X) the zero matrix while g(X) is not."""

    KIND = "hom_witness"
    point: MatTuple


@dataclass(frozen=True)
class TraceCombination:
    """target = sum of lambdas[j] f_j + sum of [p, q] commutators.

    branch 'one-in-span' has target 1, branch 'g-in-span' has target g.
    """

    KIND = "trace_combination"
    branch: str
    lambdas: Tuple[Fraction, ...]
    commutators: Tuple[Tuple[NcPoly, NcPoly], ...]


@dataclass(frozen=True)
class TraceNotMember:
    """Neither 1 nor cyclic_reduce(g) lies in the span of the reduced
    generators.  `functionals` holds one linear functional on cyclic words
    per goal (1, then g), read as word -> coefficient: it vanishes on every
    reduced generator and is 1 on the reduced goal."""

    KIND = "trace_not_member"
    functionals: Tuple[NcPoly, NcPoly]


@dataclass(frozen=True)
class SpanCoefficients:
    KIND = "span_coefficients"
    coefficients: Tuple[Fraction, ...]


@dataclass(frozen=True)
class WeakWitness:
    """(X, u, v) with u^t f_j(X) v = 0 for every generator, u^t g(X) v != 0."""

    KIND = "span_witness"
    point: MatTuple
    left: QVector
    right: QVector


@dataclass(frozen=True)
class CompositionCoefficients:
    """g = sum of coefficients[i] * f**i."""

    KIND = "composition"
    coefficients: Tuple[Fraction, ...]


@dataclass(frozen=True)
class EigenWitness:
    """f(X)v = eigenvalue * v but g(X)v is not a multiple of v."""

    KIND = "composition_witness"
    point: MatTuple
    vector: QVector
    eigenvalue: Fraction


@dataclass(frozen=True)
class CompositionNotMember:
    """`functional` (word -> coefficient) vanishes on f^0..f^m and is 1 on
    g; `witness` is there when a seeded eigenvector search found one."""

    KIND = "composition_not_member"
    functional: NcPoly
    witness: Optional[EigenWitness]


# ---------------------------------------------------------------------------
# Sparse row reduction over word coordinates
# ---------------------------------------------------------------------------

# A row maps words to coefficients; its pivot is its deglex-greatest word.
# Stored rows are monic and in echelon form: a row holds no pivot word
# greater than its own, so reducing greatest-first ends.  Steps map pivot
# words to coefficients: row = remainder + sum of steps[p] * rows[p].

SparseRow = Dict[Word, Fraction]
Steps = Dict[Word, Fraction]


def _row_axpy(target: Dict, coeff: Fraction, source: Dict) -> None:
    """target -= coeff * source, dropping exact zeros."""
    for key, value in source.items():
        s = target.get(key, Fraction(0)) - coeff * value
        if s:
            target[key] = s
        else:
            target.pop(key, None)


def _descending(word: Word) -> Tuple[Tuple[int, Word], Word]:
    """Heap entry popping the deglex-greatest word first."""
    return (-len(word), tuple(-i for i in word)), word


class WordRREF:
    """Row echelon form over word coordinates of the (key, row) items,
    inserted in order.  Raises ResourceCapError once their coefficient
    entries pass MAX_SPAN_ENTRIES."""

    def __init__(self, items: Iterable[Tuple[object, SparseRow]] = ()) -> None:
        self.rows: Dict[Word, SparseRow] = {}
        # pivot -> (key, 1 / lead of the remainder, steps that reduced the row)
        self.made: Dict[Word, Tuple[object, Fraction, Steps]] = {}
        entries = 0
        for key, row in items:
            entries += len(row)
            if entries > MAX_SPAN_ENTRIES:
                raise ResourceCapError(
                    f"echelon store exceeds MAX_SPAN_ENTRIES = {MAX_SPAN_ENTRIES} coefficient entries"
                )
            self.insert(row, key)

    def reduce(self, row: SparseRow) -> Tuple[SparseRow, Steps]:
        """Remove pivot words greatest-first; returns (remainder, steps).
        A pivot is never brought back once removed, so each step is one
        elimination."""
        row = dict(row)
        steps: Steps = {}
        heap = [_descending(w) for w in row if w in self.rows]
        heapq.heapify(heap)
        while heap:
            word = heapq.heappop(heap)[1]
            coeff = row.get(word)
            if coeff is None:  # cancelled, or popped twice
                continue
            pivot_row = self.rows[word]
            for u in pivot_row:
                if u not in row and u in self.rows:
                    heapq.heappush(heap, _descending(u))
            _row_axpy(row, coeff, pivot_row)
            steps[word] = coeff
        return row, steps

    def insert(self, row: SparseRow, key: object) -> bool:
        """Add one element under `key`; returns False when the store spans it."""
        remainder, steps = self.reduce(row)
        if not remainder:
            return False
        pivot = max(remainder, key=deglex_key)
        inv = 1 / remainder[pivot]
        self.rows[pivot] = {w: c * inv for w, c in remainder.items()}
        self.made[pivot] = (key, inv, steps)
        return True

    def combination(self, steps: Steps) -> Dict[object, Fraction]:
        """The same combination over keys: sum of steps[p] * rows[p] equals
        the sum of result[k] times the element keyed k.  A stored row is
        inv * (its element - its steps), and its steps name earlier rows
        only, so one pass in reverse insertion order expands them all."""
        steps = dict(steps)
        out: Dict[object, Fraction] = {}
        for pivot in reversed(self.made):
            if not steps:
                break
            coeff = steps.pop(pivot, None)
            if coeff is not None:
                key, inv, made_steps = self.made[pivot]
                out[key] = coeff * inv
                _row_axpy(steps, out[key], made_steps)
        return out

    def __contains__(self, word: Word) -> bool:
        return word in self.rows


# ---------------------------------------------------------------------------
# Weak (degree-compatible) basis for left ideals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeakBasis:
    """Reduced generators plus, for each, its left-cofactor expression over
    the original generator list."""

    reduced: Tuple[NcPoly, ...]
    expressions: Tuple[Tuple[NcPoly, ...], ...]


def weak_basis(f_list: Sequence[NcPoly]) -> WeakBasis:
    """Degree-compatible reduction of a left-ideal generating set.

    Repeatedly, while the top homogeneous part of some element lies in the
    span of {top parts of w*h : h another element, deg(w*h) matching},
    subtract the combination and re-insert the strictly smaller remainder.
    The multiset of degrees strictly decreases, so this terminates.  Each
    survivor carries left cofactors expressing it over the original input.
    """
    if not f_list:
        return WeakBasis((), ())
    d = f_list[0].d
    for f in f_list:
        if f.d != d:
            raise ValueError("generators must share the variable count")

    elements: List[Tuple[NcPoly, Dict[int, NcPoly]]] = [
        (f, {j: NcPoly.one(d)}) for j, f in enumerate(f_list) if not f.is_zero()
    ]

    changed = True
    while changed:
        changed = False
        tops = [(poly.degree, poly.lead_part().terms) for poly, _ in elements]
        for pos, (poly, expr) in enumerate(elements):
            degree = poly.degree
            rref = WordRREF(((opos, w), {w + u: c for u, c in top.items()})
                            for opos, (other_degree, top) in enumerate(tops)
                            if opos != pos and other_degree <= degree
                            for w in words_of_length(d, degree - other_degree))
            remainder, steps = rref.reduce(tops[pos][1])
            if remainder:
                continue
            new_poly = poly
            new_expr = dict(expr)
            for (opos, w), coeff in rref.combination(steps).items():
                other, other_expr = elements[opos]
                shift = NcPoly.from_word(w, d, coeff)
                new_poly = new_poly - shift * other
                for j, cof in other_expr.items():
                    updated = new_expr.get(j, NcPoly.zero(d)) - shift * cof
                    if updated.is_zero():
                        new_expr.pop(j, None)
                    else:
                        new_expr[j] = updated
            if not new_poly.is_zero() and new_poly.degree >= degree:
                raise InternalInconsistencyError("weak reduction failed to drop the degree")
            elements.pop(pos)
            if not new_poly.is_zero():
                elements.append((new_poly, new_expr))
            changed = True
            break

    elements.sort(key=lambda item: item[0].sort_key())
    reduced: List[NcPoly] = []
    expressions: List[Tuple[NcPoly, ...]] = []
    for poly, expr in elements:
        cofactors = tuple(expr.get(j, NcPoly.zero(d)) for j in range(len(f_list)))
        self_check(checks.left_combination, f_list, poly, cofactors)
        reduced.append(poly)
        expressions.append(cofactors)
    return WeakBasis(tuple(reduced), tuple(expressions))


# ---------------------------------------------------------------------------
# Left ideal membership (degree-bounded solve, then truncated module witness)
# ---------------------------------------------------------------------------


def _left_multiples_rref(basis: Sequence[NcPoly], d: int, limit: int) -> WordRREF:
    """Echelon store of {w*b : b in basis, deg(w*b) <= limit}, keyed
    (basis index, word)."""
    return WordRREF(((i, w), {w + u: c for u, c in b.terms.items()})
                    for i, b in enumerate(basis)
                    for length in range(int(limit - b.degree) + 1)
                    for w in words_of_length(d, length))


def _quotient_basis(rref: WordRREF, d: int, delta: int) -> List[Word]:
    """The non-pivot words of degree <= delta, in deglex order.

    Both ideal stores have pivot words closed under left multiplication up
    to delta (lead(x_i * p) = x_i * lead(p), and x_i * p stays in the span),
    so a non-pivot word's suffixes are non-pivot: each degree is grown from
    the one below by a letter in front.  Raises ResourceCapError once the
    basis passes MAX_WITNESS_DIMENSION words."""
    layer = [] if () in rref else [()]
    basis = list(layer)
    for _ in range(delta):
        layer = sorted(w for w in ((i,) + u for u in layer for i in range(1, d + 1))
                       if w not in rref)
        basis.extend(layer)
        if len(basis) > MAX_WITNESS_DIMENSION:
            raise ResourceCapError(
                f"witness quotient basis exceeds MAX_WITNESS_DIMENSION = {MAX_WITNESS_DIMENSION} words"
            )
    return basis


def _shift_matrices(
    rref: WordRREF, d: int, basis_words: Sequence[Word]
) -> Tuple[MatTuple, QVector, Dict[Word, int]]:
    """Left-multiplication operators on the span of `basis_words`: each
    letter times a basis word is reduced by the store and its coordinates
    outside the basis are dropped.  The ideal engines pass the non-pivot
    words of degree <= delta (the left store reaches degree delta+1; the
    two-sided store stops at delta, where a graded quotient needs no
    reduction above it); the span engine passes suffix-closed words and an
    empty store.  The unit word must be a basis word."""
    index = {w: k for k, w in enumerate(basis_words)}
    if () not in index:
        raise InternalInconsistencyError(
            "unit word reduced to zero although the target did not"
        )
    m = len(basis_words)
    columns: List[List[List[Fraction]]] = [[[0] * m for _ in range(m)] for _ in range(d)]
    for w, k in index.items():
        for i in range(d):
            extended: Word = (i + 1,) + w
            reduced, _ = rref.reduce({extended: Fraction(1)})
            for u, c in reduced.items():
                if u in index:
                    columns[i][index[u]][k] = c
    point = MatTuple([QMatrix(columns[i]) for i in range(d)])
    return point, QVector.unit(m, index[()]), index


def left_ideal_membership(
    f_list: Sequence[NcPoly], g: NcPoly
) -> "LeftCombination | DirectionalWitness":
    """Decide g in L(f_1..f_l) with a verified certificate either way.

    The bounded solve runs at degree delta = max(deg g, degrees of the weak
    basis); its completeness at that bound is imported from the weak-basis
    theory, but no answer depends on it: a missed combination would surface
    as a witness failing verification, which raises instead of returning.
    """
    _same_variable_count(f_list, g)
    d = g.d
    if g.is_zero():
        return LeftCombination(tuple(NcPoly.zero(d) for _ in f_list))

    wb = weak_basis(f_list)
    degrees = [int(b.degree) for b in wb.reduced]
    delta = max([int(g.degree)] + degrees)
    rref = _left_multiples_rref(wb.reduced, d, delta + 1)

    remainder, steps = rref.reduce(g.terms)
    if not remainder:
        basis_cofactors: List[NcPoly] = [NcPoly.zero(d) for _ in wb.reduced]
        for (i, w), coeff in rref.combination(steps).items():
            basis_cofactors[i] = basis_cofactors[i] + NcPoly.from_word(w, d, coeff)
        cofactors = [NcPoly.zero(d) for _ in f_list]
        for q, expr in zip(basis_cofactors, wb.expressions):
            for j, cof in enumerate(expr):
                if not cof.is_zero() and not q.is_zero():
                    cofactors[j] = cofactors[j] + q * cof
        self_check(checks.left_combination, f_list, g, cofactors)
        return LeftCombination(tuple(cofactors))

    point, vector, _ = _shift_matrices(rref, d, _quotient_basis(rref, d, delta))
    self_check(checks.left_witness, f_list, g, point, vector)
    return DirectionalWitness(point, vector)


# ---------------------------------------------------------------------------
# Homogeneous two-sided ideal membership
# ---------------------------------------------------------------------------


def _two_sided_products(f_list: Sequence[NcPoly], d: int, limit: int) -> WordRREF:
    """Echelon store of {u*f_j*v : f_j nonzero, deg <= limit}, keys (j, u, v)."""
    return WordRREF(((j, u, v), {u + w + v: c for w, c in f.terms.items()})
                    for j, f in enumerate(f_list) if not f.is_zero()
                    for left_len in range(limit - int(f.degree) + 1)
                    for u in words_of_length(d, left_len)
                    for right_len in range(limit - int(f.degree) - left_len + 1)
                    for v in words_of_length(d, right_len))


def hom_ideal_membership(
    f_list: Sequence[NcPoly], g: NcPoly
) -> "HomCombination | MatrixWitness":
    """Decide g in the two-sided ideal generated by homogeneous f_j.

    Because the ideal is graded, g is a member iff every homogeneous
    component is, and each component test is an exact span solve in its own
    degree; no degree bound is imported.  Non-members get a witness built
    from left multiplication on the truncated quotient: generators evaluate
    to genuinely zero matrices there.
    """
    _same_variable_count(f_list, g)
    for f in f_list:
        if not f.is_zero() and not f.is_homogeneous():
            raise NonHomogeneousGeneratorError(
                "two-sided membership requires homogeneous generators; got "
                f"{f}"
            )
    d = g.d
    if g.is_zero():
        return HomCombination(tuple(() for _ in f_list))

    delta = int(g.degree)
    rref = _two_sided_products(f_list, d, delta)
    remainder, steps = rref.reduce(g.terms)
    if not remainder:
        # the combination is unique; sorting makes its order unique too
        pairs: List[List[Tuple[NcPoly, NcPoly]]] = [[] for _ in f_list]
        for (j, u, v), coeff in sorted(rref.combination(steps).items()):
            pairs[j].append(
                (NcPoly.from_word(u, d, coeff), NcPoly.from_word(v, d))
            )
        self_check(checks.hom_combination, f_list, g, pairs)
        return HomCombination(tuple(tuple(p) for p in pairs))

    point, _, _ = _shift_matrices(rref, d, _quotient_basis(rref, d, delta))
    self_check(checks.hom_witness, f_list, g, point)
    return MatrixWitness(point)


# ---------------------------------------------------------------------------
# Tracial membership
# ---------------------------------------------------------------------------


def _rotation_commutators(p: NcPoly) -> List[Tuple[NcPoly, NcPoly]]:
    """Express a cyclically-vanishing polynomial as a sum of commutators.

    Each word is walked to its cyclic representative one rotation at a time;
    the step from a*s to s*a contributes the commutator [a, s].  Because the
    cyclic reduction of p is zero, the representatives cancel and the
    telescoped commutators sum to p exactly.
    """
    d = p.d
    folded: Dict[Tuple[Word, Word], Fraction] = {}
    for word, coeff in p.terms.items():
        if len(word) < 2:
            continue
        rotations = [word[t:] + word[:t] for t in range(len(word))]
        steps = min(range(len(word)), key=lambda t: deglex_key(rotations[t]))
        for t in range(steps):
            current = rotations[t]
            key = ((current[0],), current[1:])
            folded[key] = folded.get(key, Fraction(0)) + coeff
    out: List[Tuple[NcPoly, NcPoly]] = []
    for (head, tail), coeff in sorted(folded.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        if coeff:
            out.append((NcPoly.from_word(head, d, coeff), NcPoly.from_word(tail, d)))
    return out


def _separating_functional(
    rows: Iterable[Tuple[Word, SparseRow]], remainder: SparseRow, d: int
) -> NcPoly:
    """Functional on words, as word -> coefficient, that vanishes on every
    row and is 1 on an element whose reduction by the rows left `remainder`.
    `rows` are (lead word, terms) pairs with distinct lead words, none of
    them in the remainder.  Built bottom-up: e_w / remainder[w] for the
    greatest word w of the remainder, then, in increasing lead order, the
    term at each lead word that zeroes the functional on that row (no later
    lead word is in it)."""
    w = max(remainder, key=deglex_key)
    phi = {w: 1 / remainder[w]}
    for lead, terms in sorted(rows, key=lambda row: deglex_key(row[0])):
        value = sum(c * phi[u] for u, c in terms.items() if u in phi)
        if value:
            phi[lead] = -value / terms[lead]
    return NcPoly(d, phi)


def trace_membership(
    f_list: Sequence[NcPoly], g: NcPoly
) -> "TraceCombination | TraceNotMember":
    """Decide whether 1 (checked first) or g is a combination of the f_j and
    commutators; equivalently, whether tracial vanishing of all f_j forces
    tracial vanishing of g on every matrix size."""
    _same_variable_count(f_list, g)
    d = g.d
    rref = WordRREF((j, f.cyclic_reduce().terms) for j, f in enumerate(f_list) if not f.is_zero())

    functionals = []
    for branch, target in (("one-in-span", NcPoly.one(d)), ("g-in-span", g)):
        remainder, steps = rref.reduce(target.cyclic_reduce().terms)
        if remainder:
            functionals.append(_separating_functional(rref.rows.items(), remainder, d))
            continue
        lambdas = [Fraction(0)] * len(f_list)
        for j, coeff in rref.combination(steps).items():
            lambdas[j] = coeff
        residual = target
        for lam, f in zip(lambdas, f_list):
            residual = residual - lam * f
        commutators = _rotation_commutators(residual)
        self_check(checks.trace_combination, f_list, g, branch, lambdas, commutators)
        return TraceCombination(branch, tuple(lambdas), tuple(commutators))
    self_check(checks.trace_not_member, f_list, g, functionals)
    return TraceNotMember(tuple(functionals))


# ---------------------------------------------------------------------------
# Linear span membership
# ---------------------------------------------------------------------------


def span_membership(
    f_list: Sequence[NcPoly], g: NcPoly, seed: Optional[int] = None
) -> "SpanCoefficients | WeakWitness":
    """Coefficient solve; a nonzero remainder gives the separating functional
    phi (zero on every f_j, 1 on g) as a weak witness: on the suffix closure
    S of its support, X_i maps e_s to e_{is} (0 when is is not in S),
    v = e_() and u = phi, so u^t p(X) v = phi(p) for every p.  `seed` has
    no effect; it is accepted for callers that still pass one."""
    _same_variable_count(f_list, g)
    d = g.d

    rref = WordRREF((j, f.terms) for j, f in enumerate(f_list) if not f.is_zero())
    remainder, steps = rref.reduce(g.terms)
    if not remainder:
        coeffs = [Fraction(0)] * len(f_list)
        for j, coeff in rref.combination(steps).items():
            coeffs[j] = coeff
        self_check(checks.span_coefficients, f_list, g, coeffs)
        return SpanCoefficients(tuple(coeffs))

    phi = _separating_functional(rref.rows.items(), remainder, d)
    suffixes = sorted({w[k:] for w in phi.terms for k in range(len(w) + 1)}, key=deglex_key)
    point, right, _ = _shift_matrices(WordRREF(), d, suffixes)
    left = QVector([phi.coeff(w) for w in suffixes])
    self_check(checks.span_witness, f_list, g, point, left, right)
    return WeakWitness(point, left, right)


# ---------------------------------------------------------------------------
# Single-generator (composition) subalgebra membership
# ---------------------------------------------------------------------------


def _char_poly(m: QMatrix) -> List[Fraction]:
    """Monic characteristic polynomial coefficients [c_0..c_{n-1}, 1] via the
    Faddeev-LeVerrier recursion."""
    n = m.rows
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    power = QMatrix.identity(n)
    for k in range(1, n + 1):
        power = m @ power
        c = -power.trace() / k
        coeffs[n - k] = c
        power = power + c * QMatrix.identity(n)
    return coeffs


def in_univariate_subalgebra(
    g: NcPoly, f: NcPoly, seed: Optional[int] = None
) -> "CompositionCoefficients | CompositionNotMember":
    """Decide g = c_0 + c_1 f + ... + c_m f^m.

    The powers f^0..f^m (`checks.inner_powers`, whose bound raises
    ResourceCapError here) have distinct lead words lead(f)^i and no higher
    power reaches g, so one top-down pass reduces g against them.  A
    nonzero remainder gives the separating functional, with the powers as
    its rows.  With a
    seed, the No also carries a sampled eigenvector witness: a point where
    f has a rational eigenvector that g fails to preserve.
    """
    _same_variable_count([f], g)
    try:
        powers = list(checks.inner_powers(f, g))
    except checks.CheckFailed as exc:
        raise ResourceCapError(str(exc)) from exc
    remainder = dict(g.terms)
    coeffs = [Fraction(0)] * len(powers)
    for i in reversed(range(len(powers))):
        power = powers[i]
        coeffs[i] = remainder.get(power.lead_word, Fraction(0)) / power.lead_coeff
        _row_axpy(remainder, coeffs[i], power.terms)
    if not remainder:
        self_check(checks.composition, f, g, coeffs)
        return CompositionCoefficients(tuple(coeffs))

    functional = _separating_functional(((p.lead_word, p.terms) for p in powers), remainder, g.d)
    self_check(checks.composition_not_member, f, g, functional)
    witness = None if seed is None else _eigen_witness_search(g, f, seed)
    return CompositionNotMember(functional, witness)


def _eigen_witness_search(g: NcPoly, f: NcPoly, seed: int) -> Optional[EigenWitness]:
    """Best-effort: rational eigenvalues only.  The first kernel vector on
    which g's value leaves the line of the vector is returned."""
    d = g.d
    rng = random.Random(seed)
    for n in range(2, EIGEN_MAX_SIZE + 1):
        for _ in range(EIGEN_ATTEMPTS_PER_SIZE):
            point = random_tuple(rng, n, d, k=2)
            fx = eval_poly(f, point)
            for lam in rational_roots(_char_poly(fx)):
                shifted = fx - lam * QMatrix.identity(n)
                for v in rank_det_kernel(shifted).kernel:
                    if checks.try_candidate(checks.eigen_witness, f, g, point, v, lam):
                        return EigenWitness(point, v, lam)
    return None
