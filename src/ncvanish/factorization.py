"""Complete factorization, stable associativity, determinantal inclusion.

Factorization is unique only up to reordering tricks like
x1*(x2*x1 + 1) = (x1*x2 + 1)*x1, so `factor` enumerates every complete
factorization the bounded split search can certify.  Stable associativity
(diag(p,1) = P * diag(q,1) * Q over the free algebra, P and Q invertible) is
semi-decided: an explicit certificate for Yes, a separating directional zero
for No, and an honest Unknown otherwise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import checks
from .checks import Mat2, diag2, mat2_mul, self_check
from .evaluate import MatTuple, eval_poly
from .linalg import QVector, rank_det_kernel, rational_roots
from .lowrank import candidate_tuples
from .poly import NcPoly, Word, deglex_key

SOLVE_NODE_CAP = 20_000  # search nodes of one split system; past it the split is incomplete


# ---------------------------------------------------------------------------
# Exact solver for the split systems
# ---------------------------------------------------------------------------

# The coefficient equations of f = g*h are bilinear.  They are dispatched by
# exact propagation: substitute along linear equations, branch on rational
# roots of univariate ones, branch on the zero product of pure monomial ones.
# Anything this cannot finish marks the search incomplete instead of guessing.


class CPoly:
    """Sparse commutative polynomial over the rationals.

    A monomial is a sorted tuple of variable ids with multiplicity, e.g.
    (0, 0, 3) = v0^2 * v3; the empty tuple is the constant monomial.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Tuple[int, ...], Fraction]] = None):
        self.terms: Dict[Tuple[int, ...], Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff != 0:
                    self.terms[tuple(sorted(mono))] = Fraction(coeff)

    @staticmethod
    def constant(c) -> "CPoly":
        return CPoly({(): Fraction(c)})

    @staticmethod
    def variable(i: int) -> "CPoly":
        return CPoly({(i,): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "CPoly") -> "CPoly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        result = CPoly()
        result.terms = out
        return result

    def __sub__(self, other: "CPoly") -> "CPoly":
        return self + other * Fraction(-1)

    def __mul__(self, other) -> "CPoly":
        if isinstance(other, (int, Fraction)):
            result = CPoly()
            if other != 0:
                result.terms = {m: c * other for m, c in self.terms.items()}
            return result
        out: Dict[Tuple[int, ...], Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = tuple(sorted(ma + mb))
                s = out.get(mono, Fraction(0)) + ca * cb
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        result = CPoly()
        result.terms = out
        return result

    __rmul__ = __mul__

    def variables(self) -> List[int]:
        seen = set()
        for mono in self.terms:
            seen.update(mono)
        return sorted(seen)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(len(m) for m in self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "CPoly(0)"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            bits.append(f"{self.terms[mono]}*{mono}")
        return "CPoly(" + " + ".join(bits) + ")"


def _substitute(p: CPoly, var: int, replacement: CPoly) -> CPoly:
    """p with one variable replaced by a polynomial."""
    result = CPoly()
    for mono, coeff in p.terms.items():
        power = sum(1 for v in mono if v == var)
        rest = tuple(v for v in mono if v != var)
        term = CPoly({rest: coeff})
        for _ in range(power):
            term = term * replacement
        result = result + term
    return result


def _resolve_assignment(
    variables: Sequence[int], assign: Dict[int, Fraction], subst: Dict[int, CPoly]
) -> Tuple[Dict[int, Fraction], bool]:
    """Collapse linear substitutions to numbers; free variables become 0.

    Substitutions only reference variables eliminated later, so the recursion
    terminates.  Returns the full assignment and whether frees were present.
    """
    values = dict(assign)
    had_free = False

    def resolve(var: int) -> Fraction:
        nonlocal had_free
        if var in values:
            return values[var]
        if var in subst:
            expr = subst[var]
            total = Fraction(0)
            for mono, coeff in expr.terms.items():
                term = coeff
                for v in mono:
                    term *= resolve(v)
                total += term
            values[var] = total
            return total
        had_free = True
        values[var] = Fraction(0)
        return values[var]

    for var in variables:
        resolve(var)
    return values, had_free


def _solve_poly_system(
    equations: List[CPoly], variables: Sequence[int]
) -> Tuple[List[Dict[int, Fraction]], bool]:
    """All rational solutions of a polynomial system, with a completeness
    flag.  Ground field is the rationals: discarding irrational branch roots
    loses nothing we could represent anyway."""
    solutions: List[Dict[int, Fraction]] = []
    seen: Set[Tuple[Tuple[int, Fraction], ...]] = set()
    complete = True
    stack: List[Tuple[List[CPoly], Dict[int, Fraction], Dict[int, CPoly]]] = [
        (equations, {}, {})
    ]
    nodes = 0

    while stack:
        nodes += 1
        if nodes > SOLVE_NODE_CAP:
            complete = False
            break
        eqs, assign, subst = stack.pop()
        eqs = [e for e in eqs if not e.is_zero()]
        if any(e.total_degree() == 0 for e in eqs):
            continue
        if not eqs:
            values, had_free = _resolve_assignment(variables, assign, subst)
            if had_free:
                complete = False
            key = tuple(sorted(values.items()))
            if key not in seen:
                seen.add(key)
                solutions.append(values)
            continue

        linear = next((e for e in eqs if e.total_degree() == 1), None)
        if linear is not None:
            var = min(v for mono in linear.terms for v in mono)
            coeff = linear.terms[(var,)]
            rest = linear + CPoly({(var,): -coeff})
            expr = rest * (Fraction(-1) / coeff)
            new_eqs = [_substitute(e, var, expr) for e in eqs if e is not linear]
            new_subst = dict(subst)
            new_subst[var] = expr
            stack.append((new_eqs, assign, new_subst))
            continue

        univariate = next((e for e in eqs if len(set(v for m in e.terms for v in m)) == 1), None)
        if univariate is not None:
            var = next(v for m in univariate.terms for v in m)
            degree = univariate.total_degree()
            coeffs = [Fraction(0)] * (degree + 1)
            for mono, c in univariate.terms.items():
                coeffs[len(mono)] = c
            for root in rational_roots(coeffs):
                replacement = CPoly.constant(root)
                branch_eqs = [_substitute(e, var, replacement) for e in eqs if e is not univariate]
                branch_assign = dict(assign)
                branch_assign[var] = root
                stack.append((branch_eqs, branch_assign, subst))
            continue

        monomial = next((e for e in eqs if len(e.terms) == 1), None)
        if monomial is not None:
            mono = next(iter(monomial.terms))
            for var in sorted(set(mono)):
                replacement = CPoly.constant(Fraction(0))
                branch_eqs = [_substitute(e, var, replacement) for e in eqs if e is not monomial]
                branch_assign = dict(assign)
                branch_assign[var] = Fraction(0)
                stack.append((branch_eqs, branch_assign, subst))
            continue

        complete = False
    return solutions, complete


# ---------------------------------------------------------------------------
# Two-factor splits
# ---------------------------------------------------------------------------


def two_factor_splits(f: NcPoly) -> Tuple[List[Tuple[NcPoly, NcPoly]], bool]:
    """All (g, h) with f = g*h, g monic, both factors nonconstant.

    Candidate supports come from an exact containment: in any product, the
    support of the left factor consists of prefixes of the product's support
    and is deglex-dominated by the leading word's prefix (symmetrically for
    the right factor).  The remaining coefficient system is solved exactly;
    the flag reports whether every split's search ran to completion.
    """
    if f.is_zero() or f.degree < 1:
        raise ValueError("splits need a nonconstant polynomial")
    if f.lead_coeff != 1:
        raise ValueError("splits are defined for monic polynomials")

    degree = int(f.degree)
    lead = f.lead_word
    support = list(f.terms)
    results: List[Tuple[NcPoly, NcPoly]] = []
    seen: Set[Tuple[NcPoly, NcPoly]] = set()
    complete = True

    for a in range(1, degree):
        b = degree - a
        u0, v0 = lead[:a], lead[a:]
        prefixes = sorted(
            {
                w[:k]
                for w in support
                for k in range(min(a, len(w)) + 1)
                if deglex_key(w[:k]) <= deglex_key(u0)
            },
            key=deglex_key,
        )
        suffixes = sorted(
            {
                w[len(w) - k :]
                for w in support
                for k in range(min(b, len(w)) + 1)
                if deglex_key(w[len(w) - k :]) <= deglex_key(v0)
            },
            key=deglex_key,
        )

        alpha: Dict[Word, CPoly] = {}
        beta: Dict[Word, CPoly] = {}
        var_id = 0
        for u in prefixes:
            alpha[u] = CPoly.constant(1) if u == u0 else CPoly.variable(var_id)
            var_id += 0 if u == u0 else 1
        for v in suffixes:
            beta[v] = CPoly.constant(1) if v == v0 else CPoly.variable(var_id)
            var_id += 0 if v == v0 else 1
        variables = list(range(var_id))

        equations: Dict[Word, CPoly] = {}
        for u in prefixes:
            for v in suffixes:
                w = u + v
                term = alpha[u] * beta[v]
                equations[w] = equations.get(w, CPoly()) + term
        feasible = True
        for w in support:
            if w not in equations:
                feasible = False
                break
        if not feasible:
            continue
        eqs = [equations[w] - CPoly.constant(f.coeff(w)) for w in equations]

        sols, split_complete = _solve_poly_system(eqs, variables)
        if not split_complete:
            complete = False
        for values in sols:
            g_terms = {
                u: (Fraction(1) if u == u0 else _cpoly_value(alpha[u], values))
                for u in prefixes
            }
            h_terms = {
                v: (Fraction(1) if v == v0 else _cpoly_value(beta[v], values))
                for v in suffixes
            }
            g = NcPoly(f.d, {u: c for u, c in g_terms.items() if c})
            h = NcPoly(f.d, {v: c for v, c in h_terms.items() if c})
            if g * h != f:
                continue
            if (g, h) not in seen:
                seen.add((g, h))
                results.append((g, h))

    results.sort(key=lambda gh: (gh[0].sort_key(), gh[1].sort_key()))
    return results, complete


def _cpoly_value(p: CPoly, values: Dict[int, Fraction]) -> Fraction:
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        term = coeff
        for v in mono:
            term *= values[v]
        total += term
    return total


# ---------------------------------------------------------------------------
# Complete factorizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorEvidence:
    """Outcome of the split search that certified a factor irreducible."""

    exhaustive: bool
    degree: int
    max_degree: int


@dataclass(frozen=True)
class Factorization:
    unit: Fraction
    factors: Tuple[NcPoly, ...]
    evidence: Tuple[FactorEvidence, ...]


class _FactorSearch:
    def __init__(self, max_degree: int):
        self.max_degree = max_degree
        self.splits_memo: Dict[NcPoly, Tuple[List[Tuple[NcPoly, NcPoly]], bool]] = {}
        self.all_memo: Dict[NcPoly, Set[Tuple[NcPoly, ...]]] = {}

    def splits(self, m: NcPoly) -> Tuple[List[Tuple[NcPoly, NcPoly]], bool]:
        if m in self.splits_memo:
            return self.splits_memo[m]
        if m.degree > self.max_degree:
            result: Tuple[List[Tuple[NcPoly, NcPoly]], bool] = ([], False)
        else:
            result = two_factor_splits(m)
        self.splits_memo[m] = result
        return result

    def complete_factorizations(self, m: NcPoly) -> Set[Tuple[NcPoly, ...]]:
        if m in self.all_memo:
            return self.all_memo[m]
        splits, _ = self.splits(m)
        out: Set[Tuple[NcPoly, ...]] = set()
        if not splits:
            out.add((m,))
        else:
            for g, h in splits:
                for left in self.complete_factorizations(g):
                    for right in self.complete_factorizations(h):
                        out.add(left + right)
        self.all_memo[m] = out
        return out

    def evidence(self, factor: NcPoly) -> FactorEvidence:
        _, complete = self.splits(factor)
        return FactorEvidence(
            exhaustive=complete and factor.degree <= self.max_degree,
            degree=int(factor.degree),
            max_degree=self.max_degree,
        )


def factor(f: NcPoly, max_degree: int = 10) -> List[Factorization]:
    """Every complete factorization of f into monic irreducibles, scalar unit
    out front.  Constants factor trivially; zero has no factorization."""
    if f.is_zero():
        raise ValueError("zero has no factorization")
    if f.degree < 1:
        return [Factorization(unit=f.constant_term, factors=(), evidence=())]
    unit = f.lead_coeff
    monic = f.monic()
    search = _FactorSearch(max_degree)
    tuples = sorted(
        search.complete_factorizations(monic),
        key=lambda factors: tuple(p.sort_key() for p in factors),
    )
    out = []
    for factors in tuples:
        out.append(
            Factorization(
                unit=unit,
                factors=factors,
                evidence=tuple(search.evidence(p) for p in factors),
            )
        )
    self_check(
        checks.factorization, f, [(fz.unit, fz.factors, [e.degree for e in fz.evidence]) for fz in out]
    )
    return out


# ---------------------------------------------------------------------------
# Stable associativity
# ---------------------------------------------------------------------------

def _mat2(entries: Sequence[Sequence[NcPoly]]) -> Mat2:
    return ((entries[0][0], entries[0][1]), (entries[1][0], entries[1][1]))


@dataclass(frozen=True)
class AssocYes:
    """P * diag(q,1) * Q = diag(p,1) with explicit two-sided inverses."""

    KIND = "assoc_yes"
    p_mat: Mat2
    q_mat: Mat2
    p_inv: Mat2
    q_inv: Mat2


@dataclass(frozen=True)
class AssocNo:
    """A directional zero of one polynomial that the other misses."""

    KIND = "assoc_no"
    point: MatTuple
    vector: QVector
    vanishing: str  # "p" or "q": whose value kills the vector


@dataclass(frozen=True)
class AssocUnknown:
    KIND = "assoc_unknown"
    chain_depth: int
    n_max: int
    samples_per_size: int


def _mats(cert: AssocYes) -> Tuple[Mat2, Mat2, Mat2, Mat2]:
    return cert.p_mat, cert.q_mat, cert.p_inv, cert.q_inv


def _scalar_cert(p: NcPoly, q: NcPoly, lam: Fraction) -> AssocYes:
    """q = lam * p."""
    d = p.d
    one, zero = NcPoly.one(d), NcPoly.zero(d)
    inv = NcPoly.constant(1 / lam, d)
    lam_p = NcPoly.constant(lam, d)
    identity = diag2(one)
    return AssocYes(
        p_mat=((inv, zero), (zero, one)),
        q_mat=identity,
        p_inv=((lam_p, zero), (zero, one)),
        q_inv=identity,
    )


def _rotation_cert(u: NcPoly, v: NcPoly, c: Fraction) -> AssocYes:
    """p = u*v + c related to q = v*u + c, c a nonzero scalar.

    The c = 1 case is the classical 2x2 identity; general c is its
    conjugation by diag(c, 1)."""
    d = u.d
    one = NcPoly.one(d)
    cp = NcPoly.constant(c, d)
    inv_c = Fraction(1) / c
    p_mat = _mat2([
        [inv_c * u, cp + u * v],
        [NcPoly.constant(-inv_c, d), -v],
    ])
    q_mat = _mat2([
        [-v, -one],
        [one + inv_c * (u * v), inv_c * u],
    ])
    p_inv = _mat2([
        [-v, -cp - v * u],
        [NcPoly.constant(inv_c, d), inv_c * u],
    ])
    q_inv = _mat2([
        [inv_c * u, one],
        [-(inv_c * (v * u)) - one, -v],
    ])
    return AssocYes(p_mat=p_mat, q_mat=q_mat, p_inv=p_inv, q_inv=q_inv)


def _compose_certs(first: AssocYes, second: AssocYes) -> AssocYes:
    """diag(p,1) = P1 diag(r,1) Q1 and diag(r,1) = P2 diag(q,1) Q2 compose to
    diag(p,1) = (P1 P2) diag(q,1) (Q2 Q1)."""
    return AssocYes(
        p_mat=mat2_mul(first.p_mat, second.p_mat),
        q_mat=mat2_mul(second.q_mat, first.q_mat),
        p_inv=mat2_mul(second.p_inv, first.p_inv),
        q_inv=mat2_mul(first.q_inv, second.q_inv),
    )


def _scalar_ratio(p: NcPoly, q: NcPoly) -> Optional[Fraction]:
    """lam with q = lam * p, if one exists."""
    if p.is_zero() or q.is_zero():
        return None
    if set(p.terms) != set(q.terms):
        return None
    lam = None
    for w, c in p.terms.items():
        ratio = q.terms[w] / c
        if lam is None:
            lam = ratio
        elif ratio != lam:
            return None
    return lam


def _rotation_moves(r: NcPoly) -> List[Tuple[NcPoly, AssocYes]]:
    """All single-rotation neighbours of r: write r = u*v + c (c nonzero
    scalar) and move to v*u + c."""
    c = r.constant_term
    if c == 0:
        return []
    base = r - NcPoly.constant(c, r.d)
    if base.is_zero() or base.degree < 1:
        return []
    lc = base.lead_coeff
    splits, _ = two_factor_splits(base.monic())
    moves = []
    for g, h in splits:
        u = lc * g
        v = h
        neighbour = v * u + NcPoly.constant(c, r.d)
        moves.append((neighbour, _rotation_cert(u, v, c)))
    return moves


def stable_assoc(
    p: NcPoly,
    q: NcPoly,
    chain_depth: int = 4,
    n_max: int = 4,
    samples_per_size: int = 200,
    seed: int = 0,
) -> "AssocYes | AssocNo | AssocUnknown":
    """Semi-decide stable associativity of two nonconstant polynomials.

    Yes-search walks chains of scalar scalings and u*v+c -> v*u+c rotations,
    composing the explicit 2x2 certificates.  No-search hunts a directional
    zero of one that the other misses (stably associated polynomials share
    directional zero sets).  Otherwise Unknown, with the bounds that failed.
    """
    if p.d != q.d:
        raise ValueError("polynomials must share the variable count")
    if p.degree < 1 or q.degree < 1:
        raise ValueError("stable associativity is tested for nonconstant inputs")
    d = p.d

    # breadth-first over rotation moves, certificates composed along the path
    frontier: List[Tuple[NcPoly, Optional[AssocYes]]] = [(p, None)]
    visited = {p}
    for _ in range(chain_depth + 1):
        next_frontier: List[Tuple[NcPoly, Optional[AssocYes]]] = []
        for state, cert in frontier:
            lam = _scalar_ratio(state, q)
            if lam is not None:
                closing = _scalar_cert(state, q, lam)
                total = closing if cert is None else _compose_certs(cert, closing)
                self_check(checks.assoc_yes, p, q, *_mats(total))
                return total
            for neighbour, move in _rotation_moves(state):
                if neighbour in visited:
                    continue
                visited.add(neighbour)
                total = move if cert is None else _compose_certs(cert, move)
                next_frontier.append((neighbour, total))
        frontier = next_frontier
        if not frontier:
            break

    witness = _separating_point(p, q, n_max, samples_per_size, seed)
    if witness is not None:
        return witness
    return AssocUnknown(chain_depth=chain_depth, n_max=n_max, samples_per_size=samples_per_size)


def _separating_point(
    p: NcPoly, q: NcPoly, n_max: int, samples_per_size: int, seed: int
) -> Optional[AssocNo]:
    """Directional zero of p missed by q, or vice versa: the first kernel
    basis vector that the other polynomial does not kill.  Checking every
    kernel basis vector is enough: q's value is nonzero on some kernel
    vector iff it is nonzero on a basis vector."""
    d = p.d
    rng = random.Random(seed)
    for n in range(1, n_max + 1):
        for point in candidate_tuples(d, n, samples_per_size, rng):
            for vanishing, first in (("p", p), ("q", q)):
                for v in rank_det_kernel(eval_poly(first, point)).kernel:
                    if checks.try_candidate(checks.assoc_no, p, q, point, v, vanishing):
                        return AssocNo(point, v, vanishing)
    return None


# ---------------------------------------------------------------------------
# Determinantal-zero inclusion via factor matching
# ---------------------------------------------------------------------------


class FactorMatch(NamedTuple):
    """A factor of f_j, the factor of g it matches, and the certificate."""

    factor: NcPoly
    matched_to: NcPoly
    assoc: AssocYes


class Refutation(NamedTuple):
    """A generator, its complete factorization, the factor refuted against
    g, and one AssocNo per entry of g_factors, in order."""

    generator_index: int
    f_factors: Tuple[NcPoly, ...]
    refuted: NcPoly
    certs: Tuple[AssocNo, ...]


@dataclass(frozen=True)
class DetZeroYes:
    """Generator f_j whose irreducible factors all match factors of g;
    `g_factors` is the complete factorization of g the matches were drawn
    from."""

    KIND = "detzero_yes"
    generator_index: int
    g_factors: Tuple[NcPoly, ...]
    matching: Tuple[FactorMatch, ...]


@dataclass(frozen=True)
class DetZeroNo:
    """Per generator: a factor refuted against every factor of g."""

    KIND = "detzero_no"
    g_factors: Tuple[NcPoly, ...]
    refutations: Tuple[Refutation, ...]


@dataclass(frozen=True)
class DetZeroUnknown:
    KIND = "detzero_unknown"
    reason: str


def detzero_inclusion(
    f_list: Sequence[NcPoly],
    g: NcPoly,
    max_degree: int = 10,
    chain_depth: int = 4,
    n_max: int = 4,
    samples_per_size: int = 200,
    seed: int = 0,
) -> "DetZeroYes | DetZeroNo | DetZeroUnknown":
    """Factor-matching test: Yes when every irreducible factor of some f_j is
    stably associated to an irreducible factor of g; No when every f_j has a
    factor refuted against all of g's factors; Unknown when uncertified
    factorizations or undecided pairs block both."""
    if not f_list:
        raise ValueError("need at least one constraint polynomial")
    if g.degree < 1 or any(f.degree < 1 for f in f_list):
        raise ValueError("determinantal inclusion is defined for nonconstant inputs")

    def leading_factorization(h: NcPoly) -> Optional[Tuple[NcPoly, ...]]:
        options = factor(h, max_degree=max_degree)
        first = options[0]
        if any(not e.exhaustive for e in first.evidence):
            return None
        return first.factors

    g_factors = leading_factorization(g)
    if g_factors is None:
        return DetZeroUnknown("irreducibility of a factor of g is unverified at the bound")

    cache: Dict[Tuple[NcPoly, NcPoly], object] = {}

    def pair_verdict(a: NcPoly, b: NcPoly):
        key = (a, b)
        if key not in cache:
            cache[key] = stable_assoc(
                a, b, chain_depth=chain_depth, n_max=n_max,
                samples_per_size=samples_per_size, seed=seed,
            )
        return cache[key]

    refutations: List[Refutation] = []
    refuted = 0
    blocked = False
    for j, f in enumerate(f_list):
        f_factors = leading_factorization(f)
        if f_factors is None:
            blocked = True
            continue
        matching: List[FactorMatch] = []
        fully_matched = True
        refuting: Optional[Tuple[NcPoly, Tuple[AssocNo, ...]]] = None
        for a in f_factors:
            match: Optional[Tuple[NcPoly, AssocYes]] = None
            no_certs: List[AssocNo] = []
            saw_unknown = False
            for b in g_factors:
                verdict = pair_verdict(a, b)
                if isinstance(verdict, AssocYes):
                    match = (b, verdict)
                    break
                if isinstance(verdict, AssocNo):
                    no_certs.append(verdict)
                else:
                    saw_unknown = True
            if match is not None:
                matching.append(FactorMatch(a, *match))
                continue
            fully_matched = False
            if not saw_unknown and refuting is None:
                refuting = (a, tuple(no_certs))
        if fully_matched:
            self_check(
                checks.detzero_yes, f_list, g, j, g_factors,
                [(m.factor, m.matched_to, _mats(m.assoc)) for m in matching],
            )
            return DetZeroYes(generator_index=j, g_factors=g_factors, matching=tuple(matching))
        if refuting is not None:
            refuted += 1
            refutations.append(Refutation(j, f_factors, *refuting))
        else:
            blocked = True
    if not blocked and refuted == len(f_list):
        self_check(
            checks.detzero_no, f_list, g, g_factors,
            [(r.generator_index, r.f_factors, r.refuted,
              [(c.point, c.vector, c.vanishing) for c in r.certs]) for r in refutations],
        )
        return DetZeroNo(g_factors=g_factors, refutations=tuple(refutations))
    return DetZeroUnknown("undecided stable-associativity pairs block both verdicts")
