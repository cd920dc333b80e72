"""Evaluation of noncommutative polynomials on square matrix tuples.

The substitution x_i -> X_i extends to the unique unital homomorphism into
n-by-n rational matrices; everything here is exact.  Every evaluator, the
exact, vector, symbolic and (in `lowrank`) float ones, builds its word values
with the one sorted prefix walk of `prefix_products`.  Identity testing on a
full matrix level (does f vanish on all n-by-n tuples?) is decided
symbolically by evaluating on generic matrices whose entries are independent
commuting indeterminates.  One expansion serves both answers: `pi_test`
reads only whether an entry is nonzero, and `nonvanishing_point` turns a
nonzero entry into an integer point where f(X) != 0, the evidence a No
stores so that a checker only evaluates.  The seeded random tuples here are
candidates for the search engines; checkers never draw them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from .linalg import QMatrix, QVector, rank_det_kernel
from .poly import NcPoly, Word, commutator

PI_MAX_OPS = 10_000_000  # monomial products of one symbolic identity test

T = TypeVar("T")


class ResourceCapError(RuntimeError):
    """Raised when a symbolic identity test exceeds its configured budget."""


def _is_rows(m) -> bool:
    """A matrix in JSON form: a list of rows of string or integer entries."""
    return isinstance(m, list) and all(
        isinstance(row, list) and all(isinstance(e, (str, int)) for e in row) for row in m)


class MatTuple:
    """A d-tuple of n-by-n rational matrices (n = 0 is the empty edge case)."""

    __slots__ = ("n", "d", "matrices")

    def __init__(self, matrices: Sequence[QMatrix]):
        mats = tuple(matrices)
        if not mats:
            raise ValueError("a matrix tuple needs at least one coordinate")
        n = mats[0].rows
        for m in mats:
            if not m.is_square() or m.rows != n:
                raise ValueError("all coordinates must be square matrices of equal size")
        self.matrices = mats
        self.n = n
        self.d = len(mats)

    def __getitem__(self, i: int) -> QMatrix:
        return self.matrices[i]

    def __iter__(self):
        return iter(self.matrices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatTuple):
            return NotImplemented
        return self.matrices == other.matrices

    def __hash__(self) -> int:
        return hash(self.matrices)

    def __repr__(self) -> str:
        return f"MatTuple(n={self.n}, d={self.d})"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "matrices": [m.to_json() for m in self.matrices],
        }

    @staticmethod
    def from_json(data: dict) -> "MatTuple":
        """The tuple of its JSON form; keys and types are checked before any
        matrix is built."""
        if not (isinstance(data, dict) and isinstance(data.get("n"), int)
                and isinstance(data.get("d"), int) and isinstance(data.get("matrices"), list)
                and all(map(_is_rows, data["matrices"]))):
            raise ValueError("a matrix tuple is an object with integers n and d and matrices "
                             "given as lists of rows of string or integer entries")
        tup = MatTuple([QMatrix(m) for m in data["matrices"]])
        if tup.n != data["n"] or tup.d != data["d"]:
            raise ValueError("matrix tuple header disagrees with matrix shapes")
        return tup

    @staticmethod
    def load(path: str) -> "MatTuple":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError(f"{path}: JSON nesting too deep to decode") from None
        return MatTuple.from_json(data)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def prefix_products(words: Iterable[Word], unit: T, step: Callable[[T, int], T]) -> Dict[Word, T]:
    """Value of every word, built from `unit` by `step(value, letter)` one
    letter at a time, left to right.

    In sorted order the words sharing a prefix are consecutive, so a stack
    of the current word's prefix values, cut to the length it shares with
    the next word, steps each distinct prefix once and keeps only values a
    later word starts from.
    """
    ordered = sorted(words)
    values: Dict[Word, T] = {}
    stack = [unit]
    for word, following in zip(ordered, ordered[1:] + [()]):
        keep = next((k for k, (a, b) in enumerate(zip(word, following)) if a != b),
                    min(len(word), len(following)))
        value = stack[-1]
        for k in range(len(stack) - 1, len(word)):
            value = step(value, word[k])
            if k < keep:
                stack.append(value)
        values[word] = value
        del stack[keep + 1:]
    return values


def eval_poly(f: NcPoly, point: MatTuple) -> QMatrix:
    """Value of the substitution homomorphism at the given tuple.

    w(X) applies the letters of w left to right (`prefix_products`), so
    words sharing a prefix share the partial product; the terms are summed
    in `f.terms` order.
    """
    if f.d != point.d:
        raise ValueError(f"variable count mismatch: polynomial {f.d}, tuple {point.d}")
    values = prefix_products(f.terms, QMatrix.identity(point.n),
                             lambda value, letter: value @ point[letter - 1])
    terms = (coeff * values[word] for word, coeff in f.terms.items())
    return sum(terms, QMatrix.zeros(point.n, point.n))


def eval_poly_vector(f: NcPoly, point: MatTuple, v: QVector) -> QVector:
    """f(X) @ v computed word by word; avoids full matrix products.

    w(X)v applies the letters of w right to left, as `prefix_products` of
    the reversed words, so words sharing a suffix share the partial product.
    """
    if f.d != point.d:
        raise ValueError(f"variable count mismatch: polynomial {f.d}, tuple {point.d}")
    if len(v) != point.n:
        raise ValueError("vector length must match matrix size")
    values = prefix_products((word[::-1] for word in f.terms), v,
                             lambda value, letter: point[letter - 1] @ value)
    terms = (coeff * values[word[::-1]] for word, coeff in f.terms.items())
    return sum(terms, QVector.zero(point.n))


# ---------------------------------------------------------------------------
# Distinguished tuples and polynomials
# ---------------------------------------------------------------------------


def weyl_pair(n: int) -> MatTuple:
    """Size-n truncation of the canonical pair with [X, Y] = 1 - n*E_nn.

    X has ones on the superdiagonal, Y has 1, 2, ..., n-1 on the subdiagonal;
    then 1 - [X, Y] evaluates to n times the last diagonal matrix unit.
    """
    if n < 1:
        raise ValueError("size must be >= 1")
    x = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    y = [[i if j == i - 1 else 0 for j in range(n)] for i in range(n)]
    return MatTuple([QMatrix(x), QMatrix(y)])


def reference_poly() -> NcPoly:
    """1 - [x1, [x1,x2]^2], the polynomial of the published low-rank witnesses."""
    x1, x2 = NcPoly.var(1, 2), NcPoly.var(2, 2)
    inner = commutator(x1, x2)
    return NcPoly.one(2) - commutator(x1, inner * inner)


def random_tuple(rng: random.Random, n: int, d: int, k: int = 5) -> MatTuple:
    """Integer entries drawn uniformly from {-k..k}; the caller owns the rng."""
    mats = [
        QMatrix([[rng.randint(-k, k) for _ in range(n)] for _ in range(n)])
        for _ in range(d)
    ]
    return MatTuple(mats)


# ---------------------------------------------------------------------------
# Commutative polynomials and symbolic identity testing
# ---------------------------------------------------------------------------


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


def _generic_matrices(n: int, d: int) -> List[List[List[CPoly]]]:
    """d generic n-by-n matrices with pairwise distinct commuting entries."""
    mats = []
    for k in range(d):
        mats.append(
            [[CPoly.variable(k * n * n + i * n + j) for j in range(n)] for i in range(n)]
        )
    return mats


def _cpoly_mat_mul(a: List[List[CPoly]], b: List[List[CPoly]], count: List[int]) -> List[List[CPoly]]:
    n = len(a)
    out = [[CPoly() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = CPoly()
            for k in range(n):
                count[0] += len(a[i][k].terms) * len(b[k][j].terms)
                if count[0] > PI_MAX_OPS:
                    raise ResourceCapError(
                        f"symbolic identity test exceeded {PI_MAX_OPS} monomial products"
                    )
                acc = acc + a[i][k] * b[k][j]
            out[i][j] = acc
    return out


def _nonzero_entry(f: NcPoly, n: int) -> Optional[CPoly]:
    """First nonzero entry, in row-major order, of f expanded on generic
    n-by-n matrices; None when every entry is zero.  Raises
    ResourceCapError when the expansion exceeds PI_MAX_OPS monomial products.
    """
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    generic = _generic_matrices(n, f.d)
    identity = [[CPoly.constant(int(i == j)) for j in range(n)] for i in range(n)]
    count = [0]
    values = prefix_products(
        f.terms, identity, lambda value, letter: _cpoly_mat_mul(value, generic[letter - 1], count)
    )
    entries = (
        sum((values[word][i][j] * coeff for word, coeff in f.terms.items()), CPoly())
        for i in range(n) for j in range(n)
    )
    return next((entry for entry in entries if not entry.is_zero()), None)


def pi_test(f: NcPoly, n: int) -> bool:
    """Does f vanish identically on all n-by-n matrix tuples?

    Decided exactly by expanding f on generic matrices.  Raises
    ResourceCapError when the expansion exceeds PI_MAX_OPS monomial products.
    """
    return _nonzero_entry(f, n) is None


def _fix(
    terms: Dict[Tuple[int, ...], Fraction], var: int, value: int
) -> Dict[Tuple[int, ...], Fraction]:
    """The terms with one variable set to an integer; at 0 the monomials
    containing it just drop."""
    out: Dict[Tuple[int, ...], Fraction] = {}
    for mono, coeff in terms.items():
        power = mono.count(var)
        if power and not value:
            continue
        rest = tuple(v for v in mono if v != var) if power else mono
        out[rest] = out.get(rest, 0) + coeff * value**power
    return {mono: coeff for mono, coeff in out.items() if coeff}


def nonvanishing_point(f: NcPoly, n: int) -> Optional[MatTuple]:
    """None when f vanishes on all n-by-n tuples (the `pi_test` expansion),
    else an integer n-by-n point where f(X) != 0.

    The generic entries of a nonzero entry P of the expansion are fixed one
    at a time, each to the least c in 0, 1, .., deg that keeps P nonzero: a
    c that fails makes (entry - c) a factor of P, so at most deg values
    fail.  Entries P does not use are 0.
    """
    entry = _nonzero_entry(f, n)
    if entry is None:
        return None
    terms, values = entry.terms, {}
    for var in entry.variables():
        value = 0
        while not (fixed := _fix(terms, var, value)):
            value += 1
        terms, values[var] = fixed, value
    return MatTuple([
        QMatrix([[values.get(k * n * n + i * n + j, 0) for j in range(n)] for i in range(n)])
        for k in range(f.d)
    ])


# ---------------------------------------------------------------------------
# Point classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointClassification:
    """Membership flags of a tuple in the various vanishing sets, with the
    determinants, traces and ranks a classification document stores."""

    in_zero: bool
    in_directional: Optional[bool]
    in_det_zero: bool
    in_trace_zero: bool
    in_weak: Optional[bool]
    f_dets: Tuple[Fraction, ...]
    f_traces: Tuple[Fraction, ...]
    g_det: Fraction
    g_trace: Fraction
    f_ranks: Tuple[int, ...]
    g_rank: int


def classify_point(
    f_list: Sequence[NcPoly],
    g: NcPoly,
    point: MatTuple,
    u: Optional[QVector] = None,
    v: Optional[QVector] = None,
) -> PointClassification:
    f_values = [eval_poly(f, point) for f in f_list]
    g_value = eval_poly(g, point)
    f_infos = [rank_det_kernel(m) for m in f_values]
    g_info = rank_det_kernel(g_value)

    in_dir = in_weak = None
    if v is not None:
        f_dir = [m @ v for m in f_values]
        in_dir = all(w.is_zero() for w in f_dir)
        if u is not None:
            in_weak = all(u.dot(w) == 0 for w in f_dir)

    return PointClassification(
        in_zero=all(m.is_zero() for m in f_values),
        in_directional=in_dir,
        in_det_zero=all(info.det == 0 for info in f_infos),
        in_trace_zero=all(m.trace() == 0 for m in f_values),
        in_weak=in_weak,
        f_dets=tuple(info.det for info in f_infos),
        f_traces=tuple(m.trace() for m in f_values),
        g_det=g_info.det,
        g_trace=g_value.trace(),
        f_ranks=tuple(info.rank for info in f_infos),
        g_rank=g_info.rank,
    )
