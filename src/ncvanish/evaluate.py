"""Evaluation of noncommutative polynomials on square matrix tuples.

The substitution x_i -> X_i extends to the unique unital homomorphism into
n-by-n rational matrices; everything here is exact.  Every evaluator, the
exact, vector, symbolic and (in `lowrank`) float ones, builds its word values
with the one sorted prefix walk of `prefix_products`.  Identity testing on a
full matrix level (does f vanish on all n-by-n tuples?) is decided
symbolically on generic matrices whose entries are independent commuting
indeterminates: entry (i, j) of a word is a sum over the paths from i to j,
one monomial per path, so f is expanded row by row as int-keyed path sums
with integer coefficients, bounded by PI_MAX_OPS.  One expansion serves both
answers: `pi_test` reads only whether an entry is nonzero, and
`nonvanishing_point` turns a nonzero entry into an integer point where
f(X) != 0, the evidence a No stores so that a checker only evaluates.  The
seeded random tuples here are candidates for the search engines; checkers
never draw them.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from .linalg import QMatrix, QVector, rank_det_kernel, rational
from .poly import NcPoly, Word, commutator

PI_MAX_OPS = 10_000_000  # 64-bit words of monomial keys one identity test builds or touches

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
        return MatTuple.from_json(load_json(path))


def load_json(path: str):
    """The JSON value of a file.  Integer literals are read as string
    entries are (`linalg.rational`): within MAX_ENTRY_BITS, past the
    interpreter's int/str digit limit.  Nesting too deep to decode is
    refused with a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=rational)
        except RecursionError:
            raise ValueError(f"{path}: JSON nesting too deep to decode") from None


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def prefix_products(words: Iterable[Word], unit: T,
                    step: Callable[[T, int], T]) -> Iterator[Tuple[Word, T]]:
    """Each word with its value, in sorted order, the value built
    from `unit` by `step(value, letter)` one letter at a time, left to right.

    In sorted order the words sharing a prefix are consecutive, so a stack
    of the current word's prefix values, cut to the length it shares with
    the next word, steps each distinct prefix once and keeps only values a
    later word starts from; a word's value is kept only by the caller.
    """
    ordered = sorted(words)
    stack = [unit]
    for word, following in zip(ordered, ordered[1:] + [()]):
        keep = next((k for k, (a, b) in enumerate(zip(word, following)) if a != b),
                    min(len(word), len(following)))
        value = stack[-1]
        for k in range(len(stack) - 1, len(word)):
            value = step(value, word[k])
            if k < keep:
                stack.append(value)
        yield word, value
        del stack[keep + 1:]


def eval_poly(f: NcPoly, point: MatTuple) -> QMatrix:
    """Value of the substitution homomorphism at the given tuple.

    w(X) applies the letters of w left to right (`prefix_products`), so
    words sharing a prefix share the partial product; the terms are summed
    in `f.terms` order.
    """
    if f.d != point.d:
        raise ValueError(f"variable count mismatch: polynomial {f.d}, tuple {point.d}")
    values = dict(prefix_products(f.terms, QMatrix.identity(point.n),
                                  lambda value, letter: value @ point[letter - 1]))
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
    values = dict(prefix_products((word[::-1] for word in f.terms), v,
                                  lambda value, letter: point[letter - 1] @ value))
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
# Symbolic identity testing by path sums
# ---------------------------------------------------------------------------


def _nonzero_entry(f: NcPoly, n: int) -> Optional[Tuple[Dict[int, int], List[Tuple[int, int]]]]:
    """First nonzero entry, in row-major order, of f on generic n-by-n
    matrices, up to a positive scale, with the key fields of its monomials;
    None when every entry is zero.

    The generic entry x_{v,(j,k)} of X_v has id v*n*n + j*n + k.  Entry
    (i, j) of a word's value is the sum over the paths i = p_0, .., p_len = j
    of the monomials x_{w_1,(p_0,p_1)} .. x_{w_len,(p_len-1,p_len)}, so row
    i is a dict per column from monomial to path count, stepped from e_i one
    letter at a time: a state (j, m) goes to (k, m * x_{v,(j,k)}) for every
    k.  `prefix_products` walks the words without their last letter; each
    value is stepped by the last letters, with the words' coefficients,
    straight into the row's sum and then dropped, so neither word values
    nor more than one row are ever held.  A nonzero row ends the walk.

    A monomial is one int key: the exponent of entry id e sits in the bit
    field fields[e] = (shift, width), as wide as the most occurrences of its
    letter in one word, so multiplying by an entry adds 1 << shift and never
    carries.  Coefficients are f's times the lcm of their denominators.

    PI_MAX_OPS bounds the 64-bit words of keys built or touched: the field
    table, then every state a step sends on, each charged before it is done
    (a last step also counts its coefficient's extra words).  Past the cap
    ResourceCapError is raised.
    """
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    widths = [0] * f.d
    for word in f.terms:
        for letter in set(word):
            widths[letter - 1] = max(widths[letter - 1], word.count(letter).bit_length())
    key_words = max(1, -(-n * n * sum(widths) // 64))
    spent = 0

    def charge(states: int, words: int) -> None:
        nonlocal spent
        spent += states * words
        if spent > PI_MAX_OPS:
            raise ResourceCapError(
                f"identity test exceeds PI_MAX_OPS = {PI_MAX_OPS} words of monomial keys")

    charge(f.d * n * n, key_words)
    fields, shift = [], 0
    for width in widths:
        for _ in range(n * n):
            fields.append((shift, width))
            shift += width
    table = [[[1 << fields[v * n * n + j * n + k][0] for k in range(n)] for j in range(n)]
             for v in range(f.d)]

    def step(row: List[Dict[int, int]], letter: int, scale: int = 1,
             out: Optional[List[Dict[int, int]]] = None) -> List[Dict[int, int]]:
        """out + scale * row @ X_letter, updating out's dicts in place."""
        charge(n * sum(map(len, row)), key_words + abs(scale).bit_length() // 64)
        out = out or [{} for _ in range(n)]
        for entry, incs in zip(row, table[letter - 1]):
            items = entry.items() if scale == 1 else [(key, scale * c) for key, c in entry.items()]
            for target, inc in zip(out, incs):
                get = target.get
                for key, c in items:
                    key += inc
                    target[key] = get(key, 0) + c
        return out

    lcm = math.lcm(*(c.denominator for c in f.terms.values()))
    # word minus its last letter -> (last letter, or 0 for the constant; coefficient)
    lasts: Dict[Word, List[Tuple[int, int]]] = {}
    for word, c in f.terms.items():
        lasts.setdefault(word[:-1], []).append((word[-1] if word else 0,
                                                c.numerator * (lcm // c.denominator)))
    for i in range(n):
        total: List[Dict[int, int]] = [{} for _ in range(n)]
        for parent, row in prefix_products(lasts, [{0: 1} if j == i else {} for j in range(n)], step):
            for letter, c in lasts[parent]:
                if letter:
                    step(row, letter, c, total)
                else:
                    total[i][0] = c
        entry = next((entry for entry in total if any(entry.values())), None)
        if entry is not None:
            return {key: c for key, c in entry.items() if c}, fields
    return None


def pi_test(f: NcPoly, n: int) -> bool:
    """Does f vanish identically on all n-by-n matrix tuples?

    Decided exactly by the path-sum expansion of f on generic matrices.
    Raises ResourceCapError when it exceeds PI_MAX_OPS.
    """
    return _nonzero_entry(f, n) is None


def _fix(terms: Dict[int, int], field: Tuple[int, int], value: int) -> Dict[int, int]:
    """The terms with the generic entry of one key field set to an integer;
    at 0 the monomials containing it just drop."""
    shift, width = field
    out: Dict[int, int] = {}
    for key, coeff in terms.items():
        power = (key >> shift) & ((1 << width) - 1)
        if power and not value:
            continue
        rest = key - (power << shift)
        out[rest] = out.get(rest, 0) + coeff * value**power
    return {key: coeff for key, coeff in out.items() if coeff}


def nonvanishing_point(f: NcPoly, n: int) -> Optional[MatTuple]:
    """None when f vanishes on all n-by-n tuples (the `pi_test` expansion),
    else an integer n-by-n point where f(X) != 0.

    The generic entries of a nonzero entry P of the expansion are fixed one
    at a time, in id order, each to the least c in 0, 1, .., deg that keeps
    P nonzero: a c that fails makes (entry - c) a factor of P, so at most
    deg values fail.  Entries P does not use are 0.
    """
    found = _nonzero_entry(f, n)
    if found is None:
        return None
    terms, fields = found
    used = functools.reduce(operator.or_, terms)
    values = []
    for shift, width in fields:
        value = 0
        if (used >> shift) & ((1 << width) - 1):
            while not (fixed := _fix(terms, (shift, width), value)):
                value += 1
            terms = fixed
        values.append(value)
    return MatTuple([
        QMatrix([values[k * n * n + i * n:k * n * n + (i + 1) * n] for i in range(n)])
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
