"""Dense exact linear algebra over the rationals.

Matrices and vectors store Fraction entries and are immutable.  Rank,
determinant and kernel go through fraction-free (Bareiss) elimination on a
denominator-cleared integer copy; linear solves use ordinary Gauss-Jordan
over Fractions.  Pivoting is deterministic everywhere: the first nonzero
entry in column order wins, so identical inputs give identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"expected int, str or Fraction, got {type(value).__name__}")


class QVector:
    """Immutable rational vector."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence):
        self.entries: Tuple[Fraction, ...] = tuple(_frac(e) for e in entries)

    @staticmethod
    def zero(n: int) -> "QVector":
        return QVector([Fraction(0)] * n)

    @staticmethod
    def unit(n: int, i: int) -> "QVector":
        entries = [Fraction(0)] * n
        entries[i] = Fraction(1)
        return QVector(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def dot(self, other: "QVector") -> Fraction:
        if len(self) != len(other):
            raise ValueError(f"length mismatch: {len(self)} vs {len(other)}")
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def __add__(self, other: "QVector") -> "QVector":
        if len(self) != len(other):
            raise ValueError(f"length mismatch: {len(self)} vs {len(other)}")
        return QVector([a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "QVector") -> "QVector":
        return self + (-1) * other

    def __mul__(self, c) -> "QVector":
        c = _frac(c)
        return QVector([c * e for e in self.entries])

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "QVector([" + ", ".join(str(e) for e in self.entries) + "])"


class QMatrix:
    """Immutable rational matrix; rows is a tuple of row tuples."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(tuple(_frac(e) for e in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        self.entries = rows
        self.rows = len(rows)
        self.cols = width if rows else 0

    @staticmethod
    def zeros(rows: int, cols: int) -> "QMatrix":
        return QMatrix([[Fraction(0)] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix([[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)])

    @staticmethod
    def unit(n: int, i: int, j: int) -> "QMatrix":
        """n-by-n matrix with a single 1 at row i, column j (0-based)."""
        entries = [[Fraction(0)] * n for _ in range(n)]
        entries[i][j] = Fraction(1)
        return QMatrix(entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.entries for e in row)

    def __getitem__(self, i: int) -> Tuple[Fraction, ...]:
        return self.entries[i]

    def row(self, i: int) -> QVector:
        return QVector(self.entries[i])

    def column(self, j: int) -> QVector:
        return QVector([self.entries[i][j] for i in range(self.rows)])

    def transpose(self) -> "QMatrix":
        return QMatrix([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), Fraction(0))

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._check_shape(other)
        return QMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._check_shape(other)
        return QMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> "QMatrix":
        return QMatrix([[-a for a in row] for row in self.entries])

    def _check_shape(self, other: "QMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __mul__(self, c) -> "QMatrix":
        c = _frac(c)
        return QMatrix([[c * a for a in row] for row in self.entries])

    __rmul__ = __mul__

    def __matmul__(self, other: Union["QMatrix", QVector]):
        if isinstance(other, QVector):
            if self.cols != len(other):
                raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {len(other)}")
            return QVector(
                [
                    sum((a * b for a, b in zip(row, other.entries) if b), Fraction(0))
                    for row in self.entries
                ]
            )
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        # accumulate row-by-row, skipping zero left entries; evaluation points
        # are often shift-like and mostly zero, where this drops a factor of n
        out = [[Fraction(0)] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.entries):
            acc = out[i]
            for k, a in enumerate(row):
                if not a:
                    continue
                brow = other.entries[k]
                for j, b in enumerate(brow):
                    if b:
                        acc[j] += a * b
        return QMatrix(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"QMatrix[{self.rows}x{self.cols}: {body}]"


# ---------------------------------------------------------------------------
# Fraction-free elimination
# ---------------------------------------------------------------------------


def _integerize(m: QMatrix) -> Tuple[List[List[int]], Fraction]:
    """Clear denominators row by row; returns rows and the product of the
    row multipliers (needed to undo the scaling in determinants)."""
    rows: List[List[int]] = []
    multiplier = Fraction(1)
    for row in m.entries:
        lcm = 1
        for e in row:
            lcm = lcm * e.denominator // math.gcd(lcm, e.denominator)
        multiplier *= lcm
        rows.append([int(e * lcm) for e in row])
    return rows, multiplier


def _bareiss_echelon(rows: List[List[int]]) -> Tuple[List[List[int]], List[Tuple[int, int]], int]:
    """Fraction-free row echelon form.

    Returns (echelon rows, pivot (row, col) pairs, sign from row swaps).
    Pivot choice: first nonzero entry scanning down each column.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    mat = [list(r) for r in rows]
    pivots: List[Tuple[int, int]] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(n):
        if r >= m:
            break
        pivot_row = next((i for i in range(r, m) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
            sign = -sign
        for i in range(r + 1, m):
            for j in range(c + 1, n):
                mat[i][j] = (mat[r][c] * mat[i][j] - mat[i][c] * mat[r][j]) // prev
            mat[i][c] = 0
        prev = mat[r][c]
        pivots.append((r, c))
        r += 1
    return mat, pivots, sign


@dataclass(frozen=True)
class RankInfo:
    """Rank, determinant (None when not square) and a kernel basis."""

    rank: int
    det: Optional[Fraction]
    kernel: List[QVector]


def rank_det_kernel(m: QMatrix) -> RankInfo:
    """Exact rank, determinant and right kernel via Bareiss elimination."""
    if m.rows == 0 or m.cols == 0:
        det_value: Optional[Fraction] = Fraction(1) if m.rows == m.cols else None
        kernel = [QVector.unit(m.cols, j) for j in range(m.cols)]
        return RankInfo(rank=0, det=det_value, kernel=kernel)

    rows, multiplier = _integerize(m)
    echelon, pivots, sign = _bareiss_echelon(rows)
    rank = len(pivots)

    det_value = None
    if m.is_square():
        if rank < m.rows:
            det_value = Fraction(0)
        else:
            det_value = Fraction(sign * echelon[pivots[-1][0]][pivots[-1][1]]) / multiplier

    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(m.cols) if c not in pivot_cols]
    kernel: List[QVector] = []
    for free in free_cols:
        x: List[Fraction] = [Fraction(0)] * m.cols
        x[free] = Fraction(1)
        for r, c in reversed(pivots):
            s = sum((Fraction(echelon[r][j]) * x[j] for j in range(c + 1, m.cols)), Fraction(0))
            x[c] = -s / Fraction(echelon[r][c])
        kernel.append(QVector(x))
    return RankInfo(rank=rank, det=det_value, kernel=kernel)


def det(m: QMatrix) -> Fraction:
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    return rank_det_kernel(m).det


def rank(m: QMatrix) -> int:
    return rank_det_kernel(m).rank


# ---------------------------------------------------------------------------
# Linear solves
# ---------------------------------------------------------------------------


def solve_linear(rows: Sequence[QVector], rhs: QVector) -> Optional[QVector]:
    """One exact solution of rows * x = rhs with free variables set to zero,
    or None when the system is inconsistent."""
    m = len(rows)
    if m != len(rhs):
        raise ValueError("right-hand side length mismatch")
    n = len(rows[0]) if m else 0
    aug = [list(rows[i].entries) + [rhs[i]] for i in range(m)]
    pivots: List[Tuple[int, int]] = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        pivot_row = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pv = aug[r][c]
        aug[r] = [e / pv for e in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for row_idx, col_idx in pivots:
        x[col_idx] = aug[row_idx][n]
    return QVector(x)


@dataclass(frozen=True)
class SpanResult:
    """Outcome of a span membership test.

    When the target lies in the span, ``coefficients`` gives the unique
    solution with free variables zeroed (deterministic pivoting).  When it
    does not, ``functional`` is a linear functional vanishing on every basis
    vector and taking value 1 on the target, which certifies exclusion.
    """

    in_span: bool
    coefficients: Optional[QVector]
    functional: Optional[QVector]


def solve_span(basis: Sequence[QVector], target: QVector) -> SpanResult:
    n = len(target)
    for b in basis:
        if len(b) != n:
            raise ValueError("basis vector length mismatch")
    columns = [QVector([b[i] for b in basis]) for i in range(n)]
    coeffs = solve_linear(columns, target)
    if coeffs is not None:
        return SpanResult(True, coeffs, None)
    grid = list(basis) + [target]
    rhs = QVector([Fraction(0)] * len(basis) + [Fraction(1)])
    functional = solve_linear(grid, rhs)
    if functional is None:
        raise AssertionError("separating functional must exist when target is outside the span")
    return SpanResult(False, None, functional)


# ---------------------------------------------------------------------------
# Scalar utilities
# ---------------------------------------------------------------------------

MAX_ROOT_DIVISOR = 10**7  # integers whose divisors the rational root test enumerates


def rational_roots(coeffs: Sequence[Fraction]) -> List[Fraction]:
    """All rational roots of sum coeffs[k] * t**k, by the rational root test.

    Candidates p/q need p dividing the constant and q the leading integer
    coefficient after clearing denominators; divisor enumeration is skipped
    (returning only the roots found so far) when those integers exceed
    MAX_ROOT_DIVISOR, which callers treat as an incomplete search.
    """
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return []

    def value(x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(ints):
            acc = acc * x + c
        return acc

    roots: List[Fraction] = []
    if ints[0] == 0:
        roots.append(Fraction(0))
        while ints and ints[0] == 0:
            ints.pop(0)
        if not ints:
            return roots
    if abs(ints[0]) > MAX_ROOT_DIVISOR or abs(ints[-1]) > MAX_ROOT_DIVISOR:
        return roots

    def divisors(n: int) -> List[int]:
        n = abs(n)
        out = []
        i = 1
        while i * i <= n:
            if n % i == 0:
                out.append(i)
                out.append(n // i)
            i += 1
        return out

    for p in divisors(ints[0]):
        for q in divisors(ints[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and value(cand) == 0:
                    roots.append(cand)
    return roots


# ---------------------------------------------------------------------------
# Rational reconstruction
# ---------------------------------------------------------------------------


def rational_reconstruct(x: float, max_den: int = 10**6) -> Optional[Fraction]:
    """Recover p/q from a float via continued-fraction convergents.

    Accepts the convergent p/q (q <= max_den) only when
    |x - p/q| < 1 / (2 * q * max_den); returns None when no convergent
    qualifies.  If any fraction within the bound exists, the closest
    bounded-denominator fraction is it, so the check is complete.
    """
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    if not math.isfinite(x):
        raise ValueError(f"cannot reconstruct from non-finite value {x!r}")
    exact = Fraction(x)
    candidate = exact.limit_denominator(max_den)
    if abs(exact - candidate) < Fraction(1, 2 * candidate.denominator * max_den):
        return candidate
    return None
