"""Dense exact linear algebra over the rationals.

Matrices and vectors are immutable and store integer numerators over one
positive common denominator, in lowest terms (gcd of the denominator and
every numerator is 1), so equal values have equal storage and `==` and
`hash` are value equality.  Arithmetic runs on Python ints and skips the
gcd pass when the denominator is 1, as it is on every integer point.
Fractions appear only at the boundary: `entries`, indexing, `trace`, `dot`
and determinants.  String entries are decoded once, at construction, and
refused past MAX_ENTRY_BITS before they are built; within it, integers and
quotients are read and written in pieces, past the interpreter's int/str
digit limit, which stays as it is.  Rank, determinant,
kernel and linear solves all come from one fraction-free (Bareiss)
elimination of the numerators.  Pivoting is deterministic everywhere: the
first nonzero entry in column order wins, so identical inputs give identical
outputs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add, mul, neg, sub
from typing import List, Optional, Sequence, Tuple, Union

MAX_ENTRY_BITS = 100_000  # numerator or denominator bits of one decoded entry, as poly.MAX_PARSE_BITS
# decimal digits whose value fits in MAX_ENTRY_BITS bits (log10 2 = 0.30103)
_MAX_ENTRY_DIGITS = MAX_ENTRY_BITS * 30103 // 100_000
# digits of one piece of a long int/str conversion: below the threshold
# (640) under which the interpreter never applies its digit limit
_PIECE_DIGITS = 600
_PIECE = 10**_PIECE_DIGITS
# an optionally signed integer or quotient of integers, as Fraction reads it
_PLAIN = re.compile(r"\s*([-+]?)(\d+)(?:\s*/\s*(\d+))?\s*")


def _int_of(digits: str) -> int:
    """int(digits) for a string of decimal digits, read in pieces, so that
    no conversion meets the interpreter's int/str digit limit."""
    if len(digits) <= _PIECE_DIGITS:
        return int(digits)
    value = 0
    for start in range(0, len(digits), _PIECE_DIGITS):
        piece = digits[start:start + _PIECE_DIGITS]
        value = value * 10**len(piece) + int(piece)
    return value


def _int_text(value: int) -> str:
    """str(value) written in pieces, as `_int_of` reads it; refused past
    MAX_ENTRY_BITS, where no reader would accept it."""
    magnitude = abs(value)
    if magnitude.bit_length() > MAX_ENTRY_BITS:
        raise ValueError(f"entry exceeds MAX_ENTRY_BITS = {MAX_ENTRY_BITS}")
    pieces = []
    while magnitude >= _PIECE:
        magnitude, low = divmod(magnitude, _PIECE)
        pieces.append(str(low).zfill(_PIECE_DIGITS))
    pieces.append(str(magnitude))
    return "-" * (value < 0) + "".join(reversed(pieces))


def rational_text(value: Union[int, Fraction]) -> str:
    """str(value), also past the interpreter's int/str digit limit."""
    try:
        return str(value)
    except ValueError:
        text = _int_text(value.numerator)
        return text if value.denominator == 1 else f"{text}/{_int_text(value.denominator)}"


def _texts(values: Sequence[Union[int, Fraction]]) -> List[str]:
    try:
        return list(map(str, values))
    except ValueError:
        return list(map(rational_text, values))


def _decode(text: str) -> Union[int, Fraction]:
    """The value Fraction(text) reads, refused before it is built when the
    numerator or denominator Fraction would build has more decimal digits
    than MAX_ENTRY_BITS bits hold (mantissa digits plus the exponent).  An
    integer literal goes through int(), which reads a string only where
    Fraction reads it, and to the same value; an integer or quotient past
    the interpreter's int/str digit limit is read by `_int_of`."""
    if len(text) <= _MAX_ENTRY_DIGITS:
        try:
            return int(text)
        except ValueError:
            pass
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    # ten leading digits of a longer exponent are already past the bound
    shift = int(exponent[:10]) if exponent.isdecimal() else 0
    if sum(map(str.isdigit, mantissa)) + shift > _MAX_ENTRY_DIGITS:
        raise ValueError(f"entry exceeds MAX_ENTRY_BITS = {MAX_ENTRY_BITS}")
    plain = _PLAIN.fullmatch(text)
    if plain:
        sign, numerator, denominator = plain.groups()
        value = -_int_of(numerator) if sign == "-" else _int_of(numerator)
        if denominator is None:
            return value
        denominator = _int_of(denominator)
        if not denominator:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(value, denominator)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def rational(value) -> Union[int, Fraction]:
    """An entry or scalar as an int or a Fraction; a string is read as
    Fraction(text) reads it, within MAX_ENTRY_BITS."""
    if isinstance(value, str):
        return _decode(value)
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"expected int, str or Fraction, got {type(value).__name__}")


def _common(values: Sequence[Union[int, Fraction]]) -> Tuple[Tuple[int, ...], int]:
    """Numerators over the least common denominator, which is already in
    lowest terms: a prime power dividing it exactly divides one entry's
    denominator, and that entry's numerator is prime to it."""
    den = math.lcm(*[e.denominator for e in values])
    if den == 1:
        return tuple([e.numerator for e in values]), 1
    return tuple([e.numerator * (den // e.denominator) for e in values]), den


def _fraction(numerator: int, den: int) -> Fraction:
    return Fraction(numerator) if den == 1 else Fraction(numerator, den)


def _check_length(a: Sequence, b: Sequence) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")


class QVector:
    """Immutable rational vector: numerators `num` over the denominator `den`."""

    __slots__ = ("num", "den")

    def __init__(self, entries: Sequence):
        self.num, self.den = _common([rational(e) for e in entries])

    @classmethod
    def _of(cls, num: Tuple[int, ...], den: int) -> "QVector":
        """num / den for a positive den, brought to lowest terms."""
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num, den = tuple([a // g for a in num]), den // g
        out = object.__new__(cls)
        out.num, out.den = num, den
        return out

    @staticmethod
    def zero(n: int) -> "QVector":
        return QVector._of((0,) * n, 1)

    @staticmethod
    def unit(n: int, i: int) -> "QVector":
        num = [0] * n
        num[i] = 1
        return QVector._of(tuple(num), 1)

    @property
    def entries(self) -> Tuple[Fraction, ...]:
        den = self.den
        return tuple(_fraction(a, den) for a in self.num)

    def to_json(self) -> List[str]:
        """Entries as the strings str(Fraction) writes."""
        return _texts(self.num if self.den == 1 else self.entries)

    def __len__(self) -> int:
        return len(self.num)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return _fraction(self.num[i], self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def dot(self, other: "QVector") -> Fraction:
        _check_length(self.num, other.num)
        return Fraction(sum(map(mul, self.num, other.num)), self.den * other.den)

    def _combine(self, other: "QVector", op) -> "QVector":
        _check_length(self.num, other.num)
        a, b, den = self.num, other.num, self.den
        if den != other.den:
            den = math.lcm(den, other.den)
            sa, sb = den // self.den, den // other.den
            a, b = tuple([x * sa for x in a]), tuple([x * sb for x in b])
        return QVector._of(tuple(map(op, a, b)), den)

    def __add__(self, other: "QVector") -> "QVector":
        return self._combine(other, add)

    def __sub__(self, other: "QVector") -> "QVector":
        return self._combine(other, sub)

    def __mul__(self, c) -> "QVector":
        c = rational(c)
        p = c.numerator
        return QVector._of(tuple([p * a for a in self.num]), self.den * c.denominator)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QVector):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return "QVector([" + ", ".join(str(e) for e in self.entries) + "])"


class QMatrix:
    """Immutable rational matrix: `num` is a tuple of integer numerator rows
    over the denominator `den`; `rows` and `cols` give the shape."""

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, entries: Sequence[Sequence]):
        values = [[rational(e) for e in row] for row in entries]
        if values:
            width = len(values[0])
            if any(len(r) != width for r in values):
                raise ValueError("ragged rows")
        else:
            width = 0
        flat, self.den = _common(list(chain.from_iterable(values)))
        self.num = tuple(flat[i * width:(i + 1) * width] for i in range(len(values)))
        self.rows = len(values)
        self.cols = width

    @classmethod
    def _of(cls, num: Tuple[Tuple[int, ...], ...], den: int) -> "QMatrix":
        """num / den for a positive den, brought to lowest terms."""
        if den != 1:
            g = math.gcd(den, *chain.from_iterable(num))
            if g != 1:
                num, den = tuple(tuple([a // g for a in row]) for row in num), den // g
        out = object.__new__(cls)
        out.num, out.den = num, den
        out.rows = len(num)
        out.cols = len(num[0]) if num else 0
        return out

    @staticmethod
    def zeros(rows: int, cols: int) -> "QMatrix":
        return QMatrix._of(((0,) * cols,) * rows, 1)

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix._of(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

    @staticmethod
    def unit(n: int, i: int, j: int) -> "QMatrix":
        """n-by-n matrix with a single 1 at row i, column j (0-based)."""
        num = [[0] * n for _ in range(n)]
        num[i][j] = 1
        return QMatrix._of(tuple(map(tuple, num)), 1)

    @property
    def entries(self) -> Tuple[Tuple[Fraction, ...], ...]:
        den = self.den
        return tuple(tuple(_fraction(a, den) for a in row) for row in self.num)

    def to_json(self) -> List[List[str]]:
        """Rows of entries as the strings str(Fraction) writes."""
        return [_texts(row) for row in (self.num if self.den == 1 else self.entries)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def __getitem__(self, i: int) -> Tuple[Fraction, ...]:
        den = self.den
        return tuple(_fraction(a, den) for a in self.num[i])

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return _fraction(sum(row[i] for i, row in enumerate(self.num)), self.den)

    def _combine(self, other: "QMatrix", op) -> "QMatrix":
        self._check_shape(other)
        a, b, den = self.num, other.num, self.den
        if den != other.den:
            den = math.lcm(den, other.den)
            sa, sb = den // self.den, den // other.den
            a = tuple(tuple([x * sa for x in row]) for row in a)
            b = tuple(tuple([x * sb for x in row]) for row in b)
        return QMatrix._of(tuple(tuple(map(op, ra, rb)) for ra, rb in zip(a, b)), den)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return self._combine(other, add)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self._combine(other, sub)

    def __neg__(self) -> "QMatrix":
        return QMatrix._of(tuple(tuple(map(neg, row)) for row in self.num), self.den)

    def _check_shape(self, other: "QMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __mul__(self, c) -> "QMatrix":
        c = rational(c)
        p = c.numerator
        return QMatrix._of(tuple(tuple([p * a for a in row]) for row in self.num),
                           self.den * c.denominator)

    __rmul__ = __mul__

    def __matmul__(self, other: Union["QMatrix", QVector]):
        if isinstance(other, QVector):
            if self.cols != len(other):
                raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {len(other)}")
            v = other.num
            return QVector._of(tuple(sum(map(mul, row, v)) for row in self.num),
                               self.den * other.den)
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        # accumulate row-by-row, skipping zero left entries; evaluation points
        # are often shift-like and mostly zero, where this drops a factor of n
        cols, right = other.cols, other.num
        out = []
        for row in self.num:
            acc = [0] * cols
            for k, a in enumerate(row):
                if not a:
                    continue
                for j, b in enumerate(right[k]):
                    if b:
                        acc[j] += a * b
            out.append(tuple(acc))
        return QMatrix._of(tuple(out), self.den * other.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"QMatrix[{self.rows}x{self.cols}: {body}]"


# ---------------------------------------------------------------------------
# Fraction-free elimination
# ---------------------------------------------------------------------------


def _bareiss_echelon(
    rows: Sequence[Sequence[int]],
) -> Tuple[List[List[int]], List[Tuple[int, int]], int]:
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


def _kernel_vector(echelon: List[List[int]], pivots: List[Tuple[int, int]], free: int,
                   cols: int) -> QVector:
    """The kernel vector with entry 1 at the free column `free` and 0 at the
    other free columns, back-substituted without fractions: x holds
    numerators over `scale`, and each pivot p scales both by p / gcd."""
    x = [0] * cols
    x[free] = scale = 1
    for r, c in reversed(pivots):
        row = echelon[r]
        s = sum(map(mul, row[c + 1:], x[c + 1:]))
        if not s:
            continue
        g = math.gcd(s, row[c])
        q = row[c] // g
        if q != 1:
            x = [q * a for a in x]
            scale *= q
        x[c] = -s // g
    if scale < 0:
        x, scale = [-a for a in x], -scale
    return QVector._of(tuple(x), scale)


def rank_det_kernel(m: QMatrix) -> RankInfo:
    """Exact rank, determinant and right kernel via Bareiss elimination of
    the numerators; the determinant divides by den**rows."""
    if m.rows == 0 or m.cols == 0:
        det_value: Optional[Fraction] = Fraction(1) if m.rows == m.cols else None
        kernel = [QVector.unit(m.cols, j) for j in range(m.cols)]
        return RankInfo(rank=0, det=det_value, kernel=kernel)

    echelon, pivots, sign = _bareiss_echelon(m.num)
    rank = len(pivots)

    det_value = None
    if m.is_square():
        if rank < m.rows:
            det_value = Fraction(0)
        else:
            det_value = _fraction(sign * echelon[-1][-1], m.den ** m.rows)

    pivot_cols = {c for _, c in pivots}
    kernel = [_kernel_vector(echelon, pivots, free, m.cols)
              for free in range(m.cols) if free not in pivot_cols]
    return RankInfo(rank=rank, det=det_value, kernel=kernel)


def rank(m: QMatrix) -> int:
    """Exact rank: the pivot count of the Bareiss echelon of the numerators."""
    return len(_bareiss_echelon(m.num)[1])


# ---------------------------------------------------------------------------
# Linear solves
# ---------------------------------------------------------------------------


def solve_linear(rows: Sequence[QVector], rhs: QVector) -> Optional[QVector]:
    """One exact solution of rows * x = rhs with free variables set to zero,
    or None when the system is inconsistent.

    x extended by 1 is the kernel vector of [A | -b] at its last column,
    which exists exactly when that column is not a pivot; each row is
    scaled to integers by its denominator and b's."""
    m = len(rows)
    if m != len(rhs):
        raise ValueError("right-hand side length mismatch")
    n = len(rows[0]) if m else 0
    aug = [tuple([a * rhs.den for a in row.num]) + (-b * row.den,)
           for row, b in zip(rows, rhs.num)]
    echelon, pivots, _ = _bareiss_echelon(aug)
    if pivots and pivots[-1][1] == n:
        return None
    x = _kernel_vector(echelon, pivots, n, n + 1)
    return QVector._of(x.num[:n], x.den)


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
