"""Checkers that share no arithmetic with ncvanish.

Polynomials are plain dicts from words (tuples of 1-based variable indices)
to Fractions, matrices are lists of rows of Fractions, and exact rank and
determinant come from sympy.  The benchmark runs these outside its timed
regions to check what the program returned.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Word = Tuple[int, ...]
Poly = Dict[Word, Fraction]
Matrix = List[List[Fraction]]


# ---------------------------------------------------------------------------
# Polynomials on plain dicts
# ---------------------------------------------------------------------------


def poly_add(a: Poly, b: Poly, scale: Fraction = Fraction(1)) -> Poly:
    """a + scale * b."""
    out = dict(a)
    for w, c in b.items():
        s = out.get(w, 0) + scale * c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def poly_mul(a: Poly, b: Poly) -> Poly:
    """Product by word convolution: concatenate every pair of words."""
    out: Poly = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            s = out.get(w, 0) + ca * cb
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def poly_prod(factors: Sequence[Poly]) -> Poly:
    out: Poly = {(): Fraction(1)}
    for f in factors:
        out = poly_mul(out, f)
    return out


def constant(c) -> Poly:
    c = Fraction(c)
    return {(): c} if c else {}


def cyclic_normal(p: Poly) -> Poly:
    """Every word rotated to its least rotation, coefficients merged; zero
    exactly when p is a sum of commutators."""
    out: Poly = {}
    for w, c in p.items():
        r = min(w[i:] + w[:i] for i in range(len(w))) if w else w
        s = out.get(r, 0) + c
        if s:
            out[r] = s
        else:
            out.pop(r, None)
    return out


def parse_canonical(text: str) -> Poly:
    """Read the canonical printed form (terms joined by ' + ' and ' - ',
    each an optional rational magnitude times letters x<i> or x<i>^<k>)."""
    text = text.strip()
    if text == "0":
        return {}
    out: Poly = {}
    for piece in text.replace(" - ", " + -").split(" + "):
        sign = -1 if piece.startswith("-") else 1
        coeff = Fraction(sign)
        word: List[int] = []
        for factor in piece.lstrip("-").split("*"):
            if factor.startswith("x"):
                index, _, power = factor[1:].partition("^")
                word.extend([int(index)] * (int(power) if power else 1))
            else:
                coeff *= Fraction(factor)
        out = poly_add(out, {tuple(word): coeff})
    return out


def format_poly(p: Poly) -> str:
    """Render a dict polynomial in the program's input grammar."""
    if not p:
        return "0"
    terms = []
    for w in sorted(p, key=lambda w: (len(w), w)):
        letters = "".join(f"*x{i}" for i in w)
        terms.append(f"{p[w]}{letters}")
    return " + ".join(terms)


# ---------------------------------------------------------------------------
# Matrix tuples on Fraction lists
# ---------------------------------------------------------------------------


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(n: int) -> Matrix:
    return [[Fraction(0)] * n for _ in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m = len(a), len(b[0]) if b else 0
    out = [[Fraction(0)] * m for _ in range(n)]
    for i, row in enumerate(a):
        acc = out[i]
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        acc[j] += x * y
    return out


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> List[Fraction]:
    return [sum((x * y for x, y in zip(row, v) if x and y), Fraction(0)) for row in a]


def matrices_of(data: dict) -> List[Matrix]:
    """The matrices of a tuple in the certificate format (entries as strings)."""
    return [[[Fraction(e) for e in row] for row in m] for m in data["matrices"]]


def eval_poly(p: Poly, mats: Sequence[Matrix]) -> Matrix:
    """sum of c * X_w over the terms of p; word values share prefixes."""
    n = len(mats[0])
    cache: Dict[Word, Matrix] = {(): identity(n)}

    def value(w: Word) -> Matrix:
        if w not in cache:
            cache[w] = mat_mul(value(w[:-1]), mats[w[-1] - 1])
        return cache[w]

    out = zeros(n)
    for w, c in p.items():
        for i, row in enumerate(value(w)):
            for j, x in enumerate(row):
                if x:
                    out[i][j] += c * x
    return out


def eval_poly_vector(p: Poly, mats: Sequence[Matrix], v: Sequence[Fraction]) -> List[Fraction]:
    """p(X) v, letters applied right to left."""
    cache: Dict[Word, List[Fraction]] = {(): list(v)}

    def value(w: Word) -> List[Fraction]:
        if w not in cache:
            cache[w] = mat_vec(mats[w[0] - 1], value(w[1:]))
        return cache[w]

    out = [Fraction(0)] * len(v)
    for w, c in p.items():
        out = [x + c * y for x, y in zip(out, value(w))]
    return out


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def trace(m: Matrix) -> Fraction:
    return sum((m[i][i] for i in range(len(m))), Fraction(0))


def is_zero(rows: Sequence[Sequence[Fraction]]) -> bool:
    return all(not x for row in rows for x in row)


def rank_det(m: Matrix) -> Tuple[int, Optional[Fraction]]:
    """Exact rank and determinant (None unless square) from sympy."""
    import sympy

    if not m or not m[0]:
        return 0, Fraction(1) if len(m) == (len(m[0]) if m else 0) else None
    sm = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])
    det = None
    if sm.rows == sm.cols:
        value = sm.det()
        det = Fraction(int(value.p), int(value.q))
    return int(sm.rank()), det
