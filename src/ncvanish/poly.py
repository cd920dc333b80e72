"""Exact arithmetic for polynomials in noncommuting variables over the rationals.

Representation
--------------
A word in the variables x1..xd is a tuple of 1-based variable indices; the
empty tuple is the unit word.  A polynomial keeps the ambient variable count
``d`` and a map from words to nonzero Fraction coefficients.  The zero
polynomial has an empty term map and degree ``-inf``.

Words are compared degree-lexicographically: shorter words come first, words
of equal length are compared as index tuples (so x1 < x2 < ... < xd).  This
order is compatible with concatenation on both sides, hence leading terms of
products multiply: lead(p*q) = lead(p)*lead(q) for nonzero p, q.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .linalg import _int_of, rational_text

Word = Tuple[int, ...]
Scalar = Fraction

NEG_INF = float("-inf")


def deglex_key(word: Word) -> Tuple[int, Word]:
    """Sort key realizing the degree-lexicographic word order."""
    return (len(word), word)


def word_rotations(word: Word) -> List[Word]:
    """All cyclic rotations of a word (just the word itself when empty)."""
    if not word:
        return [()]
    return [word[i:] + word[:i] for i in range(len(word))]


def cyclic_representative(word: Word) -> Word:
    """The deglex-least rotation; rotations share length, so plain min works."""
    return min(word_rotations(word))


def _as_scalar(value: Union[int, Fraction]) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class NcPoly:
    """Immutable noncommutative polynomial.

    Instances must not be mutated after construction; all arithmetic returns
    fresh objects.  Operations between polynomials with different variable
    counts raise ValueError.
    """

    __slots__ = ("d", "terms", "_hash")

    def __init__(self, d: int, terms: Dict[Word, Fraction]):
        if d < 1:
            raise ValueError(f"variable count must be >= 1, got {d}")
        clean: Dict[Word, Fraction] = {}
        for word, coeff in terms.items():
            c = _as_scalar(coeff)
            if c == 0:
                continue
            for idx in word:
                if not 1 <= idx <= d:
                    raise ValueError(f"variable index {idx} out of range 1..{d}")
            clean[tuple(word)] = c
        self.d = d
        self.terms = clean
        self._hash: Optional[int] = None

    @classmethod
    def _of(cls, d: int, terms: Dict[Word, Fraction]) -> "NcPoly":
        """Arithmetic results: `terms` maps tuples of in-range letters to
        nonzero Fractions, so nothing is re-validated or copied."""
        p = object.__new__(cls)
        p.d, p.terms, p._hash = d, terms, None
        return p

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(d: int) -> "NcPoly":
        return NcPoly(d, {})

    @staticmethod
    def one(d: int) -> "NcPoly":
        return NcPoly(d, {(): Fraction(1)})

    @staticmethod
    def constant(c: Union[int, Fraction], d: int) -> "NcPoly":
        return NcPoly(d, {(): _as_scalar(c)})

    @staticmethod
    def var(index: int, d: int) -> "NcPoly":
        if not 1 <= index <= d:
            raise ValueError(f"variable index {index} out of range 1..{d}")
        return NcPoly(d, {(index,): Fraction(1)})

    @staticmethod
    def from_word(word: Word, d: int, coeff: Union[int, Fraction] = 1) -> "NcPoly":
        return NcPoly(d, {tuple(word): _as_scalar(coeff)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> Union[int, float]:
        """Maximal word length, -inf for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(len(w) for w in self.terms)

    def coeff(self, word: Word) -> Fraction:
        return self.terms.get(tuple(word), Fraction(0))

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def support(self) -> List[Word]:
        """Words with nonzero coefficient, in increasing deglex order."""
        return sorted(self.terms, key=deglex_key)

    def items(self) -> List[Tuple[Word, Fraction]]:
        return [(w, self.terms[w]) for w in self.support()]

    @property
    def lead_word(self) -> Word:
        if not self.terms:
            raise ValueError("zero polynomial has no leading word")
        return max(self.terms, key=deglex_key)

    @property
    def lead_coeff(self) -> Fraction:
        return self.terms[self.lead_word]

    def lead_part(self) -> "NcPoly":
        """Homogeneous component of top degree (zero for the zero polynomial)."""
        if not self.terms:
            return self
        top = self.degree
        return NcPoly(self.d, {w: c for w, c in self.terms.items() if len(w) == top})

    def monic(self) -> "NcPoly":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        return self * (1 / self.lead_coeff)

    # -- structure ---------------------------------------------------------

    def is_homogeneous(self) -> bool:
        return len({len(w) for w in self.terms}) <= 1

    # -- arithmetic ----------------------------------------------------------

    def _check_d(self, other: "NcPoly") -> None:
        if self.d != other.d:
            raise ValueError(f"variable count mismatch: {self.d} vs {other.d}")

    def __add__(self, other: object) -> "NcPoly":
        if isinstance(other, (int, Fraction)):
            other = NcPoly.constant(other, self.d)
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._check_d(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, Fraction(0)) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return NcPoly._of(self.d, out)

    def __radd__(self, other: object) -> "NcPoly":
        return self.__add__(other)

    def __neg__(self) -> "NcPoly":
        return NcPoly._of(self.d, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: object) -> "NcPoly":
        if isinstance(other, (int, Fraction)):
            other = NcPoly.constant(other, self.d)
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self.__add__(other.__neg__())

    def __rsub__(self, other: object) -> "NcPoly":
        return self.__neg__().__add__(other)

    def __mul__(self, other: object) -> "NcPoly":
        if isinstance(other, (int, Fraction)):
            c = _as_scalar(other)
            return NcPoly._of(self.d, {w: c * v for w, v in self.terms.items()} if c else {})
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._check_d(other)
        out: Dict[Word, Fraction] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = wa + wb
                s = out.get(w, Fraction(0)) + ca * cb
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
        return NcPoly._of(self.d, out)

    def __rmul__(self, other: object) -> "NcPoly":
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> "NcPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result, square = NcPoly.one(self.d), self
        while exponent:
            if exponent & 1:
                result = result * square
            exponent >>= 1
            if exponent:
                square = square * square
        return result

    # -- trace normal form ---------------------------------------------------

    def cyclic_reduce(self) -> "NcPoly":
        """Rotate every word to its deglex-least rotation and merge.

        The result is zero exactly when the polynomial is a sum of
        commutators, so this is the normal form for trace-style tests.
        """
        out: Dict[Word, Fraction] = {}
        for w, c in self.terms.items():
            r = cyclic_representative(w)
            s = out.get(r, Fraction(0)) + c
            if s:
                out[r] = s
            else:
                out.pop(r, None)
        return NcPoly(self.d, out)

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self.d == other.d and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.d, frozenset(self.terms.items())))
        return self._hash

    def sort_key(self) -> Tuple:
        """Deterministic total order on polynomials, used to stabilize output."""
        return (
            len(max(self.terms, key=deglex_key)) if self.terms else -1,
            tuple((deglex_key(w), c) for w, c in self.items()),
        )

    def __repr__(self) -> str:
        return f"NcPoly({self.d}, {format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def commutator(p: NcPoly, q: NcPoly) -> NcPoly:
    """p*q - q*p."""
    return p * q - q * p


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def _word_str(word: Word) -> str:
    # consecutive repeats collapse to powers: (1,1,2) -> "x1^2*x2"
    parts: List[str] = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        run = j - i
        parts.append(f"x{word[i]}" if run == 1 else f"x{word[i]}^{run}")
        i = j
    return "*".join(parts)


def format_poly(p: NcPoly) -> str:
    """Canonical rendering, terms in increasing deglex order; re-parsable."""
    if p.is_zero():
        return "0"
    pieces: List[str] = []
    for i, (word, coeff) in enumerate(p.items()):
        mag = rational_text(abs(coeff))
        if not word:
            body = mag
        elif mag == "1":
            body = _word_str(word)
        else:
            body = f"{mag}*{_word_str(word)}"
        if i == 0:
            if coeff < 0:
                # "-x1" is not in the grammar, so spell the coefficient out
                body = f"-{mag}*{_word_str(word)}" if word else f"-{mag}"
            pieces.append(body)
        else:
            pieces.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------
#
# expr     := term (('+' | '-') term)*
# term     := factor ('*' factor)*
# factor   := atom ('^' nat)?
# atom     := rational | 'x' nat | '(' expr ')' | '[' expr ',' expr ']'
# rational := ('-')? nat ('/' nat)?
#
# Whitespace is insignificant.  Juxtaposition is not multiplication: "2x1"
# and "x1(x2)" are syntax errors.  '[p,q]' expands to p*q - q*p while
# parsing.
#
# Parsed text may come from an untrusted certificate, so every product and
# power is bounded before it is computed: by its degree, by the product of
# the factors' term counts (which bounds both its terms and its work), and by
# the bit length of its coefficients.  The term-count bounds above 1 of one
# text share the same limit.  A numeral is measured by its digits before it
# is read, so a long one is refused by the limit it breaks, and one within
# MAX_PARSE_BITS is read past the interpreter's int/str digit limit.

MAX_PARSE_DEGREE = 10_000
MAX_PARSE_TERMS = 10_000
MAX_PARSE_BITS = 100_000


class NcParseError(ValueError):
    """Syntax or range error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"(?P<ws>\s+)|(?P<var>x\d+)|(?P<num>\d+)|(?P<sym>[+\-*^/()\[\],])")


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens: List[Tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise NcParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: List[Tuple[str, str, int]], d: int, length: int):
        self.tokens = tokens
        self.d = d
        self.i = 0
        self.end = length
        self.work = 0

    def _peek(self) -> Optional[Tuple[str, str, int]]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> Tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise NcParseError("unexpected end of input", self.end)
        self.i += 1
        return tok

    def _expect_sym(self, sym: str) -> None:
        tok = self._next()
        if tok[0] != "sym" or tok[1] != sym:
            raise NcParseError(f"expected {sym!r}", tok[2])

    def _expect_nat(self) -> Tuple[str, int]:
        """The digits and position of a natural number."""
        tok = self._next()
        if tok[0] != "num":
            raise NcParseError("expected a natural number", tok[2])
        return tok[1], tok[2]

    def parse_expr(self) -> NcPoly:
        result = self.parse_term()
        while True:
            tok = self._peek()
            if tok is not None and tok[0] == "sym" and tok[1] in "+-":
                self.i += 1
                rhs = self.parse_term()
                result = result + rhs if tok[1] == "+" else result - rhs
            else:
                return result

    def parse_term(self) -> NcPoly:
        result, degree, bits = self.parse_factor()
        terms = len(result.terms)
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "sym" or tok[1] != "*":
                return result
            self.i += 1
            factor, f_degree, f_bits = self.parse_factor()
            degree, bits, terms = degree + f_degree, bits + f_bits, terms * len(factor.terms)
            self._bound(tok[2], degree, terms, bits)
            result = result * factor

    def parse_factor(self) -> Tuple[NcPoly, int, int]:
        """A factor with bounds on its degree and coefficient bit length."""
        atom, degree, bits = self.parse_atom()
        tok = self._peek()
        if tok is None or tok[0] != "sym" or tok[1] != "^":
            return atom, degree, bits
        self.i += 1
        digits, pos = self._expect_nat()
        exponent = _numeral(digits, MAX_PARSE_DEGREE.bit_length())
        if exponent is None or exponent > MAX_PARSE_DEGREE:  # also keeps the bounds below small
            raise NcParseError(f"exponent exceeds MAX_PARSE_DEGREE = {MAX_PARSE_DEGREE}", pos)
        degree, bits = degree * exponent, bits * exponent
        self._bound(pos, degree, len(atom.terms) ** min(exponent, 64), bits)
        return atom ** exponent, degree, bits

    def parse_atom(self) -> Tuple[NcPoly, int, int]:
        tok = self._next()
        kind, text, pos = tok
        if kind == "sym" and text == "(":
            inner = self.parse_expr()
            self._expect_sym(")")
            return (inner, *_size(inner))
        if kind == "sym" and text == "[":
            left = self.parse_expr()
            self._expect_sym(",")
            right = self.parse_expr()
            self._expect_sym("]")
            (l_degree, l_bits), (r_degree, r_bits) = _size(left), _size(right)
            degree, bits = l_degree + r_degree, l_bits + r_bits
            self._bound(pos, degree, len(left.terms) * len(right.terms), bits)
            return commutator(left, right), degree, bits
        if kind == "sym" and text == "-":
            c = -self._rational_tail(_coefficient(*self._expect_nat()))
            return NcPoly.constant(c, self.d), 0, _bits(c)
        if kind == "num":
            c = self._rational_tail(_coefficient(text, pos))
            return NcPoly.constant(c, self.d), 0, _bits(c)
        if kind == "var":
            index = _numeral(text[1:], self.d.bit_length())
            if index is None or not 1 <= index <= self.d:
                raise NcParseError(f"variable index {text[1:]} out of range 1..{self.d}", pos)
            return NcPoly.var(index, self.d), 1, 1
        raise NcParseError("expected '(', '[', a number, or a variable", pos)

    def _bound(self, position: int, degree: int, terms: int, bits: int) -> None:
        """Refuse a product or power whose degree, term-count bound (the
        product of the factors' term counts) or coefficient bit length would
        exceed the parse limits.  Term-count bounds above 1 also add up over
        the whole text, so many bounded products cannot add up to unbounded
        work."""
        if terms > 1:
            self.work += terms
        if degree > MAX_PARSE_DEGREE:
            raise NcParseError(f"degree exceeds MAX_PARSE_DEGREE = {MAX_PARSE_DEGREE}", position)
        if max(terms, self.work) > MAX_PARSE_TERMS:
            raise NcParseError(f"term-count bound exceeds MAX_PARSE_TERMS = {MAX_PARSE_TERMS}", position)
        if bits > MAX_PARSE_BITS:
            raise NcParseError(f"coefficient bit length exceeds MAX_PARSE_BITS = {MAX_PARSE_BITS}", position)

    def _rational_tail(self, numerator: int) -> Fraction:
        tok = self._peek()
        if tok is not None and tok[0] == "sym" and tok[1] == "/":
            self.i += 1
            digits, pos = self._expect_nat()
            den = _coefficient(digits, pos)
            if den == 0:
                raise NcParseError("zero denominator", pos)
            return Fraction(numerator, den)
        return Fraction(numerator)


def _numeral(digits: str, bits: int) -> Optional[int]:
    """int(digits) when it fits in `bits` bits, else None.  A numeral with
    more significant digits than such a value has is not read
    (log10 2 < 0.30103)."""
    most = bits * 30103 // 100_000 + 1
    if len(digits) > most and len(digits.lstrip("0")) > most:
        return None
    value = _int_of(digits)
    return value if value.bit_length() <= bits else None


def _coefficient(digits: str, position: int) -> int:
    """A numerator or denominator, refused past MAX_PARSE_BITS."""
    value = _numeral(digits, MAX_PARSE_BITS)
    if value is None:
        raise NcParseError(f"coefficient bit length exceeds MAX_PARSE_BITS = {MAX_PARSE_BITS}", position)
    return value


def _bits(c: Fraction) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _size(p: NcPoly) -> Tuple[int, int]:
    """Degree (0 for constants) and largest coefficient bit length."""
    return max(map(len, p.terms), default=0), max(map(_bits, p.terms.values()), default=0)


def parse(text: str, d: int) -> NcPoly:
    """Parse the grammar above into a polynomial in d variables."""
    if d < 1:
        raise ValueError(f"variable count must be >= 1, got {d}")
    parser = _Parser(_tokenize(text), d, len(text))
    poly = parser.parse_expr()
    leftover = parser._peek()
    if leftover is not None:
        raise NcParseError(f"unexpected {leftover[1]!r}", leftover[2])
    return poly


def words_of_length(d: int, length: int) -> Iterator[Word]:
    """All words of exactly the given length, in lexicographic order."""
    if length == 0:
        yield ()
        return
    for tup in itertools.product(range(1, d + 1), repeat=length):
        yield tup
