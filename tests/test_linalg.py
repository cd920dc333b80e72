import math
import random
import sys
import time
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncvanish.linalg import (
    MAX_ENTRY_BITS,
    QMatrix,
    QVector,
    rank,
    rank_det_kernel,
    rational_roots,
    solve_linear,
    solve_span,
)
from ncvanish.lowrank import rational_reconstruct


def naive_det(rows):
    """Leibniz expansion; independent oracle for the fraction-free pivoting."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def random_matrix(rng, n, m):
    return QMatrix(
        [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)] for _ in range(n)]
    )


def test_det_matches_leibniz_oracle():
    rng = random.Random(23)
    for _ in range(20):
        A = random_matrix(rng, 5, 5)
        assert rank_det_kernel(A).det == naive_det([list(r) for r in A.entries])


def test_det_singular_and_identity():
    assert rank_det_kernel(QMatrix.identity(4)).det == 1
    assert rank_det_kernel(QMatrix([[1, 2], [2, 4]])).det == 0


def test_kernel_vectors_annihilated_and_rank_nullity():
    rng = random.Random(29)
    for _ in range(30):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        A = random_matrix(rng, n, m)
        info = rank_det_kernel(A)
        assert info.rank + len(info.kernel) == m
        for k in info.kernel:
            assert (A @ k).is_zero()
        if n == m:
            assert (info.det == 0) == (info.rank < n)


def test_rank_under_products():
    rng = random.Random(31)
    for _ in range(20):
        A = random_matrix(rng, 4, 3)
        B = random_matrix(rng, 3, 4)
        assert rank(A @ B) <= min(rank(A), rank(B))


def test_solve_linear_recovers_solution():
    rng = random.Random(37)
    for _ in range(30):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        A = random_matrix(rng, n, m)
        x = QVector([Fraction(rng.randint(-3, 3)) for _ in range(m)])
        rhs = A @ x
        rows = [QVector(list(r)) for r in A.entries]
        sol = solve_linear(rows, rhs)
        assert sol is not None
        assert A @ sol == rhs


def test_solve_linear_inconsistent_returns_none():
    rows = [QVector([1, 1]), QVector([2, 2])]
    rhs = QVector([1, 3])
    assert solve_linear(rows, rhs) is None


def test_solve_span_in_span_branch():
    basis = [QVector([1, 0, 1]), QVector([0, 1, 1])]
    target = QVector([2, 3, 5])
    res = solve_span(basis, target)
    assert res.in_span
    combo = QVector([Fraction(0)] * 3)
    for c, b in zip(res.coefficients, basis):
        combo = combo + c * b
    assert combo == target


def test_solve_span_functional_branch():
    basis = [QVector([1, 0, 0]), QVector([0, 1, 0])]
    target = QVector([0, 0, 1])
    res = solve_span(basis, target)
    assert not res.in_span
    phi = res.functional
    assert phi.dot(target) != 0
    for b in basis:
        assert phi.dot(b) == 0


def test_solve_span_empty_basis():
    target = QVector([1])
    res = solve_span([], target)
    assert not res.in_span
    assert res.functional.dot(target) != 0
    assert solve_span([], QVector([0])).in_span


def test_rational_reconstruct_round_trips():
    rng = random.Random(43)
    for _ in range(300):
        q = rng.randint(1, 10**4)
        p = rng.randint(-10**4, 10**4)
        exact = Fraction(p, q)
        got = rational_reconstruct(float(exact), max_den=10**6)
        assert got == exact


def test_rational_reconstruct_rejects_when_no_close_fraction():
    # sqrt(2) has no nearby fraction with denominator <= 50 within 1/(2*q*50)
    assert rational_reconstruct(2 ** 0.5, max_den=50) is None


def test_rational_reconstruct_literal_bound_small_den():
    # 0 satisfies |x - 0| < 1/(2*1*2) for x = 0.1234567, so it is accepted
    assert rational_reconstruct(0.1234567, max_den=2) == Fraction(0)


def test_rational_reconstruct_validation():
    with pytest.raises(ValueError):
        rational_reconstruct(0.5, max_den=0)
    with pytest.raises(ValueError):
        rational_reconstruct(float("nan"))
    with pytest.raises(ValueError):
        rational_reconstruct(float("inf"))


def test_rational_roots_known_polynomials():
    # (x - 1/2)(x + 3) = x^2 + 5/2 x - 3/2
    roots = rational_roots([Fraction(-3, 2), Fraction(5, 2), Fraction(1)])
    assert set(roots) == {Fraction(1, 2), Fraction(-3)}
    # x^2 + 1 has none
    assert rational_roots([Fraction(1), Fraction(0), Fraction(1)]) == []
    # x^3 - x = x(x-1)(x+1), root at zero handled
    roots = rational_roots([Fraction(0), Fraction(-1), Fraction(0), Fraction(1)])
    assert set(roots) == {Fraction(0), Fraction(1), Fraction(-1)}


def test_rational_roots_verified_by_evaluation():
    rng = random.Random(47)
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(2, 5))]
        if all(c == 0 for c in coeffs):
            continue
        for r in rational_roots(coeffs):
            value = sum(c * r**i for i, c in enumerate(coeffs))
            assert value == 0


def test_qmatrix_basics():
    A = QMatrix([[1, 2], [3, 4]])
    assert A.trace() == 5
    assert QMatrix.unit(2, 0, 1) == QMatrix([[0, 1], [0, 0]])
    assert (A - A) == QMatrix.zeros(2, 2)
    assert A @ QMatrix.identity(2) == A


def test_qvector_basics():
    u = QVector([1, 2])
    v = QVector([3, -1])
    assert u.dot(v) == 1
    assert (u + v) == QVector([4, 1])
    assert (u - u).is_zero()
    assert QVector.unit(3, 1) == QVector([0, 1, 0])
    assert Fraction(1, 2) * u == QVector([Fraction(1, 2), 1])


# ---------------------------------------------------------------------------
# Entry decoding
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text", ["3_0", " 3 ", "+3", "3.0", "3.", "-0012", "\n4\t", "٣", "1e3",
                                  "1E-3", " 1/2 ", "-1_0/2_0", "1.5e-3", ".5", "0e0"])
def test_entries_decode_as_fraction_reads_them(text):
    assert QVector([text])[0] == Fraction(text)
    assert QMatrix([[text]])[0][0] == Fraction(text)


@pytest.mark.parametrize("text", ["1/0", "", "-", "1__0", "_1", "nan", "inf", "0x10", "1/2/3"])
def test_entries_fraction_refuses_are_refused(text):
    with pytest.raises(ValueError):
        QVector([text])


@pytest.mark.parametrize("text", ["1e10000000", "0e99999999999999999999", "1e-10000000",
                                  "1." + "0" * 40_000, "9" * 40_000,
                                  "1e1" + "0" * 5000])
def test_entries_past_max_entry_bits_are_refused_before_they_are_built(text):
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"MAX_ENTRY_BITS = {MAX_ENTRY_BITS}"):
        QMatrix([[text]])
    assert time.perf_counter() - started < 0.1


def test_entries_within_max_entry_bits_are_built():
    assert QVector(["1e30000"])[0] == 10**30000
    assert QVector(["-2/" + "1" * 4000])[0] == Fraction(-2, int("1" * 4000))


def test_entries_past_the_int_str_digit_limit_round_trip():
    # str() and int() refuse more than sys.get_int_max_str_digits() digits
    limit = sys.get_int_max_str_digits()
    big = 7**30000  # 25,353 digits, 84,221 bits
    for value in (big, -big, Fraction(2, big), Fraction(-big, 3)):
        m = QMatrix([[value, 1]])
        assert QMatrix(m.to_json()) == m
        assert QVector(QVector([value]).to_json())[0] == value
    text = QVector([-big]).to_json()[0]
    assert len(text) == 25_354 and text.startswith("-87") and text.endswith("001")
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(ValueError, match=f"MAX_ENTRY_BITS = {MAX_ENTRY_BITS}"):
        QVector([Fraction(1, 2**MAX_ENTRY_BITS)]).to_json()


# ---------------------------------------------------------------------------
# Properties of the numerator-over-denominator representation, against
# plain Fraction lists
# ---------------------------------------------------------------------------

rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
)


def lists_of(rows, cols):
    return st.lists(st.lists(rationals, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


shapes = st.tuples(st.integers(0, 4), st.integers(0, 4))
matrices = st.one_of(shapes.flatmap(lambda s: lists_of(*s)),
                     shapes.map(lambda s: [[Fraction(0)] * s[1] for _ in range(s[0])]))
vectors = st.integers(0, 5).flatmap(lambda n: st.lists(rationals, min_size=n, max_size=n))


def canonical(x):
    numerators = [a for row in x.num for a in row] if isinstance(x, QMatrix) else list(x.num)
    return x.den > 0 and math.gcd(x.den, *numerators) == 1


def as_lists(m):
    return [list(row) for row in m.entries]


@given(shapes.flatmap(lambda s: st.tuples(lists_of(*s), lists_of(*s))), rationals)
def test_elementwise_operations_match_fraction_lists(pair, c):
    a, b = pair
    A, B = QMatrix(a), QMatrix(b)
    for M, expected in ((A + B, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]),
                        (A - B, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]),
                        (c * A, [[c * x for x in r] for r in a]),
                        (A * c, [[c * x for x in r] for r in a]),
                        (-A, [[-x for x in r] for r in a])):
        assert canonical(M) and as_lists(M) == expected
        assert M == QMatrix(expected) and hash(M) == hash(QMatrix(expected))
    assert (A - A).is_zero() and A - A == QMatrix.zeros(A.rows, A.cols)
    assert A.is_zero() == all(x == 0 for r in a for x in r)


@given(st.tuples(st.integers(1, 4), st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda s: st.tuples(lists_of(s[0], s[1]), lists_of(s[1], s[2]),
                        st.lists(rationals, min_size=s[1], max_size=s[1]))))
def test_products_match_fraction_lists(triple):
    a, b, v = triple
    A, B, V = QMatrix(a), QMatrix(b), QVector(v)
    if b:  # a matrix without rows has no width, so it multiplies nothing
        product = A @ B
        expected = [[sum((r[k] * b[k][j] for k in range(len(b))), Fraction(0))
                     for j in range(len(b[0]))] for r in a]
        assert canonical(product) and product == QMatrix(expected)
    image = A @ V
    assert canonical(image) and list(image) == [sum((x * y for x, y in zip(r, v)), Fraction(0))
                                                for r in a]


@given(st.integers(0, 4).flatmap(lambda n: lists_of(n, n)))
def test_trace_matches_fraction_lists(a):
    assert QMatrix(a).trace() == sum((a[i][i] for i in range(len(a))), Fraction(0))


@given(vectors.flatmap(lambda u: st.tuples(st.just(u), st.lists(rationals, min_size=len(u),
                                                                 max_size=len(u)))), rationals)
def test_vector_operations_match_fraction_lists(pair, c):
    u, v = pair
    U, V = QVector(u), QVector(v)
    assert U.dot(V) == sum((x * y for x, y in zip(u, v)), Fraction(0))
    for W, expected in ((U + V, [x + y for x, y in zip(u, v)]),
                        (U - V, [x - y for x, y in zip(u, v)]),
                        (c * U, [c * x for x in u]),
                        (U * c, [c * x for x in u])):
        assert canonical(W) and list(W) == expected
        assert W == QVector(expected) and hash(W) == hash(QVector(expected))
    assert (U - U).is_zero() and U - U == QVector.zero(len(u))


@given(matrices)
def test_equal_values_have_equal_storage(a):
    # the same values from other spellings: strings, and a scaling there and back
    A = QMatrix(a)
    for other in (QMatrix([[str(x) for x in r] for r in a]), Fraction(1, 6) * (6 * A),
                  (A + A) * Fraction(1, 2)):
        assert canonical(other) and other == A and hash(other) == hash(A)


def reference_rank_det_kernel(a, cols):
    """Gauss-Jordan over Fraction lists: rank, det, and per free column the
    kernel vector with 1 there and 0 at the other free columns."""
    rows = [list(r) for r in a]
    pivots, det_value = [], Fraction(1)
    for c in range(cols):
        r = len(pivots)
        pick = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pick is None:
            det_value = Fraction(0)
            continue
        if pick != r:
            rows[r], rows[pick] = rows[pick], rows[r]
            det_value = -det_value
        det_value *= rows[r][c]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    kernel = []
    for free in (c for c in range(cols) if c not in pivots):
        x = [Fraction(0)] * cols
        x[free] = Fraction(1)
        for r, c in enumerate(pivots):
            x[c] = -rows[r][free]
        kernel.append(x)
    square = len(a) == cols
    return len(pivots), (det_value if len(pivots) == cols else Fraction(0)) if square else None, kernel


@given(st.one_of(matrices, matrices.map(lambda a: a + [[-2 * x for x in r] for r in a[:1]])))
def test_rank_det_kernel_matches_fraction_elimination(a):
    A = QMatrix(a)
    info = rank_det_kernel(A)
    rank_value, det_value, kernel = reference_rank_det_kernel(a, A.cols)
    assert info.rank == rank_value == rank(A) and info.det == det_value
    assert [list(k) for k in info.kernel] == kernel
    assert all(canonical(k) and (A @ k).is_zero() for k in info.kernel)


def reference_solve_linear(a, b):
    """Gauss-Jordan over Fraction lists: the solution of a x = b with free
    variables 0, or None when the system is inconsistent."""
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [list(a[i]) + [b[i]] for i in range(m)]
    pivots = []
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
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
    if any(aug[i][n] != 0 for i in range(r, m)):
        return None
    x = [Fraction(0)] * n
    for row, col in pivots:
        x[col] = aug[row][n]
    return x


@st.composite
def linear_systems(draw):
    """(a, b) as Fraction lists, empty shapes included; b is random or a's
    image of a random x, and a may gain -2 times its first row, with b's
    entry following it (rank-deficient) or off by 1 (inconsistent)."""
    m, n = draw(shapes)
    a = draw(lists_of(m, n))
    if draw(st.booleans()):
        x = draw(st.lists(rationals, min_size=n, max_size=n))
        b = [sum((p * q for p, q in zip(row, x)), Fraction(0)) for row in a]
    else:
        b = draw(st.lists(rationals, min_size=m, max_size=m))
    if a and draw(st.booleans()):
        a = a + [[-2 * p for p in a[0]]]
        b = b + [-2 * b[0] + draw(st.sampled_from([0, 1]))]
    return a, b


@given(linear_systems())
def test_solve_linear_matches_gauss_jordan(system):
    a, b = system
    solution = solve_linear([QVector(row) for row in a], QVector(b))
    assert (None if solution is None else list(solution)) == reference_solve_linear(a, b)
    assert solution is None or canonical(solution)
