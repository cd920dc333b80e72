import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncvanish import evaluate
from ncvanish.evaluate import (
    MatTuple,
    ResourceCapError,
    classify_point,
    eval_poly,
    eval_poly_vector,
    nonvanishing_point,
    pi_test,
    prefix_products,
    random_tuple,
    weyl_pair,
)
from ncvanish.factorization import CPoly, _substitute
from ncvanish.linalg import QMatrix, QVector
from ncvanish.lowrank import eval_poly_float
from ncvanish.poly import NcPoly, commutator, parse
from ncvanish.serialize import save_document

from conftest import random_poly, standard_poly


def test_evaluation_is_a_homomorphism():
    rng = random.Random(3)
    for _ in range(40):
        d = rng.randint(1, 3)
        n = rng.randint(1, 3)
        X = random_tuple(rng, n, d)
        f = random_poly(rng, d, 3)
        g = random_poly(rng, d, 3)
        assert eval_poly(f + g, X) == eval_poly(f, X) + eval_poly(g, X)
        assert eval_poly(f * g, X) == eval_poly(f, X) @ eval_poly(g, X)
    one = parse("1", 2)
    assert eval_poly(one, random_tuple(rng, 3, 2)) == QMatrix.identity(3)


def test_eval_poly_vector_matches_full_product():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 4)
        X = random_tuple(rng, n, 2)
        v = QVector([rng.randint(-5, 5) for _ in range(n)])
        f = random_poly(rng, 2, 4, terms=5)
        assert eval_poly_vector(f, X, v) == eval_poly(f, X) @ v


def test_long_words_evaluate():
    # a word of 3000 letters is deeper than the interpreter's recursion limit
    f = parse("x1^3000 - x2*x1^2999", 2)
    X = MatTuple([QMatrix([[0, 1], [1, 0]]), QMatrix([[2, 0], [0, 3]])])
    v = QVector([1, 5])
    tracemalloc.start()
    try:
        value = eval_poly(f, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # only the prefixes a later word starts from are kept, not every prefix
    assert peak < 8 * 2**20
    assert value == QMatrix([[1, -2], [-3, 1]])
    assert eval_poly_vector(f, X, v) == value @ v
    float_point = [np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[2.0, 0.0], [0.0, 3.0]])]
    assert np.array_equal(eval_poly_float(f, float_point), [[1, -2], [-3, 1]])
    assert pi_test(parse("x1^3000*x2 - x2*x1^3000", 2), 1)


def test_prefix_products_steps_each_distinct_prefix_once():
    words = [(1, 2, 1), (1, 2), (2,), (1, 2, 2), (), (2, 1, 1)]
    stepped = []

    def step(value, letter):
        stepped.append(value + (letter,))
        return value + (letter,)

    assert list(prefix_products(words, (), step)) == [(word, word) for word in sorted(words)]
    assert sorted(stepped) == sorted({w[:k] for w in words for k in range(1, len(w) + 1)})


def test_weyl_pair_commutation_defect():
    f = parse("1", 2) - commutator(NcPoly.var(1, 2), NcPoly.var(2, 2))
    for n in (2, 3, 5):
        val = eval_poly(f, weyl_pair(n))
        assert val == Fraction(n) * QMatrix.unit(n, n - 1, n - 1)


def test_standard_poly():
    s2 = standard_poly(2)
    assert s2 == commutator(NcPoly.var(1, 2), NcPoly.var(2, 2))
    s3 = standard_poly(3)
    assert s3.d == 3
    assert len(list(s3.support())) == 6


def test_pi_test_small_cases():
    s2 = standard_poly(2)
    assert pi_test(s2, 1)  # 1x1 matrices commute
    assert not pi_test(s2, 2)
    assert pi_test(NcPoly.zero(2), 3)
    assert not pi_test(parse("1", 1), 1)


def test_nonvanishing_point():
    assert nonvanishing_point(standard_poly(4), 2) is None
    for f, n in ((standard_poly(2), 2), (standard_poly(3), 2), (parse("1", 1), 1)):
        point = nonvanishing_point(f, n)
        assert (point.n, point.d) == (n, f.d)
        assert not eval_poly(f, point).is_zero()
    # x1^2 - x1 vanishes at 0 and 1, so its single entry is fixed to 2
    assert nonvanishing_point(parse("x1^2 - x1", 1), 1) == MatTuple([QMatrix([[2]])])


def reference_nonzero_entry(f, n):
    """First nonzero entry, in row-major order, of f expanded as products of
    generic matrices of CPoly entries (entry x_{v,(i,j)} is variable
    v*n*n + i*n + j); None when every entry is zero."""
    generic = [[[CPoly.variable(v * n * n + i * n + j) for j in range(n)] for i in range(n)]
               for v in range(f.d)]
    identity = [[CPoly.constant(int(i == j)) for j in range(n)] for i in range(n)]
    value = {}
    for word in f.terms:
        m = identity
        for letter in word:
            m = [[sum((m[i][k] * generic[letter - 1][k][j] for k in range(n)), CPoly())
                  for j in range(n)] for i in range(n)]
        value[word] = m
    entries = (sum((value[w][i][j] * c for w, c in f.terms.items()), CPoly())
               for i in range(n) for j in range(n))
    return next((entry for entry in entries if not entry.is_zero()), None)


def reference_point(f, n):
    """The point of the reference entry: its variables fixed in id order, each
    to the least integer 0, 1, .. that keeps the entry nonzero; the rest 0."""
    entry = reference_nonzero_entry(f, n)
    if entry is None:
        return None
    terms, values = entry.terms, {}
    for var in entry.variables():
        value = 0
        while True:
            fixed = {}
            for mono, c in terms.items():
                power = mono.count(var)
                if power and not value:
                    continue
                rest = tuple(v for v in mono if v != var)
                fixed[rest] = fixed.get(rest, 0) + c * value**power
            fixed = {mono: c for mono, c in fixed.items() if c}
            if fixed:
                break
            value += 1
        terms, values[var] = fixed, value
    return MatTuple([
        QMatrix([[values.get(v * n * n + i * n + j, 0) for j in range(n)] for i in range(n)])
        for v in range(f.d)
    ])


@st.composite
def pi_cases(draw):
    """(f, n): d <= 3, n <= 3, words of length <= 4 with rational
    coefficients, the constant among them.  A case is a commutator [a, b] of
    words plus one of: another commutator (the sum is an identity on 1x1
    matrices), a multiple of c^2 - c (zero where the word c is 0 or 1, so
    points need entries past 1), or a random polynomial."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    coefficients = st.fractions(-20, 20, max_denominator=12).filter(bool)
    nonempty = st.lists(st.integers(1, d), min_size=1, max_size=2).map(tuple)
    a, b, c = (NcPoly(d, {draw(nonempty): 1}) for _ in range(3))
    f = commutator(a, b) * draw(coefficients)
    kind = draw(st.sampled_from(["commutators", "quadratic", "random"]))
    if kind == "commutators":
        return f + commutator(c, a) * draw(coefficients), n
    if kind == "quadratic":
        return f + (c * c - c) * draw(coefficients), n
    words = st.lists(st.integers(1, d), max_size=4).map(tuple)
    return f + NcPoly(d, draw(st.dictionaries(words, coefficients, max_size=4))), n


@given(pi_cases())
def test_path_sums_match_generic_matrix_expansion(case):
    f, n = case
    expected = reference_point(f, n)
    assert pi_test(f, n) is (expected is None)
    assert nonvanishing_point(f, n) == expected


def test_amitsur_levitzki_table():
    # s_2n is an identity of n x n matrices and s_(2n-1) is not
    for n in (1, 2, 3):
        assert pi_test(standard_poly(2 * n), n)
        f = standard_poly(2 * n - 1)
        assert not pi_test(f, n)
        assert not eval_poly(f, nonvanishing_point(f, n)).is_zero()


def test_pi_test_resource_cap(monkeypatch):
    monkeypatch.setattr(evaluate, "PI_MAX_OPS", 10)
    with pytest.raises(ResourceCapError):
        pi_test(standard_poly(4), 3)


def test_mat_tuple_json_round_trip(tmp_path):
    rng = random.Random(21)
    X = random_tuple(rng, 3, 2)
    path = tmp_path / "point.json"
    save_document(X.to_json(), str(path))
    Y = MatTuple.load(str(path))
    assert X == Y
    assert hash(X) == hash(Y)
    assert MatTuple.from_json(X.to_json()) == X


def test_mat_tuple_validation():
    with pytest.raises(ValueError):
        MatTuple([])  # needs at least one matrix
    with pytest.raises(ValueError):
        MatTuple([QMatrix.identity(2), QMatrix.identity(3)])  # mismatched sizes
    with pytest.raises(ValueError):
        MatTuple([QMatrix.zeros(2, 3)])  # square only


def test_random_tuple_seeded_determinism():
    a = random_tuple(random.Random(99), 3, 2)
    b = random_tuple(random.Random(99), 3, 2)
    assert a == b


def test_classify_point_memberships():
    # X1 = 0 kills f = x1; g = x2 evaluates to something invertible
    zero = QMatrix.zeros(2, 2)
    point = MatTuple([zero, QMatrix.identity(2)])
    f = [parse("x1", 2)]
    g = parse("x2", 2)
    pc = classify_point(f, g, point)
    assert pc.in_zero
    assert pc.in_det_zero
    assert pc.in_trace_zero
    assert pc.in_directional is None and pc.in_weak is None
    assert pc.f_dets == (0,) and pc.f_traces == (0,) and pc.f_ranks == (0,)
    assert (pc.g_det, pc.g_trace, pc.g_rank) == (1, 2, 2)


def test_classify_point_directional_vectors():
    # f(X) v = 0 with explicit direction vectors
    point = MatTuple([QMatrix([[0, 1], [0, 0]]), QMatrix.identity(2)])
    f = [parse("x1", 2)]
    g = parse("x2", 2)
    u = QVector([1, 0])
    v = QVector([1, 0])
    pc = classify_point(f, g, point, u=u, v=v)
    assert pc.in_directional and pc.in_weak
    assert not pc.in_zero
    assert pc.in_det_zero


def test_cpoly_arithmetic_and_substitution():
    x = CPoly.variable(0)
    y = CPoly.variable(1)
    p = x * y + 2 * x + CPoly.constant(Fraction(3))
    assert p.total_degree() == 2
    assert set(p.variables()) == {0, 1}
    val = _substitute(_substitute(p, 0, CPoly.constant(Fraction(1, 2))),
                      1, CPoly.constant(Fraction(4)))
    assert val == CPoly.constant(Fraction(1, 2) * 4 + 2 * Fraction(1, 2) + 3)
    assert (p - p).is_zero()
    assert CPoly.constant(Fraction(0)).is_zero()
