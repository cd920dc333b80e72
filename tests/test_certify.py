import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncvanish import checks
from ncvanish.certify import (
    CompositionCoefficients,
    CompositionNotMember,
    DirectionalWitness,
    HomCombination,
    LeftCombination,
    MatrixWitness,
    NonHomogeneousGeneratorError,
    SpanCoefficients,
    TraceCombination,
    TraceNotMember,
    WeakWitness,
    WordRREF,
    _separating_functional,
    hom_ideal_membership,
    in_univariate_subalgebra,
    left_ideal_membership,
    span_membership,
    trace_membership,
    weak_basis,
)
from ncvanish.evaluate import classify_point, eval_poly, eval_poly_vector
from ncvanish.linalg import QMatrix
from ncvanish.poly import NcPoly, commutator, deglex_key, parse, words_of_length
from ncvanish.serialize import encode_certificate, make_document, verify_certificate

from conftest import random_nonzero_poly, random_poly


# ---------------------------------------------------------------------------
# the echelon store against a dense reference


def reference_insert(reduced, row, words):
    """Gauss-Jordan step over Fraction lists with columns `words`, greatest
    word first: `reduced` keeps monic, inter-reduced rows keyed by pivot
    word.  Returns False when `row` is in their span."""
    dense = reference_remainder(reduced, [row.get(w, Fraction(0)) for w in words], words)
    col = next((c for c, x in enumerate(dense) if x), None)
    if col is None:
        return False
    dense = [x / dense[col] for x in dense]
    for pivot, other in reduced.items():
        factor = other[col]
        reduced[pivot] = [x - factor * y for x, y in zip(other, dense)]
    reduced[words[col]] = dense
    return True


def reference_remainder(reduced, dense, words):
    for pivot, row in reduced.items():
        factor = dense[words.index(pivot)]
        if factor:
            dense = [x - factor * y for x, y in zip(dense, row)]
    return dense


@st.composite
def sparse_rows(draw):
    """(d, rows): up to 7 sparse rows over words of length <= 3 in d <= 2
    letters, and up to 2 more that are combinations of the first ones."""
    d = draw(st.integers(1, 2))
    words = [w for n in range(4) for w in words_of_length(d, n)]
    coeffs = st.sampled_from([Fraction(a, b) for a in (-3, -2, -1, 1, 2, 3) for b in (1, 2, 3)])
    row = st.dictionaries(st.sampled_from(words), coeffs, min_size=1, max_size=4)
    rows = draw(st.lists(row, min_size=1, max_size=7))
    for _ in range(draw(st.integers(0, 2))):
        combined = {}
        for source in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
            scale = draw(coeffs)
            for w, c in source.items():
                combined[w] = combined.get(w, Fraction(0)) + scale * c
        rows.append({w: c for w, c in combined.items() if c} or {(): Fraction(1)})
    return d, rows


@given(sparse_rows())
def test_word_rref_matches_dense_reference(case):
    d, rows = case
    words = sorted((w for n in range(4) for w in words_of_length(d, n)),
                   key=deglex_key, reverse=True)
    reference = {}
    kept = {k for k, row in enumerate(rows) if reference_insert(reference, row, words)}
    rref = WordRREF(enumerate(rows))
    assert {key for key, _, _ in rref.made.values()} == kept
    assert set(rref.rows) == set(reference)
    probes = rows + [{w: Fraction(1)} for w in words]
    for probe in probes:
        remainder, steps = rref.reduce(probe)
        dense = reference_remainder(reference, [probe.get(w, Fraction(0)) for w in words], words)
        assert remainder == {w: x for w, x in zip(words, dense) if x}
        for combination, stored in ((steps, rref.rows), (rref.combination(steps), rows)):
            rebuilt = dict(remainder)
            for k, c in combination.items():
                for w, x in stored[k].items():
                    rebuilt[w] = rebuilt.get(w, Fraction(0)) + c * x
            assert {w: x for w, x in rebuilt.items() if x} == probe
        if remainder:
            phi = _separating_functional(rref.rows.items(), remainder, d)
            value = lambda row: sum(c * phi.coeff(w) for w, c in row.items())
            assert all(value(row) == 0 for row in rows)
            assert value(probe) == 1


# ---------------------------------------------------------------------------
# weak basis


def test_weak_basis_absorbs_multiples():
    wb = weak_basis([parse("x1", 2), parse("x2*x1", 2)])
    assert wb.reduced == (parse("x1", 2),)


def test_weak_basis_extracts_unit():
    wb = weak_basis([parse("x1*x2 + 1", 2), parse("x1*x2", 2)])
    assert wb.reduced == (parse("1", 2),)
    # recorded expression reproduces the reduced element
    (expr,) = wb.expressions
    total = NcPoly.zero(2)
    for coeff_poly, gen in zip(expr, [parse("x1*x2 + 1", 2), parse("x1*x2", 2)]):
        total = total + coeff_poly * gen
    assert total == parse("1", 2)


def test_weak_basis_keeps_irreducible():
    wb = weak_basis([parse("x1*x1", 2)])
    assert wb.reduced == (parse("x1*x1", 2),)


def test_weak_basis_empty():
    assert weak_basis([]).reduced == ()


# ---------------------------------------------------------------------------
# left ideal membership


def test_left_membership_simple_cofactor():
    res = left_ideal_membership([parse("x1", 2)], parse("x2*x1", 2))
    assert isinstance(res, LeftCombination)
    assert res.cofactors == (parse("x2", 2),)


def test_left_membership_right_multiple_is_refused():
    # x1*x2*x1 + x1 = (x1*x2 + 1)*x1 lies in the right ideal, not the left one
    res = left_ideal_membership([parse("x1*x2 + 1", 2)], parse("x1*x2*x1 + x1", 2))
    assert isinstance(res, DirectionalWitness)
    # the witness is the point and vector: f(X)v = 0 and g(X)v != 0 there
    assert eval_poly_vector(parse("x1*x2 + 1", 2), res.point, res.vector).is_zero()
    assert not eval_poly_vector(parse("x1*x2*x1 + x1", 2), res.point, res.vector).is_zero()


def test_left_membership_multi_generator():
    f_list = [parse("x1", 2), parse("x2*x2 + 1", 2)]
    g = parse("x2*x1 + 3*x2*x2 + 3", 2)
    res = left_ideal_membership(f_list, g)
    assert isinstance(res, LeftCombination)
    total = NcPoly.zero(2)
    for p, f in zip(res.cofactors, f_list):
        total = total + p * f
    assert total == g


def test_left_membership_empty_generators():
    res = left_ideal_membership([], parse("x1", 2))
    assert isinstance(res, DirectionalWitness)
    assert not (eval_poly(parse("x1", 2), res.point) @ res.vector).is_zero()
    assert left_ideal_membership([], NcPoly.zero(2)).cofactors == ()


def test_left_membership_zero_target():
    res = left_ideal_membership([parse("x1", 2)], NcPoly.zero(2))
    assert isinstance(res, LeftCombination)


def test_left_membership_random_round_trips():
    rng = random.Random(53)
    for _ in range(40):
        d = rng.randint(1, 3)
        f_list = [random_nonzero_poly(rng, d, 2) for _ in range(rng.randint(1, 3))]
        cofactors = [random_poly(rng, d, 2) for _ in f_list]
        g = NcPoly.zero(d)
        for p, f in zip(cofactors, f_list):
            g = g + p * f
        res = left_ideal_membership(f_list, g)
        assert isinstance(res, LeftCombination)
        total = NcPoly.zero(d)
        for p, f in zip(res.cofactors, f_list):
            total = total + p * f
        assert total == g


def test_left_witness_shift_point():
    w = left_ideal_membership([parse("x1", 2)], parse("x2", 2))
    assert isinstance(w, DirectionalWitness)
    assert w.point.n == 2
    assert w.point.matrices[0] == QMatrix.zeros(2, 2)
    assert eval_poly_vector(parse("x1", 2), w.point, w.vector).is_zero()
    assert not eval_poly_vector(parse("x2", 2), w.point, w.vector).is_zero()


# ---------------------------------------------------------------------------
# homogeneous two-sided membership


def test_hom_membership_square_in_ideal():
    res = hom_ideal_membership([parse("x1", 2)], parse("x1*x1", 2))
    assert isinstance(res, HomCombination)
    total = NcPoly.zero(2)
    for pairs, f in zip(res.pairs, [parse("x1", 2)]):
        for left, right in pairs:
            total = total + left * f * right
    assert total == parse("x1*x1", 2)


def test_hom_membership_generator_not_reachable_from_square():
    res = hom_ideal_membership([parse("x1*x1", 2)], parse("x1", 2))
    assert isinstance(res, MatrixWitness)
    # witness: x1 evaluates to a nilpotent of square zero, so f vanishes, g does not
    val = eval_poly(parse("x1", 2), res.point)
    assert (val @ val) == QMatrix.zeros(res.point.n, res.point.n)
    assert eval_poly(parse("x1*x1", 2), res.point) == QMatrix.zeros(res.point.n, res.point.n)
    assert val != QMatrix.zeros(res.point.n, res.point.n)


def test_hom_membership_rejects_inhomogeneous_generator():
    with pytest.raises(NonHomogeneousGeneratorError):
        hom_ideal_membership([parse("x1 + 1", 2)], parse("x1", 2))


def test_hom_membership_random_round_trips():
    rng = random.Random(59)
    done = 0
    while done < 30:
        d = rng.randint(1, 3)
        f_list = []
        for _ in range(rng.randint(1, 2)):
            deg = rng.randint(1, 2)
            p = random_poly(rng, d, deg, terms=2)
            comp = NcPoly(d, {w: c for w, c in p.terms.items() if len(w) == deg})
            if not comp.is_zero():
                f_list.append(comp)
        if not f_list:
            continue
        g = NcPoly.zero(d)
        for f in f_list:
            left = random_poly(rng, d, 1, terms=2)
            right = random_poly(rng, d, 1, terms=2)
            g = g + left * f * right
        res = hom_ideal_membership(f_list, g)
        assert isinstance(res, HomCombination)
        total = NcPoly.zero(d)
        for pairs, f in zip(res.pairs, f_list):
            for left, right in pairs:
                total = total + left * f * right
        assert total == g
        done += 1


def test_hom_witness_dimension_bound():
    # witness dimension stays within the word-count bound for the cut degree
    f_list = [parse("x1*x1", 2)]
    g = parse("x1", 2)
    res = hom_ideal_membership(f_list, g)
    assert isinstance(res, MatrixWitness)
    d, delta = 2, g.degree
    assert res.point.n <= (d ** (delta + 1) - 1) // (d - 1)


# ---------------------------------------------------------------------------
# trace membership


def test_trace_cyclic_equivalence():
    res = trace_membership([parse("x1*x2", 2)], parse("x2*x1", 2))
    assert isinstance(res, TraceCombination)
    assert res.branch == "g-in-span"
    assert res.lambdas == (Fraction(1),)
    # identity checked exactly: g = sum of lambda*f plus commutators
    goal = NcPoly.zero(2)
    for lam, f in zip(res.lambdas, [parse("x1*x2", 2)]):
        goal = goal + lam * f
    for a, b in res.commutators:
        goal = goal + commutator(a, b)
    assert goal == parse("x2*x1", 2)


def test_trace_one_in_span_short_circuit():
    # 1 - [x1,x2] puts the unit in the trace span, so every target is covered
    f = parse("1", 2) - commutator(NcPoly.var(1, 2), NcPoly.var(2, 2))
    res = trace_membership([f], parse("x2*x2*x1", 2))
    assert isinstance(res, TraceCombination)
    assert res.branch == "one-in-span"
    goal = NcPoly.zero(2)
    for lam, fj in zip(res.lambdas, [f]):
        goal = goal + lam * fj
    for a, b in res.commutators:
        goal = goal + commutator(a, b)
    assert goal == parse("1", 2)


def test_trace_not_member():
    res = trace_membership([parse("x1", 2)], parse("x2", 2))
    assert isinstance(res, TraceNotMember)


def test_trace_random_round_trips():
    rng = random.Random(61)
    for _ in range(30):
        d = rng.randint(1, 3)
        f_list = [random_nonzero_poly(rng, d, 3) for _ in range(rng.randint(1, 3))]
        g = NcPoly.zero(d)
        for f in f_list:
            g = g + Fraction(rng.randint(-3, 3)) * f
        a = random_poly(rng, d, 2)
        b = random_poly(rng, d, 2)
        g = g + commutator(a, b)
        res = trace_membership(f_list, g)
        assert isinstance(res, TraceCombination)
        goal = NcPoly.zero(d)
        for lam, f in zip(res.lambdas, f_list):
            goal = goal + lam * f
        for u, v in res.commutators:
            goal = goal + commutator(u, v)
        target = parse("1", d) if res.branch == "one-in-span" else g
        assert goal == target


# ---------------------------------------------------------------------------
# span membership


def test_span_membership_exact_combination():
    f_list = [parse("x1", 2), parse("x2", 2)]
    g = parse("2*x1 - 3*x2", 2)
    res = span_membership(f_list, g, seed=0)
    assert isinstance(res, SpanCoefficients)
    total = NcPoly.zero(2)
    for c, f in zip(res.coefficients, f_list):
        total = total + c * f
    assert total == g


def test_span_membership_weak_witness():
    res = span_membership([parse("x1", 2)], parse("x1*x1", 2), seed=1)
    assert isinstance(res, WeakWitness)
    u, v = res.left, res.right
    # the witness is the point and the pair (u, v): u.f(X)v = 0, u.g(X)v != 0
    assert u.dot(eval_poly(parse("x1", 2), res.point) @ v) == 0
    assert u.dot(eval_poly(parse("x1*x1", 2), res.point) @ v) != 0


def test_span_random_round_trips():
    rng = random.Random(67)
    for _ in range(20):
        d = rng.randint(1, 3)
        f_list = [random_nonzero_poly(rng, d, 2) for _ in range(rng.randint(1, 3))]
        g = NcPoly.zero(d)
        for f in f_list:
            g = g + Fraction(rng.randint(-3, 3)) * f
        res = span_membership(f_list, g, seed=0)
        assert isinstance(res, SpanCoefficients)
        total = NcPoly.zero(d)
        for c, f in zip(res.coefficients, f_list):
            total = total + c * f
        assert total == g


# ---------------------------------------------------------------------------
# the survey's containments across engines: span within left ideal within
# two-sided ideal, span within span + commutators, and Z within Z_dir within
# Z_det, Z_dir within Z_weak for the witness points


def test_survey_containments_hold_across_engines():
    rng = random.Random(71)
    witnesses = {"left": 0, "span": 0, "hom": 0}
    started = time.perf_counter()
    for _ in range(40):
        d = rng.randint(1, 3)
        f_list = [random_nonzero_poly(rng, d, 2) for _ in range(rng.randint(1, 2))]
        g = NcPoly.zero(d)
        for f in f_list:
            g = g + Fraction(rng.randint(-3, 3)) * f
        assert isinstance(span_membership(f_list, g), SpanCoefficients)
        assert isinstance(left_ideal_membership(f_list, g), LeftCombination)
        assert isinstance(trace_membership(f_list, g), TraceCombination)

        other = random_nonzero_poly(rng, d, 3)
        left = left_ideal_membership(f_list, other)
        if isinstance(left, DirectionalWitness):
            result = classify_point(f_list, other, left.point, v=left.vector)
            assert result.in_directional and result.in_det_zero
            witnesses["left"] += 1
        span = span_membership(f_list, other)
        if isinstance(span, WeakWitness):
            assert classify_point(f_list, other, span.point, span.left, span.right).in_weak
            witnesses["span"] += 1

        homogeneous = [f.lead_part() for f in f_list]
        member = NcPoly.zero(d)
        for f in homogeneous:
            member = member + random_poly(rng, d, 1, terms=2) * f
        assert isinstance(left_ideal_membership(homogeneous, member), LeftCombination)
        assert isinstance(hom_ideal_membership(homogeneous, member), HomCombination)
        hom = hom_ideal_membership(homogeneous, other)
        if isinstance(hom, MatrixWitness):
            assert classify_point(homogeneous, other, hom.point).in_zero
            witnesses["hom"] += 1
    assert min(witnesses.values()) >= 20, witnesses
    assert time.perf_counter() - started < 2


# ---------------------------------------------------------------------------
# univariate subalgebra membership


def test_composition_recovery():
    res = in_univariate_subalgebra(parse("x1*x1 + 2*x1 + 1", 1), parse("x1", 1), seed=0)
    assert isinstance(res, CompositionCoefficients)
    assert res.coefficients == (Fraction(1), Fraction(2), Fraction(1))


def test_composition_of_nonlinear_inner():
    f = parse("x1*x2 + x2*x1", 2)
    g = f * f + Fraction(3) * f - NcPoly.one(2)
    res = in_univariate_subalgebra(g, f, seed=0)
    assert isinstance(res, CompositionCoefficients)
    total = NcPoly.zero(2)
    for i, c in enumerate(res.coefficients):
        total = total + c * f**i
    assert total == g


def test_composition_not_member_with_eigen_witness():
    res = in_univariate_subalgebra(parse("x2", 2), parse("x1", 2), seed=0)
    assert isinstance(res, CompositionNotMember)
    w = res.witness
    assert w is not None
    f_val = eval_poly(parse("x1", 2), w.point)
    g_val = eval_poly(parse("x2", 2), w.point)
    # eigenvector for f whose image under g leaves the eigenline
    assert f_val @ w.vector == w.eigenvalue * w.vector
    gv = g_val @ w.vector
    n = w.point.n
    parallel = all(
        gv.entries[i] * w.vector.entries[j] == gv.entries[j] * w.vector.entries[i]
        for i in range(n)
        for j in range(n)
    )
    assert not parallel


def test_composition_not_member_without_seed_verifies():
    # the separating functional alone is the evidence: zero on 1 and x1, 1 on x2
    res = in_univariate_subalgebra(parse("x2", 2), parse("x1", 2))
    assert isinstance(res, CompositionNotMember)
    assert res.witness is None
    doc = make_document({"d": 2, "inner": "x1", "target": "x2"}, encode_certificate(res))
    assert verify_certificate(doc).ok


def test_composition_constant_edge_cases():
    # constant target always lies in the subalgebra
    res = in_univariate_subalgebra(parse("5", 1), parse("x1", 1), seed=0)
    assert isinstance(res, CompositionCoefficients)
    assert res.coefficients == (Fraction(5),)
    # constant inner element only reaches constants
    res = in_univariate_subalgebra(parse("x1", 1), parse("2", 1), seed=0)
    assert isinstance(res, CompositionNotMember)


def test_composition_checkers_stream_their_powers():
    # x1^0 .. x1^2000 held at once as separate words take about 16 MB
    f, member, other = parse("x1", 2), parse("x1^2000 + 3*x1", 2), parse("x1^2000 + x2", 2)
    coefficients = [Fraction(0)] * 2001
    coefficients[1], coefficients[2000] = Fraction(3), Fraction(1)
    functional = in_univariate_subalgebra(other, f).functional
    tracemalloc.start()
    try:
        checks.composition(f, member, coefficients)
        checks.composition_not_member(f, other, functional)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_composition_random_round_trips():
    rng = random.Random(71)
    for _ in range(20):
        d = rng.randint(1, 2)
        f = random_nonzero_poly(rng, d, 2)
        if f.degree < 1:
            continue
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
        g = NcPoly.zero(d)
        for i, c in enumerate(coeffs):
            g = g + c * f**i
        res = in_univariate_subalgebra(g, f, seed=0)
        assert isinstance(res, CompositionCoefficients)
        total = NcPoly.zero(d)
        for i, c in enumerate(res.coefficients):
            total = total + c * f**i
        assert total == g
