"""End-to-end acceptance suite.

Each test prints one PASS line with its elapsed time; a failed assertion is
the corresponding FAIL. Budgets are asserted, not aspirational.
"""

import random
import time
from fractions import Fraction
from itertools import product

from ncvanish.certify import (
    CompositionCoefficients,
    DirectionalWitness,
    HomCombination,
    InternalInconsistencyError,
    LeftCombination,
    MatrixWitness,
    SpanCoefficients,
    TraceCombination,
    WeakWitness,
    hom_ideal_membership,
    in_univariate_subalgebra,
    left_ideal_membership,
    span_membership,
    trace_membership,
)
from ncvanish.evaluate import (
    eval_poly,
    eval_poly_vector,
    pi_test,
    random_tuple,
    weyl_pair,
)
from ncvanish.factorization import AssocYes, factor, stable_assoc
from ncvanish.linalg import QMatrix, rank
from ncvanish.lowrank import SearchConfig, lowrank_search, verify_reference_witnesses
from ncvanish.poly import NcPoly, commutator, parse, words_of_length

from conftest import random_nonzero_poly, random_poly, standard_poly


def report(capsys, number, name, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"
    with capsys.disabled():
        print(f"ACCEPT {number:02d} {name}: PASS ({elapsed:.2f}s)")


def defect_poly() -> NcPoly:
    return parse("1", 2) - commutator(NcPoly.var(1, 2), NcPoly.var(2, 2))


def random_homogeneous(rng: random.Random, d: int, deg: int, terms: int = 2) -> NcPoly:
    words = list(words_of_length(d, deg))
    out: dict = {}
    for _ in range(terms):
        w = words[rng.randrange(len(words))]
        c = rng.choice([-2, -1, 1, 2])
        out[w] = out.get(w, Fraction(0)) + c
    return NcPoly(d, out)


def test_acceptance_01_truncated_pair_rank_identity(capsys):
    started = time.perf_counter()
    f = defect_poly()
    for n in range(2, 51):
        value = eval_poly(f, weyl_pair(n))
        assert value == Fraction(n) * QMatrix.unit(n, n - 1, n - 1)
        assert rank(value) == 1
    report(capsys, 1, "truncated-pair-rank-identity", started, 10.0)


def test_acceptance_02_reference_witnesses(capsys):
    started = time.perf_counter()
    summary = verify_reference_witnesses()
    assert summary["ranks"] == {3: 1, 4: 1}
    assert summary["identity_on_2x2"] is True
    report(capsys, 2, "reference-witnesses", started, 30.0)


def test_acceptance_03_alternating_identity_checks(capsys):
    started = time.perf_counter()
    assert pi_test(standard_poly(4), 2) is True
    assert pi_test(standard_poly(4), 3) is False
    assert pi_test(standard_poly(3), 2) is False
    report(capsys, 3, "alternating-identity-checks", started, 60.0)


def test_acceptance_04_left_membership_self_certification(capsys):
    started = time.perf_counter()
    rng = random.Random(202404)
    inconsistencies = 0
    for instance in range(200):
        d = rng.randint(1, 3)
        f_list = [random_nonzero_poly(rng, d, 2) for _ in range(rng.randint(1, 3))]
        cofactors = [random_poly(rng, d, 2) for _ in f_list]
        g = NcPoly.zero(d)
        for p, f in zip(cofactors, f_list):
            g = g + p * f
        perturbed = instance >= 100
        if perturbed:
            w = tuple(rng.randint(1, d) for _ in range(rng.randint(1, 4)))
            g = g + Fraction(rng.choice([-2, -1, 1, 2])) * NcPoly.from_word(w, d)
        try:
            res = left_ideal_membership(f_list, g)
        except InternalInconsistencyError:
            inconsistencies += 1
            continue
        if isinstance(res, LeftCombination):
            total = NcPoly.zero(d)
            for p, f in zip(res.cofactors, f_list):
                total = total + p * f
            assert total == g
        else:
            assert perturbed, "constructed member came back as a witness"
            assert isinstance(res, DirectionalWitness)
            for f in f_list:
                assert eval_poly_vector(f, res.point, res.vector).is_zero()
            assert not eval_poly_vector(g, res.point, res.vector).is_zero()
    assert inconsistencies == 0
    report(capsys, 4, "left-membership-self-certification", started, 120.0)


def test_acceptance_05_homogeneous_membership_suite(capsys):
    started = time.perf_counter()

    # a 2-nilpotent witness separates x1 from the ideal generated by x1^2
    res = hom_ideal_membership([parse("x1*x1", 2)], parse("x1", 2))
    assert isinstance(res, MatrixWitness)
    n = res.point.n
    x1_val = eval_poly(parse("x1", 2), res.point)
    assert eval_poly(parse("x1*x1", 2), res.point) == QMatrix.zeros(n, n)
    assert x1_val != QMatrix.zeros(n, n)
    # jointly nilpotent: every product of length n of the point's matrices dies
    for picks in product(range(res.point.d), repeat=n):
        word_value = QMatrix.identity(n)
        for i in picks:
            word_value = word_value @ res.point.matrices[i]
        assert word_value == QMatrix.zeros(n, n)

    res = hom_ideal_membership([parse("x1", 2)], parse("x1*x1", 2))
    assert isinstance(res, HomCombination)

    rng = random.Random(505)
    witness_dims = [(2, 1, n)]
    for _ in range(100):
        d = rng.randint(1, 3)
        f_list = [random_homogeneous(rng, d, rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
        f_list = [f for f in f_list if not f.is_zero()]
        if not f_list:
            continue
        g = NcPoly.zero(d)
        for f in f_list:
            g = g + random_poly(rng, d, 1, terms=2) * f * random_poly(rng, d, 1, terms=2)
        res = hom_ideal_membership(f_list, g)
        assert isinstance(res, HomCombination)
        total = NcPoly.zero(d)
        for pairs, f in zip(res.pairs, f_list):
            for left, right in pairs:
                total = total + left * f * right
        assert total == g

        # also exercise the refusal path to harvest witness dimensions
        probe = g + NcPoly.from_word((1,) * rng.randint(1, 2), d)
        probe_res = hom_ideal_membership(f_list, probe)
        if isinstance(probe_res, MatrixWitness):
            witness_dims.append((d, probe.degree, probe_res.point.n))
            for f in f_list:
                assert eval_poly(f, probe_res.point) == QMatrix.zeros(
                    probe_res.point.n, probe_res.point.n
                )
            assert eval_poly(probe, probe_res.point) != QMatrix.zeros(
                probe_res.point.n, probe_res.point.n
            )

    assert witness_dims, "no witnesses harvested"
    for d, delta, dim in witness_dims:
        bound = (d ** (delta + 1) - 1) // (d - 1) if d > 1 else delta + 1
        assert dim <= bound
    report(capsys, 5, "homogeneous-membership-suite", started, 120.0)


def test_acceptance_06_trace_membership_suite(capsys):
    started = time.perf_counter()
    rng = random.Random(606)
    successes = []

    # the unit is in the trace span of the commutation defect, whatever g is
    defect = defect_poly()
    for g in [parse("x2*x2*x1", 2), parse("x1", 2), random_nonzero_poly(rng, 2, 3)]:
        res = trace_membership([defect], g)
        assert isinstance(res, TraceCombination)
        assert res.branch == "one-in-span"
        successes.append(([defect], g, res))

    res = trace_membership([parse("x1*x2", 2)], parse("x2*x1", 2))
    assert isinstance(res, TraceCombination)
    assert res.branch == "g-in-span"
    assert res.lambdas == (Fraction(1),)
    successes.append(([parse("x1*x2", 2)], parse("x2*x1", 2), res))

    for f_list, g, res in successes:
        d = g.d
        target = parse("1", d) if res.branch == "one-in-span" else g
        # exact identity, and the commutator-free residual is cyclically zero
        goal = NcPoly.zero(d)
        lam_only = NcPoly.zero(d)
        for lam, f in zip(res.lambdas, f_list):
            goal = goal + lam * f
            lam_only = lam_only + lam * f
        for a, b in res.commutators:
            goal = goal + commutator(a, b)
        assert goal == target
        assert (target - lam_only).cyclic_reduce().is_zero()

        # trace consistency at 100 exact sample points
        for _ in range(100):
            n = rng.randint(1, 3)
            X = random_tuple(rng, n, d)
            lam_trace = Fraction(0)
            for lam, f in zip(res.lambdas, f_list):
                lam_trace += lam * eval_poly(f, X).trace()
            if res.branch == "one-in-span":
                assert lam_trace == n
            else:
                assert lam_trace == eval_poly(g, X).trace()
    report(capsys, 6, "trace-membership-suite", started, 60.0)


def test_acceptance_07_weak_zero_suite(capsys):
    started = time.perf_counter()
    rng = random.Random(707)
    for _ in range(100):
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

    triple = [parse("x1", 2), parse("x2", 2), parse("x1*x1", 2)]
    for target_index in range(3):
        g = triple[target_index]
        basis = [p for i, p in enumerate(triple) if i != target_index]
        found = span_membership(basis, g)
        assert isinstance(found, WeakWitness), "independent triple collapsed"
        assert found.point.n <= 3
        u, v = found.left, found.right
        for f in basis:
            assert u.dot(eval_poly(f, found.point) @ v) == 0
        assert u.dot(eval_poly(g, found.point) @ v) != 0
    report(capsys, 7, "weak-zero-suite", started, 120.0)


def test_acceptance_08_factorization_and_association(capsys):
    started = time.perf_counter()
    opts = factor(parse("x1*x2*x1 + x1", 2))
    got = {(o.unit, tuple(str(f) for f in o.factors)) for o in opts}
    assert got == {
        (Fraction(1), ("x1", "1 + x2*x1")),
        (Fraction(1), ("1 + x1*x2", "x1")),
    }
    assert all(e.exhaustive for o in opts for e in o.evidence)

    p = parse("x1*x2 + 1", 2)
    q = parse("x2*x1 + 1", 2)
    res = stable_assoc(p, q)
    assert isinstance(res, AssocYes)

    x1, x2 = NcPoly.var(1, 2), NcPoly.var(2, 2)
    one, zero = NcPoly.one(2), NcPoly.zero(2)
    expected_p = ((x1, one + x1 * x2), (-one, -x2))
    expected_q = ((-x2, -one), (one + x1 * x2, x1))
    assert res.p_mat == expected_p
    assert res.q_mat == expected_q

    def mat2_mul(A, B):
        return tuple(
            tuple(sum((A[i][k] * B[k][j] for k in range(2)), zero) for j in range(2))
            for i in range(2)
        )

    left = mat2_mul(mat2_mul(expected_p, ((q, zero), (zero, one))), expected_q)
    assert left == ((p, zero), (zero, one))
    report(capsys, 8, "factorization-and-association", started, 120.0)


def test_acceptance_09_univariate_subalgebra_recovery(capsys):
    started = time.perf_counter()
    rng = random.Random(909)
    done = 0
    while done < 50:
        d = rng.randint(1, 2)
        f = random_nonzero_poly(rng, d, 3)
        if f.degree < 1:
            continue
        m = rng.randint(0, 3)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(m + 1)]
        while coeffs[m] == 0:
            coeffs[m] = Fraction(rng.randint(-3, 3))
        g = NcPoly.zero(d)
        for i, c in enumerate(coeffs):
            g = g + c * f**i
        res = in_univariate_subalgebra(g, f, seed=0)
        assert isinstance(res, CompositionCoefficients)
        assert res.coefficients == tuple(coeffs)
        done += 1
    report(capsys, 9, "univariate-subalgebra-recovery", started, 60.0)


def test_acceptance_10_lowrank_search_with_exactification(capsys):
    started = time.perf_counter()
    cfg = SearchConfig(target_rank=1, restarts=20, seed=0)
    res = lowrank_search(defect_poly(), 4, cfg)
    assert res.objective < 1e-12
    assert res.exact is not None
    point, r = res.exact
    assert r <= 1
    assert rank(eval_poly(defect_poly(), point)) == r
    assert point.n == 4
    report(capsys, 10, "lowrank-search-with-exactification", started, 120.0)


def test_acceptance_11_rank_bound_for_ideal_members(capsys):
    started = time.perf_counter()
    rng = random.Random(1111)
    violations = 0
    for _ in range(100):
        d = rng.randint(1, 2)
        f_list = [random_nonzero_poly(rng, d, 2, terms=2) for _ in range(rng.randint(1, 3))]
        K = rng.randint(1, 3)
        g = NcPoly.zero(d)
        for _ in range(K):
            j = rng.randrange(len(f_list))
            p = random_poly(rng, d, 2, terms=2)
            q = random_poly(rng, d, 2, terms=2)
            g = g + p * f_list[j] * q
        for _ in range(100):
            n = rng.choice([1, 1, 2, 2, 3])
            X = random_tuple(rng, n, d)
            g_rank = rank(eval_poly(g, X))
            f_rank = max(rank(eval_poly(f, X)) for f in f_list)
            if g_rank > K * f_rank:
                violations += 1
    assert violations == 0
    report(capsys, 11, "rank-bound-for-ideal-members", started, 120.0)
