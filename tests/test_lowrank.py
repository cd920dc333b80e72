import random

import numpy as np
import pytest

from ncvanish.evaluate import eval_poly, weyl_pair
from ncvanish.linalg import rank
from ncvanish.lowrank import (
    FMatTuple,
    SearchConfig,
    eval_poly_float,
    exactify,
    lowrank_search,
    rank_profile,
    reference_poly,
    reference_witnesses,
    verify_reference_witnesses,
)
from ncvanish.poly import NcPoly, commutator, parse


def defect_poly() -> NcPoly:
    return parse("1", 2) - commutator(NcPoly.var(1, 2), NcPoly.var(2, 2))


def float_matrices(point):
    return [np.array(m.entries, dtype=float) for m in point.matrices]


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(target_rank=-1)
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)
    with pytest.raises(ValueError):
        SearchConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SearchConfig(max_den=0)


def test_fmat_tuple_validation():
    with pytest.raises(ValueError):
        FMatTuple([np.array([[np.nan]])])
    with pytest.raises(ValueError):
        FMatTuple([np.array([[np.inf]])])
    with pytest.raises(ValueError):
        FMatTuple([np.zeros((2, 3))])
    with pytest.raises(ValueError):
        FMatTuple([])


def test_float_evaluation_matches_exact():
    rng = random.Random(3)
    from ncvanish.evaluate import random_tuple

    from conftest import random_poly

    for _ in range(20):
        X = random_tuple(rng, 3, 2)
        f = random_poly(rng, 2, 3)
        exact = eval_poly(f, X)
        approx = eval_poly_float(f, float_matrices(X))
        expected = np.array([[float(e) for e in row] for row in exact.entries])
        assert np.allclose(approx, expected, atol=1e-9)


def test_objective_zero_at_known_rank_one_value():
    # the commutation-defect value at the canonical pair is n*E_nn, rank one
    f = defect_poly()
    singular = np.linalg.svd(eval_poly_float(f, float_matrices(weyl_pair(4))), compute_uv=False)
    assert np.sum(singular[1:] ** 2) < 1e-20
    assert np.sum(singular ** 2) > 1.0


def test_lowrank_search_finds_rank_zero_point():
    cfg = SearchConfig(target_rank=0, restarts=2, seed=0)
    res = lowrank_search(parse("x1", 1), 2, cfg)
    assert res.objective < cfg.tolerance
    assert res.exact is not None
    point, r = res.exact
    assert r == 0
    assert eval_poly(parse("x1", 1), point).entries == ((0, 0), (0, 0))


def test_lowrank_search_constant_cannot_drop_rank():
    cfg = SearchConfig(target_rank=1, restarts=2, seed=0, max_iters=200)
    res = lowrank_search(parse("1", 2), 2, cfg)
    assert res.objective == pytest.approx(1.0)
    assert res.exact is None


def test_lowrank_search_commutation_defect_small():
    # 3x3 already admits an exact rank-one point for the defect polynomial
    cfg = SearchConfig(target_rank=1, restarts=6, seed=0)
    res = lowrank_search(defect_poly(), 3, cfg)
    assert res.objective < cfg.tolerance
    assert res.exact is not None
    point, r = res.exact
    assert r <= 1
    assert rank(eval_poly(defect_poly(), point)) == r


def test_lowrank_search_deterministic():
    cfg = SearchConfig(target_rank=1, restarts=3, seed=7)
    a = lowrank_search(defect_poly(), 3, cfg)
    b = lowrank_search(defect_poly(), 3, cfg)
    assert a.objective == b.objective
    assert a.restart == b.restart
    assert a.iterations == b.iterations
    assert (a.exact is None) == (b.exact is None)
    if a.exact is not None:
        assert a.exact[0] == b.exact[0]
        assert a.exact[1] == b.exact[1]


def test_lowrank_search_input_validation():
    with pytest.raises(ValueError):
        lowrank_search(parse("x1", 1), 0, SearchConfig())


def test_exactify_from_float_of_exact_point():
    f = defect_poly()
    out = exactify(f, float_matrices(weyl_pair(4)), SearchConfig(target_rank=1))
    assert out is not None
    point, r = out
    assert r == 1
    assert point == weyl_pair(4)


def test_exactify_rejects_far_from_low_rank():
    # identity matrices leave the constant polynomial at full rank
    f = parse("1", 2)
    mats = [np.eye(3), np.eye(3)]
    assert exactify(f, mats, SearchConfig(target_rank=1)) is None


def ranks(profile):
    return {n: r for n, (r, _) in profile.items()}


def test_rank_profile_of_defect_polynomial():
    f = defect_poly()
    prof = rank_profile(f, range(2, 4), samples=5, seed=0)
    assert ranks(prof) == {2: 1, 3: 1}
    for n, (r, point) in prof.items():
        assert point.n == n and rank(eval_poly(f, point)) == r


def test_rank_profile_of_constant_is_full():
    prof = rank_profile(parse("1", 2), range(1, 4), samples=3, seed=0)
    assert ranks(prof) == {1: 1, 2: 2, 3: 3}


def test_rank_profile_of_single_variable_hits_zero():
    prof = rank_profile(parse("x1", 2), range(1, 4), samples=3, seed=0)
    assert ranks(prof) == {1: 0, 2: 0, 3: 0}
    # the zero tuple comes first among the candidates
    assert all(eval_poly(NcPoly.var(1, 2), point).is_zero() for _, point in prof.values())


def test_rank_profile_monotone_in_samples():
    # adding samples can only lower the observed minimum rank
    f = defect_poly()
    small = ranks(rank_profile(f, range(2, 5), samples=3, seed=0))
    big = ranks(rank_profile(f, range(2, 5), samples=12, seed=0))
    for n in range(2, 5):
        assert big[n] <= small[n]


def test_rank_profile_determinism():
    f = defect_poly()
    assert rank_profile(f, range(2, 5), samples=6, seed=3) == rank_profile(
        f, range(2, 5), samples=6, seed=3
    )


def test_reference_witnesses_have_rank_one():
    f = reference_poly()
    for point in reference_witnesses():
        val = eval_poly(f, point)
        assert rank(val) == 1


def test_verify_reference_witnesses_report():
    report = verify_reference_witnesses()
    assert report["ranks"] == {3: 1, 4: 1}
    assert report["identity_on_2x2"] is True

