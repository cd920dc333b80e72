"""Numerical laboratory for low-rank matrix values of nc polynomials.

Float side: seeded multi-restart descent on the squared tail singular values
of f(X), gradients by central finite differences.  Exact side: every
numerical candidate is pushed through rational reconstruction (entrywise, or
an affine-coordinate linear solve, or denominator-ladder snapping) and then
re-verified with exact linear algebra.  A rank claim is reported only after
the exact re-check; the float path is never trusted.  `rank_profile` is the
exact-only search: per size it keeps the structured or seeded random tuple
of least rank, and that tuple is the point a `rankprofile` document stores.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import checks
from .checks import self_check
from .evaluate import MatTuple, eval_poly, prefix_products, random_tuple, reference_poly, weyl_pair
from .linalg import QMatrix, QVector, rank, solve_linear
from .poly import NcPoly


class FMatTuple:
    """Float matrix tuple, the candidate points of the numerical search."""

    __slots__ = ("n", "d", "matrices")

    def __init__(self, matrices: Sequence[np.ndarray]):
        if not matrices:
            raise ValueError("a tuple needs at least one coordinate")
        mats = [np.array(m, dtype=float) for m in matrices]
        n = mats[0].shape[0] if mats[0].ndim == 2 else -1
        for m in mats:
            if m.ndim != 2 or m.shape != (n, n):
                raise ValueError("coordinates must be square matrices of equal size")
            if not np.all(np.isfinite(m)):
                raise ValueError("entries must be finite")
        self.n = n
        self.d = len(mats)
        self.matrices = mats

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "matrices": [[[float(x) for x in row] for row in m] for m in self.matrices],
        }

    def __repr__(self) -> str:
        return f"FMatTuple(n={self.n}, d={self.d})"


@dataclass(frozen=True)
class SearchConfig:
    target_rank: int = 1
    restarts: int = 20
    max_iters: int = 5000
    tolerance: float = 1e-12
    seed: int = 0
    max_den: int = 10**6

    def __post_init__(self):
        if self.target_rank < 0:
            raise ValueError("target rank must be nonnegative")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_den < 1:
            raise ValueError("max_den must be at least 1")


# ---------------------------------------------------------------------------
# Batched float evaluation
# ---------------------------------------------------------------------------


def _eval_float_batch(f: NcPoly, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate f on a batch of float tuples.

    Each coordinate is a (B, n, n) stack; the result is the (B, n, n) stack
    of values.  Word values come from one prefix walk over the support
    (`prefix_products`) and are summed in `f.terms` order.
    """
    batch, n = mats[0].shape[0], mats[0].shape[1]
    eye = np.broadcast_to(np.eye(n), (batch, n, n))
    values = dict(prefix_products(f.terms, eye, lambda value, letter: value @ mats[letter - 1]))
    terms = (float(coeff) * values[word] for word, coeff in f.terms.items())
    return sum(terms, np.zeros((batch, n, n)))


def eval_poly_float(f: NcPoly, mats: Sequence[np.ndarray]) -> np.ndarray:
    """f at one float tuple, evaluated as a batch of one."""
    return _eval_float_batch(f, [m[None] for m in mats])[0]


def _tail_objective_batch(values: np.ndarray, r: int) -> np.ndarray:
    s = np.linalg.svd(values, compute_uv=False)
    tail = s[:, r:]
    return np.sum(tail * tail, axis=1)


def _gradient(f: NcPoly, mats: List[np.ndarray], r: int) -> Tuple[List[np.ndarray], float]:
    """Central finite-difference gradient of the tail objective.

    All 2*d*n*n perturbed evaluations run as one batch; h scales with the
    entry so large and small coordinates are differenced comparably.
    """
    d, n = len(mats), mats[0].shape[0]
    h = [1e-6 * (1.0 + np.abs(m)) for m in mats]
    per_coord = 2 * n * n
    batch = d * per_coord
    stacks = [np.broadcast_to(m, (batch, n, n)).copy() for m in mats]
    idx = 0
    for i in range(d):
        for p in range(n):
            for q in range(n):
                stacks[i][idx, p, q] += h[i][p, q]
                stacks[i][idx + 1, p, q] -= h[i][p, q]
                idx += 2
    objs = _tail_objective_batch(_eval_float_batch(f, stacks), r)
    grads = []
    norm_sq = 0.0
    idx = 0
    for i in range(d):
        g = np.zeros((n, n))
        for p in range(n):
            for q in range(n):
                g[p, q] = (objs[idx] - objs[idx + 1]) / (2.0 * h[i][p, q])
                idx += 2
        grads.append(g)
        norm_sq += float(np.sum(g * g))
    return grads, norm_sq


# backtracking line search: first step, and its growth and shrink factors
_INITIAL_STEP = 0.1
_STEP_GROW = 1.2
_STEP_SHRINK = 0.5


def _descend(
    f: NcPoly, start: List[np.ndarray], cfg: SearchConfig
) -> Tuple[List[np.ndarray], float, int]:
    """Single restart: backtracking gradient descent from `start`.

    Returns the best point, its objective and the iteration count."""
    r = cfg.target_rank
    mats = [m.copy() for m in start]
    obj = float(_tail_objective_batch(_eval_float_batch(f, [m[None] for m in mats]), r)[0])
    step = _INITIAL_STEP
    iters = 0
    while iters < cfg.max_iters and obj > cfg.tolerance:
        iters += 1
        grads, norm_sq = _gradient(f, mats, r)
        if norm_sq < 1e-30:
            break
        accepted = False
        for _ in range(40):
            trial = [m - step * g for m, g in zip(mats, grads)]
            trial_obj = float(
                _tail_objective_batch(_eval_float_batch(f, [t[None] for t in trial]), r)[0]
            )
            if trial_obj <= obj - 1e-4 * step * norm_sq:
                mats, obj = trial, trial_obj
                step *= _STEP_GROW
                accepted = True
                break
            step *= _STEP_SHRINK
            if step < 1e-16:
                break
        if not accepted:
            break
    return mats, obj, iters


# ---------------------------------------------------------------------------
# Exactification
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


def _entrywise_exact(mats: Sequence[np.ndarray], max_den: int) -> Optional[MatTuple]:
    exact = []
    for m in mats:
        rows = []
        for row in m:
            out_row = []
            for x in row:
                rec = rational_reconstruct(float(x), max_den)
                if rec is None:
                    return None
                out_row.append(rec)
            rows.append(out_row)
        exact.append(QMatrix(rows))
    return MatTuple(exact)


def _snap(mats: Sequence[np.ndarray], den: int) -> MatTuple:
    return MatTuple(
        [
            QMatrix([[Fraction(float(x)).limit_denominator(den) for x in row] for row in m])
            for m in mats
        ]
    )


def _affine_variables(f: NcPoly) -> List[int]:
    """Variables no word of f repeats; the value map is affine in each."""
    out = []
    for i in range(1, f.d + 1):
        if all(word.count(i) <= 1 for word in f.terms):
            out.append(i)
    return out


def _top_singular_snaps(value: np.ndarray, r: int) -> List[QMatrix]:
    """Candidate exact column-space matrices for the rank-r target, snapped
    from the float left singular vectors at a ladder of denominators."""
    if r == 0:
        return [QMatrix([[] for _ in range(value.shape[0])])]
    u, _, _ = np.linalg.svd(value)
    basis = u[:, :r]
    out = []
    for den in (1000, 100, 12, 10**4, 10**5):
        out.append(
            QMatrix([[Fraction(float(x)).limit_denominator(den) for x in row] for row in basis])
        )
    return out


_FREEZE_DEN = 32  # denominator cap of the frozen coordinates in the endgame


def _linear_endgame(f: NcPoly, mats: Sequence[np.ndarray], r: int) -> Optional[MatTuple]:
    """Exactify through a coordinate the value map is affine in.

    Freeze every other coordinate at a nearby small-denominator rational
    point, write f's value as C0 + L(Y) with Y the affine coordinate, and
    solve the exact linear system C0 + L(Y) = A*B where A spans a snapped
    approximation of the float value's column space.  Any solution gives an
    exact point whose value factors through r columns.
    """
    n = mats[0].shape[0]
    frozen = _snap(mats, _FREEZE_DEN)
    if r >= n:
        return frozen
    float_value = eval_poly_float(f, mats)
    column_snaps = _top_singular_snaps(float_value, r)
    for k in _affine_variables(f):
        def value_at(y: QMatrix) -> QMatrix:
            coords = list(frozen)
            coords[k - 1] = y
            return eval_poly(f, MatTuple(coords))

        zero = QMatrix.zeros(n, n)
        c0 = value_at(zero)
        basis_images = []
        for p in range(n):
            for q in range(n):
                basis_images.append(value_at(QMatrix.unit(n, p, q)) - c0)

        for a_mat in column_snaps:
            # unknowns: n*n entries of Y then r*n entries of B
            n_y = n * n
            n_b = r * n
            rows = []
            rhs = []
            for i in range(n):
                for j in range(n):
                    coeffs = [Fraction(0)] * (n_y + n_b)
                    for e, img in enumerate(basis_images):
                        coeffs[e] = img[i][j]
                    for s in range(r):
                        coeffs[n_y + s * n + j] = -a_mat[i][s]
                    rows.append(QVector(coeffs))
                    rhs.append(-c0[i][j])
            solution = solve_linear(rows, QVector(rhs))
            if solution is None:
                continue
            y = QMatrix([[solution[p * n + q] for q in range(n)] for p in range(n)])
            coords = list(frozen)
            coords[k - 1] = y
            candidate = MatTuple(coords)
            if rank(eval_poly(f, candidate)) <= r:
                return candidate
    return None


_SNAP_LADDER = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64)


def exactify(f: NcPoly, mats: Sequence[np.ndarray], cfg: SearchConfig) -> Optional[Tuple[MatTuple, int]]:
    """Exact point with rank(f(X)) <= target, recovered from a float point.

    Tries entrywise reconstruction, then the affine-coordinate linear solve,
    then plain denominator snapping.  The returned rank comes from exact
    arithmetic on the returned point."""
    r = cfg.target_rank
    candidate = _entrywise_exact(mats, cfg.max_den)
    if candidate is not None:
        exact_rank = rank(eval_poly(f, candidate))
        if exact_rank <= r:
            return candidate, exact_rank
    candidate = _linear_endgame(f, mats, r)
    if candidate is not None:
        exact_rank = rank(eval_poly(f, candidate))
        if exact_rank <= r:
            return candidate, exact_rank
    for den in _SNAP_LADDER:
        candidate = _snap(mats, den)
        exact_rank = rank(eval_poly(f, candidate))
        if exact_rank <= r:
            return candidate, exact_rank
    return None


# ---------------------------------------------------------------------------
# Search driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    best: FMatTuple
    objective: float
    restart: int
    iterations: int
    exact: Optional[Tuple[MatTuple, int]]


def lowrank_search(f: NcPoly, n: int, cfg: SearchConfig) -> SearchResult:
    """Minimize the squared tail singular values of f(X) over n-by-n tuples.

    Restarts are independent; the reported point is the best objective with
    lowest restart index breaking ties.  Exactification runs only when the
    float objective cleared the tolerance, and its rank claim is re-verified
    exactly before being reported.
    """
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    d = f.d
    best_mats: Optional[List[np.ndarray]] = None
    best_obj = float("inf")
    best_restart = -1
    best_iters = 0
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        start = [rng.uniform(-2.0, 2.0, size=(n, n)) for _ in range(d)]
        mats, obj, iters = _descend(f, start, cfg)
        if obj < best_obj:
            best_mats, best_obj, best_restart, best_iters = mats, obj, restart, iters
            if best_obj <= cfg.tolerance:
                break
    assert best_mats is not None
    exact = None
    if best_obj < cfg.tolerance:
        exact = exactify(f, best_mats, cfg)
    return SearchResult(
        best=FMatTuple(best_mats),
        objective=best_obj,
        restart=best_restart,
        iterations=best_iters,
        exact=exact,
    )


def structured_tuples(d: int, n: int) -> List[MatTuple]:
    """Size-n points tried before random ones: zero, the truncation pair
    padded with zeros, and the scalar tuples c*I for c = 1, -1, 2."""
    out = [MatTuple([QMatrix.zeros(n, n) for _ in range(d)])]
    if d >= 2:
        w = weyl_pair(n)
        out.append(MatTuple(list(w.matrices) + [QMatrix.zeros(n, n)] * (d - 2)))
    for c in (1, -1, 2):
        out.append(MatTuple([c * QMatrix.identity(n) for _ in range(d)]))
    return out


def candidate_tuples(d: int, n: int, samples: int, rng: random.Random) -> List[MatTuple]:
    """The exact n x n tuples an exact search tries, in order: the structured
    ones, then `samples` seeded random ones."""
    return structured_tuples(d, n) + [random_tuple(rng, n, d) for _ in range(samples)]


def rank_profile(
    f: NcPoly, n_range: Sequence[int], samples: int = 20, seed: int = 0
) -> Dict[int, Tuple[int, MatTuple]]:
    """Minimum exact rank of f(X) over structured and seeded random tuples,
    per matrix size, with the first tuple attaining it.  An observed upper
    bound on the minimum rank, nothing more; the tuple is its evidence."""
    out: Dict[int, Tuple[int, MatTuple]] = {}
    for n in n_range:
        candidates = candidate_tuples(f.d, n, samples, random.Random(f"{seed}:{n}"))
        out[n] = min(((rank(eval_poly(f, point)), point) for point in candidates),
                     key=lambda pair: pair[0])
    return out


# ---------------------------------------------------------------------------
# Reference witnesses
# ---------------------------------------------------------------------------

# Published rank-1 witnesses for 1 - [x1, [x1,x2]^2], sizes 3 and 4; the
# commutator square makes the polynomial constantly I on 2x2 matrices, so
# nontrivial values start at size 3.

_X3 = [["0", "-2", "0"], ["1/6", "0", "-4"], ["0", "1/6", "0"]]
_Y3 = [["0", "3", "0"], ["1/4", "0", "0"], ["0", "0", "3/2"]]
_X4 = [
    ["0", "1", "1", "0"],
    ["5/9", "0", "-5/3", "-1"],
    ["0", "2/15", "0", "-1/5"],
    ["0", "0", "-5/3", "0"],
]
_Y4 = [
    ["0", "-6/5", "21/2", "0"],
    ["0", "0", "-10", "3/2"],
    ["1/3", "1/5", "0", "3/10"],
    ["0", "0", "5/2", "2"],
]


def reference_witnesses() -> List[MatTuple]:
    return [
        MatTuple([QMatrix(_X3), QMatrix(_Y3)]),
        MatTuple([QMatrix(_X4), QMatrix(_Y4)]),
    ]


def verify_reference_witnesses() -> Dict[str, object]:
    """Re-check the published low-rank witnesses in exact arithmetic: rank 1
    at both reference points, and the polynomial minus 1 a 2x2 identity."""
    f = reference_poly()
    ranks = self_check(checks.reference_witnesses, f, reference_witnesses())
    return {"polynomial": f, "ranks": ranks, "identity_on_2x2": True}
