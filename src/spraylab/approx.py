"""Regular-approximation pipeline: track a homotopy through a spray, fit the
terminal fiber vectors by a polynomial, and assemble an exact map into the
target.

The assembled map g(x) = s(F0(x), beta(x)) lands in the target variety
exactly (up to floating point) whatever the fitting error, because the spray
closes over its base; beta only controls how close g is to the input map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .geometry import (
    VarietySpec,
    membership_residual_many,
    sphere_tangent_basis_many,
    tangent_probes,
)
from .sampling import sphere_quasi_uniform
from .serialize import decimal_string, variety_to_json
from .sprays import (
    Spray,
    SprayInversionError,
    fiber_differences,
    iterated_spray,
    solve_fiber_many,
)

TRACK_TOL = 1e-10  # max-abs miss of a tracked node from the homotopy section
_MAX_INTERVALS = 64  # the homotopy partition's interval budget
_FD_STEP = 1e-5  # central differences of the error stage and the Lipschitz probe
# The fit's held-out target leaves this factor of slack for the first-order
# bound c0 <= lipschitz * max|beta - eta| + tracking residual.
_FIT_MARGIN = 2.0


class HomotopyTooWildError(RuntimeError):
    """The adaptive partition exceeded its interval budget."""


class DegreeExhaustedError(RuntimeError):
    """Polynomial degree escalation hit its cap before meeting the residual target."""

    def __init__(self, message: str, best: "PolynomialMapSpec"):
        super().__init__(message)
        self.best = best


# ---------------------------------------------------------------------------
# Homotopies
# ---------------------------------------------------------------------------


@dataclass
class Homotopy:
    """A homotopy F(x, t) on domain x [0, 1] into the target variety.

    ``f0_many`` is the exact rational map at t = 0 and must agree with
    F(., 0) pointwise; ``eval_many(points, t)`` evaluates at a single
    parameter value for a batch of domain points.
    """

    domain: VarietySpec
    target: VarietySpec
    eval_many: Callable
    f0_many: Callable
    f0_descriptor: dict = field(default_factory=dict)

    def check(self, points: np.ndarray):
        """Check F(., 0) = F0 within 1e-12 and F(., t) on the target within 1e-10."""
        dev = float(np.max(np.abs(self.eval_many(points, 0.0) - self.f0_many(points))))
        if dev > 1e-12:
            raise ValueError(f"F(., 0) deviates from the exact base map by {dev:.3e}")
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            resid = float(np.max(membership_residual_many(self.eval_many(points, t), self.target)))
            if resid > 1e-10:
                raise ValueError(f"homotopy leaves the target at t = {t} (residual {resid:.3e})")


# ---------------------------------------------------------------------------
# Tracking the fiber transport along a homotopy
# ---------------------------------------------------------------------------


@dataclass
class TrackResult:
    eta: np.ndarray
    partition: list
    node_residuals: list
    final_residual: float
    spray: Spray  # the iterated spray with one block per interval


def track_eta(homotopy: Homotopy, spray_y: Spray, grid: np.ndarray) -> TrackResult:
    """Chain per-interval fiber vectors so the iterated spray reproduces F(., 1).

    Starts from the single interval [0, 1] and walks the partition left to
    right.  When the spray inversion fails on an interval (or its node
    residual exceeds TRACK_TOL), the interval is bisected and the walk resumes
    from the last accepted node, so each step stays inside the local
    inversion neighborhood of the zero section.  ``solve_fiber_many`` is a
    pure function, so this gives the partition and eta that rebuilding the
    chain from t = 0 would, with one solve per accepted interval and one per
    bisection.  The returned eta stacks the interval solutions in order;
    feeding it to the iterated target spray from F0(x) lands on F(x, 1)
    within TRACK_TOL.  Raises HomotopyTooWildError when the partition would
    need more than ``_MAX_INTERVALS`` intervals.
    """
    grid = np.asarray(grid, dtype=float)
    base = homotopy.f0_many(grid)
    partition = [0.0, 1.0]
    cur = base
    blocks, node_residuals = [], []
    while len(blocks) < len(partition) - 1:
        i = len(blocks)
        target = homotopy.eval_many(grid, partition[i + 1])
        try:
            vs = solve_fiber_many(spray_y, cur, target)
        except SprayInversionError:
            node_res = np.inf
        else:
            node = spray_y.eval_many(cur, vs)
            node_res = float(np.max(np.abs(node - target)))
        if node_res > TRACK_TOL:
            partition.insert(i + 1, 0.5 * (partition[i] + partition[i + 1]))
            if len(partition) - 1 > _MAX_INTERVALS:
                raise HomotopyTooWildError(f"partition needs more than {_MAX_INTERVALS} intervals")
            continue
        blocks.append(vs)
        node_residuals.append(node_res)
        cur = node

    eta = np.hstack(blocks)
    spray = iterated_spray(spray_y, len(partition) - 1)
    final = float(np.max(np.abs(spray.eval_many(base, eta) - homotopy.eval_many(grid, 1.0))))
    return TrackResult(
        eta=eta,
        partition=partition,
        node_residuals=node_residuals,
        final_residual=final,
        spray=spray,
    )


# ---------------------------------------------------------------------------
# Polynomial fitting
# ---------------------------------------------------------------------------


def monomial_exponents(n_vars: int, degree: int) -> list:
    """All exponent tuples of total degree <= degree, sorted by (degree, lex)."""
    exps = (e for e in itertools.product(range(degree + 1), repeat=n_vars) if sum(e) <= degree)
    return sorted(exps, key=lambda e: (sum(e), e))


def sphere_exponents(n_vars: int, degree: int) -> list:
    """The :func:`monomial_exponents` with last entry <= 1, in the same order.

    On the unit sphere x_n^2 = 1 - sum of the other squares, so they are a basis there.
    """
    return [e for e in monomial_exponents(n_vars, degree) if e[-1] <= 1]


@lru_cache(maxsize=64)
def _vandermonde_plan(exponents: tuple) -> list:
    """Runs (columns, parent columns, variable i) with column x**e = parent column * x_i.

    The parent lowers the first nonzero entry of e.  A run is consecutive
    columns whose parents are consecutive columns listed before the run and
    whose variable is the same, so it is one multiplication of slices.  In
    both monomial orders a run is a (total degree, first nonzero entry) block.
    """
    index = {e: k for k, e in enumerate(exponents)}
    runs = []
    for k, e in enumerate(exponents):
        i = next((i for i, ei in enumerate(e) if ei), None)
        if i is None:
            continue
        parent = index[e[:i] + (e[i] - 1,) + e[i + 1 :]]
        if runs:
            cols, parents, var = runs[-1]
            if (var, cols.stop, parents.stop) == (i, k, parent) and parent < cols.start:
                runs[-1] = (slice(cols.start, k + 1), slice(parents.start, parent + 1), i)
                continue
        runs.append((slice(k, k + 1), slice(parent, parent + 1), i))
    return runs


def _vandermonde(points: np.ndarray, exponents: list) -> np.ndarray:
    """Columns x**e, each its parent column (first nonzero entry of e lowered) times x_i.

    Parents must be listed before their children, as both monomial orders are.
    """
    out = np.ones((len(exponents), points.shape[0]))  # row k holds column k
    coords = points.T.copy()
    for cols, parents, i in _vandermonde_plan(tuple(exponents)):
        np.multiply(out[parents], coords[i], out=out[cols])
    return out.T


@dataclass
class PolynomialMapSpec:
    """Dense polynomial map in ambient coordinates, restricted to the sphere.

    ``coefficients`` holds one column per output dimension over the monomials
    ``exponents`` (the :func:`sphere_exponents` basis of the fitted degree),
    so ``eval_many`` is the ambient polynomial sum_k coefficients[k] x**exponents[k].
    """

    input_dim: int
    output_dim: int
    degree: int
    exponents: list
    coefficients: np.ndarray  # (len(exponents), output_dim)
    fit_rms: float
    val_max: float
    fit_rms_curve: list
    val_max_curve: list
    achieved_target: bool

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        return _vandermonde(np.asarray(points, dtype=float), self.exponents) @ self.coefficients

    def to_jsonable(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "output_dim": self.output_dim,
            "degree": self.degree,
            "exponents": [list(e) for e in self.exponents],
            "coefficients": [[decimal_string(c) for c in row] for row in self.coefficients],
            "fit_rms": self.fit_rms,
            "val_max": self.val_max,
            "fit_rms_curve": self.fit_rms_curve,
            "val_max_curve": self.val_max_curve,
            "achieved_target": self.achieved_target,
        }


def fit_polynomial(
    points: np.ndarray,
    values: np.ndarray,
    target_resid: float,
    d_max: int = 20,
) -> PolynomialMapSpec:
    """Least-squares polynomial fit on the unit sphere with degree escalation.

    ``points`` lie on the unit sphere.  Each degree is fitted on the
    :func:`sphere_exponents` basis, which has full column rank there, by one
    column-scaled least-squares solve.  Even-indexed samples are fitted,
    odd-indexed ones validate; the degree escalates until the held-out max
    residual meets ``target_resid``.  The recorded fit residual (rms over the
    fitted half) is nonincreasing in the degree because the bases are nested.
    Raises DegreeExhaustedError carrying the best fit when the cap is reached.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    fit_pts, fit_vals = points[0::2], values[0::2]
    val_pts, val_vals = points[1::2], values[1::2]
    best = None
    fit_curve, val_curve = [], []
    for degree in range(1, d_max + 1):
        exps = sphere_exponents(points.shape[1], degree)
        if len(exps) > fit_pts.shape[0]:
            break  # not enough samples to determine this degree
        vmat = _vandermonde(fit_pts, exps)
        scale = np.linalg.norm(vmat, axis=0)
        coef = np.linalg.lstsq(vmat / scale, fit_vals, rcond=None)[0] / scale[:, None]
        fit_resid = vmat @ coef - fit_vals
        fit_rms = float(np.sqrt(np.mean(np.sum(fit_resid**2, axis=1))))
        val_resid = _vandermonde(val_pts, exps) @ coef - val_vals
        val_max = float(np.max(np.linalg.norm(val_resid, axis=1))) if val_pts.size else 0.0
        fit_curve.append(fit_rms)
        val_curve.append(val_max)
        spec = PolynomialMapSpec(
            input_dim=points.shape[1],
            output_dim=values.shape[1],
            degree=degree,
            exponents=exps,
            coefficients=coef,
            fit_rms=fit_rms,
            val_max=val_max,
            fit_rms_curve=list(fit_curve),
            val_max_curve=list(val_curve),
            achieved_target=val_max <= target_resid,
        )
        if best is None or spec.val_max < best.val_max:
            best = spec
        if spec.achieved_target:
            return spec
    if best is None:
        raise ValueError("not enough samples to fit even degree 1")
    best.fit_rms_curve = fit_curve
    best.val_max_curve = val_curve
    raise DegreeExhaustedError(
        f"degree cap {d_max} reached with held-out residual {best.val_max:.3e} "
        f"(target {target_resid:.3e})",
        best,
    )


# ---------------------------------------------------------------------------
# Assembly and error measurement
# ---------------------------------------------------------------------------


@dataclass
class RegularApproximation:
    """The assembled approximation g(x) = s(F0(x), beta(x)) plus diagnostics.

    ``spray`` is the iterated target spray s^k on Y, one fiber block per
    interval of ``partition``.
    """

    spray: Spray
    homotopy: Homotopy
    beta: PolynomialMapSpec
    partition: list
    status: str  # "ok" or "degree_exhausted"
    tracking_residual: float
    c0: Optional[float] = None
    c1: Optional[float] = None
    membership_max: Optional[float] = None
    lipschitz: Optional[float] = None
    beta_vs_eta_max: Optional[float] = None
    chain_bound: Optional[float] = None
    chain_ok: Optional[bool] = None
    config: dict = field(default_factory=dict)

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return self.spray.eval_many(self.homotopy.f0_many(points), self.beta.eval_many(points))

    def to_jsonable(self) -> dict:
        return {
            "spray": self.spray.descriptor(),
            "f0": self.homotopy.f0_descriptor,
            "domain": variety_to_json(self.homotopy.domain),
            "target": variety_to_json(self.homotopy.target),
            "beta": self.beta.to_jsonable(),
            "partition": self.partition,
            "status": self.status,
            "errors": {
                "c0": self.c0,
                "c1": self.c1,
                "membership_max": self.membership_max,
                "tracking_residual": self.tracking_residual,
            },
            "residual_chain": {
                "lipschitz": self.lipschitz,
                "beta_vs_eta_max": self.beta_vs_eta_max,
                "chain_bound": self.chain_bound,
                "chain_ok": self.chain_ok,
            },
            "config": self.config,
        }


def assemble_regular_map(
    homotopy: Homotopy, track: TrackResult, beta: PolynomialMapSpec, status: str = "ok"
) -> RegularApproximation:
    """Wrap the spray, the exact base map, and the fitted polynomial into an evaluator."""
    if beta.input_dim != homotopy.domain.ambient_dim:
        raise ValueError("polynomial input dimension does not match the domain")
    if beta.output_dim != track.spray.fiber_dim:
        raise ValueError("polynomial output dimension does not match the spray fiber")
    return RegularApproximation(
        spray=track.spray,
        homotopy=homotopy,
        beta=beta,
        partition=track.partition,
        status=status,
        tracking_residual=track.final_residual,
    )


def approximation_error(g_many: Callable, f_many: Callable, grid: np.ndarray) -> dict:
    """Sup discrepancy of values (c0) and of finite-difference tangent maps (c1).

    The c1 comparison differentiates both maps along the same deterministic
    tangent frame directions of the (sphere) domain, so it measures the
    discrepancy of the tangent maps truncated at first order.
    """
    grid = np.asarray(grid, dtype=float)
    gv, fv = g_many(grid), f_many(grid)
    c0 = float(np.max(np.linalg.norm(gv - fv, axis=1)))
    steps = _FD_STEP * sphere_tangent_basis_many(grid)

    def diff(m):
        return (tangent_probes(m, grid, steps) - tangent_probes(m, grid, -steps)) / (2.0 * _FD_STEP)

    c1 = float(np.max(np.linalg.norm(diff(g_many) - diff(f_many), axis=1)))
    return {"c0": c0, "c1": c1}


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------


@dataclass
class ApproxConfig:
    """Pipeline settings.  ``seed`` only labels the report: the grid is
    quasi-uniform and deterministic, so no stage draws random numbers.
    Tracking runs under fixed limits: ``_MAX_INTERVALS`` here, and
    ``sprays._NEWTON_MAX_ITER`` and ``sprays._MAX_FIBER_NORM`` per solve."""

    target_c0: float = 1e-3
    d_max: int = 20
    grid_size: Optional[int] = None
    seed: int = 0


def _spray_fiber_lipschitz(track: TrackResult, base: np.ndarray) -> float:
    """Largest finite-difference gain of the iterated spray in its fiber argument."""
    idx = np.arange(0, base.shape[0], max(1, base.shape[0] // 128))
    diff = fiber_differences(track.spray, base[idx], track.eta[idx], _FD_STEP)
    return float(np.max(np.linalg.norm(diff, axis=2))) / (2.0 * _FD_STEP)


def approximate(
    f_many: Callable,
    homotopy: Homotopy,
    spray_y: Spray,
    cfg: Optional[ApproxConfig] = None,
) -> RegularApproximation:
    """Run tracking, fitting, and assembly; measure errors against ``f_many``.

    Every stage works on the target: the tracker transports F0(x) through
    ``spray_y``, and the result is g(x) = s^k(F0(x), beta(x)) with s^k the
    k-fold iterate of ``spray_y`` over the partition.  Returns a
    RegularApproximation whose status is "ok" when the fit met its residual
    target and "degree_exhausted" otherwise (carrying the best effort).  The
    logged residual chain records the empirical inequality
    c0 <= lipschitz * max|beta - eta| + tracking residual on the grid.
    """
    cfg = cfg or ApproxConfig()
    domain = homotopy.domain
    if domain.kind != "sphere":
        raise ValueError("pipeline grids are implemented for sphere domains")
    grid_size = cfg.grid_size or (1 << 10 if domain.n == 1 else 1 << 12)
    grid = sphere_quasi_uniform(grid_size, domain.n)

    dev = float(np.max(np.abs(homotopy.eval_many(grid, 1.0) - f_many(grid))))
    if dev > 1e-10:
        raise ValueError(f"homotopy endpoint deviates from the input map by {dev:.3e}")

    track = track_eta(homotopy, spray_y, grid)
    base = homotopy.f0_many(grid)
    lip = _spray_fiber_lipschitz(track, base)
    target_resid = max(
        (cfg.target_c0 - track.final_residual) / (_FIT_MARGIN * max(lip, 1e-12)), 1e-15
    )

    status = "ok"
    try:
        beta = fit_polynomial(grid, track.eta, target_resid, d_max=cfg.d_max)
    except DegreeExhaustedError as exc:
        beta = exc.best
        status = "degree_exhausted"

    approx = assemble_regular_map(homotopy, track, beta, status=status)
    errors = approximation_error(approx.eval_many, f_many, grid)
    approx.c0 = errors["c0"]
    approx.c1 = errors["c1"]
    beta_grid = beta.eval_many(grid)
    g_grid = track.spray.eval_many(base, beta_grid)
    approx.membership_max = float(np.max(membership_residual_many(g_grid, homotopy.target)))
    beta_dev = float(np.max(np.linalg.norm(beta_grid - track.eta, axis=1)))
    approx.lipschitz = lip
    approx.beta_vs_eta_max = beta_dev
    approx.chain_bound = lip * beta_dev + track.final_residual
    # The chain bound is first order; allow quadratic slack before flagging.
    approx.chain_ok = bool(approx.c0 <= approx.chain_bound * 1.5 + 1e-12)
    approx.config = {
        "target_c0": cfg.target_c0,
        "d_max": cfg.d_max,
        "grid_size": grid_size,
        "seed": cfg.seed,
        "fit_margin": _FIT_MARGIN,
        "fit_target_resid": target_resid,
    }
    if status == "ok" and approx.c0 > cfg.target_c0:
        # Fit met its proxy target but the measured error did not; report
        # honestly rather than silently accepting.
        approx.status = "target_missed"
    return approx
