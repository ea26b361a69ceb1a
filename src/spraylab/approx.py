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
    """Polynomial degree escalation stopped before meeting the residual target."""

    def __init__(self, message: str, best: "PolynomialMapSpec"):
        super().__init__(message)
        self.best = best


# ---------------------------------------------------------------------------
# Homotopies
# ---------------------------------------------------------------------------


@dataclass
class Homotopy:
    """A homotopy F(x, t) on domain x [0, 1] into the target variety.

    ``f0_many`` is the exact rational map the tracker starts from and the
    approximant's base map; ``eval_many(points, t)`` evaluates at a single
    parameter value for a batch of domain points.  The tracker evaluates F
    only at the partition's nodes t > 0, never at t = 0, so nothing checks
    that F(., 0) agrees with ``f0_many``: the result is homotopic to
    ``f0_many`` through the spray, whatever F(., 0) is.
    """

    domain: VarietySpec
    target: VarietySpec
    eval_many: Callable
    f0_many: Callable
    f0_descriptor: dict = field(default_factory=dict)


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
    base: np.ndarray  # F0(grid), where the iterated spray starts


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
    feeding it to the iterated target spray from F0(x), returned as ``base``,
    lands on F(x, 1) within TRACK_TOL.  Raises HomotopyTooWildError when the
    partition would need more than ``_MAX_INTERVALS`` intervals.
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
    final = float(np.max(np.abs(spray.eval_many(base, eta) - target)))  # target is F(grid, 1)
    return TrackResult(
        eta=eta,
        partition=partition,
        node_residuals=node_residuals,
        final_residual=final,
        spray=spray,
        base=base,
    )


# ---------------------------------------------------------------------------
# Polynomial fitting
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _basis_block(n_vars: int, degree: int) -> tuple:
    """The degree-``degree`` block of :func:`sphere_exponents`, the runs
    (rows, parent rows, variable i) whose products build its Vandermonde rows
    from the previous block's, and per i the count of its leading monomials
    with no entry before i.

    The degree-d monomials whose first nonzero entry is i are x_i times the
    leading degree-(d-1) monomials with no entry before i.  So each (d, i)
    run, taken for i from last to first, is a prefix of block d-1 times x_i.
    Dropping the i = last run from degree 2 on keeps last exponents <= 1.
    """
    if degree == 0:
        return ((0,) * n_vars,), (), (1,) * n_vars
    parents, _, lead = _basis_block(n_vars, degree - 1)
    exponents, runs, counts = [], [], []
    for i in reversed(range(n_vars)):
        if degree == 1 or i < n_vars - 1:
            first = len(exponents)
            exponents += [e[:i] + (e[i] + 1,) + e[i + 1 :] for e in parents[: lead[i]]]
            runs.append((slice(first, len(exponents)), slice(0, lead[i]), i))
        counts.append(len(exponents))
    return tuple(exponents), tuple(runs), tuple(reversed(counts))


def sphere_exponents(n_vars: int, degree: int) -> list:
    """Exponent tuples of total degree <= degree with last entry <= 1, sorted by
    (degree, lex).  On the unit sphere x_n^2 = 1 - sum of the other squares, so
    these monomials are a basis of the polynomials of degree <= degree there."""
    return [e for d in range(degree + 1) for e in _basis_block(n_vars, d)[0]]


@lru_cache(maxsize=None)
def _basis_size(n_vars: int, degree: int) -> int:
    """The column count of the degree-``degree`` sphere basis."""
    return sum(len(_basis_block(n_vars, d)[0]) for d in range(degree + 1))


def _vandermonde_blocks(points: np.ndarray, out: Optional[np.ndarray] = None):
    """Yield the sphere basis' Vandermonde rows degree block by degree block,
    0, 1, 2, ...: row k of block d is the block's column k.  Each block is
    built only when it is asked for; given ``out``, in its next rows."""
    coords, stop = points.T.copy(), 1
    block = np.empty((1, points.shape[0])) if out is None else out[:1]
    block.fill(1.0)
    for degree in itertools.count(1):
        yield block
        exponents, runs, _ = _basis_block(points.shape[1], degree)
        parents, start, stop = block, stop, stop + len(exponents)
        block = np.empty((len(exponents), points.shape[0])) if out is None else out[start:stop]
        for rows, prefix, i in runs:
            np.multiply(parents[prefix], coords[i], out=block[rows])
        del parents  # block d-1 is freed once the caller lets go of it


def _vandermonde(points: np.ndarray, degree: int) -> np.ndarray:
    """Columns x**e over the degree-``degree`` sphere basis."""
    out = np.empty((_basis_size(points.shape[1], degree), points.shape[0]))  # row k: column k
    for _ in itertools.islice(_vandermonde_blocks(points, out), degree + 1):
        pass
    return out.T


@dataclass
class PolynomialMap:
    """Dense polynomial map in ambient coordinates, restricted to the sphere.

    ``coefficients`` holds one column per output dimension over the
    :func:`sphere_exponents` basis of ``input_dim`` variables and degree
    ``degree``, so ``eval_many`` is the ambient polynomial
    sum_k coefficients[k] x**e_k.  The basis is derived, not stored; the
    report lists it under ``exponents``.  The pipeline's base maps F0 and
    its fitted beta are both such tables, with one JSON form.
    """

    input_dim: int
    output_dim: int
    degree: int
    coefficients: np.ndarray  # (number of basis monomials, output_dim)

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        return _vandermonde(np.asarray(points, dtype=float), self.degree) @ self.coefficients

    def to_jsonable(self) -> dict:
        """Every field, with round-tripping 17-digit coefficient strings, and the basis."""
        return {
            **vars(self),
            "exponents": [list(e) for e in sphere_exponents(self.input_dim, self.degree)],
            "coefficients": [[decimal_string(c) for c in row] for row in self.coefficients],
        }


@dataclass
class PolynomialMapSpec(PolynomialMap):
    """A fitted :class:`PolynomialMap` and the diagnostics of its fit."""

    fit_rms: float
    val_max: float
    fit_rms_curve: list
    val_max_curve: list
    achieved_target: bool


class _GrowingQR:
    """QR factorization of the column-scaled fit Vandermonde, grown one degree
    block at a time, and the least-squares solve it gives at every degree.

    Each new block of columns is scaled to unit norm, orthogonalized twice
    against the stored Q (classical Gram-Schmidt with reorthogonalization;
    Björck, *Numerical Methods for Least Squares Problems*, SIAM 1996) and
    QR-factored.  Q, R^-1 and Q^T values grow with it, and earlier columns
    are never factored again: R^-1 is block upper triangular like R, so its
    leading block inverts R's leading block.  Q is stored by rows.  A column
    whose orthogonalized remainder falls below lstsq's cutoff eps * max(m, n)
    is dependent on the columns before it: it gets no row of Q and
    coefficient 0.
    """

    def __init__(self, values: np.ndarray):
        self.q = np.empty((0, values.shape[0]))  # orthonormal rows
        self.qtb = np.empty((0, values.shape[1]))  # Q^T values
        self.residual = values.copy()  # values minus their projection onto Q's span
        self.r_inv = np.empty((0, 0))
        self.kept = np.empty(0, dtype=bool)  # per column, whether Q has a row for it
        self.scale = np.empty(0)

    def _orthonormalize(self, block: np.ndarray) -> tuple:
        """The block's column scales, which columns it keeps, and for those
        the new columns of R (above and on the diagonal) and rows of Q."""
        norms = np.linalg.norm(block, axis=1)
        scale = np.where(norms > 0.0, norms, 1.0)
        w = block / scale[:, None]
        proj = self.q @ w.T
        w -= proj.T @ self.q
        again = self.q @ w.T
        w -= again.T @ self.q
        proj += again
        cutoff = np.finfo(float).eps * max(self.q.shape[1], self.kept.size + len(block))
        keep = np.ones(len(block), dtype=bool)
        qb, rb = np.linalg.qr(w.T)
        while (small := np.abs(np.diagonal(rb)) < cutoff).any():
            keep[np.flatnonzero(keep)[small]] = False
            qb, rb = np.linalg.qr(w[keep].T)
        return scale, keep, proj[:, keep], rb, np.ascontiguousarray(qb.T)

    def append(self, block: np.ndarray) -> None:
        """Add the columns held in the rows of ``block``."""
        # The block's working copies are freed before Q grows.
        scale, keep, r_top, r_diag, qb = self._orthonormalize(block)
        z = qb @ self.residual
        self.residual -= qb.T @ z
        self.q = np.concatenate([self.q, qb])
        self.qtb = np.concatenate([self.qtb, z])
        k = len(self.r_inv)
        r_inv = np.zeros((len(self.q), len(self.q)))
        r_inv[:k, :k] = self.r_inv
        r_inv[k:, k:] = np.linalg.inv(r_diag)
        r_inv[:k, k:] = -(self.r_inv @ r_top) @ r_inv[k:, k:]
        self.r_inv = r_inv
        self.kept = np.concatenate([self.kept, keep])
        self.scale = np.concatenate([self.scale, scale])

    def solve(self) -> np.ndarray:
        """Least-squares coefficients of every column so far."""
        coef = np.zeros((self.kept.size, self.qtb.shape[1]))
        coef[self.kept] = self.r_inv @ self.qtb
        return coef / self.scale[:, None]


def fit_polynomial(
    points: np.ndarray,
    values: np.ndarray,
    target_resid: float,
    d_max: int = 20,
) -> PolynomialMapSpec:
    """Least-squares polynomial fit on the unit sphere with degree escalation.

    ``points`` lie on the unit sphere.  Each degree is fitted on the
    :func:`sphere_exponents` basis, which has full column rank there.  The
    bases are nested, so one :class:`_GrowingQR` of the column-scaled
    Vandermonde takes each degree's new block of columns and solves every
    degree.  Even-indexed samples are fitted, odd-indexed ones validate; the
    degree escalates until the held-out max residual meets ``target_resid``.
    The recorded fit residual (rms over the fitted half) is nonincreasing in
    the degree because the bases are nested.  Raises DegreeExhaustedError
    carrying the best fit when the cap or the sample count stops it first.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    fit_pts, fit_vals = points[0::2], values[0::2]
    val_pts, val_vals = points[1::2], values[1::2]
    factor = _GrowingQR(fit_vals)
    blocks = zip(_vandermonde_blocks(fit_pts), _vandermonde_blocks(val_pts))
    val_rows = np.empty((0, val_pts.shape[0]))
    best = None  # (degree, coefficients) of the lowest held-out residual so far
    fit_curve, val_curve = [], []
    stop = f"degree cap {d_max} reached"
    for degree in range(1, d_max + 1):
        if (columns := _basis_size(points.shape[1], degree)) > fit_pts.shape[0]:
            stop = f"stopped at degree {degree - 1}: degree {degree} needs {columns} fit samples"
            stop += f", {len(fit_pts)} given"
            break
        # Degree 1 brings the constant block along.
        for fit_block, val_block in itertools.islice(blocks, 2 if degree == 1 else 1):
            factor.append(fit_block)
            val_rows = np.concatenate([val_rows, val_block])
        coef = factor.solve()
        fit_rms = float(np.sqrt(np.mean(np.sum(factor.residual**2, axis=1))))
        val_resid = val_rows.T @ coef - val_vals
        val_max = float(np.max(np.linalg.norm(val_resid, axis=1))) if val_pts.size else 0.0
        fit_curve.append(fit_rms)
        val_curve.append(val_max)
        # Every earlier degree missed the target, so one that meets it is the best.
        if best is None or val_max < val_curve[best[0] - 1]:
            best = degree, coef
        if val_max <= target_resid:
            break
    if best is None:
        raise ValueError("not enough samples to fit even degree 1")
    degree, coef = best
    spec = PolynomialMapSpec(
        input_dim=points.shape[1],
        output_dim=values.shape[1],
        degree=degree,
        coefficients=coef,
        fit_rms=fit_curve[degree - 1],
        val_max=val_curve[degree - 1],
        fit_rms_curve=fit_curve,
        val_max_curve=val_curve,
        achieved_target=val_curve[degree - 1] <= target_resid,
    )
    if spec.achieved_target:
        return spec
    raise DegreeExhaustedError(
        f"{stop}, with held-out residual {spec.val_max:.3e} (target {target_resid:.3e})", spec
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

    def __post_init__(self):
        if self.beta.input_dim != self.homotopy.domain.ambient_dim:
            raise ValueError("polynomial input dimension does not match the domain")
        if self.beta.output_dim != self.spray.fiber_dim:
            raise ValueError("polynomial output dimension does not match the spray fiber")

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
    quasi-uniform and deterministic, so no stage draws random numbers."""

    target_c0: float = 1e-3
    d_max: int = 20
    grid_size: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if not self.target_c0 > 0:
            raise ValueError(f"target_c0 must be > 0, got {self.target_c0}")
        if self.d_max < 1:
            raise ValueError(f"d_max must be >= 1, got {self.d_max}")
        if self.grid_size is not None and self.grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {self.grid_size}")


def _spray_fiber_lipschitz(track: TrackResult, base: np.ndarray) -> float:
    """Largest finite-difference gain of the iterated spray in its fiber argument."""
    idx = np.arange(0, base.shape[0], max(1, base.shape[0] // 128))
    diff = fiber_differences(track.spray, base[idx], track.eta[idx], _FD_STEP)
    return float(np.max(np.linalg.norm(diff, axis=2))) / (2.0 * _FD_STEP)


def _answering(map_many: Callable, grid: np.ndarray, values: np.ndarray) -> Callable:
    """``map_many``, with a call on ``grid`` itself answered by its known ``values``."""
    return lambda points: values if points is grid else map_many(points)


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
    grid_size = cfg.grid_size
    if grid_size is None:
        grid_size = 1 << 10 if domain.n == 1 else 1 << 12
    grid = sphere_quasi_uniform(grid_size, domain.n)

    f_grid = f_many(grid)
    dev = float(np.max(np.abs(homotopy.eval_many(grid, 1.0) - f_grid)))
    if not dev <= 1e-10:  # a NaN fails too
        raise ValueError(f"homotopy endpoint deviates from the input map by {dev:.3e}")

    track = track_eta(homotopy, spray_y, grid)
    lip = _spray_fiber_lipschitz(track, track.base)
    target_resid = max(
        (cfg.target_c0 - track.final_residual) / (_FIT_MARGIN * max(lip, 1e-12)), 1e-15
    )

    status = "ok"
    try:
        beta = fit_polynomial(grid, track.eta, target_resid, d_max=cfg.d_max)
    except DegreeExhaustedError as exc:
        beta = exc.best
        status = "degree_exhausted"

    approx = RegularApproximation(
        spray=track.spray,
        homotopy=homotopy,
        beta=beta,
        partition=track.partition,
        status=status,
        tracking_residual=track.final_residual,
    )
    beta_grid = beta.eval_many(grid)
    g_grid = track.spray.eval_many(track.base, beta_grid)  # approx.eval_many(grid)
    errors = approximation_error(
        _answering(approx.eval_many, grid, g_grid), _answering(f_many, grid, f_grid), grid
    )
    approx.c0 = errors["c0"]
    approx.c1 = errors["c1"]
    approx.membership_max = float(np.max(membership_residual_many(g_grid, homotopy.target)))
    beta_dev = float(np.max(np.linalg.norm(beta_grid - track.eta, axis=1)))
    approx.lipschitz = lip
    approx.beta_vs_eta_max = beta_dev
    approx.chain_bound = lip * beta_dev + track.final_residual
    # The chain bound is first order; allow quadratic slack before flagging.
    approx.chain_ok = bool(approx.c0 <= approx.chain_bound * 1.5 + 1e-12)
    approx.config = {**vars(cfg), "grid_size": grid_size, "fit_margin": _FIT_MARGIN,
                     "fit_target_resid": target_resid}
    if status == "ok" and approx.c0 > cfg.target_c0:
        # Fit met its proxy target but the measured error did not; report
        # honestly rather than silently accepting.
        approx.status = "target_missed"
    return approx
