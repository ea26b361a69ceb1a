"""Seeded workloads of the spraylab benchmark and the certificate gate of each job.

One workload seed draws every input: bump centres, axes, widths and
strengths, wiggle powers, amplitudes and phases, rotation angles, the
powers d of ``z^d # a_2``, and the seeds handed to ``DegreeOptions`` and to
the samplers.  Two expensive jobs hold some inputs fixed, because one draw
of them moves a run's time more than the bounds allow (see
:func:`draw_specs`): the rotation's axis and degree seed, and the options
of ``a_4``.  The library only ever receives the generated maps.  Parameter
ranges come from the shipped demos and tests:

- S2 bump: the ``s2-bump-identity`` demo uses width 0.35 and strength 0.2
  around a fixed centre, so width is drawn from [0.3, 0.4], strength from
  [0.15, 0.25], centre and axis uniformly on S2.
- S1 wiggle: the ``s1-power-2-wiggle`` demo uses amplitude 0.3 on z^2, so
  the amplitude is drawn from [0.2, 0.4], the phase from [0, 2 pi) and the
  power from {-2, 2, 3}.
- Rotation: angles in [3.12, pi) about the z axis force the SO(3) Newton
  tracker close to the antipodal limit.  Close to 3.12 it accepts a single
  interval whose fiber field the fit cannot follow; that known weakness is
  counted as a failed job, never re-drawn away.
- ``z^d # a_2``: every d in {-2, -1, 1, 2, 3}, the powers the degree tests
  use; their times differ by a factor of two, so drawing a subset would move
  the run's time with the draw.
- Group sprays: ``shrink_c`` from [0.25, 1.0] around the tests' 0.5.

A job spec is plain JSON data (see :func:`draw_specs`); :func:`build_jobs`
turns specs into callables over the library modules.  Jobs look every
library function up as a module attribute at call time, so the tracer can
wrap them where the calling module looks them up.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("pipeline-exact", "pipeline-newton", "degree-unitary", "verify-sprays")

MEMBERSHIP_TOL = 1e-12
ROTATION_ANGLES = (3.12, math.pi)


def _stream(workload: str, seed: int) -> np.random.Generator:
    # A stable per-workload stream: the same seed gives each workload its own inputs.
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([int(seed), tag])


def _unit(gen: np.random.Generator, dim: int) -> list:
    v = gen.standard_normal(dim)
    return [float(x) for x in v / np.linalg.norm(v)]


def _seed(gen: np.random.Generator) -> int:
    return int(gen.integers(0, 2**31 - 1))


def _strata(gen: np.random.Generator, n: int, lo: float, hi: float) -> list:
    """One uniform draw from each of n equal slices of [lo, hi), in random order.

    Every job list then covers the whole range, so the cost of a list varies
    less from seed to seed than with independent draws.
    """
    edges = lo + (hi - lo) * (np.arange(n) + gen.uniform(0.0, 1.0, n)) / n
    return [float(x) for x in gen.permutation(edges)]


def _bumps(gen, n: int, spray: str, target_c0: float, grid_size: Optional[int]) -> list:
    widths, strengths = _strata(gen, n, 0.3, 0.4), _strata(gen, n, 0.15, 0.25)
    return [
        {"kind": "s2-bump", "family": "s2-bump", "spray": spray,
         "center": _unit(gen, 3), "axis": _unit(gen, 3), "width": w, "strength": s,
         "target_c0": target_c0, "d_max": 12, "grid_size": grid_size,
         "seed": _seed(gen), "expected_degree": 1}
        for w, s in zip(widths, strengths)
    ]


def _sharp(d: int) -> dict:
    return {"map": "sharp", "f": {"map": "power", "d": d}, "g": {"map": "a_k", "k": 2}}


def draw_specs(workload: str, seed: int) -> list:
    """The job list of ``workload`` for ``seed``, as JSON-able dicts.

    ``family`` names jobs whose inputs are drawn alike; ``job_max_s`` takes
    each family's median time, so one unusual draw does not set it.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
    gen = _stream(workload, seed)
    if workload == "pipeline-exact":
        specs = _bumps(gen, 3, "stereographic", 1e-4, None)
        powers = [int(d) for d in gen.permutation([-2, 2, 3])]
        for power, amp in zip(powers, _strata(gen, 3, 0.2, 0.4)):
            specs.append(
                {"kind": "s1-wiggle", "family": "s1-wiggle", "power": power, "amplitude": amp,
                 "phase": float(gen.uniform(0.0, 2.0 * math.pi)), "target_c0": 1e-5,
                 "d_max": 20, "grid_size": None, "seed": _seed(gen), "expected_degree": power}
            )
        return specs
    if workload == "pipeline-newton":
        # The rotation keeps a fixed axis and degree seed.  With both drawn, its
        # time moved by up to a quarter between seeds (the fit degree and the
        # stalled Newton starts follow them), more than a run can average out.
        return _bumps(gen, 3, "so3", 1e-3, 1024) + [
            {"kind": "s2-rotation", "family": "s2-rotation", "spray": "so3",
             "axis": [0.0, 0.0, 1.0], "angle": float(gen.uniform(*ROTATION_ANGLES)),
             "target_c0": 1e-3, "d_max": 12, "grid_size": 1024, "seed": 0,
             "expected_degree": 1}
        ]
    if workload == "degree-unitary":
        # a_4 keeps the options of test_divisibility_k4 (seed 0): its time follows
        # how many Newton starts stall for the drawn regular value, which moved it
        # between 7 and 11 s from seed to seed, too much for one job to average.
        specs = [{"kind": "unitary-degree", "family": "a_4", "map": {"map": "a_k", "k": 4},
                  "max_dim": 7, "n_starts": 1600, "seed": 0, "expected_degree": 1}]
        for d in gen.permutation([-2, -1, 1, 2, 3]):
            specs.append({"kind": "unitary-degree", "family": "z^d#a_2", "map": _sharp(int(d)),
                          "max_dim": 5, "n_starts": None, "seed": _seed(gen),
                          "expected_degree": int(d)})
        specs.append({"kind": "unitary-degree", "family": "a_3", "map": {"map": "a_k", "k": 3},
                      "max_dim": 5, "n_starts": None, "seed": _seed(gen), "expected_degree": 1})
        return specs
    sprays = [
        (("SO", 3), None, None),
        (("SO", 4), None, None),
        (("U", 2), None, None),
        (("SU", 3), None, None),
        (("SU", 2), "self", None),
        (("SO", 3), "self", None),
        (("SO", 3), None, float(gen.uniform(0.25, 1.0))),
    ]
    specs = []
    for group, space, shrink_c in sprays:
        family = "{}({}):{}".format(*group, space or "sphere") + (":shrink" if shrink_c else "")
        specs.append({"kind": "verify-spray", "family": family, "group": list(group),
                      "space": space, "shrink_c": shrink_c, "samples": 1000,
                      "dominance_samples": 500, "seed": _seed(gen)})
    specs += [{"kind": "ak-identities", "family": f"a_{k}-identities", "k": k, "samples": 1000,
               "seed": _seed(gen)} for k in range(1, 6)]
    return specs


# ---------------------------------------------------------------------------
# Inputs: homotopies, sprays and matrix maps built from specs
# ---------------------------------------------------------------------------


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _identity(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=float).copy()


def _bump_homotopy(lib, spec):
    center, axis = np.array(spec["center"]), np.array(spec["axis"])
    width, strength = spec["width"], spec["strength"]

    def at_time(x, t):
        x = np.asarray(x, dtype=float)
        w = np.exp(-(1.0 - x @ center) / width)
        field = w[:, None] * (axis[None, :] - (x @ axis)[:, None] * x)
        return _normalize_rows(x + strength * t * field)

    sphere = lib.geometry.VarietySpec.sphere(2)
    return lib.approx.Homotopy(sphere, sphere, at_time, _identity, {"name": "identity"})


def _rotation_homotopy(lib, spec):
    a = np.array(spec["axis"])
    cross = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])

    def at_time(x, t):
        angle = spec["angle"] * t
        rot = np.eye(3) + math.sin(angle) * cross + (1.0 - math.cos(angle)) * (cross @ cross)
        return np.asarray(x, dtype=float) @ rot.T

    sphere = lib.geometry.VarietySpec.sphere(2)
    return lib.approx.Homotopy(sphere, sphere, at_time, _identity, {"name": "identity"})


def _wiggle_homotopy(lib, spec):
    d, amp, phase = spec["power"], spec["amplitude"], spec["phase"]

    def at_time(x, t):
        theta = np.arctan2(x[:, 1], x[:, 0])
        a = d * theta + amp * t * np.sin(theta + phase)
        return np.column_stack([np.cos(a), np.sin(a)])

    def power(x):
        z = x[:, 0] + 1j * x[:, 1]
        w = z**d if d >= 0 else np.conj(z) ** (-d)
        return np.column_stack([w.real, w.imag])

    circle = lib.geometry.VarietySpec.sphere(1)
    return lib.approx.Homotopy(circle, circle, at_time, power, {"name": f"z^{d}"})


def _matrix_map(lib, cfg):
    if cfg["map"] == "a_k":
        return lib.degree.a_k(cfg["k"])
    if cfg["map"] == "power":
        return lib.degree.power_map_matrix(cfg["d"])
    return lib.degree.sharp_product(_matrix_map(lib, cfg["f"]), _matrix_map(lib, cfg["g"]))


def _group_spray(lib, spec):
    group = lib.geometry.VarietySpec.group(*spec["group"])
    space = group if spec["space"] == "self" else None
    return lib.sprays.group_action_spray(group, space, spec["shrink_c"])


# ---------------------------------------------------------------------------
# Certificate gates
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    """Outcome of one job's certificate check.

    ``passed`` feeds the failure count.  ``wrong`` marks a result the
    program certified although it contradicts the known answer; any wrong
    result makes the whole run incorrect.  An honest failure (a status
    other than "ok", or a raised error) fails the job without being wrong.
    """

    passed: bool
    wrong: bool = False
    reason: str = ""


def gate_pipeline(spec: dict, approx, degree_value: int) -> Verdict:
    target = spec["target_c0"]
    problems = []
    if approx.c0 > target:
        problems.append(f"c0 {approx.c0:.3e} > target {target:.0e}")
    if approx.membership_max > MEMBERSHIP_TOL:
        problems.append(f"membership {approx.membership_max:.3e} > {MEMBERSHIP_TOL:.0e}")
    if degree_value != spec["expected_degree"]:
        problems.append(f"degree {degree_value} != expected {spec['expected_degree']}")
    if approx.status != "ok":
        return Verdict(False, False, "; ".join([f"status {approx.status}"] + problems))
    return Verdict(not problems, bool(problems), "; ".join(problems))


def gate_degree(spec: dict, k: int, report) -> Verdict:
    problems = []
    if report.value != spec["expected_degree"]:
        problems.append(f"degree {report.value} != expected {spec['expected_degree']}")
    if report.psi_degree % math.factorial(k - 1):
        problems.append(f"psi degree {report.psi_degree} not divisible by {k - 1}!")
    if report.cross_check_value != report.psi_degree:
        problems.append(f"cross-check {report.cross_check_value} != {report.psi_degree}")
    return Verdict(not problems, bool(problems), "; ".join(problems))


def gate_verify(dim: int, axioms, dominance) -> Verdict:
    # Every spray in the workload is a dominating spray, so a failed check is wrong.
    problems = []
    if not (axioms.passed and dominance.passed):
        problems.append(f"passed axioms={axioms.passed} dominance={dominance.passed}")
    if dominance.min_rank != dim:
        problems.append(f"min rank {dominance.min_rank} != dim {dim}")
    return Verdict(not problems, bool(problems), "; ".join(problems))


def gate_identities(report) -> Verdict:
    if report.passed:
        return Verdict(True)
    return Verdict(False, True, "a_k identities failed")


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


class Hooks:
    """Identity hooks for untraced runs; the tracer substitutes counting ones."""

    def spray(self, spray):
        return spray

    def matrix_map(self, f):
        return f

    def map(self, fn):
        return fn


@dataclass
class Job:
    name: str
    spec: dict
    # run(hooks) -> (canonical report text, Verdict)
    run: Callable


def _pipeline_job(lib, spec):
    if spec["kind"] == "s1-wiggle":
        homotopy = _wiggle_homotopy(lib, spec)
        spray = lib.sprays.stereographic_spray(1, fiber="ambient")
    else:
        homotopy = (_bump_homotopy if spec["kind"] == "s2-bump" else _rotation_homotopy)(lib, spec)
        if spec["spray"] == "so3":
            spray = lib.sprays.group_action_spray(lib.geometry.VarietySpec.group("SO", 3))
        else:
            spray = lib.sprays.stereographic_spray(2, fiber="ambient")
    n = homotopy.target.n

    def f_many(x):
        return homotopy.eval_many(x, 1.0)

    def run(hooks):
        # The calls cmd_approximate makes: pipeline, degree check, canonical report.
        cfg = lib.approx.ApproxConfig(
            target_c0=spec["target_c0"], d_max=spec["d_max"],
            grid_size=spec["grid_size"], seed=spec["seed"],
        )
        approx = lib.approx.approximate(f_many, homotopy, hooks.spray(spray), cfg)
        deg = lib.degree.sphere_degree(
            hooks.map(approx.eval_many), n, lib.degree.DegreeOptions(seed=spec["seed"])
        )
        report = {
            "approximation": approx.to_jsonable(),
            "degree": {"value": deg.value, "method": deg.method,
                       "expected": spec["expected_degree"]},
        }
        return lib.serialize.dumps_canonical(report), gate_pipeline(spec, approx, deg.value)

    return run


def _degree_job(lib, spec):
    f = _matrix_map(lib, spec["map"])

    def run(hooks):
        opts = lib.degree.DegreeOptions(
            seed=spec["seed"], n_starts=spec["n_starts"], max_dim=spec["max_dim"]
        )
        report = lib.degree.unitary_degree(hooks.matrix_map(f), opts)
        text = lib.serialize.dumps_canonical({"config": spec["map"], "report": report})
        return text, gate_degree(spec, f.k, report)

    return run


def _verify_job(lib, spec):
    spray = _group_spray(lib, spec)

    def run(hooks):
        s, seed = hooks.spray(spray), spec["seed"]
        axioms = lib.sprays.verify_spray_axioms(s, n_samples=spec["samples"], seed=seed)
        dominance = lib.sprays.verify_dominating(
            s, n_samples=spec["dominance_samples"], seed=seed
        )
        radius = lib.sprays.probe_injectivity_radius(s, seed=seed)
        report = {
            "axioms": axioms, "dominance": dominance,
            "injectivity_radius": radius, "spray": spray.descriptor(),
        }
        text = lib.serialize.dumps_canonical(report)
        return text, gate_verify(spray.base.dim, axioms, dominance)

    return run


def _identities_job(lib, spec):
    def run(hooks):
        report = lib.degree.verify_ak_identities(
            spec["k"], n_samples=spec["samples"], seed=spec["seed"]
        )
        return lib.serialize.dumps_canonical({"identities": report}), gate_identities(report)

    return run


_JOB_MAKERS = {
    "s2-bump": _pipeline_job,
    "s2-rotation": _pipeline_job,
    "s1-wiggle": _pipeline_job,
    "unitary-degree": _degree_job,
    "verify-spray": _verify_job,
    "ak-identities": _identities_job,
}


def build_jobs(lib, specs: list) -> list:
    """Build every input once; the returned jobs reuse them on each pass."""
    return [Job(f"{i}:{s['family']}", s, _JOB_MAKERS[s["kind"]](lib, s)) for i, s in enumerate(specs)]


def run_job(job: Job, hooks: Hooks) -> tuple:
    """Run one job; an exception fails the job instead of crashing the harness."""
    try:
        return job.run(hooks)
    except Exception as exc:  # a failed certificate computation, recorded with its reason
        return None, Verdict(False, False, f"{type(exc).__name__}: {exc}")
