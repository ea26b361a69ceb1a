"""Batch command-line front end.

    spraylab verify-spray --config cfg.json [--seed N] [--out report.json]
    spraylab degree       --config cfg.json [--seed N] [--out report.json]
    spraylab make-ak      --config cfg.json [--seed N] [--out report.json]
    spraylab approximate  --config cfg.json [--seed N] [--out report.json]

Exit codes: 0 pass, 1 verification or pipeline failure, 2 usage error.
Reports are canonical JSON (sorted keys, shortest round-trip floats) and are
byte-identical across reruns with the same seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile

from .approx import HomotopyTooWildError
from .approx import approximate as run_pipeline
from .degree import (
    DegreeOptions,
    a_k,
    antipodal_map,
    fermat_power_self_map,
    identity_map,
    power_map_matrix,
    sharp_product,
    sphere_degree,
    unitary_degree,
    verify_ak_identities,
)
from .demos import DEMOS
from .geometry import VarietySpec
from .serialize import dumps_canonical, parse_variety_label
from .sprays import (
    Spray,
    constant_spray,
    group_action_spray,
    iterated_spray,
    probe_injectivity_radius,
    stereographic_spray,
    verify_dominating,
    verify_spray_axioms,
)

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


class UsageError(ValueError):
    pass


def _json_object(config, what: str) -> dict:
    if isinstance(config, dict):
        return config
    raise UsageError(f"{what} must be a JSON object, got {config!r}")


# The config keys each command, spray kind and map reads.
_KEYS = {
    "verify-spray": ("seed", "samples", "tol", "fiber_radius", "dominance_samples"),
    "degree": ("seed", "n_starts", "max_dim"),
    "make-ak": ("seed", "k", "samples"),
    "approximate": ("seed", "demo", "target_c0", "d_max", "grid_size"),
    "stereographic": ("kind", "n", "fiber"),
    "group": ("kind", "group", "space", "shrink_c"),
    "iterated": ("kind", "k", "inner"),
    "constant": ("kind", "n"),
    "a_k": ("map", "k"),
    "power": ("map", "d"),
    "sharp": ("map", "f", "g"),
    "fermat": ("map", "n", "k"),
    "identity": ("map", "n"),
    "antipodal": ("map", "n"),
}


# The JSON type of each key read as a number, so that int() or float() never
# reinterprets a value of another type.
_TYPES = {
    **dict.fromkeys(("seed", "samples", "dominance_samples", "n_starts", "max_dim", "k", "n",
                     "d", "d_max", "grid_size"), "an integer"),
    **dict.fromkeys(("tol", "fiber_radius", "target_c0", "shrink_c"), "a number"),
}
_JSON_TYPES = {"an integer": int, "a number": (int, float)}


def _check_types(config: dict, what: str) -> None:
    for key in sorted(set(config) & set(_TYPES)):
        value, kind = config[key], _TYPES[key]
        # A bool is an int in Python, not in JSON.
        if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
            raise UsageError(f"{what} key {key!r} must be {kind}, got {json.dumps(value)}")


def _check_keys(config: dict, accepted: tuple, what: str) -> None:
    unknown = sorted(set(config) - set(accepted))
    if unknown:
        raise UsageError(f"{what} has unknown keys {unknown} (accepted: {sorted(accepted)})")
    _check_types(config, what)


def _options(config: dict, **table) -> dict:
    """parameter=kind(config[key]) for each parameter=(key, kind) whose key the
    config holds: for a key it leaves out, the library's default stands."""
    return {name: kind(config[key]) for name, (key, kind) in table.items() if key in config}


def _header(command: str, config: dict, seed: int) -> dict:
    """The keys every report starts with."""
    return {"command": command, "config": config, "seed": seed}


def _parse_variety(label) -> VarietySpec:
    if isinstance(label, str):
        return parse_variety_label(label)
    raise UsageError(f'a variety is a label such as "S2" or "SO(3)", not {label!r}')


def _group_spray(config: dict) -> Spray:
    group = _parse_variety(config["group"])
    space_cfg = config.get("space")
    if space_cfg is None:
        space = None
    elif space_cfg == "self":
        space = group
    else:
        space = _parse_variety(space_cfg)
    return group_action_spray(group, space, **_options(config, shrink_c=("shrink_c", float)))


# Spray builders, by the config's "kind".
_SPRAY_KINDS = {
    "stereographic": lambda config: stereographic_spray(
        int(config["n"]), config.get("fiber", "ambient")
    ),
    "group": _group_spray,
    "iterated": lambda config: iterated_spray(build_spray(config["inner"]), int(config["k"])),
    "constant": lambda config: constant_spray(VarietySpec.sphere(int(config.get("n", 2)))),
}


def build_spray(config: dict, command_keys: tuple = ()) -> Spray:
    """Construct a spray from its JSON description (CLI surface)."""
    kind = _json_object(config, "spray config").get("kind")
    if kind not in _SPRAY_KINDS:
        raise UsageError(f"unknown spray kind {kind!r} (available: {sorted(_SPRAY_KINDS)})")
    _check_keys(config, _KEYS[kind] + command_keys, "spray config")
    return _SPRAY_KINDS[kind](config)


def _write_report(report: dict, out_path) -> None:
    text = dumps_canonical(report)
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".spraylab-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_verify_spray(config: dict, seed: int, out) -> int:
    spray = build_spray(config, _KEYS["verify-spray"])
    axioms = verify_spray_axioms(spray, seed=seed, **_options(
        config, n_samples=("samples", int), tol=("tol", float), fiber_radius=("fiber_radius", float)
    ))
    n_dominance = int(config.get("dominance_samples", min(axioms.n_samples, 500)))
    dominance = verify_dominating(spray, n_samples=n_dominance, seed=seed)
    passed = axioms.passed and dominance.passed
    report = {
        **_header("verify-spray", config, seed),
        "pass": passed,
        "max_violation": axioms.max_violation,
        "per_sample": axioms.per_sample,
        "axioms": axioms,
        "dominance": dominance,
        "injectivity_radius": probe_injectivity_radius(spray, seed=seed),
        "spray": spray.descriptor(),
    }
    _write_report(report, out)
    return EXIT_OK if passed else EXIT_FAIL


def _build_matrix_map(config: dict, command_keys: tuple = ()):
    name = _json_object(config, "matrix map config").get("map")
    if name not in ("a_k", "power", "sharp"):
        raise UsageError(f"unknown matrix map {name!r}")
    _check_keys(config, _KEYS[name] + command_keys, "matrix map config")
    if name == "a_k":
        return a_k(int(config["k"]))
    if name == "power":
        return power_map_matrix(int(config["d"]))
    return sharp_product(_build_matrix_map(config["f"]), _build_matrix_map(config["g"]))


# Self-maps of the n-sphere, by name; every other name is a matrix map.
_SPHERE_SELF_MAPS = {
    "fermat": lambda config: fermat_power_self_map(int(config["k"])),
    "identity": lambda config: identity_map,
    "antipodal": lambda config: antipodal_map,
}


def cmd_degree(config: dict, seed: int, out) -> int:
    name = config.get("map")
    opts = DegreeOptions(
        seed=seed, **_options(config, n_starts=("n_starts", int), max_dim=("max_dim", int))
    )
    if name in _SPHERE_SELF_MAPS:
        _check_keys(config, _KEYS[name] + _KEYS["degree"], "degree config")
        report = sphere_degree(_SPHERE_SELF_MAPS[name](config), int(config["n"]), opts)
    else:
        report = unitary_degree(_build_matrix_map(config, _KEYS["degree"]), opts)
    _write_report({**_header("degree", config, seed), "report": report}, out)
    return EXIT_OK


def cmd_make_ak(config: dict, seed: int, out) -> int:
    _check_keys(config, _KEYS["make-ak"], "make-ak config")
    k = int(config["k"])
    mapping = a_k(k)
    identities = verify_ak_identities(k, seed=seed, **_options(config, n_samples=("samples", int)))
    report = {
        **_header("make-ak", config, seed),
        "map": {"name": mapping.name, "k": k, "size": mapping.p},
        "identities": identities,
        "min_abs_det_on_sphere": mapping.min_abs_det(),
        "pass": identities.passed,
    }
    _write_report(report, out)
    return EXIT_OK if identities.passed else EXIT_FAIL


def cmd_approximate(config: dict, seed: int, out) -> int:
    _check_keys(config, _KEYS["approximate"], "approximate config")
    name = config.get("demo")
    if name not in DEMOS:
        raise UsageError(f"unknown demo {name!r} (available: {sorted(DEMOS)})")
    demo = DEMOS[name]()
    given = _options(config, target_c0=("target_c0", float), d_max=("d_max", int),
                     grid_size=("grid_size", int))
    cfg = dataclasses.replace(demo.cfg, seed=seed, **given)
    try:
        approx = run_pipeline(demo.f_many, demo.homotopy, demo.spray, cfg)
    except HomotopyTooWildError as exc:
        error = {"stage": "tracking", "message": str(exc)}
        _write_report({**_header("approximate", config, seed), "error": error}, out)
        return EXIT_FAIL
    report = {**_header("approximate", config, seed), "approximation": approx.to_jsonable()}
    passed = approx.status == "ok"
    target, n = demo.homotopy.target, demo.homotopy.domain.n
    # The degree oracles take self-maps of a sphere; other targets have no check.
    if target == VarietySpec.sphere(n):
        deg = sphere_degree(approx.eval_many, n, DegreeOptions(seed=seed))
        report["degree"] = {
            "value": deg.value,
            "method": deg.method,
            "expected": demo.expected_degree,
        }
        passed = passed and deg.value == demo.expected_degree
    _write_report(report, out)
    return EXIT_OK if passed else EXIT_FAIL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spraylab",
        description="Spray verification, degree computation, and regular approximation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify-spray", "degree", "make-ak", "approximate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="report path (default: stdout)")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    try:
        with open(args.config) as fh:
            config = _json_object(json.load(fh), "config")
    except (OSError, json.JSONDecodeError, UsageError) as exc:
        print(f"spraylab: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    handlers = {
        "verify-spray": cmd_verify_spray,
        "degree": cmd_degree,
        "make-ak": cmd_make_ak,
        "approximate": cmd_approximate,
    }
    try:
        _check_types(config, "config")
        seed = args.seed if args.seed is not None else int(config.get("seed", 0))
        return handlers[args.command](config, seed, args.out)
    except UsageError as exc:
        print(f"spraylab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, TypeError) as exc:
        print(f"spraylab: bad config: {exc!r}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # pipeline failures, degree-oracle errors, non-finite reports
        print(f"spraylab: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
