"""Experiment configuration: JSON documents validated against strict schemas.

Each config fact lives in one place.  The schema holds every key, its JSON
type or enum, which keys are required, and each top-level default (its
``"default"``, filled in by :func:`with_defaults`).  The estimator, stepper
and noise sections are derived from the fields of their dataclasses
(:class:`~dfoline.optimizer.EstimatorConfig`, the stepper classes,
:class:`~dfoline.core.NoiseModel`), which alone check those sections' value
ranges when a runner builds them, before the first task.  Top-level ranges
(trials, sigmas, delta, ...) are in the schema.  The enums come from the
code that implements them, and unknown keys are hard errors everywhere: a
typoed option must never silently fall back to a default.

The sha256 of the config as given (after any CLI seed override, before
defaults) is stamped into every output file, so results are traceable to the
exact configuration that produced them.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math

import jsonschema

from ..core import NOISE_KINDS, NoiseModel
from ..estimators import ESTIMATORS
from ..optimizer import STEPPERS, EstimatorConfig


class ConfigError(Exception):
    """Configuration rejected before any experiment work started."""


def _object(properties: dict, required: list) -> dict:
    """An object schema that admits no key but ``properties``."""
    return {"type": "object", "additionalProperties": False,
            "properties": properties, "required": required}


_JSON_TYPES = {"float": "number", "int": "integer", "bool": "boolean", "str": "string"}


def _section(classes, required, skip=(), **properties) -> dict:
    """The schema of a section whose keys are the fields of ``classes``
    (less ``skip``), typed by their annotations; ``properties`` adds keys or
    replaces a key's type with an enum.  The classes check the ranges."""
    fields = {f.name: {"type": _JSON_TYPES[f.type.split(" |")[0]]}
              for cls in classes for f in dataclasses.fields(cls) if f.name not in skip}
    return _object({**fields, **properties}, required)


_NOISE = _section([NoiseModel], ["kind"], skip=("seed",), kind={"enum": list(NOISE_KINDS)})
_NO_NOISE = {**_NOISE, "default": {"kind": "none"}}
_COMMON = {
    "experiment_id": {"type": "string", "minLength": 1},
    "seed": {"type": "integer", "minimum": 0, "default": 0},
}
_FUNCTIONS = {"type": "array", "items": {"type": "string"}, "minItems": 1}
_SIGMAS = {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 1}


def _experiment(kind: str, required: list, **properties) -> dict:
    """The schema of one experiment kind: ``properties`` plus the keys every
    kind has."""
    return _object({"experiment": {"const": kind}, **_COMMON, **properties},
                   ["experiment", *required])


@functools.cache
def _schemas() -> dict:
    """The schema of each experiment kind.  Built on first use: the check
    names are the keys of ``runners._CHECKS``, and runners imports this module."""
    from .runners import _CHECKS

    method = _object({
        "name": {"type": "string", "pattern": "^[A-Za-z0-9_-]+$"},
        "estimator": _section([EstimatorConfig], ["kind"], skip=("constants",),
                              kind={"enum": list(ESTIMATORS)}),
        # every stepper class's fields; a class rejects another's key
        "stepper": _section(STEPPERS.values(), ["type"], type={"enum": list(STEPPERS)}),
    }, ["name", "estimator", "stepper"])
    return {
        "grad_accuracy": _experiment(
            "grad_accuracy", ["functions", "estimators", "sigmas", "trials"],
            functions=_FUNCTIONS,
            estimators={"type": "array", "items": {"enum": list(ESTIMATORS)}, "minItems": 1},
            sigmas=_SIGMAS,
            n_factors={"type": "array", "items": {"type": "integer", "minimum": 1},
                       "minItems": 1, "default": [1]},
            trials={"type": "integer", "minimum": 1},
            noise=_NO_NOISE,
            eval_point={"enum": ["random", "origin"], "default": "random"},
        ),
        "optimize": _experiment(
            "optimize", ["functions", "methods", "budget"],
            functions=_FUNCTIONS,
            methods={"type": "array", "items": method, "minItems": 1},
            seeds={"type": "array", "items": {"type": "integer", "minimum": 0},
                   "minItems": 1, "default": [0, 1, 2]},
            budget={"type": "integer"},
            noise=_NO_NOISE,
            x0={"anyOf": [{"enum": ["random", "origin", "ones"]},
                          {"type": "array", "items": {"type": "number"}, "minItems": 1}],
                "default": "random"},
        ),
        "verify_bounds": _experiment(
            "verify_bounds", [],
            checks={"type": "array", "items": {"enum": list(_CHECKS)}, "minItems": 1,
                    "default": list(_CHECKS)},
            trials={"type": "integer", "minimum": 1, "default": 1000},
            samples={"type": "integer", "minimum": 10000, "default": 200_000},
            variance_reps={"type": "integer", "minimum": 100, "default": 20000},
            delta={"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1,
                   "default": 0.1},
            theta={"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 0.5,
                   "default": 0.25},
            dimensions={"type": "array", "items": {"type": "integer", "minimum": 1},
                        "minItems": 1, "default": [2, 3, 5]},
            sigmas={**_SIGMAS, "default": [1.0e-2, 1.0e-4]},
            noise={**_NOISE, "default": {"kind": "uniform", "bound": 1.0e-5}},
            declared_eps_f={"type": "number", "minimum": 0},
        ),
    }


# A count or seed is a JSON integer: jsonschema's "integer" also admits 2.0 and 1.7e308.
_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool)),
)


def validate_config(cfg: dict) -> dict:
    """Schema-check a parsed config; returns it unchanged on success."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
    kind = cfg.get("experiment")
    schemas = _schemas()
    if kind not in schemas:
        raise ConfigError(
            f"config needs \"experiment\" set to one of {list(schemas)}, got {kind!r}"
        )
    try:
        jsonschema.validate(cfg, schemas[kind], cls=_VALIDATOR)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "(top level)"
        raise ConfigError(f"invalid config at {path}: {exc.message}") from exc
    return cfg


def with_defaults(cfg: dict) -> dict:
    """A copy of a valid config with each top-level key it leaves out set to
    the schema's default."""
    properties = _schemas()[cfg["experiment"]]["properties"]
    return {**{key: p["default"] for key, p in properties.items() if "default" in p}, **cfg}


def _non_finite(token: str):
    if len(token) > 24:
        token = f"{token[:10]}...{token[-4:]} ({sum(c.isdigit() for c in token)} digits)"
    raise ConfigError(f"number {token} is not finite")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        _non_finite(token)
    return value


def _finite_int(token: str) -> int:
    value = int(token)
    try:
        float(value)
    except OverflowError:
        _non_finite(token)
    return value


def load_config(path: str) -> dict:
    """Read, parse, and validate a JSON experiment config.  A number that is
    not finite (NaN, Infinity, or one that overflows a float, such as 1e999
    or an integer of 400 digits) is rejected here: the schema's bounds do
    not see it."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, parse_float=_finite_float, parse_int=_finite_int,
                            parse_constant=_non_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ConfigError as exc:  # a number that is not finite
        raise ConfigError(f"config {path}: {exc}") from exc
    except ValueError as exc:  # json.JSONDecodeError
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(cfg)


def config_hash(cfg: dict) -> str:
    """sha256 of the canonical JSON encoding of a config as given, defaults
    not filled in."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
