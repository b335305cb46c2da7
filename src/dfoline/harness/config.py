"""Experiment configuration: JSON documents validated against strict schemas.

Unknown keys are hard errors everywhere (additionalProperties: false): a
typoed option must never silently fall back to a default.  The enums come
from the code that implements them (noise kinds, the estimator table, the
stepper classes, the verify-bounds checks), and the stepper classes check
their own value ranges.  The sha256 of the effective config (after any CLI
seed override) is stamped into every output file, so results are traceable
to the exact configuration that produced them.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math

import jsonschema

from ..core import NOISE_KINDS
from ..estimators import ESTIMATORS
from ..optimizer import STEPPERS


class ConfigError(Exception):
    """Configuration rejected before any experiment work started."""


_NOISE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": list(NOISE_KINDS)},
        "bound": {"type": "number", "minimum": 0},
        "omega": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["kind"],
}

_POSITIVE_NUMBER = {"type": "number", "exclusiveMinimum": 0}

_GRAD_ACCURACY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "experiment": {"const": "grad_accuracy"},
        "experiment_id": {"type": "string", "minLength": 1},
        "functions": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "estimators": {
            "type": "array",
            "items": {"enum": list(ESTIMATORS)},
            "minItems": 1,
        },
        "sigmas": {"type": "array", "items": _POSITIVE_NUMBER, "minItems": 1},
        "n_factors": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
            "minItems": 1,
        },
        "trials": {"type": "integer", "minimum": 1},
        "noise": _NOISE_SCHEMA,
        "seed": {"type": "integer", "minimum": 0},
        "eval_point": {"enum": ["random", "origin"]},
    },
    "required": ["experiment", "functions", "estimators", "sigmas", "trials"],
}

# Every field of every stepper class; the class checks the ranges and
# rejects a key that belongs to another stepper type.
_STEPPER_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "type": {"enum": list(STEPPERS)},
        **{f.name: {"type": "number"}
           for cls in STEPPERS.values() for f in dataclasses.fields(cls)},
    },
    "required": ["type"],
}

_METHOD_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "pattern": "^[A-Za-z0-9_-]+$"},
        "estimator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": list(ESTIMATORS)},
                "sigma": _POSITIVE_NUMBER,
                "num_directions": {"type": "integer", "minimum": 1},
                "adaptive": {"type": "boolean"},
                "theta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 0.5},
            },
            "required": ["kind"],
        },
        "stepper": _STEPPER_SCHEMA,
    },
    "required": ["name", "estimator", "stepper"],
}

_OPTIMIZE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "experiment": {"const": "optimize"},
        "experiment_id": {"type": "string", "minLength": 1},
        "functions": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "methods": {"type": "array", "items": _METHOD_SCHEMA, "minItems": 1},
        "seeds": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
        "budget": {"type": "integer", "minimum": 2},
        "noise": _NOISE_SCHEMA,
        "x0": {
            "anyOf": [
                {"enum": ["random", "origin", "ones"]},
                {"type": "array", "items": {"type": "number"}, "minItems": 1},
            ]
        },
        "seed": {"type": "integer", "minimum": 0},
    },
    "required": ["experiment", "functions", "methods", "budget"],
}


@functools.cache
def _schemas() -> dict:
    """The schema of each experiment kind.  Built on first use: the check
    names are the keys of ``runners._CHECKS``, and runners imports this module."""
    from .runners import _CHECKS

    verify = {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "experiment": {"const": "verify_bounds"},
            "experiment_id": {"type": "string", "minLength": 1},
            "checks": {"type": "array", "items": {"enum": list(_CHECKS)}, "minItems": 1},
            "trials": {"type": "integer", "minimum": 1},
            "samples": {"type": "integer", "minimum": 10000},
            "variance_reps": {"type": "integer", "minimum": 100},
            "delta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            "theta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 0.5},
            "dimensions": {
                "type": "array",
                "items": {"type": "integer", "minimum": 1},
                "minItems": 1,
            },
            "sigmas": {"type": "array", "items": _POSITIVE_NUMBER, "minItems": 1},
            "noise": _NOISE_SCHEMA,
            "declared_eps_f": {"type": "number", "minimum": 0},
            "seed": {"type": "integer", "minimum": 0},
        },
        "required": ["experiment"],
    }
    return {
        "grad_accuracy": _GRAD_ACCURACY_SCHEMA,
        "optimize": _OPTIMIZE_SCHEMA,
        "verify_bounds": verify,
    }


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
        jsonschema.validate(cfg, schemas[kind])
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "(top level)"
        raise ConfigError(f"invalid config at {path}: {exc.message}") from exc
    return cfg


def _non_finite(token: str):
    raise ValueError(f"number {token} is not finite")


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
    except ValueError as exc:  # json.JSONDecodeError, or a number not finite
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(cfg)


def config_hash(cfg: dict) -> str:
    """sha256 of the canonical JSON encoding of the effective config."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
