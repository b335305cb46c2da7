"""Experiment configuration: JSON documents checked against strict schemas.

Each schema is a JSON Schema dict that one small walker checks, keyword by
keyword.  Each config fact lives in one place.  The schema holds every key,
its JSON type or enum, which keys are required, and each top-level default
(its ``"default"``, filled in by :func:`with_defaults`).  The estimator,
stepper and noise sections are derived from the fields of their dataclasses
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
import re

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
_FUNCTIONS = {"type": "array", "items": {"type": "string"}, "minItems": 1, "uniqueItems": True}
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
            estimators={"type": "array", "items": {"enum": list(ESTIMATORS)}, "minItems": 1,
                        "uniqueItems": True},
            sigmas={**_SIGMAS, "uniqueItems": True},
            n_factors={"type": "array", "items": {"type": "integer", "minimum": 1},
                       "minItems": 1, "uniqueItems": True, "default": [1]},
            trials={"type": "integer", "minimum": 1},
            noise=_NO_NOISE,
            eval_point={"enum": ["random", "origin"], "default": "random"},
        ),
        "optimize": _experiment(
            "optimize", ["functions", "methods", "budget"],
            functions=_FUNCTIONS,
            methods={"type": "array", "items": method, "minItems": 1},
            seeds={"type": "array", "items": {"type": "integer", "minimum": 0},
                   "minItems": 1, "uniqueItems": True, "default": [0, 1, 2]},
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


#: Each JSON type's Python types.  A bool is neither a number nor an integer, and
#: an integer is an int: 2.0 would be used as a count or hashed into other seeds.
_PY_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
             "number": (int, float), "integer": int}
#: Each keyword the schemas use, with the JSON type of the values it checks
#: (None: all), as in JSON Schema.  Any other keyword is a KeyError, not a skip.
_KEYWORDS = {"type": None, "const": None, "enum": None, "anyOf": None, "default": None,
             "minimum": "number", "exclusiveMinimum": "number", "exclusiveMaximum": "number",
             "minLength": "string", "pattern": "string", "minItems": "array", "items": "array",
             "uniqueItems": "array",
             "required": "object", "additionalProperties": "object", "properties": "object"}


def _is(value, kind: str) -> bool:
    return isinstance(value, _PY_TYPES[kind]) and (kind == "boolean" or not isinstance(value, bool))


def _errors(value, schema: dict, path: str):
    """Yield ``(path, message)`` for each way ``value`` breaks ``schema``;
    ``path`` is ``/key/index/...``.  ``additionalProperties`` is always false."""
    for key, arg in schema.items():
        if _KEYWORDS[key] and not _is(value, _KEYWORDS[key]):
            continue
        if key == "type" and not _is(value, arg):
            yield path, f"{value!r} is not of type {arg!r}"
        elif key == "const" and value != arg:
            yield path, f"{arg!r} was expected"
        elif key == "enum" and value not in arg:
            yield path, f"{value!r} is not one of {arg!r}"
        elif key == "anyOf" and all(next(_errors(value, s, path), None) for s in arg):
            yield path, f"{value!r} is not valid under any of the given schemas"
        elif (key == "minimum" and value < arg or key == "exclusiveMinimum" and value <= arg
              or key == "exclusiveMaximum" and value >= arg):
            yield path, f"{value!r} is out of range ({key} {arg!r})"
        elif key in ("minLength", "minItems") and len(value) < arg:
            yield path, f"{value!r} is shorter than {arg}"
        elif key == "pattern" and not re.search(arg, value):
            yield path, f"{value!r} does not match {arg!r}"
        elif key == "uniqueItems" and arg and any(v in value[:i] for i, v in enumerate(value)):
            yield path, f"{value!r} has non-unique elements"
        elif key == "items":
            for i, item in enumerate(value):
                yield from _errors(item, arg, f"{path}/{i}")
        elif key == "required":
            yield from ((path, f"{k!r} is a required property") for k in arg if k not in value)
        elif key == "additionalProperties":
            yield from ((path, f"unknown key {k!r}") for k in value if k not in schema["properties"])
        elif key == "properties":
            for k in filter(value.__contains__, arg):
                yield from _errors(value[k], arg[k], f"{path}/{k}")


def validate_config(cfg: dict) -> dict:
    """Schema-check a parsed config; returns it unchanged on success."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
    kind = cfg.get("experiment")
    schemas = _schemas()
    if not isinstance(kind, str) or kind not in schemas:
        raise ConfigError(
            f"config needs \"experiment\" set to one of {list(schemas)}, got {kind!r}"
        )
    for path, message in _errors(cfg, schemas[kind], ""):
        raise ConfigError(f"invalid config at {path[1:] or '(top level)'}: {message}")
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
