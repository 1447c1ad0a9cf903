"""Flat key = value configuration files for the benchmark problems.

Every key a problem kind understands has a typed schema entry with a default
and an optional range check. Unknown keys, repeated keys and empty values
are rejected with their line numbers; every default that fills a missing key
is reported as a warning so nothing is overridden silently.
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

from . import problems
from .asd import ASDConfig, same_weight
from .elasticity import MaterialParams
from .errors import ConfigError, InvalidArgument, TagMatchError
from .optimizer import RunConfig

def _positive(v):
    return v > 0


def _fraction(v):
    return 0.0 < v < 1.0


def _nonneg(v):
    return v >= 0


def _defaults_of(defaults, entries):
    """key -> (type tag, validator) entries, defaulting to ``defaults[key]``."""
    return {key: (tag, defaults[key], validator)
            for key, (tag, validator) in entries.items()}


# key -> (type tag, default, validator or None)
_RUN_KEYS = _defaults_of(vars(RunConfig()), {
    "max_iterations": ("int", _positive),
    "window": ("int", lambda v: v >= 2),
    "tol_objective": ("float", _positive),
    "tol_constraint": ("float", _positive),
    "wave_speed": ("float", _positive),
    "wave_damping": ("float", _nonneg),
    "interface_width": ("float", _positive),
    "step_size": ("float", _positive),
    "weight_inertia": ("float", _positive),
    "weight_damping": ("float", _positive),
    "weight_stiffness": ("float", _positive),
    "weight_clamp": ("float", lambda v: 0.0 < v < 0.5),
    "weight_ratio": ("float", _nonneg),
    "penalty": ("float", _positive),
    "multiplier_init": ("float", _nonneg),
})

# config key -> MaterialParams field
_MATERIAL_FIELDS = {"young": "young", "poisson": "poisson",
                    "ersatz_exponent": "exponent", "ersatz_floor": "floor"}

_MATERIAL_KEYS = _defaults_of(
    {key: getattr(MaterialParams(), name) for key, name in _MATERIAL_FIELDS.items()}, {
        "young": ("float", _positive),
        "poisson": ("float", lambda v: 0.0 <= v < 0.5),
        "ersatz_exponent": ("float", lambda v: v > 1.0),
        "ersatz_floor": ("float", _fraction),
    })

_ASD_FIELDS = _defaults_of(vars(ASDConfig()), {
    "edge_tolerance": ("float", _positive),
    "max_levels": ("int", _nonneg),
    "dedup_tolerance": ("float", _nonneg),
    "jobs": ("int", _positive),
})

_ASD_KEYS = {
    **_ASD_FIELDS,
    "out_dir": ("str", "molto_out", None),
    "weights_init": ("weights", None, None),
}

_FEM_COMMON = {**_RUN_KEYS, **_MATERIAL_KEYS, **_ASD_KEYS}

# factory keyword -> (type tag, validator); the defaults are the factory's
_BEAM_ARGS = {
    "traction": ("float", _positive),
    "length": ("float", _positive),
    "nx": ("int", _positive),
    "ny": ("int", _positive),
    "volume_fraction": ("float", _fraction),
}

_GRIPPER_ARGS = {
    "traction": ("float", _positive),
    "nx": ("int", _positive),
    "ny": ("int", _positive),
    "volume_fraction": ("float", _fraction),
    "spring_in": ("float", _nonneg),
    "spring_out": ("float", _nonneg),
    "dir_in": ("vector", None),
    "dir_out": ("vector", None),
}

_LBRACKET_ARGS = {
    "traction": ("float", _positive),
    "nx": ("int", _positive),
    "outer": ("float", _positive),
    "cut": ("float", _positive),
    "stress_exponent": ("float", lambda v: v >= 1.0),
    "yield_stress": ("float", _positive),
    "stress_limit": ("float", _positive),
    "filter_eta": ("float", _nonneg),
    "filter_gamma": ("float", _positive),
}


@dataclass
class ProblemConfig:
    kind: str
    values: dict = field(default_factory=dict)

    def run_config(self) -> RunConfig:
        return RunConfig(**{k: self.values[k] for k in _RUN_KEYS if k in self.values})

    def asd_config(self) -> ASDConfig:
        return ASDConfig(**{k: self.values[k] for k in _ASD_FIELDS},
                         run=self.run_config())

    def initial_weights(self):
        return [tuple(w) for w in self.values["weights_init"]]

    def material(self) -> MaterialParams:
        return MaterialParams(**{name: self.values[key]
                                 for key, name in _MATERIAL_FIELDS.items()})

    def build_problem(self):
        """The problem this configuration describes; a value the schema
        admits but the problem rejects is a configuration error too."""
        try:
            return KINDS[self.kind].build(self)
        except (InvalidArgument, TagMatchError) as exc:
            raise ConfigError(f"{self.kind}: {exc}") from exc


def _surrogate(c: ProblemConfig):
    return problems.SurrogateProblem(len(c.initial_weights()[0]))


@dataclass(frozen=True)
class Kind:
    """What a problem kind is: its keys, objective count and factory."""

    schema: dict
    num_objectives: int | None  # None: as many as weights_init gives
    build: Callable[[ProblemConfig], object]


def _fem_kind(make, args, m) -> Kind:
    """The kind built by ``make``: its keys are the common ones plus the
    factory keywords ``args``, each defaulting to the factory's default."""
    defaults = {k: p.default for k, p in inspect.signature(make).parameters.items()}

    def build(c: ProblemConfig):
        return make(**{key: c.values[key] for key in args}, mat=c.material())

    return Kind({**_FEM_COMMON, **_defaults_of(defaults, args)}, m, build)


KINDS = {
    "girder": _fem_kind(problems.make_girder, _BEAM_ARGS, 2),
    "gripper": _fem_kind(problems.make_gripper, _GRIPPER_ARGS, 2),
    "lbracket": _fem_kind(problems.make_lbracket, _LBRACKET_ARGS, 2),
    "clamped_tri": _fem_kind(problems.make_clamped_tri, _BEAM_ARGS, 3),
    "surrogate": Kind(_ASD_KEYS, None, _surrogate),
}


def _finite(raw) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw} is not a finite number")
    return value


def _parse_value(kind_tag, raw, key, lineno):
    try:
        if kind_tag == "int":
            return int(raw)
        if kind_tag == "float":
            return _finite(raw)
        if kind_tag == "str":
            return raw
        if kind_tag == "vector":
            parts = tuple(_finite(p) for p in raw.split())
            if len(parts) != 2:
                raise ValueError("expected two components")
            return parts
        if kind_tag == "weights":
            vectors = [tuple(_finite(p) for p in g.split())
                       for g in raw.split(";") if g.strip()]
            if not vectors:
                raise ValueError("no weight vectors given")
            return vectors
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: cannot parse '{key}': {exc}") from exc
    raise ConfigError(f"unknown schema type {kind_tag}")


def _validate(config: ProblemConfig):
    v = config.values
    weights = v["weights_init"]
    m = len(weights[0])
    if any(len(w) != m for w in weights):
        raise ConfigError("weights_init vectors have inconsistent dimensions")
    for w in weights:
        if abs(sum(w) - 1.0) > 1e-9 or any(c <= 0.0 or c >= 1.0 for c in w):
            raise ConfigError(f"weights_init vector {w} is not in the open simplex")
    expected = KINDS[config.kind].num_objectives
    if expected is not None and m != expected:
        raise ConfigError(f"{config.kind} requires {expected} "
                          f"objectives, weights_init has {m}")
    # the refinement loop's own rules, checked before any candidate runs
    if len(weights) < m:
        raise ConfigError(f"weights_init has {len(weights)} vectors, "
                          f"{m} objectives need at least {m}")
    for i, w in enumerate(weights):
        if any(same_weight(w, other) for other in weights[:i]):
            raise ConfigError(f"weights_init repeats the vector {w}")
    if "window" in v and v["max_iterations"] < v["window"]:
        raise ConfigError(f"max_iterations ({v['max_iterations']}) must be at "
                          f"least window ({v['window']})")


def parse_config(text: str, source: str = "<string>") -> ProblemConfig:
    entries = {}
    lines = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in lines:
            raise ConfigError(f"{source}: lines {lines[key]} and {lineno}: "
                              f"key '{key}' given twice")
        if not raw:
            raise ConfigError(f"{source}: line {lineno}: empty value for '{key}'")
        entries[key] = raw
        lines[key] = lineno

    kind = entries.pop("problem", None)
    if kind is None:
        raise ConfigError(f"{source}: missing required key 'problem'")
    if kind not in KINDS:
        raise ConfigError(f"{source}: line {lines['problem']}: unknown problem "
                          f"kind '{kind}' (choose from {', '.join(KINDS)})")
    schema = KINDS[kind].schema

    values = {}
    for key, raw in entries.items():
        if key not in schema:
            raise ConfigError(f"{source}: line {lines[key]}: unknown key "
                              f"'{key}' for problem '{kind}'")
        tag, _, validator = schema[key]
        value = _parse_value(tag, raw, key, lines[key])
        if validator is not None and not validator(value):
            raise ConfigError(f"{source}: line {lines[key]}: value {raw!r} "
                              f"out of range for '{key}'")
        values[key] = value
    for key, (tag, default, _) in schema.items():
        if key not in values:
            if default is None:
                raise ConfigError(f"{source}: missing required key '{key}'")
            values[key] = default
            warnings.warn(f"{source}: using default {key} = {default}")

    config = ProblemConfig(kind=kind, values=values)
    _validate(config)
    return config


def load_config(path) -> ProblemConfig:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=str(path))

