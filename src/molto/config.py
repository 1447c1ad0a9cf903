"""Flat key = value configuration files for the benchmark problems.

Every key a problem kind understands has a typed schema entry with a default
and an optional range check. Unknown keys are rejected with their line
number; every default that fills a missing key is reported as a warning so
nothing is overridden silently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

from . import problems
from .asd import ASDConfig
from .elasticity import MaterialParams
from .errors import ConfigError, InvalidArgument, TagMatchError
from .optimizer import RunConfig

def _positive(v):
    return v > 0


def _fraction(v):
    return 0.0 < v < 1.0


def _nonneg(v):
    return v >= 0


def _defaults_of(instance, entries):
    """key -> (type tag, validator) entries, defaulting to ``instance``'s fields."""
    return {key: (tag, getattr(instance, key), validator)
            for key, (tag, validator) in entries.items()}


# key -> (type tag, default, validator or None)
_RUN_KEYS = _defaults_of(RunConfig(), {
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

_MATERIAL_KEYS = {
    "young": ("float", 1.0, _positive),
    "poisson": ("float", 0.3, lambda v: 0.0 <= v < 0.5),
    "ersatz_exponent": ("float", 3.0, lambda v: v > 1.0),
    "ersatz_floor": ("float", 1e-3, _fraction),
}

_ASD_FIELDS = _defaults_of(ASDConfig(), {
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

_FEM_COMMON = {
    **_RUN_KEYS, **_MATERIAL_KEYS, **_ASD_KEYS,
    "traction": ("float", 1.0, _positive),
}

_BEAM_KEYS = {
    **_FEM_COMMON,
    "length": ("float", 1.0, _positive),
    "nx": ("int", 60, _positive),
    "ny": ("int", 30, _positive),
    "volume_fraction": ("float", 0.45, _fraction),
}

_GRIPPER_KEYS = {
    **_FEM_COMMON,
    "nx": ("int", 40, _positive),
    "ny": ("int", 20, _positive),
    "volume_fraction": ("float", 0.30, _fraction),
    "spring_in": ("float", 1e5, _nonneg),
    "spring_out": ("float", 1e3, _nonneg),
    "dir_in": ("vector", (1.0, 0.0), None),
    "dir_out": ("vector", (0.0, -1.0), None),
}

_LBRACKET_KEYS = {
    **_FEM_COMMON,
    "nx": ("int", 40, _positive),
    "outer": ("float", 1.0, _positive),
    "cut": ("float", 0.6, _positive),
    "stress_exponent": ("float", 5.0, lambda v: v >= 1.0),
    "yield_stress": ("float", 42.0, _positive),
    "stress_limit": ("float", 0.05, _positive),
    "filter_eta": ("float", 1e-4, _nonneg),
    "filter_gamma": ("float", 2.0, _positive),
}


@dataclass
class ProblemConfig:
    kind: str
    values: dict = field(default_factory=dict)
    applied_defaults: list = field(default_factory=list, compare=False)

    def __getitem__(self, key):
        return self.values[key]

    def run_config(self) -> RunConfig:
        return RunConfig(**{k: self.values[k] for k in _RUN_KEYS if k in self.values})

    def asd_config(self) -> ASDConfig:
        return ASDConfig(**{k: self.values[k] for k in _ASD_FIELDS},
                         run=self.run_config())

    def initial_weights(self):
        return [tuple(w) for w in self.values["weights_init"]]

    def material(self) -> MaterialParams:
        v = self.values
        return MaterialParams(young=v["young"], poisson=v["poisson"],
                              exponent=v["ersatz_exponent"],
                              floor=v["ersatz_floor"])

    def build_problem(self):
        """The problem this configuration describes; a value the schema
        admits but the problem rejects is a configuration error too."""
        try:
            return KINDS[self.kind].build(self)
        except (InvalidArgument, TagMatchError) as exc:
            raise ConfigError(f"{self.kind}: {exc}") from exc


def _beam(make):
    def build(c: ProblemConfig):
        return make(nx=c["nx"], ny=c["ny"], traction=c["traction"],
                    length=c["length"], volume_fraction=c["volume_fraction"],
                    mat=c.material())
    return build


def _gripper(c: ProblemConfig):
    return problems.make_gripper(
        nx=c["nx"], ny=c["ny"], traction_mag=c["traction"],
        spring_in=c["spring_in"], spring_out=c["spring_out"],
        dir_in=c["dir_in"], dir_out=c["dir_out"],
        volume_fraction=c["volume_fraction"], mat=c.material())


def _lbracket(c: ProblemConfig):
    return problems.make_lbracket(
        nx=c["nx"], outer=c["outer"], cut=c["cut"],
        traction_mag=c["traction"], stress_exponent=c["stress_exponent"],
        yield_stress=c["yield_stress"], stress_limit=c["stress_limit"],
        filter_eta=c["filter_eta"], filter_gamma=c["filter_gamma"],
        mat=c.material())


def _surrogate(c: ProblemConfig):
    return problems.SurrogateProblem(len(c.initial_weights()[0]))


@dataclass(frozen=True)
class Kind:
    """What a problem kind is: its keys, objective count and factory."""

    schema: dict
    num_objectives: int | None  # None: as many as weights_init gives
    build: Callable[[ProblemConfig], object]


KINDS = {
    "girder": Kind(_BEAM_KEYS, 2, _beam(problems.make_girder)),
    "gripper": Kind(_GRIPPER_KEYS, 2, _gripper),
    "lbracket": Kind(_LBRACKET_KEYS, 2, _lbracket),
    "clamped_tri": Kind(_BEAM_KEYS, 3, _beam(problems.make_clamped_tri)),
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
    if config.kind == "lbracket" and not v["cut"] < v["outer"]:
        raise ConfigError("cut must be smaller than outer")
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
        entries[key] = raw
        lines[key] = lineno

    kind = entries.pop("problem", None)
    if kind is None:
        raise ConfigError(f"{source}: missing required key 'problem'")
    if kind not in KINDS:
        raise ConfigError(f"{source}: line {lines['problem']}: unknown problem "
                          f"kind '{kind}' (choose from {', '.join(KINDS)})")
    schema = KINDS[kind].schema

    values, applied_defaults = {}, []
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
            applied_defaults.append(key)
            warnings.warn(f"{source}: using default {key} = {default}")

    config = ProblemConfig(kind=kind, values=values,
                           applied_defaults=applied_defaults)
    _validate(config)
    return config


def load_config(path) -> ProblemConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=str(path))


def serialize_config(config: ProblemConfig) -> str:
    out = [f"problem = {config.kind}"]
    for key in KINDS[config.kind].schema:
        value = config.values[key]
        if key == "weights_init":
            rendered = " ; ".join(" ".join(repr(c) for c in w) for w in value)
        elif isinstance(value, tuple):
            rendered = " ".join(repr(c) for c in value)
        else:
            rendered = repr(value) if isinstance(value, float) else str(value)
        out.append(f"{key} = {rendered}")
    return "\n".join(out) + "\n"
