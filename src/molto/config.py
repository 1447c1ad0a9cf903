"""Flat key = value configuration files for the benchmark problems.

Every key has one entry in ``_RULES``, its range rule. Its default, and with
it its type, is read from the object that takes the key: ``RunConfig``,
``MaterialParams``, ``ASDConfig`` or the problem kind's factory. Unknown
keys, repeated keys and empty values are rejected with their line numbers;
every default that fills a missing key is reported as a warning so nothing
is overridden silently.
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass, field, fields
from typing import Callable

from . import problems
from .asd import ASDConfig, same_weight
from .elasticity import MaterialParams
from .errors import ConfigError, InvalidArgument, TagMatchError
from .optimizer import RunConfig
from .weights import in_open_simplex

def _positive(v):
    return v > 0


def _fraction(v):
    return 0.0 < v < 1.0


def _nonneg(v):
    return v >= 0


# key -> range rule, or None where every value of the key's type is admitted;
# a kind's keys are listed (and their defaults warned) in this order
_RULES = {
    # RunConfig
    "max_iterations": _positive, "window": lambda v: v >= 2,
    "tol_objective": _positive, "tol_constraint": _positive,
    "wave_speed": _positive, "wave_damping": _nonneg,
    "interface_width": _positive, "step_size": _positive,
    "weight_inertia": _positive, "weight_damping": _positive,
    "weight_stiffness": _positive, "weight_clamp": lambda v: 0.0 < v < 0.5,
    "weight_ratio": _nonneg, "penalty": _positive, "multiplier_init": _nonneg,
    # MaterialParams
    "young": _positive, "poisson": lambda v: 0.0 <= v < 0.5,
    "ersatz_exponent": lambda v: v > 1.0, "ersatz_floor": _fraction,
    # ASDConfig, then the sweep's own keys
    "edge_tolerance": _positive, "max_levels": _nonneg,
    "dedup_tolerance": _nonneg, "jobs": _positive,
    "out_dir": None, "weights_init": None,
    # problem factory keywords
    "traction": _positive, "length": _positive, "nx": _positive, "ny": _positive,
    "outer": _positive, "cut": _positive, "volume_fraction": _fraction,
    "spring_in": _nonneg, "spring_out": _nonneg, "dir_in": None, "dir_out": None,
    "stress_exponent": lambda v: v >= 1.0, "yield_stress": _positive,
    "stress_limit": _positive, "filter_eta": _nonneg, "filter_gamma": _positive,
}

# config key -> MaterialParams field
_MATERIAL_FIELDS = {"young": "young", "poisson": "poisson",
                    "ersatz_exponent": "exponent", "ersatz_floor": "floor"}


def _keys(defaults: dict) -> dict:
    """The entries of ``defaults`` that are config keys, in ``_RULES`` order."""
    return {key: defaults[key] for key in _RULES if key in defaults}


# key -> default; weights_init has none and must be given
_SWEEP_KEYS = _keys({**vars(ASDConfig()), "out_dir": "molto_out",
                     "weights_init": None})
_FEM_KEYS = _keys({**vars(RunConfig()),
                   **{key: getattr(MaterialParams(), name)
                      for key, name in _MATERIAL_FIELDS.items()},
                   **_SWEEP_KEYS})


@dataclass
class ProblemConfig:
    kind: str
    values: dict = field(default_factory=dict)

    def _fields_of(self, cls) -> dict:
        return {f.name: self.values[f.name] for f in fields(cls)
                if f.name in self.values}

    def run_config(self) -> RunConfig:
        return RunConfig(**self._fields_of(RunConfig))

    def asd_config(self) -> ASDConfig:
        return ASDConfig(**self._fields_of(ASDConfig), run=self.run_config())

    def initial_weights(self):
        return [tuple(w) for w in self.values["weights_init"]]

    def material(self) -> MaterialParams:
        return MaterialParams(**{name: self.values[key]
                                 for key, name in _MATERIAL_FIELDS.items()})

    def build_problem(self):
        """The problem this configuration describes; a value the schema
        admits but the problem rejects is a configuration error too, and so
        are initial weights of another dimension than its objective count."""
        try:
            problem = KINDS[self.kind].build(self)
        except (InvalidArgument, TagMatchError) as exc:
            raise ConfigError(f"{self.kind}: {exc}") from exc
        m = len(self.values["weights_init"][0])
        if problem.num_objectives != m:
            raise ConfigError(f"{self.kind} requires {problem.num_objectives} "
                              f"objectives, weights_init has {m}")
        return problem


@dataclass(frozen=True)
class Kind:
    """What a problem kind is: its keys with their defaults, and its factory."""

    keys: dict
    build: Callable[[ProblemConfig], object]


def _fem_kind(make) -> Kind:
    """The kind built by ``make``: its keys are the common ones plus each
    factory keyword that has a rule, defaulting to the factory's default."""
    params = inspect.signature(make).parameters
    args = _keys({name: p.default for name, p in params.items()})

    def build(c: ProblemConfig):
        return make(**{key: c.values[key] for key in args}, mat=c.material())

    return Kind(_keys({**_FEM_KEYS, **args}), build)


KINDS = {
    "girder": _fem_kind(problems.make_girder),
    "gripper": _fem_kind(problems.make_gripper),
    "lbracket": _fem_kind(problems.make_lbracket),
    "clamped_tri": _fem_kind(problems.make_clamped_tri),
    "surrogate": Kind(_SWEEP_KEYS, lambda c: problems.SurrogateProblem(
        len(c.initial_weights()[0]))),
}


def _finite(raw) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw} is not a finite number")
    return value


def _parse_value(key, default, raw):
    """``raw`` read as the type of ``default``; ``weights_init``, which has no
    default, is a ``;``-separated list of vectors. Raises ValueError."""
    if key == "weights_init":
        vectors = [tuple(_finite(p) for p in g.split())
                   for g in raw.split(";") if g.strip()]
        if not vectors:
            raise ValueError("no weight vectors given")
        return vectors
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return _finite(raw)
    if isinstance(default, tuple):
        parts = tuple(_finite(p) for p in raw.split())
        if len(parts) != 2:
            raise ValueError("expected two components")
        return parts
    return raw


def _validate(config: ProblemConfig, source: str, lines: dict):
    """The rules that relate several values; each error names the source
    and the lines of the keys it is about."""
    v = config.values
    weights = v["weights_init"]
    at = f"{source}: line {lines['weights_init']}"
    m = len(weights[0])
    if any(len(w) != m for w in weights):
        raise ConfigError(f"{at}: weights_init vectors have inconsistent dimensions")
    for w in weights:
        if not in_open_simplex(w):
            raise ConfigError(f"{at}: weights_init vector {w} is not in the open simplex")
    # the refinement loop's own rules, checked before any candidate runs
    if len(weights) < m:
        raise ConfigError(f"{at}: weights_init has {len(weights)} vectors, "
                          f"{m} objectives need at least {m}")
    for i in range(1, len(weights)):
        if same_weight(weights[i], weights[:i]).any():
            raise ConfigError(f"{at}: weights_init repeats the vector {weights[i]}")
    if "window" in v and v["max_iterations"] < v["window"]:
        # the defaults satisfy the rule, so at least one of the two is given
        given = [str(lines[k]) for k in ("max_iterations", "window") if k in lines]
        where = f"line {given[0]}" if len(given) == 1 else f"lines {' and '.join(given)}"
        raise ConfigError(f"{source}: {where}: max_iterations ({v['max_iterations']}) "
                          f"must be at least window ({v['window']})")


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
    keys = KINDS[kind].keys

    values = {}
    for key, raw in entries.items():
        if key not in keys:
            raise ConfigError(f"{source}: line {lines[key]}: unknown key "
                              f"'{key}' for problem '{kind}'")
        try:
            value = _parse_value(key, keys[key], raw)
        except ValueError as exc:
            raise ConfigError(f"{source}: line {lines[key]}: cannot parse "
                              f"'{key}': {exc}") from exc
        rule = _RULES[key]
        if rule is not None and not rule(value):
            raise ConfigError(f"{source}: line {lines[key]}: value {raw!r} "
                              f"out of range for '{key}'")
        values[key] = value
    for key, default in keys.items():
        if key not in values:
            if default is None:
                raise ConfigError(f"{source}: missing required key '{key}'")
            values[key] = default
            warnings.warn(f"{source}: using default {key} = {default}")

    config = ProblemConfig(kind=kind, values=values)
    _validate(config, source, lines)
    return config


def load_config(path) -> ProblemConfig:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    return parse_config(text, source=str(path))

