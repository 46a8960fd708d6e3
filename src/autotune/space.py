"""Configuration spaces: parameter definitions, sampling, unit-cube encoding.

A space is an ordered list of hyperparameters of four kinds: continuous,
log-continuous, integer and categorical. Optimizers that need a numeric view
(differential evolution, Gaussian processes) work on the unit-cube encoding
produced by :func:`to_unit` / :func:`from_unit`; integer and categorical
values map to bin centers so decoding is unambiguous.

Spaces are declared in a small text format, one parameter per line::

    learning_rate: log(1e-6, 0.1)
    ent_coef: (0.0, 0.5)
    n_epochs: int[5, 20]
    batch_size: {16, 32, 64, 128}

``#`` starts a comment. :func:`render_space` emits this canonical form and
``parse_space(render_space(s))`` is the identity.
"""
from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

CONTINUOUS = "continuous"
LOG = "log-continuous"
INTEGER = "integer"
CATEGORICAL = "categorical"

_RANGED_KINDS = (CONTINUOUS, LOG, INTEGER)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*$")


class SpaceError(ValueError):
    """Invalid space definition or configuration."""


class SpaceParseError(SpaceError):
    """Syntax error in a space file; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Hyperparameter:
    """One dimension of a search space.

    Ranged kinds carry ``lower``/``upper`` bounds (inclusive); the
    categorical kind carries an ordered list of distinct choice strings.
    """

    name: str
    kind: str
    lower: float | None = None
    upper: float | None = None
    choices: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise SpaceError(f"invalid parameter name {self.name!r}")
        if self.kind == CATEGORICAL:
            if self.lower is not None or self.upper is not None:
                raise SpaceError(f"{self.name}: categorical takes no bounds")
            if len(self.choices) < 2:
                raise SpaceError(f"{self.name}: categorical needs >= 2 choices")
            if len(set(self.choices)) != len(self.choices):
                raise SpaceError(f"{self.name}: duplicate choices")
        elif self.kind in _RANGED_KINDS:
            if self.choices:
                raise SpaceError(f"{self.name}: ranged kind takes no choices")
            if self.lower is None or self.upper is None:
                raise SpaceError(f"{self.name}: missing bounds")
            if not (self.lower < self.upper):
                raise SpaceError(
                    f"{self.name}: lower ({self.lower}) must be < upper ({self.upper})"
                )
            if self.kind == LOG and self.lower <= 0:
                raise SpaceError(f"{self.name}: log-continuous requires lower > 0")
            if self.kind == INTEGER:
                for bound in (self.lower, self.upper):
                    if float(bound) != int(bound):
                        raise SpaceError(f"{self.name}: integer bounds must be whole")
        else:
            raise SpaceError(f"{self.name}: unknown kind {self.kind!r}")

    @property
    def n_values(self) -> int:
        """Number of distinct values (integer and categorical kinds only)."""
        if self.kind == INTEGER:
            return int(self.upper) - int(self.lower) + 1
        if self.kind == CATEGORICAL:
            return len(self.choices)
        raise SpaceError(f"{self.name}: {self.kind} has no finite value count")

    def contains(self, value) -> bool:
        if self.kind == CATEGORICAL:
            return value in self.choices
        if self.kind == INTEGER:
            return (
                isinstance(value, (int, np.integer))
                and self.lower <= value <= self.upper
            )
        return (
            isinstance(value, (int, float, np.floating))
            and not isinstance(value, bool)
            and self.lower <= value <= self.upper
        )


def continuous(name: str, lower: float, upper: float) -> Hyperparameter:
    return Hyperparameter(name, CONTINUOUS, float(lower), float(upper))


def log_continuous(name: str, lower: float, upper: float) -> Hyperparameter:
    return Hyperparameter(name, LOG, float(lower), float(upper))


def integer(name: str, lower: int, upper: int) -> Hyperparameter:
    return Hyperparameter(name, INTEGER, float(lower), float(upper))


def categorical(name: str, choices: Iterable[str]) -> Hyperparameter:
    return Hyperparameter(name, CATEGORICAL, choices=tuple(str(c) for c in choices))


@dataclass(frozen=True)
class ConfigSpace:
    """Ordered collection of hyperparameters; iteration order is stable."""

    params: tuple[Hyperparameter, ...]

    def __init__(self, params: Sequence[Hyperparameter]):
        params = tuple(params)
        if not params:
            raise SpaceError("a space needs at least one parameter")
        seen = set()
        for p in params:
            if p.name in seen:
                raise SpaceError(f"duplicate parameter name {p.name!r}")
            seen.add(p.name)
        object.__setattr__(self, "params", params)

    @property
    def dimension(self) -> int:
        return len(self.params)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def __getitem__(self, name: str) -> Hyperparameter:
        for p in self.params:
            if p.name == name:
                return p
        raise SpaceError(f"unknown parameter {name!r}")

    def __contains__(self, name: str) -> bool:
        return any(p.name == name for p in self.params)

    def __iter__(self):
        return iter(self.params)

    def validate(self, config: "Configuration") -> None:
        """Raise SpaceError unless ``config`` has exactly this space's values."""
        extra = set(config.values) - set(self.names)
        if extra:
            raise SpaceError(f"unknown parameters in configuration: {sorted(extra)}")
        for p in self.params:
            if p.name not in config.values:
                raise SpaceError(f"configuration missing parameter {p.name!r}")
            v = config.values[p.name]
            if not p.contains(v):
                raise SpaceError(f"{p.name}: value {v!r} outside {describe(p)}")


@dataclass(frozen=True, eq=True)
class Configuration:
    """A point in a space: one typed value per parameter.

    Ranged kinds hold numbers (integers for the integer kind), categoricals
    hold the choice string. Equality is exact value equality.
    """

    values: dict = field(default_factory=dict)

    def __getitem__(self, name: str):
        return self.values[name]

    def with_value(self, name: str, value) -> "Configuration":
        new = dict(self.values)
        new[name] = value
        return Configuration(new)


def describe(p: Hyperparameter) -> str:
    """Canonical one-token description of a parameter's kind spec."""
    if p.kind == CONTINUOUS:
        return f"({_num(p.lower)}, {_num(p.upper)})"
    if p.kind == LOG:
        return f"log({_num(p.lower)}, {_num(p.upper)})"
    if p.kind == INTEGER:
        return f"int[{int(p.lower)}, {int(p.upper)}]"
    return "{" + ", ".join(p.choices) + "}"


def _num(x: float) -> str:
    return repr(int(x)) if x == int(x) and abs(x) < 1e16 else repr(float(x))


# ---------------------------------------------------------------------------
# Text format


def parse_space(text: str) -> ConfigSpace:
    """Parse a space definition; raises SpaceParseError with line/column."""
    params: list[Hyperparameter] = []
    names: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if ":" not in line:
            raise SpaceParseError("expected 'name: kind-spec'", lineno, len(line))
        name_part, spec_part = line.split(":", 1)
        name = name_part.strip()
        if not _NAME_RE.match(name):
            col = raw.index(name_part.strip()) + 1 if name_part.strip() else 1
            raise SpaceParseError(f"invalid parameter name {name!r}", lineno, col)
        if name in names:
            raise SpaceParseError(f"duplicate parameter name {name!r}", lineno)
        spec = spec_part.strip()
        col = raw.index(spec_part.strip()) + 1 if spec_part.strip() else len(raw)
        try:
            params.append(_parse_kind_spec(name, spec))
        except SpaceParseError:
            raise
        except SpaceError as err:
            raise SpaceParseError(str(err), lineno, col) from err
        names.add(name)
    if not params:
        raise SpaceParseError("empty space definition", 1)
    return ConfigSpace(params)


def _parse_kind_spec(name: str, spec: str) -> Hyperparameter:
    if spec.startswith("log(") and spec.endswith(")"):
        lo, hi = _parse_pair(spec[4:-1])
        return log_continuous(name, lo, hi)
    if spec.startswith("int[") and spec.endswith("]"):
        lo, hi = _parse_pair(spec[4:-1])
        for b in (lo, hi):
            if b != int(b):
                raise SpaceError(f"{name}: integer bound {b} is not whole")
        return integer(name, int(lo), int(hi))
    if spec.startswith("(") and spec.endswith(")"):
        lo, hi = _parse_pair(spec[1:-1])
        return continuous(name, lo, hi)
    if spec.startswith("{") and spec.endswith("}"):
        choices = [c.strip() for c in spec[1:-1].split(",")]
        if any(not c for c in choices):
            raise SpaceError(f"{name}: empty choice")
        return categorical(name, choices)
    raise SpaceError(f"unrecognized kind spec {spec!r}")


def _parse_pair(body: str) -> tuple[float, float]:
    parts = [p.strip() for p in body.split(",")]
    if len(parts) != 2:
        raise SpaceError(f"expected two comma-separated bounds, got {body!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as err:
        raise SpaceError(f"malformed number in {body!r}") from err


def render_space(space: ConfigSpace) -> str:
    """Emit the canonical text form (parse_space round-trips it)."""
    return "".join(f"{p.name}: {describe(p)}\n" for p in space.params)


# ---------------------------------------------------------------------------
# Unit-cube encoding
#
# Decoding is the primary map; sampling draws a uniform unit vector and
# decodes it. Encoding of continuous/log values inverts the decoder exactly,
# so decode(encode(v)) == v for any value the decoder can produce: a search
# over the float grid of [0, 1] that starts at the closed-form guess (see
# _invert_decode). Values a float decode cannot hit encode to that guess.


def _ranged_decoder(p: Hyperparameter):
    """``_decode_one`` for a continuous or log parameter, bounds hoisted.

    The same float operations as ``_decode_one``, for u in [0, 1]; the
    search below calls it many times per value.
    """
    lo, hi = p.lower, p.upper
    if p.kind == CONTINUOUS:
        span = hi - lo
        return lambda u: min(max(lo + u * span, lo), hi)
    llo = math.log(lo)
    span = math.log(hi) - llo
    exp = math.exp
    return lambda u: min(max(exp(llo + u * span), lo), hi)


def _decode_one(p: Hyperparameter, u: float):
    if not (0.0 <= u <= 1.0):
        raise SpaceError(f"{p.name}: unit coordinate {u} outside [0, 1]")
    if p.kind == CONTINUOUS:
        v = p.lower + u * (p.upper - p.lower)
        return min(max(v, p.lower), p.upper)
    if p.kind == LOG:
        llo, lhi = math.log(p.lower), math.log(p.upper)
        v = math.exp(llo + u * (lhi - llo))
        return min(max(v, p.lower), p.upper)
    if p.kind == INTEGER:
        n = p.n_values
        return int(p.lower) + min(int(u * n), n - 1)
    k = len(p.choices)
    return p.choices[min(int(u * k), k - 1)]


def _encode_guess(p: Hyperparameter, v) -> float:
    if p.kind == CONTINUOUS:
        u = (v - p.lower) / (p.upper - p.lower)
    elif p.kind == LOG:
        llo, lhi = math.log(p.lower), math.log(p.upper)
        u = (math.log(v) - llo) / (lhi - llo)
    elif p.kind == INTEGER:
        u = (v - p.lower + 0.5) / p.n_values
    else:
        u = (p.choices.index(v) + 0.5) / len(p.choices)
    return min(max(u, 0.0), 1.0)


def _encode_one(p: Hyperparameter, v) -> float:
    if p.kind in (CONTINUOUS, LOG):
        exact = _invert_decode(p, v)
        if exact is not None:
            return exact
    return _encode_guess(p, v)


_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")
_ONE_BITS = _I64.unpack(_F64.pack(1.0))[0]


def _invert_decode(p: Hyperparameter, v) -> float | None:
    """Smallest unit coordinate that decodes exactly to ``v``, if any.

    The decoder is non-decreasing in u, so the answer is the first float u
    with decode(u) >= v, if that u decodes to v. The search runs on the bit
    patterns of the floats in [0, 1], which are ordered like the floats and
    one ulp apart. It gallops from the closed-form guess, doubling its step
    from one ulp, until decode(a) < v <= decode(b), then bisects inside that
    bracket. A close guess costs a handful of decodes; a guess that misses
    by k ulps costs about 2 * log2(k), and never more than about 130. The
    first two checks make decode(0) < v <= decode(1), so the gallop stops
    at 0 or 1 at the latest.
    """
    decode = _ranged_decoder(p)
    if decode(0.0) >= v:
        return 0.0 if decode(0.0) == v else None
    if not decode(1.0) >= v:
        return None
    to_float = lambda i: _F64.unpack(_I64.pack(i))[0]
    g = _I64.unpack(_F64.pack(_encode_guess(p, v)))[0]
    step = 1
    if decode(to_float(g)) < v:
        a, b = g, min(g + 1, _ONE_BITS)
        while decode(to_float(b)) < v:
            step *= 2
            a, b = b, min(b + step, _ONE_BITS)
    else:
        a, b = max(g - 1, 0), g
        while not decode(to_float(a)) < v:
            step *= 2
            a, b = max(a - step, 0), a
    while b - a > 1:
        m = (a + b) // 2
        if decode(to_float(m)) < v:
            a = m
        else:
            b = m
    u = to_float(b)
    return u if decode(u) == v else None


def to_unit(space: ConfigSpace, config: Configuration) -> np.ndarray:
    """Encode a configuration as a vector in [0, 1]^dimension."""
    space.validate(config)
    return np.array(
        [_encode_one(p, config.values[p.name]) for p in space.params], dtype=float
    )


def from_unit(space: ConfigSpace, vector) -> Configuration:
    """Decode a unit vector into a configuration."""
    vec = np.asarray(vector, dtype=float)
    if vec.shape != (space.dimension,):
        raise SpaceError(
            f"expected vector of length {space.dimension}, got shape {vec.shape}"
        )
    return Configuration(
        {p.name: _decode_one(p, float(u)) for p, u in zip(space.params, vec)}
    )


def sample(space: ConfigSpace, rng: np.random.Generator) -> Configuration:
    """Draw a configuration uniformly (log kinds uniform in log domain)."""
    return from_unit(space, np.asarray(rng.random(space.dimension), dtype=float))


# ---------------------------------------------------------------------------
# Perturbation (the explore move used by population-based training)


def check_settings(rules: dict, settings: dict, error: type = ValueError) -> None:
    """Raise ``error`` for the first of ``settings`` outside its range.

    ``rules`` maps a setting's name to (test, its range in words). Settings
    without a rule, and rules for settings left out, are skipped.
    """
    for name, (ok, allowed) in rules.items():
        if name in settings and not ok(settings[name]):
            raise error(f"{name} must be {allowed}, got {settings[name]!r}")


# perturb's settings: name -> (test, its range in words)
PERTURB_RULES = {
    "factor_up": (lambda v: v > 0, "> 0"),
    "factor_down": (lambda v: v > 0, "> 0"),
    "resample_prob": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
}


def perturb(
    space: ConfigSpace,
    config: Configuration,
    rng: np.random.Generator,
    factor_up: float = 1.2,
    factor_down: float = 0.8,
    resample_prob: float = 0.25,
) -> Configuration:
    """Multiply each ranged value by factor_up or factor_down (50/50) and clip;
    resample each categorical uniformly with probability ``resample_prob``.

    Ranged kinds act in their native domain; integers round half away from
    zero and move by at least 1 when the chosen factor is not 1.
    """
    check_settings(PERTURB_RULES, locals(), SpaceError)  # locals() holds just the arguments here
    space.validate(config)
    new = {}
    for p in space.params:
        v = config.values[p.name]
        if p.kind == CATEGORICAL:
            if float(rng.random()) < resample_prob:
                k = len(p.choices)
                v = p.choices[min(int(rng.random() * k), k - 1)]
            new[p.name] = v
            continue
        factor = factor_up if float(rng.random()) < 0.5 else factor_down
        if p.kind == INTEGER:
            scaled = v * factor
            r = int(math.floor(abs(scaled) + 0.5)) * (1 if scaled >= 0 else -1)
            if r == v and factor != 1.0:
                r = v + (1 if factor > 1.0 else -1)
            new[p.name] = int(min(max(r, int(p.lower)), int(p.upper)))
        else:
            new[p.name] = min(max(v * factor, p.lower), p.upper)
    return Configuration(new)
