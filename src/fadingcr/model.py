"""Domain types, configuration and validation for the fading CR channel.

Conventions: all second moments are in linear power units, rates are in
bits per channel use unless the log base is switched to natural.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Union

#: Smallest admissible distortion, as a fraction of the state variance Q.
DMIN_FACTOR = 1e-9

#: Log bases accepted throughout the package.
LOG_BASE_BITS = 2.0
LOG_BASE_NATS = math.e


class ConfigError(ValueError):
    """A channel/fading/coding parameter violates its invariant."""


@dataclass(frozen=True)
class ChannelParams:
    """Static channel description: state variance Q, noise variance, power budget."""

    Q: float
    sigma_z2: float
    P_avg: float

    def validate(self) -> None:
        if not (math.isfinite(self.Q) and self.Q > 0):
            raise ConfigError("Q must be positive")
        if not (math.isfinite(self.sigma_z2) and self.sigma_z2 > 0):
            raise ConfigError("sigma_z2 must be positive")
        if not (math.isfinite(self.P_avg) and self.P_avg >= 0):
            raise ConfigError("P_avg must be nonnegative")

    @property
    def d_min(self) -> float:
        return DMIN_FACTOR * self.Q


@dataclass(frozen=True)
class Rayleigh:
    """Fading amplitude with density 2g*exp(-g^2), g >= 0 (E[G^2] = 1)."""

    def validate(self) -> None:
        pass


@dataclass(frozen=True)
class Degenerate:
    """Constant fading amplitude g0 (the static-channel special case)."""

    g0: float = 1.0

    def validate(self) -> None:
        if not (math.isfinite(self.g0) and self.g0 >= 0):
            raise ConfigError("degenerate fading amplitude g0 must be nonnegative")


@dataclass(frozen=True)
class Discrete:
    """Finite fading PMF over distinct nonnegative amplitudes."""

    points: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(float(p) for p in self.points))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))

    def validate(self) -> None:
        if len(self.points) == 0 or len(self.points) != len(self.probs):
            raise ConfigError("discrete fading needs equally many points and probs")
        if any(not math.isfinite(p) or p < 0 for p in self.points):
            raise ConfigError("discrete fading points must be nonnegative")
        if len(set(self.points)) != len(self.points):
            raise ConfigError("discrete fading points must be distinct")
        if any(not math.isfinite(p) or p < 0 for p in self.probs):
            raise ConfigError("discrete fading probs must be nonnegative")
        if abs(math.fsum(self.probs) - 1.0) > 1e-12:
            raise ConfigError("discrete fading probs must sum to 1 within 1e-12")


FadingModel = Union[Rayleigh, Degenerate, Discrete]


def in_disk(rho1: float, rho2: float) -> bool:
    """The unit-disk test of CodingParams, in the exact floating-point form it applies.

    ``rho1 ** 2`` and ``rho1 * rho1`` can round differently, so solvers that
    must emit valid pairs test them with this function.
    """
    return rho1 ** 2 + rho2 ** 2 <= 1.0


@dataclass(frozen=True)
class CodingParams:
    """The (rho1, rho2, d) triple parameterizing the achievable region."""

    rho1: float
    rho2: float
    d: float

    def violation(self, ch: ChannelParams) -> str | None:
        """First violated invariant as a message, or None if the triple is valid."""
        for name, v in (("rho1", self.rho1), ("rho2", self.rho2), ("d", self.d)):
            if not math.isfinite(v):
                return f"{name} must be finite"
        if not in_disk(self.rho1, self.rho2):
            return "rho1^2 + rho2^2 must not exceed 1"
        if self.d < ch.d_min:
            return f"d must be at least the floor {ch.d_min:g}"
        if self.d > ch.Q:
            return "d must not exceed Q"
        return None

    def validate(self, ch: ChannelParams) -> None:
        msg = self.violation(ch)
        if msg is not None:
            raise ConfigError(msg)


@dataclass(frozen=True)
class PerStatePolicy:
    """Tabulated per-fading-state policy (P(g), rho1(g), rho2(g)) on quadrature nodes."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    power: tuple[float, ...]
    rho1: tuple[float, ...]
    rho2: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("nodes", "weights", "power", "rho1", "rho2"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))

    def validate(self) -> None:
        n = len(self.nodes)
        for name in ("weights", "power", "rho1", "rho2"):
            if len(getattr(self, name)) != n:
                raise ConfigError(f"policy field {name} length must equal nodes length")
        if abs(math.fsum(self.weights) - 1.0) > 1e-10:
            raise ConfigError("policy weights must sum to 1 within 1e-10")
        if any(p < 0 for p in self.power):
            raise ConfigError("policy powers must be nonnegative")
        if any(r1 * r1 + r2 * r2 > 1.0 + 1e-12 for r1, r2 in zip(self.rho1, self.rho2)):
            raise ConfigError("policy rho pairs must lie in the unit disk")

    @staticmethod
    def constant(nodes, weights, P: float, rho1: float, rho2: float) -> "PerStatePolicy":
        n = len(nodes)
        return PerStatePolicy(tuple(nodes), tuple(weights), (P,) * n, (rho1,) * n, (rho2,) * n)

    @staticmethod
    def silent(nodes, weights) -> "PerStatePolicy":
        return PerStatePolicy.constant(nodes, weights, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Config:
    """Resolved run configuration: channel, fading law, quadrature size, log base."""

    channel: ChannelParams
    fading: FadingModel = field(default_factory=Rayleigh)
    quadrature_nodes: int = 64
    log_base: float = LOG_BASE_BITS

    def validate(self) -> None:
        """Raise ConfigError naming the first violated invariant; return on success."""
        self.channel.validate()
        self.fading.validate()
        if self.quadrature_nodes < 1:
            raise ConfigError("quadrature_nodes must be at least 1")
        if self.log_base not in (LOG_BASE_BITS, LOG_BASE_NATS):
            raise ConfigError('log_base must be 2 or "e"')


def _fading_to_dict(fading: FadingModel) -> dict:
    if isinstance(fading, Rayleigh):
        return {"type": "rayleigh"}
    if isinstance(fading, Degenerate):
        return {"type": "degenerate", "g": fading.g0}
    if isinstance(fading, Discrete):
        return {"type": "discrete", "points": list(fading.points), "probs": list(fading.probs)}
    raise ConfigError(f"unknown fading model {type(fading).__name__}")


def _fading_from_dict(obj: dict) -> FadingModel:
    kind = obj.get("type")
    if kind == "rayleigh":
        return Rayleigh()
    if kind == "degenerate":
        return Degenerate(g0=float(obj.get("g", 1.0)))
    if kind == "discrete":
        return Discrete(points=tuple(obj["points"]), probs=tuple(obj["probs"]))
    raise ConfigError(f'fading type must be one of "rayleigh", "degenerate", "discrete", got {kind!r}')


def config_to_dict(cfg: Config) -> dict:
    return {
        "Q": cfg.channel.Q,
        "sigma_z2": cfg.channel.sigma_z2,
        "P_avg": cfg.channel.P_avg,
        "fading": _fading_to_dict(cfg.fading),
        "quadrature_nodes": cfg.quadrature_nodes,
        "log_base": 2 if cfg.log_base == LOG_BASE_BITS else "e",
    }


def config_from_dict(obj: dict) -> Config:
    try:
        channel = ChannelParams(
            Q=float(obj["Q"]), sigma_z2=float(obj["sigma_z2"]), P_avg=float(obj["P_avg"])
        )
    except KeyError as exc:
        raise ConfigError(f"config is missing required key {exc.args[0]!r}") from None
    base_raw = obj.get("log_base", 2)
    if base_raw in (2, 2.0, "2"):
        base = LOG_BASE_BITS
    elif base_raw == "e":
        base = LOG_BASE_NATS
    else:
        raise ConfigError('log_base must be 2 or "e"')
    cfg = Config(
        channel=channel,
        fading=_fading_from_dict(obj.get("fading", {"type": "rayleigh"})),
        quadrature_nodes=int(obj.get("quadrature_nodes", 64)),
        log_base=base,
    )
    cfg.validate()
    return cfg


def config_to_json(cfg: Config) -> str:
    return json.dumps(config_to_dict(cfg), indent=2) + "\n"


def config_from_json(text: str) -> Config:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError("config JSON must be an object")
    return config_from_dict(obj)
