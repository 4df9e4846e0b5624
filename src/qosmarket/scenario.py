"""Scenario files: a JSON description of one market configuration.

A scenario bundles the valuation distribution, candidate entrant
technologies, an optional incumbent, posted prices, and dynamics
settings.  Relative file references (tabulated densities or QoS curves)
resolve against the scenario file's directory.  Problems raise
:class:`ScenarioError` naming the file and the offending key; a key the
format does not know (a typo such as ``"incumbant"``) is one of them, as
is a technology name used twice or the stay-out option's ``"not-enter"``.
Only ``metadata`` is free-form.  A section's ``kind`` names a row of its
table in ``_KINDS``: the constructor and the keys it takes.

Example::

    {
      "name": "two-tech market",
      "distribution": {"kind": "uniform", "beta": 1.0},
      "incumbent": {"q1": 1.687},
      "technologies": [
        {"name": "split", "cost": 0.05,
         "qos": {"kind": "linear", "q_bar": 1.633, "c": 0.088}}
      ],
      "prices": {"p1": 0.58, "p2": 0.53},
      "dynamics": {"variant": {"kind": "synchronous"}, "lambda0": 0.0,
                   "max_iter": 10000, "tol": 1e-10},
      "metadata": {"anything": "goes"}
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .duopoly import _check_incumbent
from .errors import MarketError, ScenarioError
from .monopoly import (
    MonopolyVariant,
    Partial,
    PositiveExternality,
    SwitchingCost,
    Synchronous,
)
from .qos import QoSModel, Technology
from .valuation import ValuationDistribution

__all__ = ["DynamicsSpec", "Scenario", "load_scenario"]


@dataclass(frozen=True)
class DynamicsSpec:
    """Simulation settings: update variant, start state, budget, tolerance."""

    variant: MonopolyVariant
    lambda0: float | tuple[float, float]
    max_iter: int = 10_000
    tol: float = 1e-10


@dataclass(frozen=True)
class Scenario:
    """One parsed scenario file."""

    name: str
    dist: ValuationDistribution
    technologies: tuple[Technology, ...]
    q1: float | None = None
    p1: float | None = None
    p2: float | None = None
    dynamics: DynamicsSpec | None = None
    metadata: dict = field(default_factory=dict)

    def technology(self, name: str | None) -> Technology:
        """Entry technology by name, or the first one when name is None."""
        if name is None:
            return self.technologies[0]
        for tech in self.technologies:
            if tech.name == name:
                return tech
        raise ScenarioError(
            f"scenario {self.name!r} has no technology named {name!r}; "
            f"available: {[t.name for t in self.technologies]}"
        )


def _need(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _only(mapping: dict, where: str, *keys: str) -> None:
    unknown = [k for k in mapping if k not in keys]
    if unknown:
        allowed = ", ".join(repr(k) for k in keys)
        raise ScenarioError(f"{where}: unknown key {unknown[0]!r} (expected {allowed})")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ScenarioError(f"{where}: expected a finite number, got {value!r}")
    return v


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{where}: expected a string, got {value!r}")
    return value


# each section's kinds: the constructor and the keys it takes in order; a
# "file" is a CSV path relative to the scenario, every other key a number
_KINDS = {
    "distribution": {
        "uniform": (ValuationDistribution.uniform, ("beta",)),
        "custom": (ValuationDistribution.from_csv, ("file",)),
    },
    "QoS": {
        "constant": (QoSModel.constant, ("q",)),
        "linear": (QoSModel.linear, ("q_bar", "c")),
        "tabulated": (QoSModel.from_csv, ("file",)),
    },
    "variant": {
        "synchronous": (Synchronous, ()),
        "partial": (Partial, ("epsilon",)),
        "switching_cost": (SwitchingCost, ("cost",)),
        "positive_externality": (PositiveExternality, ("q_bar", "delta", "phi", "gamma")),
    },
}


def _parse_kind(spec, section: str, base: Path, where: str):
    """Build what ``spec["kind"]`` names in ``section``'s table; its errors name ``where``."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where}: expected an object")
    kind = _need(spec, "kind", where)
    kinds = _KINDS[section]
    if not isinstance(kind, str) or kind not in kinds:
        raise ScenarioError(f"{where}.kind: unknown {section} kind {kind!r}")
    make, keys = kinds[kind]
    _only(spec, where, "kind", *keys)
    args = [base / _text(_need(spec, key, where), f"{where}.{key}") if key == "file"
            else _number(_need(spec, key, where), f"{where}.{key}") for key in keys]
    try:
        return make(*args)
    except MarketError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _parse_dynamics(spec, base: Path, where: str) -> DynamicsSpec:
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where}: expected an object")
    _only(spec, where, "variant", "lambda0", "max_iter", "tol")
    variant = _parse_kind(_need(spec, "variant", where), "variant", base, f"{where}.variant")
    raw0 = _need(spec, "lambda0", where)
    lambda0: float | tuple[float, float]
    if isinstance(raw0, list):
        if len(raw0) != 2:
            raise ScenarioError(f"{where}.lambda0: expected 2 entries, got {len(raw0)}")
        lambda0 = (
            _number(raw0[0], f"{where}.lambda0[0]"),
            _number(raw0[1], f"{where}.lambda0[1]"),
        )
    else:
        lambda0 = _number(raw0, f"{where}.lambda0")
    max_iter = spec.get("max_iter", 10_000)
    if isinstance(max_iter, bool) or not isinstance(max_iter, int) or max_iter < 1:
        raise ScenarioError(f"{where}.max_iter: expected a positive integer, got {max_iter!r}")
    tol = _number(spec.get("tol", 1e-10), f"{where}.tol")
    if tol <= 0.0:
        raise ScenarioError(f"{where}.tol: must be positive, got {tol}")
    return DynamicsSpec(variant=variant, lambda0=lambda0, max_iter=max_iter, tol=tol)


def _check_name(name: str, earlier: list[Technology], where: str) -> None:
    """An entry technology's name must differ from the earlier ones, which
    ``--technology`` could not tell apart, and from the stay-out option's,
    which ``select`` adds to every choice."""
    for j, tech in enumerate(earlier):
        if tech.name == name:
            raise ScenarioError(f"{where}: duplicate technology name {name!r} "
                                f"(also technologies[{j}].name)")
    if name == Technology.stay_out().name:
        raise ScenarioError(f"{where}: {name!r} is reserved for the stay-out option")


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    base = path.parent
    try:
        _only(raw, "scenario", "name", "distribution", "technologies", "incumbent", "prices", "dynamics", "metadata")
        dist = _parse_kind(_need(raw, "distribution", "scenario"), "distribution", base, "distribution")
        raw_techs = _need(raw, "technologies", "scenario")
        if not isinstance(raw_techs, list) or not raw_techs:
            raise ScenarioError("technologies: expected a nonempty list")
        techs = []
        for i, t in enumerate(raw_techs):
            where = f"technologies[{i}]"
            if not isinstance(t, dict):
                raise ScenarioError(f"{where}: expected an object")
            _only(t, where, "name", "qos", "cost")
            name = _text(_need(t, "name", where), f"{where}.name")
            _check_name(name, techs, f"{where}.name")
            qos = _parse_kind(_need(t, "qos", where), "QoS", base, f"{where}.qos")
            cost = _number(t.get("cost", 0.0), f"{where}.cost")
            if cost < 0.0:
                raise ScenarioError(f"{where}.cost: must be >= 0, got {cost}")
            techs.append(Technology(name=name, qos=qos, cost_per_period=cost))
        q1 = None
        if "incumbent" in raw:
            inc = raw["incumbent"]
            if not isinstance(inc, dict):
                raise ScenarioError("incumbent: expected an object")
            _only(inc, "incumbent", "q1")
            q1 = _number(_need(inc, "q1", "incumbent"), "incumbent.q1")
            for i, tech in enumerate(techs):  # as SelectionProblem does
                _check_incumbent(q1, tech.qos, f"incumbent.q1: technologies[{i}].qos")
        p1 = p2 = None
        if "prices" in raw:
            prices = raw["prices"]
            if not isinstance(prices, dict):
                raise ScenarioError("prices: expected an object")
            _only(prices, "prices", "p1", "p2")
            if "p1" in prices:
                p1 = _number(prices["p1"], "prices.p1")
            if "p2" in prices:
                p2 = _number(prices["p2"], "prices.p2")
        dynamics = _parse_dynamics(raw["dynamics"], base, "dynamics") if "dynamics" in raw else None
        metadata = raw.get("metadata", {})
        if not isinstance(metadata, dict):
            raise ScenarioError("metadata: expected an object")
        name = _text(raw.get("name", path.stem), "name")
        return Scenario(
            name=name,
            dist=dist,
            technologies=tuple(techs),
            q1=q1,
            p1=p1,
            p2=p2,
            dynamics=dynamics,
            metadata=metadata,
        )
    except ScenarioError as exc:
        msg = str(exc)
        raise ScenarioError(msg if msg.startswith(str(path)) else f"{path}: {msg}") from None
    except MarketError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
