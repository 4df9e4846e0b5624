"""Entrant technology choice under recurring infrastructure cost.

Among candidate access technologies the entrant keeps the one whose
market revenue net of per-period cost is highest; staying out is always
available at zero profit.  Revenue comes from the revenue-optimal
monopoly operating point when no incumbent is present, or from the
share-competition equilibrium against an incumbent of quality ``q1``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .competition import CournotGame, _check_entrant_span, nash_solve
from .duopoly import _check_incumbent
from .errors import ModelError
from .qos import Technology
from .revenue import optimize
from .valuation import ValuationDistribution

__all__ = [
    "SelectionProblem",
    "SelectionResult",
    "DecisionMap",
    "technology_profit",
    "select",
    "decision_map",
]


@dataclass(frozen=True)
class SelectionProblem:
    """Candidate technologies, the buyer population, and the market mode.

    ``q1 is None`` means the entrant would operate alone; otherwise it
    competes in shares against an incumbent of constant quality ``q1``.
    Exactly one stay-out option must be present.
    """

    dist: ValuationDistribution
    technologies: tuple[Technology, ...]
    q1: float | None = None

    def __post_init__(self) -> None:
        techs = tuple(self.technologies)
        object.__setattr__(self, "technologies", techs)
        names = [t.name for t in techs]
        if len(set(names)) != len(names):
            raise ModelError(f"technology names must be unique, got {names}")
        stay_out = [t for t in techs if not t.is_entry]
        if len(stay_out) != 1:
            raise ModelError("exactly one stay-out option is required")
        if not any(t.is_entry for t in techs):
            raise ModelError("at least one entry technology is required")
        if self.q1 is not None:
            for t in techs:
                if t.is_entry:
                    q1 = _check_incumbent(self.q1, t.qos, f"technology {t.name!r}")
                    _check_entrant_span(t.qos, f"technology {t.name!r}")
            object.__setattr__(self, "q1", q1)  # at least one entry exists

    def ordered(self) -> tuple[Technology, ...]:
        """Technologies in evaluation order: entries as listed, stay-out last."""
        entries = tuple(t for t in self.technologies if t.is_entry)
        stay_out = tuple(t for t in self.technologies if not t.is_entry)
        return entries + stay_out


@dataclass(frozen=True)
class SelectionResult:
    """The chosen technology and the full profit table behind the choice."""

    chosen: Technology
    profits: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class DecisionMap:
    """Chosen technology name over a grid of cost pairs.

    ``cells[i][j]`` is the choice at ``(k_grid_1[i], k_grid_2[j])``,
    the per-period costs of the first and second entry technology.
    """

    k_grid_1: tuple[float, ...]
    k_grid_2: tuple[float, ...]
    tech_names: tuple[str, str]
    cells: tuple[tuple[str, ...], ...]

    def to_csv(self, path) -> None:
        """Write ``k_split,k_common,choice`` rows, first axis major."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k_split", "k_common", "choice"])
            for k1, row in zip(self.k_grid_1, self.cells):
                for k2, choice in zip(self.k_grid_2, row):
                    writer.writerow([f"{k1:.12g}", f"{k2:.12g}", choice])


def _gross_revenue(problem: SelectionProblem, tech: Technology) -> float:
    """Market revenue of an entry technology, before cost."""
    if problem.q1 is None:
        return optimize(problem.dist, tech.qos).revenue
    return nash_solve(CournotGame(problem.dist, problem.q1, tech.qos)).r2


def technology_profit(problem: SelectionProblem, tech: Technology) -> float:
    """Per-period profit of one candidate: gross revenue minus cost."""
    if tech.name not in {t.name for t in problem.technologies}:
        raise ModelError(f"technology {tech.name!r} is not part of the problem")
    if not tech.is_entry:
        return 0.0
    return _gross_revenue(problem, tech) - tech.cost_per_period


def select(problem: SelectionProblem) -> SelectionResult:
    """Pick the profit-maximizing technology.

    Ties break by list order with the stay-out option last, so entering
    at exactly zero profit beats staying out.  The stay-out floor at 0
    means a technology with negative profit is never chosen.
    """
    ordered = problem.ordered()
    profits = [(t.name, technology_profit(problem, t)) for t in ordered]
    best = max(range(len(ordered)), key=lambda i: (profits[i][1], -i))
    return SelectionResult(chosen=ordered[best], profits=tuple(profits))


def decision_map(problem: SelectionProblem, k_grid_1, k_grid_2) -> DecisionMap:
    """Map the choice over a grid of cost pairs for two entry technologies.

    Gross revenue is computed once per technology (it does not depend on
    the cost), then reused across all grid cells.
    """
    entries = [t for t in problem.technologies if t.is_entry]
    if len(entries) != 2:
        raise ModelError(f"decision map needs exactly two entry technologies, got {len(entries)}")
    stay_out = next(t for t in problem.technologies if not t.is_entry)
    g1 = np.asarray(k_grid_1, dtype=float)
    g2 = np.asarray(k_grid_2, dtype=float)
    for grid in (g1, g2):
        if grid.ndim != 1 or grid.size < 1:
            raise ModelError("cost grids must be nonempty 1-D arrays")
        if np.any(~np.isfinite(grid)) or np.any(grid < 0.0):
            raise ModelError("cost grids must be nonnegative and finite")
        if np.any(np.diff(grid) <= 0.0) and grid.size > 1:
            raise ModelError("cost grids must be strictly ascending")
    rev1 = _gross_revenue(problem, entries[0])
    rev2 = _gross_revenue(problem, entries[1])
    cells = []
    for k1 in g1:
        row = []
        for k2 in g2:
            profits = (rev1 - k1, rev2 - k2, 0.0)
            best = max(range(3), key=lambda i: (profits[i], -i))
            row.append((entries[0].name, entries[1].name, stay_out.name)[best])
        cells.append(tuple(row))
    return DecisionMap(
        k_grid_1=tuple(float(k) for k in g1),
        k_grid_2=tuple(float(k) for k in g2),
        tech_names=(entries[0].name, entries[1].name),
        cells=tuple(cells),
    )
