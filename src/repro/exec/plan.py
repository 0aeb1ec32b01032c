"""Sweep planning: flatten Monte-Carlo campaigns into work items.

Planning happens entirely in the parent process: the ``configure`` hook
(often a lambda, which cannot cross a process boundary) is applied here,
so each resulting :class:`Cell` carries a fully *derived*
:class:`~repro.sim.config.ScenarioConfig` and nothing else needs to be
shipped to a worker.  Cell order is the historical serial loop order
(sweep point, then scheme, then replication), so checkpoint files written
by a serial run and a parallel run list cells identically.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Tuple

from repro.sim.checkpoint import SweepCheckpoint
from repro.sim.config import ScenarioConfig
from repro.utils.errors import ConfigurationError
from repro.utils.stats import check_t_quantile

#: Sweep "parameter" recorded for a single-scenario replication campaign.
CAMPAIGN_PARAMETER = "<campaign>"


@dataclass(frozen=True)
class Cell:
    """One unit of Monte-Carlo work: a single replication of one scenario.

    Attributes
    ----------
    scheme:
        Allocation scheme of the cell (already applied to ``config``).
    point_index:
        Index of the sweep point the cell belongs to (0 for campaigns).
    run_index:
        Replication index; together with ``config.seed`` it determines
        the cell's entire random stream, so the cell's result is
        independent of where or when it executes.
    config:
        The fully derived scenario configuration (sweep value, scheme,
        root seed all applied).
    """

    scheme: str
    point_index: int
    run_index: int
    config: ScenarioConfig

    @property
    def key(self) -> str:
        """Canonical checkpoint key of this cell."""
        return SweepCheckpoint.cell_key(self.scheme, self.point_index,
                                        self.run_index)


@dataclass(frozen=True)
class SweepPlan:
    """A fully flattened sweep: the grid identity plus its cells.

    Attributes
    ----------
    parameter, values, schemes, n_runs, seed:
        The sweep's identity (mirrors the checkpoint header fields).
    cells:
        Every ``(scheme, point, run)`` cell in deterministic order.
    """

    parameter: str
    values: Tuple[object, ...]
    schemes: Tuple[str, ...]
    n_runs: int
    seed: Optional[int]
    cells: Tuple[Cell, ...]

    @property
    def n_cells(self) -> int:
        """Total number of work items in the plan."""
        return len(self.cells)


def plan_sweep(base_config: ScenarioConfig, parameter: str,
               values: Sequence[object], schemes: Sequence[str], *,
               n_runs: int = 10,
               configure: Optional[Callable[[ScenarioConfig, object],
                                            ScenarioConfig]] = None
               ) -> SweepPlan:
    """Flatten a parameter sweep into a deterministic list of cells.

    The ``configure`` hook (or a plain ``replace(parameter=value)``) is
    applied *here*, in the planning process, so workers only ever see
    derived configs -- closures never need to be pickled.

    A campaign whose confidence intervals need a Student-t quantile
    beyond the committed table, and cannot have it here, is refused
    before any cell runs or any checkpoint is opened
    (:func:`repro.utils.stats.check_t_quantile`).
    """
    if n_runs < 1:
        raise ConfigurationError(f"n_runs must be >= 1, got {n_runs}")
    check_t_quantile(n_runs - 1)
    if not schemes:
        raise ConfigurationError("schemes must be non-empty")
    if len(values) == 0:  # len(), not truthiness: values may be an ndarray
        raise ConfigurationError("values must be non-empty")
    cells = []
    for point_index, value in enumerate(values):
        if configure is not None:
            point_config = configure(base_config, value)
        else:
            point_config = base_config.replace(**{parameter: value})
        for scheme in schemes:
            scheme_config = point_config.with_scheme(scheme)
            for run_index in range(n_runs):
                cells.append(Cell(scheme=scheme, point_index=point_index,
                                  run_index=run_index, config=scheme_config))
    return SweepPlan(parameter=parameter, values=tuple(values),
                     schemes=tuple(schemes), n_runs=int(n_runs),
                     seed=base_config.seed, cells=tuple(cells))


def _unchanged(config: ScenarioConfig, value: object) -> ScenarioConfig:
    """The ``configure`` hook of a one-point plan: the config as given."""
    return config


def plan_campaign(config: ScenarioConfig, n_runs: int) -> SweepPlan:
    """Flatten one scenario's replication campaign into a one-point plan.

    Used by :class:`~repro.sim.runner.MonteCarloRunner`: a campaign is a
    :func:`plan_sweep` of one scheme at one point.
    """
    return plan_sweep(config, CAMPAIGN_PARAMETER, (None,), (config.scheme,),
                      n_runs=n_runs, configure=_unchanged)


def ensure_picklable(cells: Iterable[Cell]) -> None:
    """Verify every cell survives pickling before multiprocess dispatch.

    A :class:`~repro.sim.config.ScenarioConfig` usually pickles cleanly,
    but ``fault_plan`` accepts arbitrary duck-typed objects (lambdas, open
    handles, test doubles) that cannot cross a process boundary.  Failing
    here, with a pointer at the serial path, beats an opaque
    ``PicklingError`` from deep inside ``multiprocessing``.
    """
    try:
        pickle.dumps(list(cells))
    except Exception as exc:
        raise ConfigurationError(
            f"scenario config cannot be pickled for multiprocess "
            f"execution ({exc}); an unpicklable fault_plan or custom topology "
            f"object is the usual cause -- rerun with --jobs 1 (serial "
            f"execution) or make the config picklable") from exc
