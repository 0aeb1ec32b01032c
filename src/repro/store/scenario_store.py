"""Config-hash-keyed cache of built-scenario artifacts.

The build/run split (:mod:`repro.sim.build`) makes scenario construction
a pure function of the config's physical identity; this module adds the
cache.  A :class:`ScenarioStore` maps
:func:`~repro.store.confighash.scenario_hash` values to
:class:`~repro.sim.build.BuiltScenario` artifacts, first in process
memory, then -- when attached to a
:class:`~repro.store.workspace.FileWorkspace` -- on disk, so warmed
artifacts survive across processes, ``--jobs`` pool workers, and whole
sessions.

The store is a pure accelerator: :func:`built_for` returns ``None``
whenever the store is disabled and the engine then derives everything
itself, bit-identically.  The global switch is on by default,
disabled by the environment variable ``REPRO_SCENARIO_STORE=0`` (inherited by worker processes) or
scoped off with :func:`use_store` for differential tests.

Cache traffic is observable: every lookup increments the plain
:attr:`ScenarioStore.hits` / :attr:`~ScenarioStore.misses` /
:attr:`~ScenarioStore.disk_loads` counters, and -- when metrics
collection is on -- the ``repro_scenario_store_requests_total`` counter
(labelled ``result=hit|miss|disk``), which rides replication snapshots
back from pool workers like every other engine metric.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.obs.logging import get_logger
from repro.obs.metrics import global_registry, metrics_enabled
from repro.sim.build import BuiltScenario, build_scenario
from repro.sim.config import ScenarioConfig
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import RunMetrics
from repro.store.confighash import scenario_hash

logger = get_logger(__name__)

#: Environment switch: ``0`` disables the store process-wide (workers
#: inherit it).  Anything else -- including unset -- leaves it on.
ENV_STORE = "REPRO_SCENARIO_STORE"

#: Environment handoff of the active workspace root to pool workers:
#: :func:`default_store` attaches a FileWorkspace from it lazily, so a
#: worker's first replication can load warmed artifacts from disk.
ENV_WORKSPACE = "REPRO_WORKSPACE"

#: Environment override of the disk-persistence floor, in seconds.
ENV_DISK_FLOOR = "REPRO_STORE_DISK_FLOOR"

#: Default disk-persistence floor: builds cheaper than this are not
#: worth a deserialisation round-trip (BENCH_store.json measured disk
#: loads at ~1.3x the cost of just rebuilding the small bench scenario),
#: so they stay memory-tier only.
DEFAULT_DISK_FLOOR_SECONDS = 0.002

#: Tri-state in-process override: ``None`` follows the environment.
_ENABLED: Optional[bool] = None


def default_disk_floor() -> float:
    """The active disk-persistence floor (env override, else default)."""
    raw = os.environ.get(ENV_DISK_FLOOR)
    if raw is not None:
        try:
            return max(0.0, float(raw))
        except ValueError:
            logger.warning("ignoring non-numeric %s=%r", ENV_DISK_FLOOR, raw)
    return DEFAULT_DISK_FLOOR_SECONDS


def store_enabled() -> bool:
    """Whether scenario caching is active in this process."""
    if _ENABLED is not None:
        return _ENABLED
    return os.environ.get(ENV_STORE, "1") != "0"


@contextmanager
def use_store(enabled: bool) -> Iterator[None]:
    """Scoped override of the store switch (differential tests)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    try:
        yield
    finally:
        _ENABLED = previous


class ScenarioStore:
    """Cache of built scenarios, keyed by scenario hash.

    Parameters
    ----------
    workspace:
        Optional :class:`~repro.store.workspace.FileWorkspace`; when
        attached, artifacts built here are persisted to its
        ``scenarios/`` directory and misses consult the disk before
        rebuilding.
    disk_floor_seconds:
        Minimum measured build cost (seconds) for an artifact to earn
        disk persistence; cheaper builds stay memory-tier only, since
        loading them back would cost more than rebuilding (the
        ``disk_speedup: 0.76`` pessimization in BENCH_store.json).
        ``None`` (default) resolves :data:`ENV_DISK_FLOOR`, falling back
        to :data:`DEFAULT_DISK_FLOOR_SECONDS`; pass ``0.0`` to persist
        unconditionally (the pre-floor behaviour).

    Notes
    -----
    Single-threaded by design, like the rest of the execution layer:
    each process owns its store, and cross-process sharing happens only
    through the workspace's content-addressed files (concurrent writers
    of one hash write identical bytes through atomic renames, so there
    is nothing to coordinate).
    """

    def __init__(self, workspace: Optional[object] = None, *,
                 disk_floor_seconds: Optional[float] = None) -> None:
        self.workspace = workspace
        self.disk_floor_seconds = (default_disk_floor()
                                   if disk_floor_seconds is None
                                   else max(0.0, float(disk_floor_seconds)))
        self._memory: Dict[str, BuiltScenario] = {}
        self.hits = 0
        self.misses = 0
        self.disk_loads = 0
        self.persist_skips = 0

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, ref: str) -> bool:
        return ref in self._memory

    def _count(self, result: str) -> None:
        if metrics_enabled():
            global_registry().counter(
                "repro_scenario_store_requests_total", result=result).inc()

    def get_or_build(self, config: ScenarioConfig, *,
                     ref: Optional[str] = None) -> BuiltScenario:
        """Return the built scenario for ``config``, building at most once.

        ``ref`` short-circuits the hash computation when the caller (the
        sweep planner) already knows it; otherwise
        :func:`~repro.store.confighash.scenario_hash` derives it (cheap
        after the first call -- the topology digest memoizes on the
        shared topology object).
        """
        if ref is None:
            ref = scenario_hash(config)
        built = self._memory.get(ref)
        if built is not None:
            self.hits += 1
            self._count("hit")
            return built
        if self.workspace is not None:
            built = self.workspace.load_scenario(ref)
            if built is not None:
                self.disk_loads += 1
                self._count("disk")
                self._memory[ref] = built
                return built
        self.misses += 1
        self._count("miss")
        build_start = time.perf_counter()
        built = build_scenario(config, scenario_hash=ref)
        build_seconds = time.perf_counter() - build_start
        self._memory[ref] = built
        if self.workspace is not None:
            # Disk is only a win when rebuilding costs more than a load:
            # persisting a build cheaper than the floor would *slow down*
            # every future cold process (the disk-tier pessimization the
            # store benchmark exposed).  The memory tier keeps serving
            # this process either way.
            if build_seconds >= self.disk_floor_seconds:
                self.workspace.save_scenario(built)
            else:
                self.persist_skips += 1
                self._count("persist-skipped")
                logger.debug(
                    "scenario %s built in %.3f ms, below the %.3f ms disk "
                    "floor; keeping it memory-tier only", ref[:12],
                    build_seconds * 1e3, self.disk_floor_seconds * 1e3)
        return built

    def clear(self) -> None:
        """Drop every memory-cached artifact (disk files are untouched)."""
        self._memory.clear()


#: Lazily created per-process store shared by every replication.
_DEFAULT_STORE: Optional[ScenarioStore] = None


def default_store() -> ScenarioStore:
    """The process-wide store, created on first use.

    If :data:`ENV_WORKSPACE` names a directory (exported by the parent
    when ``--workspace`` is active), the store attaches a
    :class:`~repro.store.workspace.FileWorkspace` there -- this is how
    ``--jobs`` pool workers pick up the parent's disk cache.
    """
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        workspace = None
        root = os.environ.get(ENV_WORKSPACE)
        if root:
            from repro.store.workspace import FileWorkspace
            workspace = FileWorkspace(root)
        _DEFAULT_STORE = ScenarioStore(workspace=workspace)
    return _DEFAULT_STORE


def set_default_store(store: Optional[ScenarioStore]) -> None:
    """Replace the process-wide store (tests and workspace activation)."""
    global _DEFAULT_STORE
    _DEFAULT_STORE = store


def reset_default_store() -> None:
    """Drop the process-wide store so the next use re-reads the env."""
    set_default_store(None)


def activate_workspace(workspace: object) -> object:
    """Attach a workspace to the default store and export it to workers.

    Accepts a :class:`~repro.store.workspace.FileWorkspace` or a
    directory path.  Exporting :data:`ENV_WORKSPACE` is what lets pool
    workers (fork or spawn) reattach to the same on-disk cache.
    """
    from repro.store.workspace import FileWorkspace
    if not isinstance(workspace, FileWorkspace):
        workspace = FileWorkspace(workspace)
    os.environ[ENV_WORKSPACE] = str(workspace.root)
    default_store().workspace = workspace
    return workspace


def built_for(config: ScenarioConfig, *,
              ref: Optional[str] = None) -> Optional[BuiltScenario]:
    """The cached build for ``config``, or ``None`` with the store off.

    The single integration point for the execution layer: a ``None``
    return tells the engine to derive its invariants inline, which is
    bit-identical to consuming the cached artifact.
    """
    if not store_enabled():
        return None
    if ref is None:
        try:
            ref = scenario_hash(config)
        except TypeError:
            # A config with no content identity (a test-double topology,
            # say) cannot be cached; it builds inline instead -- the
            # store is an accelerator, never a new failure mode.
            return None
    return default_store().get_or_build(config, ref=ref)


def scenario_engine(config: ScenarioConfig, *,
                    built: Optional[BuiltScenario] = None,
                    store: Optional[ScenarioStore] = None,
                    record_slots: bool = False) -> SimulationEngine:
    """Build-phase entry point: an engine over a (possibly cached) build.

    Resolution order for the built artifact: an explicit ``built``, an
    explicit ``store``, the process default store (when enabled), else
    an inline build inside the engine constructor.
    """
    if built is None:
        if store is not None:
            built = store.get_or_build(config)
        else:
            built = built_for(config)
    return SimulationEngine(config, built=built, record_slots=record_slots)


def run_scenario(config: ScenarioConfig, *,
                 built: Optional[BuiltScenario] = None,
                 store: Optional[ScenarioStore] = None,
                 record_slots: bool = False) -> RunMetrics:
    """Run-phase entry point: simulate one run against a cached build.

    The split counterpart of :func:`repro.sim.build.build_scenario`:
    ``build_scenario`` once per physical scenario, ``run_scenario`` once
    per (scheme, seed, replication) against it.
    """
    return scenario_engine(config, built=built, store=store,
                           record_slots=record_slots).run()
