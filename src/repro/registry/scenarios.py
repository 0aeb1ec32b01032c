"""Typed registry of scenario (topology + workload) generators.

A scenario generator is a callable that builds a fully-validated
:class:`~repro.sim.config.ScenarioConfig` from keyword parameters.
Building through :meth:`ScenarioRegistry.build` additionally stamps the
generator's *identity* onto the config -- the registered name plus the
build parameters, normalised to a sorted tuple of pairs -- so two
configs built from different generators (or the same generator with
different knobs) can never collide in ``scenario_hash`` even if their
scalar fields happen to agree.  The stamp flows from there into
``config_hash``, provenance manifests, checkpoint fingerprints, and the
executors' per-scenario solver-cache scopes without any of those layers
knowing the registry exists.

Run-only parameters (``scheme``, ``seed``, ``n_gops``) are excluded
from the stamp: replications and scheme variants of one physical
scenario must keep sharing a single ``scenario_hash`` so they share one
solver-cache scope and one provenance identity.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Tuple

from repro.utils.errors import ConfigurationError

#: Generator parameters that select a *run*, not a physical scenario.
#: They never enter the identity stamp (see module docstring).
RUN_ONLY_PARAMS = frozenset({"scheme", "seed", "n_gops"})


@dataclass(frozen=True)
class ScenarioInfo:
    """One registered scenario generator.

    ``factory`` takes keyword parameters and returns a validated
    :class:`~repro.sim.config.ScenarioConfig`; ``description`` is the
    one-liner shown by ``repro scenarios``.
    """

    name: str
    factory: Callable[..., object]
    description: str = ""


class ScenarioRegistry:
    """Name-keyed collection of :class:`ScenarioInfo` entries."""

    def __init__(self) -> None:
        self._entries: Dict[str, ScenarioInfo] = {}

    def register(self, info: ScenarioInfo) -> ScenarioInfo:
        """Add a generator; duplicate names are a configuration error."""
        if not info.name:
            raise ConfigurationError("scenario name must be non-empty")
        if info.name in self._entries:
            raise ConfigurationError(
                f"scenario {info.name!r} is already registered")
        self._entries[info.name] = info
        return info

    def get(self, name: str) -> ScenarioInfo:
        """Look up a generator; unknown names list what *is* registered."""
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown scenario {name!r}; registered scenarios: "
                f"{self.names()}") from None

    def build(self, name: str, **params):
        """Build a config through the named generator and stamp identity.

        The returned config carries ``generator=name`` and
        ``generator_params`` equal to the sorted non-run-only keyword
        arguments, making the generator part of the scenario's hash
        identity.
        """
        config = self.get(name).factory(**params)
        identity = tuple(sorted(
            (key, value) for key, value in params.items()
            if key not in RUN_ONLY_PARAMS))
        return config.replace(generator=name, generator_params=identity)

    def names(self) -> Tuple[str, ...]:
        """Registered scenario names, in registration order."""
        return tuple(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[ScenarioInfo]:
        return iter(list(self._entries.values()))

    def __len__(self) -> int:
        return len(self._entries)

    @contextmanager
    def temporarily(self, info: ScenarioInfo):
        """Scoped registration (tests register throwaway scenarios)."""
        self.register(info)
        try:
            yield info
        finally:
            self._entries.pop(info.name, None)


#: The process-wide scenario registry.
_SCENARIOS = ScenarioRegistry()

#: Whether the built-in scenario modules have been imported yet.
_BUILTINS_LOADED = False


def register_scenario(info: ScenarioInfo) -> ScenarioInfo:
    """Register a generator with the process-wide registry."""
    return _SCENARIOS.register(info)


def scenario_registry() -> ScenarioRegistry:
    """The process-wide registry, with built-ins loaded on first use."""
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        import repro.experiments.citygrid  # noqa: F401
        import repro.experiments.scenarios  # noqa: F401
    return _SCENARIOS
