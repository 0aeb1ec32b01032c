"""Typed registry of allocation schemes.

A scheme is a name, an allocator factory, and a set of capability flags
the execution layers consult instead of hard-coded name lists:

* ``batchable`` -- the allocator exposes ``allocate_iter`` yielding
  :class:`~repro.core.batch.SolveRequest` objects, so replications may
  advance in lockstep (:mod:`repro.sim.lockstep`).  The lockstep driver
  verifies the claim at group-formation time and refuses (with a
  counter) allocators that cannot actually yield.
* ``fallback_eligible`` -- the scheme is closed-form and cannot fail to
  converge, so it may terminate every engine's degradation chain
  (:func:`repro.sim.fallback.fallback_chain_for`).
* ``greedy_channels`` -- in interfering deployments the engine runs the
  paper's Table III greedy channel allocation (and the eq. (23) bound)
  for this scheme; schemes without the flag get the colour-partition
  channel phase instead.
* ``accepts_options`` -- the factory takes keyword options (solver
  parameters); factories without the flag reject any kwargs with a
  :class:`~repro.utils.errors.ConfigurationError`, preserving the
  historical ``get_allocator`` contract.

Built-in schemes register themselves when their defining module is
imported; :func:`scheme_registry` imports those modules lazily on first
use, so third-party code can call :func:`register_scheme` at any point
before (or after) that and have its scheme validated, listed, swept,
and conformance-tested exactly like the built-ins.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Tuple

from repro.utils.errors import ConfigurationError


@dataclass(frozen=True)
class SchemeInfo:
    """One registered allocation scheme.

    Attributes
    ----------
    name:
        Registry name; the allocator the factory builds must expose the
        same string as its ``.name``.
    factory:
        Zero-or-keyword-argument callable returning a fresh allocator
        (an object with ``allocate(problem) -> Allocation``).
    batchable / fallback_eligible / greedy_channels / accepts_options:
        Capability flags; see the module docstring.
    description:
        One-line human description for ``repro schemes``.
    """

    name: str
    factory: Callable[..., object]
    batchable: bool = False
    fallback_eligible: bool = False
    greedy_channels: bool = False
    accepts_options: bool = False
    description: str = ""

    def create(self, **kwargs):
        """Instantiate the allocator, enforcing the options contract."""
        if kwargs and not self.accepts_options:
            raise ConfigurationError(
                f"{self.name} accepts no options, got {kwargs}")
        return self.factory(**kwargs)

    @property
    def flags(self) -> Tuple[str, ...]:
        """The capability flags set on this scheme, for display."""
        return tuple(
            label for label, value in (
                ("batchable", self.batchable),
                ("fallback-eligible", self.fallback_eligible),
                ("greedy-channels", self.greedy_channels),
            ) if value)


class SchemeRegistry:
    """Name-keyed collection of :class:`SchemeInfo` entries."""

    def __init__(self) -> None:
        self._entries: Dict[str, SchemeInfo] = {}

    def register(self, info: SchemeInfo) -> SchemeInfo:
        """Add a scheme; duplicate names are a configuration error."""
        if not info.name:
            raise ConfigurationError("scheme name must be non-empty")
        if info.name in self._entries:
            raise ConfigurationError(
                f"scheme {info.name!r} is already registered")
        self._entries[info.name] = info
        return info

    def get(self, name: str) -> SchemeInfo:
        """Look up a scheme; unknown names list what *is* registered."""
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown scheme {name!r}; registered schemes: "
                f"{self.names()}") from None

    def create(self, name: str, **kwargs):
        """Instantiate the named scheme's allocator."""
        return self.get(name).create(**kwargs)

    def names(self) -> Tuple[str, ...]:
        """Registered scheme names, in registration order."""
        return tuple(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[SchemeInfo]:
        return iter(list(self._entries.values()))

    def __len__(self) -> int:
        return len(self._entries)

    @contextmanager
    def temporarily(self, info: SchemeInfo):
        """Scoped registration (tests register throwaway schemes)."""
        self.register(info)
        try:
            yield info
        finally:
            self._entries.pop(info.name, None)


#: The process-wide scheme registry.
_SCHEMES = SchemeRegistry()

#: Whether the built-in scheme modules have been imported yet.
_BUILTINS_LOADED = False


def register_scheme(info: SchemeInfo) -> SchemeInfo:
    """Register a scheme with the process-wide registry.

    Safe to call from a module's import-time body (the built-ins do);
    does not trigger the lazy built-in load itself.
    """
    return _SCHEMES.register(info)


def scheme_registry() -> SchemeRegistry:
    """The process-wide registry, with built-ins loaded on first use.

    The built-in allocator modules register themselves at import time;
    importing them lazily here (rather than at this module's import)
    keeps the registry free of import cycles -- config validation,
    engine construction, the CLI, and the lockstep planner all call
    this accessor, and any of them may be the first.
    """
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        # The allocator module registers the paper's four schemes and
        # pulls in the graph-coloring module at its own bottom, so one
        # import completes the built-in set.
        import repro.core.allocator  # noqa: F401
    return _SCHEMES
