"""Named kernel-backend registry: pluggable simulation engines.

Mirrors :mod:`repro.transport.registry`, :mod:`repro.topology.registry`,
:mod:`repro.mobility.registry` and the executor-backend registry for the
innermost seam of all — the discrete-event engine itself.  Every backend
registers a factory under a short name so a scenario can select its kernel
declaratively (``ScenarioConfig(kernel_backend="wheel")``), the Study API can
sweep it like any other config axis
(``axes={"kernel_backend": ["reference", "wheel"]}``) and the CLIs expose it
as ``--kernel-backend``.

Two backends ship built in:

``reference``
    The tuple-heap :class:`repro.core.engine.Simulator` — the behavioural
    baseline every other backend must match bit-for-bit.

``wheel``
    The :class:`repro.core.wheel.WheelSimulator` — slot-ring timer wheel with
    a near heap and an overflow heap, tuned for the timer-churn-heavy
    MAC/TCP event mix.

Every registered backend must honour the full :class:`Simulator` contract
(``schedule``/``schedule_at``/``cancel``/``run``/``stop``/``reset``,
``(time, sequence)`` FIFO tie-breaking, tombstone cancellation, and the edge
keys the channel drives its signal edges with: inherit
:class:`repro.core.engine.EdgeKeys` and add a ``claim`` that may say "not
next" whenever it is unsure) — the
cross-backend differential harness (``tests/regression`` and
``tests/properties/test_backend_lockstep.py``) runs every registered backend
and fails the suite when one diverges from ``reference`` by a single trace
byte.

Registering a custom engine::

    from repro.core.backends import KernelBackendProfile, register_kernel_backend

    register_kernel_backend(KernelBackendProfile(
        name="my-engine",
        factory=MySimulator,
        description="calendar-queue engine",
    ))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.core.engine import Simulator
from repro.core.registry import NamedRegistry, normalize_name
from repro.core.wheel import WheelSimulator


@dataclass(frozen=True)
class KernelBackendProfile:
    """One registered simulation-engine family.

    Attributes:
        name: Canonical registry key (``"reference"``, ``"wheel"``).
        factory: Zero-argument callable returning a fresh engine honouring
            the :class:`repro.core.engine.Simulator` contract.
        description: One-line human description (``--list-kernel-backends``).
    """

    name: str
    factory: Callable[[], object]
    description: str = ""

    def create(self) -> object:
        """Build a fresh engine instance."""
        return self.factory()


_KERNELS = NamedRegistry(
    "kernel backend",
    suggestion_listing="python -m repro.experiments.runner "
                       "--list-kernel-backends",
)


def kernel_backend_key(name: str) -> str:
    """Canonical registry key of a backend name (case/space-insensitive)."""
    return normalize_name(name)


def register_kernel_backend(profile: KernelBackendProfile,
                            replace: bool = False) -> KernelBackendProfile:
    """Register a kernel backend by name.

    Args:
        profile: The profile to register.
        replace: Allow overwriting an existing registration with the same
            name (used by tests and the legacy-kernel benchmark harness).

    Returns:
        The registered profile (for decorator-style use).

    Raises:
        ConfigurationError: On a duplicate name without ``replace``.
    """
    _KERNELS.register(profile, name=profile.name, replace=replace)
    return profile


def unregister_kernel_backend(name: str) -> None:
    """Remove a backend (mainly for tests); unknown names are ignored."""
    _KERNELS.unregister(name)


def get_kernel_backend(name: str) -> KernelBackendProfile:
    """Resolve a kernel backend by name.

    Raises:
        ConfigurationError: If the name is unknown; the message carries
            difflib close-match suggestions and the ``--list-kernel-backends``
            pointer (the runner CLI turns it into an exit-2 error).
    """
    return _KERNELS.get(name)


def kernel_backend_names() -> List[str]:
    """Sorted canonical names of all registered kernel backends."""
    return _KERNELS.names()


def kernel_backend_profiles() -> List[KernelBackendProfile]:
    """All registered kernel-backend profiles, sorted by name."""
    return _KERNELS.values()


def create_kernel(name: str) -> object:
    """Build a fresh engine of the named backend (resolve + create)."""
    return get_kernel_backend(name).create()


# ======================================================================
# Built-in registrations.
# ======================================================================
register_kernel_backend(KernelBackendProfile(
    name="reference",
    factory=Simulator,
    description="tuple-heap event list; the behavioural baseline (default)",
))

register_kernel_backend(KernelBackendProfile(
    name="wheel",
    factory=WheelSimulator,
    description="slot-ring timer wheel with near/overflow heaps; fast path "
                "for timer-churn-heavy scenarios",
))
