"""String-keyed backend registry with entry-point-style registration.

Backends are published under short names ("nx", "dfltcc", "software",
"842").  A registered factory is either a callable or a lazy
``"module:attr"`` spec — the entry-point convention — resolved on first
use so importing the registry never imports every backend stack.
Third-party code adds backends with :func:`register_backend`; everything
in the repo (the API session, the CLI, the pool, every benchmark)
acquires engines through :func:`create_backend`.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Callable

from ..errors import ConfigError
from ..nx.params import MachineParams, get_machine

if TYPE_CHECKING:  # the names are listed without loading a backend stack
    from .base import BackendCapabilities, CompressionBackend

_Factory = Callable[..., "CompressionBackend"]

_BUILTINS: dict[str, str] = {
    "software": "repro.backend.software:SoftwareZlibBackend",
    "nx": "repro.backend.nx_async:NxAsyncBackend",
    "dfltcc": "repro.backend.dfltcc:DfltccBackend",
    "842": "repro.backend.e842:E842Backend",
}

_REGISTRY: dict[str, _Factory | str] = dict(_BUILTINS)


def register_backend(name: str, factory: _Factory | str,
                     replace: bool = False) -> None:
    """Publish a backend under ``name``.

    ``factory`` is a callable ``(machine=..., **kwargs) -> backend`` or
    a lazy ``"module:attr"`` entry-point spec.  Re-registering an
    existing name raises unless ``replace=True``.
    """
    if not replace and name in _REGISTRY:
        raise ConfigError(f"backend {name!r} already registered")
    _REGISTRY[name] = factory


def unregister_backend(name: str) -> None:
    """Remove a backend; built-ins are restored to their lazy spec."""
    if name in _BUILTINS:
        _REGISTRY[name] = _BUILTINS[name]
    else:
        _REGISTRY.pop(name, None)


def backend_names() -> tuple[str, ...]:
    """Registered names, in registration order."""
    return tuple(_REGISTRY)


def _resolve(name: str) -> _Factory:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(sorted(_REGISTRY))}") from None
    if isinstance(factory, str):
        module_name, _, attr = factory.partition(":")
        factory = getattr(import_module(module_name), attr)
        _REGISTRY[name] = factory  # cache the resolved callable
    return factory


def create_backend(name: str, machine: MachineParams | str | None = None,
                   **kwargs) -> CompressionBackend:
    """Instantiate a registered backend, optionally pinned to a machine."""
    factory = _resolve(name)
    if machine is not None:
        if isinstance(machine, str):
            machine = get_machine(machine)
        kwargs["machine"] = machine
    return factory(**kwargs)


def default_backend(machine: MachineParams | str) -> str:
    """The native hardware path for a machine.

    z15 drives the accelerator synchronously through DFLTCC; POWER9 (and
    anything else asynchronous) goes through the NX driver stack.
    """
    if isinstance(machine, str):
        machine = get_machine(machine)
    return "dfltcc" if machine.synchronous else "nx"


def backend_capabilities(name: str, machine: MachineParams | str | None = None
                         ) -> BackendCapabilities:
    """Capabilities of a backend without keeping the instance around."""
    backend = create_backend(name, machine=machine)
    try:
        return backend.capabilities()
    finally:
        backend.close()
