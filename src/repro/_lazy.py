"""Lazy package exports (PEP 562): a process loads what it runs.

A package ``__init__`` names its public exports and the submodule each
lives in; the submodule is imported on first attribute access and the
resolved name cached on the package, so nothing is paid twice.  A
submodule itself (``repro.obs``) resolves the same way.  Laziness stops
at this boundary: every module still imports what it uses at its top.
"""

from __future__ import annotations

import sys
from types import ModuleType


class _LazyPackage(ModuleType):
    def __getattr__(self, name: str):
        missing = AttributeError(
            f"module {self.__name__!r} has no attribute {name!r}")
        if name.startswith("_"):
            raise missing
        target = f"{self.__name__}.{self._exports.get(name, name)}"
        try:
            # Not importlib.import_module: ``-X importtime``, the tool
            # start-up is priced with, logs only what ``__import__`` loads.
            __import__(target)
        except ModuleNotFoundError as exc:
            if exc.name != target:
                raise
            raise missing from None
        value = sys.modules[target]
        if name in self._exports:
            value = getattr(value, name)
        setattr(self, name, value)
        return value

    def __setattr__(self, name: str, value: object) -> None:
        # The import system binds every loaded submodule on its package.
        # A public name spelled like a submodule (``deflate.inflate``,
        # ``obs.flight``) must survive that, as it did when ``__init__``
        # bound it after the import.
        if isinstance(value, ModuleType) \
                and value.__name__ == f"{self.__name__}.{name}":
            if name in self.__dict__:
                return
            if name in self._exports:
                value = getattr(value, name)
        super().__setattr__(name, value)

    def __dir__(self) -> list[str]:
        return sorted({*super().__dir__(), *self._exports})


def lazy_exports(package: str, exports: dict[str, str]) -> list[str]:
    """Make ``package`` resolve its exports on first access; returns its
    ``__all__``.  ``exports`` maps a submodule to the space-separated
    public names it defines."""
    module = sys.modules[package]
    module._exports = {name: submodule
                       for submodule, names in exports.items()
                       for name in names.split()}
    module.__class__ = _LazyPackage
    return list(module._exports)
