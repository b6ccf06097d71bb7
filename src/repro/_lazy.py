"""Import-on-use package namespaces (PEP 562).

A package that re-exports names from its submodules would otherwise
import all of them, and everything they import, the moment any one
submodule is loaded: ``import repro.experiments.executor`` used to
load the whole repository. :func:`lazy_namespace` gives a package a
module-level ``__getattr__`` that imports each exported name on its
first access instead, so ``from repro.sim import SimulationConfig``
loads the configuration module and no engine.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["lazy_namespace"]


def lazy_namespace(package: str, exports: Dict[str, str],
                   ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` resolving ``exports``.

    ``exports`` maps each package-level name to ``"module"`` (the name
    is that module) or ``"module:attr"`` (the name is that module's
    ``attr``). A resolved name is stored in the package's namespace,
    so later accesses never reach ``__getattr__`` again.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            target = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        module, _, attr = target.partition(":")
        value = import_module(module)
        if attr:
            value = getattr(value, attr)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
