"""Package exports resolved on first use (PEP 562).

``repro`` and ``repro.core`` re-export names from many submodules.
Importing them all eagerly would make every submodule import pay for
the whole library, the design stack included; a process that only
replays a stored plan would load modules it never runs.  Instead each
package declares where its names live, and :func:`lazy_exports` builds
the module ``__getattr__`` and ``__dir__`` that import a name's
submodule when the name is first read.
"""

from __future__ import annotations

import importlib

__all__ = ["lazy_exports"]


def lazy_exports(namespace: dict, exports: dict) -> tuple:
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``; ``exports`` maps a submodule (``".plan"``) to the
    names it provides.

    A name is imported from its submodule on first read and kept in
    ``namespace``, so later reads are plain global lookups.  Any other
    name raises :class:`AttributeError`, which lets ``from package
    import submodule`` fall back to importing the submodule.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(
            importlib.import_module(module, package), name)
        return value

    def __dir__() -> list:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__
