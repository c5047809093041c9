"""numpy, imported at its first attribute access.

Importing numpy is most of the start-up of `import bsymp.cli`, yet the
exact commands (`describe`, `bracket-table`, a default `reduce`) never
read a float array, and `flow` computes and stores plain floats.  Every
bsymp module that uses numpy takes it from here, `from ._numpy import
np`, so the import runs only when a float path first reads an attribute
of `np` (`verify`, a `reduce` that checks a configured connection);
after that `np` is numpy itself.
"""

from __future__ import annotations

import importlib.util
import sys


def _lazy(name: str):
    """sys.modules[name] if it is imported; else the module registered there
    unexecuted, by the standard library's LazyLoader, so its body runs at the
    first attribute access.  A module that is not installed raises
    ModuleNotFoundError here, as `import name` would."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy("numpy")
