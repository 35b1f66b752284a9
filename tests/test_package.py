import importlib
import pkgutil

import fenton_minimax


def test_every_exported_name_resolves():
    # a stale name in __all__ breaks `from fenton_minimax.<module> import *`
    modules = [fenton_minimax] + [importlib.import_module(f"fenton_minimax.{m.name}")
                                  for m in pkgutil.iter_modules(fenton_minimax.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__
               if not hasattr(mod, name)]
    assert missing == []
