"""Every function the benchmark's tracer wraps exists under its traced name.

The tracer (perfbench/tracer.py) is only loaded for its name tables; its
install() patches modules and is not called here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module executes
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod.LAYERS, mod.RECIPE_FUNCTIONS


def test_traced_names_resolve():
    layers, recipe_functions = _tracer_tables()
    names = [(mod, qual) for mod, quals in layers.items() for qual in quals]
    names += [("recipes", fn) for fn in recipe_functions.values()]
    missing = []
    for mod, qual in names:
        owner = importlib.import_module(f"liegeom.{mod}")
        for part in qual.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod}.{qual}")
    assert names and not missing
