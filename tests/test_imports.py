"""The library imports no third-party package (docs/architecture.md).

Checked in a fresh interpreter, so modules the test runner itself
loaded (hypothesis, pytest, numpy pulled in by a plugin) cannot mask
an import made by ``repro``.
"""

import json
import os
import subprocess
import sys

#: Entry points that together reach every package under ``src/repro``.
ENTRY_POINTS = ("repro.api", "repro.experiments.cli", "repro.serve.server",
                "repro.jobs.worker")

_PROBE = """
import importlib, json, sys
before = set(sys.modules)
for name in %r:
    importlib.import_module(name)
print(json.dumps(sorted(set(sys.modules) - before)))
""" % (ENTRY_POINTS,)


def _modules_loaded_by_the_library():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_library_never_loads_numpy_or_any_third_party_package():
    loaded = _modules_loaded_by_the_library()
    assert "numpy" not in loaded
    # ``__mp_main__`` is multiprocessing's alias of the main module.
    foreign = sorted({name.split(".")[0] for name in loaded}
                     - set(sys.stdlib_module_names)
                     - {"repro", "__mp_main__"})
    assert foreign == []
