"""The runtime needs numpy only: no ``repro`` module imports networkx.

networkx stays a test dependency (the oracles in ``tests/`` use it), so
an import of it under ``src/repro`` would pass every other test.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

IMPORT_ALL = """
import importlib
import pkgutil
import sys

sys.modules["networkx"] = None  # any `import networkx` now raises ImportError
import repro

names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(len(names))
"""


def test_every_module_imports_without_networkx():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 80  # every module was walked, not just a few
