"""The runtime's third-party footprint: numpy and nothing else.

``requirements-test.txt`` pins numpy as the only library the package
itself uses (the rest are test and lint tools), so importing ``repro``
and every subpackage in a fresh interpreter must load no other
third-party top-level module.
"""

import os
import subprocess
import sys

import repro

ALLOWED = {"repro", "numpy"}

PROBE = """
import importlib, pkgutil, sys
# site hooks (_distutils_hack, certifi, ...) load before this line
before = {name.partition(".")[0] for name in sys.modules}
import repro
for info in pkgutil.iter_modules(repro.__path__):
    importlib.import_module(f"repro.{info.name}")
after = {name.partition(".")[0] for name in sys.modules}
print("\\n".join(sorted(after - before)))
"""


def test_importing_every_subpackage_loads_only_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "repro" in loaded
    third_party = sorted(m for m in loaded - ALLOWED if m not in sys.stdlib_module_names)
    assert third_party == []
