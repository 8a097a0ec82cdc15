"""Regression: importing the timeshare algorithm must not load the daemon.

archlint's layering rule caught a module-import-time cycle
``scheduling -> daemon -> scheduling``: ``scheduling/timeshare.py``
imported ``daemon.queue`` at the top level.  The timeshare algorithm
now reads only the common scheduling vocabulary (``PendingJob`` and the
queued task in its ``native`` slot), so a scheduling algorithm loads
without dragging the daemon in.
"""

import os
import subprocess
import sys


def test_timeshare_import_does_not_pull_daemon(tmp_path):
    code = (
        "import sys\n"
        "import repro.scheduling.timeshare\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.daemon'))\n"
        "assert not loaded, f'daemon modules loaded: {loaded}'\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

