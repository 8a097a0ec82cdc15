"""The real tree must be archlint-clean and the baseline must not grow.

These are the CI-facing contracts: ``python -m repro.analysis src
benchmarks`` exits 0 on this repository, every suppression in the tree
carries a justification (the engine enforces that), and the committed
baseline stays exactly what review signed off on — growing it requires
editing this test, which is the point.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import Engine, default_rules, load_baseline

#: fingerprints review has explicitly grandfathered; the tree is clean
#: today, so any growth must land in this tuple AND the baseline file
APPROVED_BASELINE = ()


@pytest.fixture(scope="module")
def report(repo_root):
    engine = Engine(default_rules(), root=repo_root)
    baseline = load_baseline(repo_root / "archlint_baseline.json")
    return engine.run(["src", "benchmarks"], baseline=baseline)


class TestTreeClean:
    def test_no_new_findings(self, report):
        assert report.ok, "archlint findings:\n" + "\n".join(f.render() for f in report.findings)

    def test_scanned_the_real_tree(self, report):
        assert report.files_scanned > 100
        assert len(report.rule_ids) == 8

    def test_suppressions_stay_rare_and_known(self, report):
        # the tree carries exactly one suppression: emu-mps goes straight
        # to the LAPACK gufuncs behind np.linalg.qr.  A second one is a
        # conversation, not a habit
        assert [(f.file, f.rule) for f in report.suppressed] == [
            ("src/repro/emulators/mps.py", "private-import")
        ]


class TestBaselineGrowthForbidden:
    def test_committed_baseline_matches_approved_set(self, repo_root):
        entries = json.loads((repo_root / "archlint_baseline.json").read_text())
        fingerprints = tuple((e["file"], e["rule"], e["message"]) for e in entries)
        assert fingerprints == APPROVED_BASELINE, (
            "archlint_baseline.json changed — grandfathering a finding "
            "requires updating APPROVED_BASELINE here so the diff says "
            "so in two places"
        )

    def test_no_stale_baseline_entries(self, report):
        assert report.stale_baseline == []


class TestCliEntrypoint:
    def test_module_invocation_exits_zero(self, repo_root, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        out = tmp_path / "archlint_report.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.analysis",
                "src",
                "benchmarks",
                "--baseline",
                "archlint_baseline.json",
                "--json",
                str(out),
            ],
            cwd=repo_root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(out.read_text())
        assert payload["summary"]["ok"] is True
        assert payload["summary"]["new"] == 0
