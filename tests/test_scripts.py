"""Smoke test of the scripts under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_profile_gallery_writes_every_profile(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "profile_gallery.py"),
            "--M",
            "256",
            "--out-dir",
            str(tmp_path),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # one profile per (q, c) of the 4 x 4 grid
    assert len(list(tmp_path.glob("profile_q*_c*.csv"))) == 16
