"""Smoke tests of the scripts under scripts/."""

import json
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


def test_bench_pairs_prints_medians_and_ratios():
    # one pair of this checkout against itself, on the radial workload
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "bench_pairs.py"),
            "--base",
            str(ROOT),
            "--change",
            str(ROOT),
            "--workload",
            "radial_certificates",
            "--pairs",
            "1",
            "--seconds",
            "0.5",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["workload"] == "radial_certificates" and out["pairs"] == 1
    assert out["health"] == {
        "base": {"correct": True, "failed": 0},
        "change": {"correct": True, "failed": 0},
    }
    assert set(out["metrics"]) == {"setup_s", "ops_per_s", "op_p50_s", "peak_rss_mb"}
    for m in out["metrics"].values():
        assert len(m["base"]["values"]) == len(m["change"]["values"]) == len(m["ratios"]) == 1
        assert m["median_ratio"] == m["ratios"][0] > 0.0


def test_bench_pairs_rejects_zero_pairs():
    # no pair means no run to compare: an argparse error before any run
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "bench_pairs.py"),
            "--base",
            str(ROOT),
            "--change",
            str(ROOT),
            "--workload",
            "radial_certificates",
            "--pairs",
            "0",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert "--pairs must be at least 1" in done.stderr
    assert done.stdout == ""
