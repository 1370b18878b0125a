import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_accuracy_sweep_prints_table_and_corpus_mean():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "accuracy_sweep.py"),
         "--width", "64", "--height", "64", "--count", "3"],
        capture_output=True, text=True, env=env, check=True,
    )
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["frame", "mean_rel_err", "max_abs_err"]
    assert len(lines) >= 3
    label, mean = lines[-1].rsplit(None, 1)
    assert label == "corpus mean"
    assert 0.0 <= float(mean) <= 0.03
