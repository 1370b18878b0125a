import os
import subprocess
import sys
from pathlib import Path

import pytest

from hogpipe.ingest import load_luma

ROOT = Path(__file__).resolve().parents[1]


def script(name, *args, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, check=check,
    )


def run_script(name, *args):
    return script(name, *args).stdout.splitlines()


def test_accuracy_sweep_prints_table_and_corpus_mean():
    lines = run_script(
        "accuracy_sweep.py", "--width", "64", "--height", "64", "--count", "3"
    )
    assert lines[0].split() == ["frame", "mean_rel_err", "max_abs_err"]
    assert len(lines) >= 3
    label, mean = lines[-1].rsplit(None, 1)
    assert label == "corpus mean"
    assert 0.0 <= float(mean) <= 0.03


def test_cordic_sweep_covers_the_grid_within_angle_bound():
    lines = run_script("cordic_sweep.py", "--iterations", "14")
    # label and value are separated by a run of spaces; labels hold single ones
    report = {label: value.strip() for label, value in (l.split("  ", 1) for l in lines)}
    assert report["iterations"] == "14"
    assert report["inputs"] == "261121"
    assert 0.0 < float(report["max angle err (deg)"]) <= 0.01


def test_cordic_sweep_refuses_too_few_iterations_with_usage_error():
    proc = script("cordic_sweep.py", "--iterations", "13", check=False)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_accuracy_sweep_refuses_a_size_the_pipeline_cannot_take():
    proc = script("accuracy_sweep.py", "--width", "12", check=False)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("size", [["--width", "2", "--height", "2"], ["--width", "-5"]])
def test_make_test_images_refuses_a_size_the_pipeline_cannot_take(tmp_path, size):
    proc = script("make_test_images.py", str(tmp_path / "out"), *size, check=False)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()  # no file written


def test_make_test_images_writes_decodable_frames(tmp_path):
    lines = run_script(
        "make_test_images.py", str(tmp_path),
        "--width", "32", "--height", "32", "--count", "3",
    )
    assert len(lines) == 8  # the corpus always holds its eight fixed textures
    for path in lines:
        assert Path(path).parent == tmp_path
        assert load_luma(path).luma.shape == (32, 32)


def test_output_digest_repeats_and_names_every_output():
    args = ["output_digest.py", "--width", "64", "--height", "64", "--count", "9"]
    first, second = run_script(*args), run_script(*args)
    assert first == second
    names = [line.split()[1] for line in first]
    assert names == [
        "fast_cells", "fast_blocks", "golden_cells", "golden_blocks",
        "compare_text", "compare_text_per_stage", "stream_cells", "stream_blocks", "stream_taps",
    ]
    assert all(len(line.split()[0]) == 64 for line in first)
    # a 64x64 frame is its own streaming crop, and the two paths agree
    digest = {name: d for d, name in map(str.split, first)}
    assert digest["stream_cells"] == digest["fast_cells"]
    assert digest["stream_blocks"] == digest["fast_blocks"]
    # each digest covers every frame: the ninth frame follows the seed
    other = run_script(*args, "--seed", "1")
    assert all(a.split()[0] != b.split()[0] for a, b in zip(first, other))
