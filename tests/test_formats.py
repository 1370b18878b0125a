"""The format matrix: every format decision is one line of src/.

Each row names one line of src/ and the line that replaces it. The old
line must occur exactly once in all of src/: that is the one-place check.
The row copies src/hogpipe into tmp_path, swaps the line and runs
format_check.py on the copy in a subprocess. A consistent row's copy must
pass format_check's streaming, accuracy and naive checks; a refusal row's
copy must refuse the named table build with ValueError.
"""

import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

_MAG = "MAG = QFormat(int_bits=10, frac_bits=6)"
_ANG = "ANG = QFormat(int_bits=8, frac_bits=13)"
_CELL_ACC = (
    "CELL_ACC = QFormat(MAG.int_bits + (CELL_SIZE * CELL_SIZE - 1).bit_length(), MAG.frac_bits)"
)

# name: (old line, new line, the build that refuses the edit or None)
ROWS = {
    "MAG-10.4": (_MAG, "MAG = QFormat(int_bits=10, frac_bits=4)", None),
    "MAG-10.7": (_MAG, "MAG = QFormat(int_bits=10, frac_bits=7)", None),
    "ANG-8.12": (_ANG, "ANG = QFormat(int_bits=8, frac_bits=12)", None),
    "ANG-8.14": (_ANG, "ANG = QFormat(int_bits=8, frac_bits=14)", None),
    "BIN_COUNT-6": ("BIN_COUNT = 9", "BIN_COUNT = 6", None),
    "BIN_COUNT-12": ("BIN_COUNT = 9", "BIN_COUNT = 12", None),
    "CELL_SIZE-4": ("CELL_SIZE = 8", "CELL_SIZE = 4", None),
    "CELL_SIZE-16": ("CELL_SIZE = 8", "CELL_SIZE = 16", None),
    # the peak of 23,080 raw overflows MAG
    "MAG-8.6": (_MAG, "MAG = QFormat(int_bits=8, frac_bits=6)", "polar_table"),
    # a full cell of the peak overflows CELL_ACC
    "CELL_ACC-narrow-2": (
        _CELL_ACC, _CELL_ACC.replace("bit_length()", "bit_length() - 2"), "polar_table"
    ),
    # a cell total reaches the packing shift
    "PACK_BITS-21": ("PACK_BITS = 24", "PACK_BITS = 21", "vote_table"),
    # the 2**-58 grid is coarser than the golden weights' 2**-61
    "LIMB_BITS-10": ("LIMB_BITS = 26", "LIMB_BITS = 10", "golden_vote_table"),
    # a bin's coarse limbs pass 2**53 steps
    "LIMB_BITS-45": ("LIMB_BITS = 26", "LIMB_BITS = 45", "golden_vote_table"),
}


def edited_copy(tmp_path: Path, old: str, new: str) -> Path:
    """tmp_path holding a copy of src/hogpipe whose one line reading old
    reads new instead."""
    hits = [
        (path, n)
        for path in sorted(SRC.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines())
        if line == old
    ]
    assert len(hits) == 1, f"{old!r} is {len(hits)} lines of src/, not one"
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(SRC / "hogpipe", tmp_path / "hogpipe", ignore=ignore)
    path, n = hits[0]
    target = tmp_path / path.relative_to(SRC)
    lines = target.read_text().splitlines(keepends=True)
    lines[n] = new + "\n"
    target.write_text("".join(lines))
    return tmp_path


def run(copy: Path, script: Path, *args) -> subprocess.CompletedProcess:
    """A script run with the hogpipe package in copy first on its path."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(copy), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, script, *args], capture_output=True, text=True, env=env)


def check_row(tmp_path: Path, row: str) -> subprocess.CompletedProcess:
    old, new, refused_by = ROWS[row]
    copy = edited_copy(tmp_path, old, new)
    mode = ("refused", refused_by) if refused_by else ("consistent",)
    return run(copy, HERE / "format_check.py", copy, *mode)


@pytest.fixture(scope="module")
def row_checks(tmp_path_factory):
    """Every row's check, started on first use and run two at a time: each
    one spends most of its time starting Python and numpy."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        yield {row: pool.submit(check_row, tmp_path_factory.mktemp(row), row) for row in ROWS}


@pytest.mark.parametrize("row", ROWS)
def test_format_decision_is_one_line(row, row_checks):
    proc = row_checks[row].result()
    assert proc.returncode == 0, proc.stderr


def test_cordic_sweep_names_the_mag_format(tmp_path):
    copy = edited_copy(tmp_path, *ROWS["MAG-10.7"][:2])
    proc = run(copy, HERE.parent / "scripts" / "cordic_sweep.py", "--iterations", "14")
    assert proc.returncode == 0, proc.stderr
    assert "ulp of U10.7" in proc.stdout
