"""Self-test of the benchmark at tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload for a few operations on small frames, in both modes,
and checks that each metric BENCHMARK.json declares is emitted with its
unit, that the workload's own simulated and accuracy metrics are printed,
and that no operation fails on this code.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LINE = re.compile(r"^(\S+) = (\S+) (\S+) \((\w+)\)$")
# printed besides the metrics BENCHMARK.json declares
HOST = {"frames_per_s": "1/s", "frame_ms_p50": "ms", "frame_ms_p90": "ms", "ref_ms_p50": "ms"}
EXTRA = {
    "extract_vga": {},
    "detect_vga": {},
    "stream_model": {"pixels_per_step": "px/step", "peak_pixel_buffer": "px"},
    "compare_vga": {"mean_rel_err": "ratio", "max_abs_err": "abs"},
}


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3

    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())

    printed = {m[1]: (float(m[2]), m[3]) for m in map(LINE.match, lines) if m}
    expected = {**declared, **({} if trace else HOST), **EXTRA[workload], "failed_frac": "ratio"}
    assert {k: unit for k, (_, unit) in printed.items()} == expected
    assert printed["failed_frac"][0] == 0.0
    for name, v in result["metrics"].items():
        assert v["value"] == printed[name][0]

    context = json.loads(next(ln for ln in lines if ln.startswith("context "))[8:])
    assert context["seed"] == 3 and context["blas_threads"] == 1
    assert {"python", "numpy", "nproc"} <= set(context)


def test_fails_without_the_program_sources():
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
        proc = bench(Path(tmp), "extract_vga", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
