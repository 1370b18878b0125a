import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hogpipe import cli
from hogpipe.blocks import dequantize
from hogpipe.detector import SvmModel, save_model
from hogpipe.errors import FormatError
from hogpipe.golden import golden_hog
from hogpipe.ingest import demosaic_bilinear, to_grayscale, write_pgm
from hogpipe.pipeline import PipelineConfig, run_frame_fast


def pgm(tmp_path, shape, seed=0, name="in.pgm"):
    luma = np.random.default_rng(seed).integers(0, 256, size=shape, dtype=np.uint8)
    path = tmp_path / name
    write_pgm(path, luma)
    return path, luma


def parse_stats(out):
    pairs = [ln.split("=", 1) for ln in out.strip().splitlines() if "=" in ln]
    return dict(pairs)


def test_extract_cell_view(tmp_path, capsys):
    src, luma = pgm(tmp_path, (16, 24))
    dst = tmp_path / "feat.bin"
    rc = cli.main(["extract", "--input", str(src), "--output", str(dst), "--view", "cell"])
    assert rc == 0
    stats = parse_stats(capsys.readouterr().out)
    assert stats["pixels_in"] == "384"
    assert stats["cells_out"] == "6"
    assert float(stats["pixels_per_step"]) == pytest.approx(384 / (384 + 26), abs=1e-6)
    ff = cli.read_features(dst)
    assert (ff.view, ff.width_cells, ff.height_cells, ff.bins) == (0, 3, 2, 9)
    hog, _ = run_frame_fast(luma, PipelineConfig(width=24, height=16))
    assert np.array_equal(ff.values, dequantize(hog.cells).astype(np.float32).ravel())


def test_extract_block_view(tmp_path, capsys):
    src, luma = pgm(tmp_path, (24, 32), seed=1)
    dst = tmp_path / "feat.bin"
    rc = cli.main(["extract", "--input", str(src), "--output", str(dst), "--view", "block"])
    assert rc == 0
    ff = cli.read_features(dst)
    assert ff.view == 1
    assert ff.values.size == 3 * 2 * 36
    hog, _ = run_frame_fast(luma, PipelineConfig(width=32, height=24))
    assert np.array_equal(ff.values, hog.blocks.astype(np.float32).ravel())


def test_extract_golden_view(tmp_path, capsys):
    src, luma = pgm(tmp_path, (16, 16), seed=2)
    dst = tmp_path / "feat.bin"
    rc = cli.main(
        ["extract", "--input", str(src), "--output", str(dst), "--view", "block", "--golden"]
    )
    assert rc == 0
    stats = parse_stats(capsys.readouterr().out)
    assert stats["blocks_out"] == "1"
    assert "steps" not in stats  # no step ledger for the whole-frame model
    ff = cli.read_features(dst)
    gold = golden_hog(luma)
    assert np.array_equal(ff.values, gold.blocks.astype(np.float32).ravel())


def test_extract_missing_input_exits_1(tmp_path, capsys):
    rc = cli.main(
        ["extract", "--input", str(tmp_path / "nope.pgm"), "--output",
         str(tmp_path / "o"), "--view", "cell"]
    )
    assert rc == 1
    assert capsys.readouterr().err != ""


def test_extract_bad_magic_exits_2(tmp_path, capsys):
    src = tmp_path / "junk.pgm"
    src.write_bytes(b"JUNKJUNKJUNK")
    rc = cli.main(
        ["extract", "--input", str(src), "--output", str(tmp_path / "o"), "--view", "cell"]
    )
    assert rc == 2


def test_extract_bad_dimensions_exits_3(tmp_path, capsys):
    src, _ = pgm(tmp_path, (20, 20), seed=3)
    rc = cli.main(
        ["extract", "--input", str(src), "--output", str(tmp_path / "o"), "--view", "cell"]
    )
    assert rc == 3


def extract_cells(tmp_path, src, *flags):
    dst = tmp_path / "feat.bin"
    rc = cli.main(["extract", "--input", str(src), "--output", str(dst), "--view", "cell", *flags])
    return rc, cli.read_features(dst).values if rc == 0 else None


def test_extract_p6_runs_on_bt601_luma(tmp_path, capsys):
    rgb = np.random.default_rng(6).integers(0, 256, size=(16, 24, 3), dtype=np.uint8)
    src = tmp_path / "in.ppm"
    src.write_bytes(b"P6\n24 16\n255\n" + rgb.tobytes())
    rc, values = extract_cells(tmp_path, src)
    assert rc == 0
    r, g, b = rgb.astype(np.int64).transpose(2, 0, 1)
    luma = ((77 * r + 150 * g + 29 * b) >> 8).astype(np.uint8)
    hog, _ = run_frame_fast(luma, PipelineConfig(width=24, height=16))
    assert np.array_equal(values, dequantize(hog.cells).astype(np.float32).ravel())


def test_extract_bayer_p5_runs_on_demosaiced_luma(tmp_path, capsys):
    src, mosaic = pgm(tmp_path, (16, 24), seed=7)
    rc, values = extract_cells(tmp_path, src, "--bayer")
    assert rc == 0
    luma = to_grayscale(demosaic_bilinear(mosaic))
    hog, _ = run_frame_fast(luma, PipelineConfig(width=24, height=16))
    assert np.array_equal(values, dequantize(hog.cells).astype(np.float32).ravel())


@pytest.mark.parametrize(
    "blob, flags, want",
    [
        (b"P6\n24 16\n255\n" + bytes(24 * 16 * 3), ["--bayer"], 2),  # Bayer needs a P5
        (b"P5\n23 16\n255\n" + bytes(23 * 16), ["--bayer"], 2),  # odd-width mosaic
        (b"P5\n2 2\n255\n" + bytes(4), [], 3),
        (b"P5\n24 16\n65535\n" + bytes(24 * 16 * 2), [], 2),
    ],
)
def test_extract_rejects_each_ingest_fault_with_its_exit_code(tmp_path, capsys, blob, flags, want):
    src = tmp_path / "in.pgm"
    src.write_bytes(blob)
    assert extract_cells(tmp_path, src, *flags)[0] == want
    assert capsys.readouterr().err.startswith("error: ")


def test_feature_file_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    vals = rng.random(2 * 3 * 9).astype(np.float32)
    p = tmp_path / "f.bin"
    cli.write_features(p, cli.VIEW_CELL_RAW, 3, 2, vals)
    back = cli.read_features(p)
    assert np.array_equal(back.values, vals)


def test_feature_file_rejects_corruption(tmp_path):
    p = tmp_path / "f.bin"
    cli.write_features(p, cli.VIEW_CELL_RAW, 3, 2, np.zeros(54, dtype=np.float32))
    blob = bytearray(p.read_bytes())

    short = tmp_path / "short.bin"
    short.write_bytes(blob[:10])
    with pytest.raises(FormatError):
        cli.read_features(short)

    wrong_magic = tmp_path / "magic.bin"
    wrong_magic.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(FormatError):
        cli.read_features(wrong_magic)

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(bytes(blob[:-4]))
    with pytest.raises(FormatError):
        cli.read_features(truncated)

    with pytest.raises(FormatError):
        cli.write_features(tmp_path / "n.bin", cli.VIEW_CELL_RAW, 3, 2, np.zeros(53))


def test_feature_count_rejects_degenerate_grids(tmp_path):
    assert cli.feature_count(cli.VIEW_CELL_RAW, 1, 1) == 9
    assert cli.feature_count(cli.VIEW_BLOCK_NORM, 2, 2) == 36
    for view, wc, hc in [
        (cli.VIEW_BLOCK_NORM, 0, 0),  # (-1) * (-1) * 36 would be 36
        (cli.VIEW_BLOCK_NORM, 1, 4),
        (cli.VIEW_BLOCK_NORM, 4, 1),
        (cli.VIEW_CELL_RAW, 0, 3),
        (cli.VIEW_CELL_RAW, 3, 0),
    ]:
        with pytest.raises(FormatError):
            cli.feature_count(view, wc, hc)
    with pytest.raises(FormatError):
        cli.write_features(tmp_path / "w.bin", cli.VIEW_BLOCK_NORM, 0, 0, np.zeros(36))
    p = tmp_path / "zero.bin"
    p.write_bytes(struct.pack("<4sHHIII", b"HOGF", 1, cli.VIEW_BLOCK_NORM, 0, 0, 9)
                  + bytes(36 * 4))
    with pytest.raises(FormatError):
        cli.read_features(p)


def test_feature_file_rejects_ragged_payload(tmp_path):
    p = tmp_path / "f.bin"
    cli.write_features(p, cli.VIEW_CELL_RAW, 3, 2, np.zeros(54, dtype=np.float32))
    p.write_bytes(p.read_bytes() + b"\0")
    with pytest.raises(FormatError):
        cli.read_features(p)


def test_extract_has_no_fixed_flag(tmp_path):
    src, _ = pgm(tmp_path, (16, 16))
    with pytest.raises(SystemExit):
        cli.main(["extract", "--input", str(src), "--output", str(tmp_path / "o"),
                  "--view", "cell", "--fixed"])


def test_compare_passes_default_threshold(tmp_path, capsys):
    src, _ = pgm(tmp_path, (32, 32), seed=5)
    rc = cli.main(["compare", "--input", str(src)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mean_rel_err=" in out
    assert "max_abs_err=" in out


def test_compare_zero_threshold_fails_on_noise(tmp_path, capsys):
    src, _ = pgm(tmp_path, (32, 32), seed=6)
    rc = cli.main(["compare", "--input", str(src), "--threshold", "0"])
    assert rc == 4


@pytest.mark.parametrize("threshold", ["nan", "-1", "-inf"])
def test_compare_bad_threshold_exits_2(tmp_path, threshold, capsys):
    # a NaN or negative threshold would report a mismatch on every frame
    src, _ = pgm(tmp_path, (16, 16), seed=6)
    with pytest.raises(SystemExit) as e:
        cli.main(["compare", "--input", str(src), "--threshold", threshold])
    assert e.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_compare_constant_image_is_exact(tmp_path, capsys):
    src = tmp_path / "flat.pgm"
    write_pgm(src, np.full((16, 16), 77, dtype=np.uint8))
    rc = cli.main(["compare", "--input", str(src), "--threshold", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mean_rel_err=0" in out


def test_bench_is_deterministic(tmp_path, capsys):
    rc = cli.main(["bench", "--width", "16", "--height", "16", "--frames", "2"])
    assert rc == 0
    first = parse_stats(capsys.readouterr().out)
    rc = cli.main(["bench", "--width", "16", "--height", "16", "--frames", "2"])
    assert rc == 0
    second = parse_stats(capsys.readouterr().out)
    assert first["pixels_per_step"] == second["pixels_per_step"]
    assert float(first["megapixels_per_second"]) > 0
    assert float(first["fps_equivalent"]) > 0


def test_bench_peak_memory_does_not_grow_with_frames(capsys):
    # bench draws each frame just before its call, so 200 frames peak no
    # higher than 20 do; holding them all would add 180 frames of 76,800 B
    def peak(frames: int) -> int:
        tracemalloc.start()
        try:
            argv = ["bench", "--width", "320", "--height", "240", "--frames", str(frames)]
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # the vote table and the frame shape's workspace are built once
    assert peak(200) < peak(20) + 320 * 240


def test_bench_bad_dimensions_exit_3(capsys):
    rc = cli.main(["bench", "--width", "12", "--height", "16", "--frames", "1"])
    assert rc == 3


@pytest.mark.parametrize("frames", ["0", "-1"])
def test_bench_non_positive_frames_exits_2(frames, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["bench", "--width", "16", "--height", "16", "--frames", frames])
    assert e.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_bench_negative_seed_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(
            ["bench", "--width", "64", "--height", "64", "--frames", "1", "--seed", "-1"]
        )
    assert e.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_detect_outputs_csv(tmp_path, capsys):
    src, _ = pgm(tmp_path, (128, 64), seed=7)
    weights = tmp_path / "model.txt"
    save_model(
        SvmModel(weights=np.ones(3780), threshold=float("-inf")), weights
    )
    rc = cli.main(["detect", "--input", str(src), "--weights", str(weights)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y,score"
    assert len(lines) == 2  # 64x128 holds exactly one window
    x, y, score = lines[1].split(",")
    assert (x, y) == ("0", "0")
    float(score)


def test_detect_out_file_and_stride(tmp_path):
    src, _ = pgm(tmp_path, (144, 80), seed=8)
    weights = tmp_path / "model.txt"
    save_model(
        SvmModel(weights=np.ones(3780), threshold=float("-inf")), weights
    )
    out = tmp_path / "hits.csv"
    rc = cli.main(
        ["detect", "--input", str(src), "--weights", str(weights),
         "--stride", "2", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    # 10x18 cell grid, stride 2: x in {0,2}, y in {0,2} cells
    assert len(lines) == 1 + 4


@pytest.mark.parametrize("stride", ["0", "-1"])
def test_detect_non_positive_stride_exits_2(tmp_path, stride, capsys):
    src, _ = pgm(tmp_path, (128, 64), seed=8)
    weights = tmp_path / "model.txt"
    save_model(SvmModel(weights=np.ones(3780)), weights)
    with pytest.raises(SystemExit) as e:
        cli.main(["detect", "--input", str(src), "--weights", str(weights),
                  "--stride", stride])
    assert e.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_detect_truncated_model_exits_4(tmp_path, capsys):
    src, _ = pgm(tmp_path, (128, 64), seed=9)
    weights = tmp_path / "model.txt"
    lines = ["hog-svm v1 3780"] + ["0.0"] * 1000 + ["bias 0.0", "threshold 0.0"]
    weights.write_text("\n".join(lines) + "\n")
    rc = cli.main(["detect", "--input", str(src), "--weights", str(weights)])
    assert rc == 4


def test_detect_non_utf8_model_exits_2(tmp_path, capsys):
    src, _ = pgm(tmp_path, (128, 64), seed=10)
    weights = tmp_path / "model.txt"
    weights.write_bytes(b"hog-svm v1 3780\n\xff\xfe\n")
    rc = cli.main(["detect", "--input", str(src), "--weights", str(weights)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_console_entry_point_runs():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "hogpipe.cli", "bench", "--width", "16",
         "--height", "16", "--frames", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "pixels_per_step=" in proc.stdout
