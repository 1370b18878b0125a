"""The four benchmark workloads: inputs from a seed, one timed operation, its check.

Each workload draws its frames from `textures.make_corpus(seed=...)` and
exposes a list of items. The runner cycles through them, times `op(item)`
and then, outside the timed region, calls `check(item, output)`. A check
returns False when the output breaks one of the program's invariants; that
operation then counts as failed. `summary()` returns the workload's
simulated and accuracy metrics together with a verdict on whether they
hold.

Why these four: each layer that an optimisation is likely to touch does
most of the work in one workload and little in another. `extract_vga`
is the vectorised fast path (vote-table gathers, bincounts, block
normalisation) plus file I/O; `detect_vga` adds window scoring to it;
`stream_model` runs only the per-pixel scalar stages; `compare_vga` is
dominated by the float64 golden model.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from hogpipe import cli, cordic, detector, golden, ingest, pipeline, textures

# A block descriptor is v / sqrt(|v|^2 + eps^2), so its norm is below 1;
# allow for the rounding of the square root and the division.
_NORM_SLACK = 1e-12
# detect() may score windows another way than score_window (for example one
# matmul for all windows); allow for a different summation order.
_SCORE_RTOL = 1e-9
_SCORE_ATOL = 1e-9
# Share of corpus windows the detector's threshold lets through.
_HIT_SHARE = 0.03
# The acceptance bound on a frame's blockwise error against golden.
_MAX_REL_ERR = 0.03
# Accuracy is reported on this fixed corpus so it repeats across seeds.
_REFERENCE_SEED = 0
_CROPS_PER_FRAME = 6


@dataclass(frozen=True)
class Size:
    width: int
    height: int
    frames: int  # corpus length; make_corpus places the first noise frame at 10
    crop: int  # side of the stream_model crops
    min_ops: int  # 10 costs beyond p90 need 100 costs, which need 101 operations
    setup_reps: int


FULL = Size(640, 480, 20, 64, 101, 7)
SMOKE = Size(160, 128, 11, 32, 3, 1)


@dataclass(frozen=True)
class Item:
    name: str  # corpus frame name
    texture: str  # "noise" for full-bandwidth noise frames, else "smooth"
    data: object


def _items(frames, data) -> list[Item]:
    return [
        Item(name, "noise" if name.startswith("noise-") else "smooth", d)
        for (name, _), d in zip(frames, data)
    ]


def _flat_gradient_index(luma: np.ndarray) -> np.ndarray:
    """Index into the 511x511 polar grid of each pixel's central difference."""
    p = np.pad(luma.astype(np.int64), 1, mode="edge")
    gx = p[1:-1, 2:] - p[1:-1, :-2]
    gy = p[2:, 1:-1] - p[:-2, 1:-1]
    return ((gx + 255) * 511 + (gy + 255)).ravel()


def _write_pgm(path: str, luma: np.ndarray) -> None:
    h, w = luma.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(np.ascontiguousarray(luma, dtype=np.uint8).tobytes())


class Workload:
    name = ""  # BENCHMARK.json records why each workload is in the benchmark
    why = ""
    reference = "array"  # the kind of work run.py's Reference kernel does

    def __init__(self, seed: int, size: Size, workdir: str):
        self.seed = seed
        self.size = size
        self.frames = textures.make_corpus(size.frames, size.width, size.height, seed)
        self.cfg = pipeline.PipelineConfig(size.width, size.height)
        self.items: list[Item] = _items(self.frames, [luma for _, luma in self.frames])
        self.context: dict = {}  # workload facts recorded with every result

    def op(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, out) -> bool:
        raise NotImplementedError

    def summary(self) -> tuple[dict, bool]:
        """({metric: (value, unit, kind)}, whether the run-level checks hold)."""
        return {}, True


class ExtractVga(Workload):
    name = "extract_vga"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        table = cordic.polar_table(self.cfg.cordic)
        data = []
        for i, (_, luma) in enumerate(self.frames):
            src = os.path.join(workdir, f"frame-{i:02d}.pgm")
            _write_pgm(src, luma)
            # conservation oracle: the votes of a pixel sum to its magnitude
            mass = int(table.mag_raw[_flat_gradient_index(luma)].sum())
            data.append((src, os.path.join(workdir, f"frame-{i:02d}.hogf"), mass))
        self.items = _items(self.frames, data)
        self.grid = (size.width // 8, size.height // 8)

    def op(self, item):
        src, dst, _ = item.data
        frame = ingest.load_luma(src)
        hog, _ = pipeline.run_frame_fast(frame.luma, self.cfg)
        cli.write_features(dst, cli.VIEW_BLOCK_NORM, *self.grid, hog.blocks)
        return hog

    def check(self, item, hog):
        _, dst, mass = item.data
        if int(hog.cells.sum()) != mass:
            return False
        if np.sqrt(np.sum(np.square(hog.blocks), axis=-1)).max() > 1.0 + _NORM_SLACK:
            return False
        ff = cli.read_features(dst)
        return (
            (ff.view, ff.width_cells, ff.height_cells) == (cli.VIEW_BLOCK_NORM, *self.grid)
            and np.array_equal(ff.values, hog.blocks.astype("<f4").ravel())
        )


class DetectVga(Workload):
    name = "detect_vga"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        cw, ch = detector.WINDOW_CELL_COLS, detector.WINDOW_CELL_ROWS
        rng = np.random.default_rng([seed, 1])
        weights = rng.normal(0.0, 1.0, (cw - 1) * (ch - 1) * 36)
        # calibrate the threshold on this corpus so a few percent of windows pass
        probe = detector.SvmModel(weights, 0.0, -math.inf)
        scores = [
            d.score
            for _, luma in self.frames
            for d in detector.detect(pipeline.run_frame_fast(luma, self.cfg)[0], probe)
        ]
        threshold = float(np.quantile(scores, 1.0 - _HIT_SHARE))
        self.model = detector.SvmModel(weights, 0.0, threshold)
        self.context = {
            "threshold": threshold,
            "hit_share": float(np.mean(np.array(scores) > threshold)),
        }
        self.hit_counts = {}

    def op(self, item):
        hog, _ = pipeline.run_frame_fast(item.data, self.cfg)
        return hog, detector.detect(hog, self.model, 1)

    def check(self, item, out):
        hog, hits = out
        if self.hit_counts.setdefault(item.name, len(hits)) != len(hits):
            return False
        keys = [(-d.score, d.y, d.x) for d in hits]
        if keys != sorted(keys) or any(d.score <= self.model.threshold for d in hits):
            return False
        sample = [hits[0], hits[len(hits) // 2], hits[-1]] if hits else []
        for d in sample:
            if d.x % 8 or d.y % 8:
                return False
            ref = detector.score_window(hog, d.x // 8, d.y // 8, self.model)
            if not math.isclose(d.score, ref, rel_tol=_SCORE_RTOL, abs_tol=_SCORE_ATOL):
                return False
        return True


class StreamModel(Workload):
    name = "stream_model"
    reference = "interp"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        rng = np.random.default_rng([seed, 2])
        c = size.crop
        # several crops of every frame, so that the median cost does not
        # hang on where a single crop of each frame happened to fall
        self.items = []
        for item in _items(self.frames, [luma for _, luma in self.frames]):
            for _ in range(_CROPS_PER_FRAME):
                y = int(rng.integers(0, size.height - c + 1))
                x = int(rng.integers(0, size.width - c + 1))
                crop = np.ascontiguousarray(item.data[y : y + c, x : x + c])
                self.items.append(Item(f"{item.name}@{x},{y}", item.texture, crop))
        self.cfg = pipeline.PipelineConfig(c, c)
        self.context = {"crop": f"{c}x{c}", "crops": len(self.items)}
        px = c * c
        self.expected_pps = px / (px + c + 2)
        self.fast = {}

    def op(self, item):
        return pipeline.run_frame(item.data, self.cfg)

    def check(self, item, out):
        hog, stats = out
        if item.name not in self.fast:
            self.fast[item.name] = pipeline.run_frame_fast(item.data, self.cfg)[0]
        ref = self.fast[item.name]
        return (
            np.array_equal(hog.cells, ref.cells)
            and np.array_equal(hog.blocks, ref.blocks)
            and stats.pixels_per_step == self.expected_pps
        )

    def summary(self):
        # run_frame hides its pipeline, so the buffer peak comes from one more pass
        pipe = pipeline.StreamingPipeline(self.cfg)
        for px in self.items[0].data.ravel().tolist():
            pipe.step(px)
        _, stats = pipe.finish()
        peak = pipe.peak_pixel_buffer
        metrics = {
            "pixels_per_step": (stats.pixels_per_step, "px/step", "sim"),
            "peak_pixel_buffer": (peak, "px", "sim"),
        }
        ok = stats.pixels_per_step == self.expected_pps and peak <= 2 * self.cfg.width + 3
        return metrics, ok


class CompareVga(Workload):
    name = "compare_vga"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.reports = {}

    def op(self, item):
        return self._compare(item.data)

    def _compare(self, luma):
        hog, _ = pipeline.run_frame_fast(luma, self.cfg)
        gold = golden.golden_hog(luma, self.cfg.epsilon)
        return golden.compare(hog, gold, per_stage=True)

    def check(self, item, report):
        key = (report.mean_rel_err, report.max_abs_err, report.block_count)
        first = self.reports.setdefault(item.name, key)
        return key == first and report.mean_rel_err <= _MAX_REL_ERR

    def summary(self):
        s = self.size
        rel, worst = [], 0.0
        for _, luma in textures.make_corpus(s.frames, s.width, s.height, _REFERENCE_SEED):
            report = self._compare(luma)
            rel.append(report.mean_rel_err)
            worst = max(worst, report.max_abs_err)
        mean = math.fsum(rel) / len(rel)
        metrics = {
            "mean_rel_err": (mean, "ratio", "accuracy"),
            "max_abs_err": (worst, "abs", "accuracy"),
        }
        return metrics, max(rel) <= _MAX_REL_ERR


WORKLOADS = {w.name: w for w in (ExtractVga, DetectVga, StreamModel, CompareVga)}
