"""One-pixel-per-step feature pipeline.

Wires gradient extraction, polar conversion, orientation voting, cell
accumulation and block assembly into one streaming extractor. A step
ingests one pixel and every stage advances on it, as in a single-clock
datapath. After the last pixel the gradient stage drains its latency
tail, one step per flushed pair; the step ledger is the gradient stage's
pixels and drained steps, so pixels_per_step is just under 1.0.

Stages hand each other plain Python values, as hardware stages hand on
registers (ints per pixel, nine bins per cell, 36 floats per block), and
an item's position is its count in stream order. The gradient and cell
stages are generator coroutines; their push_pixel and accumulate are
gradient.Port descriptors, so the pipeline steps each through its
coroutine's send, with no Python frame per item of its own, while a
tracer can still wrap either on its class. The pipeline keeps what the
stages emit: finish() shapes the frame from it, and captures() builds a
tap's records, with their positions, from it.

run_frame is the instrumented streaming path: feed maps the frame's
pixels through push_pixel, and one pair loop reads each pair's vote (low
bin and packed weight) from the memoized vote table at grid_index's
linear form, inlined, sends it to accumulate and appends each finished
cell and its block to the output streams. run_frame_fast computes the
identical HogFrame with arrays (not thread-safe): cells.frame_votes
gathers each strip's keys and packed weights from the same table,
cells.add_votes bincounts them, and blocks.normalize_grid squares each
cell once. Cells are integer-identical and block square sums exact on
both paths, and both take their divisor from blocks.block_norm, so the
outputs match element-exactly.
"""

from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral
from typing import ClassVar

import numpy as np

from .blocks import (
    BLOCK_EPSILON, BLOCK_VALUES, BlockAssembler, HogFrame, block_grid, normalize_grid
)
from .cells import CellAccumulator, add_votes, cells_per_frame, frame_votes
from .cordic import GRID_SIDE, CordicConfig, grid_index, polar_table
from .errors import DimensionError, TapNotEnabled
from .gradient import GradientStage, luma8, warmup_steps
from .voting import BIN_COUNT, hi_bin, split_packed, vote_table


class Tap(Enum):
    """Debug capture points, in stage order: one record per pixel for the
    first three, the emitted cells and blocks for the last two."""

    GRADIENTS = "gradients"
    POLAR = "polar"
    VOTES = "votes"
    CELLS = "cells"
    BLOCKS = "blocks"


@dataclass(frozen=True)
class GradientPair:
    gx: int
    gy: int
    row: int
    col: int


@dataclass(frozen=True)
class PolarGradient:
    magnitude: int  # MAG raw (U10.6)
    orientation: int  # ANG raw (U8.13), degrees in [0, 180)
    row: int
    col: int


@dataclass(frozen=True)
class BinVote:
    lo_bin: int
    hi_bin: int
    lo_weight: int  # MAG raw
    hi_weight: int  # MAG raw
    row: int
    col: int


@dataclass(frozen=True)
class CellHistogram:
    bins: tuple[int, ...]  # 9 raw accumulator values (U16.6)
    cell_row: int
    cell_col: int


@dataclass(frozen=True)
class BlockDescriptor:
    values: np.ndarray  # 36 float64, L2-normalized
    block_row: int
    block_col: int


@dataclass(frozen=True)
class PipelineConfig:
    width: int
    height: int
    cordic: CordicConfig = field(default_factory=CordicConfig)
    epsilon: ClassVar[float] = BLOCK_EPSILON
    taps: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for name, size in (("width", self.width), ("height", self.height)):
            if size.__class__ is bool or not isinstance(size, Integral):  # as gradient._pixel
                raise TypeError(f"{name} must be an integer, not {size!r}")
        cols, rows = cells_per_frame(self.width, self.height)
        if min(block_grid(rows, cols)) < 1:
            raise DimensionError(f"need at least a 2x2 cell grid, got {cols}x{rows}")
        object.__setattr__(self, "taps", frozenset(self.taps))
        if bad := sorted(repr(t) for t in self.taps if not isinstance(t, Tap)):
            raise TypeError(f"taps must be Tap members, not {', '.join(bad)}")


@dataclass(frozen=True)
class RunStats:
    pixels_in: int
    steps: int
    warmup_steps: int
    cells_out: int
    blocks_out: int

    @property
    def pixels_per_step(self) -> float:
        return self.pixels_in / self.steps


class StreamingPipeline:
    """Single-frame pipeline instance with step and buffer accounting.

    Call step() once per pixel (an int in 0..255, else LayoutError; past
    the frame's last, DimensionError), or feed() them, in row-major order,
    then finish(); either way each gradient pair goes through _take, the
    one per-pair loop. It keeps each closed cell's bins, each block's values
    and, for a per-pixel tap only, each pair, in order. The polar and voting
    stages are one read of the memoized vote table, a (low bin, packed
    weight) vote. A ring's fill never drops within a frame, so the peak
    buffer occupancy of the memory-bound check is the rings' current fill;
    the tables (constant data) and kept streams (the frame's output) are
    deliberately not counted.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        t = vote_table(cfg.cordic)  # memoryviews read back an int and a float
        self._lo_bins, self._weights = memoryview(t.lo_bin), memoryview(t.weights[0])
        self._grad = GradientStage(cfg.width, cfg.height)
        self._cells = CellAccumulator(cfg.width, cfg.height)
        self._blocks = BlockAssembler(cells_per_frame(cfg.width, cfg.height)[0])
        self._drained = 0  # steps after the last pixel, counted by finish()
        self._cells_out, self._blocks_out = [], []  # what the stages emitted
        self._pairs = [] if cfg.taps - {Tap.CELLS, Tap.BLOCKS} else None

    @property
    def peak_pixel_buffer(self) -> int:
        return self._grad.buffered_pixels

    @property
    def peak_cell_row_buffer(self) -> int:
        return self._blocks.buffered_cells

    @property
    def cell_partials(self) -> int:
        # fixed-size ring, one partial histogram per cell column
        return self._cells.partial_count

    @property
    def pixels_in(self) -> int:
        return self._grad.pushed

    @property
    def steps(self) -> int:
        return self._grad.pushed + self._drained

    def captures(self, tap: Tap) -> list:
        """The tap's records so far, in stream order, built from the stored
        streams at each call; an item's position is its index in its stream."""
        if tap not in self.cfg.taps:
            raise TapNotEnabled(f"tap {tap.value} was not requested in the config")
        cols, rows = cells_per_frame(self.cfg.width, self.cfg.height)
        if tap is Tap.CELLS:
            cells = enumerate(self._cells_out)
            return [CellHistogram(tuple(bins), *divmod(n, cols)) for n, bins in cells]
        if tap is Tap.BLOCKS:
            _, cols = block_grid(rows, cols)
            blocks = enumerate(self._blocks_out)
            return [BlockDescriptor(np.array(v), *divmod(n, cols)) for n, v in blocks]
        polar, records = polar_table(self.cfg.cordic) if tap is Tap.POLAR else None, []
        for n, (gx, gy) in enumerate(self._pairs):
            i, pos = grid_index(gx, gy), divmod(n, self.cfg.width)
            if tap is Tap.GRADIENTS:
                records.append(GradientPair(gx, gy, *pos))
            elif tap is Tap.POLAR:
                records.append(PolarGradient(int(polar.mag_raw[i]), int(polar.ang_raw[i]), *pos))
            else:
                lo, (lo_w, hi_w) = self._lo_bins[i], split_packed(self._weights[i])
                records.append(BinVote(lo, hi_bin(lo), int(lo_w), int(hi_w), *pos))
        return records

    def step(self, luma: int) -> None:
        self.feed((luma,))

    def feed(self, pixels) -> None:
        # map and filter iterate in C; a pair is truthy, a warm-up None is not
        self._take(filter(None, map(self._grad.push_pixel, pixels)))

    def finish(self) -> tuple[HogFrame, RunStats]:
        # a drained stage yields nothing more, so a second finish() is a no-op
        emitted = self._grad.emitted
        self._take(self._grad.drain())
        self._drained += self._grad.emitted - emitted
        cols, rows = cells_per_frame(self.cfg.width, self.cfg.height)
        cells = np.array(self._cells_out, dtype=np.int64).reshape(rows, cols, BIN_COUNT)
        blocks = np.array(self._blocks_out).reshape(*block_grid(rows, cols), BLOCK_VALUES)
        n = len(self._cells_out), len(self._blocks_out)
        return HogFrame(cells, blocks), RunStats(self.pixels_in, self.steps, self._drained, *n)

    def _take(self, pairs) -> None:
        accumulate, add = self._cells.accumulate, self._blocks.add
        lo_bins, weights, center = self._lo_bins, self._weights, grid_index(0, 0)
        cells_out, blocks_out = self._cells_out, self._blocks_out
        if self._pairs is not None:  # a per-pixel tap keeps each pair as it passes
            pairs = (self._pairs.append(pair) or pair for pair in pairs)
        for gx, gy in pairs:
            # grid_index is linear: gx * GRID_SIDE + gy + grid_index(0, 0)
            i = gx * GRID_SIDE + gy + center
            bins = accumulate((lo_bins[i], weights[i]))
            if bins is not None:  # the vote closed a cell
                cells_out.append(bins)
                values = add(bins)
                if values is not None:
                    blocks_out.append(values)


def _as_luma(frame, cfg: PipelineConfig) -> np.ndarray:
    luma = luma8(frame)
    if luma.shape != (cfg.height, cfg.width):
        raise DimensionError(f"frame is {luma.shape}, config wants {(cfg.height, cfg.width)}")
    return luma


def run_frame(frame, cfg: PipelineConfig) -> tuple[HogFrame, RunStats]:
    """Stream a whole frame through a fresh pipeline instance."""
    luma = _as_luma(frame, cfg)
    pipe = StreamingPipeline(cfg)
    pipe.feed(luma.ravel().tolist())
    return pipe.finish()


def run_frame_fast(frame, cfg: PipelineConfig) -> tuple[HogFrame, RunStats]:
    """Whole-frame vectorized twin of run_frame, bit-identical output.

    Taps are a streaming facility; requesting them here is an error
    rather than a silent no-op.
    """
    if cfg.taps:
        raise TapNotEnabled("stage taps require the streaming path")
    luma = _as_luma(frame, cfg)
    h, w = luma.shape
    cc, cr = cells_per_frame(w, h)

    # fresh per frame: the result never aliases frame_votes' workspace
    cells = np.zeros((cr, cc, BIN_COUNT), dtype=np.int64)
    for votes in frame_votes(luma, vote_table(cfg.cordic)):
        add_votes(cells, *votes)
    blocks = normalize_grid(cells)

    n, warmup = h * w, warmup_steps(w)
    stats = RunStats(n, n + warmup, warmup, cells.size // BIN_COUNT, blocks.size // BLOCK_VALUES)
    return HogFrame(cells=cells, blocks=blocks), stats
