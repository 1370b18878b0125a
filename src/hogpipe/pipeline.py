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
tracer can still wrap either on its class. The tap records are built,
with their position, only when a Tap asks (a BlockDescriptor's array too).

run_frame is the instrumented streaming path: feed maps the frame's
pixels through push_pixel, and one pair loop reads each pair's vote (low
bin and packed weight) from the memoized vote table at grid_index's
linear form, inlined (the polar table only for the polar tap), sends it
to accumulate and places each finished cell and its block. run_frame_fast
computes the identical HogFrame with arrays (not thread-safe):
cells.frame_votes gathers each strip's keys and packed weights from the
same table, cells.add_votes bincounts them, and blocks.normalize_grid
squares each cell once. Cells are integer-identical and block square
sums exact on both paths, and both take their divisor from
blocks.block_norm, so the outputs match element-exactly.
"""

from dataclasses import dataclass, field
from enum import Enum
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
        cols, rows = cells_per_frame(self.width, self.height)
        if min(block_grid(rows, cols)) < 1:
            raise DimensionError(f"need at least a 2x2 cell grid, got {cols}x{rows}")
        object.__setattr__(self, "taps", frozenset(self.taps))


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
    one per-pair loop. The polar and voting stages are one read of the
    memoized vote table, a (low bin, packed weight) vote. A ring's fill
    never drops within a frame, so the peak buffer occupancy of the
    memory-bound check is the rings' current fill; the tables are constant
    data and deliberately not counted.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        cc, cr = cells_per_frame(cfg.width, cfg.height)
        t = vote_table(cfg.cordic)  # memoryviews read back an int and a float
        self._lo_bins, self._weights = memoryview(t.lo_bin), memoryview(t.weights[0])
        self._grad = GradientStage(cfg.width, cfg.height)
        self._cells = CellAccumulator(cfg.width, cfg.height)
        self._blocks = BlockAssembler(cc)
        self._cell_grid = np.zeros((cr, cc, BIN_COUNT), dtype=np.int64)
        self._block_grid = np.zeros((*block_grid(cr, cc), BLOCK_VALUES))
        self._captures = {t: [] for t in cfg.taps}
        self._tap_pairs = bool(self._captures.keys() - {Tap.CELLS, Tap.BLOCKS})  # a record per pair
        self._tapped = 0  # pairs the per-pixel taps recorded; the next one's position
        self._drained = 0  # steps after the last pixel, counted by finish()
        self.cells_out = 0
        self.blocks_out = 0

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
        if tap not in self._captures:
            raise TapNotEnabled(f"tap {tap.value} was not requested in the config")
        return self._captures[tap]

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
        stats = RunStats(self.pixels_in, self.steps, self._drained, self.cells_out, self.blocks_out)
        return HogFrame(cells=self._cell_grid, blocks=self._block_grid), stats

    def _take(self, pairs) -> None:
        accumulate, lo_bins, weights = self._cells.accumulate, self._lo_bins, self._weights
        tap_pairs, center = self._tap_pairs, grid_index(0, 0)
        tap_cells, tap_blocks = self._captures.get(Tap.CELLS), self._captures.get(Tap.BLOCKS)
        for gx, gy in pairs:
            # grid_index is linear: gx * GRID_SIDE + gy + grid_index(0, 0)
            i = gx * GRID_SIDE + gy + center
            lo, packed = lo_bins[i], weights[i]
            if tap_pairs:
                self._tap_pair(gx, gy, i, lo, packed)
            bins = accumulate((lo, packed))
            if bins is not None:  # the vote closed a cell
                r, c = divmod(self.cells_out, self._blocks.cells_cols)
                self.cells_out += 1
                self._cell_grid[r, c] = bins
                if tap_cells is not None:
                    tap_cells.append(CellHistogram(tuple(bins), r, c))
                values = self._blocks.add(bins)
                if values is not None:
                    r, c = divmod(self.blocks_out, self._block_grid.shape[1])
                    self.blocks_out += 1
                    self._block_grid[r, c] = values
                    if tap_blocks is not None:
                        tap_blocks.append(BlockDescriptor(np.array(values), r, c))

    def _tap_pair(self, gx: int, gy: int, i: int, lo: int, packed: float) -> None:
        cap = self._captures
        r, c = divmod(self._tapped, self.cfg.width)
        self._tapped += 1
        if Tap.GRADIENTS in cap:
            cap[Tap.GRADIENTS].append(GradientPair(gx, gy, r, c))
        if Tap.POLAR in cap:
            polar = polar_table(self.cfg.cordic)
            mag, ang = int(polar.mag_raw[i]), int(polar.ang_raw[i])
            cap[Tap.POLAR].append(PolarGradient(mag, ang, r, c))
        if Tap.VOTES in cap:
            lo_w, hi_w = split_packed(packed)
            cap[Tap.VOTES].append(BinVote(lo, hi_bin(lo), int(lo_w), int(hi_w), r, c))


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
