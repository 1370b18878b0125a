"""One-pixel-per-step feature pipeline.

Wires gradient extraction, polar conversion, orientation voting, cell
accumulation and block assembly into a single streaming extractor. One
step ingests one pixel; all stages advance synchronously on it, so the
step ledger mirrors a single-clock-domain datapath. After the last pixel
the gradient stage drains its latency tail, each flushed pixel costing
one further step. pixels_per_step therefore lands just under 1.0: the
frame's pixel count divided by pixel count plus warm-up.

Stages hand each other plain values, as hardware stages hand on
registers (ints per pixel, nine bins per cell, 36 floats per block), and
each item's position is its count in stream order. The tap records
(GradientPair, PolarGradient, BinVote, CellHistogram, BlockDescriptor)
are defined here and built, with that position, only when a Tap asks.

run_frame is the instrumented streaming path; its polar and voting
stages read the memoized vote table one pixel at a time (the polar table
only for the polar tap). run_frame_fast computes the identical HogFrame
with array arithmetic (cells.frame_votes strips over the same table,
bincount histograms; not thread-safe); every stage of it is integer-
identical to the scalar datapath, so the two outputs match element-exactly.
It owns no datapath decision: each comes from its stage's module.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar

import numpy as np

from .blocks import (
    BLOCK_EPSILON,
    BLOCK_VALUES,
    BlockAssembler,
    HogFrame,
    block_count,
    normalize_grid,
)
from .cells import CellAccumulator, add_votes, cells_per_frame, frame_votes
from .cordic import CordicConfig, grid_index, polar_table
from .errors import DimensionError, TapNotEnabled
from .gradient import GradientStage, luma8, warmup_steps
from .voting import BIN_COUNT, vote_table


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
        if cols < 2 or rows < 2:
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

    Call step() once per pixel (an int in 0..255, else LayoutError) in
    row-major order, then finish(). The polar and voting stages are one
    read of the memoized vote table. A ring's fill never drops within a
    frame, so the peak buffer occupancy of the memory-bound check is the
    rings' current fill; the tables are constant data and deliberately
    not counted.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        cc, cr = cells_per_frame(cfg.width, cfg.height)
        t = vote_table(cfg.cordic)  # memoryviews read back Python ints
        self._votes = tuple(map(memoryview, (t.lo_bin, t.hi_bin, t.lo_weight, t.hi_weight)))
        self._grad = GradientStage(cfg.width, cfg.height)
        self._cells = CellAccumulator(cfg.width, cfg.height)
        self._blocks = BlockAssembler(cc)
        self._cell_grid = np.zeros((cr, cc, BIN_COUNT), dtype=np.int64)
        self._block_grid = np.zeros((cr - 1, cc - 1, BLOCK_VALUES))
        self._captures = {t: [] for t in cfg.taps}
        self.pixels_in = 0
        self.steps = 0
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

    def captures(self, tap: Tap) -> list:
        if tap not in self._captures:
            raise TapNotEnabled(f"tap {tap.value} was not requested in the config")
        return self._captures[tap]

    def step(self, luma: int) -> None:
        g = self._grad.push_pixel(luma)
        self.pixels_in += 1
        self.steps += 1
        if g is not None:
            self._advance(g)

    def finish(self) -> tuple[HogFrame, RunStats]:
        # a drained stage yields nothing more, so a second finish() is a no-op
        for g in self._grad.drain():
            self.steps += 1
            self._advance(g)
        return self._result()

    def _advance(self, g: tuple[int, int]) -> None:
        gx, gy = g
        i = grid_index(gx, gy)
        lo_bins, hi_bins, lo_weights, hi_weights = self._votes
        lo, hi, lo_w, hi_w = lo_bins[i], hi_bins[i], lo_weights[i], hi_weights[i]
        cap = self._captures
        if cap:
            r, c = divmod(self._grad.emitted - 1, self.cfg.width)
            if Tap.GRADIENTS in cap:
                cap[Tap.GRADIENTS].append(GradientPair(gx, gy, r, c))
            if Tap.POLAR in cap:
                mag, ang = polar_table(self.cfg.cordic).lookup(gx, gy)
                cap[Tap.POLAR].append(PolarGradient(mag, ang, r, c))
            if Tap.VOTES in cap:
                cap[Tap.VOTES].append(BinVote(lo, hi, lo_w, hi_w, r, c))
        bins = self._cells.accumulate(lo, hi, lo_w, hi_w)
        if bins is None:
            return
        r, c = divmod(self.cells_out, self._blocks.cells_cols)
        self.cells_out += 1
        self._cell_grid[r, c] = bins
        if Tap.CELLS in cap:
            cap[Tap.CELLS].append(CellHistogram(tuple(bins), r, c))
        values = self._blocks.add(bins)
        if values is not None:
            r, c = divmod(self.blocks_out, self._blocks.cells_cols - 1)
            self.blocks_out += 1
            self._block_grid[r, c] = values
            if Tap.BLOCKS in cap:
                cap[Tap.BLOCKS].append(BlockDescriptor(values, r, c))

    def _result(self) -> tuple[HogFrame, RunStats]:
        stats = RunStats(
            pixels_in=self.pixels_in,
            steps=self.steps,
            warmup_steps=self.steps - self.pixels_in,
            cells_out=self.cells_out,
            blocks_out=self.blocks_out,
        )
        return HogFrame(cells=self._cell_grid, blocks=self._block_grid), stats


def _as_luma(frame, cfg: PipelineConfig) -> np.ndarray:
    luma = luma8(getattr(frame, "luma", frame))
    if luma.shape != (cfg.height, cfg.width):
        raise DimensionError(
            f"frame is {luma.shape}, config wants {(cfg.height, cfg.width)}"
        )
    return luma


def run_frame(frame, cfg: PipelineConfig) -> tuple[HogFrame, RunStats]:
    """Stream a whole frame through a fresh pipeline instance."""
    luma = _as_luma(frame, cfg)
    pipe = StreamingPipeline(cfg)
    for px in luma.ravel().tolist():
        pipe.step(px)
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

    stats = RunStats(
        pixels_in=h * w,
        steps=h * w + warmup_steps(w),
        warmup_steps=warmup_steps(w),
        cells_out=cr * cc,
        blocks_out=block_count(cc, cr),
    )
    return HogFrame(cells=cells, blocks=blocks), stats
