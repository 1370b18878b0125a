"""Deterministic synthetic test frames.

Stand-ins for a real image corpus: every generator is a pure function of
its arguments, so corpora are reproducible across runs and platforms.
The mix deliberately spans the quantization regimes that matter for the
fixed-vs-float comparison: low-contrast ramps (tiny gradients, coarse
relative quantization), strong periodic edges, isolated smooth bumps,
band-limited noise, and full-bandwidth noise.
"""

import numpy as np

from .fixq import LUMA


def ramp(width: int, height: int, horizontal: bool = True, slope: int = 1) -> np.ndarray:
    """Linear wedge wrapping past the 8-bit LUMA; interior gradient is 2*slope."""
    n = width if horizontal else height
    line = (np.arange(n, dtype=np.int64) * slope) % (LUMA.raw_max + 1)
    frame = np.tile(line, (height, 1)) if horizontal else np.tile(line[:, None], (1, width))
    return frame.astype(np.uint8)


def grating(width: int, height: int, period: float, angle_deg: float = 0.0) -> np.ndarray:
    """Sinusoidal grating, mid-gray biased."""
    yy, xx = np.mgrid[0:height, 0:width]
    th = np.deg2rad(angle_deg)
    phase = (xx * np.cos(th) + yy * np.sin(th)) * (2.0 * np.pi / period)
    return np.clip(127.5 + 120.0 * np.sin(phase), 0, LUMA.raw_max).astype(np.uint8)


def checkerboard(width: int, height: int, square: int = 16) -> np.ndarray:
    yy, xx = np.mgrid[0:height, 0:width]
    board = ((xx // square + yy // square) & 1) * 200 + 28
    return board.astype(np.uint8)


def blobs(width: int, height: int, count: int = 12, seed: int = 0) -> np.ndarray:
    """Sum of smooth radial bumps on a dark background."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width]
    acc = np.zeros((height, width))
    for _ in range(count):
        cx = rng.uniform(0, width)
        cy = rng.uniform(0, height)
        sigma = rng.uniform(min(width, height) / 40, min(width, height) / 8)
        amp = rng.uniform(60, 220)
        acc += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma * sigma))
    return np.clip(acc, 0, LUMA.raw_max).astype(np.uint8)


def smooth_noise(width: int, height: int, seed: int = 0, scale: int = 16) -> np.ndarray:
    """Band-limited noise: coarse random grid blown up with box smoothing."""
    rng = np.random.default_rng(seed)
    coarse = rng.integers(0, LUMA.raw_max + 1, size=(height // scale + 2, width // scale + 2))
    big = np.repeat(np.repeat(coarse, scale, axis=0), scale, axis=1)
    sm = _box_blur(_box_blur(big.astype(np.float64), scale), scale)
    return np.clip(sm[:height, :width], 0, LUMA.raw_max).astype(np.uint8)


def uniform_noise(width: int, height: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, LUMA.raw_max + 1, size=(height, width), dtype=np.uint8)


def _box_blur(a: np.ndarray, k: int) -> np.ndarray:
    """Separable running-mean filter of width k (same size, edge-padded)."""
    def along(x):
        p = np.pad(x, ((k // 2, k - k // 2), (0, 0)), mode="edge")
        c = np.cumsum(p, axis=0)
        return (c[k:] - c[:-k]) / k

    return along(along(a).T).T


def make_corpus(
    count: int = 20, width: int = 640, height: int = 480, seed: int = 0
) -> list[tuple[str, np.ndarray]]:
    """A named mixed-texture corpus of at least `count` frames."""
    frames = [
        ("ramp-h", ramp(width, height, True)),
        ("ramp-v", ramp(width, height, False)),
        ("ramp-steep", ramp(width, height, True, slope=5)),
        ("grating-32", grating(width, height, 32.0)),
        ("grating-9-30deg", grating(width, height, 9.0, 30.0)),
        ("grating-50-75deg", grating(width, height, 50.0, 75.0)),
        ("checker-8", checkerboard(width, height, 8)),
        ("checker-20", checkerboard(width, height, 20)),
    ]
    i = 0
    while len(frames) < count:
        kind = i % 3
        if kind == 0:
            frames.append((f"blobs-{i}", blobs(width, height, 10 + i, seed + i)))
        elif kind == 1:
            frames.append(
                (f"smooth-{i}", smooth_noise(width, height, seed + i, 12 + 2 * (i % 4)))
            )
        else:
            frames.append((f"noise-{i}", uniform_noise(width, height, seed + i)))
        i += 1
    return frames
