"""Image ingest: binary netpbm decoding, Bayer demosaic, grayscale.

Only the binary variants P5 (grayscale) and P6 (RGB) with maxval 255 are
accepted. A Bayer frame is a P5 payload reinterpreted as an RGGB mosaic;
demosaicing is bilinear with replicate padding at the borders. Grayscale
conversion is the integer BT.601 form (77*R + 150*G + 29*B) >> 8, whose
weights sum to 256 so a constant RGB pixel maps to the same luma.
"""

import io
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionError, FormatError, LayoutError


class Layout(Enum):
    GRAY8 = "gray8"
    RGB8 = "rgb8"
    BAYER_RGGB8 = "bayer-rggb8"

    @property
    def channels(self) -> int:
        return 3 if self is Layout.RGB8 else 1


@dataclass(frozen=True)
class RawFrame:
    width: int
    height: int
    layout: Layout
    data: bytes

    def __post_init__(self) -> None:
        if self.width < 3 or self.height < 3:
            raise DimensionError(
                f"frame {self.width}x{self.height} too small, need at least 3x3"
            )
        expect = self.width * self.height * self.layout.channels
        if len(self.data) != expect:
            raise FormatError(
                f"payload is {len(self.data)} bytes, expected {expect}"
            )


@dataclass(frozen=True)
class GrayFrame:
    width: int
    height: int
    luma: np.ndarray  # uint8, shape (height, width), row-major

    def __post_init__(self) -> None:
        if self.luma.shape != (self.height, self.width):
            raise DimensionError("luma shape disagrees with declared geometry")
        if self.luma.dtype != np.uint8:
            raise LayoutError("luma must be 8-bit unsigned")


def _read_token(f: io.BufferedReader) -> bytes:
    """Next whitespace-delimited header token, skipping # comments; as in
    libnetpbm, the newline ending a comment delimits like any whitespace."""
    tok = b""
    while True:
        c = f.read(1)
        if c == b"":
            raise FormatError("unexpected end of header")
        if c == b"#":
            while c not in (b"\n", b""):
                c = f.read(1)
        if c.isspace():
            if tok:
                return tok
            continue
        tok += c


def _header_int(f: io.BufferedReader, what: str) -> int:
    tok = _read_token(f)
    if not tok.isdigit():
        raise FormatError(f"bad {what} field: {tok!r}")
    return int(tok)


def decode_image(path: str) -> RawFrame:
    """Decode a binary PGM (P5) or PPM (P6) file with maxval 255.

    Raises OSError on I/O problems, FormatError on anything else: wrong
    magic, 16-bit maxval, short or oversized payload.
    """
    with open(path, "rb") as f:
        magic = _read_token(f)
        if magic == b"P5":
            layout = Layout.GRAY8
        elif magic == b"P6":
            layout = Layout.RGB8
        else:
            raise FormatError(f"unsupported magic {magic!r}, want P5 or P6")
        width = _header_int(f, "width")
        height = _header_int(f, "height")
        maxval = _header_int(f, "maxval")
        if maxval != 255:
            raise FormatError(f"maxval {maxval} unsupported, only 255")
        # _read_token consumed exactly one whitespace byte after maxval
        data = f.read()
    expect = width * height * layout.channels
    if len(data) != expect:
        raise FormatError(f"payload is {len(data)} bytes, expected {expect}")
    return RawFrame(width, height, layout, data)


def as_bayer(frame: RawFrame) -> RawFrame:
    """Reinterpret a grayscale payload as an RGGB mosaic (the --bayer flag)."""
    if frame.layout is not Layout.GRAY8:
        raise LayoutError("only a grayscale payload can carry a Bayer mosaic")
    return RawFrame(frame.width, frame.height, Layout.BAYER_RGGB8, frame.data)


def demosaic_bilinear(frame: RawFrame) -> RawFrame:
    """Bilinear RGGB demosaic with replicate padding, rounded to nearest.

    Sites: R at (even,even), G at (even,odd) and (odd,even), B at (odd,odd).
    Missing channels are the rounded mean of the 2 or 4 nearest same-color
    sites; at the border the mosaic is extended by edge replication of raw
    values. A constant field stays constant through any of the averages.
    """
    if frame.layout is not Layout.BAYER_RGGB8:
        raise LayoutError("demosaic expects an RGGB mosaic frame")
    if frame.width % 2 or frame.height % 2:
        raise LayoutError("RGGB mosaic needs even width and height")
    h, w = frame.height, frame.width
    raw = np.frombuffer(frame.data, dtype=np.uint8).reshape(h, w).astype(np.int32)
    p = np.pad(raw, 1, mode="edge")

    def shifted(dr: int, dc: int) -> np.ndarray:
        return p[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]

    left, right = shifted(0, -1), shifted(0, 1)
    up, down = shifted(-1, 0), shifted(1, 0)
    ul, ur = shifted(-1, -1), shifted(-1, 1)
    dl, dr_ = shifted(1, -1), shifted(1, 1)

    avg_h = (left + right + 1) >> 1
    avg_v = (up + down + 1) >> 1
    avg_x = (ul + ur + dl + dr_ + 2) >> 2
    avg_plus = (left + right + up + down + 2) >> 2

    er = np.zeros((h, w), dtype=bool)
    er[0::2, :] = True  # even rows
    ec = np.zeros((h, w), dtype=bool)
    ec[:, 0::2] = True  # even cols
    at_r = er & ec
    at_g1 = er & ~ec
    at_g2 = ~er & ec
    at_b = ~er & ~ec

    red = np.select([at_r, at_g1, at_g2, at_b], [raw, avg_h, avg_v, avg_x])
    blue = np.select([at_b, at_g2, at_g1, at_r], [raw, avg_h, avg_v, avg_x])
    green = np.select([at_g1 | at_g2], [raw], default=avg_plus)

    rgb = np.stack([red, green, blue], axis=-1).astype(np.uint8)
    return RawFrame(w, h, Layout.RGB8, rgb.tobytes())


def to_grayscale(frame: RawFrame) -> GrayFrame:
    """Integer BT.601 luma of an RGB frame."""
    if frame.layout is not Layout.RGB8:
        raise LayoutError("grayscale conversion expects an RGB frame")
    rgb = (
        np.frombuffer(frame.data, dtype=np.uint8)
        .reshape(frame.height, frame.width, 3)
        .astype(np.int32)
    )
    luma = (77 * rgb[..., 0] + 150 * rgb[..., 1] + 29 * rgb[..., 2]) >> 8
    return GrayFrame(frame.width, frame.height, luma.astype(np.uint8))


def load_luma(path: str, bayer: bool = False) -> GrayFrame:
    """Decode a file straight to luma, applying the Bayer interpretation if asked."""
    raw = decode_image(path)
    if bayer:
        raw = demosaic_bilinear(as_bayer(raw))
    if raw.layout is Layout.RGB8:
        return to_grayscale(raw)
    luma = np.frombuffer(raw.data, dtype=np.uint8).reshape(raw.height, raw.width)
    return GrayFrame(raw.width, raw.height, luma.copy())


def write_pgm(path: str, luma: np.ndarray) -> None:
    """Write a uint8 array as binary P5. Test and corpus plumbing."""
    a = np.ascontiguousarray(luma, dtype=np.uint8)
    h, w = a.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(a.tobytes())

