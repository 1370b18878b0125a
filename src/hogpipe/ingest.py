"""Image ingest: binary netpbm decoding, Bayer demosaic, grayscale.

Only the binary variants P5 (grayscale) and P6 (RGB) with maxval 255 (LUMA)
are accepted. A frame is a uint8 array whose shape carries its layout:
decode_image gives (height, width) for a P5 and (height, width, 3) for a
P6. A Bayer frame is a P5 payload read as an RGGB mosaic;
demosaic_bilinear takes the 2-D mosaic to (height, width, 3) RGB,
bilinear with replicate padding at the borders. to_grayscale takes
(height, width, 3) to (height, width) luma by the integer BT.601 form
(77*R + 150*G + 29*B) >> 8, whose weights sum to 256 so a constant RGB
pixel maps to the same luma.

Header tokens are bounded: one longer than MAX_TOKEN bytes, more than any
valid field needs, is refused with FormatError before it is parsed.
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FormatError, LayoutError
from .fixq import LUMA

MAX_TOKEN = 20  # header token bytes; 20 digits declare over 10**19 pixels


@dataclass(frozen=True)
class GrayFrame:
    width: int
    height: int
    luma: np.ndarray  # uint8, shape (height, width), row-major


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
        if len(tok) > MAX_TOKEN:
            raise FormatError(f"header token longer than {MAX_TOKEN} bytes")


def _header_int(f: io.BufferedReader, what: str) -> int:
    tok = _read_token(f)
    if not tok.isdigit():
        raise FormatError(f"bad {what} field: {tok!r}")
    return int(tok)


def decode_image(path: str) -> np.ndarray:
    """Decode a binary PGM (P5) or PPM (P6) file with maxval 255 to a
    read-only uint8 array, (height, width) or (height, width, 3).

    Raises OSError on I/O problems, FormatError on a wrong magic, a 16-bit
    maxval or a short or oversized payload, then DimensionError below 3x3.
    """
    with open(path, "rb") as f:
        magic = _read_token(f)
        if magic not in (b"P5", b"P6"):
            raise FormatError(f"unsupported magic {magic!r}, want P5 or P6")
        width = _header_int(f, "width")
        height = _header_int(f, "height")
        maxval = _header_int(f, "maxval")
        if maxval != LUMA.raw_max:
            raise FormatError(f"maxval {maxval} unsupported, only {LUMA.raw_max}")
        # _read_token consumed exactly one whitespace byte after maxval
        data = f.read()
    shape = (height, width) if magic == b"P5" else (height, width, 3)
    expect = math.prod(shape)
    if len(data) != expect:  # before any array of the declared size exists
        raise FormatError(f"payload is {len(data)} bytes, expected {expect}")
    if width < 3 or height < 3:
        raise DimensionError(f"frame {width}x{height} too small, need at least 3x3")
    return np.frombuffer(data, dtype=np.uint8).reshape(shape)


def demosaic_bilinear(mosaic: np.ndarray) -> np.ndarray:
    """Bilinear RGGB demosaic of a 2-D mosaic to (h, w, 3) uint8 RGB, with
    replicate padding, rounded to nearest.

    Sites: R at (even,even), G at (even,odd) and (odd,even), B at (odd,odd).
    Missing channels are the rounded mean of the 2 or 4 nearest same-color
    sites; at the border the mosaic is extended by edge replication of raw
    values. A constant field stays constant through any of the averages.
    """
    if mosaic.ndim != 2:
        raise LayoutError("demosaic expects an RGGB mosaic frame")
    h, w = mosaic.shape
    if w % 2 or h % 2:
        raise LayoutError("RGGB mosaic needs even width and height")
    raw = mosaic.astype(np.int32)
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

    return np.stack([red, green, blue], axis=-1).astype(np.uint8)


def to_grayscale(rgb: np.ndarray) -> np.ndarray:
    """Integer BT.601 luma, (h, w) uint8, of an (h, w, 3) RGB frame."""
    if rgb.ndim != 3 or rgb.shape[-1] != 3:
        raise LayoutError("grayscale conversion expects an RGB frame")
    rgb = rgb.astype(np.int32)
    luma = (77 * rgb[..., 0] + 150 * rgb[..., 1] + 29 * rgb[..., 2]) >> 8
    return luma.astype(np.uint8)


def load_luma(path: str, bayer: bool = False) -> GrayFrame:
    """Decode a file straight to luma, applying the Bayer interpretation if
    asked; the luma is a writable array that owns its data."""
    image = decode_image(path)
    if bayer:
        if image.ndim != 2:
            raise LayoutError("only a grayscale payload can carry a Bayer mosaic")
        image = demosaic_bilinear(image)
    luma = to_grayscale(image) if image.ndim == 3 else image.copy()
    return GrayFrame(luma.shape[1], luma.shape[0], luma)


def write_pgm(path: str, luma: np.ndarray) -> None:
    """Write a uint8 array as binary P5. Test and corpus plumbing."""
    a = np.ascontiguousarray(luma, dtype=np.uint8)
    h, w = a.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n{LUMA.raw_max}\n".encode())
        f.write(a.tobytes())
