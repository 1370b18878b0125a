import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hogpipe.errors import DimensionError, FormatError, LayoutError
from hogpipe.ingest import (
    decode_image,
    demosaic_bilinear,
    load_luma,
    to_grayscale,
    write_pgm,
)
from oracles import ref_decode_pgm


def test_decode_p5_all_sevens(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n3 3\n255\n" + bytes([7] * 9))
    f = decode_image(str(p))
    assert (f.shape, f.dtype) == ((3, 3), np.uint8)
    assert f.tobytes() == bytes([7] * 9)


def test_decode_p6(tmp_path):
    p = tmp_path / "t.ppm"
    p.write_bytes(b"P6\n3 4\n255\n" + bytes(range(36)))
    f = decode_image(str(p))
    assert (f.shape, f.dtype) == ((4, 3, 3), np.uint8)
    assert f.tobytes() == bytes(range(36))


def test_decode_header_comments(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n# a comment\n3 3 # inline\n255\n" + bytes(9))
    f = decode_image(str(p))
    assert f.shape == (3, 3)


def test_decode_rejects_sixteen_bit(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n3 3\n65535\n" + bytes(18))
    with pytest.raises(FormatError):
        decode_image(str(p))


def test_decode_rejects_bad_magic_and_lengths(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P2\n3 3\n255\n" + bytes(9))
    with pytest.raises(FormatError):
        decode_image(str(p))
    p.write_bytes(b"P5\n3 3\n255\n" + bytes(8))
    with pytest.raises(FormatError):
        decode_image(str(p))
    p.write_bytes(b"P5\n3 3\n255\n" + bytes(10))
    with pytest.raises(FormatError):
        decode_image(str(p))


def test_decode_missing_file():
    with pytest.raises(OSError):
        decode_image("/nonexistent/nope.pgm")


def test_decode_roundtrip_against_reference(tmp_path):
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, size=(480, 640), dtype=np.uint8)
    p = tmp_path / "big.pgm"
    write_pgm(str(p), img)
    f = decode_image(str(p))
    w, h, data = ref_decode_pgm(str(p))
    assert f.shape[::-1] == (w, h) == (640, 480)
    assert f.tobytes() == data
    assert np.array_equal(f, img)


def test_decode_too_small(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(DimensionError):
        decode_image(str(p))
    # the payload length is checked first
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
    with pytest.raises(FormatError):
        decode_image(str(p))


def test_demosaic_constant_field():
    rgb = demosaic_bilinear(np.full((4, 4), 100, dtype=np.uint8))
    assert (rgb.shape, rgb.dtype) == ((4, 4, 3), np.uint8)
    assert (rgb == 100).all()


def test_demosaic_single_bright_green():
    # 4x4 RGGB mosaic, one bright pixel at (1, 2) which is a G site.
    # Hand-computed bilinear interpolation with replicate padding:
    #  - (1,2) keeps G=200 and interpolates R vertically, B horizontally,
    #    all zero neighbors, so (0, 200, 0).
    #  - G at the four plus-neighbors of (1,2) comes from averaging the
    #    cross, picking up 200/4 = 50 at (0,2), (2,2), (1,1)?, (1,3)?
    #    (1,1) and (1,3) are B sites: G = (up+down+left+right+2)>>2 = 50.
    #    (0,2) is an R site: G = (0 + 200 + 0 + 0 + 2)>>2 = 50. (2,2) same.
    mosaic = np.zeros((4, 4), dtype=np.uint8)
    mosaic[1, 2] = 200
    rgb = demosaic_bilinear(mosaic)
    assert tuple(rgb[1, 2]) == (0, 200, 0)
    assert rgb[0, 2, 1] == 50 and rgb[2, 2, 1] == 50
    assert rgb[1, 1, 1] == 50 and rgb[1, 3, 1] == 50
    # G is untouched elsewhere on the same diagonal neighbors
    assert rgb[0, 1, 1] == 0 and rgb[2, 3, 1] == 0
    # no channel bleeds where it should not: R and B stay zero everywhere
    assert (rgb[..., 0] == 0).all() and (rgb[..., 2] == 0).all()


def test_demosaic_odd_width_rejected():
    with pytest.raises(LayoutError):
        demosaic_bilinear(np.zeros((4, 5), dtype=np.uint8))


def test_demosaic_wrong_layout_rejected(tmp_path):
    with pytest.raises(LayoutError):
        demosaic_bilinear(np.zeros((4, 4, 3), dtype=np.uint8))
    p = tmp_path / "t.ppm"
    p.write_bytes(b"P6\n4 4\n255\n" + bytes(48))
    with pytest.raises(LayoutError, match="only a grayscale payload"):
        load_luma(str(p), bayer=True)


def test_grayscale_values():
    px = np.zeros((3, 3, 3), dtype=np.uint8)
    px[...] = 100
    g = to_grayscale(px)
    assert (g.shape, g.dtype) == ((3, 3), np.uint8)
    assert (g == 100).all()
    px[...] = (255, 0, 0)
    g = to_grayscale(px)
    assert (g == 76).all()  # (77*255)>>8
    px[...] = 0
    g = to_grayscale(px)
    assert (g == 0).all()


def test_grayscale_rejects_non_rgb():
    with pytest.raises(LayoutError):
        to_grayscale(np.zeros((3, 3), dtype=np.uint8))


@given(st.integers(0, 255))
@settings(max_examples=30)
def test_constant_bayer_to_luma_identity(v):
    g = to_grayscale(demosaic_bilinear(np.full((8, 8), v, dtype=np.uint8)))
    assert (g == v).all()


@given(st.integers(0, 254))
@settings(max_examples=30)
def test_grayscale_monotone_in_each_channel(v):
    base = np.full((3, 3, 3), 64, dtype=np.uint8)
    g0 = to_grayscale(base)
    for ch in range(3):
        brighter = base.copy()
        brighter[..., ch] = max(v + 1, 65)
        g1 = to_grayscale(brighter)
        assert (g1 >= g0).all()


def test_load_luma_paths(tmp_path):
    img = np.arange(64, dtype=np.uint8).reshape(8, 8)
    p = tmp_path / "x.pgm"
    write_pgm(str(p), img)
    g = load_luma(str(p))
    assert np.array_equal(g.luma, img)
    gb = load_luma(str(p), bayer=True)
    assert gb.luma.shape == (8, 8)
    q = tmp_path / "x.ppm"
    q.write_bytes(b"P6\n8 8\n255\n" + np.stack([img] * 3, axis=-1).tobytes())
    gc = load_luma(str(q))
    assert np.array_equal(gc.luma, img)  # a gray RGB pixel keeps its value
    for f in (g, gb, gc):
        assert (f.width, f.height, f.luma.dtype) == (8, 8, np.uint8)
        assert f.luma.flags.writeable and f.luma.flags.owndata
