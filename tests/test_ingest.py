import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hogpipe.errors import DimensionError, FormatError, LayoutError
from hogpipe.ingest import (
    Layout,
    RawFrame,
    as_bayer,
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
    assert (f.width, f.height, f.layout) == (3, 3, Layout.GRAY8)
    assert f.data == bytes([7] * 9)


def test_decode_p6(tmp_path):
    p = tmp_path / "t.ppm"
    p.write_bytes(b"P6\n3 4\n255\n" + bytes(range(36)))
    f = decode_image(str(p))
    assert (f.width, f.height, f.layout) == (3, 4, Layout.RGB8)


def test_decode_header_comments(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n# a comment\n3 3 # inline\n255\n" + bytes(9))
    f = decode_image(str(p))
    assert (f.width, f.height) == (3, 3)


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
    assert (f.width, f.height) == (w, h) == (640, 480)
    assert f.data == data
    assert np.array_equal(
        np.frombuffer(f.data, dtype=np.uint8).reshape(480, 640), img
    )


def test_rawframe_too_small():
    with pytest.raises(DimensionError):
        RawFrame(2, 2, Layout.GRAY8, bytes(4))


def test_demosaic_constant_field():
    f = RawFrame(4, 4, Layout.BAYER_RGGB8, bytes([100] * 16))
    rgb = demosaic_bilinear(f)
    assert rgb.layout is Layout.RGB8
    arr = np.frombuffer(rgb.data, dtype=np.uint8)
    assert (arr == 100).all()


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
    f = RawFrame(4, 4, Layout.BAYER_RGGB8, mosaic.tobytes())
    rgb = np.frombuffer(demosaic_bilinear(f).data, dtype=np.uint8).reshape(4, 4, 3)
    assert tuple(rgb[1, 2]) == (0, 200, 0)
    assert rgb[0, 2, 1] == 50 and rgb[2, 2, 1] == 50
    assert rgb[1, 1, 1] == 50 and rgb[1, 3, 1] == 50
    # G is untouched elsewhere on the same diagonal neighbors
    assert rgb[0, 1, 1] == 0 and rgb[2, 3, 1] == 0
    # no channel bleeds where it should not: R and B stay zero everywhere
    assert (rgb[..., 0] == 0).all() and (rgb[..., 2] == 0).all()


def test_demosaic_odd_width_rejected():
    with pytest.raises(LayoutError):
        demosaic_bilinear(RawFrame(5, 4, Layout.BAYER_RGGB8, bytes(20)))


def test_demosaic_wrong_layout_rejected():
    with pytest.raises(LayoutError):
        demosaic_bilinear(RawFrame(4, 4, Layout.GRAY8, bytes(16)))
    with pytest.raises(LayoutError):
        as_bayer(RawFrame(4, 4, Layout.RGB8, bytes(48)))


def test_grayscale_values():
    px = np.zeros((3, 3, 3), dtype=np.uint8)
    px[...] = 100
    g = to_grayscale(RawFrame(3, 3, Layout.RGB8, px.tobytes()))
    assert (g.luma == 100).all()
    px[...] = (255, 0, 0)
    g = to_grayscale(RawFrame(3, 3, Layout.RGB8, px.tobytes()))
    assert (g.luma == 76).all()  # (77*255)>>8
    px[...] = 0
    g = to_grayscale(RawFrame(3, 3, Layout.RGB8, px.tobytes()))
    assert (g.luma == 0).all()


def test_grayscale_rejects_non_rgb():
    with pytest.raises(LayoutError):
        to_grayscale(RawFrame(3, 3, Layout.GRAY8, bytes(9)))


@given(st.integers(0, 255))
@settings(max_examples=30)
def test_constant_bayer_to_luma_identity(v):
    f = RawFrame(8, 8, Layout.BAYER_RGGB8, bytes([v] * 64))
    g = to_grayscale(demosaic_bilinear(f))
    assert (g.luma == v).all()


@given(st.integers(0, 254))
@settings(max_examples=30)
def test_grayscale_monotone_in_each_channel(v):
    base = np.full((3, 3, 3), 64, dtype=np.uint8)
    g0 = to_grayscale(RawFrame(3, 3, Layout.RGB8, base.tobytes()))
    for ch in range(3):
        brighter = base.copy()
        brighter[..., ch] = max(v + 1, 65)
        g1 = to_grayscale(RawFrame(3, 3, Layout.RGB8, brighter.tobytes()))
        assert (g1.luma >= g0.luma).all()


def test_load_luma_paths(tmp_path):
    img = np.arange(64, dtype=np.uint8).reshape(8, 8)
    p = tmp_path / "x.pgm"
    write_pgm(str(p), img)
    g = load_luma(str(p))
    assert np.array_equal(g.luma, img)
    gb = load_luma(str(p), bayer=True)
    assert gb.luma.shape == (8, 8)
