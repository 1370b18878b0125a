"""Truncation and byte-flip fuzzing of the three input parsers.

Each case starts from a valid file: a PGM fed to `hogpipe extract`, a
`hog-svm` model fed to `hogpipe detect`, and a HOGF feature file. Every
corrupted variant must end in a documented exit code (0 ok, 2 format,
3 dimension, 4 mismatch); exit 1 cannot occur because every file exists.
No subcommand reads HOGF files, so those go straight to read_features,
which may only return or raise FormatError, the exception that cli.main
maps to exit 2. Headers that random cuts and flips rarely reach (huge
declared sizes, odd whitespace) are listed as explicit cases.
"""

import contextlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hogpipe import cli
from hogpipe.detector import SvmModel, save_model
from hogpipe.errors import FormatError
from hogpipe.ingest import decode_image, write_pgm

DOCUMENTED_EXITS = {0, 2, 3, 4}

# (position, xor mask) pairs; positions wrap around the file length
FLIPS = st.lists(
    st.tuples(st.integers(0, 1 << 20), st.integers(1, 255)), min_size=1, max_size=8
)


def flipped(blob: bytes, flips) -> bytes:
    out = bytearray(blob)
    for pos, mask in flips:
        out[pos % len(out)] ^= mask
    return bytes(out)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(11)
    write_pgm(d / "small.pgm", rng.integers(0, 256, size=(16, 24), dtype=np.uint8))
    write_pgm(d / "window.pgm", rng.integers(0, 256, size=(128, 64), dtype=np.uint8))
    model = SvmModel(weights=rng.integers(-3, 4, size=3780), threshold=-1.0)
    save_model(model, d / "model.txt")
    blocks = rng.random(3 * 2 * 36)
    cli.write_features(d / "feat.hogf", cli.VIEW_BLOCK_NORM, 4, 3, blocks)
    return d


def run_cli(argv) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def extract_exit(d, blob: bytes) -> int:
    (d / "case.pgm").write_bytes(blob)
    return run_cli(
        ["extract", "--input", str(d / "case.pgm"), "--output", str(d / "out.hogf"),
         "--view", "block"]
    )


def detect_exit(d, blob: bytes) -> int:
    (d / "case.txt").write_bytes(blob)
    return run_cli(
        ["detect", "--input", str(d / "window.pgm"), "--weights", str(d / "case.txt"),
         "--out", str(d / "hits.csv")]
    )


def read_hogf(d, blob: bytes) -> None:
    (d / "case.hogf").write_bytes(blob)
    with contextlib.suppress(FormatError):
        cli.read_features(d / "case.hogf")


def test_valid_inputs_succeed(files):
    assert extract_exit(files, (files / "small.pgm").read_bytes()) == 0
    assert detect_exit(files, (files / "model.txt").read_bytes()) == 0
    assert cli.read_features(files / "feat.hogf").values.size == 216


def test_every_pgm_truncation(files):
    blob = (files / "small.pgm").read_bytes()
    for n in range(len(blob)):
        assert extract_exit(files, blob[:n]) in DOCUMENTED_EXITS, n


def test_every_hogf_truncation(files):
    blob = (files / "feat.hogf").read_bytes()
    for n in range(len(blob)):
        read_hogf(files, blob[:n])


def test_model_truncations(files):
    # Every cut inside the header line or the two trailer lines, plus a
    # stride through the 3780 weight lines: a cut anywhere among the
    # weights leaves fewer lines than declared, the same path at every
    # offset, and each of the ~15k offsets would cost a full parse.
    blob = (files / "model.txt").read_bytes()
    head = blob.index(b"\n") + 2
    tail = blob.rindex(b"bias") - 2
    cuts = [*range(head), *range(head, tail, 97), *range(tail, len(blob))]
    for n in cuts:
        assert detect_exit(files, blob[:n]) in DOCUMENTED_EXITS, n


@settings(max_examples=150, deadline=None)
@given(flips=FLIPS)
def test_pgm_byte_flips(files, flips):
    blob = (files / "small.pgm").read_bytes()
    assert extract_exit(files, flipped(blob, flips)) in DOCUMENTED_EXITS


@settings(max_examples=150, deadline=None)
@given(flips=FLIPS)
def test_hogf_byte_flips(files, flips):
    read_hogf(files, flipped((files / "feat.hogf").read_bytes(), flips))


@settings(max_examples=100, deadline=None)
@given(flips=FLIPS, near_end=st.booleans())
def test_model_byte_flips(files, flips, near_end):
    blob = (files / "model.txt").read_bytes()
    if near_end:
        # aim half the cases at the trailers, where bias and threshold live
        flips = [(len(blob) - 1 - pos % 40, mask) for pos, mask in flips]
    assert detect_exit(files, flipped(blob, flips)) in DOCUMENTED_EXITS


PIXELS_24X16 = bytes(range(256)) + bytes(128)


@pytest.mark.parametrize(
    "header, payload, want",
    [
        # huge declared dimensions over a short payload: rejected before
        # anything of the declared size is allocated
        (b"P5 100000 100000 255\n", PIXELS_24X16, 2),
        (b"P6 100000 100000 255\n", PIXELS_24X16, 2),
        (b"P5\t24\t16\t255\t", PIXELS_24X16, 0),
        (b"P5\n# written by hand\n24 # width\n16\n255\n", PIXELS_24X16, 0),
        (b"P5 24#width\n16 255\n", PIXELS_24X16, 0),
        # one whitespace byte ends the header, so after `\r\n` the `\n`
        # is the first pixel and a full payload runs one byte over
        (b"P5 24 16 255\r\n", PIXELS_24X16, 2),
        (b"P5 24 16 255\r\n", PIXELS_24X16[:-1], 0),
        # header tokens past the fixed bound: a width too long for int(),
        # and a file with no whitespace, refused once the bound is passed
        pytest.param(
            b"P5 " + b"9" * 5000 + b" 16 255\n", PIXELS_24X16, 2, id="width-5000-digits"
        ),
        pytest.param(b"P5" + b"1" * (4 << 20), b"", 2, id="no-whitespace-4MB"),
    ],
)
def test_pgm_header_edge_cases(files, header, payload, want):
    assert extract_exit(files, header + payload) == want
    if want == 0:
        frame = decode_image(files / "case.pgm")
        assert frame.shape == (16, 24)
        assert frame.tobytes() == (header + payload)[-384:]


@pytest.mark.parametrize("view", [cli.VIEW_CELL_RAW, cli.VIEW_BLOCK_NORM])
def test_hogf_huge_grid_is_rejected(files, view):
    top = 2**32 - 1
    blob = struct.pack("<4sHHIII", b"HOGF", 1, view, top, top, 9) + bytes(64)
    (files / "case.hogf").write_bytes(blob)
    with pytest.raises(FormatError):
        cli.read_features(files / "case.hogf")
