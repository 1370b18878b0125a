"""Every output's bits, pinned: digests.txt holds the SHA-256 of each output
of scripts/output_digest.py's frame_outputs over FRAMES, and this test
recomputes them through that function.

FRAMES come from the generators that use integer or correctly rounded IEEE
arithmetic only; grating and blobs call np.sin, np.cos and np.exp, whose
last bit numpy does not promise across CPUs and builds. The golden vote
table rests on np.arctan2, so it gets a line of its own, as do the input
frames: a mismatch then names its cause, the inputs, the golden table or
the code. A change that alters an output on purpose rewrites digests.txt
in the same commit (python tests/test_digests.py > tests/digests.txt) and
says why.
"""

import hashlib
import importlib.util
from pathlib import Path

from hogpipe import textures
from hogpipe.golden import golden_vote_table
from hogpipe.pipeline import PipelineConfig

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location(
    "output_digest", HERE.parent / "scripts" / "output_digest.py"
)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)

WIDTH, HEIGHT = 160, 128
FRAMES = (
    textures.ramp(WIDTH, HEIGHT),
    textures.ramp(WIDTH, HEIGHT, horizontal=False),
    textures.ramp(WIDTH, HEIGHT, slope=5),
    textures.checkerboard(WIDTH, HEIGHT, 8),
    textures.checkerboard(WIDTH, HEIGHT, 20),
    textures.smooth_noise(WIDTH, HEIGHT, seed=1, scale=12),
    textures.uniform_noise(WIDTH, HEIGHT, seed=2),
)


def digest_lines() -> list[str]:
    """`<sha256>  <name>` for the inputs, the golden vote table and every
    frame_outputs output, in that order."""
    names = ("inputs", "golden_vote_table", *output_digest.OUTPUTS)
    digests = {name: hashlib.sha256() for name in names}
    table = golden_vote_table()
    for a in (table.lo_bin, table.weights):
        digests["golden_vote_table"].update(output_digest.array_bytes(a))
    cfg = PipelineConfig(WIDTH, HEIGHT)
    for luma in FRAMES:
        digests["inputs"].update(output_digest.array_bytes(luma))
        for name, data in zip(output_digest.OUTPUTS, output_digest.frame_outputs(luma, cfg)):
            digests[name].update(data)
    return [f"{d.hexdigest()}  {name}" for name, d in digests.items()]


def by_name(lines) -> dict[str, str]:
    return {name: digest for digest, name in map(str.split, lines)}


def test_every_output_matches_its_pinned_digest():
    # keyed by output name, so a failure lists the outputs that moved
    want = by_name((HERE / "digests.txt").read_text().splitlines())
    assert list(want) == ["inputs", "golden_vote_table", *output_digest.OUTPUTS]
    assert by_name(digest_lines()) == want


if __name__ == "__main__":
    print(*digest_lines(), sep="\n")
