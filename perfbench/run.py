"""hogpipe benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload extract_vga --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; hogpipe is imported from its
`src/`. One client drives the program in a closed loop: the next
operation starts when the previous one has returned. BLAS and OpenMP
threads are capped at 1.

With `--trace 0` nothing is wrapped, and a fixed reference kernel runs
after every timed operation. On a shared 2-vCPU Xeon VM the speed of
identical work drifted by up to a factor of two over seconds to minutes,
as other tenants loaded its cores, so the gated operation costs are
given in units of the reference kernel's time on either side of the
operation (`ref`), which cancels that drift: mean, median and p90 cost,
plus set-up time and peak RSS. The plain host figures (operations per
second, median and p90 latency in ms, the reference kernel's own median)
are printed beside them. With `--trace 1` each input is run once plain
and once with the public callables of every layer wrapped in spans (see
tracer.py); the run reports per-layer busy time and work counts per
operation, and the tracing overhead as plain against traced operations
per second.

Every output is checked outside the timed region (see workloads.py).
Lines of `name = value unit (kind)` name every metric, the workload's
simulated and accuracy metrics included; the last line is one JSON
object with `correct`, `attempted`, `failed` and the metrics that
BENCHMARK.json declares for the chosen mode.
"""

import os

# Must precede the first numpy import, here and in the set-up subprocesses.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import collections
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("extract_vga", "detect_vga", "stream_model", "compare_vga")

# Times `import hogpipe` plus the first cold vote-table build in a fresh
# interpreter; interpreter start-up itself is not counted.
_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hogpipe
from hogpipe.voting import vote_table
vote_table(hogpipe.CordicConfig())
print(repr(time.perf_counter() - t0))
"""


def measure_setup(reps: int) -> float:
    """Median over `reps` fresh interpreters of the cold set-up time."""
    times = []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


class _Bins:
    __slots__ = ("counts",)

    def __init__(self):
        self.counts = [0] * 64

    def add(self, i: int, v: int) -> None:
        self.counts[i & 63] += v


def _rotate(x: int, y: int) -> tuple[int, int]:
    for _ in range(4):  # shift-and-add steps, shaped like a CORDIC stage
        if y > 0:
            x, y = x + (y >> 1), y - (x >> 1)
        else:
            x, y = x - (y >> 1), y + (x >> 1)
    return x, y


def _interp_loop() -> None:
    """Per-item Python work: a deque, a helper call and a method call per item."""
    bins = _Bins()
    window = collections.deque(maxlen=3)
    for k in range(6000):
        window.append(k)
        x, y = _rotate(k & 255, (k >> 3) & 255)
        bins.add(x ^ y, x)


def _arith_loop() -> None:
    s = 0
    for k in range(25_000):
        s += k * k


class Reference:
    """A fixed piece of host work: a Python loop, small-array numpy and a gather.

    It mixes the kinds of work the workloads do, so that it slows down with
    them when the host does. Interpreter-bound code (calls, attribute
    access, branches) drifts by up to twice as much as a tight arithmetic
    loop, so the Python loop follows the workload's `reference` kind:
    "interp" for per-pixel Python stages, "array" for numpy-bound work.
    Its inputs come from a fixed seed and it never calls hogpipe, so no
    change to the program changes its cost. It takes 5 to 10 ms on a
    2-vCPU Xeon VM.
    """

    def __init__(self, kind: str):
        self.loop = {"interp": _interp_loop, "array": _arith_loop}[kind]
        rng = np.random.default_rng(0)
        self.small = rng.random(8192)
        self.table = rng.integers(0, 1 << 30, size=1 << 19)  # 4 MB
        self.index = rng.integers(0, self.table.size, size=50_000)

    def __call__(self) -> float:
        t0 = perf_counter()
        self.loop()
        a = self.small
        for _ in range(40):
            a = np.sqrt(a * a + 1.0) - 0.5
        self.table[self.index].sum()
        np.bincount(self.index & 4095, minlength=4096)
        return perf_counter() - t0


def run_ops(wl, seconds: float, min_ops: int, tracer=None, reference=None):
    """Cycle through the workload's items for `seconds` and at least `min_ops`.

    Returns (plain latencies, traced latencies, reference times, failed
    count, traced run_frame_fast time per texture class). Without a tracer
    only plain operations run, each followed by `reference` if one is
    given. With a tracer, each item runs plain and traced, in turns first,
    so neither side gains from caches the other warmed.
    """
    plain, traced, refs = [], [], []
    failed = 0
    by_texture = {"smooth": [0.0, 0], "noise": [0.0, 0]}
    items = wl.items
    gc.collect()
    end = perf_counter() + seconds
    i = 0
    while perf_counter() < end or len(plain) + len(traced) < min_ops:
        item = items[i % len(items)]
        modes = (False,) if tracer is None else (False, True) if i % 2 else (True, False)
        i += 1
        for trace in modes:
            if not trace:
                t0 = perf_counter()
                out = wl.op(item)
                plain.append(perf_counter() - t0)
                if reference is not None:
                    refs.append(reference())
            else:
                fast = tracer.spans["pipeline.run_frame_fast"]
                total0, calls0 = fast.total, fast.calls
                with tracer.installed():
                    t0 = perf_counter()
                    out = wl.op(item)
                    traced.append(perf_counter() - t0)
                acc = by_texture[item.texture]
                acc[0] += fast.total - total0
                acc[1] += fast.calls - calls0
            failed += not wl.check(item, out)
    return plain, traced, refs, failed, by_texture


def end_to_end(lat, refs, setup_s: float):
    """(gated metrics, host figures printed beside them, sample counts)."""
    # operation i ran between reference runs i-1 and i
    costs = [2 * t / (refs[i - 1] + refs[i]) for i, t in enumerate(lat) if i]
    p90 = statistics.quantiles(costs, n=10, method="inclusive")[-1]
    gated = {
        "setup_s": (setup_s, "s", "host"),
        "frame_cost_mean": (sum(lat) / sum(refs), "ref", "host"),
        "frame_cost_p50": (statistics.median(costs), "ref", "host"),
        "frame_cost_p90": (p90, "ref", "host"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "host"),
    }
    host = {
        "frames_per_s": (len(lat) / sum(lat), "1/s", "host"),
        "frame_ms_p50": (statistics.median(lat) * 1e3, "ms", "host"),
        "frame_ms_p90": (statistics.quantiles(lat, n=10, method="inclusive")[-1] * 1e3, "ms", "host"),
        "ref_ms_p50": (statistics.median(refs) * 1e3, "ms", "host"),
    }
    return gated, host, {"ops": len(lat), "ops_beyond_p90": sum(c > p90 for c in costs)}


def trace_builds(reps: int):
    """Cold vote-table builds under the tracer; median self time of each table."""
    from hogpipe import CordicConfig, cordic, voting
    from tracer import Target, Tracer

    polar, vote = [], []
    for _ in range(reps):
        tr = Tracer([
            Target("voting.vote_table_build", "hogpipe.voting", "vote_table"),
            Target("cordic.polar_table_build", "hogpipe.cordic", "polar_table"),
        ])
        for fn in (voting.vote_table, cordic.polar_table):
            getattr(fn, "cache_clear", lambda: None)()
        with tr.installed():
            voting.vote_table(CordicConfig())
        polar.append(tr.spans["cordic.polar_table_build"].self_time)
        vote.append(tr.spans["voting.vote_table_build"].self_time)
    table = voting.vote_table(CordicConfig())
    nbytes = sum(a.nbytes for a in vars(table).values() if isinstance(a, np.ndarray))
    return {
        "cordic.polar_table_build_s": (statistics.median(polar), "s", "host"),
        "voting.vote_table_build_s": (statistics.median(vote), "s", "host"),
        "voting.table_bytes": (nbytes, "B", "host"),
    }


def _detect_counts(args, kwargs, hits):
    frame, model = args[0], args[1]
    stride = args[2] if len(args) > 2 else kwargs.get("stride_cells", 1)
    rows, cols = frame.blocks.shape[0] + 1, frame.blocks.shape[1] + 1
    nx = (cols - model.window_cell_cols) // stride + 1
    ny = (rows - model.window_cell_rows) // stride + 1
    return {"detector.windows_scored": max(nx, 0) * max(ny, 0), "detector.hits": len(hits)}


def layer_tracer():
    from tracer import Target, Tracer

    return Tracer([
        Target("pipeline.run_frame_fast", "hogpipe.pipeline", "run_frame_fast",
               lambda a, k, r: {"pipeline.pixels": r[1].pixels_in}),
        Target("pipeline.run_frame", "hogpipe.pipeline", "run_frame"),
        Target("detector.detect", "hogpipe.detector", "detect", _detect_counts),
        Target("golden.golden_hog", "hogpipe.golden", "golden_hog"),
        Target("golden.compare", "hogpipe.golden", "compare"),
        Target("gradient.push_pixel", "hogpipe.gradient:GradientStage", "push_pixel"),
        Target("cordic.polar_raw", "hogpipe.cordic", "polar_raw"),
        Target("voting.vote", "hogpipe.voting", "vote"),
        Target("cells.accumulate", "hogpipe.cells:CellAccumulator", "accumulate"),
        Target("blocks.add", "hogpipe.blocks:BlockAssembler", "add"),
        Target("ingest.load_luma", "hogpipe.ingest", "load_luma",
               lambda a, k, r: {"ingest.bytes_read": os.path.getsize(a[0])}),
        Target("cli.write_features", "hogpipe.cli", "write_features",
               lambda a, k, r: {"cli.bytes_written": os.path.getsize(a[0])}),
    ])


def per_layer(tracer, plain, traced, by_texture):
    n = len(traced)
    sp = tracer.spans

    def busy(span):
        return (sp[span].total / n, "s/op", "host")

    def per_call(acc):
        return (acc[0] / acc[1] if acc[1] else 0.0, "s/call", "host")

    def count(name, unit="count/op"):
        return (tracer.counts.get(name, 0) / n, unit, "host")

    metrics = {
        "pipeline.run_frame_fast_s": busy("pipeline.run_frame_fast"),
        "pipeline.run_frame_fast_s.smooth": per_call(by_texture["smooth"]),
        "pipeline.run_frame_fast_s.noise": per_call(by_texture["noise"]),
        "pipeline.pixels": count("pipeline.pixels"),
        "detector.detect_s": busy("detector.detect"),
        "detector.windows_scored": count("detector.windows_scored"),
        "detector.hits": count("detector.hits"),
        "golden.golden_hog_s": busy("golden.golden_hog"),
        "golden.compare_s": busy("golden.compare"),
        "pipeline.run_frame_self_s": (sp["pipeline.run_frame"].self_time / n, "s/op", "host"),
    }
    for span in ("gradient.push_pixel", "cordic.polar_raw", "voting.vote",
                 "cells.accumulate", "blocks.add"):
        metrics[span + "_s"] = busy(span)
        metrics[span + ".calls"] = (sp[span].calls / n, "count/op", "host")
    metrics.update({
        "ingest.load_luma_s": busy("ingest.load_luma"),
        "ingest.bytes_read": count("ingest.bytes_read", "B/op"),
        "cli.write_features_s": busy("cli.write_features"),
        "cli.bytes_written": count("cli.bytes_written", "B/op"),
    })
    plain_fps, traced_fps = len(plain) / sum(plain), n / sum(traced)
    metrics.update({
        "trace.op_s": (sum(traced) / n, "s/op", "host"),
        "trace.frames_per_s_plain": (plain_fps, "1/s", "host"),
        "trace.frames_per_s_traced": (traced_fps, "1/s", "host"),
        "trace.overhead": (plain_fps / traced_fps - 1.0, "ratio", "host"),
    })
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny frames and a few operations, for the self-test")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (SRC / "hogpipe" / "__init__.py").is_file():
        print(f"error: no hogpipe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hogpipe
    from hogpipe import CordicConfig
    from hogpipe.voting import vote_table
    import workloads

    if Path(hogpipe.__file__).resolve().parent != SRC / "hogpipe":
        print(f"error: hogpipe imported from {hogpipe.__file__}", file=sys.stderr)
        return 2

    size = workloads.SMOKE if args.smoke else workloads.FULL
    if args.trace:
        build_metrics = trace_builds(size.setup_reps)  # leaves the tables built
    else:
        setup_s = measure_setup(size.setup_reps)
        vote_table(CordicConfig())

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, size, workdir)
        for item in wl.items[:2]:  # warm caches; not timed or counted
            wl.op(item)
        tracer = layer_tracer() if args.trace else None
        reference = None if args.trace else Reference(wl.reference)
        if reference is not None:
            reference()  # warm-up, not counted
        min_ops = max(size.min_ops, len(wl.items))
        plain, traced, refs, failed, by_texture = run_ops(
            wl, args.seconds, min_ops, tracer, reference)
        sim_metrics, sim_ok = wl.summary()

    attempted = len(plain) + len(traced)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "clients": 1,
        "loop": "closed",
        "frame": f"{size.width}x{size.height}",
        "corpus_frames": size.frames,
        "reference": None if args.trace else wl.reference,
        **wl.context,
    }
    host = {}
    if args.trace:
        reported = {**per_layer(tracer, plain, traced, by_texture), **build_metrics}
    else:
        reported, host, lat_context = end_to_end(plain, refs, setup_s)
        context.update(lat_context)
    failed_frac = failed / attempted
    print("context " + json.dumps(context, sort_keys=True))
    for name, (value, unit, kind) in {
        **reported, **host, **sim_metrics, "failed_frac": (failed_frac, "ratio", "host"),
    }.items():
        print(f"{name} = {value!r} {unit} ({kind})")
    if not sim_ok:
        print("error: run-level checks failed", file=sys.stderr)
    result = {
        "correct": failed == 0 and sim_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
