"""Repeat the benchmark over several seeds and check that it is steady.

    python3 perfbench/spread.py --workloads stream_model compare_vga --seeds 1 2 3 4 5

For each workload, runs `run.py --trace 0` once per seed, one run at a
time, and prints for every end-to-end metric of BENCHMARK.json its median
and its spread: the distance between the first and third quartiles as a
share of the median. The plain host figures the runs print beside them
(frames_per_s, frame_ms_p50, ...) get the same summary, for information.
It fails (exit 1) when a run is incorrect, when a spread other than
setup_s exceeds the metric's bound, or when a simulated or accuracy
metric differs between any two runs: those depend only on the code,
never on the seed or the machine.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
_LINE = re.compile(r"^(\S+) = (\S+) (\S+) \((\w+)\)$")


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(final JSON object, {name: (value text, kind)} of every printed metric)."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    ).stdout.splitlines()
    printed = {}
    for line in out:
        m = _LINE.match(line)
        if m:
            printed[m.group(1)] = (m.group(2), m.group(4))
    return json.loads(out[-1]), printed


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    ok = True
    summary = {}
    for workload in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        exact, host = {}, {}
        for seed in args.seeds:
            result, printed = run_once(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect run "
                      f"({result['failed']} of {result['attempted']} failed)")
                ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload:13s} seed {seed:<4d} " + " ".join(
                f"{name}={vals[-1]:.6g}" for name, vals in values.items()), flush=True)
            for name, (text, kind) in printed.items():
                if kind in ("sim", "accuracy"):
                    exact.setdefault(name, set()).add(text)
                elif name not in values and name != "failed_frac":
                    host.setdefault(name, []).append(float(text))
        summary[workload] = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[workload][m["name"]] = {"median": med, "spread": spread}
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"]:
                flag = "  SPREAD OVER BOUND"
                ok = False
            print(f"{workload:13s} {m['name']:13s} median {med:12.6g} {m['unit']:4s} "
                  f"spread {spread:7.4f} (bound {m['bound']}, {spread / m['bound']:.2f} of it){flag}")
        for name, vals in host.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload:13s} {name:13s} median {med:12.6g} (not gated) "
                  f"spread {(q3 - q1) / med:7.4f}")
        for name, texts in sorted(exact.items()):
            drift = len(texts) > 1
            ok = ok and not drift
            print(f"{workload:13s} {name:17s} {'DRIFT ' + str(sorted(texts)) if drift else 'repeats exactly: ' + texts.pop()}")
    print(json.dumps(summary, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
