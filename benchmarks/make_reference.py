"""Regenerate the stored reference data the benchmark's correctness gates use.

    python3 benchmarks/make_reference.py

Run from the repository root, only at a commit whose results are trusted:
the gates compare later commits against these files. Writes

- reference/moments.json: spectral-oracle <x>, <x^2>, <p> and the averaged
  classical series at the spot instants of each moments-ladder rung;
- reference/width_scan.json: N_opt and product_min of each width-scan level;
- reference/cli/<command>.csv.gz: each CLI command's artifact at default flags.
"""

from __future__ import annotations

import gzip
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import fejerwell as fw  # noqa: E402
import workloads as wl  # noqa: E402


def moments_reference() -> dict:
    rungs = {}
    for label, n in wl.RUNGS.items():
        spec = fw.PacketSpec(n=n, N=math.isqrt(n))
        sd = fw.spectral_data(wl.CFG, n)
        orbit = fw.ClassicalOrbit(a=wl.CFG.a, p_c=sd.p_n, mu=wl.CFG.mu)
        ts = [f * sd.period for f in wl.SPOT_PERIODS]
        oracle = {
            key: [fw.oracle_expectation(wl.CFG, spec, t, kind, method="spectral") for t in ts]
            for key, kind in (("x", "position"), ("x2", "position_sq"), ("p", "momentum"))
        }
        closed = {"x": fw.exp_x(wl.CFG, spec, np.array(ts)), "p": fw.exp_p(wl.CFG, spec, np.array(ts))}
        for key in closed:
            dev = np.max(np.abs(closed[key] - oracle[key]))
            print(f"{label}: max |closed - oracle| for {key} = {dev:.3g}")
        rungs[label] = {
            "n": n,
            "N": spec.N,
            "spot_periods": list(wl.SPOT_PERIODS),
            **oracle,
            "fx": [float(v) for v in fw.fejer_position(orbit, spec.N, np.array(ts))],
            "fx2": [float(v) for v in fw.fejer_position_sq(orbit, spec.N, np.array(ts))],
            "fp": [float(v) for v in fw.fejer_momentum(orbit, spec.N, np.array(ts))],
        }
    return {"source": "x, x2, p: oracle_expectation(method='spectral'); fx, fx2, fp: classical closed forms",
            "rungs": rungs}


def width_scan_reference() -> dict:
    levels = {}
    for label, n in wl.SCAN_LEVELS.items():
        row = fw.optimal_N(wl.CFG, n)
        levels[label] = {"n": n, "N_opt": row.N_opt, "product_min": row.product_min}
    return {"levels": levels}


def main() -> int:
    ref = HERE / "reference"
    (ref / "cli").mkdir(parents=True, exist_ok=True)
    for name, data in (("moments.json", moments_reference()), ("width_scan.json", width_scan_reference())):
        (ref / name).write_text(json.dumps(data, indent=1) + "\n")
    for command in wl.CLI_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "fejerwell.cli", command], env=wl.CHILD_ENV,
                              capture_output=True, check=True)
        # mtime=0 keeps the compressed file identical across regenerations
        with open(ref / "cli" / f"{command}.csv.gz", "wb") as raw:
            with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as fh:
                fh.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
