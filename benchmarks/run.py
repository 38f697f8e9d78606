"""Closed-loop benchmark of fejerwell, one workload per run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One caller sends one operation at a time
and waits for it, in a single process with no extra threads (set-up runs
and the CLI commands run as children, one at a time). BLAS runs on one
thread, within the nproc cap: a second BLAS thread would tie every
matrix-vector product to the slower of two shared CPUs. The inputs come
from --seed only.

--trace 0 prints every end-to-end metric. For --seconds the run
interleaves short units of the three timed families (moments, scan,
point; see workloads.py), giving the workload's own family twice the
share of each other family, and a host-speed kernel. It reports the median
time of each unit, scaled by the kernel's median time. Nine
fresh-interpreter set-ups are spread evenly through the same window, and
their median is scaled the same way. Then the correctness gates run, and
for width-scan and cli-artifacts these include the workload's long calls. --trace 1 runs
untraced and then traced passes of the workload's own work (see
tracing.py) and prints the per-layer metrics.

Every output is checked. The last line of stdout is a JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give
the environment, every metric with its unit, and fail_ratio. The exit
code is 1 if any check failed, 2 if the package source is missing.
Results, with every raw sample, and spans go to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import median

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("moments-ladder", "width-scan", "point-queries", "cli-artifacts")
HOME = {  # the family each workload runs as its own work
    "moments-ladder": "moments",
    "width-scan": "scan",
    "point-queries": "point",
    "cli-artifacts": "cli",
}
TIMED = ("moments", "scan", "point", "calibration")
HOME_WEIGHT = 2  # window share of the workload's own family, against 1 for each other
CALIBRATION_WEIGHT = 0.5
SETUP_RUNS = 9
MIN_PASSES = 3
IMPORT_RUNS = 3


def _families(wl) -> dict:
    """family -> (build inputs from the seed, units of one pass, run one unit)."""
    return {
        "moments": (wl.moments_inputs, wl.moments_units, wl.moments_unit),
        "scan": (lambda seed: None, wl.scan_units, wl.scan_unit),
        "point": (wl.point_inputs, wl.point_units, wl.point_unit),
        "calibration": (lambda seed: None, lambda _: [None], wl.calibration_unit),
        "cli": (wl.cli_inputs, None, None),
    }


def build_inputs(wl, seed: int) -> dict:
    return {family: spec[0](seed) for family, spec in _families(wl).items()}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
        return "unknown"
    except OSError:
        return "unknown (not a git checkout)"


def environment(np) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": _git_commit(),
        "loop": "closed, one caller, one operation in flight",
        "processes": "one, plus one child at a time for set-up runs and CLI commands",
    }


def _setup_run(args, wl, tally) -> float | None:
    """A fresh interpreter that imports fejerwell and builds the inputs; its wall time."""
    code, _, err, wall = wl.run_command(
        [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0"])
    return wall if tally.op(code == 0, f"set-up: exit {code}: {err.strip()[-300:]}") else None


def untraced(args, tally, wl) -> tuple[dict, dict, dict]:
    """Metrics, raw samples and unit counts of one measured run."""
    import numpy as np

    fam = _families(wl)
    inputs = build_inputs(wl, args.seed)
    weight = {f: HOME_WEIGHT if f == HOME[args.workload] else 1 for f in TIMED}
    weight["calibration"] = CALIBRATION_WEIGHT
    cycles = {f: itertools.cycle(fam[f][1](inputs[f])) for f in TIMED}
    spent = dict.fromkeys(TIMED, 0.0)
    times: dict[str, list[float]] = {}
    setups = []
    clock = time.perf_counter
    start = clock()
    while (elapsed := clock() - start) < args.seconds or len(setups) < SETUP_RUNS:
        if len(setups) < SETUP_RUNS and elapsed >= len(setups) * args.seconds / SETUP_RUNS:
            setups.append(_setup_run(args, wl, tally))
            continue
        family = min(TIMED, key=lambda f: spent[f] / weight[f])
        t0 = clock()
        result = fam[family][2](next(cycles[family]), tally)
        spent[family] += clock() - t0
        if result is not None:
            times.setdefault(result[0], []).append(result[1])

    gates = {}
    wl.moments_gate(inputs["moments"], tally)
    wl.point_gate(inputs["point"], tally)
    if args.workload == "width-scan":
        gates.update(wl.scan_gate(tally))
    if args.workload == "cli-artifacts":
        gates.update(wl.cli_gate(inputs["cli"], tally))

    queries = inputs["point"]
    latency_us = queries.median_latency() * 1e6
    answered = np.isfinite(latency_us)
    latency_us = latency_us[answered]
    # the classical calls take about a fifth of an exp_x call, so the pooled
    # percentiles land on the quantum calls; the classical path gets its own
    classical = np.char.startswith(np.array(wl.POINT_CALLS)[queries.calls[answered]], "fejer")
    valid = [s for s in setups if s is not None]
    raw = {f"moments_sps.{label}": wl.RUNG_BATCH[label] / median(times[f"moments_sps.{label}"]) for label in wl.RUNGS}
    raw[f"scan_s.{wl.SCAN_TIMED}"] = median(times[f"scan_s.{wl.SCAN_TIMED}"])
    raw["point_us.p50"] = float(np.percentile(latency_us, 50))
    raw["point_us.p99"] = float(np.percentile(latency_us, 99))
    raw["point_us.fejer_p50"] = float(np.percentile(latency_us[classical], 50))
    raw["setup_s"] = median(valid) if valid else float("nan")
    slowdown = median(times["calibration_s"]) / wl.CALIBRATION_S  # host speed, see workloads.py
    metrics = {key: value * slowdown if key.startswith("moments_sps") else value / slowdown
               for key, value in raw.items()}
    peak = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    metrics["peak_rss_mb"] = peak / 1024.0

    samples = {**times, "point_us.median_by_query": latency_us.tolist(), "setup_s": setups, **gates,
               "window_share_s": spent, "unscaled": raw, "host_slowdown": slowdown}
    counts = {key: len(values) for key, values in times.items()}
    counts["point_us.queries"] = len(latency_us)
    counts["point_us.fejer_queries"] = int(classical.sum())
    counts["point_us.reps_per_query"] = len(times.get("point_block", [])) * wl.POINT_BLOCK / wl.POINT_QUERIES
    counts["host_slowdown"] = round(slowdown, 4)
    return metrics, samples, counts


def _run_passes(pass_fn, inputs, tally, seconds, wrap=None):
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        if wrap is None:
            passes.append(pass_fn(inputs, tally))
        else:
            with wrap():
                passes.append(pass_fn(inputs, tally))
    return passes


def _home_pass(wl, home):
    """The function that runs one pass of the workload's own work, traced or not."""
    if home == "cli":  # in-process, so the wrappers see the inner layers
        return wl.cli_pass_in_process
    if home == "scan":  # every level, not only the one the end-to-end metric times
        units = lambda _: list(wl.SCAN_LEVELS)  # noqa: E731
    else:
        units = _families(wl)[home][1]
    unit_fn = _families(wl)[home][2]

    def run(inputs, tally):
        return [r for r in (unit_fn(item, tally) for item in units(inputs)) if r is not None]

    return run


def traced(args, tally, wl) -> tuple[dict, dict]:
    """Per-layer metrics from traced passes of the workload's own work."""
    import tracing

    home = HOME[args.workload]
    pass_fn = _home_pass(wl, home)
    inputs = build_inputs(wl, args.seed)[home]
    pass_fn(inputs, tally)  # untimed: lazy set-up and first imports
    plain = _run_passes(pass_fn, inputs, tally, args.seconds / 2)
    rec = tracing.Recorder()
    tracing.install(rec)
    traced_passes = _run_passes(pass_fn, inputs, tally, args.seconds / 2, wrap=lambda: rec.span("bench.pass"))
    walls = [sum(v for _, v in p) for p in traced_passes]
    metrics = tracing.layer_metrics(rec, len(traced_passes), sum(walls) / len(walls))

    def per_pass_median(key):
        values = [v for p in traced_passes for k, v in p if k == key]
        return median(values) if values else 0.0

    for command in wl.CLI_COMMANDS:
        metrics[f"cli.cmd_s.{command}"] = per_pass_median(f"cli.cmd_s.{command}")
    for label in wl.SCAN_LEVELS:
        metrics[f"optimizer.scan_s.{label}"] = per_pass_median(f"scan_s.{label}")
    metrics["cli.import_s"] = 0.0
    if home == "cli":
        code = "import time; t = time.perf_counter(); import fejerwell.cli; print(time.perf_counter() - t)"
        imports = []
        for _ in range(IMPORT_RUNS):
            status, out, err, _ = wl.run_command([sys.executable, "-c", code])
            if tally.op(status == 0, f"import fejerwell.cli: {err.strip()[-300:]}"):
                imports.append(float(out))
        metrics["cli.import_s"] = median(imports) if imports else 0.0
    metrics["trace.overhead_s"] = median(walls) - median(sum(v for _, v in p) for p in plain)
    OUT.mkdir(exist_ok=True)
    rec.write(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
    return metrics, {"traced_passes": len(traced_passes), "plain_passes": len(plain)}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "fejerwell" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'fejerwell'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads as wl

    if args.setup_only:
        build_inputs(wl, args.seed)
        return 0

    tally = wl.Tally()
    samples = None
    if args.trace:
        metrics, counts = traced(args, tally, wl)
    else:
        metrics, samples, counts = untraced(args, tally, wl)

    import numpy as np

    env = environment(np)
    print("# env " + json.dumps(env))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace} "
          f"samples {json.dumps(counts)}")
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}
    for name, m in reported.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    fail_ratio = tally.failed / max(tally.attempted, 1)
    print(f"{'fail_ratio':32s} {fail_ratio:.6g} ({tally.failed} of {tally.attempted} operations)")
    for reason in tally.reasons:
        print(f"# FAILED {reason}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": reported}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "sample_counts": counts, "fail_ratio": fail_ratio, "failures": tally.reasons,
              "environment": env, **result, "samples": samples}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
