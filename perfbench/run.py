"""Benchmark of the todatopo pipeline: cells -> homology -> Morse -> flow.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-golden

Workloads (op lists in workloads.py): cells-large, homology-dense,
morse-scan, flow-sectors.  Each pass over a workload's ops runs in its
own fresh worker process, one process at a time and with no threads, so
that no cache or wrapper carries over from one pass to the next.  Every
op's output is checked (checks.py); seed-independent artifacts must match
the sha256 digests in golden.json.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median time for a fresh interpreter to import todatopo.cli
               and build its parser (SETUP_STARTS starts after a warm-up)
  pass_ref_s   time of one pass over the op list: the sum over its ops of
               each op's median time over the run's passes
  peak_rss_mb  median peak RSS of the worker processes
Passes repeat while the next one is expected to end within --seconds
(at least one pass).  Both times are scaled to a reference host speed:
each op is divided by the host probe timed just before and after it, and
each interpreter start by the bare interpreter starts just before and
after it (probe.py).  On a shared 2-vCPU machine the raw times drift by up
to 1.5x between runs minutes apart; the raw medians are printed as well.

--trace 1 runs one untraced pass and two traced passes (tracing.py) and
reports the per-layer metrics of the traced passes: self times as the
median of the two, counts from the first, which must equal the second.
The self times of all layers, the cli layer's own spans included, must
add up to the traced pass's op time within SELF_TIME_TOLERANCE.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The JSON file of every worker
pass is kept under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import tracing  # noqa: E402
from probe import START_REF_S, bare_start, scaled  # noqa: E402
from workloads import WORKLOADS, ops_for  # noqa: E402

SETUP_STARTS = 7
SELF_TIME_TOLERANCE = 0.05
# A run must end within 180 s; a worker still running at this point is killed.
DEADLINE = perf_counter() + 170
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import todatopo.cli; todatopo.cli.build_parser()"
)


def measure_setup() -> tuple:
    """Median time of fresh interpreter starts, after one warm-up start.

    Each start is scaled by the bare interpreter starts timed just before
    and after it (probe.py).  Returns the median of the scaled times and
    the median of the raw ones.
    """
    raw, ref = [], []
    after = bare_start()
    for i in range(SETUP_STARTS + 1):
        before = after
        start = perf_counter()
        # No timeout here: with one, subprocess polls in steps of up to 50 ms.
        rc = subprocess.call([sys.executable, "-c", SETUP_CODE, str(SRC)])
        elapsed = perf_counter() - start
        if rc != 0:
            raise RuntimeError(f"set-up start exited with {rc}")
        after = bare_start()
        if i:
            raw.append(elapsed)
            ref.append(scaled(elapsed, before, after, START_REF_S))
    return statistics.median(ref), statistics.median(raw)


def run_worker(workload: str, seed: int, tag: str, traced: bool) -> dict:
    workdir = STATE / "work" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    if traced:
        cmd += ["--trace-out", str(STATE / f"spans-{workload}-{tag}.jsonl")]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, DEADLINE - perf_counter()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    (STATE / f"pass-{workload}-{tag}.json").write_text(proc.stdout)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["workdir"] = workdir
    return res


def check_pass(workload: str, seed: int, res: dict, refs: dict) -> list:
    """Failure messages of each op of a pass, one list per op."""
    golden = json.loads(GOLDEN.read_text()).get(workload, {}) if GOLDEN.exists() else {}
    ops = ops_for(workload, seed)
    if [op.name for op in ops] != [r["name"] for r in res["ops"]]:
        return [["worker ran a different op list"]]
    return [checks.check_op(op, r, res["workdir"], golden, refs) for op, r in zip(ops, res["ops"])]


def provenance() -> str:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}, cpu {cpu}")


def describe(name: str, values: list, unit: str) -> str:
    med = statistics.median(values)
    return (f"{name}: median {med:.4f} {unit} over n={len(values)} "
            f"(min {min(values):.4f}, max {max(values):.4f})")


def end_to_end(workload: str, seed: int, seconds: float, refs: dict) -> tuple:
    setup, setup_raw = measure_setup()
    passes, op_errors = [], []
    start = perf_counter()
    while True:
        res = run_worker(workload, seed, f"p{len(passes)}", traced=False)
        passes.append(res)
        op_errors += check_pass(workload, seed, res, refs)
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    # Op i of a pass ran between that pass's probes i and i + 1.
    op_ref = [
        statistics.median(scaled(p["ops"][i]["wall_s"], p["probe_s"][i], p["probe_s"][i + 1])
                          for p in passes)
        for i in range(len(passes[0]["ops"]))
    ]
    rss = [p["peak_rss_mb"] for p in passes]
    print(describe("wall time of a pass (raw)", [p["wall_s"] for p in passes], "s"))
    print(describe("host probe (raw)", [x for p in passes for x in p["probe_s"]], "s"))
    print(f"pass_ref_s: sum over {len(op_ref)} ops of each op's median scaled time over "
          f"{len(passes)} passes {sum(op_ref):.4f} s")
    print(describe("peak_rss_mb", rss, "MB"))
    print(f"setup_s: median of {SETUP_STARTS} scaled interpreter starts {setup:.4f} s "
          f"(raw median {setup_raw:.4f} s)")
    metrics = {
        "setup_s": {"value": setup, "unit": "s"},
        "pass_ref_s": {"value": sum(op_ref), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }
    return passes, op_errors, [], metrics


def traced(workload: str, seed: int, refs: dict) -> tuple:
    plain = run_worker(workload, seed, "untraced", traced=False)
    runs = [run_worker(workload, seed, f"traced{k}", traced=True) for k in (1, 2)]
    op_errors, errors = [], []
    for res in [plain] + runs:
        op_errors += check_pass(workload, seed, res, refs)
    first, second = (r["layers"] for r in runs)
    for key in tracing.COUNT_KEYS:
        if first[key] != second[key]:
            errors.append(f"count {key} differs between traced passes: {first[key]} vs {second[key]}")
    for k, r in enumerate(runs, 1):
        lay = r["layers"]
        gap = abs(lay["_wall"] - lay["_span_self_total"])
        if gap > SELF_TIME_TOLERANCE * lay["_wall"]:
            errors.append(f"traced pass {k}: layer self times sum to {lay['_span_self_total']:.4f}"
                          f" s, op time {lay['_wall']:.4f} s")
    metrics = {}
    for key in tracing.TIME_KEYS + tracing.RATIO_KEYS:
        metrics[key] = {"value": statistics.median([first[key], second[key]]),
                        "unit": tracing.unit(key)}
    for key in tracing.COUNT_KEYS:
        metrics[key] = {"value": first[key], "unit": tracing.unit(key)}
    overhead = statistics.median([r["wall_s"] for r in runs]) - plain["wall_s"]
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for name, lay in runs[0]["layers_by_op"].items():
        shown = {k: round(v, 4) if isinstance(v, float) else v for k, v in lay.items()
                 if v and not k.startswith("_")}
        print(f"op {name}: {json.dumps(shown, sort_keys=True)}")
    print("not measured from outside the package: residue shape and fill, pivots "
          "stripped and gcd scalings inside homology._unit_strip (no public function "
          "exposes them)")
    return [plain] + runs, op_errors, errors, metrics


def record_golden() -> int:
    """Write the digests of every seed-independent op's artifacts to golden.json."""
    golden = {}
    for workload in WORKLOADS:
        res = run_worker(workload, 0, "golden", traced=False)
        golden[workload] = {}
        for op, r in zip(ops_for(workload, 0), res["ops"]):
            if not op.fixed:
                continue
            if r["status"] != "ok":
                raise RuntimeError(f"{op.name}: {r['status']}")
            digests = dict(r["artifacts"])
            if "result" in r:
                digests["result"] = r["result"]["edges_sha256"]
            golden[workload][op.name] = digests
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="todatopo pipeline benchmark")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "todatopo" / "__init__.py").is_file():
        print(f"error: no todatopo package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    STATE.mkdir(exist_ok=True)
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        p.error("--workload is required")
    print(f"provenance: {provenance()}; workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    refs = checks.reference_values()
    if args.trace:
        passes, op_errors, errors, metrics = traced(args.workload, args.seed, refs)
    else:
        passes, op_errors, errors, metrics = end_to_end(args.workload, args.seed, args.seconds,
                                                        refs)
    errors = [e for errs in op_errors for e in errs] + errors
    for e in errors:
        print(f"FAILED {e}")
    print(json.dumps({"correct": not errors,
                      "attempted": sum(len(r["ops"]) for r in passes),
                      "failed": sum(1 for errs in op_errors if errs),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
