"""One pass over a workload's op list, in a fresh process.

Usage: python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
       [--trace-out PATH]

Imports ``todatopo`` from ``src/`` of the checkout, runs every op in
order with the working directory set to DIR, and prints one JSON line:
per-op status and wall time, the sha256 of every artifact, the pass wall
time, the process's peak RSS and the host-probe times taken before the
first op and after each op (see probe.py).  With ``--trace-out`` the
layers are wrapped first (see tracing.py), per-layer metrics are added to
the line and the spans are written to PATH.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import todatopo  # noqa: E402
from todatopo import cli  # noqa: E402

from probe import host_probe  # noqa: E402
from workloads import ops_for  # noqa: E402


def _morse_edges(params):
    W = todatopo.generate_weyl_group(todatopo.cartan_matrix(params["type"], params["rank"]))
    graph = todatopo.toda_graph(W)
    edges = todatopo.morse_smale_edges(W)
    return {"order": len(W), "graph": graph, "edges": edges}


def _integrate(params):
    # The calls cmd_simulate makes, for the one sector the CLI cannot take.
    state = todatopo.TodaState(tuple(params["a0"]), tuple(params["b0"]))
    todatopo.eigenvalues(state)
    traj = todatopo.integrate(state, params["tmax"], params["dt"])
    todatopo.eigenvalues(traj.final_state())
    return {"traj": traj}


LIBRARY = {"morse_edges": _morse_edges, "integrate": _integrate}


def _summarize(call, value) -> dict:
    """JSON-ready view of a library op's result, made after the clock stops."""
    if call == "morse_edges":
        text = "".join(
            f"{e.source.word_str()} {e.target.word_str()} {e.incidence}\n" for e in value["edges"]
        )
        return {
            "order": value["order"],
            "toda_edges": len(value["graph"].edges),
            "edges": len(value["edges"]),
            "incidences": sorted({e.incidence for e in value["edges"]}),
            "edges_sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
    traj = value["traj"]
    return {"steps": len(traj.times) - 1, "blowup_time": traj.blowup.time if traj.blowup else None}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(workload: str, seed: int, workdir: Path, tracer=None) -> dict:
    """Run the ops in order; only the ops themselves are inside the clock.

    The host probe runs before the first op and after every op, outside
    the ops' clocks, so that op i lies between probes i and i + 1.  A full
    garbage collection precedes each probe.
    """
    host_probe()  # warm-up: the first call pays for numpy's lazy set-up
    gc.collect()
    results, walls, probes = [], {}, [host_probe()]
    for i, op in enumerate(ops_for(workload, seed)):
        if tracer is not None:
            tracer.begin_op(i)
        out = io.StringIO()
        status, value = "ok", None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                if op.argv:
                    rc = cli.main(list(op.argv))
                    if rc != 0:
                        status = f"exit {rc}"
                else:
                    value = LIBRARY[op.call](op.params)
        except SystemExit as exc:  # argparse rejects its input this way
            status = f"exit {exc.code}"
        except Exception:
            status = "raised: " + traceback.format_exc(limit=3)
        walls[i] = perf_counter() - start
        gc.collect()  # the op's cyclic garbage, which would otherwise land in the probe
        probes.append(host_probe())
        res = {"name": op.name, "status": status, "wall_s": walls[i]}
        if status != "ok":
            res["message"] = out.getvalue()[-400:]
        else:
            res["artifacts"] = {
                name: _sha256(workdir / name) for name in op.artifacts if (workdir / name).exists()
            }
            if op.call:
                res["result"] = _summarize(op.call, value)
        results.append(res)
    return {"ops": results, "walls": walls, "probe_s": probes}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-out", default=None)
    args = p.parse_args(argv)
    workdir = Path(args.workdir).resolve()
    os.chdir(workdir)
    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    res = run_pass(args.workload, args.seed, workdir, tracer)
    walls = res.pop("walls")
    res["wall_s"] = sum(walls.values())
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        res["layers"] = tracing.layer_metrics(tracer, walls)
        res["layers_by_op"] = {
            r["name"]: tracing.layer_metrics(tracer, walls, [i]) for i, r in enumerate(res["ops"])
        }
        tracing.write_spans(tracer, args.trace_out)
    sys.stdout.write(json.dumps(res) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
