"""Workload definitions: the ordered op list of each workload.

An op is either an in-process call to ``todatopo.cli.main(argv)`` or a
call to a public library function.  Seed-independent ops come first, in a
fixed order that is part of the workload definition; their artifacts are
compared with ``golden.json``.  The seed only generates the flow-sectors
inputs, so the same seed always gives the same op list.

Every op takes well under two seconds on a 2-vCPU Xeon, so that a run of
25 s repeats each op in many fresh passes (see run.py for why that matters).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("cells-large", "homology-dense", "morse-scan", "flow-sectors")

SEEDED_RANKS = range(2, 9)
SEEDED_PER_KIND = 1  # positive-sector and other-sector runs drawn per rank
CLI_TMAX, CLI_DT = 5.0, 1e-3  # simulate's defaults
# Seeded runs stop at t = 0.5 (500 steps).  Other-sector runs from the seeded
# inputs escape between t = 0.78 and 4, so a longer tmax would make the work
# of a pass follow the seed; the fixed *-escape ops cover escaping runs.
SEEDED_TMAX = 0.5


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``argv`` is set for CLI ops, ``call`` for library ops.  ``artifacts``
    names the files the op writes into the pass's work directory.
    ``check`` selects the output check in ``checks.py``; ``params`` holds
    the inputs a check needs.
    """

    name: str
    check: str
    argv: tuple = ()
    call: str = ""
    artifacts: tuple = ()
    params: dict = field(default_factory=dict)
    fixed: bool = True


def _cli(name, check, argv, artifacts, **params):
    return Op(name, check, argv=tuple(argv), artifacts=tuple(artifacts), params=params)


def _cells_large():
    return [
        _cli(
            "cells-D4",
            "golden",
            ["cells", "--type", "D", "--rank", "4",
             "--boundaries", "d4_boundaries.csv", "--output", "d4_cells.csv"],
            ["d4_cells.csv", "d4_boundaries.csv"],
        ),
        _cli(
            "cells-B4-json",
            "golden",
            ["cells", "--type", "B", "--rank", "4", "--format", "json",
             "--boundaries", "b4_boundaries.csv", "--output", "b4_cells.json"],
            ["b4_cells.json", "b4_boundaries.csv"],
        ),
    ]


def _homology_dense():
    return [
        _cli(
            "homology-A4",
            "homology",
            ["homology", "--type", "A", "--rank", "4", "--output", "a4_homology.json"],
            ["a4_homology.json"],
            type="A", rank=4,
        ),
        _cli(
            "homology-B4",
            "homology",
            ["homology", "--type", "B", "--rank", "4", "--output", "b4_homology.json"],
            ["b4_homology.json"],
            type="B", rank=4,
        ),
    ]


def _morse_scan():
    return [
        Op("morse-edges-A4", "morse_edges", call="morse_edges", params={"type": "A", "rank": 4}),
        Op("morse-edges-D4", "morse_edges", call="morse_edges", params={"type": "D", "rank": 4}),
        _cli(
            "morse-report-A3",
            "morse_report",
            ["morse", "--type", "A", "--rank", "3", "--toda-dot", "a3_toda.dot",
             "--morse-dot", "a3_morse.dot", "--output", "a3_morse.json"],
            ["a3_toda.dot", "a3_morse.dot", "a3_morse.json"],
            rank=3,
        ),
        _cli(
            "morse-formulas-A11",
            "morse_formulas",
            ["morse", "--type", "A", "--rank", "11", "--poincare", "--betti1",
             "--conjecture", "--output", "a11_formulas.json"],
            ["a11_formulas.json"],
            rank=11,
        ),
    ]


def _simulate(name, check, rank, signs, fixed=True, tmax=None, a0=None, b0=None,
              trajectory=None):
    # A sign string may begin with '-', so it is always passed as --signs=...
    argv = ["simulate", "--rank", str(rank), f"--signs={signs}"]
    if tmax is not None:
        argv += ["--tmax", repr(tmax)]
    if a0 is not None:
        argv += [f"--a0={','.join(repr(x) for x in a0)}",
                 f"--b0={','.join(repr(x) for x in b0)}"]
    artifacts = [f"{name}.json"]
    if trajectory:
        argv += ["--trajectory", trajectory]
        artifacts.append(trajectory)
    argv += ["--output", f"{name}.json"]
    params = {"rank": rank, "signs": signs, "tmax": CLI_TMAX if tmax is None else tmax,
              "dt": CLI_DT, "a0": a0 or (0.0,) * rank,
              "b0": b0 or tuple(1.0 if s == "+" else -1.0 for s in signs)}
    return Op(name, check, argv=tuple(argv), artifacts=tuple(artifacts),
              params=params, fixed=fixed)


def seeded_flow_ops(seed: int):
    """Random sign sectors and initial points over ranks 2..8.

    For each rank, SEEDED_PER_KIND runs in the positive sector (bounded
    flow, fixed step count) and SEEDED_PER_KIND in a random other sector
    (on 20 seeds none escaped before t = 0.78, so they run to SEEDED_TMAX).
    Drawing both kinds per rank keeps the work in a pass nearly independent
    of the seed.
    """
    rng = random.Random(seed)
    ops = []
    for rank in SEEDED_RANKS:
        for kind in ("bounded", "sector"):
            for j in range(SEEDED_PER_KIND):
                signs = "+" * rank
                while kind == "sector" and signs == "+" * rank:
                    signs = "".join(rng.choice("+-") for _ in range(rank))
                a0 = tuple(round(rng.uniform(-1.0, 1.0), 6) for _ in range(rank))
                b0 = tuple(round((1.0 if s == "+" else -1.0) * rng.uniform(0.5, 1.5), 6)
                           for s in signs)
                op = _simulate(f"seeded-r{rank}-{kind}{j}", f"flow_{kind}", rank, signs,
                               fixed=False, tmax=SEEDED_TMAX, a0=a0, b0=b0)
                if signs == "--":
                    # argparse turns the value of --signs=-- into an empty string, so
                    # this one sector goes through the library instead of the CLI.
                    op = Op(op.name, op.check, call="integrate", params=op.params, fixed=False)
                ops.append(op)
    return ops


def _flow_sectors(seed):
    return [
        _simulate("sim-r3", "flow_bounded", 3, "+++", tmax=1.0),
        _simulate("sim-r7", "flow_bounded", 7, "+" * 7, tmax=2.0,
                  trajectory="sim-r7_trajectory.csv"),
        _simulate("sim-r1-escape", "flow_rank1", 1, "-"),
        _simulate("sim-r3-escape", "flow_sector", 3, "-+-"),
        _simulate("sim-r6-escape", "flow_sector", 6, "+-+-+-"),
    ] + seeded_flow_ops(seed)


def ops_for(workload: str, seed: int) -> list:
    if workload == "cells-large":
        return _cells_large()
    if workload == "homology-dense":
        return _homology_dense()
    if workload == "morse-scan":
        return _morse_scan()
    if workload == "flow-sectors":
        return _flow_sectors(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
