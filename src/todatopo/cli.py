"""Command-line interface.

Four subcommands: ``cells``, ``homology``, ``morse``, ``simulate``.
Each ``cmd_*`` computes and checks, then returns its summary lines and
its artifacts; it writes nothing, and renders no artifact that was not
asked for: the DOT text is made under its flag, and the other artifacts
are generators, or a ``map`` of ``report.dump_json``, that only writing
drains.  ``main`` is the one writer: through ``_emit`` it writes the summary
to stdout, then each requested artifact in ``ARTIFACT_OPTIONS`` order.
``--output -`` replaces the summary with the ``--output`` artifact on
stdout (the cells CSV or JSON, or the JSON of the other subcommands).
Every artifact path is checked before any computation, two artifacts may
not share a destination, and nothing is written, on stdout or on disk,
until every computation and check has passed.  Identical configurations
produce byte identical output.  Exit code 0 means every requested
computation finished and all internal consistency checks passed; an
invalid run, or a write that fails (stdout included), exits 1.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
from itertools import chain

from . import report
from .cells import build_chain_complex, cell_count_formula
from .errors import ConfigError, RankGateError, TodatopoError
from .homology import homology_of
from .lie import cartan_matrix, generate_weyl_group
from .morse import (
    betti_one,
    _complex_from_edges,
    conjectured_betti,
    morse_smale_edges,
    label,
    index,
    poincare_polynomial,
    principal_graph,
    toda_graph,
)
from .signs import parse_sign_string, sign_string
from .toda import DEFAULT_THRESHOLD, TodaState, eigenvalues, integrate

MORSE_RANK_GATE = 3
# Every option that names an artifact path; main checks them all before any work.
ARTIFACT_OPTIONS = ("output", "boundaries", "toda_dot", "morse_dot", "trajectory")


def _unwritable(path: str, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write {path}: {exc.strerror or exc}")


def _check_writable(path: str | None) -> None:
    """Fail now if ``path`` cannot be opened for writing; leave no file behind.

    A pipe is not probed: closing it would end its reader's input.
    """
    if path is None or path == "-":
        return
    try:
        if stat.S_ISFIFO(os.stat(path).st_mode):
            return
        existed = True
    except OSError:
        existed = False
    try:
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
    except OSError as exc:
        raise _unwritable(path, exc) from None
    if not existed:
        os.remove(path)


def _check_distinct(args) -> None:
    """Fail now if two artifact options name the same destination."""
    seen = {}
    for option in ARTIFACT_OPTIONS:
        path = getattr(args, option, None)
        if path is None:
            continue
        flag = "--" + option.replace("_", "-")
        where = path if path == "-" else os.path.realpath(path)
        if where in seen:
            raise ConfigError(f"{seen[where]} and {flag} both write to {path}")
        seen[where] = flag


def _emit(chunks, path: str | None) -> None:
    """Write a str, or an iterable of str chunks, to ``path`` ('-' is stdout)."""
    if path is None:
        return
    if isinstance(chunks, str):
        chunks = (chunks,)
    try:
        if path == "-":
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        else:
            with open(path, "w") as fh:
                fh.writelines(chunks)
    except OSError as exc:  # also a full or closed stdout: the flush is inside
        raise _unwritable("stdout" if path == "-" else path, exc) from None


def _build_group(args):
    return generate_weyl_group(cartan_matrix(args.type, args.rank))


def cmd_cells(args):
    W = _build_group(args)
    cx = build_chain_complex(W)
    counts = cx.ranks()
    for k in range(W.rank, -1, -1):
        if counts[k] != cell_count_formula(W, W.rank - k):
            raise ConfigError("cell counts disagree with the closed formula")
    lines = [f"dim {k}: {c} cells" for k, c in enumerate(counts)]
    lines.append(f"Euler characteristic: {cx.euler_characteristic()}")
    if args.format == "json":
        artifact = report.cells_json(args.type, args.rank, cx)
    else:
        artifact = report.cells_csv(cx)
    return lines, {"output": artifact, "boundaries": report.boundaries_csv(cx)}


def cmd_homology(args):
    W = _build_group(args)
    cx = build_chain_complex(W)
    groups = homology_of(cx)
    euler_cells = cx.euler_characteristic()
    euler_ranks = sum((-1) ** k * g.free_rank for k, g in enumerate(groups))
    if euler_cells != euler_ranks:
        raise ConfigError("Euler characteristic mismatch between cells and homology")
    obj = report.homology_json_obj(args.type, args.rank, groups)
    return report.homology_lines(groups), {"output": map(report.dump_json, [obj])}


def _morse_gated(args) -> None:
    if args.type == "A" and args.rank <= MORSE_RANK_GATE:
        return
    if args.override_rank_gate:
        print(
            "note: Morse-complex output beyond type A rank "
            f"{MORSE_RANK_GATE} is unvalidated; the transversal edge set may "
            "fail the square-zero check",
            file=sys.stderr,
        )
        return
    raise RankGateError(
        "Morse-complex output is validated only for type A up to rank "
        f"{MORSE_RANK_GATE}; pass --override-rank-gate to compute anyway"
    )


def cmd_morse(args):
    selectors = args.poincare or args.betti1 or args.conjecture
    is_a = args.type == "A"
    if selectors and not is_a:
        raise ConfigError("--poincare/--betti1/--conjecture apply to type A only")
    if selectors and (args.toda_dot or args.morse_dot):
        raise ConfigError("--toda-dot/--morse-dot need the full report, not --poincare/--betti1/--conjecture")
    obj = report.json_header(args.type, args.rank)
    lines: list[str] = []
    artifacts = {}
    if not selectors:
        _morse_gated(args)
        W = _build_group(args)
        # The one incidence reading; the key keeps the JSON schema stable.
        obj["sigma_interpretation"] = "value"
        obj["critical_points"] = [
            {"word": list(w.word), "label": label(w), "index": index(w)}
            for w in W.elements
        ]
        graph = toda_graph(W)
        obj["toda_graph"] = {"vertices": len(graph.vertices), "edges": len(graph.edges)}
        edges = morse_smale_edges(W)
        obj["morse_smale_edges"] = [
            {"source": list(e.source.word), "target": list(e.target.word), "incidence": e.incidence}
            for e in edges
        ]
        cx = _complex_from_edges(W, edges)
        obj["index_counts"] = list(cx.ranks())
        groups = homology_of(cx)
        obj["morse_homology"] = report.homology_rows(groups)
        lines.append(f"critical points: {len(W)}; toda edges: {len(graph.edges)}")
        lines.extend("morse " + s for s in report.homology_lines(groups))
        if is_a:
            pg = principal_graph(args.rank)
            obj["principal_components"] = [
                {"seed": list(seed), "cube_dim": pg.seed_cube_dim(seed), "label": pg.seed_label(seed)}
                for seed in pg.seeds
            ]
        if args.toda_dot:
            artifacts["toda_dot"] = report.toda_graph_dot(graph)
        if args.morse_dot:
            artifacts["morse_dot"] = report.morse_graph_dot(W, edges)
    if is_a:
        # Closed forms: each selector adds its own; the full report adds all
        # three but prints no betti-table lines.
        if args.poincare or not selectors:
            coeffs = poincare_polynomial(args.rank)
            obj["poincare"] = {"coefficients": list(coeffs), "string": report.poly_str(coeffs)}
            lines.append(f"principal-cell polynomial: {report.poly_str(coeffs)}")
        if args.betti1 or args.conjecture or not selectors:
            betti1 = betti_one(args.rank)
        if args.betti1 or not selectors:
            obj["betti1"] = betti1
            lines.append(f"betti_1 = {betti1}")
        if args.conjecture or not selectors:
            obj["betti_table"] = _betti_table(args.rank, betti1)
            if selectors:
                for row in obj["betti_table"]:
                    tag = " (conjecture)" if row["conjecture"] else ""
                    lines.append(f"betti_{row['k']} = {row['value']}{tag}")
    artifacts["output"] = map(report.dump_json, [obj])
    return lines, artifacts


def _betti_table(l: int, betti1: int) -> list:
    """Betti table of rank l: degree 1 is betti1 = betti_one(l), the others are conjectural."""
    table = [{"k": 1, "value": betti1, "conjecture": False}]
    for k in range(2, l + 1):
        table.append({"k": k, "value": conjectured_betti(l, k), "conjecture": True})
    return table


def cmd_simulate(args):
    signs = parse_sign_string(args.signs)
    if args.type != "A":
        raise ConfigError("the integrator implements the A-series matrix form only")
    l = args.rank
    if l < 1:
        raise ConfigError(f"rank must be at least 1, got {l}")
    if len(signs) != l:
        raise ConfigError(f"sign string length {len(signs)} does not match rank {l}")
    a0 = _parse_floats(args.a0, l, "a0") if args.a0 else (0.0,) * l
    if args.b0:
        b0 = _parse_floats(args.b0, l, "b0")
        if 0.0 in b0:
            raise ConfigError("--b0 values must be nonzero: a zero b lies in no sign sector")
        got = tuple(1 if x > 0 else -1 for x in b0)
        if got != signs:
            raise ConfigError("b0 signs disagree with --signs")
    else:
        b0 = tuple(float(e) for e in signs)
    if math.isinf(args.threshold):
        # integrate(threshold=inf) would record states until a step overflows.
        raise ConfigError(f"threshold must be finite, got {args.threshold}")
    peak = max(map(abs, a0 + b0))
    if peak > args.threshold > 0:  # integrate rejects a threshold that is not positive
        raise ConfigError(
            f"the initial point is already past the threshold: max |a0|, |b0| = {peak!r} > {args.threshold!r}"
        )
    state = TodaState(a0, b0)
    ev0 = eigenvalues(state)
    import numpy as np

    # Below a high threshold the powers of X can still overflow; such a run is
    # rejected below, so numpy's overflow warnings are not printed for it.
    with np.errstate(over="ignore", invalid="ignore"):
        traj = integrate(state, args.tmax, args.dt, threshold=args.threshold)
    if _invariants_may_overflow(l, args.threshold) and not all(
        map(math.isfinite, chain.from_iterable(traj.invariants))
    ):
        raise ConfigError(
            f"the Chevalley invariants overflow below the threshold {args.threshold!r}; "
            "lower --threshold"
        )
    evf = eigenvalues(traj.final_state())
    drift = traj.max_invariant_drift()
    eig_drift = float(max(abs(evf - ev0)))
    summary = {
        "schema_version": report.SCHEMA_VERSION,
        "n": state.n,
        "signs": sign_string(signs),
        "t_max": args.tmax,
        "dt": args.dt,
        "threshold": args.threshold,
        "steps": len(traj.times) - 1,
        "blowup_time": traj.blowup.time if traj.blowup else None,
        "blowup_coordinate": traj.blowup.coordinate if traj.blowup else None,
        "max_invariant_drift": drift,
        "initial_invariants": [float(x) for x in traj.invariants[0]],
        "final_invariants": [float(x) for x in traj.invariants[-1]],
        "final_eigenvalues": [[float(e.real), float(e.imag)] for e in evf],
        "max_eigenvalue_drift": eig_drift,
    }
    if traj.blowup:  # the drift is then measured at the threshold: no accuracy figure
        lines = [f"blow-up at t = {traj.blowup.time:.6f} ({traj.blowup.coordinate})"]
    else:
        lines = [f"no blow-up over [0, {args.tmax}]", f"max invariant drift: {drift:.3e}"]
    return lines, {"output": map(report.dump_json, [summary]), "trajectory": report.trajectory_csv(traj)}


def _invariants_may_overflow(rank: int, threshold: float) -> bool:
    """Whether the invariants of states within the threshold can leave the float range.

    Every recorded state has |a_i|, |b_i| <= threshold, so each row of its Lax
    matrix sums to at most 3 * threshold + 1 in absolute value, and with
    n = rank + 1, |tr X^k| <= n * (3 * threshold + 1) ** k for k <= n; the
    drift is at most twice that.  Below this bound no row needs scanning.
    """
    n = rank + 1
    return n * math.log(3 * threshold + 1) + math.log(2 * n) >= math.log(sys.float_info.max)


def _parse_floats(text: str, want: int, name: str) -> tuple:
    try:
        vals = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"--{name} must be a comma-separated float list") from None
    if len(vals) != want:
        raise ConfigError(f"--{name} needs {want} values, got {len(vals)}")
    if not all(math.isfinite(x) for x in vals):
        raise ConfigError(f"--{name} values must be finite")
    return vals


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="todatopo",
        description=(
            "Cell decompositions, integral homology, Morse data and Lax-flow "
            "checks for compactified Toda isospectral manifolds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", default="A", type=str.upper, help="simple type letter A..G")
        p.add_argument("--rank", type=int, required=True)
        p.add_argument(
            "--output",
            default=None,
            help="artifact path; '-' prints the artifact to stdout instead of the summary",
        )

    p = sub.add_parser("cells", help="enumerate the cell decomposition")
    common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--boundaries", default=None, help="sparse-triplet CSV path")
    p.set_defaults(func=cmd_cells)

    p = sub.add_parser("homology", help="integral homology of the cell complex")
    common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("morse", help="Morse graph, complex and Betti data")
    common(p)
    p.add_argument("--poincare", action="store_true", help="principal-cell polynomial only")
    p.add_argument("--betti1", action="store_true", help="first Betti number only")
    p.add_argument("--conjecture", action="store_true", help="Betti table only")
    p.add_argument("--override-rank-gate", action="store_true")
    p.add_argument("--toda-dot", default=None, help="DOT path for the Toda graph")
    p.add_argument("--morse-dot", default=None, help="DOT path for the Morse-Smale graph")
    p.set_defaults(func=cmd_morse)

    p = sub.add_parser("simulate", help="integrate the Lax flow")
    common(p)
    p.add_argument("--signs", required=True, help="sign sector, e.g. ++- ")
    p.add_argument("--tmax", type=float, default=5.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--a0", default=None, help="comma-separated initial a values")
    p.add_argument("--b0", default=None, help="comma-separated initial b values")
    p.add_argument("--trajectory", default=None, help="CSV path for the trajectory")
    p.set_defaults(func=cmd_simulate)
    return parser


def _take_signs(argv: list) -> tuple[list, str | None]:
    """Split the value off every ``--signs X`` or ``--signs=X``; the last one
    wins, as for every other option.

    argparse reads a value such as '-+' as an option and drops the value
    '--', so it is handed an empty ``--signs=`` and the value is set after.
    """
    rest, signs, k = [], None, 0
    while k < len(argv):
        tok = argv[k]
        if tok == "--signs" and k + 1 < len(argv):
            tok, signs, k = "--signs=", argv[k + 1], k + 1
        elif tok.startswith("--signs="):
            tok, signs = "--signs=", tok[len("--signs=") :]
        rest.append(tok)
        k += 1
    return rest, signs


def main(argv=None) -> int:
    argv, signs = _take_signs(list(sys.argv[1:] if argv is None else argv))
    args = build_parser().parse_args(argv)
    if signs is not None:
        args.signs = signs
    try:
        _check_distinct(args)
        for option in ARTIFACT_OPTIONS:
            _check_writable(getattr(args, option, None))
        lines, artifacts = args.func(args)
        if args.output != "-":
            _emit([f"{line}\n" for line in lines], "-")
        for option in ARTIFACT_OPTIONS:
            if option in artifacts:
                _emit(artifacts[option], getattr(args, option))
        return 0
    except TodatopoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
