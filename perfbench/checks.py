"""Output checks, run in the parent process on each pass's artifacts.

Every check reads what an op wrote (or the summary of a library op's
result) and returns a list of failure messages.  The homology checks
read only the JSON artifact and share no code with the Smith path; the
flow checks recompute the initial spectrum from the op's inputs.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Relative tolerances for bounded flows, |dI| / max(1, |I0|) and the same for
# eigenvalues.  Measured drift on these inputs is about 1e-13.
FLOW_REL_TOL = 1e-9
# Rank 1, sector '-': b = -sec^2 t crosses the 1e8 threshold 1e-4 before pi/2.
RANK1_BLOWUP_WINDOW = 2e-4

A4_FREE_RANKS = [1, 10, 25, 0, 0]


def weyl_order(type_label: str, rank: int) -> int:
    """|W| from the closed forms, independent of the package's enumeration."""
    l = rank
    orders = {
        "A": math.factorial(l + 1),
        "B": 2**l * math.factorial(l),
        "C": 2**l * math.factorial(l),
        "D": 2 ** (l - 1) * math.factorial(l),
        "F": 1152,
        "G": 12,
    }
    return orders[type_label]


def golden(workload_golden: dict, op, res) -> list:
    want = workload_golden.get(op.name)
    if want is None:
        return [f"{op.name}: no golden digests recorded"]
    got = dict(res.get("artifacts", {}))
    if "result" in res and "edges_sha256" in res["result"]:
        got["result"] = res["result"]["edges_sha256"]
    return [
        f"{op.name}: {name} digest {got.get(name)} != golden {digest}"
        for name, digest in sorted(want.items())
        if got.get(name) != digest
    ]


def descent_numbers(type_label: str, rank: int) -> list:
    """Number of Weyl group elements with k descents, k = 0..rank, from closed forms.

    Type A_l: the Eulerian numbers of S_(l+1).  Type B_l: the type-B
    Eulerian numbers.  The incidence numbers are 0 or +-2, so these are
    also the mod-2 Betti numbers of the complex.
    """
    n = rank
    if type_label == "A":
        n += 1
        return [sum((-1) ** j * math.comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1))
                for k in range(rank + 1)]
    if type_label == "B":
        return [sum((-1) ** (k - j) * math.comb(n + 1, k - j) * (2 * j + 1) ** n
                    for j in range(k + 1)) for k in range(rank + 1)]
    raise ValueError(f"no descent-number formula for type {type_label}")


def mod2_betti(groups) -> list:
    """b_k = free_k + t_k + t_(k-1), with t_k the number of torsion factors of H_k."""
    t = [len(g["torsion"]) for g in groups]
    return [g["free_rank"] + t[k] + (t[k - 1] if k else 0) for k, g in enumerate(groups)]


def homology(op, workdir: Path, refs) -> list:
    p = op.params
    obj = json.loads((workdir / op.artifacts[0]).read_text())
    groups = sorted(obj["groups"], key=lambda g: g["degree"])
    errors = []
    if [g["degree"] for g in groups] != list(range(p["rank"] + 1)):
        errors.append("degrees are not 0..rank")
    if any(d != 2 for g in groups for d in g["torsion"]):
        errors.append("torsion other than Z/2")
    b = mod2_betti(groups)
    if sum(b) != weyl_order(p["type"], p["rank"]):
        errors.append(f"mod-2 Betti numbers {b} do not sum to |W|")
    if b != b[::-1]:
        errors.append(f"mod-2 Betti numbers {b} are not palindromic")
    if b != descent_numbers(p["type"], p["rank"]):
        errors.append(f"mod-2 Betti numbers {b} != descent numbers "
                      f"{descent_numbers(p['type'], p['rank'])}")
    free = [g["free_rank"] for g in groups]
    if (p["type"], p["rank"]) == ("A", 4):
        formulas = [1, refs["betti_one"][4]] + refs["conjectured_betti"][4]
        if free != A4_FREE_RANKS or free != formulas:
            errors.append(f"A4 free ranks {free}; want {A4_FREE_RANKS}, formulas give {formulas}")
    return [f"{op.name}: {e}" for e in errors]


def morse_edges(op, res) -> list:
    r = res["result"]
    l = op.params["rank"]
    errors = []
    if r["order"] != weyl_order(op.params["type"], l):
        errors.append(f"group order {r['order']}")
    # Every element a has |unstable(a)| toda edges; indices average l/2.
    if r["toda_edges"] != r["order"] * l // 2:
        errors.append(f"toda graph has {r['toda_edges']} edges")
    if not set(r["incidences"]) <= {-2, 0, 2}:
        errors.append(f"incidences {r['incidences']} outside {{0, +-2}}")
    return [f"{op.name}: {e}" for e in errors]


def morse_report(op, workdir: Path, refs) -> list:
    report = next(name for name in op.artifacts if name.endswith(".json"))
    obj = json.loads((workdir / report).read_text())
    morse = [(g["free_rank"], g["torsion"]) for g in obj["morse_homology"]]
    cellular = refs["cellular_homology"][op.params["rank"]]
    if morse != cellular:
        return [f"{op.name}: Morse homology {morse} != cellular homology {cellular}"]
    return []


def morse_formulas(op, workdir: Path) -> list:
    l = op.params["rank"]
    obj = json.loads((workdir / op.artifacts[0]).read_text())
    errors = []
    if obj["betti1"] != l * (l + 1) // 2:
        errors.append(f"betti1 {obj['betti1']} != l(l+1)/2")
    # The principal-cell polynomial sum_n n (q+2)^(l-n) has value sum_n n 3^(l-n) at q = 1.
    if sum(obj["poincare"]["coefficients"]) != sum(n * 3 ** (l - n) for n in range(1, l + 1)):
        errors.append("principal-cell polynomial disagrees with its closed form at q = 1")
    return [f"{op.name}: {e}" for e in errors]


def lax_spectrum(a0, b0) -> np.ndarray:
    """Eigenvalues of the Lax matrix of (a0, b0), built here from its definition."""
    n = len(a0) + 1
    a = list(a0) + [0.0]
    X = np.diag([a[j] - (a[j - 1] if j else 0.0) for j in range(n)])
    X += np.diag(np.ones(n - 1), 1) + np.diag(np.asarray(b0, dtype=float), -1)
    ev = np.linalg.eigvals(X)
    return ev[np.lexsort((ev.imag, ev.real))]


def _flow_summary(op, res, workdir: Path) -> dict:
    if op.call:
        return res["result"]
    return json.loads((workdir / op.artifacts[0]).read_text())


def flow_bounded(op, res, workdir: Path) -> list:
    p = op.params
    s = _flow_summary(op, res, workdir)
    errors = []
    if s["blowup_time"] is not None:
        errors.append(f"positive sector escaped at t = {s['blowup_time']}")
    if s["steps"] != round(p["tmax"] / p["dt"]):
        errors.append(f"{s['steps']} steps for tmax {p['tmax']}, dt {p['dt']}")
    scale = max(1.0, max(abs(x) for x in s["initial_invariants"]))
    if not s["max_invariant_drift"] / scale <= FLOW_REL_TOL:
        errors.append(f"relative invariant drift {s['max_invariant_drift'] / scale:.3e}")
    want = lax_spectrum(p["a0"], p["b0"])
    got = np.array([complex(re, im) for re, im in s["final_eigenvalues"]])
    rel = float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))
    if not rel <= FLOW_REL_TOL:
        errors.append(f"relative eigenvalue drift {rel:.3e} from the initial spectrum")
    for name in op.artifacts[1:]:
        errors += _trajectory(workdir / name, s["steps"])
    return [f"{op.name}: {e}" for e in errors]


def _trajectory(path: Path, steps: int) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if len(body) != steps + 1:
        return [f"trajectory has {len(body)} rows for {steps} steps"]
    cols = [k for k, h in enumerate(header) if h.startswith("I")]
    inv = np.array([[float(row[k]) for k in cols] for row in body])
    scale = np.maximum(1.0, np.abs(inv[0]))
    drift = float(np.max(np.abs(inv - inv[0]) / scale))
    return [] if drift <= FLOW_REL_TOL else [f"trajectory invariant drift {drift:.3e}"]


def flow_sector(op, res, workdir: Path) -> list:
    """A run in a sector other than the positive one.

    It may escape before tmax, or later, or only in negative time.  Its
    drift is not gated in either case: across a blow-up, or close before
    one, the drift does not measure the integrator's accuracy.
    """
    p = op.params
    s = _flow_summary(op, res, workdir)
    t = s["blowup_time"]
    if t is None and s["steps"] != round(p["tmax"] / p["dt"]):
        return [f"{op.name}: no escape, yet {s['steps']} steps for tmax {p['tmax']}"]
    if t is not None and not 0.0 < t <= p["tmax"]:
        return [f"{op.name}: escape at {t} outside (0, {p['tmax']}]"]
    return []


def flow_rank1(op, res, workdir: Path) -> list:
    s = _flow_summary(op, res, workdir)
    t = s["blowup_time"]
    if t is None or not 0.0 < math.pi / 2 - t <= RANK1_BLOWUP_WINDOW:
        return [f"{op.name}: blow-up at {t}, expected just before pi/2"]
    return []


def reference_values() -> dict:
    """Values from independent package routes that the checks compare against."""
    from todatopo import (betti_one, build_chain_complex, cartan_matrix, conjectured_betti,
                          generate_weyl_group, homology_of)

    cx = build_chain_complex(generate_weyl_group(cartan_matrix("A", 3)))
    return {
        "betti_one": {4: betti_one(4)},
        "conjectured_betti": {4: [conjectured_betti(4, k) for k in range(2, 5)]},
        "cellular_homology": {3: [(g.free_rank, list(g.torsion)) for g in homology_of(cx)]},
    }


def check_op(op, res, workdir: Path, workload_golden: dict, refs: dict) -> list:
    """All failures of one op: its status, its golden digests, its output check."""
    if res["status"] != "ok":
        return [f"{op.name}: {res['status']} {res.get('message', '')}".strip()]
    errors = golden(workload_golden, op, res) if op.fixed else []
    kind = op.check
    if kind == "homology":
        errors += homology(op, workdir, refs)
    elif kind == "morse_edges":
        errors += morse_edges(op, res)
    elif kind == "morse_report":
        errors += morse_report(op, workdir, refs)
    elif kind == "morse_formulas":
        errors += morse_formulas(op, workdir)
    elif kind == "flow_bounded":
        errors += flow_bounded(op, res, workdir)
    elif kind == "flow_sector":
        errors += flow_sector(op, res, workdir)
    elif kind == "flow_rank1":
        errors += flow_rank1(op, res, workdir)
    return errors
