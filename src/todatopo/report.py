"""Machine-readable writers: JSON, CSV, and DOT emitters.

All output is deterministic: bases are already canonically ordered,
JSON keys are sorted, and floats use repr formatting.
"""

from __future__ import annotations

import json
from itertools import islice

from .cells import ChainComplex
from .lie import WeylGroup
from .morse import MorseEdge, TodaGraph, label
from .toda import Trajectory

SCHEMA_VERSION = 1


def dump_json(obj) -> str:
    # With indent, json.dumps joins one list of every encoder chunk, several
    # times the size of the output; joining a few thousand chunks at a time
    # gives the same text at a fraction of the peak memory.
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj)
    parts = []
    while batch := list(islice(chunks, 4096)):
        parts.append("".join(batch))
    parts.append("\n")
    return "".join(parts)


def word_list(w) -> list:
    return list(w.word)


# -- cells -------------------------------------------------------------------


def cell_rows(cx: ChainComplex):
    """Rows (dim, codim, colors, coset word, coset length), top degree last."""
    rows = []
    for k, basis in enumerate(cx.bases):
        for cell in basis:
            rows.append(
                {
                    "dim": cell.dim,
                    "codim": cell.codim,
                    "colors": cell.diagram.color_string(),
                    "coset_word": word_list(cell.rep),
                    "coset_length": cell.rep.length,
                }
            )
    return rows


def cells_csv(cx: ChainComplex) -> str:
    lines = ["dim,codim,colors,coset_word,coset_length"]
    for row in cell_rows(cx):
        word = "-".join(str(i) for i in row["coset_word"]) or "e"
        lines.append(
            f"{row['dim']},{row['codim']},{row['colors']},{word},{row['coset_length']}"
        )
    return "\n".join(lines) + "\n"


def cells_json_obj(type_label: str, rank: int, cx: ChainComplex) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "type": type_label,
        "rank": rank,
        "counts_by_dim": list(cx.ranks()),
        "euler_characteristic": cx.euler_characteristic(),
        "cells": cell_rows(cx),
    }


def boundaries_csv(cx: ChainComplex) -> str:
    """Sparse triplets of every boundary map: degree,row,col,value."""
    lines = ["degree,row,col,value"]
    for k in range(1, cx.top_degree + 1):
        for r, c, v in cx.boundary(k).triplets():
            lines.append(f"{k},{r},{c},{v}")
    return "\n".join(lines) + "\n"


# -- homology ----------------------------------------------------------------


def homology_json_obj(type_label: str, rank: int, groups) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "type": type_label,
        "rank": rank,
        "groups": [
            {"degree": k, "free_rank": g.free_rank, "torsion": list(g.torsion)}
            for k, g in enumerate(groups)
        ],
    }


def homology_lines(groups) -> list:
    return [f"H_{k} = {g}" for k, g in enumerate(groups)]


# -- graphs --------------------------------------------------------------------


def toda_graph_dot(graph: TodaGraph) -> str:
    lines = ["digraph toda {"]
    for v in graph.vertices:
        lines.append(f'  "{v.word_str()}" [label="{label(v)}"];')
    for a, b, i in graph.edges:
        lines.append(f'  "{a.word_str()}" -> "{b.word_str()}" [label="s{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def morse_graph_dot(W: WeylGroup, edges: tuple[MorseEdge, ...]) -> str:
    lines = ["digraph morse_smale {"]
    for v in W.elements:
        lines.append(f'  "{v.word_str()}" [label="{label(v)}"];')
    for e in edges:
        style = "" if e.incidence else " style=dashed"
        lines.append(
            f'  "{e.source.word_str()}" -> "{e.target.word_str()}" '
            f'[label="{e.incidence}"{style}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- morse report ----------------------------------------------------------------


def poly_str(coeffs) -> str:
    """Render ascending coefficients as a polynomial in q, highest power first."""
    terms = []
    for p in range(len(coeffs) - 1, -1, -1):
        c = coeffs[p]
        if not c:
            continue
        if p == 0:
            terms.append(str(c))
        else:
            q = "q" if p == 1 else f"q^{p}"
            terms.append(q if c == 1 else f"{c}{q}")
    return " + ".join(terms) if terms else "0"


# -- toda ----------------------------------------------------------------


def trajectory_csv(traj: Trajectory) -> str:
    l = traj.rank
    header = (
        ["t"]
        + [f"a{i}" for i in range(1, l + 1)]
        + [f"b{i}" for i in range(1, l + 1)]
        + [f"I{i}" for i in range(1, l + 1)]
    )
    lines = [",".join(header)]
    for t, a, b, inv in zip(traj.times, traj.a, traj.b, traj.invariants):
        lines.append(",".join(map(repr, map(float, (t, *a, *b, *inv)))))
    return "\n".join(lines) + "\n"
