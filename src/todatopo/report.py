"""Machine-readable writers: JSON, CSV, and DOT emitters.

All output is deterministic: bases are already canonically ordered,
JSON keys are sorted, and floats use repr formatting.
"""

from __future__ import annotations

import json

from .cells import ChainComplex
from .lie import WeylGroup
from .morse import MorseEdge, TodaGraph, label
from .toda import Trajectory

SCHEMA_VERSION = 1


def dump_json(obj) -> str:
    """Sorted keys, two-space indent and a final newline: every JSON artifact's layout."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def word_list(w) -> list:
    return list(w.word)


# -- cells -------------------------------------------------------------------
#
# The three cells artifacts are generators of text chunks, one per degree
# (two for the cells JSON: the separator, then the degree's joined rows), so
# that no artifact is held whole in memory and no degree's text is copied
# after its join.  A row is the text of its diagram, built once per run of
# cells sharing one diagram object, around the text of its coset
# representative, built once per representative.
# cell_rows and cells_json_obj are the same rows as dicts, the reference the
# streamed text is tested against.


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


def _row_texts(cx: ChainComplex, diagram_text, rep_text):
    """For each degree, the list of its rows ``head + rep_text(rep) + tail``.

    ``diagram_text(cell)`` gives the (head, tail) pair of the cell's diagram,
    made again whenever a cell's diagram is not the previous cell's object.
    """
    reps, D = {}, None
    for basis in cx.bases:
        rows = []
        for cell in basis:
            if cell.diagram is not D:
                D = cell.diagram
                head, tail = diagram_text(cell)
            rep = cell.rep
            text = reps.get(rep.position)
            if text is None:
                text = reps[rep.position] = rep_text(rep)
            rows.append(head + text + tail)
        yield rows


def _csv_diagram(cell) -> tuple[str, str]:
    return f"{cell.dim},{cell.codim},{cell.diagram.color_string()},", "\n"


def _csv_rep(rep) -> str:
    return f"{rep.word_str()},{rep.length}"


def cells_csv(cx: ChainComplex):
    """The cells CSV as text chunks: the header, then one chunk per degree."""
    yield "dim,codim,colors,coset_word,coset_length\n"
    for rows in _row_texts(cx, _csv_diagram, _csv_rep):
        yield "".join(rows)


def _cells_summary(type_label: str, rank: int, cx: ChainComplex) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "type": type_label,
        "rank": rank,
        "counts_by_dim": list(cx.ranks()),
        "euler_characteristic": cx.euler_characteristic(),
    }


def cells_json_obj(type_label: str, rank: int, cx: ChainComplex) -> dict:
    return {**_cells_summary(type_label, rank, cx), "cells": cell_rows(cx)}


# A row of the cells list as dump_json lays it out: sorted keys, each at
# depth 3 of an indent=2 document, the coset word's letters at depth 4.
def _json_diagram(cell) -> tuple[str, str]:
    colors = json.dumps(cell.diagram.color_string())
    return (
        f'    {{\n      "codim": {cell.codim},\n      "colors": {colors},\n      "coset_length": ',
        f',\n      "dim": {cell.dim}\n    }}',
    )


def _json_rep(rep) -> str:
    letters = ",".join(f"\n        {i}" for i in rep.word)
    word = f"[{letters}\n      ]" if letters else "[]"
    return f'{rep.length},\n      "coset_word": {word}'


def cells_json(type_label: str, rank: int, cx: ChainComplex):
    """The text of ``dump_json(cells_json_obj(...))`` as chunks: per degree, the
    separator and then its rows, so no degree's text is copied to prefix it.

    Only the cells list is laid out here; the other keys come from
    ``dump_json``, with the list's place marked by a null.
    """
    head, _, tail = dump_json(
        {**_cells_summary(type_label, rank, cx), "cells": None}
    ).partition('"cells": null')
    yield head + '"cells": ['
    sep = "\n"
    for rows in _row_texts(cx, _json_diagram, _json_rep):
        if rows:
            yield sep
            yield ",\n".join(rows)
            sep = ",\n"
    yield ("]" if sep == "\n" else "\n  ]") + tail


def boundaries_csv(cx: ChainComplex):
    """Sparse triplets of every boundary map, degree,row,col,value, one chunk per degree.

    The triplets come in (row, col) order without a sort: walking the columns
    in order fills each row's bucket in column order.  A column's "col,1" and
    "col,-1" texts, every entry of a cellular boundary, are built once per column.
    """
    yield "degree,row,col,value\n"
    for k in range(1, cx.top_degree + 1):
        mat = cx.boundary(k)
        buckets = [[] for _ in range(mat.rows)]
        for c, col in enumerate(mat.columns):
            head = f"{c},"
            plus, minus = head + "1", head + "-1"
            for r, v in col.items():
                buckets[r].append(plus if v == 1 else minus if v == -1 else head + str(v))
        yield "".join(
            f"{k},{r}," + f"\n{k},{r},".join(b) + "\n" for r, b in enumerate(buckets) if b
        )


# -- homology ----------------------------------------------------------------


def homology_rows(groups) -> list:
    return [
        {"degree": k, "free_rank": g.free_rank, "torsion": list(g.torsion)}
        for k, g in enumerate(groups)
    ]


def homology_json_obj(type_label: str, rank: int, groups) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "type": type_label,
        "rank": rank,
        "groups": homology_rows(groups),
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


def trajectory_csv(traj: Trajectory):
    """The trajectory CSV as text chunks, one line each: no whole-artifact string."""
    l = traj.rank
    header = (
        ["t"]
        + [f"a{i}" for i in range(1, l + 1)]
        + [f"b{i}" for i in range(1, l + 1)]
        + [f"I{i}" for i in range(1, l + 1)]
    )
    yield ",".join(header) + "\n"
    for t, a, b, inv in zip(traj.times, traj.a, traj.b, traj.invariants):
        yield ",".join(map(repr, map(float, (t, *a, *b, *inv)))) + "\n"
