import json

import pytest

from todatopo import (
    Cell,
    ChainComplex,
    ColoredDynkinDiagram,
    IntMatrix,
    build_chain_complex,
    cartan_matrix,
    generate_weyl_group,
    label,
    morse_smale_edges,
    report,
    toda_graph,
)

from dense_reference import triplets


@pytest.mark.parametrize("rows", [0, 1, 3000])
def test_dump_json_matches_json_dumps(rows):
    # The layout every JSON artifact shares, on floats, None, non-ASCII text and empty containers.
    obj = {"schema_version": 1, "rows": [{"i": i, "v": [i, -i / 3, None, "é"], "ok": i % 2 == 0}
                                         for i in range(rows)], "empty": {}}
    assert report.dump_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _reference_cells_csv(cx):
    lines = ["dim,codim,colors,coset_word,coset_length"]
    for row in report.cell_rows(cx):
        word = "-".join(str(i) for i in row["coset_word"]) or "e"
        lines.append(f"{row['dim']},{row['codim']},{row['colors']},{word},{row['coset_length']}")
    return "\n".join(lines) + "\n"


def _reference_boundaries_csv(cx):
    lines = ["degree,row,col,value"]
    for k in range(1, cx.top_degree + 1):
        lines.extend(f"{k},{r},{c},{v}" for r, c, v in triplets(cx.boundary(k)))
    return "\n".join(lines) + "\n"


def _fresh_interleaved(cx):
    """cx's cells, each with a fresh copy of its diagram, listed by representative
    so that diagrams interleave, over zero boundaries of matching shapes."""
    bases = tuple(
        tuple(
            Cell(ColoredDynkinDiagram(c.diagram.rank, c.diagram.mask, c.diagram.red), c.rep)
            for c in sorted(basis, key=lambda c: c.rep.position)
        )
        for basis in cx.bases
    )
    rows = (0,) + tuple(map(len, bases))
    return ChainComplex(bases, tuple(IntMatrix(rows[k], len(b)) for k, b in enumerate(bases)))


# A1 has rank 1 and the identity's empty coset word; B3 and G2 are not
# simply laced, G2 with an odd off-diagonal entry.  The fresh interleaved
# B3 cells share no diagram object with the cell before them, so every row
# makes its diagram text again.
@pytest.mark.parametrize("type_label,rank,fresh", [
    *(pytest.param(t, r, False, id=f"{t}-{r}") for t, r in
      [("A", 1), ("A", 2), ("B", 3), ("G", 2), ("D", 4)]),
    pytest.param("B", 3, True, id="B-3-fresh-interleaved"),
])
def test_streamed_cells_artifacts_match_the_dict_reference(type_label, rank, fresh):
    cx = build_chain_complex(generate_weyl_group(cartan_matrix(type_label, rank)))
    if fresh:
        cx = _fresh_interleaved(cx)
    json_text = "".join(report.cells_json(type_label, rank, cx))
    assert json_text == report.dump_json(report.cells_json_obj(type_label, rank, cx))
    assert json.loads(json_text)["cells"] == report.cell_rows(cx)
    assert "".join(report.cells_csv(cx)) == _reference_cells_csv(cx)
    assert "".join(report.boundaries_csv(cx)) == _reference_boundaries_csv(cx)


def test_poly_str_skips_zero_coefficients():
    assert report.poly_str((1, 0, 2)) == "2q^2 + 1"


def test_boundaries_csv_writes_non_unit_values():
    # a cellular boundary holds only +-1; any other value is written in the general form
    d1 = IntMatrix(2, 3, {(0, 0): 2, (1, 0): -1, (0, 1): -3, (1, 2): 1})
    cx = ChainComplex(((0, 1), (0, 1, 2)), (IntMatrix(0, 2), d1))
    assert "".join(report.boundaries_csv(cx)) == _reference_boundaries_csv(cx) == (
        "degree,row,col,value\n1,0,0,2\n1,0,1,-3\n1,1,0,-1\n1,1,2,1\n")


# The two DOT writers as they were before they shared one, kept as the reference.
def _reference_toda_graph_dot(graph):
    lines = ["digraph toda {"]
    for v in graph.vertices:
        lines.append(f'  "{v.word_str()}" [label="{label(v)}"];')
    for a, b, i in graph.edges:
        lines.append(f'  "{a.word_str()}" -> "{b.word_str()}" [label="s{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _reference_morse_graph_dot(W, edges):
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


@pytest.mark.parametrize("type_label,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("G", 2),
])
def test_dot_writers_match_the_reference(type_label, rank):
    W = generate_weyl_group(cartan_matrix(type_label, rank))
    graph, edges = toda_graph(W), morse_smale_edges(W)
    assert any(e.incidence == 0 for e in edges)  # so the dashed style is compared too
    assert report.toda_graph_dot(graph) == _reference_toda_graph_dot(graph)
    assert report.morse_graph_dot(W, edges) == _reference_morse_graph_dot(W, edges)
