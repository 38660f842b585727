"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np

from todatopo import (
    HomologyGroup,
    TodaState,
    betti_one,
    build_chain_complex,
    cartan_matrix,
    conjectured_betti,
    eigenvalues,
    generate_weyl_group,
    homology_of,
    incidence,
    index,
    integrate,
    label,
    morse_complex,
    poincare_polynomial,
    principal_graph,
)

from dense_reference import composes_to_zero

_cache = {}


def group(label_, rank):
    key = (label_, rank)
    if key not in _cache:
        _cache[key] = generate_weyl_group(cartan_matrix(label_, rank))
    return _cache[key]


def ok(n, text):
    print(f"ACCEPTANCE {n}: PASS  {text}")


def test_criterion_1_a2_gold_homology():
    t0 = time.perf_counter()
    groups = homology_of(build_chain_complex(group("A", 2)))
    elapsed = time.perf_counter() - t0
    assert groups[0] == HomologyGroup(1, ())
    assert groups[1] == HomologyGroup(3, (2,))
    assert groups[2] == HomologyGroup(0, ())
    assert elapsed < 1.0
    ok(1, f"rank-2 A-type homology Z, Z^3+Z/2, 0 in {elapsed:.3f}s")


def test_criterion_2_a2_cell_counts_and_euler():
    cx = build_chain_complex(group("A", 2))
    assert cx.ranks() == (4, 12, 6)
    assert cx.euler_characteristic() == -2
    groups = homology_of(cx)
    alt = sum((-1) ** k * g.free_rank for k, g in enumerate(groups))
    assert alt == -2
    ok(2, "cell counts 4/12/6 with Euler characteristic -2 on both routes")


def test_criterion_3_square_zero_all_supported_types():
    cases = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
             ("C", 3), ("D", 4), ("G", 2), ("F", 4)]
    times = []
    for lbl, rank in cases:
        t0 = time.perf_counter()
        cx = build_chain_complex(group(lbl, rank))
        for k in range(2, rank + 1):
            assert composes_to_zero(cx.boundary(k - 1), cx.boundary(k))
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"{lbl}{rank} took {elapsed:.1f}s"
        times.append(f"{lbl}{rank}:{elapsed:.2f}s")
    ok(3, "boundary squares to zero exactly for " + " ".join(times))


def test_criterion_4_a1_circle():
    groups = homology_of(build_chain_complex(group("A", 1)))
    assert [(g.free_rank, g.torsion) for g in groups] == [(1, ()), (1, ())]
    ok(4, "rank-1 complex has circle homology Z, Z")


def test_criterion_5_poincare_polynomial():
    for l in range(1, 7):
        counts = principal_graph(l).counts()
        coeffs = poincare_polynomial(l)
        assert counts == coeffs
        closed = [0] * l
        for n in range(1, l + 1):
            for t in range(l - n + 1):
                closed[t] += n * math.comb(l - n, t) * 2 ** (l - n - t)
        assert list(coeffs) == closed
        assert coeffs[0] == 2 ** (l + 1) - (l + 2)
    ok(5, "principal-cell counts match the closed polynomial for ranks 1..6")


def test_criterion_6_betti_one_three_routes():
    for l in range(1, 7):
        closed = l * (l + 1) // 2
        assert betti_one(l) == closed
        coeffs = poincare_polynomial(l)
        assert sum(c * (-1) ** t for t, c in enumerate(coeffs)) == closed
        z1 = 2 ** (l + 1) - (l + 2)
        b1 = sum((l - n) * (2 ** n - 1) for n in range(1, l))
        assert z1 - b1 == closed
    for l in (2, 3):
        groups = homology_of(build_chain_complex(group("A", l)))
        assert groups[1].free_rank == l * (l + 1) // 2
    ok(6, "betti_1 = l(l+1)/2 on all three routes, and from cells at ranks 2, 3")


def test_criterion_7_incidence_closed_form_and_a2_morse():
    for l in (1, 2, 3, 4):
        W = group("A", l)
        e = W.identity
        for i in range(1, l + 1):
            b = W.from_word(range(i, 0, -1))
            assert incidence(e, b) == 2 * (-1) ** (i + 1) * (1 - (i == l))
    W2 = group("A", 2)
    cx = morse_complex(W2)
    for k in range(2, 3):
        assert composes_to_zero(cx.boundary(k - 1), cx.boundary(k))
    assert homology_of(cx) == homology_of(build_chain_complex(W2))
    ok(7, "top-cell incidences match the closed form; rank-2 Morse homology equals cellular")


def test_criterion_8_a5_label_spot_check():
    W = group("A", 5)
    w = W.from_word([2, 1, 4, 3])
    assert label(w) == "0*0**"
    assert index(w) == 3
    ok(8, "label and index of the rank-5 worked example check out")


def test_criterion_9_integrator():
    for n in (3, 4):
        l = n - 1
        s = TodaState((0.0,) * l, (1.0,) * l)
        traj = integrate(s, 5.0, 1e-3)
        assert traj.blowup is None
        assert traj.max_invariant_drift() < 1e-8
        ev0 = eigenvalues(s)
        drift = max(
            float(np.max(np.abs(eigenvalues(traj.state(i)) - ev0)))
            for i in range(0, len(traj.times), 250)
        )
        drift = max(drift, float(np.max(np.abs(eigenvalues(traj.final_state()) - ev0))))
        assert drift < 1e-8
    s = TodaState((0.0,), (-1.0,))
    b6 = integrate(s, 5.0, 1e-3, threshold=1e6).blowup
    b9 = integrate(s, 5.0, 1e-3, threshold=1e9).blowup
    assert b6 is not None and b9 is not None
    t6, t9 = b6.time, b9.time
    assert abs(t6 - t9) / t9 < 0.01
    ok(9, f"drift below 1e-8 for n=3,4; blow-up at {t9:.6f} stable to "
          f"{abs(t6 - t9) / t9:.2e} across thresholds")


def test_criterion_10_conjectured_betti_cross_check():
    groups = homology_of(build_chain_complex(group("A", 3)))
    value = conjectured_betti(3, 2)
    assert value == groups[2].free_rank
    from todatopo.cli import _betti_table

    rows = {r["k"]: r for r in _betti_table(3)}
    assert rows[2]["value"] == value
    assert rows[2]["conjecture"] is True
    assert rows[1]["conjecture"] is False
    ok(10, f"whisker-sum betti_2 = {value} matches the rank-3 cellular complex, flagged")
