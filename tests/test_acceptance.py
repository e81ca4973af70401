"""Acceptance criteria, one test per criterion, all exact (zero tolerance).

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failure). Time budgets are asserted where stated.
"""

import time

import pytest

from mindeg.cascade import cascade_roots, full_cascade, is_sos
from mindeg.curve_nbhd import (
    borel, curve_neighborhood_element, is_p_cosmall, minimal_degrees,
    point_class_degree,
)
from mindeg.exceptions import ExceptionalCaseError
from mindeg.parabolic import Parabolic, c1_pairing, dim_x
from mindeg.root_system import bilinear, build_root_system, coroot_pairing
from mindeg.report import (
    default_types, emit, join_rows, predictions_confirmed, run_sweep, sweep_rows,
)
from mindeg.tangent_directions import (
    VERDICT_ONLY_AUT_X, coroot_pairing_bound_holds, key_inequality,
    pair_map_is_injective, quasi_homogeneity_verdict, tangent_direction_sets,
    weighted_pair_count_identity_holds,
)
from mindeg.weyl import center_elements, longest_element

from oracles import all_parabolics, simple_root_center

RANK5_TYPES = default_types(5)  # A1-A5, B2-B5, C2-C5, D3-D5, F4, G2
RANK4_TYPES = [t for t in RANK5_TYPES if t.rank <= 4]
RANK6_TYPES = default_types(6)


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def sweep_cases(types):
    for t in types:
        rs = build_root_system(str(t))
        for p in all_parabolics(rs):
            for d in minimal_degrees(p):
                yield p, d


def test_criterion_1_exceptional_case_exact_numbers():
    start = time.monotonic()
    g2 = build_root_system("G2")
    p = Parabolic(g2, frozenset({2}))
    d = point_class_degree(p)
    sets = tangent_direction_sets(p, d)
    rep = key_inequality(p, d)
    ok = (
        d == (2,)
        and {r.coeffs for r in sets.td} == {(-1, 0), (-1, -1), (-3, -2)}
        and [r.coeffs for r in sets.td_tilde] == [(-3, -1)]
        and c1_pairing(p, d) == 10
        and curve_neighborhood_element(p, d).length == 5
        and (rep.lhs, rep.rhs, rep.holds, rep.exception) == (5, 4, False, True)
    )
    elapsed = time.monotonic() - start
    _report(1, "exceptional-case-exact-numbers", ok and elapsed < 1.0,
            f"lhs={rep.lhs} rhs={rep.rhs} in {elapsed:.3f}s")


def test_criterion_2_key_inequality_sweep():
    start = time.monotonic()
    reports = run_sweep(RANK5_TYPES)
    violations = [r for r in reports if not r.exception and not r.holds]
    exceptions = [r for r in reports if r.exception]
    ok = (not violations
          and len(exceptions) == 1
          and not exceptions[0].holds
          and exceptions[0].type == "G2"
          and predictions_confirmed(reports))  # with lhs == rhs off the exception
    elapsed = time.monotonic() - start
    _report(2, "key-inequality-sweep", ok and elapsed < 600.0,
            f"{len(reports)} cases, {len(violations)} violations in {elapsed:.1f}s")


def test_criterion_3_verdict_dimension_witness():
    g2 = build_root_system("G2")
    p = Parabolic(g2, frozenset({2}))
    d = point_class_degree(p)
    v = quasi_homogeneity_verdict(p, d)
    ok = (v.kind == VERDICT_ONLY_AUT_X
          and v.moduli_dim == c1_pairing(p, d) + dim_x(p) == 15
          and v.group_dim == 14)
    _report(3, "verdict-dimension-witness", ok,
            f"moduli={v.moduli_dim} group={v.group_dim}")


def test_criterion_4_cascade_size_table():
    expected = {f"B{l}": l for l in (2, 4, 6)}
    expected.update({f"C{l}": l for l in range(2, 7)})
    expected["F4"] = 4
    got = {label: len(full_cascade(build_root_system(label))) for label in expected}
    ok = got == expected
    _report(4, "cascade-size-table", ok, f"{got}")


def test_criterion_5_cascades_orthogonal_and_negated():
    bad = []
    for t in default_types(5):
        rs = build_root_system(str(t))
        b = borel(rs)
        for e in minimal_degrees(b):
            casc = cascade_roots(rs, e)
            z = curve_neighborhood_element(b, e)
            if not is_sos(casc):
                bad.append((str(t), e, "not-sos"))
            for a in casc:
                if z.apply(a).coeffs != tuple(-c for c in a.coeffs):
                    bad.append((str(t), e, a.coeffs))
    _report(5, "cascade-strong-orthogonality", not bad, f"violations={bad}")


def test_criterion_6_lemma_suite():
    failures = []

    # center of the Weyl group against brute force over W, rank <= 6
    for t in RANK6_TYPES:
        rs = build_root_system(str(t))
        if center_elements(rs) != simple_root_center(rs):
            failures.append(("center", str(t)))
        w0 = longest_element(rs)
        minus_one = all(w0.apply(b).coeffs == tuple(-c for c in b.coeffs)
                        for b in rs.simple_roots)
        if (w0 in center_elements(rs)) != minus_one:
            failures.append(("center-iff", str(t)))

    # associated-pair items, bijection counts, injectivity, count identity,
    # pairing bound: every parabolic and minimal degree at rank <= 4
    for p, d in sweep_cases(RANK4_TYPES):
        try:
            sets = tangent_direction_sets(p, d)  # asserts the pair items
        except Exception as exc:  # noqa: BLE001 - recorded as a failure
            failures.append(("pair-items", str(p), d, repr(exc)))
            continue
        if len(sets.td_tilde) != len(sets.strong_pairs):
            failures.append(("bijection", str(p), d))
        if set(sets.td) & set(sets.td_tilde):
            failures.append(("disjoint", str(p), d))
        if not pair_map_is_injective(p, d):
            failures.append(("injectivity", str(p), d))
        if not weighted_pair_count_identity_holds(p, d):
            failures.append(("count-identity", str(p), d))
        try:
            if not coroot_pairing_bound_holds(p, d):
                failures.append(("pairing-bound", str(p), d))
        except ExceptionalCaseError as exc:
            witness_vals = {v for (_, _, v) in exc.witness}
            if witness_vals != {-3}:
                failures.append(("exception-witness", str(p), d, witness_vals))

    # exactly one case may raise the exceptional bound failure
    g2 = build_root_system("G2")
    p1 = Parabolic(g2, frozenset({2}))
    with pytest.raises(ExceptionalCaseError):
        coroot_pairing_bound_holds(p1, (2,))

    # P-cosmall pairings land in {0, 1}: exhaustive at rank <= 4
    for t in RANK4_TYPES:
        rs = build_root_system(str(t))
        for p in all_parabolics(rs):
            for a in rs.positive_roots:
                if is_p_cosmall(p, a):
                    for g in p.levi_positive:
                        if coroot_pairing(g, a) not in (0, 1):
                            failures.append(("cosmall-pairing", str(p), a.coeffs))

    # positive triples with two pairings below -1 have positive product
    # (all-roots form is false, see the decisions ledger; B2 gives
    # gamma=-e1-e2, a1=e1, a2=e2)
    for t in RANK4_TYPES:
        rs = build_root_system(str(t))
        for g in rs.positive_roots:
            strong = [a for a in rs.positive_roots if coroot_pairing(g, a) < -1]
            for a1 in strong:
                for a2 in strong:
                    if bilinear(a1, a2) <= 0:
                        failures.append(("orth-lemma", str(t), g.coeffs))

    _report(6, "lemma-suite", not failures, f"failures={failures[:5]}")


def test_criterion_7_so7_model_suite():
    from mindeg.so7 import run_appendix_checks
    start = time.monotonic()
    results = run_appendix_checks()
    elapsed = time.monotonic() - start
    bad = [r.check_name for r in results if not r.passed]
    _report(7, "so7-matrix-model-suite", not bad and elapsed < 10.0,
            f"{len(results)} checks, failures={bad}, {elapsed:.2f}s")


def _swept(types, fmt: str, workers: int) -> tuple[str, bool]:
    """The document `mindeg sweep` writes of types in fmt under workers, and
    whether every case confirmed its predictions."""
    cases = list(sweep_rows(types, fmt, workers))
    return "".join(join_rows([rows for rows, _ in cases], fmt)), all(ok for _, ok in cases)


def test_criterion_8_sweep_determinism():
    types = default_types(3)
    base = emit(run_sweep(types), "json")
    ok = all(_swept(types, "json", workers) == (base, True) for workers in (1, 2, 4))
    full, confirmed = _swept(RANK5_TYPES, "csv", 2)
    ok = ok and confirmed and full == emit(run_sweep(RANK5_TYPES), "csv")
    _report(8, "sweep-determinism", ok, "1 vs 2 vs 4 workers byte-identical")
