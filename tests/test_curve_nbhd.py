import functools
import gc
import hashlib
import itertools
import math
import weakref
from fractions import Fraction

import pytest

from mindeg import curve_nbhd, report, root_system, weyl
from mindeg.cascade import cascade_roots, minimal_degree_records
from mindeg.cli import main
from mindeg.curve_nbhd import (
    borel, curve_neighborhood_element, greedy_decomposition, is_minimal_degree,
    is_p_cosmall, lifting, maximal_roots, minimal_degrees, point_class_degree,
)
from mindeg.exceptions import (
    ConsistencyError, InvalidDegreeError, LiftingNotUniqueError, NotMinimalDegreeError,
    ResourceGuardError,
)
from mindeg.parabolic import Parabolic, project_coroot
from mindeg.report import all_parabolic_subsets, default_types
from mindeg.root_system import RootSystem, SimpleType, build_root_system
from mindeg.tangent_directions import (
    coroot_pairing_bound_holds, is_exceptional_triple, key_inequality, pair_map_is_injective,
    quasi_homogeneity_verdict, weighted_pair_count_identity_holds,
)
from mindeg.weyl import bruhat_leq, compose, identity, longest_element, simple_reflection

from oracles import (
    all_parabolics, box_scan_is_minimal_degree, box_scan_minimal_degrees,
    box_scan_point_class_degree, certified_box_scan_minimal_degrees, degree_leq,
    full_scan_minimal, hecke_curve_neighborhood_element, is_descent,
    is_maximal_coset_representative, letter_by_letter_z_d, linear_scan_lifting,
    minimal_coset_representative, pairwise_maximal_roots, per_parabolic_maximal_roots,
    stripping_reduced_word, unit_edge_minimal_degrees, unpruned_borel_minimal,
)

ORACLE_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                "D3", "D4", "G2"]


def test_maximal_roots_examples(g2):
    p1 = Parabolic(g2, frozenset({2}))
    cands = [a for a in g2.positive_roots
             if p1.outside_levi(a) and degree_leq(project_coroot(p1, a), (1,))]
    assert len(cands) == 4
    assert [r.coeffs for r in maximal_roots(p1, (1,))] == [(3, 2)]
    assert maximal_roots(p1, (0,)) == ()
    a1 = build_root_system("A1")
    assert [r.coeffs for r in maximal_roots(borel(a1), (1,))] == [(1,)]


def test_greedy_examples(g2):
    a1 = build_root_system("A1")
    assert greedy_decomposition(borel(a1), (0,)) == ()
    assert [r.coeffs for r in greedy_decomposition(borel(a1), (2,))] == [(1,), (1,)]
    assert [r.coeffs for r in greedy_decomposition(borel(g2), (2, 2))] == [(3, 2), (1, 0)]


def _greedy_multisets(p, d):
    """Every greedy decomposition as a sorted multiset, over all choices."""
    if not any(d):
        return {()}
    out = set()
    for alpha in maximal_roots(p, d):
        rest = tuple(x - y for x, y in zip(d, project_coroot(p, alpha)))
        for tail in _greedy_multisets(p, rest):
            out.add(tuple(sorted(tail + (alpha.coeffs,))))
    return out


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "G2"])
def test_greedy_unique_up_to_reordering(label):
    rs = build_root_system(label)
    for p in all_parabolics(rs):
        top = point_class_degree(p)
        ranges = [range(2 * c + 1) for c in top]
        for d in itertools.product(*ranges):
            expected = tuple(sorted(r.coeffs for r in greedy_decomposition(p, d)))
            assert _greedy_multisets(p, d) == {expected}


def _greedy_sequences(p, d):
    """Every greedy decomposition as an ordered sequence, over all choices."""
    if not any(d):
        return [()]
    out = []
    for alpha in maximal_roots(p, d):
        rest = tuple(x - y for x, y in zip(d, project_coroot(p, alpha)))
        out.extend((alpha,) + tail for tail in _greedy_sequences(p, rest))
    return out


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "B3", "G2"])
def test_z_independent_of_greedy_ordering(label):
    from mindeg.weyl import hecke_product, reflection
    rs = build_root_system(label)
    for p in all_parabolics(rs):
        top = point_class_degree(p)
        for d in itertools.product(*(range(c + 1) for c in top)):
            expected = curve_neighborhood_element(p, d)
            for seq in _greedy_sequences(p, d):
                acc = identity(rs)
                for alpha in seq:
                    acc = hecke_product(acc, reflection(rs, alpha))
                acc = hecke_product(acc, p.w_p)
                assert minimal_coset_representative(acc, p) == expected


def test_p_cosmall_examples(g2):
    b = borel(g2)
    assert is_p_cosmall(b, g2.root((3, 2)))
    assert is_p_cosmall(b, g2.root((1, 0)))
    assert not is_p_cosmall(b, g2.root((2, 1)))


def test_curve_neighborhood_element_examples(g2):
    p1 = Parabolic(g2, frozenset({2}))
    assert curve_neighborhood_element(p1, (0,)) == identity(g2)
    assert curve_neighborhood_element(p1, (2,)).length == 5
    assert curve_neighborhood_element(borel(g2), (2, 2)) == longest_element(g2)


def test_is_minimal_degree_examples(g2):
    p1 = Parabolic(g2, frozenset({2}))
    assert is_minimal_degree(p1, (0,))
    assert is_minimal_degree(p1, (2,))
    a1 = build_root_system("A1")
    assert not is_minimal_degree(borel(a1), (2,))


def test_minimal_degrees_examples(g2):
    a1 = build_root_system("A1")
    assert minimal_degrees(borel(a1)) == ((0,), (1,))
    recs = minimal_degree_records(borel(a1))
    assert recs[0].z == identity(a1)
    assert recs[1].z.length == 1
    p1 = Parabolic(g2, frozenset({2}))
    assert (2,) in minimal_degrees(p1)
    point = Parabolic(g2, frozenset({1, 2}))
    assert minimal_degrees(point) == ((),)


def test_point_class_degree_examples(g2, b3):
    assert point_class_degree(Parabolic(g2, frozenset({2}))) == (2,)
    a1 = build_root_system("A1")
    assert point_class_degree(borel(a1)) == (1,)
    assert point_class_degree(borel(g2)) == (2, 2)
    assert point_class_degree(Parabolic(b3, frozenset({2, 3}))) == (2,)
    assert point_class_degree(borel(b3)) == (2, 2, 2)


def test_lifting_examples(g2, a2):
    pb = borel(g2)
    assert lifting(pb, (0, 0)) == (0, 0)
    p1 = Parabolic(g2, frozenset({2}))
    assert lifting(p1, (2,)) == (2, 2)
    p = Parabolic(a2, frozenset({2}))
    e = lifting(p, (1,))
    got = curve_neighborhood_element(borel(a2), e)
    want = compose(curve_neighborhood_element(p, (1,)), p.w_p)
    assert got == want
    with pytest.raises(NotMinimalDegreeError):
        lifting(borel(build_root_system("A1")), (2,))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_grassmannian_minimal_degrees_match_classical_values(n):
    # Gr(k, n): the degree joining two general points is min(k, n-k), and
    # every degree below it is minimal
    rs = build_root_system(f"A{n - 1}")
    for k in range(1, n):
        p = Parabolic(rs, frozenset(range(1, n)) - {k})
        expect = min(k, n - k)
        assert point_class_degree(p) == (expect,)
        assert minimal_degrees(p) == tuple((i,) for i in range(expect + 1))


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_odd_quadric_minimal_degrees(l):
    # B_l mod the first maximal parabolic is the quadric of dimension 2l-1:
    # lines appear at degree 1 and two general points need a conic
    rs = build_root_system(f"B{l}")
    p = Parabolic(rs, frozenset(range(2, l + 1)))
    assert point_class_degree(p) == (2,)
    assert minimal_degrees(p) == ((0,), (1,), (2,))


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "G2"])
def test_z_is_monotone_under_degree_order(label):
    rs = build_root_system(label)
    for p in all_parabolics(rs):
        top = point_class_degree(p)
        box = list(itertools.product(*(range(c + 1) for c in top)))
        for d in box:
            zd = curve_neighborhood_element(p, d)
            for e in box:
                if degree_leq(d, e):
                    assert bruhat_leq(zd, curve_neighborhood_element(p, e))


@pytest.mark.parametrize("label", ["F4", "G2"])
def test_z_monotone_spot_checks_above_rank_3(label):
    rs = build_root_system(label)
    p = borel(rs)
    top = point_class_degree(p)
    zs = [curve_neighborhood_element(p, d)
          for d in (tuple(0 for _ in top), tuple(1 for _ in top), top)]
    assert bruhat_leq(zs[0], zs[1]) and bruhat_leq(zs[1], zs[2])


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "D3", "F4", "G2"])
def test_full_flag_z_is_an_involution_on_minimal_degrees(label):
    rs = build_root_system(label)
    b = borel(rs)
    for e in minimal_degrees(b):
        z = curve_neighborhood_element(b, e)
        assert compose(z, z) == identity(rs)


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "B3", "G2"])
def test_lifted_z_is_maximal_in_its_coset(label):
    rs = build_root_system(label)
    b = borel(rs)
    for p in all_parabolics(rs):
        for d in minimal_degrees(p):
            e = lifting(p, d)
            z_e = curve_neighborhood_element(b, e)
            assert is_maximal_coset_representative(z_e, p)


@pytest.mark.parametrize("label", ["A2", "B2", "B3", "G2"])
def test_records_tie_degree_z_lifting_together(label):
    rs = build_root_system(label)
    for p in all_parabolics(rs):
        for rec in minimal_degree_records(p):
            assert curve_neighborhood_element(p, rec.degree) == rec.z
            want = compose(rec.z, p.w_p)
            assert curve_neighborhood_element(borel(rs), rec.lifting) == want
            assert set(rec.cascade) == set(greedy_decomposition(borel(rs), rec.lifting))


@pytest.mark.parametrize("d", [(1,), (1, 1, 1), (1, -1), (1, 0.5), (1, "1")])
@pytest.mark.parametrize("entry", [maximal_roots, greedy_decomposition,
                                   curve_neighborhood_element, is_minimal_degree,
                                   lifting, is_exceptional_triple])
def test_entry_points_reject_malformed_degrees(g2, entry, d):
    with pytest.raises(InvalidDegreeError):
        entry(borel(g2), d)


@pytest.mark.parametrize("bad", [(1.0,), (Fraction(1),), [1]], ids=["float", "fraction", "list"])
@pytest.mark.parametrize("entry", [lifting, curve_neighborhood_element, is_minimal_degree,
                                   quasi_homogeneity_verdict, key_inequality, maximal_roots,
                                   greedy_decomposition, is_exceptional_triple])
def test_a_degree_equal_to_a_cached_one_is_still_refused(entry, bad):
    """After the int query (1,), a degree equal to it but not a tuple of
    ints is refused as in a fresh process, not answered from the memo."""
    p = borel(build_root_system("A1"))
    entry(p, (1,))
    with pytest.raises(InvalidDegreeError):
        entry(p, bad)


@pytest.mark.parametrize("delta_p, d", [((), (True, False)), ((1,), (True,)),
                                        ((), (1, True)), ((2,), (False,))])
@pytest.mark.parametrize("entry", [lifting, curve_neighborhood_element, is_minimal_degree,
                                   quasi_homogeneity_verdict, key_inequality, maximal_roots,
                                   greedy_decomposition, is_exceptional_triple])
def test_bool_degree_coordinates_are_refused(entry, delta_p, d):
    """A bool coordinate equals 0 or 1 but is not an int: every entry point
    refuses it in a fresh system, before any memo or held table is keyed by
    it. lifting(borel(A2), (True, False)) used to return (True, False), and
    on A2 {1}, (True,) lifted to (1, True)."""
    p = Parabolic(_fresh("A2"), frozenset(delta_p))
    with pytest.raises(InvalidDegreeError, match="non-integer coordinate (True|False)"):
        entry(p, d)
    assert "mindeg.curve_nbhd._local_entry" not in vars(p)


def test_bool_degree_coordinates_are_refused_by_cascade_roots():
    with pytest.raises(InvalidDegreeError, match="non-integer coordinate True"):
        cascade_roots(_fresh("A2"), (True, True))


@pytest.mark.parametrize("bad", [(1.0, 1), (Fraction(1), 1), [1, 1]],
                         ids=["float", "fraction", "list"])
def test_cascade_roots_refuses_a_degree_equal_to_a_cached_one(bad):
    rs = build_root_system("A2")
    assert cascade_roots(rs, (1, 1)) == (rs.root((1, 1)),)
    with pytest.raises(InvalidDegreeError):
        cascade_roots(rs, bad)


DEGREE_MEMOS = [maximal_roots, greedy_decomposition, curve_neighborhood_element,
                is_minimal_degree, cascade_roots]


def test_degree_memos_are_their_entry_points():
    """Each memo keyed by a degree is the entry point itself: it stores
    nothing, and its __wrapped__ is the entry point's own body, which checks
    the degree, not a second memo."""
    for entry in DEGREE_MEMOS:
        assert entry.cache_parameters()["maxsize"] == 0, entry.__name__
        assert entry.__wrapped__.__name__ == entry.__name__
        assert not hasattr(entry.__wrapped__, "cache_info"), entry.__name__


@pytest.mark.parametrize("bad", [(1.0,), [1], (True,)], ids=["float", "list", "bool"])
@pytest.mark.parametrize("entry", DEGREE_MEMOS, ids=lambda f: f.__name__)
def test_a_rebound_memo_still_refuses_a_malformed_degree(entry, bad):
    """A fresh memo around __wrapped__, the way perfbench's tracer rebinds a
    memoized function, still refuses, after the int query (1,), a degree
    equal to it but not a tuple of ints: the check is in the body it wraps.
    Over a wrapper that checked before the memo, the rebound is_minimal_degree,
    curve_neighborhood_element and cascade_roots answered (1.0,)."""
    rebound = functools.lru_cache(**entry.cache_parameters())(entry.__wrapped__)
    rs = build_root_system("A1")
    x = rs if entry is cascade_roots else borel(rs)
    rebound(x, (1,))
    with pytest.raises(InvalidDegreeError):
        rebound(x, bad)


@pytest.mark.parametrize("label", ORACLE_TYPES)
def test_maximal_roots_match_pairwise_scan(label):
    rs = build_root_system(label)
    for p in all_parabolics(rs):
        top = point_class_degree(p)
        for d in itertools.product(*(range(c + 2) for c in top)):
            assert maximal_roots(p, d) == pairwise_maximal_roots(p, d), (p, d)


@pytest.mark.parametrize("label", ORACLE_TYPES + ["F4"])
def test_maximal_roots_match_per_parabolic_table(label):
    """The slice of the one root table per system agrees with a table built
    for each parabolic, on every minimal degree and each unit step below it."""
    rs = build_root_system(label)
    for p in all_parabolics(rs):
        for d in minimal_degrees(p):
            below = [d[:i] + (c - 1,) + d[i + 1:] for i, c in enumerate(d) if c]
            for e in [d, *below]:
                assert maximal_roots(p, e) == per_parabolic_maximal_roots(p, e), (p, e)


@pytest.mark.parametrize("label", ORACLE_TYPES)
def test_unit_edge_minimality_matches_box_scan(label):
    rs = build_root_system(label)
    full_flag = box_scan_minimal_degrees(borel(rs))
    for p in all_parabolics(rs):
        found = minimal_degrees(p)
        assert found == box_scan_minimal_degrees(p), p
        top = point_class_degree(p)
        for d in itertools.product(*(range(c + 2) for c in top)):
            assert is_minimal_degree(p, d) == box_scan_is_minimal_degree(p, d), (p, d)
        for d in found:
            assert lifting(p, d) == linear_scan_lifting(p, d, full_flag), (p, d)


@pytest.mark.parametrize("label", ["A5", "B5", "C5", "D5", "F4"])
def test_enumeration_matches_certified_box_scan(label):
    rs = build_root_system(label)
    full_flag = certified_box_scan_minimal_degrees(borel(rs))
    for p in all_parabolics(rs):
        found = minimal_degrees(p)
        assert found == certified_box_scan_minimal_degrees(p), p
        assert point_class_degree(p) == box_scan_point_class_degree(p), p
        for d in found:
            assert lifting(p, d) == linear_scan_lifting(p, d, full_flag), (p, d)


def _fresh(label):
    """A root system of the test's own, built past the interning table of
    build_root_system: its tables, and every memo entry keyed by it, start
    cold, and the faults a test injects stay in them, away from the shared
    system of the same type."""
    return RootSystem(SimpleType.parse(label))


def _read_z_as(real, swaps):
    """z with the degrees in swaps read as other degrees."""
    def fake_z(q, d):
        return real(q, swaps.get(d, d))
    return fake_z


def _reversed(real, top):
    def reversed_z(q, d):
        # z read backwards along the box: z_0 becomes w_o, z_top the identity
        return real(q, tuple(t - c for t, c in zip(top, d)))
    return reversed_z


def _equal_length_swap(real, top):
    # z_(0,0) read as z_(0,1) = s2: the edge up to z_(1,0) = s1 then joins two
    # unequal elements of one length
    return _read_z_as(real, {(0, 0): (0, 1)})


# A2/B, whose point-class degree is (1, 1). The enumeration takes each z from
# its parent's by one Hecke step, unless the z table _z_pairs already holds
# it, and reads the z's of the unit-edge test through _z_pair.
A2_TOP = (1, 1)


def test_non_monotone_z_is_a_consistency_error(monkeypatch):
    p = borel(_fresh("A2"))
    monkeypatch.setattr(curve_nbhd, "_z_pair", _reversed(curve_nbhd._z_pair, A2_TOP))
    with pytest.raises(ConsistencyError,
                       match=r"not monotone.*: z_\(0, 0\) is not below z_\(1, 0\)"):
        is_minimal_degree(p, A2_TOP)


@pytest.mark.parametrize("fake", [_reversed, _equal_length_swap])
def test_a_failed_pair_is_never_remembered(monkeypatch, fake):
    p = borel(_fresh("A2"))
    monkeypatch.setattr(curve_nbhd, "_z_pair", fake(curve_nbhd._z_pair, A2_TOP))
    for _ in range(5):  # nothing of a failed enumeration is kept
        with pytest.raises(ConsistencyError, match="not monotone"):
            is_minimal_degree(p, A2_TOP)


def test_length_criterion_disagreeing_with_unit_edges_is_a_consistency_error(monkeypatch):
    # z_(0,0) read as z_(1,0) = s1: (1, 0) passes the length criterion from
    # z_0 = 1, but its unit edge down to (0, 0) then reaches the same z
    monkeypatch.setattr(curve_nbhd, "_z_pair",
                        _read_z_as(curve_nbhd._z_pair, {(0, 0): (1, 0)}))
    with pytest.raises(ConsistencyError, match="length criterion"):
        minimal_degrees(borel(_fresh("A2")))


@pytest.mark.parametrize("swaps, reach", [({(1, 1): (1, 0)}, 0), ({(0, 1): (1, 0)}, 2)])
def test_exactly_one_degree_reaches_the_longest_coset(monkeypatch, swaps, reach):
    # z_(1,1) read as s1 leaves no degree at w_o; z_(0,1) read as s1, with s1
    # taken for the longest element, puts two degrees there. The wrong z's
    # are written into the z table, where the enumeration finds them. The
    # check runs on the table build: without a table, point_class_degree
    # checks the cascade degree locally
    # (test_local_point_class_degree_checks_its_result).
    b = borel(_fresh("A2"))
    table = curve_nbhd._z_pairs(b)
    for d, source in swaps.items():
        table[d] = curve_nbhd._z_pair(b, source)
    if reach == 2:
        monkeypatch.setattr(curve_nbhd, "longest_element", lambda rs: simple_reflection(rs, 0))
    with pytest.raises(ConsistencyError, match=f"{reach} minimal degrees .* longest coset"):
        minimal_degrees(b)


def _with_a2_degree_2_0(real):
    """The search real, whose table gains the A2/B degree (2, 0), which is
    not minimal, with its z and the cascade mask its greedy chain gives."""
    return lambda b: {**real(b), (2, 0): (curve_neighborhood_element(b, (2, 0)),
                                          curve_nbhd._cascade_mask(b, (2, 0)))}


def test_projections_failing_the_unit_edge_test_are_dropped(monkeypatch):
    # On P^2 (A2, Delta_P = {2}) the full-flag degree (2, 0), which is not
    # minimal, projects to (2), whose z equals z_(1): the unit-edge oracle
    # drops the projection
    monkeypatch.setattr(curve_nbhd, "_borel_minimal", _with_a2_degree_2_0(curve_nbhd._borel_minimal))
    assert sorted(unit_edge_minimal_degrees(Parabolic(_fresh("A2"), frozenset({2})))) == [(0,), (1,)]


def test_projection_without_a_coset_maximal_preimage_is_a_consistency_error(monkeypatch):
    # the same (2, 0): z_(2,0) = s1 lacks the descent s2, so no preimage of
    # (2) is longest in its coset, which no true full-flag minimal degree has
    # produced on any parabolic through E8
    monkeypatch.setattr(curve_nbhd, "_borel_minimal", _with_a2_degree_2_0(curve_nbhd._borel_minimal))
    with pytest.raises(ConsistencyError, match="longest in its coset projects to \\(2,\\)"):
        minimal_degrees(Parabolic(_fresh("A2"), frozenset({2})))


def test_two_coset_maximal_preimages_are_refused(monkeypatch):
    # a fake full-flag degree (1, 5) with z = s1 s2, which has the descent s2,
    # projects to (1) like (1, 1), whose z = w_o has it too
    a2 = _fresh("A2")
    real = curve_nbhd._borel_minimal
    s1s2 = compose(simple_reflection(a2, 0), simple_reflection(a2, 1))
    # its cascade mask, the empty one, plays no part in the check
    monkeypatch.setattr(curve_nbhd, "_borel_minimal", lambda b: {**real(b), (1, 5): (s1s2, 0)})
    with pytest.raises(LiftingNotUniqueError, match="\\(1,\\) lifts to each of"):
        minimal_degrees(Parabolic(a2, frozenset({2})))


def test_z_d_with_a_descent_in_delta_p_is_a_consistency_error(monkeypatch):
    # z_d read as z_e itself, the longest element of its coset, keeps the
    # descent s2 that z_e * w_P must lose
    monkeypatch.setattr(curve_nbhd, "right_multiplier", lambda v: lambda u, length: u)
    with pytest.raises(ConsistencyError,
                       match="z_\\(1,\\) = z_\\(1, 1\\) \\* w_P .* not in W\\^P"):
        minimal_degrees(Parabolic(_fresh("A2"), frozenset({2})))


@pytest.mark.parametrize("label", ["G2", "B3", "C3", "F4", "B5", "D5", "E6"])
def test_table_matches_the_scan_of_every_full_flag_degree(label):
    """On every P != B, the table read off the descent groups whose mask
    contains Delta_P has the entries (z_d, e), with the length carried by
    z_d, and the point-class degree of the scan of every full-flag minimal
    degree, whose z_d count their inversions; each entry carries the
    cascade mask of e's G/B entry."""
    rs = build_root_system(label)
    for p in all_parabolics(rs):
        if p.positions:
            got, (want, want_top) = curve_nbhd._minimal(p)[0], full_scan_minimal(p)
            assert _table_point_class(p) == want_top, p
            assert ({d: (z, z.length, e) for d, (z, e, _) in got.items()}
                    == {d: (z, z.length, e) for d, (z, e) in want.items()}), p
            full = curve_nbhd._minimal(borel(rs))[0]
            assert all(cascade == full[e][2] for _, e, cascade in got.values()), p


@pytest.mark.parametrize("label", ["G2", "B3", "C3", "F4", "B5", "D5", "E6"])
def test_descent_groups_partition_the_full_flag_table(label):
    """The groups of the G/B entry hold each full-flag minimal degree once,
    with its z, under the mask of exactly the right descents of that z."""
    rs = build_root_system(label)
    full, groups = curve_nbhd._minimal(borel(rs))
    grouped = [(e, (z, cascade)) for entries in groups.values() for e, z, cascade in entries]
    assert len(grouped) == len(full)
    assert dict(grouped) == {e: (z, cascade) for e, (z, _, cascade) in full.items()}
    for mask, entries in groups.items():
        for e, z, _ in entries:
            assert mask == sum(1 << i for i in range(rs.rank) if is_descent(z, i)), e


@pytest.mark.parametrize("label", ["B4", "F4", "E6"])
def test_z_d_matches_the_letter_by_letter_product(label):
    """Each z_d of the table, one product z_e * w_P with the length
    l(z_e) - l(w_P), equals z_e times w_P one letter at a time, with the
    length mul_gen carries, on every parabolic."""
    rs = build_root_system(label)
    full = curve_nbhd._minimal(borel(rs))[0]
    for p in all_parabolics(rs):
        for d, (z, e, _) in curve_nbhd._minimal(p)[0].items():
            want = letter_by_letter_z_d(p, full[e][0])
            assert (z, z.length) == (want, want.length), (p, d)


def test_reduced_word_matches_the_stripping_loop_on_the_e6_sweep():
    rs = build_root_system("E6")
    for p in all_parabolics(rs):
        for d, (z, _, _) in curve_nbhd._minimal(p)[0].items():
            assert weyl.reduced_word(z) == stripping_reduced_word(z), (p, d)


@pytest.mark.parametrize("label", ["B6", "D6"])
def test_enumeration_never_visits_the_box(label):
    p = borel(_fresh(label))
    top = point_class_degree(p)
    computed = len(curve_nbhd._z_pairs(p))  # every degree whose z was computed
    # the box below top holds 6,300 (B6) and 3,600 (D6) degrees, and the
    # box scan with its frontier computed 15,495 and 9,240 z's
    assert 3 * computed < math.prod(c + 1 for c in top)


@pytest.mark.parametrize("label", ORACLE_TYPES + ["F4"])
def test_recursion_matches_whole_hecke_product(label):
    rs = build_root_system(label)
    for p in all_parabolics(rs):
        top = point_class_degree(p)
        for d in itertools.product(*(range(c + 2) for c in top)):
            assert curve_neighborhood_element(p, d) == hecke_curve_neighborhood_element(p, d), (p, d)


def test_z_is_computed_without_whole_products(monkeypatch):
    def forbidden(*args):
        raise AssertionError("called")

    for name in ("greedy_decomposition", "compose"):
        monkeypatch.setattr(curve_nbhd, name, forbidden)
    monkeypatch.setattr(weyl, "hecke_product", forbidden)
    for p in all_parabolics(_fresh("B3")):
        for d in itertools.product(*(range(3) for _ in p.quotient_positions)):
            curve_neighborhood_element(p, d)


def test_action_ignoring_delta_p_is_a_consistency_error(monkeypatch):
    real = curve_nbhd.hecke_reflection_on_coset

    def without_levi(z, z_inv, alpha, positions):
        return real(z, z_inv, alpha, ())

    monkeypatch.setattr(curve_nbhd, "hecke_reflection_on_coset", without_levi)
    p = Parabolic(_fresh("B3"), frozenset({2}))
    with pytest.raises(ConsistencyError, match="not in W\\^P"):
        for d in itertools.product(range(3), repeat=2):
            curve_neighborhood_element(p, d)


def test_enumeration_guard_counts_accepted_degrees(monkeypatch, capsys):
    rs = _fresh("A7")
    p = borel(rs)  # 323 minimal degrees, 128 of them 0/1
    monkeypatch.setattr(curve_nbhd, "_MAX_BOREL_DEGREES", 200)
    with pytest.raises(ResourceGuardError, match="more than 200 full-flag minimal degrees"):
        minimal_degrees(p)
    refused = len(curve_nbhd._z_pairs(p))
    monkeypatch.setattr(root_system, "_build", lambda t: rs)  # the CLI reads rs
    assert main(["minimal-degrees", "A7"]) == 2  # a table build; a query is local
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    monkeypatch.setattr(curve_nbhd, "_MAX_BOREL_DEGREES", 322)
    with pytest.raises(ResourceGuardError):
        minimal_degrees(p)
    monkeypatch.setattr(curve_nbhd, "_MAX_BOREL_DEGREES", 323)
    assert len(minimal_degrees(p)) == 323
    assert 2 * refused < len(curve_nbhd._z_pairs(p))  # the refusal stopped early


@pytest.mark.parametrize("label", ["A5", "B5", "C5", "D5", "E6", "F4", "G2"])
def test_every_0_1_degree_is_minimal(label):
    rs = build_root_system(label)
    assert set(itertools.product((0, 1), repeat=rs.rank)) <= set(minimal_degrees(borel(rs)))


def test_enumeration_guard_refuses_at_once_when_the_0_1_degrees_pass_it(monkeypatch):
    p = borel(_fresh("A7"))
    monkeypatch.setattr(curve_nbhd, "_MAX_BOREL_DEGREES", 127)
    with pytest.raises(ResourceGuardError, match="at least 128 full-flag minimal degrees"):
        minimal_degrees(p)
    assert len(curve_nbhd._z_pairs(p)) == 1  # only z_0: nothing was searched


def test_enumeration_guard_admits_e8_and_refuses_a11():
    # full-flag minimal degrees, counted by the enumeration with the cap lifted;
    # A10 is the largest G/B the box scan answered
    counts = {"E7": 970, "E8": 4_474, "D9": 5_293, "A10": 5_798, "C9": 6_046,
              "B9": 7_101, "A11": 15_511}
    admitted = {t for t, n in counts.items() if n <= curve_nbhd._MAX_BOREL_DEGREES}
    assert admitted == {"E7", "E8", "D9", "A10"}
    assert 2 ** 8 <= curve_nbhd._MAX_BOREL_DEGREES  # E8 is not refused at once
    with pytest.raises(ResourceGuardError, match="A13 has at least 8192"):
        minimal_degrees(borel(_fresh("A13")))


def test_long_greedy_chain_does_not_exhaust_the_stack():
    # greedy((5000,)) on A1 is 5000 copies of the simple root
    p = borel(_fresh("A1"))
    assert curve_neighborhood_element(p, (5000,)).length == 1


def _labels(max_rank, *extra):
    return [str(t) for t in default_types(max_rank)] + list(extra)


@pytest.mark.parametrize("label", _labels(6, "E7"))
def test_pruned_search_matches_unpruned_search(label):
    """Trying only the children through the roots j <= j0 accepts the same
    degrees, with the same z, as trying every child."""
    b = borel(build_root_system(label))
    assert {d: z for d, (z, _) in curve_nbhd._borel_minimal(b).items()} == unpruned_borel_minimal(b)


def test_refused_children_are_not_stored():
    """A child whose Hecke step has an idle letter is refused there, and its
    z is not stored: the E6/B z table holds 676 entries, the z's of the 249
    minimal degrees and of the degrees their unit-edge tests read, where
    storing every child tried left 1,194."""
    b = borel(_fresh("E6"))
    curve_nbhd._minimal(b)
    assert len(curve_nbhd._z_pairs(b)) < 700


@pytest.mark.parametrize("label", _labels(4, "F4", "E6"))
def test_first_greedy_children_match_the_fitting_mask_per_child(label):
    """The bit-field test of the search takes alpha_j for d + alpha_j^vee
    exactly when no root before alpha_j fits below it, for every degree of
    a box and every j0."""
    b = borel(build_root_system(label))
    _, fits, _, _, coroots = curve_nbhd._root_table(b)
    fields = curve_nbhd._child_fields(fits, coroots)
    n = len(coroots)
    for d in itertools.product(range(5), repeat=min(b.system.rank, 4)):
        d += (1,) * (b.system.rank - len(d))
        want = [j for j in range(n)
                if not curve_nbhd._fitting(fits, tuple(x + y for x, y in zip(d, coroots[j])),
                                           (1 << j) - 1)]
        for j0 in (n - 1, n // 2, 0):
            got = list(curve_nbhd._first_greedy_children(fields, d, j0))
            assert got == [j for j in want if j <= j0], (label, d, j0)


@pytest.mark.parametrize("label", _labels(5))
def test_greedy_step_takes_the_first_maximal_root(label):
    rs = build_root_system(label)
    for p in all_parabolics(rs):
        minimal_degrees(p)
        roots = curve_nbhd._root_table(p)[0]
        for d in list(curve_nbhd._z_pairs(p)):  # every degree whose z was computed
            if not any(d):
                continue
            j, rest = curve_nbhd._greedy_step(p, d)
            alpha = maximal_roots(p, d)[0]
            assert roots[j] is alpha, (p, d)
            assert rest == tuple(x - y for x, y in zip(d, project_coroot(p, alpha))), (p, d)


@pytest.mark.parametrize("label", _labels(6, "E7", "E8"))
def test_table_coroots_match_project_coroot(label):
    """The projected coroots read off the integer coroot table equal the
    Fraction-based expansion of project_coroot, on every root and parabolic."""
    rs = build_root_system(label)
    for p in all_parabolics(rs):
        roots, _, _, _, coroots = curve_nbhd._root_table(p)
        assert coroots == tuple(project_coroot.__wrapped__(p, a) for a in roots), p


def test_e7_full_flag_minimal_degrees_are_pinned():
    # as the full-flag search without the j <= j0 prune computed them
    found = minimal_degrees(borel(build_root_system("E7")))
    assert len(found) == 970
    assert hashlib.sha256(repr(found).encode()).hexdigest() == (
        "4a5c6d03fafba38ce7697b83d527b9c82f50f65b1e6f64bf448dc6c8816a61fc")


@pytest.mark.parametrize("label", _labels(6))
def test_table_matches_the_unit_edge_oracle(label):
    """The degrees, z's and liftings read off the full-flag set equal those of
    projection and the unit-edge test, and each z equals the whole Hecke
    product of its greedy decomposition."""
    rs = build_root_system(label)
    for p in all_parabolics(rs):
        table = curve_nbhd._minimal(p)[0]
        assert {d: (z, e) for d, (z, e, _) in table.items()} == unit_edge_minimal_degrees(p), p
        for d, (z, e, _) in table.items():
            assert z == hecke_curve_neighborhood_element(p, d), (p, d)
            assert z.length == len(weyl.inversion_set(z)), (p, d)
            assert lifting(p, d) == e, (p, d)


def test_e6_records_and_inequalities_walk_no_g_p_chain():
    """On every P != B of E6 the records and the key inequality read z_d off
    the table: no G/P Hecke walk computes a z beyond z_0."""
    rs = _fresh("E6")
    for delta_p in all_parabolic_subsets(6)[1:]:
        p = Parabolic(rs, frozenset(delta_p))
        for rec in minimal_degree_records(p):
            key_inequality(p, rec.degree)
        assert list(curve_nbhd._z_pairs(p)) == [p.zero_degree], p


@pytest.mark.parametrize("label", _labels(5, "E6"))
def test_sweep_rows_count_every_minimal_degree_of_every_parabolic(label):
    rs = build_root_system(label)
    assert curve_nbhd._sweep_rows(rs) == sum(len(minimal_degrees(p)) for p in all_parabolics(rs))


def test_a_parabolic_frees_the_tables_it_holds():
    """The tables p holds keep no reference to p: with nothing else holding
    it, p is freed with its root-table slice, z table and G/P table."""
    rs = build_root_system("E6")
    p = Parabolic(rs, frozenset({2, 4}))
    assert minimal_degrees(p)
    curve_nbhd._z_pair(p, point_class_degree(p))  # curve_neighborhood_element, unmemoized
    held = {f"mindeg.curve_nbhd.{f}" for f in ("_root_table", "_z_pairs", "_minimal")}
    assert held <= set(vars(p))
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("write", [lambda: report.case_rows("E6", (2, 4), "json")[0],
                                   lambda: report.case_reports("E6", (2, 4))],
                         ids=["case_rows", "case_reports"])
def test_a_sweep_case_frees_its_parabolic_and_tables(write):
    """Once a case's rows are written, nothing keeps its Parabolic: the
    memos keyed by a parabolic store no entry, and is_minimal_degree still
    counts one miss per row, as perfbench's minimal_yield reads it."""
    memos = [is_minimal_degree, curve_neighborhood_element, maximal_roots,
             greedy_decomposition, project_coroot]
    misses = is_minimal_degree.cache_info().misses
    rows = write()
    assert rows
    gc.collect()
    assert [x for x in gc.get_objects() if isinstance(x, Parabolic)
            and str(x.system.simple_type) == "E6" and x.delta_p == {2, 4}] == []
    for memo in memos:
        info = memo.cache_info()
        assert (info.currsize, info.maxsize) == (0, 0), memo.__name__
    assert is_minimal_degree.cache_info().misses == misses + len(rows)


def test_a_root_system_frees_the_tables_it_holds():
    """The tables a system holds keep no reference to it that outlives it:
    with nothing else holding rs, it is freed with its Weyl tables, its
    Borel and G/B table, its reflections, its longest elements and its word
    texts. (A system build_root_system interns lives as long as the process.)"""
    rs = RootSystem(SimpleType("E", 6))
    assert minimal_degrees(borel(rs)) and minimal_degrees(Parabolic(rs, frozenset({2, 4})))
    assert weyl.word_str(longest_element(rs)) and weyl.word_str(longest_element(rs, {0, 2}))
    assert weyl.reflection(rs, rs.highest_root).length == len(rs.root_data[
        rs.highest_root.coeffs].word)
    held = {f"mindeg.{f}" for f in ("weyl.identity", "weyl._steps", "weyl._longest",
                                    "weyl.reflection", "weyl._word_texts", "curve_nbhd.borel")}
    assert held <= set(vars(rs))
    ref = weakref.ref(rs)
    del rs
    gc.collect()
    assert ref() is None


def test_a_fresh_borel_reads_the_tables_of_borel(monkeypatch):
    """Every Parabolic(rs, frozenset()) reads the G/B state borel(rs) holds:
    it never searches again."""
    rs = build_root_system("A4")
    b = borel(rs)
    minimal_degrees(b)
    calls = []
    real = curve_nbhd._borel_minimal
    monkeypatch.setattr(curve_nbhd, "_borel_minimal", lambda q: calls.append(q) or real(q))
    fresh = Parabolic(rs, frozenset())
    assert fresh is not b
    assert minimal_degrees(fresh) == minimal_degrees(b)
    assert calls == []
    assert curve_nbhd._z_pairs(fresh) is curve_nbhd._z_pairs(b)


def test_held_tells_whether_a_table_is_held():
    """_minimal.holds(p) answers without building; a fresh Parabolic(rs,
    frozenset()) sees the table of borel(rs), which it shares."""
    rs = _fresh("A3")
    p, b = Parabolic(rs, frozenset({2})), borel(rs)
    assert not curve_nbhd._minimal.holds(p) and not curve_nbhd._minimal.holds(b)
    assert "mindeg.curve_nbhd._minimal" not in vars(p)
    minimal_degrees(b)
    assert curve_nbhd._minimal.holds(b) and curve_nbhd._minimal.holds(Parabolic(rs, frozenset()))
    assert not curve_nbhd._minimal.holds(p)
    minimal_degrees(p)
    assert curve_nbhd._minimal.holds(p)


def _query(p, d):
    """Everything a query reports on (p, d), comparable across two systems."""
    ineq = key_inequality(p, d)
    coeffs = lambda roots: tuple([r.coeffs for r in roots])  # noqa: E731
    return (ineq.z.images, ineq.z.length, lifting(p, d), coeffs(ineq.cascade),
            coeffs(ineq.sets.td), coeffs(ineq.sets.td_tilde),
            tuple([(a.coeffs, g.coeffs) for a, g in ineq.sets.strong_pairs]),
            ineq.lhs, ineq.rhs, ineq.holds, ineq.exception,
            quasi_homogeneity_verdict(p, d))


def _table_and_local(label):
    """For each parabolic of label, the pair (p on a system whose tables are
    built, the same p on a fresh system that never builds one)."""
    table, local = _fresh(label), _fresh(label)
    for p in all_parabolics(table):
        minimal_degrees(p)
        yield p, Parabolic(local, p.delta_p)


def _table_point_class(p):
    """The one degree of p's table of minimal degrees whose z is the longest coset."""
    target = compose(longest_element(p.system), p.w_p)
    tops = [d for d, (z, _, _) in curve_nbhd._minimal(p)[0].items() if z == target]
    assert len(tops) == 1, (p, tops)
    return tops[0]


def _holds_no_table(p):
    return not curve_nbhd._minimal.holds(p) and not curve_nbhd._minimal.holds(borel(p.system))


@pytest.mark.parametrize("label", _labels(4))  # G2 and F4 included
def test_local_queries_match_the_table(label):
    """On every parabolic, a query on a system that holds no table answers
    as the table path does: z_d, the lifting, the cascade, both direction
    sets with the strong pairs, lhs, rhs and the verdict; and the
    point-class degree too."""
    for p, q in _table_and_local(label):
        assert point_class_degree(q) == point_class_degree(p), p
        for d in minimal_degrees(p):
            assert _query(q, d) == _query(p, d), (p, d)
        assert _holds_no_table(q), q


@pytest.mark.parametrize("label", ["B3", "F4"])
def test_a_table_built_after_local_queries_is_the_table(label):
    """The z's local queries leave in the z tables are the ones the search
    computes, so a table built afterwards equals that of a fresh system."""
    pairs = list(_table_and_local(label))
    for p, q in pairs:
        for d in minimal_degrees(p):
            key_inequality(q, d)
    for p, q in pairs:
        assert ({d: (z.images, e, c) for d, (z, e, c) in curve_nbhd._minimal(q)[0].items()}
                == {d: (z.images, e, c) for d, (z, e, c) in curve_nbhd._minimal(p)[0].items()}), p


@pytest.mark.parametrize("label", _labels(4))  # G2 and F4 included
def test_local_queries_refuse_what_the_table_refuses(label):
    """In the box up to the point-class degree plus one, the local test
    accepts exactly the table's minimal degrees, and every entry point
    refuses the others on both paths."""
    for p, q in _table_and_local(label):
        table = curve_nbhd._minimal(p)[0]
        top = point_class_degree(p)
        for d in itertools.product(*[range(c + 2) for c in top]):
            assert (curve_nbhd._entry(q, d) is not None) == (d in table), (p, d)
            if d not in table:
                for entry in (key_inequality, lifting, quasi_homogeneity_verdict):
                    for x in (p, q):
                        with pytest.raises(NotMinimalDegreeError):
                            entry(x, d)
        assert _holds_no_table(q), q


def test_a_degree_above_the_bound_is_refused_before_its_chain():
    """A coordinate above the projected cascade degree (_point_class) refuses
    d at once: no z of a degree with that coordinate is computed, and no
    entry is held for it, so p never holds more entries than z's."""
    rs = _fresh("A2")
    p = Parabolic(rs, frozenset())
    with pytest.raises(NotMinimalDegreeError):
        key_inequality(p, (10_000_000, 3))
    assert curve_nbhd._point_class(p) == (1, 1)
    assert max(max(d) for d in curve_nbhd._z_pairs(p)) == 1
    assert "mindeg.curve_nbhd._local_entry" not in vars(p)
    assert curve_nbhd._entry(p, (1, 1)) is not None
    assert list(vars(p)["mindeg.curve_nbhd._local_entry"]) == [((1, 1),)]
    g2 = Parabolic(_fresh("G2"), frozenset({2}))
    assert curve_nbhd._point_class(g2) == (2,) and point_class_degree(g2) == (2,)
    assert curve_nbhd._entry(g2, (3,)) is None
    assert (3,) not in curve_nbhd._z_pairs(g2) and (2,) in curve_nbhd._z_pairs(g2)


def test_local_lifting_with_a_wrong_z_e_is_a_consistency_error(monkeypatch):
    # P^2 (A2, Delta_P = {2}): the lifting of (1) is (1, 1), which the
    # descent from (1, 1), the cascade degree of G/B, keeps without probing
    # it; z_(1,1) read as z_(1,0) = s1 is then not z_(1) * w_P = w_o
    a2 = _fresh("A2")
    assert curve_nbhd._point_class(borel(a2)) == (1, 1)  # held before the fault
    monkeypatch.setattr(curve_nbhd, "_z_pair",
                        _read_z_as(curve_nbhd._z_pair, {(1, 1): (1, 0)}))
    with pytest.raises(ConsistencyError,
                       match=r"ends at \(1, 1\), whose z is not z_\(1,\) \* w_P"):
        lifting(Parabolic(a2, frozenset({2})), (1,))


def test_local_lifting_failing_its_unit_edges_is_a_consistency_error(monkeypatch):
    # the same lifting (1, 1), with z_(0,1) read as z_(1,1) = w_o: the descent
    # never reads (0, 1), but the unit-edge test of (1, 1) then fails
    a2 = _fresh("A2")
    monkeypatch.setattr(curve_nbhd, "_z_pair",
                        _read_z_as(curve_nbhd._z_pair, {(0, 1): (1, 1)}))
    with pytest.raises(ConsistencyError,
                       match=r"lifting \(1, 1\) of \(1,\) .* fails the unit-edge test"):
        key_inequality(Parabolic(a2, frozenset({2})), (1,))


def test_local_non_monotone_z_on_g_p_is_a_consistency_error(monkeypatch):
    # A3, Delta_P = {2}: z read backwards along the box below the point-class
    # degree (1, 1), so that z_(1,1) is the identity and its unit edges are not
    # below it
    rs = _fresh("A3")
    p = Parabolic(rs, frozenset({2}))
    top = point_class_degree(Parabolic(build_root_system("A3"), frozenset({2})))
    assert top == (1, 1) and curve_nbhd._point_class(p) == top  # held before the fault
    monkeypatch.setattr(curve_nbhd, "_z_pair", _reversed(curve_nbhd._z_pair, top))
    with pytest.raises(ConsistencyError, match=r"not monotone on Parabolic\(A3, \[2\]\)"):
        quasi_homogeneity_verdict(p, top)


def test_local_point_class_degree_checks_its_result(monkeypatch):
    # A2/B with z_(0,1) read as w_o: the cascade degree (1, 1) still reaches
    # the longest coset, but its unit edge down to (0, 1) reaches the same z
    b, real = borel(_fresh("A2")), curve_nbhd._z_pair
    monkeypatch.setattr(curve_nbhd, "_z_pair", _read_z_as(real, {(0, 1): (1, 1)}))
    with pytest.raises(ConsistencyError,
                       match=r"cascade degree \(1, 1\) of .* fails the unit-edge test"):
        point_class_degree(b)


def test_cascade_degree_that_does_not_reach_the_longest_coset_is_a_consistency_error(
        monkeypatch):
    # with s1 taken for the longest element, z_(1,1) = w_o is not the longest coset
    monkeypatch.setattr(curve_nbhd, "longest_element", lambda rs: simple_reflection(rs, 0))
    with pytest.raises(ConsistencyError, match=r"z_\(1, 1\) on .* is not the longest coset"):
        point_class_degree(borel(_fresh("A2")))


def test_local_point_class_degree_refuses_a_wrong_z_table():
    """z_(1,1) of A2/B overwritten by z_(1,0) = s1 in the z table, the fault
    the table build refuses (test_exactly_one_degree_reaches_the_longest_coset):
    the cascade degree (1, 1) then does not reach the longest coset, and the
    local point-class degree raises rather than answer (1, 2)."""
    b = borel(_fresh("A2"))
    table = curve_nbhd._z_pairs(b)
    table[(1, 1)] = curve_nbhd._z_pair(b, (1, 0))
    with pytest.raises(ConsistencyError, match=r"z_\(1, 1\) on .* is not the longest coset"):
        point_class_degree(b)


def test_a_table_whose_point_class_is_not_the_cascade_degree_is_refused(monkeypatch):
    """The table build checks its point-class degree against the projected
    cascade degree: with the cascade degree of A2 read as (2, 1), the table's
    (1, 1) is refused, and on P^2, once G/B holds its table, its (1,)."""
    rs = _fresh("A2")
    minimal_degrees(borel(rs))  # held before the fault
    monkeypatch.setattr(curve_nbhd, "_cascade_degree", lambda system: (2, 1))
    with pytest.raises(ConsistencyError,
                       match=r"point-class degree \(1, 1\) .* projected cascade degree \(2, 1\)"):
        minimal_degrees(borel(_fresh("A2")))
    with pytest.raises(ConsistencyError, match=r"point-class degree \(1,\) .* \(2,\)"):
        minimal_degrees(Parabolic(rs, frozenset({2})))


@pytest.mark.parametrize("label", _labels(4, "G2", "F4"))
def test_projected_cascade_degree_is_the_point_class_degree(label):
    """On a fresh system, the cascade degree projected onto Delta \\ Delta_P
    (_point_class) is the table's point-class degree on every parabolic."""
    rs = _fresh(label)
    for p in all_parabolics(rs):
        assert curve_nbhd._point_class(p) == _table_point_class(p), p


def test_cascade_degree_is_the_sum_of_the_top_cascade_coroots():
    """The cascade degree of G/B sums the coroots of the cascade of its
    point-class degree, read off the table: on D4, four orthogonal roots."""
    rs = _fresh("D4")
    top = _table_point_class(borel(rs))
    casc = cascade_roots(rs, top)
    assert len(casc) == 4
    total = tuple(map(sum, zip(*[rs.root_data[a.coeffs].coroot for a in casc])))
    assert curve_nbhd._cascade_degree(rs) == total == top


def _counted_unit_edges(monkeypatch):
    """The degrees _passes_unit_edges is called on, in order."""
    calls, real = [], curve_nbhd._passes_unit_edges

    def counted(p, d, z):
        calls.append(d)
        return real(p, d, z)

    monkeypatch.setattr(curve_nbhd, "_passes_unit_edges", counted)
    return calls


def test_a_local_query_tests_each_degree_once(monkeypatch):
    """key_inequality and then quasi_homogeneity_verdict on a fresh F4 {2,3}
    at (1, 1) run the unit-edge test on d and on its lifting e once each;
    each later check reads the entry held on the parabolic."""
    p = Parabolic(_fresh("F4"), frozenset({2, 3}))
    calls = _counted_unit_edges(monkeypatch)
    key_inequality(p, (1, 1))
    quasi_homogeneity_verdict(p, (1, 1))
    assert calls == [(1, 1), lifting(p, (1, 1))]


def test_a_local_query_runs_one_descent_per_degree(monkeypatch):
    """The checks of one local query read the entry (z_d, lifting) held on p
    (_local_entry): on a fresh F4 {2,3} at (1, 1), the lifting's descent
    (_least_reaching) runs once across key_inequality, lifting and the three
    lemma checks, where a held unit-edge verdict alone let each of them run
    it again, five times in all."""
    calls, real = [], curve_nbhd._least_reaching
    monkeypatch.setattr(curve_nbhd, "_least_reaching",
                        lambda *args: calls.append(args[1]) or real(*args))
    p, d = Parabolic(_fresh("F4"), frozenset({2, 3})), (1, 1)
    key_inequality(p, d)
    assert lifting(p, d) == curve_nbhd._local_entry(p, d)[1]
    pair_map_is_injective(p, d)
    coroot_pairing_bound_holds(p, d)
    weighted_pair_count_identity_holds(p, d)
    assert len(calls) == 1
    assert _holds_no_table(p)


def test_the_g2_point_class_query_tests_its_degree_once(monkeypatch):
    """At the exceptional G2 triple, where each is_exceptional_triple call
    asks for the point-class degree, d's unit-edge test still runs once."""
    p = Parabolic(_fresh("G2"), frozenset({2}))
    calls = _counted_unit_edges(monkeypatch)
    assert key_inequality(p, (2,)).exception
    assert quasi_homogeneity_verdict(p, (2,)).kind == "OnlyAutX"
    assert calls.count((2,)) == 1 and len(calls) == 2
