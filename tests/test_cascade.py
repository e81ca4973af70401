import pytest

from mindeg import curve_nbhd
from mindeg.cascade import (
    cascade_roots, cascade_size_bound_holds, enumerate_sos, full_cascade,
    is_sos, max_cascade_forces_point_degree, mmsos_size,
    minimal_degree_records, mmsos_unique_up_to_weyl, strongly_orthogonal,
)
from mindeg.curve_nbhd import (
    borel, curve_neighborhood_element, greedy_decomposition, is_p_cosmall, minimal_degrees,
    point_class_degree,
)
from mindeg.exceptions import (
    ConsistencyError, NotApplicableError, NotMinimalDegreeError, RankTooLargeError,
)
from mindeg.parabolic import Parabolic
from mindeg.root_system import RootSystem, SimpleType, build_root_system, coroot_pairing
from mindeg.tangent_directions import key_inequality

from oracles import all_parabolics

RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
             "D3", "D4", "F4", "G2"]


def test_cascade_examples(g2, b3):
    top = cascade_roots(g2, (2, 2))
    assert {r.coeffs for r in top} == {(3, 2), (1, 0)}
    assert cascade_roots(g2, (0, 0)) == ()
    b3_top = cascade_roots(b3, point_class_degree(borel(b3)))
    assert {r.coeffs for r in b3_top} == {(1, 2, 2), (1, 0, 0), (0, 0, 1)}


def test_cascade_requires_minimal_degree():
    a1 = build_root_system("A1")
    with pytest.raises(NotMinimalDegreeError):
        cascade_roots(a1, (2,))


def test_strongly_orthogonal_examples(g2, a2):
    theta1, beta1 = g2.root((3, 2)), g2.root((1, 0))
    assert strongly_orthogonal(theta1, beta1)
    assert not strongly_orthogonal(beta1, beta1)
    assert not strongly_orthogonal(a2.simple_roots[0], a2.simple_roots[1])


def test_sos_classification_examples(g2):
    assert mmsos_size(g2) == 2
    assert mmsos_size(g2) == len(full_cascade(g2))
    a1 = build_root_system("A1")
    records = enumerate_sos(a1)
    msos = {tuple(r.coeffs for r in rec.roots) for rec in records if rec.is_msos}
    assert msos == {((1,),), ((-1,),)}
    assert mmsos_size(a1) == 1
    f4 = build_root_system("F4")
    assert mmsos_size(f4) == 4


def test_sos_enumeration_guard():
    with pytest.raises(RankTooLargeError):
        enumerate_sos(build_root_system("B5"))


@pytest.mark.parametrize("label", RANK_LE_4)
def test_every_mmsos_is_weyl_equivalent_to_the_cascade(label):
    assert mmsos_unique_up_to_weyl(build_root_system(label))


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "D3", "F4", "G2"])
def test_cascade_size_bound(label):
    assert cascade_size_bound_holds(build_root_system(label))


def test_max_cascade_forces_point_degree_examples(g2, a2):
    assert max_cascade_forces_point_degree(g2)
    assert max_cascade_forces_point_degree(build_root_system("B2"))
    with pytest.raises(NotApplicableError):
        max_cascade_forces_point_degree(a2)


CASCADE_SIZES = [("B2", 2), ("B4", 4), ("B6", 6), ("C2", 2), ("C3", 3),
                 ("C4", 4), ("C5", 5), ("C6", 6), ("F4", 4), ("G2", 2),
                 ("B3", 3), ("B5", 5)]


@pytest.mark.parametrize("label,size", CASCADE_SIZES)
def test_cascade_sizes_for_non_simply_laced_types(label, size):
    assert len(full_cascade(build_root_system(label))) == size


@pytest.mark.parametrize("label", RANK_LE_4)
def test_cascades_are_sos_and_negated_by_z(label):
    rs = build_root_system(label)
    b = borel(rs)
    for e in minimal_degrees(b):
        casc = cascade_roots(rs, e)
        assert is_sos(casc)
        z = curve_neighborhood_element(b, e)
        for a in casc:
            assert z.apply(a).coeffs == tuple(-c for c in a.coeffs)


@pytest.mark.parametrize("label", RANK_LE_4)
def test_p_cosmall_roots_pair_into_zero_one_with_levi_positives(label):
    rs = build_root_system(label)
    for p in all_parabolics(rs):
        for a in rs.positive_roots:
            if is_p_cosmall(p, a):
                for g in p.levi_positive:
                    assert coroot_pairing(g, a) in (0, 1), (label, a, g)


@pytest.mark.parametrize("label", RANK_LE_4)
def test_singleton_cascades_consist_of_a_p_cosmall_root(label):
    rs = build_root_system(label)
    for p in all_parabolics(rs):
        for rec in minimal_degree_records(p):
            if any(rec.degree) and len(rec.cascade) == 1:
                assert is_p_cosmall(p, rec.cascade[0])


def _oracle_cascade_mask(rs, e) -> int:
    """The cascade of e as a mask over root positions, from the sorted set
    of its greedy decomposition, asserted strongly orthogonal by is_sos."""
    roots = sorted(set(greedy_decomposition(borel(rs), e)), key=lambda r: r.coeffs)
    assert is_sos(roots), e
    return sum(1 << rs.root_positions[r.coeffs] for r in roots)


@pytest.mark.parametrize("label", RANK_LE_4 + ["E6"])
def test_cascade_masks_match_the_greedy_oracle(label):
    """The cascade mask of every full-flag minimal degree, as the search
    records it in the G/B table and as the local path builds it from the
    greedy chain on a system that holds no table, is the sorted set of the
    greedy decomposition, which is_sos accepts."""
    rs, fresh = build_root_system(label), RootSystem(SimpleType.parse(label))
    table = curve_nbhd._minimal(borel(rs))[0]
    for e, (_, _, cascade) in table.items():
        assert cascade == _oracle_cascade_mask(rs, e), e
        local = curve_nbhd._entry(borel(fresh), e)
        assert local is not None and local[2] == cascade, e
    assert not curve_nbhd._minimal.holds(borel(fresh))


@pytest.mark.parametrize("label", ["B2", "G2", "C3"])
def test_a_root_is_added_to_a_cascade_iff_strongly_orthogonal(label):
    """_with_cascade_root adds a root to a one-root cascade exactly when
    strongly_orthogonal holds for the pair or the root is already in it,
    and otherwise raises ConsistencyError; in B2 the short roots alpha_2 and
    alpha_1 + alpha_2 are orthogonal but not strongly orthogonal."""
    rs = build_root_system(label)
    positions = rs.root_positions
    for a in rs.positive_roots:
        bit = 1 << positions[a.coeffs]
        for g in rs.positive_roots:
            k = positions[g.coeffs]
            if g is a or strongly_orthogonal(a, g):
                assert curve_nbhd._with_cascade_root(rs, bit, k, ()) == bit | 1 << k
            else:
                with pytest.raises(ConsistencyError, match="not strongly orthogonal"):
                    curve_nbhd._with_cascade_root(rs, bit, k, ())


def _no_root_strongly_orthogonal(monkeypatch):
    """Inject the fault: no two roots read as strongly orthogonal, so a
    cascade of two or more roots is not strongly orthogonal."""
    monkeypatch.setattr(curve_nbhd, "strongly_orthogonal", lambda alpha, gamma: False)


def test_a_cascade_not_strongly_orthogonal_fails_the_table_build(monkeypatch):
    """The full-flag search checks each cascade as it records it: with the
    fault, the B2/B table build raises ConsistencyError."""
    rs = RootSystem(SimpleType.parse("B2"))
    _no_root_strongly_orthogonal(monkeypatch)
    with pytest.raises(ConsistencyError, match="cascade of .* is not strongly orthogonal"):
        minimal_degrees(borel(rs))


def test_a_cascade_not_strongly_orthogonal_fails_the_local_path(monkeypatch):
    """The local path builds the cascade of a full-flag degree from its
    greedy chain with the search's check: with the fault, the B2 point-class
    degree, whose cascade has two roots, raises ConsistencyError on G/B and
    as the lifting of a G/P degree; a one-root cascade still passes."""
    rs = RootSystem(SimpleType.parse("B2"))
    _no_root_strongly_orthogonal(monkeypatch)
    b = borel(rs)
    assert cascade_roots(rs, (1, 1)) == (rs.root((1, 2)),)
    # (2, 1) has the cascade alpha_1, alpha_1 + 2 alpha_2 and lifts (1,) on P = {1}
    for p, d in [(b, (2, 1)), (Parabolic(rs, frozenset({1})), (1,))]:
        with pytest.raises(ConsistencyError, match="cascade of .* is not strongly orthogonal"):
            key_inequality(p, d)
    with pytest.raises(ConsistencyError, match="cascade of .* is not strongly orthogonal"):
        cascade_roots(rs, (2, 1))
    assert not curve_nbhd._minimal.holds(b)
