import pytest

from mindeg.cascade import (
    cascade_roots, cascade_size_bound_holds, enumerate_sos, full_cascade,
    is_sos, max_cascade_forces_point_degree, mmsos_size,
    minimal_degree_records, mmsos_unique_up_to_weyl, strongly_orthogonal,
)
from mindeg.curve_nbhd import (
    borel, curve_neighborhood_element, is_p_cosmall, minimal_degrees, point_class_degree,
)
from mindeg.exceptions import (
    NotApplicableError, NotMinimalDegreeError, RankTooLargeError,
)
from mindeg.root_system import build_root_system, coroot_pairing

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
