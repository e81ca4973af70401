import pytest

from mindeg.cascade import full_cascade
from mindeg.curve_nbhd import minimal_degrees
from mindeg.exceptions import InvalidDegreeError, InvalidParabolicError, NotApplicableError
from mindeg.parabolic import Parabolic, c1_pairing, dim_x, project_coroot
from mindeg.report import case_reports, default_types
from mindeg.root_system import build_root_system, coroot_coefficients, coroot_pairing

from oracles import (
    all_parabolics, c1_vector, c1_vector_weights, fraction_c1_pairing, levi_intersection_check,
    outside_levi_roots, roots_of_p, support_scan_levi_roots,
)

SMALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
               "D3", "D4", "F4", "G2"]


def test_project_coroot_examples(g2):
    p = Parabolic(g2, frozenset({2}))
    theta1 = g2.root((3, 2))
    assert project_coroot(p, theta1) == (1,)
    assert project_coroot(p, g2.simple_roots[1]) == (0,)
    pb = Parabolic(g2, frozenset())
    assert project_coroot(pb, g2.simple_roots[0]) == (1, 0)


def test_project_coroot_is_linear_in_the_coroot(b3):
    p = Parabolic(b3, frozenset({2, 3}))
    units = [project_coroot(p, b) for b in b3.simple_roots]
    for a in b3.roots:
        expected = [0] * len(p.quotient_positions)
        for c, unit in zip(coroot_coefficients(a), units):
            for k in range(len(expected)):
                expected[k] += c * unit[k]
        assert project_coroot(p, a) == tuple(expected)


def test_project_coroot_kills_exactly_levi_coroots(b3):
    p = Parabolic(b3, frozenset({1, 3}))
    for b, unit in zip(b3.simple_roots, range(b3.rank)):
        proj = project_coroot(p, b)
        if unit + 1 in p.delta_p:
            assert not any(proj)
        else:
            assert sum(proj) == 1


def test_c1_pairing_exceptional_case(g2):
    p = Parabolic(g2, frozenset({2}))
    assert c1_pairing(p, (2,)) == 10
    assert c1_pairing(p, (0,)) == 0


def test_c1_pairing_full_flag_is_twice_the_weight_sum(g2):
    # c1 of the full flag variety is twice the sum of fundamental weights,
    # so every simple coroot pairs to exactly 2
    p = Parabolic(g2, frozenset())
    assert c1_vector(p) == (10, 6)
    for i, b in enumerate(g2.simple_roots):
        assert coroot_pairing(c1_vector(p), b) == 2
    assert c1_pairing(p, (1, 0)) == 2
    assert c1_pairing(p, (0, 1)) == 2


@pytest.mark.parametrize("label", SMALL_TYPES)
def test_c1_pairing_is_positive_on_simple_degrees(label):
    rs = build_root_system(label)
    for p in all_parabolics(rs):
        k = len(p.quotient_positions)
        for i in range(k):
            unit = tuple(1 if j == i else 0 for j in range(k))
            assert c1_pairing(p, unit) >= 2


@pytest.mark.parametrize("d", [(1,), (1, 1, 5)])
def test_c1_pairing_rejects_degrees_of_the_wrong_length(b3, d):
    p = Parabolic(b3, frozenset({2}))
    with pytest.raises(InvalidDegreeError):
        c1_pairing(p, d)


@pytest.mark.parametrize("label", [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C2", "C3", "C4", "C5",
    "D3", "D4", "D5", "F4", "G2"])
def test_c1_pairing_matches_fraction_formula(label):
    rs = build_root_system(label)
    for p in all_parabolics(rs):
        for d in minimal_degrees(p):
            assert c1_pairing(p, d) == fraction_c1_pairing(p, d), (p, d)


@pytest.mark.parametrize("label", [str(t) for t in default_types(6)] + ["E7"])
def test_levi_roots_and_c1_weights_match_the_old_paths(label):
    """Levi roots from the support masks and c1 weights as 2 - (2 rho_P, alpha_i^vee)
    agree with a scan of coefficients and with pairing the summed c_1, on every
    parabolic."""
    rs = build_root_system(label)
    for p in all_parabolics(rs):
        assert p.levi_roots == support_scan_levi_roots(p), p
        assert p.c1_weights == c1_vector_weights(p), p


@pytest.mark.parametrize("label", [str(t) for t in default_types(4)] + ["B5"])
def test_levi_masks_match_the_root_sets(label):
    """levi_mask and outside_mask hold the positions of R_P and R+ \\ R_P+
    from the coefficient scan, levi_positive is the Levi roots filtered by
    is_positive, and outside_levi and dim_x read R+ \\ R_P+, on every
    parabolic."""
    rs = build_root_system(label)
    positions = rs.root_positions
    for p in all_parabolics(rs):
        levi, outside = support_scan_levi_roots(p), outside_levi_roots(p)
        assert p.levi_mask == sum(1 << positions[r.coeffs] for r in levi), p
        assert p.outside_mask == sum(1 << positions[r.coeffs] for r in outside), p
        assert p.levi_positive == tuple(r for r in levi if r.is_positive), p
        assert [p.outside_levi(r) for r in rs.roots] == [r in outside for r in rs.roots], p
        assert dim_x(p) == len(outside), p


def test_outside_levi_refuses_a_root_of_another_system(a2):
    p = Parabolic(a2, frozenset())
    assert p.outside_levi(a2.simple_roots[0])
    assert not p.outside_levi(build_root_system("B2").simple_roots[0])


def test_dim_x_examples(g2, b3):
    assert dim_x(Parabolic(g2, frozenset({2}))) == 5
    assert dim_x(Parabolic(g2, frozenset({1, 2}))) == 0
    assert dim_x(Parabolic(b3, frozenset({2, 3}))) == 5


def test_levi_intersection_examples(g2, a2, b3):
    assert levi_intersection_check(Parabolic(g2, frozenset({2})))
    assert levi_intersection_check(Parabolic(b3, frozenset()))
    with pytest.raises(NotApplicableError):
        levi_intersection_check(Parabolic(a2, frozenset({1})))


@pytest.mark.parametrize("label", SMALL_TYPES)
def test_levi_positive_and_root_counts(label):
    rs = build_root_system(label)
    pos = set(rs.positive_roots)
    for p in all_parabolics(rs):
        assert set(p.levi_positive) == set(p.levi_roots) & pos
        assert len(roots_of_p(p)) == len(rs.positive_roots) + len(p.levi_positive)


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5",
                                   "C3", "C4", "C5", "D4", "D5", "F4", "G2"])
def test_cascade_support_parabolics_are_stable_under_longest_element(label):
    # Delta_P = support(alpha) for a top-cascade root alpha keeps w_o(R_P) = R_P
    rs = build_root_system(label)
    from mindeg.weyl import longest_element
    w0 = longest_element(rs)
    for alpha in full_cascade(rs):
        p = Parabolic(rs, frozenset(i + 1 for i, c in enumerate(alpha.coeffs) if c))
        levi = set(p.levi_roots)
        assert {w0.apply(r) for r in levi} == levi
        assert levi_intersection_check(p)


def test_bad_indices_rejected(g2):
    with pytest.raises(ValueError):
        Parabolic(g2, frozenset({0}))
    with pytest.raises(ValueError):
        Parabolic(g2, frozenset({3}))


def test_non_integer_indices_rejected(a2):
    """True equals 1 and is an int, but a sweep would write it as true."""
    for bad in ({1.0}, {"1"}, {True}, {False}, {True, 2}):
        with pytest.raises(InvalidParabolicError, match="must be integers"):
            Parabolic(a2, frozenset(bad))
    with pytest.raises(InvalidParabolicError, match="must be integers"):
        case_reports("B3", (True,))
