import inspect
import pickle

import pytest

from mindeg import curve_nbhd, tangent_directions
from mindeg.cascade import cascade_roots
from mindeg.curve_nbhd import (
    borel, curve_neighborhood_element, lifting, minimal_degrees, point_class_degree,
)
from mindeg.exceptions import ConsistencyError, ExceptionalCaseError, NotMinimalDegreeError
from mindeg.parabolic import Parabolic, c1_pairing, dim_x
from mindeg.report import CaseReport, case_reports, default_types
from mindeg.root_system import RootSystem, SimpleType, bilinear, build_root_system, coroot_pairing
from mindeg.tangent_directions import (
    VERDICT_DENSE_G_ORBIT, VERDICT_ONLY_AUT_X, KeyInequalityReport, TangentDirectionSets,
    _root_directions, associated_pair,
    coroot_pairing_bound_holds, is_exceptional_triple, key_inequality, pair_map_is_injective,
    quasi_homogeneity_verdict, tangent_direction_sets, weighted_pair_count_identity_holds,
)
from mindeg.weyl import word_str

from oracles import (
    all_parabolics, outside_levi_roots, per_degree_coroot_pairing_bound_holds,
    per_degree_pair_map_is_injective, per_degree_tangent_direction_sets,
    per_degree_tangent_directions, per_degree_weighted_pair_count_identity_holds,
    set_root_directions,
)

SWEEP_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "D3", "F4", "G2"]
SIMPLY_LACED = ["A1", "A2", "A3", "A4", "D4"]


def sweep_cases(labels):
    for label in labels:
        rs = build_root_system(label)
        for p in all_parabolics(rs):
            for d in minimal_degrees(p):
                yield p, d


@pytest.fixture(scope="module")
def g2_exception():
    rs = build_root_system("G2")
    return Parabolic(rs, frozenset({2})), (2,)


def test_tangent_directions_exceptional_case(g2_exception):
    p, d = g2_exception
    assert {r.coeffs for r in tangent_direction_sets(p, d).td} == {
        (-1, 0), (-1, -1), (-3, -2)}


def test_tangent_directions_on_the_full_flag_are_the_negated_cascade():
    for label in ("A2", "B2", "B3", "G2"):
        rs = build_root_system(label)
        b = borel(rs)
        for d in minimal_degrees(b):
            casc = cascade_roots(rs, lifting(b, d))
            assert {r.coeffs for r in tangent_direction_sets(b, d).td} == {
                tuple(-c for c in a.coeffs) for a in casc}


def test_tangent_directions_empty_at_zero(g2_exception):
    p, _ = g2_exception
    assert tangent_direction_sets(p, (0,)).td == ()


def test_associated_pair_exceptional_case(g2, g2_exception):
    p, d = g2_exception
    beta1, beta2 = g2.simple_roots
    alpha_p, gamma_p = associated_pair(p, d, beta1, beta2)
    assert alpha_p.coeffs == (3, 2)
    assert gamma_p.coeffs == (0, 1)
    assert coroot_pairing(beta2, alpha_p) == 1
    diff = tuple(y - x for x, y in zip(alpha_p.coeffs, gamma_p.coeffs))
    assert diff == (-3, -1)
    assert g2.is_root(diff)


def test_associated_pair_rejects_bad_input(g2, g2_exception):
    p, d = g2_exception
    theta1 = g2.root((3, 2))
    with pytest.raises(ValueError):
        associated_pair(p, d, theta1, g2.simple_roots[1])  # (theta1, beta2) > 0


def test_additional_tangent_directions_exceptional_case(g2_exception):
    p, d = g2_exception
    assert [r.coeffs for r in tangent_direction_sets(p, d).td_tilde] == [(-3, -1)]


def test_no_additional_directions_in_simply_laced_types():
    for label in SIMPLY_LACED[:3]:
        rs = build_root_system(label)
        for p in all_parabolics(rs):
            for d in minimal_degrees(p):
                assert tangent_direction_sets(p, d).td_tilde == ()


def test_no_additional_directions_on_full_flags():
    rs = build_root_system("B2")
    b = borel(rs)
    for d in minimal_degrees(b):
        assert tangent_direction_sets(b, d).td_tilde == ()


def test_pair_map_injective_exceptional_case(g2, g2_exception):
    p, d = g2_exception
    assert pair_map_is_injective(p, d)
    casc = [a for a in cascade_roots(g2, lifting(p, d)) if p.outside_levi(a)]
    domain = [(a, g) for a in casc for g in p.levi_positive if bilinear(a, g) < 0]
    assert len(domain) == 1  # only (beta1, beta2); (theta1, beta2) pairs positively


@pytest.mark.parametrize("label", ["A2", "A3", "B3", "F4", "G2"])
def test_pair_map_injective_in_sweeps(label):
    for p, d in sweep_cases([label]):
        assert pair_map_is_injective(p, d)


def test_pairing_bound_raises_on_the_exceptional_triple(g2_exception):
    p, d = g2_exception
    with pytest.raises(ExceptionalCaseError) as err:
        coroot_pairing_bound_holds(p, d)
    witnesses = err.value.witness
    assert len(witnesses) == 1
    gamma, alpha, value = witnesses[0]
    assert (gamma.coeffs, alpha.coeffs, value) == ((0, 1), (1, 0), -3)


def test_pairing_bound_holds_off_the_exception(b3):
    p = Parabolic(b3, frozenset({2, 3}))
    assert coroot_pairing_bound_holds(p, point_class_degree(p))
    for p, d in sweep_cases(["A2", "A3", "D3"]):
        assert coroot_pairing_bound_holds(p, d)


def test_weighted_pair_count_identity(g2, g2_exception):
    p, d = g2_exception
    assert weighted_pair_count_identity_holds(p, d)
    casc = [a for a in cascade_roots(g2, lifting(p, d)) if p.outside_levi(a)]
    pairings = [coroot_pairing(g, a) for a in casc for g in p.levi_positive]
    assert pairings.count(-3) == 1  # the single weight-3 pair
    for q, d2 in sweep_cases(["F4"]):
        assert weighted_pair_count_identity_holds(q, d2)


def test_key_inequality_exceptional_case(g2_exception):
    p, d = g2_exception
    rep = key_inequality(p, d)
    assert (rep.lhs, rep.rhs, rep.holds, rep.exception) == (5, 4, False, True)


def test_key_inequality_zero_degree(g2_exception):
    p, _ = g2_exception
    rep = key_inequality(p, (0,))
    assert rep.lhs == 0 and rep.holds and not rep.exception


def test_key_inequality_holds_across_b3(b3):
    for p in all_parabolics(b3):
        for d in minimal_degrees(p):
            rep = key_inequality(p, d)
            assert rep.holds and not rep.exception


def test_exceptional_triple_detection(g2, g2_exception):
    p, d = g2_exception
    assert is_exceptional_triple(p, d)
    assert not is_exceptional_triple(p, (1,))
    short_side = Parabolic(g2, frozenset({1}))
    assert not is_exceptional_triple(short_side, point_class_degree(short_side))
    b3 = build_root_system("B3")
    assert not is_exceptional_triple(Parabolic(b3, frozenset({2, 3})), (2,))


def test_verdicts(g2, g2_exception):
    p, d = g2_exception
    v = quasi_homogeneity_verdict(p, d)
    assert v.kind == VERDICT_ONLY_AUT_X
    assert (v.moduli_dim, v.group_dim) == (15, 14)
    short_side = Parabolic(g2, frozenset({1}))
    v2 = quasi_homogeneity_verdict(short_side, point_class_degree(short_side))
    assert v2.kind == VERDICT_DENSE_G_ORBIT and v2.moduli_dim is None
    for q, d2 in sweep_cases(["A3"]):
        assert quasi_homogeneity_verdict(q, d2).kind == VERDICT_DENSE_G_ORBIT
    with pytest.raises(NotMinimalDegreeError):
        quasi_homogeneity_verdict(p, (5,))


# The rows of every type of rank <= 6 and of E7 whose dimension witness
# rules out a dense G-orbit: moduli_dim = dim X + (c_1, d) exceeds
# group_dim = dim G, as (type, Delta_P, d, moduli_dim, group_dim).
# quasi_homogeneity_verdict and the sweep's verdict field restate the
# paper's claim and do not check it: they read OnlyAutX on the G2 triple
# alone and DenseGOrbit on the others.
WITNESS_ROWS = [
    ("B3", (2,), (2, 2), 22, 21),
    ("B4", (2,), (2, 4, 2), 37, 36),
    ("B5", (2,), (2, 4, 4, 3), 56, 55),
    ("B5", (2, 4), (2, 4, 3), 57, 55),
    ("B5", (4,), (2, 2, 4, 3), 56, 55),
    ("B6", (2,), (2, 4, 4, 6, 3), 79, 78),
    ("B6", (2, 4), (2, 4, 6, 3), 80, 78),
    ("B6", (2, 4, 6), (2, 4, 6), 79, 78),
    ("B6", (4,), (2, 2, 4, 6, 3), 79, 78),
    ("D4", (2,), (2, 2, 2), 29, 28),
    ("D6", (2,), (2, 4, 4, 3, 3), 67, 66),
    ("D6", (2, 4), (2, 4, 3, 3), 68, 66),
    ("D6", (4,), (2, 2, 4, 3, 3), 67, 66),
    ("E7", (1,), (5, 6, 8, 7, 4, 3), 134, 133),
    ("E7", (1, 4), (5, 6, 7, 4, 3), 135, 133),
    ("E7", (1, 4, 6), (5, 6, 7, 3), 136, 133),
    ("E7", (1, 6), (5, 6, 8, 7, 3), 135, 133),
    ("E7", (4,), (2, 5, 6, 7, 4, 3), 134, 133),
    ("E7", (4, 6), (2, 5, 6, 7, 3), 135, 133),
    ("E7", (6,), (2, 5, 6, 8, 7, 3), 134, 133),
    ("F4", (1,), (6, 4, 2), 53, 52),
    ("G2", (2,), (2,), 15, 14),
]


def test_the_dimension_witness_contradicts_the_verdict_on_these_rows():
    found = []
    for p, d in sweep_cases([str(t) for t in default_types(6)] + ["E7"]):
        rs = p.system
        moduli_dim, group_dim = dim_x(p) + c1_pairing(p, d), len(rs.roots) + rs.rank
        if moduli_dim > group_dim:
            found.append((str(rs.simple_type), tuple(sorted(p.delta_p)), d,
                          moduli_dim, group_dim))
    assert sorted(found) == WITNESS_ROWS
    for label, dp, d, moduli_dim, group_dim in WITNESS_ROWS:
        v = quasi_homogeneity_verdict(Parabolic(build_root_system(label), frozenset(dp)), d)
        if label == "G2":
            assert (v.kind, v.moduli_dim, v.group_dim) == (VERDICT_ONLY_AUT_X, 15, 14)
        else:
            assert v.kind == VERDICT_DENSE_G_ORBIT


def test_exception_detection_agrees_with_inequality_failure():
    # structural detection and inequality failure pick out the same cases
    for p, d in sweep_cases(SWEEP_TYPES):
        rep = key_inequality(p, d)
        assert rep.exception == (not rep.holds)


def test_direction_sets_land_outside_the_levi_and_are_disjoint():
    for p, d in sweep_cases(SWEEP_TYPES):
        sets = tangent_direction_sets(p, d)  # raises on any internal violation
        assert not set(sets.td) & set(sets.td_tilde)
        for r in sets.td + sets.td_tilde:
            assert p.outside_levi(-r)
        assert len(sets.td_tilde) == len(sets.strong_pairs)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                   "C2", "C3", "C4", "D3", "D4", "F4", "G2"])
def test_two_strong_negative_pairings_force_positive_product(label):
    # exhaustive over positive triples; without the positivity hypothesis the
    # claim fails already in B2 (gamma=-e1-e2, a1=e1, a2=e2 pairs to -2 twice
    # with (a1, a2) = 0), so the literal all-roots form is not testable
    rs = build_root_system(label)
    from mindeg.cascade import strongly_orthogonal
    for g in rs.roots:
        strong = [a for a in rs.roots if coroot_pairing(g, a) < -1]
        for a1 in strong:
            for a2 in strong:
                if g.is_positive and a1.is_positive and a2.is_positive:
                    assert bilinear(a1, a2) > 0, (label, g, a1, a2)
                if a1 != a2 and strongly_orthogonal(a1, a2):
                    raise AssertionError(
                        f"{label}: strongly orthogonal {a1}, {a2} both pair "
                        f"below -1 with {g}")


def test_collisions_of_the_negative_pair_map_share_gamma():
    # on the wider domain (gamma, alpha^vee) < 0, equal images force equal
    # associated pairs and equal gamma
    for p, d in sweep_cases(SWEEP_TYPES):
        rs = p.system
        casc = [a for a in cascade_roots(rs, lifting(p, d))
                if p.outside_levi(a)]
        seen = {}
        for a in casc:
            for g in p.levi_positive:
                if coroot_pairing(g, a) >= 0:
                    continue
                ap, gp = associated_pair(p, d, a, g)
                img = tuple(y - x for x, y in zip(ap.coeffs, gp.coeffs))
                if img in seen:
                    prev_ap, prev_gp, prev_g = seen[img]
                    assert (prev_ap, prev_gp) == (ap, gp)
                    assert prev_g == g
                else:
                    seen[img] = (ap, gp, g)


@pytest.mark.parametrize("label", [str(t) for t in default_types(5)])
def test_direction_sets_match_the_per_degree_loop(label):
    """The unions of the per-(P, alpha) sets, read off one mask of root
    positions, equal the sets built degree by degree, on every minimal degree
    of every parabolic, strong pairs included (they occur on B3-B5, F4 and G2)."""
    for p, d in sweep_cases([label]):
        sets = tangent_direction_sets(p, d)
        assert sets.td == per_degree_tangent_directions(p, d), (p, d)
        assert sets == per_degree_tangent_direction_sets(p, d), (p, d)


def _bound_or_witness(check, p, d):
    try:
        return check(p, d)
    except ExceptionalCaseError as exc:
        return exc.witness


@pytest.mark.parametrize("label", [str(t) for t in default_types(5)] + ["E6"])
def test_lemma_checks_match_the_per_degree_oracles(label):
    """The three lemma checks, reading the pairings of the per-(P, alpha) rows,
    agree with their bodies recomputed for each degree on every minimal degree,
    the G2 triple's witness included."""
    for p, d in sweep_cases([label]):
        assert pair_map_is_injective(p, d) == per_degree_pair_map_is_injective(p, d), (p, d)
        assert weighted_pair_count_identity_holds(p, d) == \
            per_degree_weighted_pair_count_identity_holds(p, d), (p, d)
        assert _bound_or_witness(coroot_pairing_bound_holds, p, d) == \
            _bound_or_witness(per_degree_coroot_pairing_bound_holds, p, d), (p, d)


@pytest.mark.parametrize("label", ["G2", "B3", "F4"])
def test_sweep_rows_match_the_public_per_degree_path(label):
    """Each case_reports row, one key_inequality call with its verdict read
    off the exception, equals what key_inequality, quasi_homogeneity_verdict,
    the Hecke walk of curve_neighborhood_element and the cascade of the
    lifting give for its degree, on every parabolic; the rows are the
    minimal degrees in order, the G2 triple among them."""
    rs = build_root_system(label)
    exceptions = 0
    for p in all_parabolics(rs):
        rows = case_reports(label, tuple(sorted(p.delta_p)))
        assert [r.degree for r in rows] == list(minimal_degrees(p)), p
        for r in rows:
            d = r.degree
            ineq = key_inequality(p, d)
            assert (r.lhs, r.rhs, r.holds, r.exception) == (
                ineq.lhs, ineq.rhs, ineq.holds, ineq.exception), (p, d)
            assert r.td == tuple(x.coeffs for x in ineq.sets.td), (p, d)
            assert r.td_tilde == tuple(x.coeffs for x in ineq.sets.td_tilde), (p, d)
            assert r.verdict == quasi_homogeneity_verdict(p, d).kind, (p, d)
            z = curve_neighborhood_element(p, d)
            assert ineq.z == z, (p, d)
            assert (r.z_word, r.z_length) == (word_str(z), z.length), (p, d)
            assert r.cascade == tuple(x.coeffs for x in cascade_roots(rs, lifting(p, d))), (p, d)
            exceptions += r.exception
    assert exceptions == (label == "G2")


def _report_of(ineq, p, d) -> CaseReport:
    """The CaseReport of a key_inequality report on (p, d), field by field."""
    coeffs = lambda roots: tuple([r.coeffs for r in roots])  # noqa: E731
    return CaseReport(
        str(p.system.simple_type), tuple(sorted(p.delta_p)), d, ineq.z.length,
        word_str(ineq.z), coeffs(ineq.cascade), coeffs(ineq.sets.td),
        coeffs(ineq.sets.td_tilde), ineq.lhs, ineq.rhs, ineq.holds, ineq.exception,
        VERDICT_ONLY_AUT_X if ineq.exception else VERDICT_DENSE_G_ORBIT)


@pytest.mark.parametrize("label", ["B3", "C3", "F4", "G2"])
def test_key_inequality_and_case_reports_read_one_row(label):
    """key_inequality and case_reports wrap one row kernel: on every row of
    every parabolic, key_inequality(p, d) written as a CaseReport equals the
    case_reports row field by field, on a parabolic that holds its table and
    on one of a fresh system that never builds one (the local path); the G2
    triple is among the rows, with its strong pair."""
    rs, fresh = build_root_system(label), RootSystem(SimpleType.parse(label))
    exceptions = 0
    for p in all_parabolics(rs):
        rows = case_reports(label, tuple(sorted(p.delta_p)))
        minimal_degrees(p)
        local = Parabolic(fresh, p.delta_p)
        for r in rows:
            assert r == _report_of(key_inequality(p, r.degree), p, r.degree), (p, r.degree)
            assert r == _report_of(key_inequality(local, r.degree), local, r.degree), \
                (local, r.degree)
            exceptions += r.exception
        assert not curve_nbhd._minimal.holds(local)
    assert not curve_nbhd._minimal.holds(borel(fresh))
    assert exceptions == (label == "G2")


@pytest.mark.parametrize("label", [str(t) for t in default_types(4)] + ["B5"])
def test_root_rows_match_the_set_oracle(label):
    """Each (P, alpha) row, a slice of alpha's pairing row over the Levi
    positions, equals the row built from sets of roots and coroot_pairing,
    for every alpha in R+ \\ R_P+ of every parabolic."""
    rs = build_root_system(label)
    for p in all_parabolics(rs):
        for alpha in outside_levi_roots(p):
            k = rs.root_positions[alpha.coeffs]
            assert _root_directions(p, k) == set_root_directions(p, alpha), (p, alpha)


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_a_row_refuses_a_direction_in_the_levi(label):
    """A row checks each of its directions in R- \\ R_P-: at a root alpha of
    R_P+, -alpha lies in R_P-, and the row is refused and not stored."""
    rs = build_root_system(label)
    for p in all_parabolics(rs):
        for alpha in p.levi_positive:
            k = rs.root_positions[alpha.coeffs]
            for _ in range(2):  # a stored row would answer the second read
                with pytest.raises(ConsistencyError, match="not in R- "):
                    _root_directions(p, k)
            with pytest.raises(ConsistencyError, match="not in R- "):
                set_root_directions(p, alpha)


def _held_keys(owner, read) -> set:
    """The positions k for which owner holds read(owner, k) (root_system.held)."""
    return {k for k, in vars(owner).get(f"{read.__module__}.{read.__qualname__}", {})}


def test_rows_are_built_lazily_and_shared_by_the_parabolics():
    """A fresh system holds no pairing row. key_inequality builds the rows
    of its cascade roots outside the Levi, and only those, each on its
    parabolic over the system's one pairing row of the root."""
    rs = RootSystem(SimpleType.parse("B3"))
    assert _held_keys(rs, RootSystem.pairing_row) == set()
    built = set()
    for delta_p in ({2}, {3}, {2, 3}):
        p = Parabolic(rs, frozenset(delta_p))
        for d in minimal_degrees(p):
            casc = [rs.root_positions[a.coeffs] for a in key_inequality(p, d).cascade
                    if p.outside_levi(a)]
            built |= set(casc)
            assert set(casc) <= _held_keys(p, _root_directions), (p, d)
        assert _held_keys(rs, RootSystem.pairing_row) == built
    assert len(built) < len(rs.positive_roots)


@pytest.mark.parametrize("label", ["G2", "B3", "C3", "F4"])
def test_a_row_reads_each_cascade_root_outside_the_levi_once(label, monkeypatch):
    """The row kernel is the one walk of a degree's (P, alpha) rows: it reads
    the row of each cascade root outside the Levi once, in position order,
    on the rows with strong pairs too, where td~ is checked from what that
    walk collected."""
    reads = []
    read = tangent_directions._root_directions
    monkeypatch.setattr(tangent_directions, "_root_directions",
                        lambda p, k: reads.append(k) or read(p, k))
    with_strong_pairs = 0
    for p, d in sweep_cases([label]):
        reads.clear()
        _, cascade, _, _, strong, *_ = tangent_directions._row(p, d)
        casc = cascade & p.outside_mask
        assert len(reads) == casc.bit_count(), (p, d)
        assert reads == [k for k in range(casc.bit_length()) if casc >> k & 1], (p, d)
        with_strong_pairs += bool(strong)
    assert with_strong_pairs == {"G2": 1, "B3": 3, "C3": 0, "F4": 7}[label]


# Each per-row object's fields, in declaration order.
ROW_FIELDS = {
    TangentDirectionSets: ["td", "td_tilde", "strong_pairs"],
    KeyInequalityReport: ["lhs", "rhs", "holds", "exception", "sets", "z", "cascade"],
    CaseReport: ["type", "delta_p", "degree", "z_length", "z_word", "cascade", "td",
                 "td_tilde", "lhs", "rhs", "holds", "exception", "verdict"],
}


@pytest.mark.parametrize("cls", list(ROW_FIELDS))
def test_row_objects_keep_their_dataclass_behaviour(cls):
    """The per-row objects are NamedTuples that keep what they had as frozen
    dataclasses: the constructor takes the fields in declaration order, by
    position or by name, sets each of them and nothing else, and the object
    is immutable, hashable and picklable; _replace and _asdict stand in for
    dataclasses.replace and dataclasses.asdict."""
    names = ROW_FIELDS[cls]
    assert list(cls._fields) == names
    assert list(inspect.signature(cls).parameters) == names
    values = [(i,) for i in range(len(names))]
    obj = cls(*values)
    assert obj._asdict() == dict(zip(names, values))
    assert not hasattr(obj, "__dict__")
    assert obj == cls(**dict(zip(names, values))) == pickle.loads(pickle.dumps(obj))
    assert hash(obj) == hash(cls(*values))
    assert repr(obj).startswith(f"{cls.__name__}({names[0]}=(0,), ")
    changed = obj._replace(**{names[-1]: "x"})
    assert getattr(changed, names[-1]) == "x" and changed != obj
    with pytest.raises(AttributeError):
        setattr(obj, names[0], 1)
