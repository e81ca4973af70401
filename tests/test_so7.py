import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mindeg import so7
from mindeg.exactlinalg import (
    SparseVector, SpanBuilder, intersect_spans, span_contains, span_rank, spans_equal,
)
from mindeg.exceptions import InvalidVectorError
from mindeg.so7 import (
    I, Matrix7, _proportionality, b3_eps_coords, build_tables, e_matrix, epsilon,
    g2_closure_basis, g2_eps_coords, run_appendix_checks, subalgebra_bases,
)
from oracles import (
    APPENDIX_WITNESSES, DenseSpanBuilder, dense_bracket, dense_matrix,
    fixpoint_g2_closure,
)

BENCH_APPENDIX = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "appendix.json"


def test_span_builder_and_intersection():
    dim = 3
    e1 = SparseVector(((0, 1, 0),))
    e2 = SparseVector(((1, 1, 0),))
    e3 = SparseVector(((2, 1, 0),))
    plus = SparseVector(((0, 1, 0), (1, 1, 0)))
    sb = SpanBuilder(dim)
    assert sb.add(e1) and sb.add(e2) and not sb.add(plus)
    assert sb.rank == 2
    assert sb.contains(plus) and not sb.contains(e3)
    inter = intersect_spans((e1, e2), (plus, e3), dim)
    assert spans_equal(inter, (plus,), dim)
    assert span_rank((e1, e2, e3, plus), dim) == 3


def test_e_matrix_rules_examples():
    assert e_matrix(5, 5).is_zero
    assert (e_matrix(1, 2).bracket(e_matrix(2, 3)) - e_matrix(1, 3)).is_zero
    assert e_matrix(1, 2).bracket(e_matrix(3, 4)).is_zero
    assert (e_matrix(1, 2) + e_matrix(2, 1)).is_zero
    with pytest.raises(IndexError):
        e_matrix(0, 3)
    with pytest.raises(IndexError):
        e_matrix(1, 8)


def test_epsilon_elements_are_skew():
    for k in (1, 2, 3):
        assert epsilon(k).is_skew
    with pytest.raises(IndexError):
        epsilon(4)


def test_table_holds_all_root_vectors():
    t = build_tables()
    assert len(t.b3) == 18
    assert len(t.g2) == 12


def test_highest_g2_vector_is_a_b3_vector():
    t = build_tables()
    assert (t.g2[(3, 2)] - t.b3[(1, 1, 0)]).is_zero
    assert (t.g2[(-3, -2)] - t.b3[(-1, -1, 0)]).is_zero


def test_negative_vectors_are_conjugates():
    t = build_tables()
    minus = t.b3[(0, 0, -1)]
    plus = e_matrix(1, 6) - e_matrix(1, 7).scale(I)
    assert (plus.conjugate() - minus).is_zero
    assert (plus - e_matrix(1, 6) + e_matrix(1, 7).scale(I)).is_zero


def test_short_simple_g2_vector_formula():
    t = build_tables()
    want = t.b3[(0, 1, 1)].scale((0, 2)) + t.b3[(1, 1, 2)]
    assert (t.g2[(1, 0)] - want).is_zero


def test_proportionality_scalar_is_exact():
    x = build_tables().b3[(1, 0, 0)]
    assert _proportionality(x, x.scale((0, 2))) == (Fraction(0), Fraction(2))
    # 3 / (1 + i) = 3/2 - 3/2 i
    assert _proportionality(x.scale((1, 1)), x.scale(3)) == (Fraction(3, 2), Fraction(-3, 2))
    assert _proportionality(x, x.scale(I) + e_matrix(1, 2)) is None  # nonzero off x's support
    # y = i*x but at x_25 = i, in the real part only, then in the imaginary part only
    assert _proportionality(x, x.scale(I) + e_matrix(2, 5)) is None
    assert _proportionality(x, x.scale(I) + e_matrix(2, 5).scale(I)) is None
    assert _proportionality(Matrix7.zero(), x) is None


def test_eps_coordinate_maps():
    assert b3_eps_coords((1, 0, 0)) == (1, -1, 0)
    assert b3_eps_coords((1, 2, 2)) == (1, 1, 0)
    assert g2_eps_coords((0, 1)) == (Fraction(0), Fraction(-1), Fraction(-1))
    assert g2_eps_coords((3, 2)) == (Fraction(1), Fraction(0), Fraction(-1))


def test_g2_closure_is_fourteen_dimensional():
    assert len(g2_closure_basis()) == 14


def test_g2_closure_matches_the_fixpoint_oracle(monkeypatch):
    basis = g2_closure_basis()
    assert len(basis) == 14
    assert spans_equal(basis, fixpoint_g2_closure(), 49)
    for n, y in enumerate(basis):
        for x in basis[:n]:
            assert span_contains(basis, x.bracket(y), 49)

    calls = []
    bracket = Matrix7.bracket

    def counted(self, other):
        calls.append(1)
        return bracket(self, other)

    monkeypatch.setattr(Matrix7, "bracket", counted)
    assert spans_equal(g2_closure_basis(), basis, 49)
    assert 0 < len(calls) <= 14 * 13 // 2  # each pair of basis elements at most once


def test_checklist_eliminates_and_gathers_each_basis_once(monkeypatch):
    """A cold checklist constructs at most 27 `SpanBuilder`s and gathers the
    nonzero rows of a matrix at most 513 times: twice per bracket, plus once
    for each of the 21 E-basis matrices of the bracket-rule check. With each
    span call eliminating its bases afresh and each of the 441 E-basis
    brackets gathering both sides, the counts were 34 and 1,374."""
    counts = {"builders": 0, "gathers": 0}
    init, gather = SpanBuilder.__init__, so7._nonzero_rows

    def counted_init(self, *args):
        counts["builders"] += 1
        init(self, *args)

    def counted_gather(m):
        counts["gathers"] += 1
        return gather(m)

    monkeypatch.setattr(SpanBuilder, "__init__", counted_init)
    monkeypatch.setattr(so7, "_nonzero_rows", counted_gather)
    build_tables.cache_clear()
    subalgebra_bases.cache_clear()
    got = tuple((r.check_name, r.passed, r.witness) for r in run_appendix_checks())
    assert got == APPENDIX_WITNESSES
    assert 0 < counts["builders"] <= 27
    assert 0 < counts["gathers"] <= 513


def _model_matrices():
    """The 49 E-matrices, the 33 table matrices and the 14 closure elements."""
    t = build_tables()
    e_basis = [e_matrix(i, j) for i in range(1, 8) for j in range(1, 8)]
    return e_basis + list(t.b3.values()) + list(t.g2.values()) + list(t.eps) \
        + list(g2_closure_basis())


def test_bracket_matches_the_dense_oracle_on_the_model():
    mats = _model_matrices()
    assert len(mats) == 49 + 33 + 14
    bad = [(a, b) for a, x in enumerate(mats) for b, y in enumerate(mats)
           if x.bracket(y) != dense_bracket(x, y)]
    assert bad == []


def _is_canonical(m) -> bool:
    """Entries sorted by position in 0..48, each position once, none zero."""
    positions = [k for k, _, _ in m.entries]
    return (isinstance(m, Matrix7) and positions == sorted(set(positions))
            and all(0 <= k < 49 and (re or im) for k, re, im in m.entries))


def test_every_matrix_of_the_model_is_canonical():
    """The tables, the closure, every subalgebra basis, every bracket of two
    table matrices, and each operation on them give canonical matrices."""
    t = build_tables()
    table = list(t.b3.values()) + list(t.g2.values()) + list(t.eps)
    mats = _model_matrices() + [m for basis in subalgebra_bases().values() for m in basis]
    mats += [x.bracket(y) for x in table for y in table]
    x, y = t.g2[(1, 0)], t.b3[(1, 1, 2)]
    mats += [x + y, x - y, x - x, -x, x.scale(0), x.scale((2, -1)), x.conjugate(),
             x.transpose(), Matrix7.zero()]
    assert all(_is_canonical(m) for m in mats)
    assert (x - x) == Matrix7.zero() == x.scale(0) and not Matrix7.zero().entries


@pytest.mark.parametrize("entries", [
    ((3, 0, 0),), ((1, 1, 0), (8, 0, 0)), ((8, 1, 0), (1, -1, 0)), ((1, 1, 0), (1, 0, 1)),
    ((49, 1, 0),), ((-1, 1, 0),),
], ids=["zero", "zero-after", "unsorted", "twice", "past-48", "negative"])
def test_a_non_canonical_matrix_is_refused(entries):
    """A Matrix7 built from entries that are not sorted, unique positions in
    0..48, each nonzero, is refused: equality, is_zero and the span checks
    read its entries as canonical."""
    with pytest.raises(InvalidVectorError):
        Matrix7(entries)
    assert Matrix7(list(((1, 1, 0), (7, -1, 0)))) == e_matrix(1, 2)


def test_bracket_of_every_pair_of_table_matrices_matches_the_dense_oracle():
    t = build_tables()
    table = list(t.b3.values()) + list(t.g2.values()) + list(t.eps)
    assert all(x.bracket(y) == dense_bracket(x, y) for x in table for y in table)


def test_rank_of_every_subalgebra_basis_matches_the_dense_oracle():
    """Each basis of subalgebra_bases has the rank of the dense echelon of
    its matrices made dense, which is its length."""
    for name, basis in subalgebra_bases().items():
        dense = DenseSpanBuilder(49)
        rank = sum(dense.add(m) for m in basis)
        assert span_rank(basis, 49) == rank == len(basis), name


@st.composite
def gaussian_matrices(draw):
    """A 7x7 matrix with entries in -3..3 + (-3..3)i, from all-zero to fully dense."""
    slots = draw(st.permutations(range(49)))[:draw(st.integers(0, 49))]
    entry = st.integers(-3, 3)
    re, im = [0] * 49, [0] * 49
    for k in slots:
        re[k], im[k] = draw(entry), draw(entry)
    return dense_matrix(re, im)


_FULL = dense_matrix([(-1) ** k * (k % 3 + 1) for k in range(49)],
                     [k % 7 - 3 for k in range(49)])


@settings(max_examples=100, deadline=None)
@given(x=gaussian_matrices(), y=gaussian_matrices())
@example(x=Matrix7.zero(), y=Matrix7.zero())
@example(x=Matrix7.zero(), y=_FULL)
@example(x=_FULL, y=_FULL.transpose())
def test_bracket_matches_the_dense_oracle_on_random_matrices(x, y):
    assert x.bracket(y) == dense_bracket(x, y)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_conjugation_commutes_with_brackets(data):
    t = build_tables()
    mats = sorted(t.b3.items()) + sorted(t.g2.items())
    a = data.draw(st.sampled_from(mats))[1]
    b = data.draw(st.sampled_from(mats))[1]
    lhs = a.conjugate().bracket(b.conjugate())
    assert (lhs - a.bracket(b).conjugate()).is_zero


def test_matrix_algebra_identities():
    t = build_tables()
    x, y = t.b3[(1, 0, 0)], t.b3[(0, 1, 0)]
    assert (x.bracket(y) + y.bracket(x)).is_zero
    assert (x.transpose() + x).is_zero  # skew
    assert ((x + y) - (y + x)).is_zero
    assert (x.scale(2) - x - x).is_zero


def test_full_checklist_passes():
    results = run_appendix_checks()
    names = [r.check_name for r in results]
    assert len(names) == len(set(names))
    for r in results:
        assert r.passed, f"{r.check_name}: {r.witness}"


def test_checklist_witnesses_are_pinned():
    got = tuple((r.check_name, r.passed, r.witness) for r in run_appendix_checks())
    assert got == APPENDIX_WITNESSES


def test_witnesses_match_the_benchmark_reference():
    reference = json.loads(BENCH_APPENDIX.read_text())
    assert [(c["check_name"], c["pass"], c["witness"]) for c in reference] \
        == list(APPENDIX_WITNESSES)
