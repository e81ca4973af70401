import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindeg import curve_nbhd, root_system, weyl
from mindeg.exceptions import (
    ConsistencyError, InadmissibleRankError, InvalidVectorError, MixedRootSystemError,
    ResourceGuardError,
)
from mindeg.root_system import (
    Root, RootSystem, SimpleType, admissible, bilinear, build_root_system,
    coroot_coefficients, coroot_pairing, is_long, is_short, reflect, root_leq,
)
from mindeg.parabolic import Parabolic
from mindeg.report import case_reports
from mindeg.weyl import (
    WeylElement, identity, longest_element, mul_gen, reflection, simple_reflection,
)

from oracles import (
    b3_root_coeffs, bilinear_functional, closure_root_coeffs, fraction_coroot,
    fraction_coroot_pairing, g2_root_coeffs, gram_bilinear, inversion_count_reflection_length,
    regex_parse_simple_type, stripping_reflection_word,
)

ALL_TYPES_RANK_LE_8 = (
    [f"A{l}" for l in range(1, 9)]
    + [f"B{l}" for l in range(2, 9)]
    + [f"C{l}" for l in range(2, 9)]
    + [f"D{l}" for l in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

SMALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
               "D3", "D4", "F4", "G2"]


def test_g2_root_set_matches_classical_list(g2):
    assert {r.coeffs for r in g2.roots} == g2_root_coeffs()
    assert len(g2.positive_roots) == 6


def test_b3_root_set_matches_epsilon_model(b3):
    assert {r.coeffs for r in b3.roots} == b3_root_coeffs()
    assert len(b3.positive_roots) == 9


def test_a1_roots():
    a1 = build_root_system("A1")
    assert {r.coeffs for r in a1.roots} == {(1,), (-1,)}


@pytest.mark.parametrize("label", ALL_TYPES_RANK_LE_8)
def test_root_counts(label):
    rs = build_root_system(label)
    counts = {"A": lambda l: l * (l + 1), "B": lambda l: 2 * l * l,
              "C": lambda l: 2 * l * l, "D": lambda l: 2 * l * (l - 1),
              "E": lambda l: {6: 72, 7: 126, 8: 240}[l],
              "F": lambda l: 48, "G": lambda l: 12}
    assert len(rs.roots) == counts[rs.simple_type.family](rs.rank)
    assert 2 * len(rs.positive_roots) == len(rs.roots)


@pytest.mark.parametrize("label", ["A0", "B1", "C1", "D2", "E5", "E9", "F3", "G3", "H4"])
def test_inadmissible_ranks(label):
    with pytest.raises(InadmissibleRankError):
        build_root_system(label)


def test_cartan_pairing_examples(g2):
    b1, b2 = g2.simple_roots
    assert coroot_pairing(b2, b1) == -3
    assert coroot_pairing(b1, b2) == -1
    theta1 = g2.root((3, 2))
    assert coroot_pairing(b2, theta1) == 1


@pytest.mark.parametrize("label", SMALL_TYPES)
def test_pairing_with_own_coroot_is_two(label):
    rs = build_root_system(label)
    for a in rs.roots:
        assert coroot_pairing(a, a) == 2


def test_reflect_examples(g2):
    b1, b2 = g2.simple_roots
    assert reflect(b1, b1).coeffs == (-1, 0)
    assert reflect(b1, b2).coeffs == (3, 1)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "B3"])
def test_reflect_is_involution(label):
    rs = build_root_system(label)
    for a in rs.roots:
        for lam in rs.roots:
            assert reflect(a, reflect(a, lam)) == lam


def test_root_leq(g2):
    b1, b2 = g2.simple_roots
    theta1 = g2.root((3, 2))
    assert root_leq(b1, theta1)
    assert not root_leq(b1, b2)
    assert root_leq(b2, b2)


def test_mixed_systems_rejected(g2, b3):
    with pytest.raises(MixedRootSystemError):
        bilinear(g2.simple_roots[0], b3.simple_roots[0])


def test_coroot_pairing_is_integral_on_roots():
    for label in SMALL_TYPES:
        rs = build_root_system(label)
        for a in rs.roots:
            for b in rs.roots:
                assert isinstance(coroot_pairing(a, b), int)


@pytest.mark.parametrize("label", [
    t for t in ALL_TYPES_RANK_LE_8 if int(t[1:]) <= 6 or t == "E7"])
def test_coroot_pairing_matches_fraction_formula(label):
    rs = build_root_system(label)
    for a in rs.roots:
        for b in rs.roots:
            assert coroot_pairing(a, b) == fraction_coroot_pairing(a, b), (a, b)


@pytest.mark.parametrize("v", [(1,), (1, 0, 0, 0, 0)])
def test_vectors_of_the_wrong_rank_are_refused(b3, v):
    a = b3.simple_roots[0]
    for call in (lambda: coroot_pairing(v, a), lambda: bilinear(v, a),
                 lambda: bilinear(a, v), lambda: reflect(a, v)):
        with pytest.raises(InvalidVectorError):
            call()


def test_coroot_coefficients_example(g2):
    theta1 = g2.root((3, 2))
    assert coroot_coefficients(theta1) == (1, 2)
    highest_short = g2.root((2, 1))
    assert coroot_coefficients(highest_short) == (2, 3)


def test_a_non_integral_coroot_is_a_consistency_error(a2):
    # (1, 2) is no root of A2: its norm is 6, so its coroot would be (1/3, 2/3)
    with pytest.raises(ConsistencyError, match="not integral"):
        coroot_coefficients(Root(a2, (1, 2)))


@pytest.mark.parametrize("label", ALL_TYPES_RANK_LE_8)
def test_root_table_masks_match_the_root_order(label):
    roots, _, above, coroots = build_root_system(label).root_table
    assert above == tuple(sum(1 << k for k, b in enumerate(roots)
                              if b is not a and root_leq(a, b)) for a in roots)
    assert coroots == tuple(coroot_coefficients(a) for a in roots)


@pytest.mark.parametrize("label", ALL_TYPES_RANK_LE_8)
def test_one_pass_matches_the_per_root_oracles(label):
    """Each positive root's coroot, functional, norm, support and word from
    the pass by simple reflections agree with the direct formulas: the word
    is a palindrome that multiplies out to the reflection element, with as
    many letters as that element has inversions."""
    rs = build_root_system(label)
    assert {r.coeffs for r in rs.roots} == closure_root_coeffs(rs)
    assert list(rs.root_data) == sorted(rs.root_data, key=sum)  # by height
    units = [tuple(int(k == i) for k in range(rs.rank)) for i in range(rs.rank)]
    for a in rs.positive_roots:
        data = rs.root_data[a.coeffs]
        assert data.coroot == fraction_coroot(a) == coroot_coefficients(a), a
        assert data.functional == bilinear_functional(a) == tuple(
            fraction_coroot_pairing(u, a) for u in units), a
        assert data.norm == gram_bilinear(rs, a.coeffs, a.coeffs) == bilinear(a, a), a
        assert data.support == sum(1 << k for k, c in enumerate(a.coeffs) if c), a
        word = data.word
        assert word == word[::-1], a
        w = identity(rs)
        for i in word:
            w = mul_gen(w, i)
        assert w == reflection(rs, a), a
        assert len(word) == w.length == inversion_count_reflection_length(a), a
        assert len(word) == len(stripping_reflection_word(a)), a


@pytest.mark.parametrize("label", ALL_TYPES_RANK_LE_8)
def test_tables_read_off_the_one_pass_match_the_direct_formulas(label):
    """The functionals of every root, the support masks and the fits masks
    of the root table agree with bilinear forms, coefficient scans and a scan
    of every root for every bound."""
    rs = build_root_system(label)
    for a in rs.roots:
        assert rs.coroot_functionals[a.coeffs] == bilinear_functional(a), a
    assert rs.root_supports == tuple(sum(1 << k for k, c in enumerate(r.coeffs) if c)
                                     for r in rs.roots)
    _, fits, _, coroots = rs.root_table
    for i, fit in enumerate(fits):
        assert len(fit) == max(c[i] for c in coroots) + 1
        for v, mask in enumerate(fit):
            assert mask == sum(1 << j for j, c in enumerate(coroots) if c[i] <= v), (i, v)


@pytest.mark.parametrize("label", ALL_TYPES_RANK_LE_8)
def test_negation_reverses_the_root_order(label):
    """The negative roots fill the lower half of roots, the positive ones the
    upper half, and -roots[k] is roots[N-1-k]."""
    rs = build_root_system(label)
    n = len(rs.roots)
    assert rs.positive_roots == rs.roots[n // 2:]
    assert [-r for r in rs.roots] == list(reversed(rs.roots))


@pytest.mark.parametrize("label", SMALL_TYPES + ["B5", "E6"])
def test_pairing_rows_match_coroot_pairing_and_the_root_set(label):
    """Over the positive roots gamma, a root's pairing row holds
    (gamma, alpha^vee) and the position of -(alpha + gamma), or -1 where the
    sum is not a root; a negative root has none."""
    rs = build_root_system(label)
    n = len(rs.roots)
    for k in range(n // 2, n):
        alpha = rs.roots[k]
        pairings, negated = rs.pairing_row(k)
        assert pairings == tuple(coroot_pairing(g, alpha) for g in rs.positive_roots)
        sums = [tuple(x + y for x, y in zip(alpha.coeffs, g.coeffs)) for g in rs.positive_roots]
        assert negated == tuple(rs.roots.index(-rs.root(s)) if rs.is_root(s) else -1
                                for s in sums), alpha
        assert rs.pairing_row(k) is rs.pairing_row(k)
    with pytest.raises(ValueError, match="not a positive root"):
        rs.pairing_row(n // 2 - 1)


@pytest.mark.parametrize("label", ["G2", "C3", "F4"])
def test_the_build_path_takes_no_per_root_formula(monkeypatch, label):
    """A fresh system builds its tables and runs the full-flag search with no
    call of bilinear, coroot_coefficients, reflection, inversion_set or
    reduced_word, and finds the memoized system's minimal degrees."""
    def refused(*args):
        raise AssertionError("the build path took a per-root formula")
    for module in (root_system, weyl, curve_nbhd):
        for name in ("bilinear", "coroot_coefficients", "reflection", "inversion_set",
                     "reduced_word"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    rs = RootSystem(SimpleType.parse(label))
    rs.root_table, rs.coroot_functionals, rs.root_supports
    weyl._Steps(rs)
    found = curve_nbhd._borel_minimal(Parabolic(rs, frozenset()))
    monkeypatch.undo()
    assert sorted(found) == sorted(curve_nbhd.minimal_degrees(
        curve_nbhd.borel(build_root_system(label))))


def test_every_type_of_rank_at_most_12_passes_the_root_count():
    counts = [root_system._ROOT_COUNTS[f](l)
              for f in "ABCDEFG" for l in range(1, 13) if admissible(f, l)]
    assert max(counts) == 288 <= root_system._MAX_ROOTS


@pytest.mark.parametrize("label", ["A63", "B45", "C45", "D46", "A1000000", "D" + "9" * 4300])
def test_a_type_past_the_root_count_is_refused_before_it_is_built(monkeypatch, label):
    def unbuilt(*args):
        raise AssertionError("the Cartan matrix was built")
    monkeypatch.setattr(root_system, "_cartan_matrix", unbuilt)
    with pytest.raises(ResourceGuardError, match="more than the 4000 roots"):
        RootSystem(SimpleType.parse(label))


@pytest.mark.parametrize("label", SMALL_TYPES)
def test_coroot_duality(label):
    # alpha -> 2*alpha/(alpha,alpha), applied twice, returns alpha exactly
    rs = build_root_system(label)
    for a in rs.roots:
        v = tuple(Fraction(x) for x in a.coeffs)
        norm = gram_bilinear(rs, v, v)
        dual = tuple(2 * x / norm for x in v)
        dnorm = gram_bilinear(rs, dual, dual)
        double = tuple(2 * x / dnorm for x in dual)
        assert double == v


@pytest.mark.parametrize("label", SMALL_TYPES)
def test_unbroken_root_strings(label):
    rs = build_root_system(label)
    for a in rs.roots:
        for c in rs.roots:
            if a.coeffs == tuple(-x for x in c.coeffs):
                continue
            if bilinear(a, c) < 0:
                total = tuple(x + y for x, y in zip(a.coeffs, c.coeffs))
                assert rs.is_root(total), (label, a, c)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), label=st.sampled_from(["A2", "B2", "B3", "C3", "F4", "G2"]))
def test_invariance_of_form_under_weyl_action(data, label):
    rs = build_root_system(label)
    word = data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=12))
    w = identity(rs)
    from mindeg.weyl import compose
    for i in word:
        w = compose(w, simple_reflection(rs, i))
    a = data.draw(st.sampled_from(rs.roots))
    b = data.draw(st.sampled_from(rs.roots))
    assert bilinear(w.apply(a), w.apply(b)) == bilinear(a, b)


def test_short_long_classification(g2, b3):
    assert is_short(g2.root((1, 0))) and is_long(g2.root((0, 1)))
    assert is_long(g2.root((3, 2))) and is_short(g2.root((2, 1)))
    assert is_long(b3.root((1, 0, 0))) and is_short(b3.root((0, 0, 1)))


def test_simple_type_parsing():
    assert SimpleType.parse("g2") == SimpleType("G", 2)
    assert str(SimpleType.parse("B10")) == "B10"
    with pytest.raises(InadmissibleRankError):
        SimpleType.parse("X5")


# whitespace that is ASCII and not, decimal digits that are ASCII and not
# (Arabic-Indic, fullwidth, mathematical), and digits or numerals that are
# not decimal (superscript two, Roman eight)
_SPACES = " \t\n\x0b\x1c\x85\u00a0\u2003\u3000"
_DIGITS = "0123456789\u0663\uff15\U0001d7d8"
_LABEL_CHARS = "ABCDEFGHXabcdefgx" + _SPACES + _DIGITS + "\u00b2\u2167"


def _parse_outcome(parse, label):
    try:
        return parse(label)
    except InadmissibleRankError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.text(st.one_of(st.sampled_from(_LABEL_CHARS), st.characters()), max_size=6),
    st.tuples(st.text(st.sampled_from(_SPACES), max_size=2),
              st.sampled_from("ABCDEFGHXabcdefgx"),
              st.text(st.sampled_from(_SPACES), max_size=2),
              st.text(st.sampled_from(_DIGITS + "\u00b2\u2167 "), min_size=1, max_size=2),
              st.text(st.sampled_from(_SPACES), max_size=2)).map("".join),
))
def test_simple_type_parse_matches_the_regex(label):
    assert _parse_outcome(SimpleType.parse, label) == \
        _parse_outcome(regex_parse_simple_type, label)


def test_pickling_keeps_root_system_identity(b3):
    import pickle

    from mindeg.curve_nbhd import minimal_degrees
    from mindeg.parabolic import Parabolic
    from mindeg.weyl import bruhat_leq, longest_element

    assert pickle.loads(pickle.dumps(b3)) is b3
    p = Parabolic(b3, frozenset({2}))
    size = len(pickle.dumps(p))
    minimal_degrees(p)  # p now holds its tables and cached properties
    assert len(pickle.dumps(p)) == size  # none of them travels: p pickles by its fields
    for original in (longest_element(b3), b3.highest_root, p):
        copy = pickle.loads(pickle.dumps(original))
        assert copy == original and copy.system is b3
    w = longest_element(b3)
    assert bruhat_leq(pickle.loads(pickle.dumps(w)), w)


def _value_type_examples(rs):
    """(value, its field names, its field values, its repr) for each of the
    four value types, on the system rs of type B3."""
    w = longest_element(rs)
    v = mul_gen(simple_reflection(rs, 0), 1)
    return [
        (rs.simple_type, ("family", "rank"), ("B", 3), "SimpleType(family='B', rank=3)"),
        (rs.highest_root, ("system", "coeffs"), (rs, (1, 2, 2)), "Root(B3, [1, 2, 2])"),
        (w, ("system", "images"), (rs, w.images), "WeylElement(B3, '3 2 3 1 2 3 1 2 1')"),
        (WeylElement(rs, v.images), ("system", "images"), (rs, v.images),
         "WeylElement(B3, '1 2')"),
        (Parabolic(rs, frozenset({2, 3})), ("system", "delta_p"), (rs, frozenset({2, 3})),
         "Parabolic(B3, [2, 3])"),
    ]


def test_value_types_keep_their_contract(b3):
    """SimpleType, Root, WeylElement and Parabolic are immutable; each equals
    only instances of its own class, hashes as the tuple of its fields
    (WeylElement without _length), keeps its repr and pickles to an equal
    value on the same system; a WeylElement keeps its _length."""
    examples = _value_type_examples(b3)
    for x, names, values, text in examples:
        assert tuple(getattr(x, n) for n in names) == values
        for n in (*names, "extra"):
            with pytest.raises(AttributeError):
                setattr(x, n, None)
        for n in names:
            with pytest.raises(AttributeError):
                delattr(x, n)
        assert tuple(getattr(x, n) for n in names) == values
        assert hash(x) == hash(values)
        assert x != values and values != x and x != list(values)
        assert x.__eq__(values) is NotImplemented
        assert sum(x == y for y, *_ in examples) == 1
        assert repr(x) == text
        copy = pickle.loads(pickle.dumps(x))
        assert copy == x and hash(copy) == hash(x) and type(copy) is type(x)
        if "system" in names:
            assert copy.system is b3
    w = longest_element(b3)
    counted = WeylElement(b3, w.images, 9)
    uncounted = WeylElement(b3, w.images)
    assert counted == uncounted and hash(counted) == hash(uncounted)
    assert pickle.loads(pickle.dumps(counted))._length == 9
    assert pickle.loads(pickle.dumps(uncounted))._length is None
    assert uncounted.length == 9 and uncounted._length == 9  # counted on first use


@pytest.mark.parametrize("rank", [True, False, 2.0, 6.0, "2", None])
def test_a_rank_that_is_not_an_int_is_refused(rank):
    """A bool or float rank equals and hashes as an int, so it would reach
    the interning memo as a key equal to "A1" or "A2" and label that system."""
    for family in "AE":
        with pytest.raises(InadmissibleRankError, match="rank"):
            SimpleType(family, rank)


@pytest.mark.parametrize("family", [1, None, b"A"])
def test_a_family_that_is_not_a_str_is_refused(family):
    """The family's type is checked before the substring test against the
    family letters, which raises TypeError for anything but a str."""
    with pytest.raises(InadmissibleRankError, match="no simple type"):
        SimpleType(family, 2)


def test_a_refused_rank_leaves_the_interned_systems_alone():
    with pytest.raises(InadmissibleRankError):
        build_root_system(SimpleType("A", True))
    assert repr(build_root_system("A1")) == "RootSystem(A1)"
    assert {r.type for r in case_reports("A1", ())} == {"A1"}
