import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindeg.curve_nbhd import minimal_degrees
from mindeg.exceptions import InvalidVectorError, MixedRootSystemError
from mindeg.parabolic import Parabolic
from mindeg.report import all_parabolic_subsets, default_types
from mindeg.root_system import RootSystem, SimpleType, build_root_system
from mindeg.tangent_directions import _row
from mindeg.weyl import (
    all_elements, bruhat_leq, center_elements, compose, descent_mask, descents_at,
    first_not_below, hecke_product, hecke_reflection_on_coset, identity, inversion_set,
    longest_element, mul_gen, reduced_left_reflection, reduced_word, reflection,
    right_multiplier, simple_reflection, word_str, _word_texts,
)

from oracles import (
    brute_force_center, fraction_coroot_pairing, is_descent, mul_gen_hecke_reflection_on_coset,
    mul_gen_reduced_word, simple_root_center, stripping_reduced_word,
    subword_bruhat_down_set, unpacked_compose, weyl_group_order, word_apply,
)


def _word_element(rs, word):
    w = identity(rs)
    for i in word:
        w = compose(w, simple_reflection(rs, i))
    return w


def test_compose_examples(a2):
    e = identity(a2)
    s1 = simple_reflection(a2, 0)
    s2 = simple_reflection(a2, 1)
    w = compose(s1, s2)
    assert compose(e, w) == w
    assert compose(s1, s1) == e
    assert w.length == 2
    assert len(inversion_set(w)) == 2


def test_longest_element_examples(g2, b3):
    assert longest_element(g2, ()) == identity(g2)
    w0 = longest_element(g2)
    assert w0.length == 6
    assert all(w0.apply(b).coeffs == (-b.coeffs[0], -b.coeffs[1])
               for b in g2.simple_roots)
    tw0 = longest_element(b3)
    assert tw0.length == 9
    assert all(tw0.apply(b).coeffs == tuple(-c for c in b.coeffs)
               for b in b3.simple_roots)


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_longest_element_length_type_a(l):
    rs = build_root_system(f"A{l}")
    assert longest_element(rs).length == l * (l + 1) // 2


def test_longest_element_inversions_cover_parabolic(b3):
    w = longest_element(b3, (1, 2))
    inv = {r.coeffs for r in inversion_set(w)}
    assert inv == {(0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2)}


def test_bruhat_examples(a2):
    e = identity(a2)
    w0 = longest_element(a2)
    s1 = simple_reflection(a2, 0)
    assert bruhat_leq(e, w0)
    assert not bruhat_leq(w0, e)
    assert bruhat_leq(s1, compose(s1, simple_reflection(a2, 1)))
    assert bruhat_leq(w0, w0)


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_bruhat_matches_subword_oracle(label):
    rs = build_root_system(label)
    group = all_elements(rs)
    for v in group:
        below = subword_bruhat_down_set(v)
        for u in group:
            assert bruhat_leq(u, v) == (u in below), (label, u, v)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_bruhat_on_dihedral_is_graded_by_length(label):
    # in a dihedral group, u <= v iff u == v or u is strictly shorter
    rs = build_root_system(label)
    group = all_elements(rs)
    for u in group:
        for v in group:
            assert bruhat_leq(u, v) == (u == v or u.length < v.length)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
def test_inversion_containment_implies_bruhat(label):
    # containment of inversion sets is the weak order, which refines into Bruhat
    rs = build_root_system(label)
    group = all_elements(rs)
    for u in group:
        iu = set(inversion_set(u))
        for v in group:
            if iu <= set(inversion_set(v)):
                assert bruhat_leq(u, v)


def test_hecke_examples(a2):
    e = identity(a2)
    s1 = simple_reflection(a2, 0)
    s2 = simple_reflection(a2, 1)
    assert hecke_product(s1, s1) == s1
    w = compose(s1, s2)
    assert hecke_product(w, e) == w
    assert hecke_product(compose(s1, s2), compose(s2, s1)) == longest_element(a2)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3", "B3", "C3"])
def test_hecke_length_and_monotonicity_exhaustive(label):
    rs = build_root_system(label)
    group = all_elements(rs)
    for u in group:
        for v in group:
            h = hecke_product(u, v)
            assert h.length >= max(u.length, v.length)
            additive = compose(u, v).length == u.length + v.length
            assert (h.length == u.length + v.length) == additive
            assert bruhat_leq(u, h)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_hecke_associative_sampled_f4(data):
    rs = build_root_system("F4")
    words = [data.draw(st.lists(st.integers(0, 3), max_size=8)) for _ in range(3)]
    u, v, w = (_word_element(rs, word) for word in words)
    assert hecke_product(hecke_product(u, v), w) == hecke_product(u, hecke_product(v, w))


def test_reduced_word_roundtrip(b3):
    for w in all_elements(b3):
        word = reduced_word(w)
        assert len(word) == w.length
        assert _word_element(b3, word) == w


def test_word_serialization(a2):
    w0 = longest_element(a2)
    assert word_str(w0) == "1 2 1"
    assert word_str(identity(a2)) == ""


def _written(w) -> str:
    """The text word_str must give w: the letters of reduced_word, 1-based."""
    return " ".join(str(i + 1) for i in reduced_word(w))


def _row_zs(rs) -> list:
    """z_d of every row of every case of rs, in case order, as the sweep reads them."""
    return [_row(p, d)[0]
            for p in (Parabolic(rs, frozenset(dp)) for dp in all_parabolic_subsets(rs.rank))
            for d in minimal_degrees(p)]


def test_word_str_strips_past_the_memo():
    """word_str writes the letters of reduced_word, 1-based, and adds no
    entry to its memo. Its table on the system holds the text of each
    element it was asked about and of nothing else: no stripped prefix."""
    rs = RootSystem(SimpleType.parse("B3"))  # a fresh system, no word memoized
    elements = all_elements(rs)
    before = reduced_word.cache_info().currsize
    texts = [word_str(w) for w in elements]
    assert reduced_word.cache_info().currsize == before
    assert texts == [_written(w) for w in elements]
    assert _word_texts(rs) == {w.images: text for w, text in zip(elements, texts)}

    rs = RootSystem(SimpleType.parse("B4"))
    zs = _row_zs(rs)
    assert "mindeg.weyl._word_texts" not in vars(rs)
    words = [word_str(z) for z in zs]
    assert reduced_word.cache_info().currsize == before
    table = _word_texts(rs)
    assert (len(zs), len(table)) == (179, 114)  # 114 distinct z's in B4's 179 rows
    assert table == {z.images: word for z, word in zip(zs, words)}


@settings(max_examples=40, deadline=None)
@given(label=st.sampled_from(["B3", "G2"]), identity_first=st.booleans(), data=st.data())
def test_word_str_does_not_depend_on_the_call_order(label, identity_first, data):
    """Each text is the same whatever the system's table held before it was
    written: all_elements of a fresh system in any order. With the identity
    written first, a strip may stop at its text "", which must not add a
    leading space."""
    rs = RootSystem(SimpleType.parse(label))
    e = identity(rs)
    order = data.draw(st.permutations(all_elements(rs)))
    if identity_first:
        order = [e] + [w for w in order if w != e]
    assert [word_str(w) for w in order] == [_written(w) for w in order]
    assert _word_texts(rs)[e.images] == ""


@pytest.mark.parametrize("label", ["A4", "B4"])
def test_row_words_in_reverse_case_order(label):
    """The row z's of every case, the last case first, get the words they
    get in case order."""
    rs = RootSystem(SimpleType.parse(label))
    zs = _row_zs(rs)[::-1]
    assert [word_str(z) for z in zs] == [_written(z) for z in zs]


def test_center_examples(g2, a2):
    e, w0 = identity(g2), longest_element(g2)
    assert center_elements(g2) == frozenset({e, w0})
    assert center_elements(a2) == frozenset({identity(a2)})
    a1 = build_root_system("A1")
    assert center_elements(a1) == frozenset(all_elements(a1))


CENTER_TYPES_RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                          "C2", "C3", "C4", "D3", "D4", "F4", "G2"]


@pytest.mark.parametrize("label", CENTER_TYPES_RANK_LE_4)
def test_center_matches_brute_force(label):
    rs = build_root_system(label)
    assert center_elements(rs) == brute_force_center(rs) == simple_root_center(rs)


@pytest.mark.parametrize("label", CENTER_TYPES_RANK_LE_4)
def test_group_enumeration_has_classical_order(label):
    rs = build_root_system(label)
    assert len(all_elements(rs)) == weyl_group_order(rs)


RANK_LE_3 = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"]


def _draw_element(data, rs):
    """An element built by mul_gen from the identity, so its length is carried."""
    w = identity(rs)
    for i in data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=12)):
        w = mul_gen(w, i)
    return w


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_carried_length_equals_inversion_count(data):
    rs = build_root_system(data.draw(st.sampled_from(RANK_LE_3 + ["F4"])))
    w = _draw_element(data, rs)
    assert w._length is not None
    assert w.length == len(inversion_set(w))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pruned_bruhat_matches_subword_oracle(data):
    rs = build_root_system(data.draw(st.sampled_from(RANK_LE_3)))
    v = _draw_element(data, rs)
    below = subword_bruhat_down_set(v)
    for u in all_elements(rs):
        assert bruhat_leq(u, v) == (u in below), (u, v)


def test_bruhat_uses_every_coordinate_past_rank_8():
    rs = build_root_system("A10")
    v = _word_element(rs, [9, 8, 9, 0])
    below = subword_bruhat_down_set(v)
    others = [simple_reflection(rs, i) for i in range(rs.rank)]
    others += [_word_element(rs, w) for w in ([9, 8], [8, 9], [8, 9, 8], [9, 0], [8, 0])]
    for u in list(below) + others:
        assert bruhat_leq(u, v) == (u in below), u


@pytest.mark.parametrize("label", ["E8", "A10", "F4", "G2"])
def test_packing_round_trips_on_every_root(label):
    """Packing is one-to-one and sign-preserving on roots, and the packed table
    holds each root's coefficients and its coroot functional (the Fraction
    formula), whose entries at the simple roots are the Cartan rows."""
    from mindeg.weyl import _pack, _steps, _unpack
    rs = build_root_system(label)
    packed = [_pack(r.coeffs) for r in rs.roots]
    assert len(set(packed)) == len(rs.roots)
    table = _steps(rs).table
    assert set(table) == set(packed)
    for r, x in zip(rs.roots, packed):
        assert _unpack(x, rs.rank) == r.coeffs
        assert (x > 0) == r.is_positive
        coeffs, functional = table[x]
        assert coeffs == r.coeffs
        dense = tuple(fraction_coroot_pairing(a, r) for a in rs.simple_roots)
        assert functional == tuple((i, c) for i, c in enumerate(dense) if c)
    for i, a in enumerate(rs.simple_roots):
        assert table[_pack(a.coeffs)][1] == tuple((j, c) for j, c in enumerate(rs.cartan[i]) if c)


def test_apply_refuses_vectors_of_the_wrong_rank():
    rs = build_root_system("A3")
    s1 = simple_reflection(rs, 0)
    for v in [(1, 2), (1, 2, 3, 4, 5), ()]:
        with pytest.raises(InvalidVectorError):
            s1.apply(v)
    assert s1.apply((1, 0, 0)) == (-1, 0, 0)
    assert s1.apply((0, 1, 2)) == (1, 1, 2)


def _draw_word(data, rs):
    return data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=12))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_action_matches_unpacked_reference(data):
    rs = build_root_system(data.draw(st.sampled_from(RANK_LE_3 + ["F4", "E6"])))
    word_u, word_v = _draw_word(data, rs), _draw_word(data, rs)
    u, v = _word_element(rs, word_u), _word_element(rs, word_v)
    root = data.draw(st.sampled_from(rs.roots))
    assert u.apply(root).coeffs == word_apply(rs, word_u, root.coeffs)
    vec = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=rs.rank, max_size=rs.rank)))
    assert u.apply(vec) == word_apply(rs, word_u, vec)
    uv = compose(u, v)
    for b in rs.simple_roots:
        assert uv.apply(b.coeffs) == word_apply(rs, word_u + word_v, b.coeffs)
    assert inversion_set(u) == tuple(a for a in rs.positive_roots
                                     if min(word_apply(rs, word_u, a.coeffs)) < 0)


PACKED_PATH_TYPES = [str(t) for t in default_types(6)] + ["E7", "E8"]


@pytest.mark.parametrize("label", PACKED_PATH_TYPES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_packed_paths_match_mul_gen_oracles(label, data):
    """reduced_word, compose and the Hecke step on cosets agree with their
    letter-by-letter versions on random elements, parabolics and roots."""
    rs = build_root_system(label)
    u, v = _draw_element(data, rs), _draw_element(data, rs)
    assert reduced_word(u) == mul_gen_reduced_word(u)
    assert compose(u, v) == unpacked_compose(u, v)
    positions = tuple(sorted(data.draw(st.sets(st.integers(0, rs.rank - 1)))))
    z = u
    while any(z.images[i] < 0 for i in positions):  # the minimal representative of u W_P
        z = mul_gen(z, next(i for i in positions if z.images[i] < 0))
    z_inv = _word_element(rs, reversed(reduced_word(z)))
    for alpha in data.draw(st.lists(st.sampled_from(rs.positive_roots), min_size=1, max_size=4)):
        got = hecke_reflection_on_coset(z, z_inv, alpha, positions)
        want = mul_gen_hecke_reflection_on_coset(z, z_inv, alpha, positions)
        assert got == want
        assert got[0].length == got[1].length == want[0].length == want[1].length
        assert compose(*got) == identity(rs)
        z, z_inv = got


ONE_PASS_TYPES = (
    [f"A{l}" for l in range(1, 9)] + [f"B{l}" for l in range(2, 9)]
    + [f"C{l}" for l in range(2, 9)] + [f"D{l}" for l in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("label", ONE_PASS_TYPES)
def test_hecke_steps_by_the_palindromic_words_match_the_stripped_words(label):
    """The Hecke step on cosets, which reads the reflection words of the
    one pass, agrees with the letter-by-letter step over the stripped word
    of the reflection element, for every positive root: from the identity,
    from s_1 and from s_theta (theta the highest root), on G/B and on the
    parabolics of the first and of the last simple root."""
    rs = build_root_system(label)
    e, s1 = identity(rs), simple_reflection(rs, 0)
    starts = [(e, e), (s1, s1), hecke_reflection_on_coset(e, e, rs.highest_root, ())]
    for positions in {(), (0,), (rs.rank - 1,)}:
        for z, z_inv in starts:
            while any(z.images[i] < 0 for i in positions):  # the minimal representative
                i = next(i for i in positions if z.images[i] < 0)
                z, z_inv = mul_gen(z, i), _word_element(rs, reversed(reduced_word(mul_gen(z, i))))
            for alpha in rs.positive_roots:
                got = hecke_reflection_on_coset(z, z_inv, alpha, positions)
                assert got == mul_gen_hecke_reflection_on_coset(z, z_inv, alpha, positions), (
                    z, alpha, positions)
                assert got[0].length == got[1].length == len(inversion_set(got[0]))


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_descents_at_counts_is_descent(label):
    rs = build_root_system(label)
    for w in all_elements(rs):
        for k in range(rs.rank + 1):
            for positions in itertools.combinations(range(rs.rank), k):
                assert descents_at(w, positions) == sum(
                    is_descent(w, i) for i in positions), (w, positions)
        assert descent_mask(w) == sum(1 << i for i in range(rs.rank) if is_descent(w, i)), w


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_right_multiplier_matches_compose(label):
    """The sparse product by each longest parabolic element w_S, and by
    every seventh element of the group, equals the unpacked product and
    carries the length it is given."""
    rs = build_root_system(label)
    elements = all_elements(rs)
    tops = [longest_element(rs, s) for k in range(rs.rank + 1)
            for s in itertools.combinations(range(rs.rank), k)]
    for v in tops + list(elements[::7]):
        times_v = right_multiplier(v)
        for u in elements:
            got = times_v(u, 5)
            assert got == unpacked_compose(u, v), (u, v)
            assert got.length == 5
    with pytest.raises(MixedRootSystemError):
        right_multiplier(identity(rs))(identity(build_root_system("A2")), 0)


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_reduced_word_matches_the_stripping_loop(label):
    """The scan that restarts at the stripped letter's Cartan row gives the
    words of the scan from the first position, on the whole group."""
    for w in all_elements(build_root_system(label)):
        assert reduced_word(w) == stripping_reduced_word(w), w


def _inverse(w):
    return _word_element(w.system, reversed(reduced_word(w)))


def _check_reduced_left_reflection(z, z_inv, alpha):
    """reduced_left_reflection is None exactly when the Hecke step lengthens
    z by less than l(s_alpha), and is otherwise the Hecke step's pair."""
    got = reduced_left_reflection(z, z_inv, alpha)
    want = hecke_reflection_on_coset(z, z_inv, alpha, ())
    if want[0].length < z.length + reflection(z.system, alpha).length:
        assert got is None, (z, alpha)
    else:
        assert got == want, (z, alpha)
        assert got[0]._length == got[1]._length == want[0]._length == len(inversion_set(got[0]))


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_reduced_left_reflection_matches_the_hecke_step(label):
    rs = build_root_system(label)
    for z in all_elements(rs):
        z_inv = _inverse(z)
        for alpha in rs.positive_roots:
            _check_reduced_left_reflection(z, z_inv, alpha)


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_hecke_steps_take_alpha_and_minus_alpha_alike(label):
    """s_alpha = s_{-alpha}: both Hecke steps return the same pair, with the
    same lengths, or both None, for alpha and -alpha, over the whole group,
    on G/B and on the parabolic of the first simple root."""
    rs = build_root_system(label)
    for z in all_elements(rs):
        z_inv = _inverse(z)
        for alpha in rs.positive_roots:
            pairs = [reduced_left_reflection(z, z_inv, r) for r in (alpha, -alpha)]
            assert pairs[0] == pairs[1], (z, alpha)
            if pairs[0] is not None:
                assert [w._length for w in pairs[0]] == [w._length for w in pairs[1]]
            for positions in ((), (0,)):
                if any(z.images[i] < 0 for i in positions):
                    continue  # z is not the minimal representative of z W_P
                pairs = [hecke_reflection_on_coset(z, z_inv, r, positions) for r in (alpha, -alpha)]
                assert pairs[0] == pairs[1], (z, alpha, positions)
                assert [w._length for w in pairs[0]] == [w._length for w in pairs[1]]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reduced_left_reflection_matches_the_hecke_step_sampled_f4(data):
    rs = build_root_system("F4")
    z = _draw_element(data, rs)
    _check_reduced_left_reflection(z, _inverse(z), data.draw(st.sampled_from(rs.positive_roots)))


def _first_not_below_by_pairs(us, v):
    return next((k for k, u in enumerate(us) if not bruhat_leq(u, v)), None)


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_first_not_below_matches_the_subword_oracle(label):
    """One walk down v for a list of u's reports the index of the first u
    that the subword oracle puts outside the interval below v, the index a
    walk per u (bruhat_leq) reports: a failing u first, in the middle and
    last, two failing u's, and a u of v's length that is not v."""
    rs = build_root_system(label)
    group = all_elements(rs)
    for v in group:
        down = subword_bruhat_down_set(v)
        for u in group:
            assert (first_not_below([u], v) is None) == (u in down) == bruhat_leq(u, v), (u, v)
        below = [u for u in group if u in down]
        outside = [u for u in group if u not in down]
        assert first_not_below(below, v) is None
        assert first_not_below(below[::-1], v) is None
        same = [u for u in outside if u.length == v.length]
        for u in same[:1] + outside[:1] + outside[-1:]:
            for order in (below, below[::-1]):
                for k in (0, len(order) // 2, len(order)):
                    us = order[:k] + [u] + order[k:]
                    assert first_not_below(us, v) == k == _first_not_below_by_pairs(us, v)
                    assert first_not_below(us + outside, v) == k, (u, v)
        if outside:
            assert first_not_below(outside, v) == 0
    with pytest.raises(MixedRootSystemError):
        first_not_below([identity(build_root_system("A2"))], identity(rs))
