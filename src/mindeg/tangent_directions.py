"""Tangent directions attached to a minimal degree, and the key inequality.

For a minimal degree d with lifting e, the tangent directions are the
negative roots -alpha-gamma with alpha in the cascade of e outside the Levi
and gamma in R_P+ or zero. Additional tangent directions arise from pairs
with coroot pairing below -1 via the associated-pair construction. The key
inequality compares (c_1(X), d) - len(z_d) against the number of directions;
it holds everywhere except on one exceptional triple in type G2, which is
exactly where the quasi-homogeneity verdict degrades from the group action
to the full automorphism group.

Everything here reads one row per (P, alpha), alpha a cascade root outside
the Levi (_root_directions): the plain directions -alpha-gamma, each checked
once in R- \\ R_P-, as a bitmask over the positions of the system's roots;
the pairings (gamma, alpha^vee) in the order of R_P+; and the gammas pairing
below -1, which make the strong pairs. The rows run on root positions. The
roots are sorted by coefficients, the order of td, so td is the OR of the
cascade's masks read from the lowest bit up; the negative roots fill the
lower half of that order, and negation reverses it: -roots[k] is
roots[N-1-k], N the number of roots. Since R_P = -R_P, the upper half of
the Levi positions is R_P+, so the (P, alpha) row is a slice of alpha's
pairing row (RootSystem.pairing_row), which holds (gamma, alpha^vee) and the
position of -(alpha+gamma) over every positive gamma and which every
parabolic of the system shares. Pairing rows are built for the roots a
cascade reaches and (P, alpha) rows are held on their parabolic (_held,
freed with it), both on first read; each row reads the slice offsets and
the mask of R- \\ R_P- from the parabolic's row context (_row_context).

One kernel (_row) computes the row of a degree d, and only it walks the
degree's (P, alpha) rows. It reads d's entry (z_d, lifting, the lifting's
cascade mask) off the table of minimal degrees when the parabolic holds it
and otherwise decides it locally (curve_nbhd); ANDs the cascade mask with
the context's outside mask, whose bits are the cascade roots in
R+ \\ R_P+; and, reading each of their rows once, ORs the rows' plain
masks into td and lists the strong pairs by alpha, then by R_P+. A degree
with strong pairs runs the degree-wide checks (one alpha per gamma,
associated pairs, bijectivity, disjointness; _extra_directions) on what the
walk collected, for td~. The kernel returns z_d, the masks of the cascade,
td and td~, the strong pairs, lhs = (c_1(X), d) - len(z_d) and rhs, the
bits of td and td~. key_inequality lists the masks' roots
(tangent_direction_sets returns its sets), report writes their texts or
coefficients, and associated_pair and pair_map_is_injective read its td, so
all read one lhs, rhs and td. The lemma checks read the pairings: the pair
map's domain is the negative ones, the bound their absolute values, and the
count identity weighs them, with its left side chosen by the action of
s_alpha on gamma, not by their sign.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .exceptions import (
    ConsistencyError, ExceptionalCaseError, NotMinimalDegreeError,
    UniquenessViolationError,
)
from .cascade import _items_at
from .curve_nbhd import _entry, _held, _z_and_lifting, _z_pair, borel, point_class_degree
from .parabolic import Degree, Parabolic, c1_pairing, dim_x
from .root_system import Root, bilinear, coroot_pairing, is_long, is_short
from .weyl import WeylElement, reflection

__all__ = [
    "TangentDirectionSets", "KeyInequalityReport", "QuasiHomogeneityVerdict",
    "VERDICT_DENSE_G_ORBIT", "VERDICT_ONLY_AUT_X",
    "associated_pair", "tangent_direction_sets", "pair_map_is_injective",
    "coroot_pairing_bound_holds", "weighted_pair_count_identity_holds",
    "key_inequality", "is_exceptional_triple", "quasi_homogeneity_verdict",
]

VERDICT_DENSE_G_ORBIT = "DenseGOrbit"
VERDICT_ONLY_AUT_X = "OnlyAutX"


class TangentDirectionSets(NamedTuple):
    td: tuple[Root, ...]
    td_tilde: tuple[Root, ...]
    strong_pairs: tuple[tuple[Root, Root], ...]  # (alpha, gamma) with (gamma, alpha^vee) < -1


class KeyInequalityReport(NamedTuple):
    lhs: int
    rhs: int
    holds: bool
    exception: bool
    sets: TangentDirectionSets  # the directions rhs counts
    z: WeylElement  # z_d, whose length lhs subtracts
    cascade: tuple[Root, ...]  # of the lifting of d, by coefficients


class QuasiHomogeneityVerdict(NamedTuple):
    kind: str
    moduli_dim: int | None = None
    group_dim: int | None = None


@_held
def _row_context(p: Parabolic) -> tuple[int, tuple[int, ...], bool, tuple[int, ...], int]:
    """What every row of p reads of p, held on p (_held): (outside, weights,
    g2, levi, below). outside is R+ \\ R_P+ (Parabolic.outside_mask),
    weights the c1 weights (Parabolic.c1_weights), and g2 whether the type
    is G2, the only one with an exceptional triple. levi holds the indices
    of R_P+ in a pairing row, which indexes the positive roots with
    gamma = roots[N/2 + j] at index j, so the upper half of the Levi
    positions less N/2; below masks R- \\ R_P-
    (Parabolic.negative_outside_mask). A plain tuple: a NamedTuple class
    would add its build to the import of every cold query."""
    rs = p.system
    half, levi = len(rs.roots) // 2, p.levi_positions
    return (p.outside_mask, p.c1_weights, (rs.simple_type.family, rs.rank) == ("G", 2),
            tuple([j - half for j in levi[len(levi) // 2:]]), p.negative_outside_mask)


def _cascade_outside_levi(p: Parabolic, d: Degree) -> tuple[int, ...]:
    """The positions of the cascade roots of d's lifting in R+ \\ R_P+."""
    mask = _z_and_lifting(p, d)[2] & p.outside_mask
    return _items_at(range(mask.bit_length()), mask)


@_held
def _root_directions(p: Parabolic, k: int) -> tuple[int, tuple[Root, ...], tuple[int, ...]]:
    """The (P, alpha) row of alpha = roots[k] in R+ \\ R_P+, held on p by k
    (_held): the roots -alpha-gamma, gamma in R_P+ or 0, as a mask over the
    positions of the system's roots, checked to lie in R- \\ R_P-; the gamma
    in R_P+ with (gamma, alpha^vee) < -1; and the pairings (gamma, alpha^vee)
    themselves. Both tuples follow the order of R_P+.

    The row is the slice over R_P+ of alpha's pairing row
    (RootSystem.pairing_row), which every parabolic of the system shares,
    at the offsets of the row context (_row_context). With N roots, -alpha
    is roots[N-1-k].
    """
    rs = p.system
    _, _, _, levi, below = _row_context(p)
    all_pairings, negated = rs.pairing_row(k)
    mask = 1 << len(rs.roots) - 1 - k  # -alpha
    for j in levi:
        if negated[j] >= 0:  # alpha + gamma is a root
            mask |= 1 << negated[j]
    bad = mask & ~below
    if bad:
        raise ConsistencyError(
            f"tangent direction {_items_at(rs.roots, bad)[0]} not in R- \\ R_P-")
    pairings = tuple([all_pairings[j] for j in levi])
    strong = tuple([g for g, v in zip(p.levi_positive, pairings) if v < -1])
    return mask, strong, pairings


def _in_levi_positive(p: Parabolic, r: Root) -> bool:
    """True when r is a root of p's system in R_P+."""
    return r.system is p.system and r.is_positive and not p.outside_levi(r)


def associated_pair(p: Parabolic, d: Degree, alpha: Root, gamma: Root) -> tuple[Root, Root]:
    """The pair (alpha', gamma') attached to (alpha, gamma) with (alpha, gamma) < 0.

    alpha' is the unique cascade root outside the Levi pairing positively with
    gamma; gamma' is -z_e(gamma). The defining properties are re-verified on
    every call and any failure is fatal.
    """
    _, cascade, plain = _row(p, d)[:3]
    rs = p.system
    return _associated_pair(p, _items_at(rs.roots, cascade & p.outside_mask), plain,
                            _z_pair(borel(rs), _z_and_lifting(p, d)[1])[0], alpha, gamma)


def _associated_pair(p: Parabolic, casc: tuple[Root, ...], plain: int, z_e: WeylElement,
                     alpha: Root, gamma: Root) -> tuple[Root, Root]:
    """associated_pair for the cascade casc outside the Levi, with plain
    directions plain (a mask), of a lifting whose z is z_e."""
    rs = p.system
    if alpha not in casc:
        raise ValueError(f"{alpha} is not a cascade root outside the Levi")
    if not _in_levi_positive(p, gamma):
        raise ValueError(f"{gamma} is not in R_P+")
    if bilinear(alpha, gamma) >= 0:
        raise ValueError("associated pairs require (alpha, gamma) < 0")
    primed = [a for a in casc if bilinear(a, gamma) > 0]
    if len(primed) != 1:
        raise UniquenessViolationError(
            f"expected exactly one cascade root pairing positively with {gamma}, got {primed}")
    alpha_p = primed[0]
    gamma_p = rs.root(tuple(-c for c in z_e.apply(gamma.coeffs)))

    if not gamma_p.is_positive:
        raise ConsistencyError("gamma' must be positive")
    if not _in_levi_positive(p, -z_e.apply(gamma_p)):
        raise ConsistencyError("z_e(gamma') must land in R_P-")
    if coroot_pairing(gamma, alpha_p) != 1:
        raise ConsistencyError("(gamma, alpha'^vee) must be 1")
    diff = tuple(x - y for x, y in zip(alpha_p.coeffs, gamma_p.coeffs))
    if not rs.is_root(diff) or not p.outside_levi(rs.root(diff)):
        raise ConsistencyError("alpha' - gamma' must be a root in R+ \\ R_P+")

    if coroot_pairing(gamma, alpha) < -1:
        if not (is_short(alpha) and is_long(gamma)):
            raise ConsistencyError("a pairing below -1 forces alpha short, gamma long")
        if coroot_pairing(alpha_p, gamma) != 1:
            raise ConsistencyError("(alpha', gamma^vee) must be 1")
        if plain >> rs.root_positions[tuple(-x for x in diff)] & 1:
            raise ConsistencyError("-alpha' + gamma' may not be a plain tangent direction")
    return alpha_p, gamma_p


def tangent_direction_sets(p: Parabolic, d: Degree) -> TangentDirectionSets:
    """Both direction sets, with the bijectivity and disjointness checks applied.

    td is -alpha-gamma over cascade alpha outside the Levi and gamma in R_P+
    or 0, the union of the plain directions of the cascade's rows.
    """
    return key_inequality(p, d).sets


def _extra_directions(p: Parabolic, e: Degree, casc: int, plain: int,
                      strong: tuple[tuple[Root, Root], ...]) -> int:
    """The mask of td~ of the minimal degree of p with lifting e, from what
    its row (_row) collected: casc, the mask of the cascade of e outside
    the Levi, plain, the mask of td, and the strong pairs. Each strong pair
    gives one extra direction, gamma' - alpha' of its associated pair;
    checked: one cascade root per gamma, a bijection onto the extra
    directions, which avoid td and lie in R- \\ R_P-."""
    rs = p.system
    z_e = _z_pair(borel(rs), e)[0]  # in the z table on either path
    alphas = _items_at(rs.roots, casc)
    seen_gamma, extra = {}, 0
    for a, g in strong:
        if seen_gamma.setdefault(g, a) != a:
            raise ConsistencyError(f"two orthogonal cascade roots pair below -1 with {g}")
        ap, gp = _associated_pair(p, alphas, plain, z_e, a, g)
        bit = 1 << rs.root_positions[tuple(y - x for x, y in zip(ap.coeffs, gp.coeffs))]
        if extra & bit:
            raise ConsistencyError("the strong pairs do not biject onto the extra directions")
        extra |= bit
    if extra & plain:
        raise ConsistencyError("extra tangent directions must avoid the plain ones")
    bad = extra & ~_row_context(p)[4]  # below
    if bad:
        raise ConsistencyError(f"extra tangent direction {_items_at(rs.roots, bad)[0]} "
                               f"not in R- \\ R_P-")
    return extra


def _row(p: Parabolic, d: Degree) -> tuple[WeylElement, int, int, int, tuple, int, int, bool]:
    """The row of d on p (see the module docstring): z_d; the masks of the
    cascade of d's lifting, of td and of td~; the strong pairs; lhs, rhs;
    and whether (p, d) is the exceptional triple. NotMinimalDegreeError
    unless d is a minimal degree of p."""
    z, e, cascade = _z_and_lifting(p, d)  # checks d, once
    outside, weights, g2, _, _ = _row_context(p)
    casc = todo = cascade & outside
    plain, strong = 0, ()
    while todo:
        low = todo & -todo
        todo ^= low
        k = low.bit_length() - 1
        mask, gammas, _ = _root_directions(p, k)
        plain |= mask
        if gammas:
            alpha = p.system.roots[k]
            strong += tuple([(alpha, g) for g in gammas])
    extra = _extra_directions(p, e, casc, plain, strong) if strong else 0
    lhs = sum(map(mul, d, weights)) - z.length  # c1_pairing, d already checked
    return (z, cascade, plain, extra, strong, lhs, plain.bit_count() + extra.bit_count(),
            g2 and is_exceptional_triple(p, d))


def pair_map_is_injective(p: Parabolic, d: Degree) -> bool:
    """(alpha, gamma) -> -alpha-gamma is injective into the directions off -cascade.

    The domain is all pairs with (alpha, gamma) < 0; well-definedness of the
    map is part of the check.
    """
    rs = p.system
    casc = _cascade_outside_levi(p, d)
    domain = [(rs.roots[k], g) for k in casc  # (gamma, alpha^vee) has the sign of (alpha, gamma)
              for g, v in zip(p.levi_positive, _root_directions(p, k)[2]) if v < 0]
    negated = {-rs.roots[k] for k in casc}
    plain = _row(p, d)[2]
    images = set()
    for a, g in domain:
        s = tuple(x + y for x, y in zip(a.coeffs, g.coeffs))
        if not rs.is_root(s):
            return False
        img = rs.root(tuple(-c for c in s))
        if img in negated or not plain >> rs.root_positions[img.coeffs] & 1:
            return False
        images.add(img)
    return len(images) == len(domain)


def is_exceptional_triple(p: Parabolic, d: Degree) -> bool:
    """Type G2, Delta_P the long simple root, d the point-class degree."""
    p.check_degree(d)
    rs = p.system
    if (rs.simple_type.family, rs.simple_type.rank) != ("G", 2):
        return False
    long_simple = {i + 1 for i, b in enumerate(rs.simple_roots) if is_long(b)}
    if p.delta_p != frozenset(long_simple):
        return False
    return d == point_class_degree(p)


def coroot_pairing_bound_holds(p: Parabolic, d: Degree) -> bool:
    """|(gamma, alpha^vee)| <= 2 over cascade alpha outside the Levi, gamma in R_P+.

    On the unique exceptional triple the bound provably fails with a witness
    value of absolute value 3; that case raises instead of returning False.
    """
    casc = _cascade_outside_levi(p, d)  # raises NotMinimalDegreeError via _entry
    if is_exceptional_triple(p, d):
        witness = [(g, p.system.roots[k], v) for k in casc
                   for g, v in zip(p.levi_positive, _root_directions(p, k)[2])
                   if abs(v) == 3]
        raise ExceptionalCaseError(
            "the pairing bound fails on the excluded triple", witness=witness)
    return all(abs(v) <= 2 for k in casc for v in _root_directions(p, k)[2])


def weighted_pair_count_identity_holds(p: Parabolic, d: Degree) -> bool:
    """-sum of (gamma, alpha^vee) over non-inverted gamma equals the weighted counts.

    Weights 1, 2, 3 count the pairs with pairing -1, -2, -3. Off the
    exceptional triple the same total also collapses to the two cardinalities
    card{pairing < 0} + card{pairing < -1}. A gamma is non-inverted when
    s_alpha(gamma) is positive.
    """
    rs = p.system
    lhs = 0
    pairings = []
    for k in _cascade_outside_levi(p, d):
        s_a = reflection(rs, rs.roots[k])
        row = _root_directions(p, k)[2]
        lhs -= sum(v for g, v in zip(p.levi_positive, row) if s_a.apply(g).is_positive)
        pairings += row
    weighted = sum({-1: 1, -2: 2, -3: 3}.get(v, 0) for v in pairings)
    ok = lhs == weighted
    if not is_exceptional_triple(p, d):
        collapsed = sum(1 for v in pairings if v < 0) + sum(1 for v in pairings if v < -1)
        ok = ok and lhs == collapsed
    return ok


def key_inequality(p: Parabolic, d: Degree) -> KeyInequalityReport:
    """(c_1(X), d) - len(z_d) against the number of tangent directions,
    z_d and the lifting read off the table of minimal degrees when p holds
    it, and otherwise decided locally; the report carries z_d and the
    cascade of the lifting too. The row kernel's masks (_row), as roots."""
    z, cascade, plain, extra, pairs, lhs, rhs, exception = _row(p, d)
    roots = p.system.roots
    sets = TangentDirectionSets(_items_at(roots, plain), _items_at(roots, extra), pairs)
    return KeyInequalityReport(lhs, rhs, lhs <= rhs, exception, sets, z,
                               _items_at(roots, cascade))


def quasi_homogeneity_verdict(p: Parabolic, d: Degree) -> QuasiHomogeneityVerdict:
    """Dense orbit under the group itself, except on the exceptional triple.

    There the moduli space outgrows the group (the dimension witness), and
    only the full automorphism group of X retains a dense orbit.
    """
    if _entry(p, d) is None:
        raise NotMinimalDegreeError(f"{d} is not a minimal degree")
    if is_exceptional_triple(p, d):
        rs = p.system
        return QuasiHomogeneityVerdict(
            VERDICT_ONLY_AUT_X,
            moduli_dim=c1_pairing(p, d) + dim_x(p),
            group_dim=len(rs.roots) + rs.rank,
        )
    return QuasiHomogeneityVerdict(VERDICT_DENSE_G_ORBIT)
