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
below -1, which make the strong pairs. The roots are sorted by coefficients,
the order of td, so td is the OR of the cascade's masks read from the lowest
bit up. The degree-wide checks (bijectivity, disjointness, associated pairs)
run once per degree, in key_inequality, which validates d, reads z_d and its
lifting off the table of minimal degrees, and reports z_d, the cascade and
both direction sets; tangent_direction_sets returns those sets. The lemma
checks read the pairings: the pair map's domain is the negative ones, the
bound their absolute values, and the count identity weighs them, with its
left side chosen by the action of s_alpha on gamma, not by their sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, mul

from .exceptions import (
    ConsistencyError, ExceptionalCaseError, NotMinimalDegreeError,
    UniquenessViolationError,
)
from .cascade import cascade_roots
from .curve_nbhd import (
    _minimal, _z_and_lifting, borel, curve_neighborhood_element, is_minimal_degree, lifting,
    point_class_degree,
)
from .parabolic import Degree, Parabolic, c1_pairing, dim_x
from .root_system import Root, RootSystem, bilinear, coroot_pairing, is_long, is_short
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


@dataclass(frozen=True)
class TangentDirectionSets:
    td: tuple[Root, ...]
    td_tilde: tuple[Root, ...]
    strong_pairs: tuple[tuple[Root, Root], ...]  # (alpha, gamma) with (gamma, alpha^vee) < -1


@dataclass(frozen=True)
class KeyInequalityReport:
    lhs: int
    rhs: int
    holds: bool
    exception: bool
    sets: TangentDirectionSets  # the directions rhs counts
    z: WeylElement  # z_d, whose length lhs subtracts
    cascade: tuple[Root, ...]  # of the lifting of d, by coefficients


@dataclass(frozen=True)
class QuasiHomogeneityVerdict:
    kind: str
    moduli_dim: int | None = None
    group_dim: int | None = None


def _outside_levi(p: Parabolic, cascade: tuple[Root, ...]) -> tuple[Root, ...]:
    return tuple(a for a in cascade if a in p.outside_levi_set)


def _cascade_outside_levi(p: Parabolic, d: Degree) -> tuple[Root, ...]:
    return _outside_levi(p, cascade_roots(p.system, lifting(p, d)))


@lru_cache(maxsize=None)
def _root_directions(p: Parabolic, alpha: Root) -> tuple[
        int, tuple[Root, ...], tuple[int, ...]]:
    """The roots -alpha-gamma, gamma in R_P+ or 0, each checked in R- \\ R_P-,
    as a mask over the positions of the system's roots (root_positions); the
    gamma in R_P+ with (gamma, alpha^vee) < -1; and the pairings
    (gamma, alpha^vee) themselves, gamma dotted with alpha's functional. Both
    tuples follow the order of R_P+."""
    rs = p.system
    positions, a = rs.root_positions, alpha.coeffs
    mask = 0
    for s in [a] + [tuple(map(add, a, g.coeffs)) for g in p.levi_positive]:
        if s in positions:  # s = alpha + gamma is a root
            r = tuple([-c for c in s])
            if not p.outside_levi(rs.root(s)):
                raise ConsistencyError(f"tangent direction {rs.root(r)} not in R- \\ R_P-")
            mask |= 1 << positions[r]
    f = rs.coroot_functionals[a]
    pairings = tuple([sum(map(mul, g.coeffs, f)) for g in p.levi_positive])
    strong = tuple([g for g, v in zip(p.levi_positive, pairings) if v < -1])
    return mask, strong, pairings


def _plain_directions(p: Parabolic, casc: tuple[Root, ...]) -> int:
    """The union of the plain directions of the cascade roots casc, as a mask."""
    mask = 0
    for a in casc:
        mask |= _root_directions(p, a)[0]
    return mask


def _roots_at(rs: RootSystem, mask: int) -> tuple[Root, ...]:
    """The roots at the set bits of a mask over root positions, in the order
    of rs.roots, which is by coefficients."""
    roots, out = rs.roots, []
    while mask:
        low = mask & -mask
        out.append(roots[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


def associated_pair(p: Parabolic, d: Degree, alpha: Root, gamma: Root) -> tuple[Root, Root]:
    """The pair (alpha', gamma') attached to (alpha, gamma) with (alpha, gamma) < 0.

    alpha' is the unique cascade root outside the Levi pairing positively with
    gamma; gamma' is -z_e(gamma). The defining properties are re-verified on
    every call and any failure is fatal.
    """
    casc = _cascade_outside_levi(p, d)
    z_e = curve_neighborhood_element(borel(p.system), lifting(p, d))
    return _associated_pair(p, casc, _plain_directions(p, casc), z_e, alpha, gamma)


def _associated_pair(p: Parabolic, casc: tuple[Root, ...], plain: int, z_e: WeylElement,
                     alpha: Root, gamma: Root) -> tuple[Root, Root]:
    """associated_pair for the cascade casc outside the Levi, with plain
    directions plain (a mask), of a lifting whose z is z_e."""
    rs = p.system
    if alpha not in casc:
        raise ValueError(f"{alpha} is not a cascade root outside the Levi")
    if gamma not in p.levi_positive_set:
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
    if -z_e.apply(gamma_p) not in p.levi_positive_set:
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


def _direction_sets(p: Parabolic, e: Degree, casc: tuple[Root, ...]) -> TangentDirectionSets:
    """The direction sets of the minimal degree of p with lifting e, casc
    the cascade of e outside the Levi. td is the union of the rows' masks, and
    each extra direction one bit of another mask, both listed by position."""
    rs = p.system
    strong, plain = [], 0
    for a in casc:
        mask, gammas, _ = _root_directions(p, a)
        plain |= mask
        strong += [(a, g) for g in gammas]
    extra = 0
    if strong:
        z_e = _minimal(borel(rs))[0][e][0]
        seen_gamma = {}
        for a, g in strong:
            if seen_gamma.setdefault(g, a) != a:
                raise ConsistencyError(
                    f"two orthogonal cascade roots pair below -1 with {g}")
            ap, gp = _associated_pair(p, casc, plain, z_e, a, g)
            bit = 1 << rs.root_positions[tuple(y - x for x, y in zip(ap.coeffs, gp.coeffs))]
            if extra & bit:
                raise ConsistencyError(
                    "the strong pairs do not biject onto the extra directions")
            extra |= bit
    if extra & plain:
        raise ConsistencyError("extra tangent directions must avoid the plain ones")
    td_tilde = _roots_at(rs, extra)
    for r in td_tilde:
        if not p.outside_levi(-r):
            raise ConsistencyError(f"extra tangent direction {r} not in R- \\ R_P-")
    return TangentDirectionSets(_roots_at(rs, plain), td_tilde, tuple(strong))


def pair_map_is_injective(p: Parabolic, d: Degree) -> bool:
    """(alpha, gamma) -> -alpha-gamma is injective into the directions off -cascade.

    The domain is all pairs with (alpha, gamma) < 0; well-definedness of the
    map is part of the check.
    """
    rs = p.system
    casc = _cascade_outside_levi(p, d)
    domain = [(a, g) for a in casc  # (gamma, alpha^vee) has the sign of (alpha, gamma)
              for g, v in zip(p.levi_positive, _root_directions(p, a)[2]) if v < 0]
    negated = {-a for a in casc}
    plain = _plain_directions(p, casc)
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
    rs = p.system
    if (rs.simple_type.family, rs.simple_type.rank) != ("G", 2):
        return False
    long_simple = {i + 1 for i, b in enumerate(rs.simple_roots) if is_long(b)}
    if p.delta_p != frozenset(long_simple):
        return False
    return tuple(d) == point_class_degree(p)


def coroot_pairing_bound_holds(p: Parabolic, d: Degree) -> bool:
    """|(gamma, alpha^vee)| <= 2 over cascade alpha outside the Levi, gamma in R_P+.

    On the unique exceptional triple the bound provably fails with a witness
    value of absolute value 3; that case raises instead of returning False.
    """
    casc = _cascade_outside_levi(p, d)  # raises NotMinimalDegreeError via lifting
    if is_exceptional_triple(p, d):
        witness = [(g, a, v) for a in casc
                   for g, v in zip(p.levi_positive, _root_directions(p, a)[2])
                   if abs(v) == 3]
        raise ExceptionalCaseError(
            "the pairing bound fails on the excluded triple", witness=witness)
    return all(abs(v) <= 2 for a in casc for v in _root_directions(p, a)[2])


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
    for a in _cascade_outside_levi(p, d):
        s_a = reflection(rs, a)
        row = _root_directions(p, a)[2]
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
    z_d and the lifting read off the table of minimal degrees; the report
    carries z_d and the cascade of the lifting too."""
    z, e = _z_and_lifting(p, d)  # checks d, once
    cascade = cascade_roots(p.system, e)
    sets = _direction_sets(p, e, _outside_levi(p, cascade))
    lhs = sum(map(mul, d, p.c1_weights)) - z.length  # c1_pairing, d already checked
    rhs = len(sets.td) + len(sets.td_tilde)
    return KeyInequalityReport(lhs, rhs, lhs <= rhs, is_exceptional_triple(p, d), sets,
                               z, cascade)


def quasi_homogeneity_verdict(p: Parabolic, d: Degree) -> QuasiHomogeneityVerdict:
    """Dense orbit under the group itself, except on the exceptional triple.

    There the moduli space outgrows the group (the dimension witness), and
    only the full automorphism group of X retains a dense orbit.
    """
    if not is_minimal_degree(p, d):
        raise NotMinimalDegreeError(f"{d} is not a minimal degree")
    if is_exceptional_triple(p, d):
        rs = p.system
        return QuasiHomogeneityVerdict(
            VERDICT_ONLY_AUT_X,
            moduli_dim=c1_pairing(p, d) + dim_x(p),
            group_dim=len(rs.roots) + rs.rank,
        )
    return QuasiHomogeneityVerdict(VERDICT_DENSE_G_ORBIT)
