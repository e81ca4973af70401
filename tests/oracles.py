"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: root sets come from
explicit epsilon-coordinate models, Bruhat order from the subword property,
centers from commutation against every generator (or, over the whole
group, from the images of the simple roots), the order of W from the
classical formulas, the Levi intersection from R(P) cut by w_o, maximal
roots from a pairwise comparison and from a root table built for one parabolic, coroot
and c1 pairings from Fractions over the Gram matrix, minimality from a scan of the whole box below a degree
(or, where that is too slow, from the unit-edge test over the point-class box
and its frontier under a monotonicity certificate), the full-flag minimal
degrees by a search that tries every child of every accepted degree, the
minimal degrees of G/P by projecting the full-flag set and keeping the
degrees that pass the unit-edge test, each with its z from a Hecke walk and
its lifting looked up among the full-flag degrees grouped by z, or by a scan
of every full-flag degree for those whose z is longest in its coset, the
point-class degree by coordinate descent, liftings from a linear scan, curve-neighborhood
elements from the Hecke product of a whole greedy decomposition, coset
representatives by stripping right descents one at a time, z_d = z_e * w_P
one letter of w_P at a time, the Weyl action from simple reflections on
unpacked coefficient vectors, reduced words by a scan for the first descent
from the first position each time, reduced words, the Hecke step and
composition one mul_gen or one unpacked root at a time,
tangent directions root by root for each degree, each (P, alpha) row from
sets of roots and coroot_pairing, the three lemma checks
from pairings recomputed for each degree (the count identity reading a
rebuilt inversion set of each s_alpha), the data of the one pass by simple
reflections from the closure of the simple roots, coroots by Fractions and
by coroot_coefficients, functionals by coroot_coefficients and the Cartan
matrix, reflection words by stripping the reflection element and their
lengths by its inversion count, Levi roots and R+ \\ R_P+ by
scanning coefficients, c1 weights from the summed vector c_1, Q(i)-spans from
Gauss-Jordan elimination over pairs of Fractions, the integer echelon and
its Zassenhaus intersection on dense rows, so7 brackets from two dense
matrix products and their dense difference, the G2 closure by re-bracketing every pair until a round
adds nothing, and simple-type labels from a regular expression.

APPENDIX_WITNESSES pins the so7 checklist itself: the name, pass flag and
witness of each check, as in perfbench/reference/appendix.json.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import reduce

from mindeg import curve_nbhd
from mindeg.cascade import cascade_roots
from mindeg.curve_nbhd import (
    borel, curve_neighborhood_element, greedy_decomposition, lifting, maximal_roots,
    minimal_degrees,
)
from mindeg.exactlinalg import SpanBuilder, SparseVector
from mindeg.exceptions import (
    ConsistencyError, ExceptionalCaseError, InadmissibleRankError, LiftingNotUniqueError,
    NotApplicableError, NotMinimalDegreeError, UniquenessViolationError,
)
from mindeg.parabolic import Degree, Parabolic, project_coroot
from mindeg.root_system import (
    Root, RootSystem, SimpleType, bilinear, coroot_coefficients, coroot_pairing, reflect,
    root_leq,
)
from mindeg.so7 import Matrix7, build_tables
from mindeg.tangent_directions import (
    TangentDirectionSets, associated_pair, is_exceptional_triple,
)
from mindeg.weyl import (
    WeylElement, _steps, _unpack, all_elements, bruhat_leq, compose, descents_at,
    hecke_product, identity, inversion_set, longest_element, mul_gen, reduced_word, reflection,
    simple_reflection,
)


def all_parabolics(rs: RootSystem):
    """Every parabolic of rs, by the size of Delta_P and then lexicographically."""
    for r in range(rs.rank + 1):
        for combo in itertools.combinations(range(1, rs.rank + 1), r):
            yield Parabolic(rs, frozenset(combo))


def g2_root_coeffs() -> set[tuple[int, int]]:
    """The classical list of G2 roots over (short, long) simple roots."""
    positive = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]
    return {c for v in positive for c in (v, (-v[0], -v[1]))}


def b3_root_coeffs() -> set[tuple[int, int, int]]:
    """B3 roots from the epsilon model, converted to simple-root coordinates.

    eps_1 = b1+b2+b3, eps_2 = b2+b3, eps_3 = b3, so the vector
    a*eps_1 + b*eps_2 + c*eps_3 has coordinates (a, a+b, a+b+c).
    """
    eps_vectors = []
    for i, j in itertools.combinations(range(3), 2):
        for si in (1, -1):
            for sj in (1, -1):
                v = [0, 0, 0]
                v[i], v[j] = si, sj
                eps_vectors.append(tuple(v))
    for i in range(3):
        for s in (1, -1):
            v = [0, 0, 0]
            v[i] = s
            eps_vectors.append(tuple(v))
    return {(a, a + b, a + b + c) for a, b, c in eps_vectors}


def subword_bruhat_down_set(v: WeylElement) -> set[WeylElement]:
    """{u : u <= v} from the subword property on one reduced word of v."""
    reachable = {identity(v.system)}
    for i in reduced_word(v):
        s = simple_reflection(v.system, i)
        reachable |= {compose(u, s) for u in reachable}
    return reachable


def word_apply(rs: RootSystem, word, v: tuple[int, ...]) -> tuple[int, ...]:
    """s_{i_1} ... s_{i_k} (v) for word (i_1, ..., i_k), one simple reflection
    at a time on the coefficient vector."""
    for i in reversed(word):
        v = reflect(rs.simple_roots[i], v)
    return v


def brute_force_center(rs: RootSystem) -> frozenset[WeylElement]:
    """Elements commuting with every generator, over the whole group."""
    gens = [simple_reflection(rs, i) for i in range(rs.rank)]
    return frozenset(w for w in all_elements(rs)
                     if all(compose(w, s) == compose(s, w) for s in gens))


def simple_root_center(rs: RootSystem) -> frozenset[WeylElement]:
    """Elements sending every simple root to plus or minus itself, over the
    whole group: w s_i w^-1 = s_{w(alpha_i)}, so w commutes with s_i iff
    w(alpha_i) = +-alpha_i."""
    pm = [(b, (b, -b)) for b in rs.simple_roots]
    return frozenset(w for w in all_elements(rs) if all(w.apply(b) in s for b, s in pm))


def weyl_group_order(rs: RootSystem) -> int:
    """|W| from the classical formulas (independent of any enumeration)."""
    fam, l = rs.simple_type.family, rs.rank
    if fam == "A":
        return math.factorial(l + 1)
    if fam in ("B", "C"):
        return 2 ** l * math.factorial(l)
    if fam == "D":
        return 2 ** (l - 1) * math.factorial(l)
    if fam == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[l]
    if fam == "F":
        return 1152
    return 12


def degree_leq(d: Degree, e: Degree) -> bool:
    return all(x <= y for x, y in zip(d, e, strict=True))


def roots_of_p(p: Parabolic) -> frozenset[Root]:
    """R(P) = R+ union R_P, the roots whose root group lies in P."""
    return frozenset(p.system.positive_roots) | frozenset(p.levi_roots)


def levi_intersection_check(p: Parabolic) -> bool:
    """Check R_P = {gamma in R(P) : w_o(gamma) in R(P)}.

    Only meaningful when w_o stabilizes R_P; raises NotApplicableError
    otherwise.
    """
    w0 = longest_element(p.system)
    levi = set(p.levi_roots)
    if {w0.apply(r) for r in levi} != levi:
        raise NotApplicableError("w_o does not stabilize R_P")
    rp = roots_of_p(p)
    return {g for g in rp if w0.apply(g) in rp} == levi


def support_scan_levi_roots(p: Parabolic) -> tuple[Root, ...]:
    """R_P: the roots whose nonzero coefficients all sit on Delta_P, by a scan
    of each root's coefficients."""
    inside = set(p.positions)
    return tuple(r for r in p.system.roots
                 if all(c == 0 or i in inside for i, c in enumerate(r.coeffs)))


def outside_levi_roots(p: Parabolic) -> frozenset[Root]:
    """R+ \\ R_P+: the positive roots outside support_scan_levi_roots(p)."""
    levi = set(support_scan_levi_roots(p))
    return frozenset(r for r in p.system.positive_roots if r not in levi)


def c1_vector(p: Parabolic) -> tuple[int, ...]:
    """Sum of the roots in R+ \\ R_P+, over the simple-root basis."""
    outside = outside_levi_roots(p)
    return tuple(sum(r.coeffs[i] for r in outside) for i in range(p.system.rank))


def c1_vector_weights(p: Parabolic) -> tuple[int, ...]:
    """(c_1, alpha_i^vee) for alpha_i outside Delta_P, pairing the summed
    vector c1_vector(p) with each simple coroot."""
    c1 = c1_vector(p)
    return tuple(coroot_pairing(c1, p.system.simple_roots[i]) for i in p.quotient_positions)


def closure_root_coeffs(rs: RootSystem) -> set[tuple[int, ...]]:
    """All roots, as the closure of the simple roots under the simple
    reflections on coefficient vectors, each checked sign-homogeneous."""
    l, cartan = rs.rank, rs.cartan
    seen = {tuple(int(k == i) for k in range(l)) for i in range(l)}
    frontier = list(seen)
    while frontier:
        fresh = []
        for v in frontier:
            for i in range(l):
                pair = sum(v[j] * cartan[i][j] for j in range(l))
                w = v[:i] + (v[i] - pair,) + v[i + 1:]
                if pair and w not in seen:
                    seen.add(w)
                    fresh.append(w)
        frontier = fresh
    for v in seen:
        if not (all(c >= 0 for c in v) or all(c <= 0 for c in v)):
            raise ConsistencyError(f"root {v} is not sign-homogeneous")
    return seen


def fraction_coroot(alpha: Root) -> tuple[int, ...]:
    """alpha^vee = 2 alpha / (alpha, alpha) over the simple coroots
    alpha_i^vee = 2 alpha_i / (alpha_i, alpha_i), by Fractions over the Gram
    matrix, checked integral."""
    rs = alpha.system
    norm = gram_bilinear(rs, alpha.coeffs, alpha.coeffs)
    out = []
    for i, a in enumerate(alpha.coeffs):
        simple = tuple(int(k == i) for k in range(rs.rank))
        c = Fraction(a * gram_bilinear(rs, simple, simple), norm)
        if c.denominator != 1:
            raise ConsistencyError(f"coroot of {alpha} is not integral")
        out.append(int(c))
    return tuple(out)


def bilinear_functional(alpha: Root) -> tuple[int, ...]:
    """((alpha_i, alpha^vee))_i from coroot_coefficients, which divides
    bilinear forms, and the Cartan matrix."""
    c = coroot_coefficients(alpha)
    rs = alpha.system
    return tuple(sum(cj * rs.cartan[j][i] for j, cj in enumerate(c)) for i in range(rs.rank))


def stripping_reflection_word(alpha: Root) -> tuple[int, ...]:
    """A reduced word of s_alpha, reversed: the word descent stripping gives
    the reflection element built by reflecting each simple root."""
    return tuple(reversed(reduced_word(reflection(alpha.system, alpha))))


def inversion_count_reflection_length(alpha: Root) -> int:
    """l(s_alpha) as the number of positive roots the reflection element sends negative."""
    return len(inversion_set(reflection(alpha.system, alpha)))


def gram_matrix(rs: RootSystem) -> list[list[int]]:
    return [[rs.symmetrizer[i] * rs.cartan[i][j] for j in range(rs.rank)]
            for i in range(rs.rank)]


def gram_bilinear(rs: RootSystem, u, v):
    g = gram_matrix(rs)
    return sum(u[i] * g[i][j] * v[j] for i in range(rs.rank) for j in range(rs.rank))


def pairwise_maximal_roots(p: Parabolic, d: Degree) -> tuple[Root, ...]:
    """Maximal roots of R+ \\ R_P+ with coroot class <= d, by comparing every pair;
    the lexicographically largest coefficient vector first."""
    cands = [a for a in p.system.positive_roots
             if p.outside_levi(a) and degree_leq(project_coroot(p, a), d)]
    maxima = [a for a in cands
              if not any(b is not a and root_leq(a, b) for b in cands)]
    return tuple(sorted(maxima, key=lambda r: r.coeffs, reverse=True))


def per_parabolic_root_table(p: Parabolic):
    """The roots of R+ \\ R_P+ as bitmask data, built for p alone.

    Returns (roots, fits, above). roots is sorted with the lexicographically
    largest coefficient vector first, and bit j of a mask stands for roots[j].
    fits[i][c] masks the roots whose projected coroot has i-th coordinate
    <= c (the last entry, the largest such coordinate, masks them all), and
    above[j] masks the roots strictly above roots[j] in the root order.
    """
    roots = sorted((a for a in p.system.positive_roots if p.outside_levi(a)),
                   key=lambda r: r.coeffs, reverse=True)
    coroots = [project_coroot(p, a) for a in roots]
    fits = []
    for i in range(len(p.quotient_positions)):
        top = max((c[i] for c in coroots), default=0)
        fits.append(tuple(sum(1 << j for j, c in enumerate(coroots) if c[i] <= v)
                          for v in range(top + 1)))
    above = tuple(sum(1 << k for k, b in enumerate(roots) if b is not a and root_leq(a, b))
                  for a in roots)
    return tuple(roots), tuple(fits), above


def per_parabolic_maximal_roots(p: Parabolic, d: Degree) -> tuple[Root, ...]:
    """Maximal roots with coroot class <= d, read from per_parabolic_root_table(p)."""
    roots, fits, above = per_parabolic_root_table(p)
    cands = (1 << len(roots)) - 1
    for fit, c in zip(fits, d, strict=True):
        cands &= fit[min(c, len(fit) - 1)]
    return tuple(a for j, a in enumerate(roots)
                 if cands >> j & 1 and not above[j] & cands)


def fraction_coroot_pairing(x, y: Root) -> int:
    """(x, y^vee) = 2 (x, y) / (y, y) over the Gram matrix, checked integral."""
    rs = y.system
    xv = x.coeffs if isinstance(x, Root) else tuple(x)
    val = Fraction(2 * gram_bilinear(rs, xv, y.coeffs), gram_bilinear(rs, y.coeffs, y.coeffs))
    if val.denominator != 1:
        raise ConsistencyError(f"coroot pairing of {x} with {y} is not an integer")
    return int(val)


def fraction_c1_pairing(p: Parabolic, d: Degree) -> int:
    """(c_1, d): c_1 the sum of the roots of R+ \\ R_P+, paired by Fractions with
    the simple coroots outside Delta_P."""
    rs = p.system
    c1 = [sum(a.coeffs[i] for a in rs.positive_roots if p.outside_levi(a))
          for i in range(rs.rank)]
    return sum(c * fraction_coroot_pairing(c1, rs.simple_roots[i])
               for c, i in zip(d, p.quotient_positions, strict=True))


def box_scan_point_class_degree(p: Parabolic) -> Degree:
    """The smallest degree whose z is the longest coset, by coordinate descent
    from a saturating degree (z is monotone, so the descent ends at it)."""
    target = compose(longest_element(p.system), p.w_p)
    k = len(p.quotient_positions)
    start = next((b,) * k for b in (0, 1, 2, 4, 8, 16, 32, 64)
                 if curve_neighborhood_element(p, (b,) * k) == target)
    d = list(start)
    changed = True
    while changed:
        changed = False
        for i in range(k):
            while d[i] > 0:
                trial = tuple(d[:i] + [d[i] - 1] + d[i + 1:])
                if curve_neighborhood_element(p, trial) != target:
                    break
                d[i] -= 1
                changed = True
    return tuple(d)


def box_scan_is_minimal_degree(p: Parabolic, d: Degree) -> bool:
    """The definition: no strictly smaller effective degree reaches a
    Bruhat-larger element, checked against every degree in the box below d."""
    z = curve_neighborhood_element(p, d)
    for smaller in itertools.product(*(range(c + 1) for c in d)):
        if smaller == d:
            continue
        zs = curve_neighborhood_element(p, smaller)
        if zs.length >= z.length and bruhat_leq(z, zs):
            return False
    return True


def box_scan_minimal_degrees(p: Parabolic) -> tuple[Degree, ...]:
    """The degrees in the box below the point-class degree that pass the box scan."""
    return tuple(d for d in itertools.product(*(range(c + 1) for c in box_scan_point_class_degree(p)))
                 if box_scan_is_minimal_degree(p, d))


def _unit_steps_down(d: Degree):
    for i, c in enumerate(d):
        if c:
            yield d[:i] + (c - 1,) + d[i + 1:]


def certify_monotone(p: Parabolic, d: Degree, certified: set, verified: set) -> None:
    """Check z_{c-e_i} <= z_c in Bruhat order on every unit edge of the box below d.

    Walks the box iteratively and skips degrees in certified (whose boxes are
    already checked), so each edge is visited once per certified set. An edge
    with z_{c-e_i} == z_c needs no walk, and bruhat_leq runs once per distinct
    pair (z_{c-e_i}, z_c) in verified; a pair is added only after it passes.
    Monotonicity on the unit edges gives it on the whole box by transitivity.
    """
    if d in certified:
        return
    seen = {d}
    stack = [d]
    while stack:
        c = stack.pop()
        z = curve_neighborhood_element(p, c)
        for below in _unit_steps_down(c):
            u = curve_neighborhood_element(p, below)
            if u != z and (u, z) not in verified:
                if not bruhat_leq(u, z):
                    raise ConsistencyError(
                        f"z is not monotone on {p}: z_{below} is not below z_{c}")
                verified.add((u, z))
            if below not in certified and below not in seen:
                seen.add(below)
                stack.append(below)
    certified |= seen


def certified_box_scan_minimal_degrees(p: Parabolic) -> tuple[Degree, ...]:
    """The minimal degrees by the certified box scan.

    Every degree of the box below the point-class degree gets the unit-edge
    test (d is minimal iff z_{d-e_i} != z_d for every i with d_i > 0) after z
    is certified monotone on the box below it; only the point-class degree may
    reach the longest coset, and the one-step frontier outside the box must
    hold no minimal degree. Costs one z per degree of the boxes, so it reaches
    E7 but not E8.
    """
    certified, verified = set(), set()

    def is_minimal(d):
        certify_monotone(p, d, certified, verified)
        z = curve_neighborhood_element(p, d)
        return all(curve_neighborhood_element(p, c) != z for c in _unit_steps_down(d))

    top = box_scan_point_class_degree(p)
    target = compose(longest_element(p.system), p.w_p)
    found = []
    for d in itertools.product(*(range(c + 1) for c in top)):
        if d != top and curve_neighborhood_element(p, d) == target:
            raise UniquenessViolationError(f"{d} below {top} also reaches the longest coset")
        if is_minimal(d):
            found.append(d)
    for i in range(len(top)):
        ranges = [range(c + 1) for c in top]
        ranges[i] = range(top[i] + 1, top[i] + 2)
        for d in itertools.product(*ranges):
            if is_minimal(d):
                raise ConsistencyError(f"minimal degree {d} escaped the search box below {top}")
    return tuple(sorted(found))


def unpruned_borel_minimal(b: Parabolic) -> dict[Degree, WeylElement]:
    """The minimal degrees of G/B with their z, by a breadth-first search from 0
    that tries every child e = d + alpha^vee of every accepted degree d: e is
    generated when alpha is maximal_roots(b, e)[0], its first greedy root, and
    accepted when l(z_e) = l(z_d) + l(s_alpha)."""
    rs = b.system
    found = {b.zero_degree: identity(rs)}
    queue = [b.zero_degree]
    for d in queue:
        for alpha in rs.positive_roots:
            e = tuple(x + y for x, y in zip(d, project_coroot(b, alpha)))
            if maximal_roots(b, e)[0] is not alpha:
                continue
            z = curve_neighborhood_element(b, e)
            if z.length == found[d].length + reflection(rs, alpha).length:
                found[e] = z
                queue.append(e)
    return found


def _cascade_outside_levi(p: Parabolic, d: Degree) -> list[Root]:
    return [a for a in cascade_roots(p.system, lifting(p, d)) if p.outside_levi(a)]


def per_degree_tangent_directions(p: Parabolic, d: Degree) -> tuple[Root, ...]:
    """-alpha-gamma over the cascade roots alpha outside the Levi and gamma in
    R_P+ or 0, built for the degree d alone, each checked in R- \\ R_P-."""
    rs = p.system
    out = set()
    for a in _cascade_outside_levi(p, d):
        out.add(-a)
        for g in p.levi_positive:
            s = tuple(x + y for x, y in zip(a.coeffs, g.coeffs))
            if rs.is_root(s):
                out.add(rs.root(tuple(-c for c in s)))
    for r in out:
        if not p.outside_levi(-r):
            raise ConsistencyError(f"tangent direction {r} not in R- \\ R_P-")
    return tuple(sorted(out, key=lambda r: r.coeffs))


def set_root_directions(p: Parabolic, alpha: Root) -> tuple[
        int, tuple[Root, ...], tuple[int, ...]]:
    """The (P, alpha) row from sets of roots: the roots -alpha-gamma, gamma in
    R_P+ or 0, each checked in R- \\ R_P-, as a mask over the positions of
    the system's roots; the gamma in R_P+ with (gamma, alpha^vee) < -1; and
    the pairings (gamma, alpha^vee) by coroot_pairing. R_P+ and R+ \\ R_P+
    come from the coefficient scan, and both tuples follow the order of R_P+."""
    rs = p.system
    levi = set(support_scan_levi_roots(p))
    levi_positive = [r for r in rs.roots if r in levi and r.is_positive]
    outside = outside_levi_roots(p)
    positions, a = rs.root_positions, alpha.coeffs
    mask = 0
    for s in [a] + [tuple(x + y for x, y in zip(a, g.coeffs)) for g in levi_positive]:
        if rs.is_root(s):
            if rs.root(s) not in outside:
                raise ConsistencyError(f"tangent direction {-rs.root(s)} not in R- \\ R_P-")
            mask |= 1 << positions[tuple(-c for c in s)]
    pairings = tuple(coroot_pairing(g, alpha) for g in levi_positive)
    strong = tuple(g for g, v in zip(levi_positive, pairings) if v < -1)
    return mask, strong, pairings


def per_degree_tangent_direction_sets(p: Parabolic, d: Degree) -> TangentDirectionSets:
    """Both direction sets of d: the strong pairs (alpha, gamma) over every
    cascade root alpha outside the Levi and every gamma in R_P+ with
    (gamma, alpha^vee) < -1, and the extra directions gamma' - alpha' of their
    associated pairs."""
    rs = p.system
    strong = tuple((a, g) for a in _cascade_outside_levi(p, d) for g in p.levi_positive
                   if coroot_pairing(g, a) < -1)
    extra = set()
    for a, g in strong:
        ap, gp = associated_pair(p, d, a, g)
        extra.add(rs.root(tuple(y - x for x, y in zip(ap.coeffs, gp.coeffs))))
    return TangentDirectionSets(per_degree_tangent_directions(p, d),
                                tuple(sorted(extra, key=lambda r: r.coeffs)), strong)


def per_degree_pair_map_is_injective(p: Parabolic, d: Degree) -> bool:
    """pair_map_is_injective with the domain read off bilinear for d alone."""
    rs = p.system
    casc = _cascade_outside_levi(p, d)
    domain = [(a, g) for a in casc for g in p.levi_positive if bilinear(a, g) < 0]
    allowed = set(per_degree_tangent_directions(p, d)) - {-a for a in casc}
    images = set()
    for a, g in domain:
        s = tuple(x + y for x, y in zip(a.coeffs, g.coeffs))
        if not rs.is_root(s):
            return False
        img = rs.root(tuple(-c for c in s))
        if img not in allowed:
            return False
        images.add(img)
    return len(images) == len(domain)


def per_degree_coroot_pairing_bound_holds(p: Parabolic, d: Degree) -> bool:
    """coroot_pairing_bound_holds with every pairing recomputed for d alone."""
    if d not in minimal_degrees(p):
        raise NotMinimalDegreeError(f"{d} is not a minimal degree")
    if is_exceptional_triple(p, d):
        witness = [(g, a, coroot_pairing(g, a))
                   for a in _cascade_outside_levi(p, d)
                   for g in p.levi_positive
                   if abs(coroot_pairing(g, a)) == 3]
        raise ExceptionalCaseError(
            "the pairing bound fails on the excluded triple", witness=witness)
    return all(abs(coroot_pairing(g, a)) <= 2
               for a in _cascade_outside_levi(p, d)
               for g in p.levi_positive)


def per_degree_weighted_pair_count_identity_holds(p: Parabolic, d: Degree) -> bool:
    """weighted_pair_count_identity_holds with the inversion set of each
    s_alpha rebuilt and every pairing recomputed for d alone."""
    rs = p.system
    casc = _cascade_outside_levi(p, d)
    lhs = 0
    for a in casc:
        inv = set(inversion_set(reflection(rs, a)))
        for g in p.levi_positive:
            if g not in inv:
                lhs -= coroot_pairing(g, a)
    pairings = [coroot_pairing(g, a) for a in casc for g in p.levi_positive]
    weighted = sum({-1: 1, -2: 2, -3: 3}.get(v, 0) for v in pairings)
    ok = lhs == weighted
    if not is_exceptional_triple(p, d):
        collapsed = sum(1 for v in pairings if v < 0) + sum(1 for v in pairings if v < -1)
        ok = ok and lhs == collapsed
    return ok


def is_descent(w: WeylElement, i: int) -> bool:
    """True iff s_i is a right descent of w: w(alpha_i) is a negative root,
    read off the action on the unpacked simple root."""
    return not w.apply(w.system.simple_roots[i]).is_positive


def is_maximal_coset_representative(w: WeylElement, p: Parabolic) -> bool:
    return all(is_descent(w, i) for i in p.positions)


def minimal_coset_representative(w: WeylElement, p: Parabolic) -> WeylElement:
    """Strip right descents in Delta_P, landing on the shortest element of wW_P."""
    out = w
    while True:
        i = next((k for k in p.positions if is_descent(out, k)), None)
        if i is None:
            return out
        out = mul_gen(out, i)


def letter_by_letter_z_d(p: Parabolic, z_e: WeylElement) -> WeylElement:
    """z_d = z_e * w_P for z_e longest in its coset, one letter of a reduced
    word of w_P at a time, each mul_gen shortening z_e by one."""
    return reduce(mul_gen, reduced_word(p.w_p), z_e)


def stripping_reduced_word(w: WeylElement) -> tuple[int, ...]:
    """A reduced word of w by stripping its smallest right descent, each scan
    for it from the first position."""
    rows = _steps(w.system).rows
    images = list(w.images)
    word = []
    while True:
        for i, b in enumerate(images):
            if b < 0:
                break
        else:
            return tuple(reversed(word))
        word.append(i)
        for j, c in rows[i]:
            images[j] -= c * b


def mul_gen_reduced_word(w: WeylElement) -> tuple[int, ...]:
    """A reduced word of w by stripping the smallest right descent, one
    mul_gen at a time, until the identity is left."""
    word = []
    ident = identity(w.system).images
    while w.images != ident:
        i = next(k for k in range(w.system.rank) if is_descent(w, k))
        word.append(i)
        w = mul_gen(w, i)
    return tuple(reversed(word))


def unpacked_compose(u: WeylElement, v: WeylElement) -> WeylElement:
    """u o v, applying u to the unpacked coefficients of each v(alpha_j)."""
    rs = u.system
    return WeylElement(rs, tuple(sum(c * x for c, x in zip(_unpack(img, rs.rank), u.images))
                                 for img in v.images))


def mul_gen_hecke_reflection_on_coset(z: WeylElement, z_inv: WeylElement, alpha: Root,
                                      positions) -> tuple[WeylElement, WeylElement]:
    """(y, y^-1) with y W_P = s_alpha * z W_P, letter by letter: z^-1 becomes
    mul_gen(z^-1, i) and beta's functional is looked up by its unpacked
    coefficients, each time s_i acts."""
    rs = z.system
    simple = identity(rs).images
    levi = {simple[j] for j in positions}
    images = z.images
    length = z.length
    for i in reversed(mul_gen_reduced_word(reflection(rs, alpha))):
        beta = z_inv.images[i]
        if beta < 0 or beta in levi:
            continue
        z_inv = mul_gen(z_inv, i)
        pairings = rs.coroot_functionals[_unpack(beta, rs.rank)]
        images = tuple([x - c * simple[i] for x, c in zip(images, pairings)])
        length += 1
    return WeylElement(rs, images, length), z_inv


def hecke_curve_neighborhood_element(p: Parabolic, d: Degree) -> WeylElement:
    """z_d from scratch: the Hecke product of the reflections of the whole
    greedy decomposition and w_P, stripped to its minimal coset representative,
    which must split it as z * w_P."""
    rs = p.system
    acc = identity(rs)
    for alpha in greedy_decomposition(p, d):
        acc = hecke_product(acc, reflection(rs, alpha))
    acc = hecke_product(acc, p.w_p)
    z = minimal_coset_representative(acc, p)
    if compose(z, p.w_p) != acc:
        raise ConsistencyError(f"curve-neighborhood element of {d} does not split as z * w_P")
    return z


def unit_edge_minimal_degrees(p: Parabolic) -> dict[Degree, tuple[WeylElement, Degree]]:
    """The minimal degrees of p, each with its z and its lifting, by projection
    and the unit-edge test.

    The candidates are the projections of the full-flag minimal degrees. z is
    monotone in d, so a candidate d is minimal iff z_{d-e_i} != z_d for every
    i with d_i > 0; each z_{d-e_i} of a kept d is checked below z_d in Bruhat
    order. The lifting of d is the full-flag minimal degree e with
    z_e = z_d * w_P, looked up among the full-flag minimal degrees grouped by z.
    """
    b = borel(p.system)
    full_flag = minimal_degrees(b)
    by_z = {}
    for e in full_flag:
        by_z.setdefault(curve_neighborhood_element(b, e), []).append(e)
    out = {}
    for d in dict.fromkeys(tuple(e[i] for i in p.quotient_positions) for e in full_flag):
        z = curve_neighborhood_element(p, d)
        below = [(c, curve_neighborhood_element(p, c)) for c in _unit_steps_down(d)]
        if any(u == z for _, u in below):
            continue
        for c, u in below:
            if not bruhat_leq(u, z):
                raise ConsistencyError(f"z is not monotone on {p}: z_{c} is not below z_{d}")
        matches = by_z.get(compose(z, p.w_p), [])
        if not matches:
            raise ConsistencyError(f"no full-flag minimal degree lifts {d}")
        if len(matches) > 1:
            raise LiftingNotUniqueError(f"{d} lifts to each of {matches}")
        out[d] = (z, matches[0])
    return out


def full_scan_minimal(p: Parabolic) -> tuple[dict[Degree, tuple[WeylElement, Degree]], Degree]:
    """The table of minimal degrees of p != B with its point-class degree, by
    a scan of every full-flag minimal degree e: d, the projection of e, is
    kept with (z_e * w_P, e) when z_e has every position of Delta_P as a
    right descent, each counted with descents_at, and z_e * w_P is formed by
    compose."""
    full = curve_nbhd._minimal(borel(p.system))[0]
    found, projections = {}, set()
    q, positions = p.quotient_positions, p.positions
    for e, (z, _, _) in full.items():
        d = tuple([e[i] for i in q])
        projections.add(d)
        if descents_at(z, positions) == len(positions):
            if d in found:
                raise LiftingNotUniqueError(f"{d} lifts to each of {[found[d][1], e]}")
            found[d] = (compose(z, p.w_p), e)
    if projections != found.keys():
        raise ConsistencyError(f"a projection on {p} has no preimage longest in its coset")
    target = compose(longest_element(p.system), p.w_p)
    tops = [d for d, (z, _) in found.items() if z == target]
    if len(tops) != 1:
        raise ConsistencyError(f"{len(tops)} minimal degrees of {p} reach the longest coset")
    return found, tops[0]


def linear_scan_lifting(p: Parabolic, d: Degree, full_flag: tuple[Degree, ...]) -> Degree:
    """The full-flag minimal degree e with z_e = z_d * w_P, by trying every e
    of full_flag, the full-flag minimal degrees found by an oracle."""
    b = borel(p.system)
    want = compose(curve_neighborhood_element(p, d), p.w_p)
    matches = [e for e in full_flag if curve_neighborhood_element(b, e) == want]
    if not matches:
        raise ConsistencyError(f"no full-flag minimal degree lifts {d}")
    if len(matches) > 1:
        raise LiftingNotUniqueError(f"{d} lifts to each of {matches}")
    return matches[0]


def _qi_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _qi_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def qi_rref(vectors) -> tuple[tuple[tuple[Fraction, Fraction], ...], ...]:
    """Nonzero rows of the reduced row echelon form over Q(i).

    Vectors are (re, im) pairs of integer tuples; scalars are pairs of
    Fractions. The form is canonical, so two spans are equal iff their forms are.
    """
    rows = [[(Fraction(r), Fraction(i)) for r, i in zip(re, im)] for re, im in vectors]
    out = []
    for col in range(len(rows[0]) if rows else 0):
        hit = next((r for r in rows if any(r[col])), None)
        if hit is None:
            continue
        rows.remove(hit)
        lead = hit[col]
        hit = [_qi_div(x, lead) for x in hit]
        def clear(row):
            c = row[col]
            return [(x[0] - y[0], x[1] - y[1]) for x, y in
                    zip(row, (_qi_mul(c, z) for z in hit))]
        rows = [clear(r) for r in rows]
        out = [clear(r) for r in out] + [hit]
    return tuple(tuple(r) for r in out)


def qi_rank(vectors) -> int:
    return len(qi_rref(vectors))


def qi_contains(vectors, vec) -> bool:
    return qi_rank(list(vectors) + [vec]) == qi_rank(vectors)


def dense_parts(vec: SparseVector, dim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The dense pair (re, im) of a sparse vector of length dim."""
    re, im = [0] * dim, [0] * dim
    for k, x, y in vec.entries:
        re[k], im[k] = x, y
    return tuple(re), tuple(im)


def dense_matrix(re, im) -> Matrix7:
    """The Matrix7 whose row-major dense parts are re and im."""
    return Matrix7(tuple([(k, x, y) for k, (x, y) in enumerate(zip(re, im)) if x or y]))


def _dense_rows(re, im) -> tuple[list[int], list[int]]:
    """The integer rows (re|im) and (-im|re) of v = (re, im) and iv."""
    return [*re, *im], [-x for x in im] + list(re)


def _dense_realify(vec: SparseVector, dim: int) -> tuple[list[int], list[int]]:
    return _dense_rows(*dense_parts(vec, dim))


class DenseSpanBuilder:
    """The integer echelon of `exactlinalg.SpanBuilder` on dense rows: the same
    Bareiss step and gcd division over every column, the first nonzero
    column as pivot."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: dict[int, list[int]] = {}

    def _reduce(self, w: list[int]) -> list[int]:
        for p, row in self.rows.items():
            c = w[p]
            if c:
                a = row[p]
                g = math.gcd(a, c)
                a, c = a // g, c // g
                w = [a * x - c * y for x, y in zip(w, row)]
                g = math.gcd(*w)
                if g > 1:
                    w = [x // g for x in w]
        return w

    def _insert(self, w: list[int]) -> bool:
        w = self._reduce(w)
        pivot = next((k for k, x in enumerate(w) if x), None)
        if pivot is None:
            return False
        self.rows[pivot] = w
        return True

    def add(self, vec: SparseVector) -> bool:
        return self._add_rows(*_dense_realify(vec, self.dim))

    def _add_rows(self, v: list[int], iv: list[int]) -> bool:
        if not self._insert(v):
            return False
        self._insert(iv)
        return True

    def contains(self, vec) -> bool:
        return not any(self._reduce(_dense_realify(vec, self.dim)[0]))


def dense_intersect_spans(a, b, dim: int):
    """A Q(i)-basis of span(a) & span(b), as dense pairs (re, im): every
    [u|u] row of a and [v|0] row of b eliminated in one dense Zassenhaus
    echelon."""
    zassenhaus = DenseSpanBuilder(2 * dim)
    zero = [0] * (2 * dim)
    for u in a:
        for row in _dense_realify(u, dim):
            zassenhaus._insert(row + row)
    for v in b:
        for row in _dense_realify(v, dim):
            zassenhaus._insert(row + zero)
    out = DenseSpanBuilder(dim)
    basis = []
    for p, row in zassenhaus.rows.items():
        if p >= 2 * dim:
            vec = (tuple(row[2 * dim:3 * dim]), tuple(row[3 * dim:]))
            if out._add_rows(*_dense_rows(*vec)):
                basis.append(vec)
    return tuple(basis)


APPENDIX_WITNESSES = (
    ("e-basis-bracket-rules", True, "441 commutators checked, 0 mismatches"),
    ("root-vectors-skew-symmetric", True, "33 matrices checked, 0 not skew"),
    ("root-space-decomposition", True,
     "eigenvalue constant [Fraction(1, 1)], span rank 21"),
    ("g2-root-vectors-eigen", True,
     "12 root vectors against 2 Cartan elements; failures: []"),
    ("g2-closure-dimension", True, "closure dimension 14, missing members 0"),
    ("g2-structure-constants-nonzero", True, "root-sum pairs checked; failures: []"),
    ("subalgebra-inclusions", True,
     "dims {'t': 2, 'p1': 9, 'l1': 4, 'l1~': 11, 'p1~': 16, 'b3': 21}, "
     "joint span 21, witnesses True"),
    ("levi-bracket-spans-quotient", True,
     "span dimension 21 of 21; quotient dimension 5; "
     "both cascade directions recovered: True"),
    ("restricted-bracket-codimension-one", True,
     "restricted span 20 of 21 (quotient 4 of 5); "
     "tangent-direction span 13 of 14, completed 14"),
    ("longest-element-restriction", True,
     "longest elements act as -1: [True, True]; "
     "negation preserves the small Cartan: True"),
)


def dense_product(x: Matrix7, y: Matrix7) -> tuple[list[int], list[int]]:
    """The dense parts of the matrix product xy, row by row of x and column
    by column of y."""
    n = 7
    (xre, xim), (yre, yim) = dense_parts(x, n * n), dense_parts(y, n * n)
    re, im = [0] * (n * n), [0] * (n * n)
    for i in range(0, n * n, n):
        for k in range(n):
            ar, ai = xre[i + k], xim[i + k]
            if not (ar or ai):
                continue
            for j in range(n):
                br, bi = yre[n * k + j], yim[n * k + j]
                if br or bi:
                    re[i + j] += ar * br - ai * bi
                    im[i + j] += ar * bi + ai * br
    return re, im


def dense_bracket(x: Matrix7, y: Matrix7) -> Matrix7:
    """xy - yx, both products and the difference taken on dense parts."""
    (re, im), (yre, yim) = dense_product(x, y), dense_product(y, x)
    return dense_matrix([a - b for a, b in zip(re, yre)], [a - b for a, b in zip(im, yim)])


def fixpoint_g2_closure() -> tuple[Matrix7, ...]:
    """The bracket closure of the four G2 generators, by rounds: each round
    brackets every pair of the basis it started with, until one adds nothing."""
    t = build_tables()
    gens = [t.g2[(1, 0)], t.g2[(0, 1)], t.g2[(-1, 0)], t.g2[(0, -1)]]
    sb = SpanBuilder(49)
    basis = [g for g in gens if sb.add(g)]
    changed = True
    while changed:
        changed = False
        snapshot = list(basis)
        for x, y in itertools.combinations(snapshot, 2):
            w = dense_bracket(x, y)
            if sb.add(w):
                basis.append(w)
                changed = True
    return tuple(basis)


def regex_parse_simple_type(label: str) -> SimpleType:
    r"""SimpleType.parse by the regular expression ([A-Ga-g])\s*(\d+)."""
    m = re.fullmatch(r"([A-Ga-g])\s*(\d+)", label.strip())
    if not m:
        raise InadmissibleRankError(f"cannot parse simple type {label!r}")
    return SimpleType(m.group(1).upper(), int(m.group(2)))
