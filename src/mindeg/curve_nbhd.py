"""Greedy decompositions, curve-neighborhood Weyl elements, minimal degrees.

z_d is built from z_{d - alpha^vee} by one left Hecke step with s_alpha,
alpha the first greedy root of d, and kept in the z table p holds (_held):
z_d W_P = s_alpha * z_{d - alpha^vee} W_P.

A degree d is minimal when no strictly smaller effective degree reaches a
Bruhat-larger z. The minimal degrees are generated from 0; why that is sound:

- Unit edges. z is monotone in d (Buch-Mihalcea, Curve neighborhoods of
  Schubert varieties, J. Differential Geom. 99 (2015)), so d is minimal iff
  z_{d-e_i} != z_d for every i with d_i > 0.
- Completeness on G/B. Neighborhoods compose, X(w) having the degree-d
  neighborhood X(w * z_d) (ibid.), so z_{a+b} >= z_a * z_b, and
  z_{alpha^vee} >= s_alpha. Let e be minimal with first greedy root alpha
  and tail d = e - alpha^vee, so z_e = s_alpha * z_d. If some d' < d had
  z_{d'} >= z_d, then z_{d'+alpha^vee} >= s_alpha * z_{d'} >= z_e with
  d' + alpha^vee < e. So the tail is minimal, and a search from 0 over the
  children d + alpha^vee whose first greedy root is alpha meets every
  minimal degree, each once: a child's first greedy root fixes its parent.
- The length criterion on G/B. Such a child e of a minimal d is minimal iff
  l(z_e) = l(z_d) + l(s_alpha), i.e. s_alpha * z_d is a reduced product: the
  minimal-degree/shortest-path correspondence of the quantum Bruhat graph
  (Fulton-Woodward, J. Algebraic Geom. 13 (2004); Postnikov, Quantum Bruhat
  graph and Schubert polynomials, Proc. AMS 133 (2005)).
- G/P from the full-flag set. d is minimal on G/P iff d is the projection
  of a full-flag minimal degree e whose z_e has every position of Delta_P as
  a right descent, i.e. z_e is the longest element of z_e W_P. That e is the
  lifting of d, and z_d = z_e * w_P. The proof rests on two facts. (i) Every
  minimal d has a lifting: a full-flag minimal e with z_e = z_d * w_P that
  projects to d. A curve through 1P lifts to a curve through 1B whose degree
  projects onto its own, and the degree-d neighborhood of 1P is irreducible.
  (ii) For each w the degrees e with z_e >= w have a least element, the
  minimal degree of w in the quantum Bruhat graph (Fulton-Woodward, ibid.;
  Postnikov, ibid.); so distinct full-flag minimal degrees have distinct z.
  "Only if" is (i). For "if", let such an e project to d. A curve through 1B
  projects to one through 1P, so z_e <= z_d * w_P. Take a minimal d0 <= d
  with z_{d0} = z_d and its lifting e0. Then z_{e0} = z_d * w_P >= z_e, and e
  is the least degree reaching z_e, so e <= e0 and d <= d0. Hence d = d0 is
  minimal, and e0 is a second preimage of d of this kind unless e = e0.
  Two such preimages of one d raise LiftingNotUniqueError. So a parabolic
  reads only the e whose right-descent set contains Delta_P: the G/B table
  groups its degrees by the right-descent mask of z_e, and G/P visits the
  groups whose mask contains that of Delta_P, each e once. Every full-flag
  degree still has its projection checked against the table.

Both walks read one table of the positive roots in greedy order, the
lexicographically largest coefficient vector first (_root_table):

- The greedy step. The first root in greedy order whose projected coroot
  fits below d is maximal among those that fit, since a root above it is
  lexicographically larger and would fit too. So it is maximal_roots(p, d)[0],
  the first greedy root of d: the lowest set bit of the mask of fitting roots.
- The pruned search. Let alpha_j0 be the first greedy root of d. It fits below
  d, so below every child d + alpha_j^vee; for j > j0 it comes before alpha_j
  in greedy order, so alpha_j is not that child's first greedy root and the
  child is never generated. The search therefore tries only the children with
  j <= j0 (every child of 0, which has no greedy root) and accepts the same
  degrees; a child accepted through alpha_j has j as its own j0. A child e is
  tried only once no root before alpha_j fits below it, a test run for every j
  at once on one integer with a bit field per root (_child_fields), so alpha_j
  is its first greedy root and e - alpha_j^vee = d its rest: z_e is the one
  Hecke step s_alpha_j * z_d that _z_pair would take from z_d, and the search
  takes it itself, with no greedy walk, degree check or memo lookup. It takes
  it letter by letter along the word of s_alpha_j and stops at the first idle
  letter (reduced_left_reflection): each letter adds at most one to the
  length, so after an idle one l(z_e) < l(z_d) + l(s_alpha_j) already, and the
  length criterion would refuse e anyway. A refused child's z is not stored.
  The unit-edge test reads the z's below a degree through _z_pair, whose walks
  end at z's the search has stored; should one read a refused child, _z_pair
  computes its z afresh.
- The cascade. The cascade of a full-flag minimal degree is the set of roots
  of its greedy decomposition, held as a mask over the positions of the
  system's roots. An accepted child e = d + alpha_j^vee has the greedy
  decomposition alpha_j followed by that of d, so the search records the
  cascade of e as that of d with alpha_j added (_with_cascade_root): alpha_j
  is checked strongly orthogonal to each root of d's cascade, and a root
  already in it adds nothing. So every cascade is checked pairwise strongly
  orthogonal as it is built, each new root against the roots before it.

Each table is checked locally, raising ConsistencyError. On G/B the
unit-edge test must agree with the length criterion on each accepted degree,
with z_{d-e_i} <= z_d on each unit edge. The edges of d are checked in one
walk down z_d (first_not_below): each step strips z_d's smallest right
descent s, and with it every z_{d-e_i} that has s as a right descent. The
lifting property, u <= v iff min(u, us) <= vs for a right descent s of v,
holds for each u on its own, so the walk is bruhat_leq(z_{d-e_i}, z_d) for
every i at once; it reports the first i that fails. On G/P every
projection of a full-flag minimal degree must have a preimage whose z is
longest in its coset, as on every parabolic through E8, and each
z_d = z_e * w_P, one sparse product (right_multiplier) given the length
l(z_e) - l(w_P), must have no right descent in Delta_P, which is what makes
that length right. On both, exactly one minimal degree, the point-class
degree, reaches the longest coset, and it is the projected cascade degree
(below). The full-flag search is refused (ResourceGuardError) once it
accepts more than _MAX_BOREL_DEGREES degrees, and at once when 2^rank does:
each degree sum_{i in S} alpha_i^vee is minimal, as a smaller degree is
supported on some S' < S, so its z lies in W_{S'}, while z_d >= s_i for
every i in S.

Single queries do not need the table. A query on one (p, d) asks one
function, _entry, for d's entry (z_d, lifting, the lifting's cascade mask),
or None when d is not minimal; a G/P entry carries the mask of its
lifting's G/B entry.
_entry reads the table when p (on G/B, borel) already holds it
(_minimal.holds), as every sweep case does; otherwise it decides locally,
and no guard of the search applies:

- Least elements. Every degree s reaches z_s through a minimal degree m <= s
  with z_m = z_s: step down unit edges that keep z until the unit-edge test
  passes. On G/B, by (ii), a minimal e is the least degree reaching z_e, for
  the least one m has m <= e and z_m >= z_e. On G/P the same holds for a
  minimal d: if s reaches z_d, take its minimal m with z_m = z_s >= z_d;
  their liftings have z_{e_m} = z_m * w_P >= z_d * w_P = z_{e_d}, so
  e_d <= e_m, and projecting, d <= m <= s. In particular exactly one
  minimal degree, the point-class degree, reaches the longest coset, and
  every degree that does lies above it.
- The cascade degree (_cascade_degree, held on the system). Kostant's
  cascade (B. Kostant, The cascade of orthogonal roots and the coadjoint
  structure of the nilradical of a Borel subgroup of a semisimple Lie group,
  Moscow Math. J. 12 (2012)) takes the highest root of the positive roots
  left, keeps only the roots orthogonal to it, and repeats until none are
  left; its roots b_1, ..., b_m are strongly orthogonal, and the product of
  their reflections is w_0. Let D = b_1^vee + ... + b_m^vee. By
  z_{a+b} >= z_a * z_b and z_{b^vee} >= s_b (the completeness argument
  above), z_D >= s_{b_1} * ... * s_{b_m}, the Hecke product, which is >=
  the ordinary product s_{b_1} ... s_{b_m} = w_0. So z_D = w_0: D reaches
  the longest element.
- The point class (_point_class, held on p) is D projected onto
  Delta \\ Delta_P. A curve through 1B of degree D projects to one through
  1P of the projected degree, so that degree reaches the projected coset
  w_0 W_P, the longest. It is checked to reach it (ConsistencyError
  otherwise), and so the point-class degree lies below it. A minimal d is
  the least degree reaching z_d, which the point-class degree reaches too,
  so d lies below the point class, coordinate by coordinate: a degree with
  a coordinate above it is refused before its greedy chain is walked. The
  table build checks that its point-class degree is this projected cascade
  degree, which it is on every parabolic of the rank-5, E6, E7 and E8
  sweeps.
- Minimality: the unit-edge test, one greedy chain per coordinate. A
  checked degree below the point class holds its entry on p beside z_d
  (_local_entry): (z_d, lifting, cascade mask) if it passes, None if not.
  On G/B the mask is built from d's greedy chain with the search's check
  (_cascade_mask), and on G/P it is the lifting's. So the later checks of
  one query, such as cascade_roots, which reads the roots of the entry's
  mask, walk no chain or descent again. A degree refused by the point
  class is not held.
- Descent (_least_reaching). If the degrees reaching w have a least element
  m, and a start s >= m reaches w, then lowering one coordinate at a time
  to the least value that still reaches w ends at m: the degrees reaching w
  form an up-set (z is monotone), so the least value is found by binary
  search, and it is m_i, since s with m_i there is still >= m and every
  degree reaching w is >= m.
- The lifting of a minimal d of G/P is the least G/B degree reaching
  w = z_d * w_P (the lifting e reaches it, and by the G/B fact above it is
  the least). e projects to d, and e lies below the point class of G/B, D,
  so the descent starts at d off Delta_P and D on Delta_P and runs over the
  coordinates of Delta_P only. The result is checked: z_d has no right
  descent in Delta_P, so w = z_d * w_P has length l(z_d) + l(w_P); z_e = w;
  and e is minimal on G/B (_entry, the unit-edge test). Each failure raises
  ConsistencyError. The descent trusts the z's it reads to be monotone.
- The point-class degree is the point class itself, table or not: it
  reaches the longest coset, and once _entry finds it minimal it is a
  minimal degree that does, which only the point-class degree is; a
  failure raises ConsistencyError.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, gt, itemgetter, mul

from .exceptions import (
    ConsistencyError, LiftingNotUniqueError, NotMinimalDegreeError, ResourceGuardError,
)
from .parabolic import Degree, Parabolic, project_coroot
from .root_system import Root, RootSystem, held, strongly_orthogonal
from .weyl import (
    WeylElement, bruhat_leq, compose, descent_mask, descents_at, first_not_below,
    hecke_reflection_on_coset, identity, longest_element, reduced_left_reflection,
    right_multiplier,
)

__all__ = [
    "borel", "maximal_roots", "greedy_decomposition", "is_p_cosmall",
    "curve_neighborhood_element", "is_minimal_degree", "point_class_degree",
    "minimal_degrees", "lifting",
]


# The most full-flag minimal degrees the enumeration may accept before it is
# refused. E8/B has 4,474, A10/B 5,798 (the largest G/B the box scan answered),
# C9/B 6,046 and A11/B 15,511.
_MAX_BOREL_DEGREES = 6_000


@held
def borel(rs: RootSystem) -> Parabolic:
    return Parabolic(rs, frozenset())


def _held(build):
    """Decorator: p holds build(p, *key) (root_system.held); every
    Parabolic(rs, frozenset()) shares the G/B table of borel(rs)."""
    return held(build, lambda p: p if p.delta_p else borel(p.system))


@_held
def _root_table(p: Parabolic):
    """The root table of p's system (RootSystem.root_table), sliced to p.

    Returns (roots, fits, above, outside, coroots): fits keeps the
    coordinates of Delta \\ Delta_P, outside masks the roots of R+ \\ R_P+
    in greedy order, which is Parabolic.negative_outside_mask (see
    RootSystem.root_table), and coroots[j] is project_coroot(p, roots[j]),
    read off the system's integer coroot table. A Levi root projects to the
    zero degree, so it fits below every degree; starting from the outside
    mask drops it and changes nothing else.
    """
    roots, fits, above, coroots = p.system.root_table
    q = p.quotient_positions
    return (roots, tuple([fits[i] for i in q]), above, p.negative_outside_mask,
            tuple([tuple([c[i] for i in q]) for c in coroots]))


# The functools memos perfbench counts (these four, parabolic.project_coroot,
# cascade.cascade_roots and weyl.reduced_word) store nothing:
# lru_cache(maxsize=0) counts every call as a miss and keeps cache_info() and
# __wrapped__. An entry would keep its key alive to the end of the process (a
# parabolic with every table it holds), and would answer a degree equal to
# its key, such as (1.0,) for (1,), before the body's first line checks it;
# each answer is held on its key already or is cheap to recompute. The
# decorators stay only because perfbench reads their counters; ROADMAP item
# 3 moves those counters, and item 4 then drops them.
@lru_cache(maxsize=0)
def maximal_roots(p: Parabolic, d: Degree) -> tuple[Root, ...]:
    """Maximal elements (root order) among roots whose coroot class is <= d.

    Sorted with the lexicographically largest coefficient vector first, which
    is the deterministic greedy tie-break.
    """
    p.check_degree(d)
    roots, fits, above, outside, _ = _root_table(p)
    cands = _fitting(fits, d, outside)
    return tuple(a for j, a in enumerate(roots)
                 if cands >> j & 1 and not above[j] & cands)


def _fitting(fits, d: Degree, cands: int) -> int:
    """The roots of the mask cands whose projected coroot is <= d (see _root_table)."""
    for fit, c in zip(fits, d):
        if c < len(fit):  # the last entry masks every root
            cands &= fit[c]
    return cands


def _greedy_step(p: Parabolic, d: Degree) -> tuple[int, Degree]:
    """The index j in _root_table(p) of the first greedy root alpha of a
    nonzero degree d, the first fitting root in greedy order; and d - alpha^vee."""
    roots, fits, _, outside, coroots = _root_table(p)
    cands = _fitting(fits, d, outside)
    if not cands:
        raise ConsistencyError(f"nonzero effective degree {d} has no maximal root")
    j = (cands & -cands).bit_length() - 1
    rest = tuple([x - y for x, y in zip(d, coroots[j])])
    if min(rest) < 0:
        raise ConsistencyError(f"peeling {roots[j]} off a degree left {rest}")
    return j, rest


@lru_cache(maxsize=0)
def greedy_decomposition(p: Parabolic, d: Degree) -> tuple[Root, ...]:
    """Peel maximal roots off d until nothing is left."""
    p.check_degree(d)
    roots = _root_table(p)[0]
    out = []
    while any(d):
        j, d = _greedy_step(p, d)
        out.append(roots[j])
    return tuple(out)


def is_p_cosmall(p: Parabolic, alpha: Root) -> bool:
    """True iff alpha is maximal among the roots of its own coroot class."""
    if not p.outside_levi(alpha):
        return False
    return alpha in maximal_roots(p, project_coroot(p, alpha))


@_held
def _z_pairs(p: Parabolic) -> dict[Degree, tuple[WeylElement, WeylElement]]:
    """(z_d, z_d^-1) for each degree d of p computed so far."""
    e = identity(p.system)
    return {p.zero_degree: (e, e)}


def _z_pair(p: Parabolic, d: Degree) -> tuple[WeylElement, WeylElement]:
    """(z_d, z_d^-1), one greedy step from z_{d - alpha^vee} at a time.

    The greedy rule is deterministic, so greedy(d) is its first root alpha
    followed by greedy(d - alpha^vee), and the Hecke product is associative:
    z_d W_P = s_alpha * z_{d - alpha^vee} W_P. The walk goes down the greedy
    chain to the first degree already known and back up, without recursion,
    so a long chain cannot exhaust the stack.
    """
    pairs = _z_pairs(p)
    chain = []
    while d not in pairs:
        j, rest = _greedy_step(p, d)
        chain.append((d, j))
        d = rest
    pair = pairs[d]
    roots = _root_table(p)[0]
    for d, k in reversed(chain):
        pair = hecke_reflection_on_coset(*pair, roots[k], p.positions)
        if descents_at(pair[0], p.positions):
            raise ConsistencyError(f"curve-neighborhood element of {d} is not in W^P")
        pairs[d] = pair
    return pair


@lru_cache(maxsize=0)
def curve_neighborhood_element(p: Parabolic, d: Degree) -> WeylElement:
    """The Weyl element attached to the degree-d curve neighborhood of 1P.

    The minimal representative of the coset of s_{a_1} * ... * s_{a_k} * w_P,
    a Hecke product over the greedy decomposition (a_1, ..., a_k) of d.
    """
    p.check_degree(d)
    return _z_pair(p, d)[0]


def _unit_steps_down(d: Degree):
    """The degrees d - e_i, over the coordinates i with d_i > 0."""
    for i, c in enumerate(d):
        if c:
            yield d[:i] + (c - 1,) + d[i + 1:]


def _passes_unit_edges(p: Parabolic, d: Degree, z: WeylElement) -> bool:
    """The unit-edge test: z_{d-e_i} != z_d for every i with d_i > 0.

    A degree that passes also has each z_{d-e_i} checked below z_d in Bruhat
    order, which is the monotonicity the test rests on: one walk down z_d
    for all of them (first_not_below).
    """
    downs = list(_unit_steps_down(d))
    below = []
    for c in downs:
        u = _z_pair(p, c)[0]
        if u == z:
            return False
        below.append(u)
    k = first_not_below(below, z)
    if k is not None:
        raise ConsistencyError(f"z is not monotone on {p}: z_{downs[k]} is not below z_{d}")
    return True


def _child_fields(fits, coroots) -> tuple[int, tuple[tuple[int, ...], ...], int, int, int]:
    """The first-greedy-root test of the search, for every child of a degree at once.

    The N roots of the root table (_root_table) each own a field of N + 1
    bits of one integer, field j at bit (N + 1) j. Returns (N + 1, tables,
    low, ones, guard). tables[i][v] holds in field j the mask fits[i][v + c],
    c the coefficient of alpha_j^vee at i (the last mask once v + c passes
    it), and low holds (1 << j) - 1, the roots before alpha_j, in field j.
    So field j of low & tables[0][d_0] & tables[1][d_1] & ... is
    _fitting(fits, d + alpha_j^vee, (1 << j) - 1). ones holds 2^N - 1 in
    every field: adding it to a field below 2^N carries into the field's
    top bit, which guard masks, exactly when the field is not 0.
    """
    n = len(coroots)
    width = n + 1
    tables = []
    for i, fit in enumerate(fits):
        last = len(fit) - 1
        # at[c] has a 1 in the field of each root whose coroot has c at i,
        # and times a mask below 2^N copies the mask into those fields
        at = [0] * (last + 1)
        for j, coroot in enumerate(coroots):
            at[coroot[i]] += 1 << width * j
        tables.append(tuple(sum([p * fit[min(v + c, last)] for c, p in enumerate(at) if p])
                            for v in range(last + 1)))
    low = sum([((1 << j) - 1) << width * j for j in range(n)])
    ones = sum([((1 << n) - 1) << width * j for j in range(n)])
    guard = sum([1 << width * j + n for j in range(n)])
    return width, tuple(tables), low, ones, guard


def _first_greedy_children(fields, d: Degree, j0: int):
    """The j <= j0, ascending, for which alpha_j is the first greedy root of
    d + alpha_j^vee: no root before alpha_j fits below it (_child_fields)."""
    width, tables, low, ones, guard = fields
    blocked = low
    for table, c in zip(tables, d):
        blocked &= table[c] if c < len(table) else table[-1]
    free = ~(blocked + ones) & guard & ((1 << width * (j0 + 1)) - 1)
    while free:
        bit = free & -free
        free ^= bit
        yield bit.bit_length() // width - 1


def _with_cascade_root(rs: RootSystem, cascade: int, k: int, e: Degree) -> int:
    """The cascade mask cascade with the root at position k added, for the
    full-flag degree e: k is checked strongly orthogonal to every root of
    cascade (ConsistencyError otherwise), unless it is one of them, which
    adds nothing."""
    bit = 1 << k
    if cascade & bit:
        return cascade
    roots, others = rs.roots, cascade
    while others:
        low = others & -others
        others ^= low
        if not strongly_orthogonal(roots[k], roots[low.bit_length() - 1]):
            raise ConsistencyError(f"cascade of {e} is not strongly orthogonal")
    return cascade | bit


def _cascade_mask(b: Parabolic, e: Degree) -> int:
    """The cascade of the full-flag degree e as a mask over root positions:
    the roots of its greedy chain, each added as the search adds it
    (_with_cascade_root)."""
    rs, d, cascade = b.system, e, 0
    top = len(rs.roots) - 1
    while any(d):
        j, d = _greedy_step(b, d)
        cascade = _with_cascade_root(rs, cascade, top - j, e)
    return cascade


def _borel_minimal(b: Parabolic) -> dict[Degree, tuple[WeylElement, int]]:
    """The minimal degrees of G/B, each with its z and its cascade mask, by a
    breadth-first search from 0.

    Each degree is queued with the index j0 of its first greedy root, and
    only its children through the roots j <= j0 that have alpha_j as their
    first greedy root are tried (_first_greedy_children; see the module
    docstring). A child's z is one Hecke step from its parent's, the step
    _z_pair takes. A child not yet in _z_pairs(b) takes it by
    reduced_left_reflection, which refuses the child at its first idle
    letter; only a child it builds joins the table. An accepted child's
    greedy decomposition is alpha_j followed by its parent's, so its
    cascade is its parent's with alpha_j added (_with_cascade_root).
    """
    rs = b.system
    if 2 ** rs.rank > _MAX_BOREL_DEGREES:  # the 0/1 degrees alone pass the cap
        raise ResourceGuardError(
            f"{rs.simple_type} has at least {2 ** rs.rank} full-flag minimal degrees, "
            f"more than the {_MAX_BOREL_DEGREES} the enumeration accepts")
    roots, fits, _, _, coroots = _root_table(b)
    # l(s_alpha) is the length of the reduced word the root system recorded
    data = rs.root_data
    steps = [len(data[a.coeffs].word) for a in roots]
    fields = _child_fields(fits, coroots)
    pairs = _z_pairs(b)
    top = len(rs.roots) - 1  # greedy index j is root position top - j
    found = {b.zero_degree: (identity(rs), 0)}
    queue = [(b.zero_degree, len(roots) - 1)]
    for d, j0 in queue:
        z, cascade = found[d]
        # checked when taken from the queue, so a refusal skips the last checks
        if not _passes_unit_edges(b, d, z):
            raise ConsistencyError(
                f"the length criterion accepts {d} on {b}, "
                f"but a unit edge below it reaches the same z")
        pair = pairs[d]
        length = z.length
        # e = d + alpha_j^vee, tried only if alpha_j is its first greedy root
        for j in _first_greedy_children(fields, d, j0):
            e = tuple([x + y for x, y in zip(d, coroots[j])])
            # then d is e's rest, and z_e W_B = s_alpha_j * z_d W_B
            child = pairs.get(e)
            if child is None:  # not yet read by a unit-edge test
                child = reduced_left_reflection(*pair, roots[j])
                if child is None:  # not reduced, so e is not minimal
                    continue
                pairs[e] = child
            elif child[0].length != length + steps[j]:
                continue
            found[e] = child[0], _with_cascade_root(rs, cascade, top - j, e)
            queue.append((e, j))
            if len(found) > _MAX_BOREL_DEGREES:
                raise ResourceGuardError(
                    f"{rs.simple_type} has more than {_MAX_BOREL_DEGREES} full-flag "
                    f"minimal degrees, the most the enumeration accepts")
    return found


@_held
def _minimal(p: Parabolic) -> tuple[dict[Degree, tuple[WeylElement, Degree, int]],
                                    dict[int, list[tuple[Degree, WeylElement, int]]] | None]:
    """The minimal degrees of p, each with its entry (z, lifting, the cascade
    mask of the lifting), and on G/B the groups of the table.

    The groups map each right-descent mask (descent_mask) to the full-flag
    minimal degrees e whose z_e has that descent set, each with z_e and its
    cascade mask. On G/P (groups None) the table is read off the groups
    whose mask contains Delta_P: their e are the full-flag minimal degrees
    whose z_e has every position of Delta_P as a right descent (see the
    module docstring).
    """
    if not p.positions:
        found, groups = {}, {}
        for d, (z, cascade) in _borel_minimal(p).items():
            found[d] = (z, d, cascade)
            groups.setdefault(descent_mask(z), []).append((d, z, cascade))
    else:
        full, by_descents = _minimal(borel(p.system))
        q, positions, groups = p.quotient_positions, p.positions, None
        pmask = sum([1 << i for i in positions])
        # z is the longest element of z W_P, so z = z_d * w_P with z_d the
        # shortest, l(z) = l(z_d) + l(w_P), and z_d = z * w_P
        times_w_p, drop = right_multiplier(p.w_p), p.w_p.length
        found = {}
        for mask, entries in by_descents.items():
            if mask & pmask != pmask:
                continue
            for e, z, cascade in entries:
                d = tuple([e[i] for i in q])
                if d in found:
                    raise LiftingNotUniqueError(f"{d} lifts to each of {[found[d][1], e]}")
                z_d = times_w_p(z, z.length - drop)
                if descents_at(z_d, positions):
                    raise ConsistencyError(f"z_{d} = z_{e} * w_P on {p} is not in W^P")
                found[d] = (z_d, e, cascade)
        # found holds projections of full-flag degrees, so it holds all of
        # them iff it has as many; itemgetter of one position gives bare
        # coordinates, which count the same, and with none (Delta_P = Delta)
        # every degree projects to ()
        if len(found) != (len(set(map(itemgetter(*q), full))) if q else 1):
            missing = {tuple([e[i] for i in q]) for e in full} - found.keys()
            raise ConsistencyError(
                f"no full-flag minimal degree longest in its coset projects to "
                f"{min(missing)} on {p}")
    target = _longest_coset(p)
    tops = [d for d, (z, _, _) in found.items() if z == target]
    if len(tops) != 1:
        raise ConsistencyError(
            f"{len(tops)} minimal degrees of {p} reach the longest coset: {tops}")
    if tops[0] != _projected_cascade(p):
        raise ConsistencyError(f"the point-class degree {tops[0]} of {p} is not the "
                               f"projected cascade degree {_projected_cascade(p)}")
    return found, groups


def _longest_coset(p: Parabolic) -> WeylElement:
    """The shortest element of the longest coset w_0 W_P."""
    return compose(longest_element(p.system), p.w_p)


@lru_cache(maxsize=0)
def is_minimal_degree(p: Parabolic, d: Degree) -> bool:
    """No strictly smaller effective degree reaches a Bruhat-larger element.

    Checks d, then reads p's table of minimal degrees (_minimal), which p
    holds; the memo stores no entry, so a call keeps neither p nor its
    tables alive. _entry calls it once per table row, and each call counts
    one miss.
    """
    p.check_degree(d)
    return d in _minimal(p)[0]


@held
def _cascade_degree(rs: RootSystem) -> Degree:
    """The sum of the coroots of Kostant's cascade, a full-flag degree: the
    highest of the positive roots left, then only the roots orthogonal to it
    left, until none is (see the module docstring).

    The first root left in greedy order (_root_table) is maximal among
    them, since a root above it is lexicographically larger; the roots left
    are the positive roots of a root subsystem, in which a maximal root is
    the highest root of its component.
    """
    data = rs.root_data
    left = [a.coeffs for a in rs.root_table[0]]
    degree = (0,) * rs.rank
    while left:
        top = data[left[0]]
        degree = tuple(map(add, degree, top.coroot))
        f = top.functional  # (y, top^vee) is y dotted with it
        left = [y for y in left if sum(map(mul, y, f)) == 0]
    return degree


def _projected_cascade(p: Parabolic) -> Degree:
    """The cascade degree of p's system (_cascade_degree) projected onto Delta \\ Delta_P."""
    full = _cascade_degree(p.system)
    return tuple([full[i] for i in p.quotient_positions])


@_held
def _point_class(p: Parabolic) -> Degree:
    """The projected cascade degree, checked to reach the longest coset: the
    point-class degree lies below it, coordinate by coordinate (see the
    module docstring)."""
    d = _projected_cascade(p)
    if _z_pair(p, d)[0] != _longest_coset(p):
        raise ConsistencyError(f"z_{d} on {p} is not the longest coset")
    return d


def _entry(p: Parabolic, d: Degree) -> tuple[WeylElement, Degree, int] | None:
    """(z_d, the lifting of d, the cascade mask of the lifting) for a minimal
    degree d of p, None for a checked degree that is not minimal: off the
    table when p (on G/B, borel) holds it, as every sweep case does, and
    otherwise decided locally (see the module docstring). The one place
    that chooses between the two. Either path checks d first: the table
    path in is_minimal_degree, whose memo stores nothing, so a case's
    parabolic and its tables go once its rows are written."""
    if _minimal.holds(p):
        return _minimal(p)[0][d] if is_minimal_degree(p, d) else None
    p.check_degree(d)
    if any(map(gt, d, _point_class(p))):
        return None
    return _local_entry(p, d)


@_held
def _local_entry(p: Parabolic, d: Degree) -> tuple[WeylElement, Degree, int] | None:
    """(z_d, the lifting of d, its cascade mask) when the checked degree d,
    below the point class, passes the unit-edge test, and otherwise None;
    held on p by d, beside z_d, so p never holds more entries than z's. On
    G/B the mask is read off d's greedy chain (_cascade_mask), and on G/P
    it is that of the lifting's entry."""
    z = _z_pair(p, d)[0]
    if not _passes_unit_edges(p, d, z):
        return None
    if p.positions:
        return z, *_local_lifting(p, d, z)
    return z, d, _cascade_mask(p, d)


def _least_reaching(p: Parabolic, start: Degree, coordinates, w: WeylElement) -> Degree:
    """The least degree reaching w (z >= w), by descent from start over the
    given coordinates, one binary search each (see the module docstring)."""
    s = list(start)
    for i in coordinates:
        lo, hi = 0, s[i]
        while lo < hi:
            s[i] = mid = (lo + hi) // 2
            if bruhat_leq(w, _z_pair(p, tuple(s))[0]):
                hi = mid
            else:
                lo = mid + 1
        s[i] = hi
    return tuple(s)


def _local_lifting(p: Parabolic, d: Degree, z: WeylElement) -> tuple[Degree, int]:
    """The lifting of a minimal degree d of p != B with z_d = z, with its
    cascade mask: the least G/B degree reaching z * w_P, by descent over the
    coordinates of Delta_P, checked (see the module docstring)."""
    b, positions = borel(p.system), p.positions
    if descents_at(z, positions):
        raise ConsistencyError(f"z_{d} on {p} is not in W^P")
    w = right_multiplier(p.w_p)(z, z.length + p.w_p.length)
    start = list(_point_class(b))
    for i, c in zip(p.quotient_positions, d):
        start[i] = c
    e = _least_reaching(b, start, positions, w)
    if _z_pair(b, e)[0] != w:
        raise ConsistencyError(f"the descent from {tuple(start)} on G/B ends at {e}, "
                               f"whose z is not z_{d} * w_P on {p}")
    entry = _entry(b, e)
    if entry is None:
        raise ConsistencyError(f"the lifting {e} of {d} on {p} fails the unit-edge test")
    return e, entry[2]


def point_class_degree(p: Parabolic) -> Degree:
    """The smallest degree whose curve neighborhood reaches the longest coset:
    the projected cascade degree (_point_class), checked minimal (_entry)."""
    d = _point_class(p)
    if _entry(p, d) is None:
        raise ConsistencyError(f"the cascade degree {d} of {p} fails the unit-edge test")
    return d


def minimal_degrees(p: Parabolic) -> tuple[Degree, ...]:
    """All minimal degrees of p, sorted."""
    return tuple(sorted(_minimal(p)[0]))


def _sweep_rows(rs: RootSystem) -> int:
    """The minimal degrees of rs summed over its 2^rank parabolics: the sum
    over full-flag minimal e of 2^(number of right descents of z_e), read
    off the groups of _minimal as each group's size times 2^(bits of its mask).

    By the G/P criterion of the module docstring, e lifts one minimal degree
    on each P whose Delta_P lies in the right descent set of z_e, and none
    on any other P; no two e lift the same degree, since distinct full-flag
    minimal degrees have distinct z (Fulton-Woodward; Postnikov).
    """
    return sum(len(entries) << mask.bit_count()
               for mask, entries in _minimal(borel(rs))[1].items())


def _z_and_lifting(p: Parabolic, d: Degree) -> tuple[WeylElement, Degree, int]:
    """z_d, the lifting of a minimal degree d and the lifting's cascade mask (_entry)."""
    entry = _entry(p, d)
    if entry is None:
        raise NotMinimalDegreeError(f"{d} is not a minimal degree for {p}")
    return entry


def lifting(p: Parabolic, d: Degree) -> Degree:
    """The full-flag minimal degree e with z_e = z_d * w_P; it projects to d.

    On G/B, d itself. On G/P, a lookup in the table of minimal degrees when
    p holds it (the full-flag minimal degree longest in its coset that
    projects to d), and otherwise the least G/B degree reaching z_d * w_P.
    """
    return _z_and_lifting(p, d)[1]
