"""Simple root systems in simple-root coordinates, with an exact invariant form.

Roots are integer coefficient vectors over the base, Bourbaki plate labeling.
The symmetric form is normalized so that short roots have squared length 2;
every quantity consumed downstream is a coroot pairing, which is independent
of that normalization.

A system is built in one pass by simple reflections from the simple roots
(_positive_roots): each positive root inherits its coroot, its integer
coroot functional, its norm, a reduced word of its reflection and its
support from the root it came from. The root table, the functionals, the
Weyl tables and the parabolic Levi data all read that pass; bilinear and
coroot_coefficients stay as the direct formulas for any root.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property, lru_cache, wraps
from typing import NamedTuple

from .exceptions import (
    ConsistencyError, InadmissibleRankError, InvalidVectorError, MixedRootSystemError,
    ResourceGuardError,
)

__all__ = [
    "SimpleType", "Root", "RootSystem", "build_root_system",
    "bilinear", "coroot_pairing", "reflect", "root_leq", "strongly_orthogonal",
    "coroot_coefficients", "is_long", "is_short", "admissible",
]

_FAMILIES = "ABCDEFG"

_ROOT_COUNTS = {
    "A": lambda l: l * (l + 1),
    "B": lambda l: 2 * l * l,
    "C": lambda l: 2 * l * l,
    "D": lambda l: 2 * l * (l - 1),
    "E": lambda l: {6: 72, 7: 126, 8: 240}[l],
    "F": lambda l: 48,
    "G": lambda l: 12,
}

# The most roots a root system is built with. Building it and its root table
# costs about |R|^2 rank / 2 steps: on a shared 2-vCPU host `mindeg roots`
# took 3.9 s for A60 (3,660 roots), 4.9 s for A62 (3,906), 4.3-5.4 s for B45
# and C45 (4,050) and 10 s for A70 (4,970). Every type of rank <= 12 has at
# most 288.
_MAX_ROOTS = 4_000


def held(build, owner=lambda x: x):
    """Decorator: x keeps build(x, *key) by key in a table in its __dict__,
    under build's module-qualified name, and frees it with itself: no
    module-global table pins x. x's first read fetches the table of owner(x),
    which x then shares. The result keeps build's name and docstring, and
    its holds(x, *key) tells, without building, whether x already holds
    build(x, *key)."""
    name = f"{build.__module__}.{build.__qualname__}"  # never an attribute name

    @wraps(build)
    def read(x, *key):
        try:
            return x.__dict__[name][key]
        except KeyError:
            memo = x.__dict__.setdefault(name, vars(owner(x)).setdefault(name, {}))
            if key not in memo:  # a table shared with owner(x) may hold it
                memo[key] = build(x, *key)
            return memo[key]

    def holds(x, *key) -> bool:
        # x's table, once it has one, is the table of owner(x)
        return key in vars(owner(x)).get(name, ())

    read.holds = holds
    return read


def admissible(family: str, rank: int) -> bool:
    return {
        "A": rank >= 1,
        "B": rank >= 2,
        "C": rank >= 2,
        "D": rank >= 3,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }.get(family, False)


class _Frozen:
    """Base of the value types: assigning or deleting an attribute raises
    AttributeError. A constructor sets its fields with object.__setattr__.
    Pickle restores a __dict__ directly but __slots__ by setattr, so a
    subclass with __slots__ pickles by a __reduce__ that calls its constructor."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class SimpleType(_Frozen):
    """A simple Lie type, e.g. SimpleType("G", 2). Equal to another SimpleType
    with the same family and rank, and hashed as (family, rank).

    The rank must be an int: True or 2.0 would equal and hash as 1 or 2, and
    the interning memo (_build) would answer a later "A1" with an "ATrue".
    The family must be a str, which the substring test against _FAMILIES
    needs."""

    def __init__(self, family: str, rank: int):
        if type(rank) is not int:
            raise InadmissibleRankError(
                f"the rank of a simple type is an int, got {type(rank).__name__} {rank!r}")
        if type(family) is not str or family not in _FAMILIES or not admissible(family, rank):
            raise InadmissibleRankError(f"no simple type {family}{rank}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.family, self.rank) == (other.family, other.rank)
        return NotImplemented

    def __hash__(self):
        return hash((self.family, self.rank))

    def __repr__(self) -> str:
        return f"SimpleType(family={self.family!r}, rank={self.rank!r})"

    @classmethod
    def parse(cls, label: str) -> "SimpleType":
        """A family letter A-G in either case, optional whitespace, then the
        rank in decimal digits. str.strip and str.isdecimal take the same
        Unicode whitespace and digits as a regular expression's whitespace
        and digit classes, without compiling one."""
        text = label.strip()
        letter, digits = text[:1], text[1:].lstrip()
        if not (letter and letter in "ABCDEFGabcdefg" and digits.isdecimal()):
            raise InadmissibleRankError(f"cannot parse simple type {label!r}")
        try:
            rank = int(digits)
        except ValueError:  # more digits than int() converts from a string
            raise InadmissibleRankError(
                f"cannot parse simple type {text[:12]}...: its rank has "
                f"{len(digits)} digits") from None
        return cls(letter.upper(), rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _cartan_matrix(family: str, l: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with entry [i][j] = (beta_j, beta_i^vee), Bourbaki labels."""
    C = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
    if family == "D":
        edges = [(i, i + 1) for i in range(l - 2)] + [(l - 3, l - 1)]
    elif family == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if l >= 7:
            edges.append((5, 6))
        if l == 8:
            edges.append((6, 7))
    else:
        edges = [(i, i + 1) for i in range(l - 1)]
    for i, j in edges:
        C[i][j] = C[j][i] = -1
    if family == "B":
        C[l - 1][l - 2] = -2
    elif family == "C":
        C[l - 2][l - 1] = -2
    elif family == "F":
        C[2][1] = -2
    elif family == "G":
        C[0][1] = -3
    return tuple(tuple(row) for row in C)


def _symmetrizer(cartan: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Minimal positive integers d with d_i * c[i][j] == d_j * c[j][i].

    A search over the Dynkin diagram sets d_j = d_i c[i][j] / c[j][i] for
    each neighbour j of a vertex i it has reached. When that quotient is not
    an integer, every value set so far is first multiplied by |c[j][i]|,
    which keeps the ratios; the gcd is divided out at the end.
    """
    l = len(cartan)
    d = [0] * l
    d[0] = 1
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(l):
            if i != j and cartan[i][j] != 0 and not d[j]:
                num, den = d[i] * cartan[i][j], cartan[j][i]
                if num % den:
                    d = [x * -den for x in d]
                    num *= -den
                d[j] = num // den
                stack.append(j)
    if not all(d):
        raise ConsistencyError("Dynkin diagram must be connected")
    g = math.gcd(*d)
    ints = [x // g for x in d]
    if min(ints) != 1:
        raise ConsistencyError("short roots are normalized to squared length 2")
    return tuple(ints)


class Root(_Frozen):
    """A root, as its integer coefficient vector over the simple roots. Equal
    to another Root with the same system and coefficients, and hashed as
    (system, coeffs)."""

    def __init__(self, system: "RootSystem", coeffs: tuple[int, ...]):
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.system, self.coeffs) == (other.system, other.coeffs)
        return NotImplemented

    def __hash__(self):
        return hash((self.system, self.coeffs))

    @property
    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def __neg__(self) -> "Root":
        return self.system.root(tuple(-c for c in self.coeffs))

    def __repr__(self) -> str:
        return f"Root({self.system.simple_type}, {list(self.coeffs)})"


class RootData(NamedTuple):
    """What the pass by simple reflections (_positive_roots) records for a
    positive root y."""

    coroot: tuple[int, ...]  # y^vee over the simple coroots
    functional: tuple[int, ...]  # ((alpha_k, y^vee))_k, an integer functional
    norm: int  # (y, y)
    word: tuple[int, ...]  # a reduced word of s_y (0-based letters), a palindrome
    support: int  # bit k is set iff y has a nonzero coefficient at alpha_k


def _positive_roots(cartan: tuple[tuple[int, ...], ...],
                    symmetrizer: tuple[int, ...]) -> dict[tuple[int, ...], RootData]:
    """The positive roots in order of height, each with its RootData, in one
    pass by simple reflections from the simple roots.

    alpha_i has coroot alpha_i^vee, functional the Cartan row i, norm 2 d_i
    (d the symmetrizer), word (i,) and support {i}. A positive root y' of
    height > 1 has (y', alpha_i) > 0 for some i, as (y', y') > 0; then
    y = s_i(y') is a lower positive root and y' = s_i(y) = y + m alpha_i with
    m = -(y, alpha_i^vee) > 0. So visiting the roots by height and stepping
    from each y along every i with m > 0 meets every positive root, each
    from a lower root already visited. The first y to reach y' gives it
    - its coroot y'^vee = s_i(y^vee) = y^vee - (alpha_i, y^vee) alpha_i^vee;
    - its functional f(y')_k = (alpha_k, y'^vee) = f(y)_k - f(y)_i (alpha_k, alpha_i^vee);
    - its norm, the norm of y, since s_i is an isometry;
    - the word i w(y) i of s_{y'} = s_i s_y s_i. It is reduced: with
      k = -(alpha_i, y^vee) > 0, s_y(alpha_i) = alpha_i + k y > 0, so
      l(s_y s_i) = l(s_y) + 1; and s_i s_y(alpha_i) = k y + (k m - 1) alpha_i
      > 0, so l(s_i s_y s_i) = l(s_y) + 2. Its length is l(s_{y'});
    - its support, that of y with i added;
    - its pairings (y', alpha_k^vee) = (y, alpha_k^vee) + m (alpha_i, alpha_k^vee),
      which choose its own steps, so no root sums its pairings afresh.
    No bilinear form, coroot division, reflection element or inversion
    count is computed on the way.
    """
    rank = len(cartan)
    data = {}
    # pairings[y][i] = (y, alpha_i^vee); for alpha_j, column j of the Cartan matrix
    columns = tuple(zip(*cartan))
    pairings = {}
    by_height = [[]]
    for i in range(rank):
        unit = tuple([int(k == i) for k in range(rank)])
        data[unit] = RootData(unit, cartan[i], 2 * symmetrizer[i], (i,), 1 << i)
        pairings[unit] = columns[i]
        by_height[0].append(unit)
    # by_height grows while it is read: a root found from one of height h
    # joins a higher level, visited later in this loop
    for h, level in enumerate(by_height, 1):
        for y in level:
            coroot, f, norm, word, support = data[y]
            pairing = pairings[y]
            for i, row in enumerate(cartan):
                m = -pairing[i]  # -(y, alpha_i^vee)
                if m <= 0:
                    continue
                up = y[:i] + (y[i] + m,) + y[i + 1:]
                if up in data:
                    continue
                fi = f[i]
                data[up] = RootData(coroot[:i] + (coroot[i] - fi,) + coroot[i + 1:],
                                    tuple([fk - fi * c for fk, c in zip(f, row)]),
                                    norm, (i, *word, i), support | 1 << i)
                pairings[up] = tuple([a + m * c for a, c in zip(pairing, columns[i])])
                by_height.extend([] for _ in range(h + m - len(by_height)))
                by_height[h + m - 1].append(up)
    return {y: data[y] for level in by_height for y in level}


class RootSystem:
    """All roots of one simple type; immutable after construction.

    Instances are memoized by type (see build_root_system), so identity
    comparison is the right notion of equality; unpickling returns the
    memoized instance, so copies of roots and Weyl elements stay comparable.
    The positive roots come from one pass by simple reflections
    (_positive_roots), and every per-root table reads what it recorded:
    root_data maps the coefficients of each positive root to its RootData.
    """

    def __init__(self, simple_type: SimpleType):
        # refused by the closed-form root count, before anything of size rank^2
        expected = _ROOT_COUNTS[simple_type.family](simple_type.rank)
        if expected > _MAX_ROOTS:
            raise ResourceGuardError(
                f"{simple_type} has more than the {_MAX_ROOTS} roots a root system "
                f"may be built with")
        self.simple_type = simple_type
        self.rank = simple_type.rank
        self.cartan = _cartan_matrix(simple_type.family, simple_type.rank)
        self.symmetrizer = _symmetrizer(self.cartan)
        self.root_data = _positive_roots(self.cartan, self.symmetrizer)
        if 2 * len(self.root_data) != expected:
            raise ConsistencyError(
                f"{simple_type}: got {2 * len(self.root_data)} roots, expected {expected}")
        coeffs = [*self.root_data, *(tuple([-c for c in y]) for y in self.root_data)]
        roots = tuple(Root(self, c) for c in sorted(coeffs))
        self.roots = roots
        # Coefficients of each root -> its position in roots. roots is sorted
        # by coefficients, so a bitmask over these positions lists its roots
        # in that order from the lowest bit up. The coefficients of a root
        # share one sign, so every negative root comes before every positive
        # one, as many of each, and negation reverses the order: -roots[k] is
        # roots[N-1-k], N = len(roots).
        self.root_positions = {r.coeffs: k for k, r in enumerate(roots)}
        self.positive_roots = roots[len(roots) // 2:]
        self.simple_roots = tuple(
            self.root(1 if k == i else 0 for k in range(self.rank)) for i in range(self.rank))
        lengths = {data.norm for data in self.root_data.values()}
        self._min_norm = min(lengths)
        self._max_norm = max(lengths)
        if self._min_norm != 2:
            raise ConsistencyError(f"{simple_type}: short roots must have squared length 2")

    def root(self, coeffs) -> Root:
        return self.roots[self.root_positions[tuple(coeffs)]]

    def is_root(self, coeffs) -> bool:
        return tuple(coeffs) in self.root_positions

    @cached_property
    def root_table(self) -> tuple[tuple[Root, ...], tuple[tuple[int, ...], ...],
                                  tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The positive roots as bitmask data, built once per system.

        Returns (roots, fits, above, coroots). roots is sorted with the
        lexicographically largest coefficient vector first (the greedy
        tie-break), and bit j of a mask stands for roots[j]. fits[i][c] masks
        the roots whose coroot has coefficient <= c at the simple coroot
        alpha_i^vee (the last entry, the largest such coefficient, masks them
        all), above[j] masks the roots strictly above roots[j] in the root
        order, and coroots[j] is the coroot of roots[j] over the simple
        coroots, read off root_data.

        If a < b are positive roots, some a + alpha_i is a root <= b: b - a is
        a nonzero sum of simple roots with (b - a, b - a) > 0, so
        (b - a, alpha_i) > 0 for some alpha_i it contains. If (a, alpha_i) < 0,
        a + alpha_i is a root; otherwise (b, alpha_i) > 0, so b - alpha_i is a
        root >= a, and it is a + alpha_i or, by induction on the height of
        b - a, above some root a + alpha_j. So the roots above a are its covers
        a + alpha_i and the roots above them; a cover is lexicographically
        larger, so it comes first and its mask is known.
        """
        roots = self.positive_roots[::-1]
        coroots = tuple([self.root_data[a.coeffs].coroot for a in roots])
        fits = []
        for i in range(self.rank):
            at = [0] * (max(c[i] for c in coroots) + 1)
            for j, c in enumerate(coroots):
                at[c[i]] |= 1 << j
            fits.append(tuple(itertools.accumulate(at, operator.or_)))
        position = {a.coeffs: j for j, a in enumerate(roots)}
        above = []
        for a in roots:
            y, mask = a.coeffs, 0
            for i in range(self.rank):
                k = position.get(y[:i] + (y[i] + 1,) + y[i + 1:])
                if k is not None:
                    mask |= 1 << k | above[k]
            above.append(mask)
        return roots, tuple(fits), tuple(above), coroots

    @held
    def pairing_row(self, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """For the positive root alpha = roots[k], over the positive roots gamma
        in the order of roots (gamma = roots[N/2 + j] at index j): the pairings
        (gamma, alpha^vee); and the position of -(alpha + gamma), or -1 where
        alpha + gamma is not a root. Built on the first read of alpha, and
        held for every parabolic of the system to slice.

        The pairings are gamma dotted with alpha's functional, summed column
        by column (positive_columns) over its nonzero entries. A root
        beta = alpha + gamma lies above alpha in the root order, so the sums
        are found among the roots above alpha (root_table), few for the high
        roots that cascades hold: beta is at greedy index j of root_table,
        which is roots[N-1-j], so -beta is roots[j].
        """
        roots, positions = self.roots, self.root_positions
        n, a = len(roots), roots[k].coeffs
        if min(a) < 0:
            raise ValueError(f"{roots[k]} is not a positive root")
        pairings = [0] * (n // 2)
        for c, column in zip(self.root_data[a].functional, self.positive_columns):
            if c:
                pairings = list(map(operator.add, pairings,
                                    map(operator.mul, column, itertools.repeat(c))))
        negated = [-1] * (n // 2)
        above = self.root_table[2][n - 1 - k]
        while above:
            low = above & -above
            j = low.bit_length() - 1
            above ^= low
            g = positions.get(tuple(map(operator.sub, roots[n - 1 - j].coeffs, a)))
            if g is not None:  # beta - alpha is a root, positive as beta > alpha
                negated[g - n // 2] = j
        return tuple(pairings), tuple(negated)

    @cached_property
    def positive_columns(self) -> tuple[tuple[int, ...], ...]:
        """For each simple root alpha_i, the coefficients at alpha_i of the
        positive roots, in the order of roots."""
        return tuple(zip(*[r.coeffs for r in self.positive_roots]))

    @cached_property
    def root_supports(self) -> tuple[int, ...]:
        """The support mask (RootData.support) of each root, in the order of
        roots; -y has the support of y."""
        data = self.root_data
        return tuple([data[y if min(y) >= 0 else tuple([-c for c in y])].support
                      for y in (r.coeffs for r in self.roots)])

    @cached_property
    def coroot_functionals(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Coefficients of each root y -> its integer functional ((alpha_i, y^vee))_i,
        read off root_data; (-y)^vee = -y^vee."""
        out = {}
        for y, data in self.root_data.items():
            out[y] = data.functional
            out[tuple([-c for c in y])] = tuple([-c for c in data.functional])
        return out

    @cached_property
    def highest_root(self) -> Root:
        roots, _, above, _ = self.root_table
        top = [a for a, mask in zip(roots, above) if not mask]
        if len(top) != 1:
            raise ConsistencyError(f"{self.simple_type}: expected one highest root, got {top}")
        return top[0]

    def __reduce__(self):
        return build_root_system, (self.simple_type,)

    def __repr__(self) -> str:
        return f"RootSystem({self.simple_type})"


@lru_cache(maxsize=None)
def _build(simple_type: SimpleType) -> RootSystem:
    return RootSystem(simple_type)


def build_root_system(t) -> RootSystem:
    """Construct (and memoize) the root system of a simple type.

    Accepts a SimpleType or a label string like "G2" or "B3".
    """
    if isinstance(t, str):
        t = SimpleType.parse(t)
    return _build(t)


def _coeffs(x) -> tuple[int, ...]:
    return x.coeffs if isinstance(x, Root) else tuple(x)


def _system_of(*args) -> RootSystem:
    systems = [a.system for a in args if isinstance(a, Root)]
    if not systems:
        raise TypeError("at least one argument must be a Root")
    for s in systems[1:]:
        if s is not systems[0]:
            raise MixedRootSystemError(
                f"mixed root systems {systems[0].simple_type} and {s.simple_type}")
    return systems[0]


def _vector(rs: RootSystem, x) -> tuple[int, ...]:
    """The coefficients of x, which must number rs.rank."""
    v = _coeffs(x)
    if len(v) != rs.rank:
        raise InvalidVectorError(
            f"{v} has {len(v)} coefficients, {rs.simple_type} needs {rs.rank}")
    return v


def bilinear(x, y) -> int:
    """The invariant symmetric form (x, y); integral on the root lattice."""
    rs = _system_of(x, y)
    xv, yv = _vector(rs, x), _vector(rs, y)
    total = 0
    for i, xi in enumerate(xv):
        if not xi:
            continue
        row = rs.cartan[i]
        total += xi * rs.symmetrizer[i] * sum(row[j] * yj for j, yj in enumerate(yv) if yj)
    return total


def coroot_pairing(x, y: Root) -> int:
    """The pairing (x, y^vee) = 2 (x, y) / (y, y); an integer on the root lattice.

    Read as the dot product of x with y's integer functional (see
    RootSystem.coroot_functionals).
    """
    rs = _system_of(x, y)
    return sum(a * b for a, b in zip(_vector(rs, x), rs.coroot_functionals[y.coeffs]))


def reflect(alpha: Root, lam):
    """Reflection of lam in the hyperplane perpendicular to the root alpha."""
    rs = _system_of(alpha, lam) if isinstance(lam, Root) else alpha.system
    lv = _coeffs(lam)
    c = coroot_pairing(lv, alpha)
    out = tuple(l - c * a for l, a in zip(lv, alpha.coeffs))
    return rs.root(out) if isinstance(lam, Root) else out


def root_leq(a: Root, b: Root) -> bool:
    """Partial order with positive cone spanned by the simple roots."""
    _system_of(a, b)
    return all(x <= y for x, y in zip(a.coeffs, b.coeffs))


def strongly_orthogonal(alpha: Root, gamma: Root) -> bool:
    """Neither the sum nor the difference is a root or zero."""
    index = alpha.system.root_positions
    for v in (tuple(map(operator.add, alpha.coeffs, gamma.coeffs)),
              tuple(map(operator.sub, alpha.coeffs, gamma.coeffs))):
        if not any(v) or v in index:
            return False
    return True


def coroot_coefficients(alpha: Root) -> tuple[int, ...]:
    """Coefficients of alpha^vee over the simple coroots; integral for roots."""
    rs = alpha.system
    norm = bilinear(alpha, alpha)
    out = []
    for a, d in zip(alpha.coeffs, rs.symmetrizer):
        c, r = divmod(2 * a * d, norm)
        if r:
            raise ConsistencyError(f"coroot of {alpha} is not integral")
        out.append(c)
    return tuple(out)


def is_short(alpha: Root) -> bool:
    return bilinear(alpha, alpha) == alpha.system._min_norm


def is_long(alpha: Root) -> bool:
    return bilinear(alpha, alpha) == alpha.system._max_norm
