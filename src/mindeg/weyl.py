"""Weyl group elements acting on the root lattice.

An element is stored by the images of the simple roots, which is canonical:
two words represent the same element iff these images agree. Each image is
a root packed as the integer sum_k c_k 16**k of its coefficients c_k over the
simple roots. Root coefficients lie in -6..6, so the packing is one-to-one on
roots; roots are sign-homogeneous, so the integer has the sign of the root;
and it is linear, so a Weyl group action on roots is an action on the packed
integers. One table per root system (_steps) maps each packed root to its
coefficients and its integer coroot functional, so the hot loops below never
unpack a root; it also holds the sparse Cartan rows. The Hecke steps read the
reduced word of each reflection s_alpha where the root system's pass by
simple reflections recorded it (RootSystem.root_data).
The packed format never leaves this module.

mul_gen carries the length along (w * s_i is one longer iff w(alpha_i) > 0);
elements built otherwise count inversions on first use. Reduced words come
from descent stripping (smallest Bourbaki index first, so all derived
products are reproducible). Each system holds the written words (word_str)
in one table, a text per element asked about and none for the elements a
strip passes (_word_texts). The word of w is the word of w s_i followed by
i, for the smallest right descent s_i of w, so a strip stops at the first
element already in the table, and no text depends on what was written
before it.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .exceptions import ConsistencyError, MixedRootSystemError
from .root_system import Root, RootSystem, _Frozen, _vector, held, reflect

__all__ = [
    "WeylElement", "identity", "simple_reflection", "reflection", "compose",
    "mul_gen", "descents_at", "descent_mask", "right_multiplier", "hecke_reflection_on_coset",
    "reduced_left_reflection", "reduced_word", "word_str", "longest_element", "hecke_product",
    "bruhat_leq", "first_not_below", "inversion_set", "center_elements", "all_elements",
]


def _pack(coeffs) -> int:
    return sum(c << 4 * k for k, c in enumerate(coeffs))


def _unpack(x: int, rank: int) -> tuple[int, ...]:
    """The coefficients of the root packed as x."""
    if x < 0:
        return tuple([-c for c in _unpack(-x, rank)])
    return tuple([x >> s & 15 for s in range(0, 4 * rank, 4)])


class _Steps:
    """The per-system root table and the data of the Hecke step and the Bruhat walk.

    table maps each packed root y to (its coefficients, its coroot
    functional); the functional lists the pairs (i, (alpha_i, y^vee)) whose
    value is not 0, read off RootSystem.root_data, with (-y)^vee = -y^vee.
    simple holds the packed simple roots, and rows[i] is the sparse Cartan
    row of s_i, the functional of alpha_i:
    s_i(alpha_j) = alpha_j - (alpha_j, alpha_i^vee) alpha_i.
    strips[i] is what stripping s_i from the right reads: the first position
    of rows[i], and the entries (j, c) of rows[i] with j != i, i's neighbours
    in the Dynkin diagram; stripping s_i negates w(alpha_i), since c = 2 at
    j = i. letters[i] is the 1-based Bourbaki label of s_i as a string.
    The Hecke steps read the reduced word of s_alpha = s_{-alpha} off
    RootSystem.root_data, under whichever of alpha and -alpha is positive.
    """

    __slots__ = ("table", "simple", "rows", "strips", "letters")

    def __init__(self, rs: RootSystem):
        # _pack is linear, so -y packs to -x: one pass over the positive roots
        table = self.table = {}
        for y, data in rs.root_data.items():
            x, f = _pack(y), tuple([(i, c) for i, c in enumerate(data.functional) if c])
            table[x] = (y, f)
            table[-x] = (tuple([-c for c in y]), tuple([(i, -c) for i, c in f]))
        self.simple = identity(rs).images
        self.rows = tuple(self.table[x][1] for x in self.simple)
        self.strips = tuple((row[0][0], tuple([(j, c) for j, c in row if j != i]))
                            for i, row in enumerate(self.rows))
        self.letters = tuple(str(i + 1) for i in range(rs.rank))


class WeylElement(_Frozen):
    """An element w of the Weyl group of system, by images, the packed roots
    w(alpha_j). Equal to another WeylElement with the same system and images,
    and hashed as (system, images); _length, l(w) when the constructor knows
    it and otherwise counted on first use, takes no part."""

    __slots__ = ("system", "images", "_length")

    def __init__(self, system: RootSystem, images: tuple[int, ...], _length: int | None = None):
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_length", _length)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.system, self.images) == (other.system, other.images)
        return NotImplemented

    def __hash__(self):
        return hash((self.system, self.images))

    def __reduce__(self):
        return WeylElement, (self.system, self.images, self._length)

    def apply(self, v):
        """Apply to a Root or to a coefficient vector over the simple roots."""
        table = _steps(self.system).table
        if isinstance(v, Root):
            if v.system is not self.system:
                raise MixedRootSystemError("element and root live in different systems")
            # w(v) is a root, so its packed image is a key of the table
            x = sum([c * img for c, img in zip(v.coeffs, self.images) if c])
            return self.system.root(table[x][0])
        out = [0] * self.system.rank
        for c, img in zip(_vector(self.system, v), self.images):
            if c:
                for k, x in enumerate(table[img][0]):
                    out[k] += c * x
        return tuple(out)

    @property
    def length(self) -> int:
        if self._length is None:
            object.__setattr__(self, "_length", len(inversion_set(self)))
        return self._length

    def __repr__(self) -> str:
        word = word_str(self) or "e"
        return f"WeylElement({self.system.simple_type}, {word!r})"


def _same_group(u: WeylElement, v: WeylElement) -> RootSystem:
    if u.system is not v.system:
        raise MixedRootSystemError("elements of different Weyl groups")
    return u.system


@held
def identity(rs: RootSystem) -> WeylElement:
    return WeylElement(rs, tuple(1 << 4 * i for i in range(rs.rank)), 0)


@held
def _steps(rs: RootSystem) -> _Steps:
    return _Steps(rs)


def mul_gen(w: WeylElement, i: int) -> WeylElement:
    """Right multiplication w * s_i (i is a 0-based simple index)."""
    base = w.images[i]
    images = tuple([x - c * base for x, c in zip(w.images, w.system.cartan[i])])
    length = w._length
    if length is not None:
        length += -1 if base < 0 else 1
    return WeylElement(w.system, images, length)


def descents_at(w: WeylElement, positions) -> int:
    """How many of the positions i are right descents of w, i.e. w(alpha_i) < 0."""
    images = w.images
    return sum([images[i] < 0 for i in positions])


def descent_mask(w: WeylElement) -> int:
    """The right descent set of w as a bitmask: bit i is set iff w(alpha_i) < 0."""
    return sum([1 << i for i, x in enumerate(w.images) if x < 0])


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    return mul_gen(identity(rs), i)


@held
def reflection(rs: RootSystem, alpha: Root) -> WeylElement:
    """The reflection s_alpha as a Weyl group element."""
    return WeylElement(rs, tuple(_pack(reflect(alpha, b).coeffs) for b in rs.simple_roots))


def compose(u: WeylElement, v: WeylElement) -> WeylElement:
    """(u o v)(x) = u(v(x)), the product u * v."""
    rs = _same_group(u, v)
    table, images = _steps(rs).table, u.images
    return WeylElement(rs, tuple([sum(map(mul, table[img][0], images)) for img in v.images]))


def right_multiplier(v: WeylElement):
    """The map (u, length) -> u * v with the given length l(u * v), for a fixed v.

    (u * v)(alpha_j) = u(v(alpha_j)) is the sum of c * u(alpha_k) over the
    nonzero coefficients c_k of v(alpha_j), read once here into sparse rows.
    Only the positions whose simple root v moves are recomputed: for v = w_S,
    the longest element of W_S, those are S and its neighbours, since w_S
    fixes every simple root orthogonal to S. So each product costs the
    entries of those rows, not the rank^2 products of compose.
    """
    rs = v.system
    table = _steps(rs).table
    moved = []
    for j, img in enumerate(v.images):
        row = tuple((k, c) for k, c in enumerate(table[img][0]) if c)
        if row != ((j, 1),):
            moved.append((j, row))

    def times_v(u: WeylElement, length: int) -> WeylElement:
        if u.system is not rs:
            raise MixedRootSystemError("elements of different Weyl groups")
        images = u.images
        out = list(images)
        for j, row in moved:
            out[j] = sum([c * images[k] for k, c in row])
        return WeylElement(rs, tuple(out), length)

    return times_v


def _stripped_word(w: WeylElement) -> list[int]:
    """The reduced word of w by stripping the smallest right descent s_i,
    last letter first.

    Only the identity has no right descent, so the stripping ends there: at
    the sentinel descent past the last position. No position before the
    smallest descent i is a descent, and stripping s_i negates the image at
    i and changes only the images at i's neighbours (_Steps.strips), so the
    next scan starts at the first of i and its neighbours.
    """
    strips = _steps(w.system).strips
    rank = w.system.rank
    images = [*w.images, -1]
    word = []
    i = 0
    while True:
        while images[i] >= 0:
            i += 1
        if i == rank:
            return word
        word.append(i)
        b = images[i]
        images[i] = -b
        i, neighbours = strips[i]
        for j, c in neighbours:
            images[j] -= c * b


@lru_cache(maxsize=0)  # stores nothing: see curve_nbhd.maximal_roots
def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """Reduced word (0-based indices) by stripping the smallest right
    descent (_stripped_word); hecke_product reads its right factor's."""
    return tuple(reversed(_stripped_word(w)))


@held
def _word_texts(rs: RootSystem) -> dict[tuple[int, ...], str]:
    """word_str's table: the text of each element of rs it was asked about,
    by images; the identity's is ""."""
    return {}


def word_str(w: WeylElement) -> str:
    """Serialized reduced word in 1-based Bourbaki generator indices: the
    letters of reduced_word, read from or written to w.system's table
    (_word_texts).

    A miss strips the smallest right descent as _stripped_word does, and
    after each letter looks the stripped element up: the word of w is the
    word of w s_i followed by i, so at the first element with a text, w's
    text is that text followed by the stripped letters, reversed. Texts do
    not depend on what the table held before, and only w's is stored.
    """
    texts = _word_texts(w.system)
    text = texts.get(w.images)
    if text is not None:
        return text
    steps = _steps(w.system)
    strips, letters = steps.strips, steps.letters
    images = list(w.images)
    word = []
    i = 0
    while text is None:
        try:
            while images[i] >= 0:
                i += 1
        except IndexError:  # no right descent: the identity
            text = ""
            break
        word.append(letters[i])
        b = images[i]
        images[i] = -b
        i, neighbours = strips[i]
        for j, c in neighbours:
            images[j] -= c * b
        text = texts.get(tuple(images))
    word.reverse()
    tail = " ".join(word)
    text = texts[w.images] = f"{text} {tail}" if text else tail
    return text


@held
def _longest(rs: RootSystem, indices: frozenset[int]) -> WeylElement:
    order = sorted(indices)
    w = identity(rs)
    while True:
        for i in order:
            if w.images[i] > 0:
                w = mul_gen(w, i)
                break
        else:
            return w


def longest_element(rs: RootSystem, indices=None) -> WeylElement:
    """Longest element of the standard parabolic subgroup W_S.

    indices are 0-based simple-root positions; None means the whole group.
    """
    if indices is None:
        indices = range(rs.rank)
    return _longest(rs, frozenset(indices))


def hecke_product(u: WeylElement, v: WeylElement) -> WeylElement:
    """Monoid product: multiplication by a generator never decreases length."""
    _same_group(u, v)
    w = u
    for i in reduced_word(v):
        if w.images[i] > 0:
            w = mul_gen(w, i)
    return w


def hecke_reflection_on_coset(z: WeylElement, z_inv: WeylElement, alpha: Root,
                              positions: tuple[int, ...]) -> tuple[WeylElement, WeylElement]:
    """(y, y^-1) with y W_P = s_alpha * z W_P, the left Hecke product on cosets.

    z must be the minimal representative of its coset z W_P, with W_P the
    parabolic subgroup of the 0-based simple positions; so is y. The letters
    s_i of a reduced word of s_alpha act from the right end: the palindrome
    of RootSystem.root_data (see _Steps). The 0-Hecke (Demazure) product does
    not depend on which reduced word is used, so neither does y. With
    beta = z^-1(alpha_i), s_i lengthens z w_P iff beta > 0 and beta is not a
    simple root of W_P (if it is, s_i z = z s_beta lies in the same coset).
    When s_i acts, z^-1 becomes z^-1 s_i and z(alpha_j) drops by
    (alpha_j, beta^vee) alpha_i, since (z(alpha_j), alpha_i^vee) = (alpha_j, beta^vee).
    Both image lists are updated in place and become elements once, at the end.
    """
    rs = _same_group(z, z_inv)
    if alpha.system is not rs:
        raise MixedRootSystemError("element and root live in different systems")
    steps = _steps(rs)
    table, simple, rows = steps.table, steps.simple, steps.rows
    levi = {simple[j] for j in positions}
    images, inv = list(z.images), list(z_inv.images)
    length = z.length
    data, c = rs.root_data, alpha.coeffs  # s_alpha = s_{-alpha}
    for i in (data.get(c) or data[tuple([-x for x in c])]).word:
        beta = inv[i]
        if beta < 0 or beta in levi:
            continue
        step = simple[i]
        for j, c in rows[i]:
            inv[j] -= c * beta
        for j, c in table[beta][1]:
            images[j] -= c * step
        length += 1
    return WeylElement(rs, tuple(images), length), WeylElement(rs, tuple(inv), length)


def reduced_left_reflection(z: WeylElement, z_inv: WeylElement,
                            alpha: Root) -> tuple[WeylElement, WeylElement] | None:
    """(s_alpha z, z^-1 s_alpha) if l(s_alpha z) = l(z) + l(s_alpha), else None.

    The letters of the palindromic word of s_alpha act as in
    hecke_reflection_on_coset with no parabolic positions, but the first
    letter s_i that would be idle, z^-1(alpha_i) < 0 for the z reached so
    far, ends the step with None: each letter adds at most one to the
    length, so after an idle one the Hecke product is already shorter than
    l(z) + l(s_alpha). When every letter acts, the Hecke product is the
    group product, and the result is exactly the pair
    hecke_reflection_on_coset(z, z_inv, alpha, ()) returns, with its length.
    """
    rs = _same_group(z, z_inv)
    if alpha.system is not rs:
        raise MixedRootSystemError("element and root live in different systems")
    steps = _steps(rs)
    table, simple, rows = steps.table, steps.simple, steps.rows
    data, c = rs.root_data, alpha.coeffs  # s_alpha = s_{-alpha}
    word = (data.get(c) or data[tuple([-x for x in c])]).word
    images, inv = list(z.images), list(z_inv.images)
    for i in word:
        beta = inv[i]
        if beta < 0:
            return None
        step = simple[i]
        for j, c in rows[i]:
            inv[j] -= c * beta
        for j, c in table[beta][1]:
            images[j] -= c * step
    length = z.length + len(word)
    return WeylElement(rs, tuple(images), length), WeylElement(rs, tuple(inv), length)


def bruhat_leq(u: WeylElement, v: WeylElement) -> bool:
    """Bruhat order, via the lifting property along right descents of v.

    This is first_not_below's walk for the single u: each step strips v's
    smallest right descent s (u <= v iff min(u, us) <= vs), and the scan
    for the next descent restarts at the first of the stripped position and
    its neighbours (_Steps.strips), as in _stripped_word.
    """
    return first_not_below((u,), v) is None


def first_not_below(us, v: WeylElement) -> int | None:
    """The index of the first u of us with u not <= v in Bruhat order, or None.

    One walk down v serves all of us: each step strips v's smallest right
    descent s and, with it, every u still walking that has s as a descent.
    The lifting property (for a right descent s of v: u <= v iff
    min(u, us) <= vs) holds for each u on its own, so this is the Bruhat
    test for every u. Stripping s_i changes only the images at i and its
    neighbours (_Steps.strips), and no position before i is a descent of v,
    so the next scan restarts at the first of i and its neighbours, as in
    _stripped_word.
    A step closes the gap l(v) - l(u) by one for each u that lacks s, and a
    u is settled once its gap is 0, below v iff it equals v; once a u fails,
    the u's after it are dropped, as they cannot be the first.
    """
    rs = v.system
    lv = v.length
    failed = None
    walkers = []  # [l(v) - l(u), images of u, index] of the unsettled u's, in order
    for k, u in enumerate(us):
        if u.system is not rs:
            raise MixedRootSystemError("elements of different Weyl groups")
        gap = lv - u.length
        if gap > 0:
            walkers.append([gap, list(u.images), k])
        elif gap or u.images != v.images:
            failed = k
            break
    strips = _steps(rs).strips
    pv = list(v.images)
    i = 0
    while walkers:
        while pv[i] >= 0:
            i += 1
        b = pv[i]
        pv[i] = -b
        start, neighbours = strips[i]
        for j, c in neighbours:
            pv[j] -= c * b
        settled = False
        for walker in walkers:
            pu = walker[1]
            b = pu[i]
            if b < 0:
                pu[i] = -b
                for j, c in neighbours:
                    pu[j] -= c * b
            else:
                walker[0] -= 1
                settled = settled or not walker[0]
        if settled:
            left = []
            for walker in walkers:
                if walker[0]:
                    left.append(walker)
                elif walker[1] != pv:
                    failed = walker[2]
                    break
            walkers = left
        i = start
    return failed


def inversion_set(w: WeylElement) -> tuple[Root, ...]:
    """All positive roots sent negative by w; its size is the length."""
    return tuple(a for a in w.system.positive_roots
                 if sum(c * x for c, x in zip(a.coeffs, w.images)) < 0)


def center_elements(rs: RootSystem) -> frozenset[WeylElement]:
    """The center of the Weyl group: {e}, joined by w_o exactly when w_o = -1."""
    e = identity(rs)
    w0 = longest_element(rs)
    minus_one = w0.images == tuple(-x for x in e.images)
    center = {e, w0} if minus_one else {e}
    for w in center:
        for i in range(rs.rank):
            s = simple_reflection(rs, i)
            if compose(w, s) != compose(s, w):
                raise ConsistencyError("claimed central element does not commute")
    return frozenset(center)


@held
def all_elements(rs: RootSystem) -> tuple[WeylElement, ...]:
    """The whole Weyl group by breadth-first closure; use only at small rank."""
    e = identity(rs)
    seen = {e.images: e}
    frontier = [e]
    while frontier:
        fresh = []
        for w in frontier:
            for i in range(rs.rank):
                u = mul_gen(w, i)
                if u.images not in seen:
                    seen[u.images] = u
                    fresh.append(u)
        frontier = fresh
    return tuple(seen.values())

