"""Weyl group elements acting on the root lattice.

An element is stored by the images of the simple roots, which is canonical:
two words represent the same element iff these images agree. mul_gen carries
the length along (w * s_i is one longer iff w(alpha_i) > 0); elements built
otherwise count inversions on first use. Reduced words come from descent
stripping (smallest Bourbaki index first, so all derived products are
reproducible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

from .exceptions import ConsistencyError, MixedRootSystemError
from .root_system import Root, RootSystem, reflect

__all__ = [
    "WeylElement", "identity", "simple_reflection", "reflection", "compose",
    "mul_gen", "is_negative",
    "reduced_word", "word_str", "longest_element", "hecke_product",
    "bruhat_leq", "inversion_set", "center_elements", "all_elements",
    "weyl_group_order",
]


def is_negative(vec: tuple[int, ...]) -> bool:
    # valid for sign-homogeneous nonzero vectors (roots)
    return min(vec) < 0


@dataclass(frozen=True)
class WeylElement:
    system: RootSystem
    images: tuple[tuple[int, ...], ...]
    # l(w) when the constructor knows it; otherwise counted on first use
    _length: int | None = field(default=None, compare=False, repr=False)

    def apply(self, v):
        """Apply to a Root or to a coefficient vector over the simple roots."""
        if isinstance(v, Root):
            if v.system is not self.system:
                raise MixedRootSystemError("element and root live in different systems")
            return self.system.root(self.apply(v.coeffs))
        out = [0] * self.system.rank
        for j, c in enumerate(v):
            if c:
                img = self.images[j]
                for k in range(len(out)):
                    out[k] += c * img[k]
        return tuple(out)

    @property
    def length(self) -> int:
        if self._length is None:
            object.__setattr__(self, "_length", len(inversion_set(self)))
        return self._length

    @property
    def is_identity(self) -> bool:
        return self.images == identity(self.system).images

    def __repr__(self) -> str:
        word = word_str(self) or "e"
        return f"WeylElement({self.system.simple_type}, {word!r})"


def _same_group(u: WeylElement, v: WeylElement) -> RootSystem:
    if u.system is not v.system:
        raise MixedRootSystemError("elements of different Weyl groups")
    return u.system


@lru_cache(maxsize=None)
def identity(rs: RootSystem) -> WeylElement:
    l = rs.rank
    return WeylElement(rs, tuple(tuple(1 if k == i else 0 for k in range(l))
                                 for i in range(l)), 0)


def mul_gen(w: WeylElement, i: int) -> WeylElement:
    """Right multiplication w * s_i (i is a 0-based simple index)."""
    base = w.images[i]
    images = tuple([
        img if c == 0 else tuple([x - c * b for x, b in zip(img, base)])
        for img, c in zip(w.images, w.system.cartan[i])
    ])
    length = w._length
    if length is not None:
        length += -1 if is_negative(base) else 1
    return WeylElement(w.system, images, length)


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    return mul_gen(identity(rs), i)


@lru_cache(maxsize=None)
def reflection(rs: RootSystem, alpha: Root) -> WeylElement:
    """The reflection s_alpha as a Weyl group element."""
    return WeylElement(rs, tuple(reflect(alpha, b).coeffs for b in rs.simple_roots))


def compose(u: WeylElement, v: WeylElement) -> WeylElement:
    """(u o v)(x) = u(v(x))."""
    rs = _same_group(u, v)
    return WeylElement(rs, tuple(u.apply(img) for img in v.images))


@lru_cache(maxsize=None)
def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """Reduced word (0-based indices) by stripping the smallest right descent."""
    word = []
    cur = w
    ident = identity(w.system).images
    while cur.images != ident:
        i = next(k for k, img in enumerate(cur.images) if is_negative(img))
        word.append(i)
        cur = mul_gen(cur, i)
    return tuple(reversed(word))


def word_str(w: WeylElement) -> str:
    """Serialized reduced word in 1-based Bourbaki generator indices."""
    return " ".join(str(i + 1) for i in reduced_word(w))


@lru_cache(maxsize=None)
def _longest(rs: RootSystem, indices: frozenset[int]) -> WeylElement:
    order = sorted(indices)
    w = identity(rs)
    while True:
        for i in order:
            if not is_negative(w.images[i]):
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
        if not is_negative(w.images[i]):
            w = mul_gen(w, i)
    return w


def bruhat_leq(u: WeylElement, v: WeylElement) -> bool:
    """Bruhat order, via the lifting property along right descents of v.

    For a right descent s of v: u <= v iff min(u, us) <= vs. Each step
    shortens v by one and u by at most one, so the walk stops once the
    lengths meet, where u <= v iff u == v.
    """
    cartan = _same_group(u, v).cartan
    lu, lv = u.length, v.length
    if lu >= lv:
        return lu == lv and u.images == v.images
    # The walk runs on each image root packed as the integer sum_k c_k 16**k.
    # Root coefficients lie in -6..6, so the packing is one-to-one on roots;
    # roots are sign-homogeneous, so the integer has the sign of the root; and
    # it is linear, so mul_gen's update applies to it unchanged.
    weights = [16 ** k for k in range(len(cartan))]
    pu = [sum(map(mul, img, weights)) for img in u.images]
    pv = [sum(map(mul, img, weights)) for img in v.images]
    while lu < lv:
        i = next(k for k, x in enumerate(pv) if x < 0)
        b = pv[i]
        pv = [x - c * b for x, c in zip(pv, cartan[i])]
        lv -= 1
        b = pu[i]
        if b < 0:
            pu = [x - c * b for x, c in zip(pu, cartan[i])]
            lu -= 1
    return pu == pv


def inversion_set(w: WeylElement) -> tuple[Root, ...]:
    """All positive roots sent negative by w; its size is the length."""
    return tuple(a for a in w.system.positive_roots
                 if is_negative(w.apply(a.coeffs)))


def center_elements(rs: RootSystem) -> frozenset[WeylElement]:
    """The center of the Weyl group: {e}, joined by w_o exactly when w_o = -1."""
    e = identity(rs)
    w0 = longest_element(rs)
    minus_one = all(img == tuple(-c for c in b.coeffs)
                    for img, b in zip(w0.images, rs.simple_roots))
    center = {e, w0} if minus_one else {e}
    for w in center:
        for i in range(rs.rank):
            s = simple_reflection(rs, i)
            if compose(w, s) != compose(s, w):
                raise ConsistencyError("claimed central element does not commute")
    return frozenset(center)


@lru_cache(maxsize=None)
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
