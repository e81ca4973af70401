"""Parabolic data, degrees on X = G/P, and the degree pairings.

Degrees are plain integer tuples over the simple roots outside Delta_P, in
ascending Bourbaki order: the coordinates of a class in the coroot lattice
modulo the Delta_P coroots. A degree is effective iff all coordinates are
nonnegative (Parabolic.check_degree).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import mul

from .exceptions import InvalidDegreeError, InvalidParabolicError
from .root_system import Root, RootSystem, _Frozen, coroot_coefficients
from .weyl import WeylElement, longest_element

__all__ = ["Degree", "Parabolic", "project_coroot", "c1_pairing", "dim_x"]

Degree = tuple  # integer coordinates over Delta \ Delta_P


class Parabolic(_Frozen):
    """A standard parabolic, fixed by its set of simple roots (Bourbaki, 1-based).

    Equal to another Parabolic with the same system and delta_p, and hashed
    as (system, delta_p); its __dict__ keeps its cached properties and the
    tables it holds (root_system.held). An index must be an int: True would
    equal 1 and be written as true."""

    def __init__(self, system: RootSystem, delta_p):
        delta_p = frozenset(delta_p)
        non_int = sorted(repr(i) for i in delta_p if type(i) is not int)
        if non_int:
            raise InvalidParabolicError(
                f"simple-root indices must be integers, got {', '.join(non_int)}")
        bad = [i for i in delta_p if not 1 <= i <= system.rank]
        if bad:
            raise InvalidParabolicError(
                f"simple-root indices out of range 1..{system.rank}: {sorted(bad)}")
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "delta_p", delta_p)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.system, self.delta_p) == (other.system, other.delta_p)
        return NotImplemented

    def __hash__(self):
        return hash((self.system, self.delta_p))

    @cached_property
    def positions(self) -> tuple[int, ...]:
        """0-based positions of Delta_P, ascending."""
        return tuple(sorted(i - 1 for i in self.delta_p))

    @cached_property
    def quotient_positions(self) -> tuple[int, ...]:
        """0-based positions of Delta \\ Delta_P, ascending (degree coordinates)."""
        inside = set(self.positions)
        return tuple(i for i in range(self.system.rank) if i not in inside)

    @cached_property
    def levi_positions(self) -> tuple[int, ...]:
        """The positions in system.roots of R_P, ascending: the roots supported
        on Delta_P, whose support masks (RootSystem.root_supports) have no bit
        outside it. R_P = -R_P and -roots[k] is roots[N-1-k] (N = len(roots)),
        so k is a position of R_P iff N-1-k is: the lower half of these
        positions is that of R_P-, the upper half that of R_P+."""
        outside = sum([1 << i for i in self.quotient_positions])
        return tuple([k for k, support in enumerate(self.system.root_supports)
                      if not support & outside])

    @cached_property
    def levi_positive(self) -> tuple[Root, ...]:
        """R_P+: the roots at the upper half of levi_positions (see there)."""
        roots, levi = self.system.roots, self.levi_positions
        return tuple([roots[k] for k in levi[len(levi) // 2:]])

    @cached_property
    def levi_mask(self) -> int:
        """R_P as a bitmask over the positions of system.roots."""
        return sum([1 << k for k in self.levi_positions])

    @cached_property
    def outside_mask(self) -> int:
        """R+ \\ R_P+ as a bitmask over the positions of system.roots: the
        upper half of the positions, which is R+ (every negative root comes
        before every positive one, and -roots[k] is roots[N-1-k]), less the
        positions of R_P (levi_mask, symmetric as R_P = -R_P)."""
        n = len(self.system.roots)
        return ((1 << n) - (1 << n // 2)) & ~self.levi_mask

    @cached_property
    def negative_outside_mask(self) -> int:
        """R- \\ R_P- as a bitmask over the positions of system.roots, the lower
        half less R_P; also R+ \\ R_P+ in greedy order (RootSystem.root_table)."""
        return (1 << len(self.system.roots) // 2) - 1 & ~self.levi_mask

    @cached_property
    def w_p(self) -> WeylElement:
        return longest_element(self.system, self.positions)

    @cached_property
    def c1_weights(self) -> tuple[int, ...]:
        """(c_1, alpha_i^vee) for each simple root alpha_i outside Delta_P, ascending.

        c_1 is the sum of R+ \\ R_P+, which is 2 rho - 2 rho_P with 2 rho_P the
        sum of R_P+; and (2 rho, alpha_i^vee) = 2 for every simple root. So
        (c_1, alpha_i^vee) = 2 - (2 rho_P, alpha_i^vee), the pairing read off
        the Cartan row of alpha_i.
        """
        two_rho_p = [sum(column) for column in zip(*[r.coeffs for r in self.levi_positive])]
        # with no Levi root two_rho_p is empty and every weight is 2
        cartan = self.system.cartan
        return tuple([2 - sum(map(mul, cartan[i], two_rho_p)) for i in self.quotient_positions])

    @property
    def zero_degree(self) -> Degree:
        return (0,) * len(self.quotient_positions)

    def check_degree(self, d: Degree) -> None:
        """Raise InvalidDegreeError unless d is an effective degree on this G/P.

        An effective degree is a tuple of one nonnegative integer coordinate
        per simple root outside Delta_P. A coordinate must be an int: True
        would equal 1 and key the held tables as 1 does.
        """
        if not isinstance(d, tuple):
            raise InvalidDegreeError(f"degree {d!r} is a {type(d).__name__}, not a tuple")
        k = len(self.quotient_positions)
        if len(d) != k:
            raise InvalidDegreeError(
                f"degree {d} has {len(d)} coordinates, {self} needs {k}")
        for c in d:
            if type(c) is not int:
                raise InvalidDegreeError(f"degree {d} has a non-integer coordinate {c!r}")
            if c < 0:
                raise InvalidDegreeError(f"degree {d} is not effective")

    def outside_levi(self, alpha: Root) -> bool:
        """True when alpha is a root of this system in R+ \\ R_P+ (outside_mask)."""
        rs = self.system
        return alpha.system is rs and bool(
            self.outside_mask >> rs.root_positions[alpha.coeffs] & 1)

    def __reduce__(self):  # by its fields: the tables it holds stay behind
        return Parabolic, (self.system, self.delta_p)

    def __repr__(self) -> str:
        return f"Parabolic({self.system.simple_type}, {sorted(self.delta_p)})"


@lru_cache(maxsize=0)  # stores nothing: see curve_nbhd.maximal_roots
def project_coroot(p: Parabolic, alpha: Root) -> Degree:
    """alpha^vee as a degree: expand over simple coroots, drop Delta_P slots."""
    full = coroot_coefficients(alpha)
    return tuple(full[i] for i in p.quotient_positions)


def c1_pairing(p: Parabolic, d: Degree) -> int:
    """Pairing of the anticanonical class with an effective degree; linear in d."""
    p.check_degree(d)
    return sum(c * w for c, w in zip(d, p.c1_weights))


def dim_x(p: Parabolic) -> int:
    """dim G/P = number of roots in R+ \\ R_P+, the bits of outside_mask."""
    return p.outside_mask.bit_count()

