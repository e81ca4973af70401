"""Bit-exact matrix model of so7 with explicit root vectors and its G2 subalgebra.

The ambient algebra is the complex skew-symmetric 7x7 matrices with basis
E_[i,j] = E_ij - E_ji. Root vectors for the B3 root system are written down
explicitly; six combinations of them generate a 14-dimensional subalgebra of
type G2. Every matrix entry is a Gaussian integer and all arithmetic is over
the integers, so every check below is exact and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactlinalg import SpanBuilder, intersect_spans, span_rank, spans_equal

__all__ = [
    "I", "Matrix7", "e_matrix", "epsilon", "RootVectorTable", "build_tables",
    "B3_POSITIVE", "B3_LEVI_POSITIVE", "G2_POSITIVE", "G2_LEVI_POSITIVE",
    "g2_closure_basis", "CheckResult", "run_appendix_checks",
    "verify_bracket_rules", "verify_root_space_decomposition",
    "verify_inclusions", "verify_levi_bracket_spans_quotient",
    "verify_longest_element_restriction",
]

_N = 7
I = (0, 1)  # the imaginary unit as a Gaussian integer (re, im)


@dataclass(frozen=True)
class Matrix7:
    """A 7x7 Gaussian-integer matrix: row-major integer real and imaginary parts."""

    re: tuple[int, ...]
    im: tuple[int, ...]

    @classmethod
    def zero(cls) -> "Matrix7":
        return cls((0,) * _N * _N, (0,) * _N * _N)

    def __add__(self, other: "Matrix7") -> "Matrix7":
        return Matrix7(tuple(a + b for a, b in zip(self.re, other.re)),
                       tuple(a + b for a, b in zip(self.im, other.im)))

    def __sub__(self, other: "Matrix7") -> "Matrix7":
        return Matrix7(tuple(a - b for a, b in zip(self.re, other.re)),
                       tuple(a - b for a, b in zip(self.im, other.im)))

    def __neg__(self) -> "Matrix7":
        return Matrix7(tuple(-a for a in self.re), tuple(-a for a in self.im))

    def scale(self, c) -> "Matrix7":
        """c times the matrix, for an int c or a Gaussian integer c = (re, im)."""
        a, b = (c, 0) if isinstance(c, int) else c
        return Matrix7(tuple(a * x - b * y for x, y in zip(self.re, self.im)),
                       tuple(a * y + b * x for x, y in zip(self.re, self.im)))

    def __matmul__(self, other: "Matrix7") -> "Matrix7":
        re, im = [0] * (_N * _N), [0] * (_N * _N)
        for i in range(0, _N * _N, _N):
            for k in range(_N):
                ar, ai = self.re[i + k], self.im[i + k]
                if not (ar or ai):
                    continue
                for j in range(_N):
                    br, bi = other.re[_N * k + j], other.im[_N * k + j]
                    if br or bi:
                        re[i + j] += ar * br - ai * bi
                        im[i + j] += ar * bi + ai * br
        return Matrix7(tuple(re), tuple(im))

    def bracket(self, other: "Matrix7") -> "Matrix7":
        return self @ other - other @ self

    def conjugate(self) -> "Matrix7":
        return Matrix7(self.re, tuple(-a for a in self.im))

    def transpose(self) -> "Matrix7":
        order = [_N * j + i for i in range(_N) for j in range(_N)]
        return Matrix7(tuple(self.re[k] for k in order), tuple(self.im[k] for k in order))

    @property
    def is_skew(self) -> bool:
        return (self + self.transpose()).is_zero

    @property
    def is_zero(self) -> bool:
        return not (any(self.re) or any(self.im))

    def vec(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self.re, self.im


def e_matrix(i: int, j: int) -> Matrix7:
    """E_[i,j] = E_ij - E_ji, 1-based indices."""
    if not (1 <= i <= _N and 1 <= j <= _N):
        raise IndexError(f"indices must lie in 1..7, got ({i}, {j})")
    re = [0] * (_N * _N)
    if i != j:
        re[_N * (i - 1) + j - 1] = 1
        re[_N * (j - 1) + i - 1] = -1
    return Matrix7(tuple(re), (0,) * (_N * _N))


def epsilon(k: int) -> Matrix7:
    """The Cartan element eps_k = i * E_[2k, 2k+1], k in 1..3."""
    if k not in (1, 2, 3):
        raise IndexError(f"epsilon index must be 1..3, got {k}")
    return e_matrix(2 * k, 2 * k + 1).scale(I)


B3_POSITIVE = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1),
    (0, 1, 2), (1, 1, 2), (1, 2, 2),
)
B3_LEVI_POSITIVE = ((0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2))
G2_POSITIVE = ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))
G2_LEVI_POSITIVE = ((0, 1),)

# simple roots in eps-coordinates
_B3_SIMPLE_EPS = ((1, -1, 0), (0, 1, -1), (0, 0, 1))
_G2_SIMPLE_EPS = (
    (Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)),
    (Fraction(0), Fraction(-1), Fraction(-1)),
)


def b3_eps_coords(coeffs) -> tuple[int, int, int]:
    out = [0, 0, 0]
    for c, simple in zip(coeffs, _B3_SIMPLE_EPS):
        for k in range(3):
            out[k] += c * simple[k]
    return tuple(out)


def g2_eps_coords(coeffs) -> tuple[Fraction, Fraction, Fraction]:
    out = [Fraction(0)] * 3
    for c, simple in zip(coeffs, _G2_SIMPLE_EPS):
        for k in range(3):
            out[k] += c * simple[k]
    return tuple(out)


@dataclass(frozen=True)
class RootVectorTable:
    b3: dict
    g2: dict
    eps: tuple[Matrix7, Matrix7, Matrix7]


def _combo(*terms) -> Matrix7:
    total = Matrix7.zero()
    for coeff, mat in terms:
        total = total + mat.scale(coeff)
    return total


@lru_cache(maxsize=None)
def build_tables() -> RootVectorTable:
    """All 18 B3 and 12 G2 root vectors; negatives are entrywise conjugates."""
    E = e_matrix
    one, i_, mi = 1, I, (0, -1)
    b3 = {
        (1, 0, 0): _combo((one, E(2, 4)), (one, E(3, 5)), (i_, E(2, 5)), (mi, E(3, 4))),
        (0, 1, 0): _combo((one, E(4, 6)), (one, E(5, 7)), (i_, E(4, 7)), (mi, E(5, 6))),
        (0, 0, 1): _combo((one, E(1, 6)), (mi, E(1, 7))),
        (1, 1, 0): _combo((one, E(2, 6)), (one, E(3, 7)), (i_, E(2, 7)), (mi, E(3, 6))),
        (0, 1, 1): _combo((one, E(1, 4)), (mi, E(1, 5))),
        (1, 1, 1): _combo((one, E(1, 2)), (mi, E(1, 3))),
        (0, 1, 2): _combo((one, E(4, 6)), (-one, E(5, 7)), (mi, E(4, 7)), (mi, E(5, 6))),
        (1, 1, 2): _combo((one, E(2, 6)), (-one, E(3, 7)), (mi, E(2, 7)), (mi, E(3, 6))),
        (1, 2, 2): _combo((one, E(2, 4)), (-one, E(3, 5)), (mi, E(2, 5)), (mi, E(3, 4))),
    }
    for coeffs in list(b3):
        neg = tuple(-c for c in coeffs)
        b3[neg] = b3[coeffs].conjugate()
    g2 = {
        (1, 0): _combo(((0, 2), b3[(0, 1, 1)]), (one, b3[(1, 1, 2)])),
        (0, 1): b3[(0, -1, -2)],
        (1, 1): _combo((2, b3[(0, 0, -1)]), (i_, b3[(1, 0, 0)])),
        (2, 1): _combo((i_, b3[(0, 1, 0)]), (-2, b3[(1, 1, 1)])),
        (3, 1): b3[(1, 2, 2)],
        (3, 2): b3[(1, 1, 0)],
    }
    for coeffs in list(g2):
        neg = tuple(-c for c in coeffs)
        g2[neg] = g2[coeffs].conjugate()
    return RootVectorTable(b3, g2, (epsilon(1), epsilon(2), epsilon(3)))


def _proportionality(x: Matrix7, y: Matrix7) -> tuple[Fraction, Fraction] | None:
    """The scalar c with y == c*x as (re, im), or None if y is not a multiple of x.

    At the first nonzero entry x_k, c = y_k*conj(x_k) / |x_k|^2 = num/den, and
    y == c*x is checked over the integers as den*y == num*x.
    """
    k = next((k for k in range(_N * _N) if x.re[k] or x.im[k]), None)
    if k is None:
        return None
    xr, xi, yr, yi = x.re[k], x.im[k], y.re[k], y.im[k]
    num = (yr * xr + yi * xi, yi * xr - yr * xi)
    den = xr * xr + xi * xi
    if not (x.scale(num) - y.scale(den)).is_zero:
        return None
    return Fraction(num[0], den), Fraction(num[1], den)


# subspace bases, as tuples of Matrix7

@lru_cache(maxsize=None)
def cartan_b3_basis() -> tuple[Matrix7, ...]:
    return (e_matrix(2, 3), e_matrix(4, 5), e_matrix(6, 7))


@lru_cache(maxsize=None)
def so7_basis() -> tuple[Matrix7, ...]:
    return tuple(e_matrix(i, j) for i in range(1, _N + 1) for j in range(i + 1, _N + 1))


@lru_cache(maxsize=None)
def cartan_g2_basis() -> tuple[Matrix7, ...]:
    # eps-coordinate solutions of -x1 + x2 - x3 = 0
    return (epsilon(1) + epsilon(2), epsilon(2) + epsilon(3))


def _vectors(mats) -> tuple:
    return tuple(m.vec() for m in mats)


@lru_cache(maxsize=None)
def borel_b3_basis() -> tuple[Matrix7, ...]:
    t = build_tables()
    return cartan_b3_basis() + tuple(t.b3[c] for c in B3_POSITIVE)


@lru_cache(maxsize=None)
def parabolic_b3_basis() -> tuple[Matrix7, ...]:
    t = build_tables()
    negs = tuple(t.b3[tuple(-x for x in c)] for c in B3_LEVI_POSITIVE)
    return borel_b3_basis() + negs


@lru_cache(maxsize=None)
def levi_b3_basis() -> tuple[Matrix7, ...]:
    t = build_tables()
    out = list(cartan_b3_basis())
    for c in B3_LEVI_POSITIVE:
        out.append(t.b3[c])
        out.append(t.b3[tuple(-x for x in c)])
    return tuple(out)


@lru_cache(maxsize=None)
def borel_g2_basis() -> tuple[Matrix7, ...]:
    t = build_tables()
    return cartan_g2_basis() + tuple(t.g2[c] for c in G2_POSITIVE)


@lru_cache(maxsize=None)
def parabolic_g2_basis() -> tuple[Matrix7, ...]:
    t = build_tables()
    negs = tuple(t.g2[tuple(-x for x in c)] for c in G2_LEVI_POSITIVE)
    return borel_g2_basis() + negs


@lru_cache(maxsize=None)
def levi_g2_basis() -> tuple[Matrix7, ...]:
    t = build_tables()
    out = list(cartan_g2_basis())
    for c in G2_LEVI_POSITIVE:
        out.append(t.g2[c])
        out.append(t.g2[tuple(-x for x in c)])
    return tuple(out)


@lru_cache(maxsize=None)
def g2_closure_basis() -> tuple[Matrix7, ...]:
    """Bracket closure of the four generating root vectors; a 14-dim algebra."""
    t = build_tables()
    gens = [t.g2[(1, 0)], t.g2[(0, 1)], t.g2[(-1, 0)], t.g2[(0, -1)]]
    sb = SpanBuilder(_N * _N)
    basis: list[Matrix7] = []
    for g in gens:
        if sb.add(g.vec()):
            basis.append(g)
    changed = True
    while changed:
        changed = False
        snapshot = list(basis)
        for i in range(len(snapshot)):
            for j in range(i + 1, len(snapshot)):
                w = snapshot[i].bracket(snapshot[j])
                if sb.add(w.vec()):
                    basis.append(w)
                    changed = True
    return tuple(basis)


@dataclass(frozen=True)
class CheckResult:
    check_name: str
    passed: bool
    witness: str


def _result(name: str, passed: bool, witness: str) -> CheckResult:
    return CheckResult(name, bool(passed), witness)


def verify_bracket_rules() -> CheckResult:
    """Exhaustive commutators of the E-basis against the index rules."""
    pairs = [(i, j) for i in range(1, _N + 1) for j in range(i + 1, _N + 1)]
    bad = 0
    for (i, j) in pairs:
        for (k, l) in pairs:
            got = e_matrix(i, j).bracket(e_matrix(k, l))
            want = Matrix7.zero()
            if j == k:
                want = want + e_matrix(i, l)
            if i == l:
                want = want + e_matrix(j, k)
            if j == l:
                want = want - e_matrix(i, k)
            if i == k:
                want = want - e_matrix(j, l)
            if not (got - want).is_zero:
                bad += 1
    diag_zero = all(e_matrix(i, i).is_zero for i in range(1, _N + 1))
    anti = all((e_matrix(i, j) + e_matrix(j, i)).is_zero for i, j in pairs)
    return _result("e-basis-bracket-rules", bad == 0 and diag_zero and anti,
                   f"{len(pairs) ** 2} commutators checked, {bad} mismatches")


def verify_skew_symmetry() -> CheckResult:
    t = build_tables()
    mats = list(t.b3.values()) + list(t.g2.values()) + list(t.eps)
    bad = sum(1 for m in mats if not m.is_skew)
    return _result("root-vectors-skew-symmetric", bad == 0,
                   f"{len(mats)} matrices checked, {bad} not skew")


def verify_root_space_decomposition() -> CheckResult:
    """[eps_k, x] = const * coord_k(root) * x, one constant for all 18 roots."""
    t = build_tables()
    consts = set()
    bad = []
    for coeffs, x in sorted(t.b3.items()):
        eps_coords = b3_eps_coords(coeffs)
        for k in range(3):
            br = t.eps[k].bracket(x)
            if eps_coords[k] == 0:
                if not br.is_zero:
                    bad.append((coeffs, k))
                continue
            c = _proportionality(x, br)
            if c is None or c[1]:
                bad.append((coeffs, k))
                continue
            consts.add(c[0] / eps_coords[k])
    rank = span_rank(_vectors(cartan_b3_basis() + tuple(t.b3.values())), _N * _N)
    ok = not bad and len(consts) == 1 and rank == 21
    return _result(
        "root-space-decomposition", ok,
        f"eigenvalue constant {sorted(consts) if consts else '-'}, span rank {rank}")


def verify_g2_eigenvectors() -> CheckResult:
    """Each G2 root vector is a simultaneous ad-eigenvector matching its root."""
    t = build_tables()
    cartan_coords = ((Fraction(1), Fraction(1), Fraction(0)),
                     (Fraction(0), Fraction(1), Fraction(1)))
    bad = []
    for coeffs, x in sorted(t.g2.items()):
        root_eps = g2_eps_coords(coeffs)
        for h, h_eps in zip(cartan_g2_basis(), cartan_coords):
            expected = sum(a * b for a, b in zip(h_eps, root_eps))
            br = h.bracket(x)
            if expected == 0:
                if not br.is_zero:
                    bad.append(coeffs)
                continue
            c = _proportionality(x, br)
            if c is None or c[1] or c[0] != expected:
                bad.append(coeffs)
    return _result("g2-root-vectors-eigen", not bad,
                   f"12 root vectors against 2 Cartan elements; failures: {bad}")


def verify_g2_closure() -> CheckResult:
    basis = g2_closure_basis()
    sb = SpanBuilder(_N * _N)
    for m in basis:
        sb.add(m.vec())
    t = build_tables()
    members = list(cartan_g2_basis()) + list(t.g2.values())
    missing = sum(1 for m in members if not sb.contains(m.vec()))
    return _result("g2-closure-dimension", len(basis) == 14 and missing == 0,
                   f"closure dimension {len(basis)}, missing members {missing}")


def verify_g2_structure_constants() -> CheckResult:
    """[x_a, x_g] is a nonzero multiple of x_(a+g) whenever a+g is a root."""
    t = build_tables()
    keys = set(t.g2)
    bad = []
    for a in keys:
        for g in keys:
            s = (a[0] + g[0], a[1] + g[1])
            if s not in keys:
                continue
            c = _proportionality(t.g2[s], t.g2[a].bracket(t.g2[g]))
            if c is None or not any(c):
                bad.append((a, g))
    return _result("g2-structure-constants-nonzero", not bad,
                   f"root-sum pairs checked; failures: {bad}")


def verify_inclusions() -> CheckResult:
    """Dimension table and the three exact intersections, with witnesses."""
    dim = _N * _N
    t = build_tables()
    g2 = g2_closure_basis()
    dims = {
        "t": span_rank(_vectors(cartan_g2_basis()), dim),
        "p1": span_rank(_vectors(parabolic_g2_basis()), dim),
        "l1": span_rank(_vectors(levi_g2_basis()), dim),
        "l1~": span_rank(_vectors(levi_b3_basis()), dim),
        "p1~": span_rank(_vectors(parabolic_b3_basis()), dim),
        "b3": span_rank(_vectors(so7_basis()), dim),
    }
    ok = dims == {"t": 2, "p1": 9, "l1": 4, "l1~": 11, "p1~": 16, "b3": 21}

    def meets(big, small, expected):
        inter = intersect_spans(_vectors(big), _vectors(small), dim)
        return spans_equal(inter, _vectors(expected), dim)

    ok = ok and meets(g2, cartan_b3_basis(), cartan_g2_basis())
    ok = ok and meets(g2, parabolic_b3_basis(), parabolic_g2_basis())
    ok = ok and meets(g2, levi_b3_basis(), levi_g2_basis())

    joint = span_rank(_vectors(g2 + parabolic_b3_basis()), dim)
    ok = ok and joint == 21  # g2/p1 -> b3/p1~ is onto; both quotients have dim 5

    x_low = t.g2[(-3, -2)]
    sb_g2 = SpanBuilder(dim)
    for m in g2:
        sb_g2.add(m.vec())
    sb_p1t = SpanBuilder(dim)
    for m in parabolic_b3_basis():
        sb_p1t.add(m.vec())
    witness1 = ((x_low - t.b3[(-1, -1, 0)]).is_zero
                and sb_g2.contains(x_low.vec())
                and not sb_p1t.contains(x_low.vec()))
    sb_borel_t = SpanBuilder(dim)
    for m in borel_b3_basis():
        sb_borel_t.add(m.vec())
    witness2 = not sb_borel_t.contains(t.g2[(0, 1)].vec())
    ok = ok and witness1 and witness2
    return _result(
        "subalgebra-inclusions", ok,
        f"dims {dims}, joint span {joint}, witnesses {witness1 and witness2}")


def verify_levi_bracket_spans_quotient() -> CheckResult:
    """Brackets of the big Levi against x_-theta1 + x_-theta2 fill the quotient."""
    dim = _N * _N
    t = build_tables()
    v = t.g2[(-3, -2)] + t.g2[(-1, 0)]
    bracket_vecs = [y.bracket(v).vec() for y in levi_b3_basis()]
    full = span_rank(tuple(bracket_vecs) + _vectors(parabolic_b3_basis()), dim)

    cartan_span = SpanBuilder(dim)
    for h in cartan_g2_basis():
        cartan_span.add(h.bracket(v).vec())
    both = (cartan_span.contains(t.g2[(-3, -2)].vec())
            and cartan_span.contains(t.g2[(-1, 0)].vec()))
    ok = full == 21 and both
    return _result("levi-bracket-spans-quotient", ok,
                   f"span dimension {full} of 21; quotient dimension {full - 16}; "
                   f"both cascade directions recovered: {both}")


def verify_codimension_one() -> CheckResult:
    """Restricting the bracket generators to the small Levi loses one dimension.

    Cross-checked against the span of the root vectors indexed by the tangent
    directions of the exceptional case, which misses the same single direction.
    """
    dim = _N * _N
    t = build_tables()
    v = t.g2[(-3, -2)] + t.g2[(-1, 0)]
    bracket_vecs = [y.bracket(v).vec() for y in levi_g2_basis()]
    restricted = span_rank(tuple(bracket_vecs) + _vectors(parabolic_b3_basis()), dim)

    from .curve_nbhd import point_class_degree
    from .parabolic import Parabolic
    from .root_system import build_root_system
    from .tangent_directions import tangent_direction_sets

    g2rs = build_root_system("G2")
    p1 = Parabolic(g2rs, frozenset({2}))
    sets = tangent_direction_sets(p1, point_class_degree(p1))
    direction_keys = [r.coeffs for r in sets.td + sets.td_tilde]
    direction_vecs = tuple(t.g2[c].vec() for c in direction_keys)
    partial = span_rank(direction_vecs + _vectors(parabolic_g2_basis()), dim)
    completed = span_rank(direction_vecs + (t.g2[(-2, -1)].vec(),)
                          + _vectors(parabolic_g2_basis()), dim)
    ok = restricted == 20 and partial == 13 and completed == 14
    return _result(
        "restricted-bracket-codimension-one", ok,
        f"restricted span {restricted} of 21 (quotient {restricted - 16} of 5); "
        f"tangent-direction span {partial} of 14, completed {completed}")


def verify_longest_element_restriction() -> CheckResult:
    """-1 on the big Cartan restricts to -1 on the small one, as Weyl elements."""
    from .root_system import build_root_system
    from .weyl import longest_element

    flips = []
    for label in ("B3", "G2"):
        rs = build_root_system(label)
        w0 = longest_element(rs)
        flips.append(all(w0.apply(b).coeffs == tuple(-c for c in b.coeffs)
                         for b in rs.simple_roots))
    stable = all(-v[0] + v[1] - v[2] == 0
                 for v in ((1, 1, 0), (0, 1, 1)))
    in_small_cartan = all(
        -c[0] + c[1] - c[2] == 0
        for c in (g2_eps_coords((1, 0)), g2_eps_coords((0, 1)),
                  tuple(-x for x in g2_eps_coords((1, 0))))
    )
    ok = all(flips) and stable and in_small_cartan
    return _result("longest-element-restriction", ok,
                   f"longest elements act as -1: {flips}; "
                   f"negation preserves the small Cartan: {stable and in_small_cartan}")


def run_appendix_checks() -> tuple[CheckResult, ...]:
    return (
        verify_bracket_rules(),
        verify_skew_symmetry(),
        verify_root_space_decomposition(),
        verify_g2_eigenvectors(),
        verify_g2_closure(),
        verify_g2_structure_constants(),
        verify_inclusions(),
        verify_levi_bracket_spans_quotient(),
        verify_codimension_one(),
        verify_longest_element_restriction(),
    )
