"""Bit-exact matrix model of so7 with explicit root vectors and its G2 subalgebra.

The ambient algebra is the complex skew-symmetric 7x7 matrices with basis
E_[i,j] = E_ij - E_ji. Root vectors for the B3 root system are written down
explicitly; six combinations of them generate a 14-dimensional subalgebra of
type G2. Every matrix entry is a Gaussian integer and all arithmetic is over
the integers, so every check below is exact and deterministic.

The matrices are almost empty (an E-basis matrix has 2 nonzero entries of
49, a root vector 2 to 8, a closure element at most 12), so a Matrix7 holds
only its nonzero entries, sorted by position (a form its constructor
enforces), and no operation reads a zero entry: a sum or a bracket adds into a table by position and drops the
zeros, and the matrix is an exactlinalg SparseVector, realified from those
entries. A bracket gathers the entries of each side by row once and sums
only their products; the bracket-rule check gathers each E-basis matrix
once for all its brackets. The G2 closure is a
worklist: each basis element is bracketed once against each element before
it. A check eliminates each subalgebra basis at most once and extends
copies of its echelon (`SpanBuilder.extended`, `SpanBuilder.intersect`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .curve_nbhd import point_class_degree
from .exactlinalg import SpanBuilder, SparseVector, span_contains, span_rank
from .exceptions import InvalidVectorError
from .parabolic import Parabolic
from .root_system import build_root_system
from .tangent_directions import tangent_direction_sets
from .weyl import longest_element

__all__ = [
    "I", "Matrix7", "e_matrix", "epsilon", "RootVectorTable", "build_tables",
    "B3_POSITIVE", "B3_LEVI_POSITIVE", "G2_POSITIVE", "G2_LEVI_POSITIVE",
    "g2_closure_basis", "subalgebra_bases", "CheckResult", "run_appendix_checks",
    "verify_bracket_rules", "verify_root_space_decomposition",
    "verify_inclusions", "verify_levi_bracket_spans_quotient",
    "verify_longest_element_restriction",
]

_N = 7
_DIM = _N * _N
I = (0, 1)  # the imaginary unit as a Gaussian integer (re, im)
_ROW_COLUMN = tuple(divmod(k, _N) for k in range(_DIM))  # position -> (row, column)


def _nonzero_rows(m: "Matrix7") -> dict[int, list[tuple[int, int, int]]]:
    """The nonzero entries (column, re, im) of m by row, for its nonzero rows."""
    rows = {}
    for k, re, im in m.entries:
        r, c = _ROW_COLUMN[k]
        rows.setdefault(r, []).append((c, re, im))
    return rows


def _from_sums(sums: dict[int, tuple[int, int]]) -> "Matrix7":
    """The matrix with entry sums[k] = (re, im) at position k, zeros dropped."""
    if not sums:
        return _ZERO
    return _matrix(tuple([(k, re, im) for k, (re, im) in sorted(sums.items()) if re or im]))


def _bracket_rows(xrows, yrows) -> "Matrix7":
    """[x, y] = xy - yx from the gathered rows (`_nonzero_rows`) of x and y.

    Row i of xy takes x_ik * y_kj for each nonzero x_ik in row i of x and
    nonzero y_kj in row k of y; row i of yx likewise, with the roles
    swapped. Both go into one table of sums by position.
    """
    sums = {}
    for i, xrow in xrows.items():
        r = _N * i
        for k, ar, ai in xrow:
            for j, br, bi in yrows.get(k, ()):
                re, im = sums.get(r + j, (0, 0))
                sums[r + j] = re + ar * br - ai * bi, im + ar * bi + ai * br
    for i, yrow in yrows.items():
        r = _N * i
        for k, br, bi in yrow:
            for j, ar, ai in xrows.get(k, ()):
                re, im = sums.get(r + j, (0, 0))
                sums[r + j] = re - br * ar + bi * ai, im - br * ai - bi * ar
    return _from_sums(sums)


class Matrix7(SparseVector):
    """A 7x7 Gaussian-integer matrix by its nonzero entries (k, re, im), k =
    7 i + j the row-major position of entry (i, j), 0-based, ascending: one
    canonical form, so equal matrices are equal tuples. Every operation
    reads and writes only these entries.

    As a SparseVector of length 49 it is also the vector that `exactlinalg`
    spans take. Built from entries, it refuses any other form with
    InvalidVectorError: a position outside 0..48, positions not ascending,
    or an entry (k, 0, 0). Its operations build their canonical results
    unchecked (_matrix).
    """

    __slots__ = ()

    def __new__(cls, entries):
        entries = tuple(entries)
        last = -1
        for k, re, im in entries:
            if not last < k < _DIM or not (re or im):
                raise InvalidVectorError(
                    f"a Matrix7 has nonzero entries at positions ascending in 0..{_DIM - 1}, "
                    f"got {(k, re, im)} after position {last}")
            last = k
        return _matrix(entries)

    @classmethod
    def zero(cls) -> "Matrix7":
        return _ZERO

    def __add__(self, other: "Matrix7") -> "Matrix7":
        return _combo((1, self), (1, other))

    def __sub__(self, other: "Matrix7") -> "Matrix7":
        return _combo((1, self), (-1, other))

    def __neg__(self) -> "Matrix7":
        return _combo((-1, self))

    def scale(self, c) -> "Matrix7":
        """c times the matrix, for an int c or a Gaussian integer c = (re, im)."""
        return _combo((c, self))

    def bracket(self, other: "Matrix7") -> "Matrix7":
        """[x, y] = xy - yx, summed over the nonzero entries of x and y only."""
        return _bracket_rows(_nonzero_rows(self), _nonzero_rows(other))

    def conjugate(self) -> "Matrix7":
        return _matrix(tuple([(k, re, -im) for k, re, im in self.entries]))

    def transpose(self) -> "Matrix7":
        return _matrix(tuple(sorted([(k % _N * _N + k // _N, re, im)
                                     for k, re, im in self.entries])))

    @property
    def is_skew(self) -> bool:
        return self.transpose() == -self

    @property
    def is_zero(self) -> bool:
        return not self.entries


def _matrix(entries: tuple[tuple[int, int, int], ...]) -> Matrix7:
    """The Matrix7 of entries already in its canonical form, unchecked."""
    return tuple.__new__(Matrix7, (entries,))


_ZERO = Matrix7(())


def e_matrix(i: int, j: int) -> Matrix7:
    """E_[i,j] = E_ij - E_ji, 1-based indices."""
    if not (1 <= i <= _N and 1 <= j <= _N):
        raise IndexError(f"indices must lie in 1..7, got ({i}, {j})")
    if i == j:
        return Matrix7.zero()
    return Matrix7(tuple(sorted([(_N * (i - 1) + j - 1, 1, 0), (_N * (j - 1) + i - 1, -1, 0)])))


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
# the G2 Cartan basis in eps-coordinates: solutions of -x1 + x2 - x3 = 0
_G2_CARTAN_EPS = ((1, 1, 0), (0, 1, 1))


def _in_g2_cartan(v) -> bool:
    return -v[0] + v[1] - v[2] == 0


def _eps_coords(coeffs, simple_eps) -> tuple:
    return tuple(sum(c * s[k] for c, s in zip(coeffs, simple_eps)) for k in range(3))


def b3_eps_coords(coeffs) -> tuple[int, int, int]:
    return _eps_coords(coeffs, _B3_SIMPLE_EPS)


def g2_eps_coords(coeffs) -> tuple[Fraction, Fraction, Fraction]:
    return _eps_coords(coeffs, _G2_SIMPLE_EPS)


def _neg(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-c for c in coeffs)


class RootVectorTable(NamedTuple):
    b3: dict
    g2: dict
    eps: tuple[Matrix7, Matrix7, Matrix7]


def _combo(*terms) -> Matrix7:
    """The sum of the terms c * m, for (c, m) pairs, c an int or a Gaussian integer."""
    sums = {}
    for c, m in terms:
        a, b = (c, 0) if isinstance(c, int) else c
        for k, x, y in m.entries:
            re, im = sums.get(k, (0, 0))
            sums[k] = re + a * x - b * y, im + a * y + b * x
    return _from_sums(sums)


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
        b3[_neg(coeffs)] = b3[coeffs].conjugate()
    g2 = {
        (1, 0): _combo(((0, 2), b3[(0, 1, 1)]), (one, b3[(1, 1, 2)])),
        (0, 1): b3[(0, -1, -2)],
        (1, 1): _combo((2, b3[(0, 0, -1)]), (i_, b3[(1, 0, 0)])),
        (2, 1): _combo((i_, b3[(0, 1, 0)]), (-2, b3[(1, 1, 1)])),
        (3, 1): b3[(1, 2, 2)],
        (3, 2): b3[(1, 1, 0)],
    }
    for coeffs in list(g2):
        g2[_neg(coeffs)] = g2[coeffs].conjugate()
    return RootVectorTable(b3, g2, (epsilon(1), epsilon(2), epsilon(3)))


def _proportionality(x: Matrix7, y: Matrix7) -> tuple[Fraction, Fraction] | None:
    """The scalar c with y == c*x as (re, im), or None if y is not a multiple of x.

    At the first nonzero entry x_k, c = y_k*conj(x_k) / |x_k|^2 = num/den. A
    nonzero c*x has the positions of x, so y == c*x iff y is 0 (c = 0) or y
    has those positions and den*y_m == num*x_m at each, over the integers.
    """
    if not x.entries:
        return None
    if not y.entries:
        return Fraction(0), Fraction(0)
    if len(x.entries) != len(y.entries):
        return None
    (_, xr, xi), (_, yr, yi) = x.entries[0], y.entries[0]
    nr, ni = yr * xr + yi * xi, yi * xr - yr * xi
    den = xr * xr + xi * xi
    for (k, re, im), (m, yre, yim) in zip(x.entries, y.entries):
        if k != m or den * yre != nr * re - ni * im or den * yim != nr * im + ni * re:
            return None
    return Fraction(nr, den), Fraction(ni, den)


def g2_closure_basis() -> tuple[Matrix7, ...]:
    """Bracket closure of the four generating root vectors; a 14-dim algebra.

    A worklist: each element, once in the basis, is bracketed once against
    each element before it, and a bracket outside the span joins the basis.
    At the end every pair of basis elements has its bracket in the span, so
    by bilinearity the span is closed under the bracket.
    """
    t = build_tables()
    gens = [t.g2[(1, 0)], t.g2[(0, 1)], t.g2[(-1, 0)], t.g2[(0, -1)]]
    sb = SpanBuilder(_DIM)
    basis = [g for g in gens if sb.add(g)]
    for n, new in enumerate(basis):  # basis grows while it is read
        for old in basis[:n]:
            w = old.bracket(new)
            if sb.add(w):
                basis.append(w)
    return tuple(basis)


def _borel_parabolic_levi(roots: dict, cartan: tuple, positive, levi_positive) -> tuple:
    """Bases of the Borel, the parabolic and the Levi from root vectors and a Cartan basis."""
    borel = cartan + tuple(roots[c] for c in positive)
    parabolic = borel + tuple(roots[_neg(c)] for c in levi_positive)
    levi = cartan + tuple(m for c in levi_positive for m in (roots[c], roots[_neg(c)]))
    return borel, parabolic, levi


@lru_cache(maxsize=None)
def subalgebra_bases() -> dict[str, tuple[Matrix7, ...]]:
    """Named bases of the subalgebras the checks compare, as tuples of Matrix7.

    "t", "b", "p1", "l1" are the Cartan, Borel, parabolic and Levi of G2 and
    "g2" is its bracket closure; a trailing "~" names the same part of so7,
    of type B3, and "b3" is all of so7.
    """
    t = build_tables()
    bases = {
        "b3": tuple(e_matrix(i, j) for i in range(1, _N + 1) for j in range(i + 1, _N + 1)),
        "g2": g2_closure_basis(),
        "t~": (e_matrix(2, 3), e_matrix(4, 5), e_matrix(6, 7)),
        "t": tuple(_combo(*zip(h, t.eps)) for h in _G2_CARTAN_EPS),
    }
    for tilde, roots, positive, levi_positive in (
            ("~", t.b3, B3_POSITIVE, B3_LEVI_POSITIVE),
            ("", t.g2, G2_POSITIVE, G2_LEVI_POSITIVE)):
        parts = _borel_parabolic_levi(roots, bases["t" + tilde], positive, levi_positive)
        for name, basis in zip(("b", "p1", "l1"), parts):
            bases[name + tilde] = basis
    return bases


class CheckResult(NamedTuple):
    check_name: str
    passed: bool
    witness: str


def _result(name: str, passed: bool, witness: str) -> CheckResult:
    return CheckResult(name, bool(passed), witness)


def verify_bracket_rules() -> CheckResult:
    """Exhaustive commutators of the E-basis against the index rules, each compared
    by its nonzero entries with the terms c*E_[a,b] the rules give: c at (a, b), -c at (b, a)."""
    E = {(i, j): e_matrix(i, j) for i in range(1, _N + 1) for j in range(1, _N + 1)}
    pairs = [(i, j) for i in range(1, _N + 1) for j in range(i + 1, _N + 1)]
    rows = {pair: _nonzero_rows(E[pair]) for pair in pairs}
    bad = 0
    for (i, j) in pairs:
        xrows = rows[i, j]
        for (k, l) in pairs:
            got = _bracket_rows(xrows, rows[k, l])
            want = {}
            for c, a, b, rule in ((1, i, l, j == k), (1, j, k, i == l),
                                  (-1, i, k, j == l), (-1, j, l, i == k)):
                if rule and a != b:  # E_[a,a] = 0
                    for m, v in ((_N * (a - 1) + b - 1, c), (_N * (b - 1) + a - 1, -c)):
                        want[m] = want.get(m, 0) + v
            if (len(got.entries) != len(want)
                    or any(im or want.get(m) != re for m, re, im in got.entries)):
                bad += 1
    diag_zero = all(E[i, i].is_zero for i in range(1, _N + 1))
    anti = all(E[j, i] == -E[i, j] for i, j in pairs)
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
    rank = span_rank(subalgebra_bases()["t~"] + tuple(t.b3.values()), _DIM)
    ok = not bad and len(consts) == 1 and rank == 21
    return _result(
        "root-space-decomposition", ok,
        f"eigenvalue constant {sorted(consts) if consts else '-'}, span rank {rank}")


def verify_g2_eigenvectors() -> CheckResult:
    """Each G2 root vector is a simultaneous ad-eigenvector matching its root."""
    t, cartan = build_tables(), subalgebra_bases()["t"]
    bad = []
    for coeffs, x in sorted(t.g2.items()):
        root_eps = g2_eps_coords(coeffs)
        for h, h_eps in zip(cartan, _G2_CARTAN_EPS):
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
    bases = subalgebra_bases()
    sb = SpanBuilder(_DIM, bases["g2"])
    members = bases["t"] + tuple(build_tables().g2.values())
    missing = sum(1 for m in members if not sb.contains(m))
    return _result("g2-closure-dimension", len(bases["g2"]) == 14 and missing == 0,
                   f"closure dimension {len(bases['g2'])}, missing members {missing}")


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
    """Dimension table and the three exact intersections, with witnesses.

    Each basis is eliminated once; the intersections and the joint span
    extend the echelon of g2 rather than eliminate g2 again.
    """
    t, s = build_tables(), subalgebra_bases()
    spans = {name: SpanBuilder(_DIM, s[name])
             for name in ("t", "p1", "l1", "l1~", "p1~", "b3", "g2")}
    dims = {name: spans[name].rank for name in ("t", "p1", "l1", "l1~", "p1~", "b3")}
    ok = dims == {"t": 2, "p1": 9, "l1": 4, "l1~": 11, "p1~": 16, "b3": 21}
    g2 = spans["g2"]
    for part in ("t", "p1", "l1"):  # g2 meets each part of so7 in the part of g2
        ok = ok and spans[part].spanned_by(g2.intersect(s[part + "~"]))

    joint = g2.extended(s["p1~"]).rank
    ok = ok and joint == 21  # g2/p1 -> b3/p1~ is onto; both quotients have dim 5

    x_low = t.g2[(-3, -2)]
    witness1 = (x_low == t.b3[(-1, -1, 0)]
                and g2.contains(x_low)
                and not spans["p1~"].contains(x_low))
    witness2 = not span_contains(s["b~"], t.g2[(0, 1)], _DIM)
    ok = ok and witness1 and witness2
    return _result(
        "subalgebra-inclusions", ok,
        f"dims {dims}, joint span {joint}, witnesses {witness1 and witness2}")


def verify_levi_bracket_spans_quotient() -> CheckResult:
    """Brackets of the big Levi against x_-theta1 + x_-theta2 fill the quotient."""
    t, s = build_tables(), subalgebra_bases()
    v = t.g2[(-3, -2)] + t.g2[(-1, 0)]
    full = span_rank(tuple(y.bracket(v) for y in s["l1~"]) + s["p1~"], _DIM)
    cartan_brackets = tuple(h.bracket(v) for h in s["t"])
    both = all(span_contains(cartan_brackets, t.g2[c], _DIM) for c in ((-3, -2), (-1, 0)))
    ok = full == 21 and both
    return _result("levi-bracket-spans-quotient", ok,
                   f"span dimension {full} of 21; quotient dimension {full - 16}; "
                   f"both cascade directions recovered: {both}")


def verify_codimension_one() -> CheckResult:
    """Restricting the bracket generators to the small Levi loses one dimension.

    Cross-checked against the span of the root vectors indexed by the tangent
    directions of the exceptional case, which misses the same single direction.
    """
    t, s = build_tables(), subalgebra_bases()
    v = t.g2[(-3, -2)] + t.g2[(-1, 0)]
    restricted = span_rank(tuple(y.bracket(v) for y in s["l1"]) + s["p1~"], _DIM)

    p1 = Parabolic(build_root_system("G2"), frozenset({2}))
    sets = tangent_direction_sets(p1, point_class_degree(p1))
    directions = tuple(t.g2[r.coeffs] for r in sets.td + sets.td_tilde)
    spanned = SpanBuilder(_DIM, directions + s["p1"])
    partial = spanned.rank
    completed = spanned.extended((t.g2[(-2, -1)],)).rank
    ok = restricted == 20 and partial == 13 and completed == 14
    return _result(
        "restricted-bracket-codimension-one", ok,
        f"restricted span {restricted} of 21 (quotient {restricted - 16} of 5); "
        f"tangent-direction span {partial} of 14, completed {completed}")


def verify_longest_element_restriction() -> CheckResult:
    """-1 on the big Cartan restricts to -1 on the small one, as Weyl elements."""
    flips = []
    for label in ("B3", "G2"):
        rs = build_root_system(label)
        w0 = longest_element(rs)
        flips.append(all(w0.apply(b).coeffs == _neg(b.coeffs) for b in rs.simple_roots))
    stable = all(_in_g2_cartan(v) for v in _G2_CARTAN_EPS)
    in_small_cartan = all(
        _in_g2_cartan(c)
        for c in (g2_eps_coords((1, 0)), g2_eps_coords((0, 1)),
                  _neg(g2_eps_coords((1, 0))))
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
