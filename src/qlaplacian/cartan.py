"""Exact root-system data for products of simple Lie types.

Everything is stored in the fundamental-weight basis: a weight is a vector
of rationals (c_1, ..., c_N) standing for sum_j c_j w_j, held as `int`s
where integral, and the simple root a_j is the j-th column of the Cartan
matrix.  The invariant bilinear form is normalized so that the short roots
of every simple factor have squared length 2; an optional global positive
rational scale multiplies the whole form.  It is held once, as the integer
matrix D G over one denominator D.  No floating point enters this module.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import InvariantError, LabelError, ResourceCapError, UsageError

_RANK_CONSTRAINTS = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True)
class SimpleType:
    """A simple Lie type label such as A2, D4 or G2 (non-redundant ranks only)."""

    family: str
    rank: int

    def __post_init__(self):
        lo_hi = _RANK_CONSTRAINTS.get(self.family)
        if lo_hi is None:
            raise InvariantError(f"unknown family {self.family!r} in factor {self.family}{self.rank}")
        lo, hi = lo_hi
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise InvariantError(
                f"invalid rank for factor {self.family}{self.rank}: "
                f"family {self.family} requires rank in [{lo}, {hi if hi is not None else 'inf'}]"
            )

    def __str__(self):
        return f"{self.family}{self.rank}"


_LABEL_RE = re.compile(r"[A-Ga-g][0-9]+(x[A-Ga-g][0-9]+)*")


def parse_type_label(label: str) -> tuple[SimpleType, ...]:
    """Parse a product label like "A2", "A1xG2" or "a2xg2" into simple factors.

    A label outside the grammar raises `LabelError`; a family/rank pair the
    classification excludes (C2, E9) raises a plain `InvariantError`.
    """
    if not _LABEL_RE.fullmatch(label):
        raise LabelError(f"malformed type label {label!r}; expected e.g. A2 or A1xG2")
    return tuple(SimpleType(piece[0].upper(), int(piece[1:])) for piece in label.split("x"))


@dataclass(frozen=True)
class Weight:
    """A vector of exact rationals in the fundamental-weight basis.

    `of` stores an integral coordinate as `int` and any other as `Fraction`.
    """

    coords: tuple[int | Fraction, ...]

    @staticmethod
    def of(values: Iterable) -> "Weight":
        return Weight(tuple(_exact(v) for v in values))

    @staticmethod
    def zero(rank: int) -> "Weight":
        return Weight((0,) * rank)

    @staticmethod
    def fundamental(rank: int, j: int) -> "Weight":
        """The fundamental weight w_j (1-based index)."""
        return Weight(tuple(int(i == j - 1) for i in range(rank)))

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def scaled(self, c) -> "Weight":
        c = Fraction(c)
        return Weight.of(c * a for a in self.coords)

    @property
    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.coords)

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    @property
    def is_dominant(self) -> bool:
        return all(a >= 0 for a in self.coords)

    @property
    def height(self) -> int | Fraction:
        """Coordinate sum; the grading used for deterministic orderings."""
        return sum(self.coords)

    def serialize(self) -> str:
        return ",".join(str(a) for a in self.coords)

    @staticmethod
    def parse(text: str) -> "Weight":
        return Weight.of(text.split(","))

    def __repr__(self):
        return f"Weight({self.serialize()})"


def _exact(value) -> int | Fraction:
    """An integral rational as `int`, any other as `Fraction`."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def graded_key(w: Weight):
    """Sort key for the graded lexicographic order on weights."""
    return (w.height, w.coords)


@dataclass(frozen=True)
class CenterElement:
    """Canonical representative of a coset in P-dual / Q-dual (coweight coords)."""

    rep: tuple[int, ...]

    def serialize(self) -> str:
        return ",".join(str(a) for a in self.rep)

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.rep)

    def __repr__(self):
        return f"CenterElement({self.serialize()})"


@dataclass(frozen=True)
class RootSystem:
    """Immutable Cartan datum for a product of simple types.

    cartan[i][j] = 2(a_i, a_j)/(a_i, a_i); the j-th simple root has
    fundamental-weight coordinates equal to the j-th column.  The invariant
    form is held once: with G the Gram matrix of the fundamental weights,
    so that (x, y) = x^T G y, `form` is the integer matrix D G and
    `denominator` the least such D.  Every field is exact and hashable, and
    all of them take part in equality.
    """

    factors: tuple[SimpleType, ...]
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    d: tuple[Fraction, ...]
    positive_roots: tuple[Weight, ...]
    w0_word: tuple[int, ...]
    w0_perm: tuple[int, ...]
    highest_roots: tuple[Weight, ...]
    weyl_vector: Weight
    scale: Fraction
    denominator: int
    form: tuple[tuple[int, ...], ...]

    # -- small structural helpers ------------------------------------------

    def row(self, w: Weight) -> tuple[int, ...]:
        """D G w, so that D (x, w) is the dot product x . row; integers when w is integral."""
        return tuple(sum(map(mul, line, w.coords)) for line in self.form)

    def simple_root(self, j: int) -> Weight:
        """The simple root a_j (1-based), read off the Cartan matrix column."""
        return Weight(tuple(line[j - 1] for line in self.cartan))

    def reflect(self, x: Weight, j: int) -> Weight:
        """Apply the simple reflection s_j (1-based): x - <x, a_j-check> a_j."""
        c = x.coords[j - 1]
        if c == 0:
            return x
        return Weight(tuple(x.coords[i] - c * self.cartan[i][j - 1] for i in range(self.rank)))

    def apply_word(self, word: Sequence[int], x: Weight) -> Weight:
        """Apply s_{word[0]} s_{word[1]} ... s_{word[-1]} to x (rightmost first)."""
        for j in reversed(word):
            x = self.reflect(x, j)
        return x

    def factor_slices(self) -> tuple[tuple[int, int], ...]:
        """Half-open coordinate ranges [lo, hi) occupied by each simple factor."""
        slices = []
        lo = 0
        for f in self.factors:
            slices.append((lo, lo + f.rank))
            lo += f.rank
        return tuple(slices)

    def label(self) -> str:
        return "x".join(str(f) for f in self.factors)


# ---------------------------------------------------------------------------
# Cartan matrices of the simple types (short roots normalized to length^2 = 2)
# ---------------------------------------------------------------------------


def _chain_edges(rank: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(rank - 1)]


def _simple_cartan(t: SimpleType) -> tuple[list[list[int]], list[int]]:
    """Return (cartan matrix, symmetrizers d) for one simple factor, 0-based."""
    n = t.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, aij, aji):
        a[i][j] = aij
        a[j][i] = aji

    if t.family == "A":
        d = [1] * n
        for i, j in _chain_edges(n):
            bond(i, j, -1, -1)
    elif t.family == "B":
        # a_1..a_{n-1} long (d=2), a_n short (d=1)
        d = [2] * (n - 1) + [1]
        for i, j in _chain_edges(n - 1):
            bond(i, j, -1, -1)
        bond(n - 2, n - 1, -1, -2)
    elif t.family == "C":
        # a_1..a_{n-1} short (d=1), a_n long (d=2)
        d = [1] * (n - 1) + [2]
        for i, j in _chain_edges(n - 1):
            bond(i, j, -1, -1)
        bond(n - 2, n - 1, -2, -1)
    elif t.family == "D":
        d = [1] * n
        for i, j in _chain_edges(n - 1):
            bond(i, j, -1, -1)
        bond(n - 3, n - 1, -1, -1)
    elif t.family == "E":
        d = [1] * n
        edges = [(1, 3), (3, 4), (4, 5), (2, 4)] + [(k, k + 1) for k in range(5, n)]
        for i, j in edges:
            bond(i - 1, j - 1, -1, -1)
    elif t.family == "F":
        # a_1, a_2 long (d=2); a_3, a_4 short (d=1)
        d = [2, 2, 1, 1]
        bond(0, 1, -1, -1)
        bond(1, 2, -1, -2)
        bond(2, 3, -1, -1)
    else:  # G
        # a_1 short (d=1), a_2 long (d=3)
        d = [1, 3]
        bond(0, 1, -3, -1)
    return a, d


def _invert_rational(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination."""
    n = len(matrix)
    aug = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(1 if j == i else 0) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def build_root_system(factors: Sequence[SimpleType | str], scale=1) -> RootSystem:
    """Construct the exact Cartan datum for a nonempty product of simple types.

    String factors are type labels and may themselves be products.  `scale`
    multiplies the invariant form (the symmetrizers scale with it); the
    default 1 keeps short roots at squared length 2.
    """
    if not factors:
        raise InvariantError("a root system needs at least one simple factor")
    parsed = tuple(simple for f in factors
                   for simple in ((f,) if isinstance(f, SimpleType) else parse_type_label(f)))
    scale = Fraction(scale)
    if scale <= 0:
        raise InvariantError("the global form scale must be a positive rational")

    n = sum(f.rank for f in parsed)
    cartan = [[0] * n for _ in range(n)]
    d0 = []
    lo = 0
    for f in parsed:
        block, dblock = _simple_cartan(f)
        for i in range(f.rank):
            for j in range(f.rank):
                cartan[lo + i][lo + j] = block[i][j]
        d0.extend(dblock)
        lo += f.rank

    # G = D M^{-1} D with M_ij = d_i a_ij the symmetrized Cartan matrix.
    m = [[Fraction(d0[i] * cartan[i][j]) for j in range(n)] for i in range(n)]
    minv = _invert_rational(m)
    gram = [[scale * d0[i] * minv[i][j] * d0[j] for j in range(n)] for i in range(n)]
    denominator = math.lcm(*(g.denominator for line in gram for g in line))
    form = tuple(tuple(int(g * denominator) for g in line) for line in gram)
    d = tuple(scale * Fraction(dj) for dj in d0)
    cartan_t = tuple(tuple(row) for row in cartan)
    rho = Weight((1,) * n)

    skeleton = RootSystem(
        factors=parsed, rank=n, cartan=cartan_t, d=d,
        positive_roots=(), w0_word=(), w0_perm=(), highest_roots=(),
        weyl_vector=rho, scale=scale, denominator=denominator, form=form,
    )

    # Longest-element word by greedy descent from rho (smallest index first).
    word = []
    cur = rho
    while True:
        j = next((k + 1 for k in range(n) if cur.coords[k] > 0), None)
        if j is None:
            break
        word.append(j)
        cur = skeleton.reflect(cur, j)
    word = tuple(word)

    # Positive roots enumerated through the prefixes of the word.
    roots = []
    for r, jr in enumerate(word):
        beta = skeleton.apply_word(word[:r], skeleton.simple_root(jr))
        roots.append(beta)
    if len(set(roots)) != len(roots):
        raise InvariantError("longest-element word failed to enumerate distinct positive roots")

    # -w0 acts on fundamental weights by a permutation.
    perm = []
    minus_w0_images = [-skeleton.apply_word(word, Weight.fundamental(n, j)) for j in range(1, n + 1)]
    for img in minus_w0_images:
        matches = [k + 1 for k in range(n) if img == Weight.fundamental(n, k + 1)]
        if len(matches) != 1:
            raise InvariantError("-w0 does not permute the fundamental weights")
        perm.append(matches[0])

    # Highest root of each factor: the positive root of maximal height there,
    # where the height of sum_j c_j a_j is sum_j c_j = sum_j (beta, w_j)/d_j.
    ht_vector = [sum(gram[i][j] / d[j] for j in range(n)) for i in range(n)]
    highest = []
    for flo, fhi in skeleton.factor_slices():
        in_factor = [b for b in roots if any(b.coords[k] != 0 for k in range(flo, fhi))]
        heights = [sum(b.coords[i] * ht_vector[i] for i in range(n)) for b in in_factor]
        top = max(range(len(in_factor)), key=lambda i: heights[i])
        if heights.count(heights[top]) != 1:
            raise InvariantError("highest root of a simple factor is not unique")
        highest.append(in_factor[top])

    return replace(skeleton, positive_roots=tuple(roots), w0_word=word, w0_perm=tuple(perm),
                   highest_roots=tuple(highest))


def _check_length(R: RootSystem, w: Weight):
    if len(w.coords) != R.rank:
        raise InvariantError(f"weight of length {len(w.coords)} does not match rank {R.rank}")


def check_dominant_integral(R: RootSystem, w: Weight):
    """Reject a weight of the wrong length or one that is not dominant integral."""
    _check_length(R, w)
    if not (w.is_integral and w.is_dominant):
        raise InvariantError(f"weight {w.serialize()} is not dominant integral")


def untouched_factors(R: RootSystem, weights: Sequence[Weight]) -> list[int]:
    """Positions in R.factors of the factors where every one of `weights` is zero."""
    return [k for k, (lo, hi) in enumerate(R.factor_slices())
            if not any(any(w.coords[lo:hi]) for w in weights)]


def inner_product(R: RootSystem, x: Weight, y: Weight) -> Fraction:
    """The invariant bilinear form (x, y) = x^T G y, exactly: x . (D G y) / D."""
    _check_length(R, x)
    _check_length(R, y)
    return Fraction(sum(map(mul, x.coords, R.row(y))), R.denominator)


def norm_squared(R: RootSystem, x: Weight) -> Fraction:
    return inner_product(R, x, x)


def apply_w0(R: RootSystem, x: Weight) -> Weight:
    _check_length(R, x)
    return R.apply_word(R.w0_word, x)


def minus_w0(R: RootSystem, x: Weight) -> Weight:
    """The duality involution x -> -w0 x (dominant weights map to dominant)."""
    return -apply_w0(R, x)


# ---------------------------------------------------------------------------
# Center group P-dual / Q-dual
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CenterGroup:
    """The finite abelian group P-dual/Q-dual with canonical coset reps."""

    invariant_factors: tuple[int, ...]
    order: int
    representatives: tuple[CenterElement, ...]


@lru_cache(maxsize=None)
def _coroot_hnf(cartan: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Column-style Hermite basis of the coroot lattice in coweight coordinates.

    The coroot a_j-check has coweight coordinates given by row j of the Cartan
    matrix; the result is a lower-triangular basis with positive diagonal.
    Keyed on the Cartan matrix so that a lookup does not hash the root system.
    """
    n = len(cartan)
    cols = [list(row) for row in cartan]
    basis: list[list[int]] = []
    for pivot in range(n):
        live = [c for c in cols if any(c[pivot:])]
        # gcd-eliminate entries at `pivot` down to a single column
        while True:
            nz = [c for c in live if c[pivot] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(c[pivot]))
            small, big = nz[0], nz[1]
            q = big[pivot] // small[pivot]
            for k in range(n):
                big[k] -= q * small[k]
        head = next(c for c in live if c[pivot] != 0)
        if head[pivot] < 0:
            for k in range(n):
                head[k] = -head[k]
        basis.append(head)
        cols = [c for c in live if c is not head]
    return tuple(tuple(c) for c in basis)


def center_reduce(R: RootSystem, rep: Sequence[int]) -> CenterElement:
    """Canonical representative of a coweight vector modulo the coroot lattice."""
    if len(rep) != R.rank:
        raise InvariantError(f"center representative of length {len(rep)} does not match rank {R.rank}")
    v = [int(a) for a in rep]
    basis = _coroot_hnf(R.cartan)
    for i in range(R.rank):
        q = v[i] // basis[i][i]
        if q:
            for k in range(R.rank):
                v[k] -= q * basis[i][k]
    return CenterElement(tuple(v))


def center_add(R: RootSystem, a: CenterElement, b: CenterElement) -> CenterElement:
    return center_reduce(R, [x + y for x, y in zip(a.rep, b.rep)])


def center_negate(R: RootSystem, a: CenterElement) -> CenterElement:
    return center_reduce(R, [-x for x in a.rep])


def _smith_invariant_factors(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Diagonal of the Smith normal form, with the divisibility chain."""
    a = [list(row) for row in matrix]
    n = len(a)
    diag = []
    top = 0
    while top < n:
        if all(a[i][j] == 0 for i in range(top, n) for j in range(top, n)):
            break
        while True:
            # move a minimal nonzero entry to the pivot
            r, c = min(
                ((i, j) for i in range(top, n) for j in range(top, n) if a[i][j] != 0),
                key=lambda ij: abs(a[ij[0]][ij[1]]),
            )
            a[top], a[r] = a[r], a[top]
            for row in a:
                row[top], row[c] = row[c], row[top]
            p = a[top][top]
            done = True
            for i in range(top + 1, n):
                q = a[i][top] // p
                if q:
                    for k in range(n):
                        a[i][k] -= q * a[top][k]
                if a[i][top] != 0:
                    done = False
            for j in range(top + 1, n):
                q = a[top][j] // p
                if q:
                    for i in range(n):
                        a[i][j] -= q * a[i][top]
                if a[top][j] != 0:
                    done = False
            if not done:
                continue
            # enforce divisibility: pivot must divide every remaining entry
            offender = next(((i, j) for i in range(top + 1, n) for j in range(top + 1, n)
                             if a[i][j] % p != 0), None)
            if offender is None:
                break
            for k in range(n):
                a[top][k] += a[offender[0]][k]
        diag.append(abs(a[top][top]))
        top += 1
    return tuple(diag)


def center_order(R: RootSystem) -> int:
    """The order of P-dual/Q-dual, read off the Hermite basis without listing the group."""
    basis = _coroot_hnf(R.cartan)
    return math.prod(basis[i][i] for i in range(R.rank))


@lru_cache(maxsize=None)
def center_group(R: RootSystem) -> CenterGroup:
    """Invariant factors and canonical representatives of P-dual/Q-dual."""
    snf = _smith_invariant_factors(R.cartan)
    invariant_factors = tuple(f for f in snf if f > 1)
    basis = _coroot_hnf(R.cartan)
    reps = sorted(itertools.product(*(range(basis[i][i]) for i in range(R.rank))),
                  key=lambda rep: (sum(rep), rep))
    return CenterGroup(invariant_factors=invariant_factors, order=center_order(R),
                       representatives=tuple(CenterElement(rep) for rep in reps))


def is_half_coroot(R: RootSystem, zeta: CenterElement) -> bool:
    """True iff twice the representative lies in the coroot lattice."""
    return center_reduce(R, [2 * a for a in zeta.rep]).is_zero


def coweight_pairing(R: RootSystem, zeta: CenterElement, lam: Weight) -> Fraction:
    """(xi, lam) for the coweight vector xi represented by `zeta`, exactly.

    Independent of the global form scale: (w_i-check, lam) = (w_i, lam)/d_i.
    """
    _check_length(R, lam)
    total = Fraction(0)
    for i, zi in enumerate(zeta.rep):
        if zi:
            wi = Weight.fundamental(R.rank, i + 1)
            total += zi * inner_product(R, wi, lam) / R.d[i]
    return total


# ---------------------------------------------------------------------------
# Dominant-weight enumeration
# ---------------------------------------------------------------------------

ROW_CAP_ENV = "QLAP_ROW_CAP"
DEFAULT_ROW_CAP = 100000


def resolve_row_cap(explicit: int | None) -> int:
    """The row cap: `explicit` if given, else $QLAP_ROW_CAP, else DEFAULT_ROW_CAP.

    Scans pass their `--row-cap`; `center` and weight systems pass None.
    """
    if explicit is None:
        text = os.environ.get(ROW_CAP_ENV, str(DEFAULT_ROW_CAP))
        try:
            explicit = int(text)
        except ValueError as exc:
            raise UsageError(f"{ROW_CAP_ENV}={text!r} is not an integer") from exc
    if explicit < 0:
        raise UsageError(f"the row cap must be nonnegative, got {explicit}")
    return explicit


def walk_dominant(R: RootSystem, inside: Callable[[list[int]], bool],
                  max_rows: int | None = None) -> list[Weight]:
    """All dominant integral weights whose coordinates satisfy `inside`, graded-lex.

    `inside` must be monotone (once false, it stays false as any coordinate
    grows) and false for all but finitely many weights; the walk raises the
    last coordinate until it fails, then carries into the one before.
    """
    found: list[Weight] = []
    coords = [0] * R.rank

    def extend(k: int):
        if k == R.rank:
            found.append(Weight.of(coords))
            if max_rows is not None and len(found) > max_rows:
                raise ResourceCapError(
                    f"dominant-weight scan exceeded the row cap of {max_rows}"
                )
            return
        while inside(coords):
            extend(k + 1)
            coords[k] += 1
        coords[k] = 0

    extend(0)
    found.sort(key=graded_key)
    return found


def enumerate_dominant(R: RootSystem, radius, max_rows: int | None = None) -> list[Weight]:
    """All dominant integral weights with (x, x) <= radius, in graded-lex order.

    Finiteness comes from positive definiteness of the Gram matrix; all of its
    entries are nonnegative, so the norm is monotone in each coordinate.
    """
    radius = Fraction(radius)
    if radius <= 0:
        raise InvariantError("radius must be a positive rational")
    return walk_dominant(R, lambda coords: norm_squared(R, Weight.of(coords)) <= radius, max_rows)
