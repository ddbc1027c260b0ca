"""Exact root-system data for products of simple Lie types.

Everything is stored in the fundamental-weight basis: a weight is a vector
of integers (c_1, ..., c_N) standing for sum_j c_j w_j, and the simple root
a_j is the j-th column of the Cartan matrix.  The invariant bilinear form is
normalized so that the short roots of every simple factor have squared
length 2; an optional global positive rational scale multiplies the whole
form.  It is held once, as the integer matrix D G over one denominator D.
No floating point enters this module.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter, mul
from typing import Callable, Iterable, NamedTuple, Sequence

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
MAX_RATIONAL_BITS = 3322  # about 1000 decimal digits in a numerator or denominator read from text or a Decimal


class _Record:
    """A frozen record of the fields in `__slots__`; it equals, hashes and pickles as a frozen dataclass."""

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)  # a tuple, but the bare value for a single field
        cls._values = property(get if len(cls.__slots__) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        if kwargs:  # keyword fields follow the positional ones, in field order
            args += tuple(kwargs.pop(name) for name in self.__slots__[len(args):] if name in kwargs)
        if len(args) != len(self.__slots__) or kwargs:
            raise TypeError(f"{type(self).__name__}() takes exactly the fields {', '.join(self.__slots__)}")
        for name, value in zip(self.__slots__, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot set or delete field {name!r} of an immutable {type(self).__name__}")
    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values == other._values if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"

    def __reduce__(self):
        return type(self), self._values


class SimpleType(_Record):
    """A simple Lie type label such as A2, D4 or G2 (non-redundant ranks only)."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        lo_hi = _RANK_CONSTRAINTS.get(family)
        if lo_hi is None:
            raise InvariantError(f"unknown family {family!r} in factor {family}{rank}")
        lo, hi = lo_hi
        if rank < lo or (hi is not None and rank > hi):
            raise InvariantError(
                f"invalid rank for factor {family}{rank}: "
                f"family {family} requires rank in [{lo}, {hi if hi is not None else 'inf'}]"
            )
        super().__init__(family, rank)

    def __str__(self):
        return f"{self.family}{self.rank}"


_LABEL_RE = re.compile(r"[A-Ga-g][0-9]+(x[A-Ga-g][0-9]+)*")


def parse_type_label(label: str) -> tuple[SimpleType, ...]:
    """Parse a product label like "A2", "A1xG2" or "a2xg2" into simple factors.

    A label outside the grammar raises `LabelError`; a family/rank pair the
    classification excludes (C2, E9) raises a plain `InvariantError`; a rank with more
    digits than an `int` may be read from (4300 by default) is past the build cap and
    raises `ResourceCapError`.
    """
    if not _LABEL_RE.fullmatch(label):
        raise LabelError(f"malformed type label {label!r}; expected e.g. A2 or A1xG2")
    factors = []
    for piece in label.split("x"):
        digits = piece[1:].lstrip("0") or "0"
        try:
            rank = int(digits)
        except ValueError:
            raise ResourceCapError(f"a factor rank of {len(digits)} digits exceeds the build cap of rank "
                                   f"{MAX_BUILD_RANK}") from None
        factors.append(SimpleType(piece[0].upper(), rank))
    return tuple(factors)


class Weight(_Record):
    """A vector of integers in the fundamental-weight basis."""

    __slots__ = ("coords",)  # own __init__, __eq__ and __hash__: weight-system inner loops call them

    def __init__(self, coords: tuple[int, ...]):
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other):
        return self.coords == other.coords if other.__class__ is Weight else NotImplemented

    def __hash__(self):
        return hash((self.coords,))

    @staticmethod
    def of(values: Iterable) -> "Weight":
        """Integral rationals (2, Fraction(4, 2), "3/3", 2.0) as `int`s; any other value raises `InvariantError`."""
        if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):  # "10" is no weight (1, 0)
            raise InvariantError(f"a weight is a sequence of coordinates, not {type(values).__name__}")
        coords = []
        for v in values:
            if type(v) is not int and ((v := read_rational(v)) is None or v.denominator != 1):
                raise InvariantError(f"weight coordinate {len(coords) + 1} is not an integer")
            coords.append(v.numerator)
        return Weight(tuple(coords))

    @staticmethod
    def zero(rank: int) -> "Weight":
        return Weight((0,) * rank)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    @property
    def is_dominant(self) -> bool:
        """Dominant integral: every coordinate an `int` >= 0, which a weight built past `of` may not be."""
        return all(type(a) is int and a >= 0 for a in self.coords)

    @property
    def height(self) -> int:
        """Coordinate sum; the grading used for deterministic orderings."""
        return sum(self.coords)

    def serialize(self) -> str:
        return ",".join(str(a) for a in self.coords)

    def __repr__(self):
        return f"Weight({self.serialize()})"


def graded_key(w: Weight):
    """Sort key for the graded lexicographic order on weights."""
    return (w.height, w.coords)


class CenterElement(_Record):
    """Canonical representative of a coset in P-dual / Q-dual (coweight coords)."""

    __slots__ = ("rep",)

    def serialize(self) -> str:
        return ",".join(str(a) for a in self.rep)

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.rep)

    def __repr__(self):
        return f"CenterElement({self.serialize()})"


class RootSystem(_Record):
    """Immutable Cartan datum for a product of simple types.

    cartan[i][j] = 2(a_i, a_j)/(a_i, a_i); the j-th simple root has
    fundamental-weight coordinates equal to the j-th column.  The invariant
    form is held once: with G the Gram matrix of the fundamental weights,
    so that (x, y) = x^T G y, `form` is the integer matrix D G and
    `denominator` the least such D.  All ten fields are exact and hashable and take part in
    equality and hash, though (factors, scale) fixes the rest (an O(1) hash waits for ROADMAP item 1).
    """

    __slots__ = ("factors", "rank", "cartan", "d", "positive_roots", "w0_perm", "highest_roots",
                 "scale", "denominator", "form")

    # -- small structural helpers ------------------------------------------

    def row(self, w: Weight) -> tuple[int, ...]:
        """D G w, in integers, so that D (x, w) is the dot product x . row."""
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


def _det_adjugate(matrix: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """det(M) and adj(M) of an integer matrix by fraction-free Gauss-Jordan (Bareiss 1968).

    [M | I] becomes [det(M) I | adj(M)]: each step divides exactly by the previous
    pivot, so every entry stays an integer.  The blocks built here are positive
    definite, so every leading minor, and so every pivot, is positive: no row swap.
    """
    n = len(matrix)
    aug = [list(line) + [int(i == j) for j in range(n)] for i, line in enumerate(matrix)]
    det = 1
    for col in range(n):
        pivot, prev, det = aug[col], det, aug[col][col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(det * v - f * w) // prev for v, w in zip(aug[r], pivot)]
    return det, [line[n:] for line in aug]


def _plate(t: SimpleType) -> tuple[list[list[int]], list[int], tuple[int, ...], tuple[int, ...],
                                   tuple[int, ...], int]:
    """Bourbaki's tables for one simple factor (Lie groups and Lie algebras, ch. VI, plates I-IX).

    Returns the Cartan matrix and the symmetrizers d (short roots have d = 1), the
    center P-dual/Q-dual as cyclic orders, the permutation j -> perm[j-1] by which -w0
    acts on the fundamental weights (1-based), the highest root in fundamental-weight
    coordinates, and the number of positive roots, all in this module's numbering,
    which is Bourbaki's.  The Dynkin diagram is data: bonds (i, j, a_ij, a_ji), 0-based,
    first a chain of simple bonds a_k - a_(k+1) for lo <= k < hi, then the family's
    special bonds, which replace a chain bond on the same pair.
    """
    n = t.rank
    perm, d = list(range(1, n + 1)), [1] * n
    lo, hi, special = 0, n - 1, []  # by default one chain through every node
    if t.family == "A":
        center, top, count = (n + 1,), ({1: 1, n: 1} if n > 1 else {1: 2}), n * (n + 1) // 2
        perm.reverse()
    elif t.family == "B":  # a_1..a_{n-1} long (d=2), a_n short
        center, top, count, d = (2,), {2: 2 if n == 2 else 1}, n * n, [2] * (n - 1) + [1]
        special = [(n - 2, n - 1, -1, -2)]
    elif t.family == "C":  # a_1..a_{n-1} short, a_n long (d=2)
        center, top, count, d = (2,), {1: 2}, n * n, [1] * (n - 1) + [2]
        special = [(n - 2, n - 1, -2, -1)]
    elif t.family == "D":  # the chain stops at a_{n-1}; a_n forks off a_{n-2}
        center, top, count, hi = ((4,) if n % 2 else (2, 2)), {2: 1}, n * (n - 1), n - 2
        special = [(n - 3, n - 1, -1, -1)]
        if n % 2:
            perm[-2:] = n, n - 1
    elif t.family == "E":  # the chain runs a_3 - ... - a_n; a_1 joins a_3 and a_2 joins a_4
        center, top, count = {6: ((3,), {2: 1}, 36), 7: ((2,), {1: 1}, 63), 8: ((), {8: 1}, 120)}[n]
        lo, special = 2, [(0, 2, -1, -1), (1, 3, -1, -1)]
        if n == 6:
            perm = [6, 2, 5, 4, 3, 1]
    elif t.family == "F":  # a_1, a_2 long (d=2); a_3, a_4 short
        center, top, count, d = (), {1: 1}, 24, [2, 2, 1, 1]
        special = [(1, 2, -1, -2)]
    else:  # G: a_1 short, a_2 long (d=3)
        center, top, count, d = (), {2: 1}, 6, [1, 3]
        special = [(0, 1, -3, -1)]
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j, aij, aji in [(k, k + 1, -1, -1) for k in range(lo, hi)] + special:
        a[i][j], a[j][i] = aij, aji
    return a, d, center, tuple(perm), tuple(top.get(j, 0) for j in range(1, n + 1)), count


def read_rational(value) -> Fraction | None:
    """An int, Fraction, float, Decimal or rational text as its exact `Fraction`; None for any other value."""
    bounded = isinstance(value, (str, Decimal))  # text and Decimals: no huge exponent, no more than about 1000 digits
    if bounded and re.search(r"[eE][-+]?0*[1-9][0-9_]{4}", str(value)):  # Fraction would expand 10**10000 and up
        return None
    try:  # None, NaN, an infinity, "1/0" and text past Python's int digit limit fail in Fraction
        value = Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        return None
    if bounded and max(abs(value.numerator), value.denominator).bit_length() > MAX_RATIONAL_BITS:
        return None
    return value


def _positive_rational(value, what: str) -> Fraction:
    """`value` through `read_rational`, if it is a positive rational; any other value raises `InvariantError`."""
    if (value := read_rational(value)) is not None and value > 0:
        return value
    raise InvariantError(f"{what} must be a positive rational")


# The build costs one fraction-free elimination per simple factor (rank^3 integer steps) and
# O(positive roots x rank) integer steps; at these caps the largest label of each shape
# (A44, B31, C31, D32, A1^128, G2^64, E8^8) builds in under 0.03 s, A44 the slowest
# (Python 3.11, 2 CPUs).
MAX_BUILD_RANK = 128
MAX_BUILD_ROOTS = 1000


def build_root_system(factors: Sequence[SimpleType | str], scale=1) -> RootSystem:
    """Construct the exact Cartan datum for a nonempty product of simple types.

    String factors are type labels and may themselves be products.  `scale`
    multiplies the invariant form (the symmetrizers scale with it); the
    default 1 keeps short roots at squared length 2.  A product of rank above
    MAX_BUILD_RANK or with more than MAX_BUILD_ROOTS positive roots raises
    `ResourceCapError` before anything is built.
    """
    if not factors:
        raise InvariantError("a root system needs at least one simple factor")
    parsed = tuple(simple for f in factors
                   for simple in ((f,) if isinstance(f, SimpleType) else parse_type_label(f)))
    scale = _positive_rational(scale, "the global form scale")

    # the rank first, from the labels alone: a table costs O(rank), and the sum may have
    # more digits than an int may print
    n = sum(f.rank for f in parsed)
    if n > MAX_BUILD_RANK:
        raise ResourceCapError(f"the rank, summed over the factors, exceeds the build cap of rank "
                               f"{MAX_BUILD_RANK}")
    plates = [_plate(f) for f in parsed]
    count = sum(roots for *_, roots in plates)
    if count > MAX_BUILD_ROOTS:
        raise ResourceCapError(f"a root system of rank {n} with {count} positive roots exceeds "
                               f"the build cap of {MAX_BUILD_ROOTS} positive roots")

    # A product is a direct sum: each factor places its Cartan block and its Gram block
    # scale D_f M_f^{-1} D_f, M_f = D_f A_f.  With scale = s/t that is s D_f adj(M_f) D_f
    # over t det(M_f), both integers; dividing by their gcd g leaves the least denominator.
    s, t = scale.numerator, scale.denominator
    cartan, rows, d0, perm, highest = [], [], [], [], []
    lo = 0
    for f, (block, dblock, _, fperm, top, _) in zip(parsed, plates):
        det, adj = _det_adjugate([[di * a for a in line] for di, line in zip(dblock, block)])
        num = [[s * di * a * dj for a, dj in zip(line, dblock)] for di, line in zip(dblock, adj)]
        g = math.gcd(t * det, *itertools.chain(*num))
        left, right = [0] * lo, [0] * (n - lo - f.rank)
        cartan.extend(left + line + right for line in block)
        rows.extend((t * det // g, left + [v // g for v in line] + right) for line in num)
        d0.extend(dblock)
        perm.extend(lo + j for j in fperm)
        highest.append(Weight((0,) * lo + top + (0,) * (n - lo - f.rank)))
        lo += f.rank
    denominator = math.lcm(*(den for den, _ in rows))
    form = tuple(tuple(v * (denominator // den) for v in row) for den, row in rows)

    # The positive roots along a longest-element word, found by greedy descent from rho
    # (smallest index first).  image[k] is the word so far applied to w_k, so the next
    # root, the word so far applied to a_j = sum_k a_kj w_k, is sum_k a_kj image[k];
    # appending s_j moves only w_j, to w_j - a_j, so image[j] loses that root.
    column = [[(k, line[j]) for k, line in enumerate(cartan) if line[j]] for j in range(n)]
    image = [[int(i == k) for i in range(n)] for k in range(n)]
    cur = [1] * n
    roots = []
    while (j := next((k for k in range(n) if cur[k] > 0), None)) is not None:
        c = cur[j]
        beta = [0] * n
        for k, a in column[j]:
            cur[k] -= c * a
            beta = [b + a * x for b, x in zip(beta, image[k])]
        image[j] = [x - b for x, b in zip(image[j], beta)]
        roots.append(Weight(tuple(beta)))
    if len(set(roots)) != len(roots):
        raise InvariantError("longest-element word failed to enumerate distinct positive roots")

    return RootSystem(
        factors=parsed, rank=n, cartan=tuple(tuple(line) for line in cartan),
        d=tuple(scale * Fraction(dj) for dj in d0), positive_roots=tuple(roots),
        w0_perm=tuple(perm), highest_roots=tuple(highest), scale=scale, denominator=denominator, form=form,
    )


def _check_length(R: RootSystem, w: Weight):
    if len(w.coords) != R.rank:
        raise InvariantError(f"weight of length {len(w.coords)} does not match rank {R.rank}")


def check_dominant_integral(R: RootSystem, w: Weight):
    """Reject a weight of the wrong length or one that is not dominant integral, naming the first bad coordinate."""
    _check_length(R, w)
    if not w.is_dominant:
        k = next(k for k, a in enumerate(w.coords, 1) if type(a) is not int or a < 0)
        raise InvariantError(f"the weight is not dominant integral at coordinate {k}")


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


def minus_w0(R: RootSystem, x: Weight) -> Weight:
    """The duality involution x -> -w0 x (dominant weights map to dominant).

    -w0 sends w_j to w_{w0_perm[j]}, so coordinate j moves to position
    w0_perm[j]; the permutation is an involution, so position i reads x_{w0_perm[i]}.
    """
    _check_length(R, x)
    return Weight(tuple(x.coords[k - 1] for k in R.w0_perm))


# ---------------------------------------------------------------------------
# Center group P-dual / Q-dual
# ---------------------------------------------------------------------------


class CenterGroup(NamedTuple):
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
    v = list(Weight.of(rep).coords)  # integers by `Weight.of`'s rule: 0.5 is no class (0, 0)
    if len(v) != R.rank:
        raise InvariantError(f"center representative of length {len(v)} does not match rank {R.rank}")
    basis = _coroot_hnf(R.cartan)
    for i in range(R.rank):
        q = v[i] // basis[i][i]
        if q:
            for k in range(R.rank):
                v[k] -= q * basis[i][k]
    return CenterElement(tuple(v))


def center_negate(R: RootSystem, a: CenterElement) -> CenterElement:
    return center_reduce(R, [-x for x in a.rep])


def center_order(R: RootSystem) -> int:
    """The order of P-dual/Q-dual, read off the Hermite basis without listing the group."""
    basis = _coroot_hnf(R.cartan)
    return math.prod(basis[i][i] for i in range(R.rank))


def center_group(R: RootSystem) -> CenterGroup:
    """Invariant factors and canonical representatives of P-dual/Q-dual, refused past the row cap.

    The invariant factors merge the factors' cyclic orders (`_plate`): each
    order joins the divisor chain from the top, leaving the lcm and carrying
    the gcd down, since Z_a x Z_b = Z_gcd(a,b) x Z_lcm(a,b).
    """
    order, cap = center_order(R), resolve_row_cap()
    if order > cap:
        raise ResourceCapError(f"center group of order {order} exceeds the row cap of {cap}")
    chain: list[int] = []
    for m in [m for f in R.factors for m in _plate(f)[2]]:
        for i in reversed(range(len(chain))):
            chain[i], m = math.lcm(chain[i], m), math.gcd(chain[i], m)
        if m > 1:
            chain.insert(0, m)
    basis = _coroot_hnf(R.cartan)
    reps = sorted(itertools.product(*(range(basis[i][i]) for i in range(R.rank))),
                  key=lambda rep: (sum(rep), rep))
    return CenterGroup(invariant_factors=tuple(chain), order=order,
                       representatives=tuple(CenterElement(rep) for rep in reps))


def is_half_coroot(R: RootSystem, zeta: CenterElement) -> bool:
    """True iff twice the representative lies in the coroot lattice."""
    return center_reduce(R, [2 * a for a in zeta.rep]).is_zero


def coweight_pairing(R: RootSystem, zeta: CenterElement, lam: Weight) -> Fraction:
    """(xi, lam) for the coweight vector xi represented by `zeta`, exactly.

    Independent of the global form scale: (w_i-check, lam) = (w_i, lam)/d_i, and
    D (w_i, lam) is entry i of R.row(lam).
    """
    _check_length(R, lam)
    row = R.row(lam)
    return sum((Fraction(zi * row[i], R.denominator) / R.d[i] for i, zi in enumerate(zeta.rep) if zi),
               Fraction(0))


# ---------------------------------------------------------------------------
# Dominant-weight enumeration
# ---------------------------------------------------------------------------

ROW_CAP_ENV = "QLAP_ROW_CAP"
DEFAULT_ROW_CAP = 100000


def resolve_row_cap() -> int:
    """$QLAP_ROW_CAP, else DEFAULT_ROW_CAP: it bounds the blocks of a norm ball, the weights of a
    weight system, the classes of the center and the calculi of an enumeration, read as each starts."""
    text = os.environ.get(ROW_CAP_ENV, str(DEFAULT_ROW_CAP))
    try:
        cap = int(text)
    except ValueError as exc:
        raise UsageError(f"{ROW_CAP_ENV}={text!r} is not an integer") from exc
    if cap < 0:
        raise UsageError(f"the row cap must be nonnegative, got {cap}")
    return cap


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
            found.append(Weight(tuple(coords)))
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


def enumerate_dominant(R: RootSystem, radius) -> list[Weight]:
    """All dominant integral weights with (x, x) <= radius, in graded-lex order, under the row cap.

    Finiteness comes from positive definiteness of the Gram matrix; all of its
    entries are nonnegative, so the norm is monotone in each coordinate.  Each
    probe compares the integer D (x, x) = x . (D G x) with floor(D radius).
    """
    cap = resolve_row_cap()
    radius = _positive_rational(radius, "radius")
    form, bound = R.form, radius.numerator * R.denominator // radius.denominator
    return walk_dominant(R, lambda x: sum(a * sum(map(mul, line, x)) for a, line in zip(x, form)) <= bound, cap)
