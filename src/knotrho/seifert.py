"""Seifert matrices, knot family generators, and surgery presentations.

All values are immutable after construction and every operation is a pure
function, so everything here is safe for unrestricted concurrent use.

per_matrix_cache memoises functions of a Seifert matrix for as long as the
matrix lives.  It keeps that promise: two threads may compute the same
entry twice, and the later store replaces the earlier, equal value, but
no thread ever reads an entry computed for a different matrix or
arguments.  Its hit and miss counts are kept under a lock.
"""

from __future__ import annotations

import functools
import threading
import weakref
from fractions import Fraction
from typing import NamedTuple, Optional

from .exceptions import (
    InconsistentModulusError,
    InvalidParameterError,
    InvalidSeifertMatrixError,
    InvalidSlopeError,
    SeifertJSONError,
)
from .records import Record

IntMatrix = tuple[tuple[int, ...], ...]


def _is_tridiagonal(rows: IntMatrix) -> bool:
    """Whether every entry two or more places off the diagonal is zero."""
    return not any(
        any(row[:max(i - 1, 0)]) or any(row[i + 2:]) for i, row in enumerate(rows)
    )


def det_int(rows: IntMatrix) -> int:
    """Exact determinant of an integer matrix by fraction-free Bareiss
    elimination."""
    m = len(rows)
    if m == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(m - 1):
        if a[k][k] == 0:
            for i in range(k + 1, m):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[m - 1][m - 1]


def _skew_det(rows: IntMatrix) -> int:
    """det(A - A^T) of a tridiagonal integer matrix A.

    The skew matrix has a zero diagonal, so its band continuant is
    D_i = (a_{i-1,i} - a_{i,i-1})^2 D_{i-2} with D_0 = 1 and D_1 = 0, and
    no dense matrix is built.
    """
    m = len(rows)
    prev2, prev1 = 1, 0
    for i in range(1, m):
        prev2, prev1 = prev1, (rows[i - 1][i] - rows[i][i - 1]) ** 2 * prev2
    return prev1 if m else 1


def _is_integer_type(t: type) -> bool:
    return issubclass(t, int) and not issubclass(t, bool)


class SeifertMatrix(Record):
    """Integer Seifert pairing of a spanning surface.

    kind='knot' demands det(A - A^T) = ±1 (and hence even size); kind='link'
    only requires integrality, since cable links are generally not
    unimodular.
    """

    _fields = ("entries", "kind")

    def __init__(self, entries: IntMatrix, kind: str = "knot"):
        if kind not in ("knot", "link"):
            raise InvalidSeifertMatrixError(f"kind must be 'knot' or 'link', got {kind!r}")
        rows = tuple(tuple(r) for r in entries)
        m = len(rows)
        for r in rows:
            if len(r) != m:
                raise InvalidSeifertMatrixError(f"matrix is not square: {m} rows, row of length {len(r)}")
            if not all(map(_is_integer_type, set(map(type, r)))):
                bad = next(x for x in r if not _is_integer_type(type(x)))
                raise InvalidSeifertMatrixError(f"entries must be integers, got {bad!r}")
        # _hash is hashed once: every cache lookup keyed by the matrix would
        # otherwise re-hash all m^2 entries.  _tridiagonal is scanned once,
        # for validation and for the signature engine's layout.
        tridiagonal = _is_tridiagonal(rows)
        self.__dict__.update(entries=rows, kind=kind, _hash=hash((rows, kind)), _tridiagonal=tridiagonal)
        if kind == "knot":
            if m % 2 != 0:
                raise InvalidSeifertMatrixError(f"knot Seifert matrix must have even size, got {m}")
            if tridiagonal:
                d = _skew_det(rows)
            else:
                d = det_int(
                    tuple(tuple(rows[i][j] - rows[j][i] for j in range(m)) for i in range(m))
                )
            if d not in (1, -1):
                raise InvalidSeifertMatrixError(
                    f"A - A^T must be unimodular for a knot; det = {d}"
                )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt from its fields: the cached hash covers a str, whose hash
        # differs between processes.
        return SeifertMatrix, (self.entries, self.kind)

    @property
    def size(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]

    def transpose(self) -> "SeifertMatrix":
        m = self.size
        return SeifertMatrix(
            tuple(tuple(self.entries[j][i] for j in range(m)) for i in range(m)),
            kind=self.kind,
        )

    def to_json(self) -> str:
        import json

        return json.dumps(
            {"kind": self.kind, "size": self.size, "entries": [list(r) for r in self.entries]}
        )

    def __repr__(self) -> str:
        return f"SeifertMatrix(size={self.size}, kind={self.kind!r})"


_MISSING = object()


class _CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: None
    currsize: int


def per_matrix_cache(fn):
    """Memoise fn(a, *args) for a SeifertMatrix a, for as long as a lives.

    Each matrix gets a dict of entries keyed by the other (positional,
    hashable) arguments.  A front table keyed by id(a) finds that dict by
    identity on every call.  Only a matrix new to the front table consults
    the table of shared entries, keyed by the matrix's plain weak
    reference: a matrix equal to a live one shares that one's entries,
    found by a single m^2 comparison, and the entries go when that first
    matrix is collected, after which the others start afresh.  Each front
    row holds a weak reference whose callback drops the row when its
    matrix is collected, before its id can be reused; the row also checks
    its matrix by identity.  The callbacks are dict methods, which run no
    Python code: Python reports and drops an exception raised in a weak
    reference callback, so a KeyboardInterrupt due while a Python callback
    ran, even on its first line, would be lost and the computation would
    go on.  No cached value may refer to its matrix, or the matrix would
    never be freed.  cache_clear() and cache_info() behave as for
    functools.lru_cache(maxsize=None), currsize counting live entries.
    """
    table: dict = {}  # weak reference -> {0: entries}, a box emptied when its matrix dies
    front: dict = {}  # id(matrix) -> (box, weak references to the matrix)
    counts = [0, 0]  # hits, misses
    lock = threading.Lock()  # guards counts

    def enter(a: SeifertMatrix) -> dict:
        """a's entries, after one lookup among the shared ones: a is new to
        the front table, or the matrix whose entries it read has died."""
        key = weakref.ref(a)
        box = table.get(key)
        # Read the box once: its owner may die, and empty it, at any moment.
        entries = None if box is None else box.get(0)
        ident = id(a)
        forget = [functools.partial(front.pop, ident)]
        if entries is None:
            entries = {}
            box = table[key] = {0: entries}
            forget += [functools.partial(box.pop, 0), functools.partial(table.pop, key)]
        # Each callback pops its key with the dead reference as the default.
        front[ident] = (box, *(weakref.ref(a, f) for f in forget))
        return entries

    @functools.wraps(fn)
    def cached(a: SeifertMatrix, *args):
        row = front.get(id(a))
        entries = row[0].get(0) if row is not None and row[1]() is a else None
        if entries is None:
            entries = enter(a)
        value = entries.get(args, _MISSING)
        lock.acquire()  # a with block would cost three times as much per call
        try:
            counts[value is _MISSING] += 1
        finally:
            lock.release()
        if value is _MISSING:
            value = entries[args] = fn(a, *args)
        return value

    def cache_info() -> _CacheInfo:
        size = sum(len(box.get(0, ())) for box in list(table.values()))
        with lock:
            return _CacheInfo(counts[0], counts[1], None, size)

    def cache_clear() -> None:
        with lock:
            front.clear()
            table.clear()
            counts[:] = [0, 0]

    cached.cache_info = cache_info
    cached.cache_clear = cache_clear
    return cached


def seifert_from_json(text: str) -> SeifertMatrix:
    """Parse the JSON Seifert matrix format.

    {"kind": "knot"|"link", "size": m, "entries": [[int, ...], ...]}

    Malformed JSON or schema raises SeifertJSONError; a well-formed matrix
    that fails the knot/link invariants raises InvalidSeifertMatrixError.
    """
    import json

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SeifertJSONError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SeifertJSONError("top-level value must be an object")
    missing = {"kind", "size", "entries"} - set(obj)
    if missing:
        raise SeifertJSONError(f"missing keys: {sorted(missing)}")
    kind, size, entries = obj["kind"], obj["size"], obj["entries"]
    if kind not in ("knot", "link"):
        raise SeifertJSONError(f"kind must be 'knot' or 'link', got {kind!r}")
    if not isinstance(size, int) or isinstance(size, bool) or size < 0:
        raise SeifertJSONError(f"size must be a nonnegative integer, got {size!r}")
    if not isinstance(entries, list) or len(entries) != size:
        raise SeifertJSONError(f"entries must be a list of {size} rows")
    for r in entries:
        if not isinstance(r, list) or len(r) != size:
            raise SeifertJSONError(f"each row must be a list of {size} integers")
        for x in r:
            if not isinstance(x, int) or isinstance(x, bool):
                raise SeifertJSONError(f"entries must be integers, got {x!r}")
    return SeifertMatrix(tuple(tuple(r) for r in entries), kind=kind)


# -- families ------------------------------------------------------------


def unknot_seifert() -> SeifertMatrix:
    """The empty Seifert pairing; every signature of it is 0."""
    return SeifertMatrix((), kind="knot")


def jn_seifert(n: int) -> SeifertMatrix:
    """2n x 2n bidiagonal Seifert matrix of the twist-family 2-bridge knot:
    diagonal (1, ..., 1, -1), superdiagonal 1."""
    if n < 1:
        raise InvalidParameterError(f"family parameter must be >= 1, got {n}")
    m = 2 * n
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = 1
        if i + 1 < m:
            rows[i][i + 1] = 1
    rows[m - 1][m - 1] = -1
    return SeifertMatrix(tuple(tuple(r) for r in rows), kind="knot")


def torus_knot_seifert(n: int) -> SeifertMatrix:
    """Seifert matrix of the (2, 2n+1) torus knot: the twist-family matrix
    with the bottom-right entry flipped to +1."""
    if n < 1:
        raise InvalidParameterError(f"family parameter must be >= 1, got {n}")
    m = 2 * n
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = 1
        if i + 1 < m:
            rows[i][i + 1] = 1
    return SeifertMatrix(tuple(tuple(r) for r in rows), kind="knot")


def trefoil_seifert() -> SeifertMatrix:
    return torus_knot_seifert(1)


def mirror(a: SeifertMatrix) -> SeifertMatrix:
    """Seifert matrix -A^T of the mirror knot; negates every signature."""
    return SeifertMatrix(
        tuple(tuple(-x for x in col) for col in zip(*a.entries)), kind=a.kind
    )


# -- surgery presentations -------------------------------------------------


class SurgeryPresentation(Record):
    """Integer-framed surgery data with a map to Z_d.

    linking holds framings on the diagonal and pairwise linking numbers off
    it; residues[i] is the image of the i-th positive meridian in Z_d,
    normalized to [0, d).  Construction validates symmetry and the
    homological consistency condition linking @ residues == 0 (mod d).
    """

    _fields = ("linking", "residues", "modulus")

    def __init__(self, linking: IntMatrix, residues: tuple[int, ...], modulus: int):
        rows = tuple(tuple(r) for r in linking)
        r = len(rows)
        if r < 1:
            raise InvalidParameterError("a presentation needs at least one component")
        if modulus < 1:
            raise InvalidParameterError(f"modulus must be positive, got {modulus}")
        for row in rows:
            if len(row) != r:
                raise InvalidParameterError("linking matrix must be square")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InvalidParameterError(f"linking entries must be integers, got {x!r}")
        for i in range(r):
            for j in range(r):
                if rows[i][j] != rows[j][i]:
                    raise InvalidParameterError("linking matrix must be symmetric")
        if len(residues) != r:
            raise InvalidParameterError(
                f"need {r} meridian residues, got {len(residues)}"
            )
        res = tuple(x % modulus for x in residues)
        for i in range(r):
            s = sum(rows[i][j] * res[j] for j in range(r))
            if s % modulus != 0:
                raise InconsistentModulusError(
                    f"no homomorphism to Z_{modulus}: row {i} gives "
                    f"{s} != 0 (mod {modulus})"
                )
        self.__dict__.update(linking=rows, residues=res, modulus=modulus)

    @property
    def components(self) -> int:
        return len(self.linking)

    @property
    def framings(self) -> tuple[int, ...]:
        return tuple(self.linking[i][i] for i in range(self.components))

    def residue_quadratic(self) -> int:
        """sum_{i,j} r_i r_j Lambda_ij, the correction-term quadratic form."""
        r = self.components
        return sum(
            self.residues[i] * self.residues[j] * self.linking[i][j]
            for i in range(r)
            for j in range(r)
        )


def knot_surgery_presentation(n: int, d: int) -> SurgeryPresentation:
    """Single-component presentation for n-framed surgery on a knot, with
    the natural map onto H_1 = Z_|n| (so d must equal |n|)."""
    if n == 0:
        raise InvalidSlopeError("surgery slope must be nonzero")
    if d != abs(n):
        raise InconsistentModulusError(
            f"modulus {d} does not match H_1 = Z_{abs(n)} of the surgery manifold"
        )
    return SurgeryPresentation(((n,),), (1,), d)


class TwistReduction(Record):
    """Equivalent two-component surgery description on the seed link:
    (d-framed surgery on the n-th twist knot) = (slope_a, slope_b)-surgery."""

    _fields = ("slope_a", "slope_b", "degenerate")

    def __init__(self, slope_a: int, slope_b: Optional[Fraction], degenerate: bool = False):
        self.__dict__.update(slope_a=slope_a, slope_b=slope_b, degenerate=degenerate)


def twist_reduction(d: int, n: int) -> TwistReduction:
    """(d + 4n, 1/n): introducing n full twists shifts the companion framing
    by -4n.  n = 0 is returned flagged degenerate (1/0 is not a slope)."""
    if n == 0:
        return TwistReduction(d, None, degenerate=True)
    return TwistReduction(d + 4 * n, Fraction(1, n), degenerate=False)


# -- family identifiers ------------------------------------------------------

# The parametrised families by name, the one table that knot specs
# ('torus2:3') and KnotFamilyId read.
KNOT_FAMILIES = {"torus2": torus_knot_seifert, "jn": jn_seifert}


class KnotFamilyId(Record):
    """Identifier for the built-in knot families.

    family 'torus2' with parameter n denotes the (2, 2n+1) torus knot;
    'jn' the twist-family 2-bridge knot; 'custom' carries no parameter
    semantics here (resolution happens at the CLI from a file).
    """

    _fields = ("family", "parameter")

    def __init__(self, family: str, parameter: int = 0):
        if family not in ("unknot", "custom", *KNOT_FAMILIES):
            raise InvalidParameterError(f"unknown family {family!r}")
        if family in KNOT_FAMILIES and parameter < 1:
            raise InvalidParameterError(
                f"family {family!r} needs parameter >= 1, got {parameter}"
            )
        self.__dict__.update(family=family, parameter=parameter)

    def seifert(self) -> SeifertMatrix:
        if self.family == "unknot":
            return unknot_seifert()
        if self.family in KNOT_FAMILIES:
            return KNOT_FAMILIES[self.family](self.parameter)
        raise InvalidParameterError("custom family has no built-in Seifert matrix")

    def __str__(self) -> str:
        if self.family in KNOT_FAMILIES:
            return f"{self.family}:{self.parameter}"
        return self.family
