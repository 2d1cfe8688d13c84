"""Dense symmetric rational matrices and congruence diagonalization.

Three elementary congruence operations (simultaneous row/column swap,
scale, and add) preserve the inertia of a symmetric matrix, so pivoting
with them alone diagonalizes the matrix without disturbing its signature.
All arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .core import GraphError, Inertia

__all__ = [
    "SymRationalMatrix",
    "EcmoStep",
    "DiagonalizationResult",
    "congruent_diagonalize",
]


class _SymRationalMatrixFields(NamedTuple):
    rows: tuple[tuple[Fraction, ...], ...]


class SymRationalMatrix(_SymRationalMatrixFields):
    """Immutable dense symmetric matrix of exact rationals: the named tuple
    ``(rows,)``, checked square and symmetric on every construction."""

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[Fraction, ...], ...]) -> "SymRationalMatrix":
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise GraphError("matrix is not square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise GraphError(f"matrix is not symmetric at ({i},{j})")
        return super().__new__(cls, rows)

    @classmethod
    def _make(cls, iterable) -> "SymRationalMatrix":
        # ``_replace`` builds through ``_make``: route it through the checks.
        return cls(*iterable)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "SymRationalMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @property
    def order(self) -> int:
        return len(self.rows)

    def dump(self) -> str:
        """Debug format: one row per line, reduced rationals separated by spaces."""
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows)


class EcmoStep(NamedTuple):
    """One applied congruence operation.

    ``op`` is ``"swap"`` (rows/columns i and j), ``"scale"`` (row/column i
    by k, with j == i) or ``"add"`` (k times row/column i added onto row/
    column j).
    """

    op: str
    i: int
    j: int
    k: Fraction | None = None


class DiagonalizationResult(NamedTuple):
    inertia: Inertia
    diagonal: tuple[Fraction, ...]
    steps: tuple[EcmoStep, ...]


def congruent_diagonalize(m: SymRationalMatrix) -> DiagonalizationResult:
    """Diagonalize by congruence and read the inertia off the diagonal signs.

    Pivoting is deterministic: the lowest-index nonzero diagonal entry of
    the active submatrix wins; if the active diagonal is all zero, the
    lexicographically first nonzero off-diagonal entry (i, j) is promoted
    by adding row/column j onto i, planting ``2*m[i][j]`` on the diagonal
    (this rescue relies on characteristic-zero arithmetic).  If the active
    submatrix is entirely zero the remaining entries count as zeros.
    """
    a = [list(row) for row in m.rows]
    n = len(a)
    steps: list[EcmoStep] = []

    def swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]
        steps.append(EcmoStep("swap", i, j))

    def add(src: int, dst: int, k: Fraction) -> None:
        srow = a[src]
        drow = a[dst]
        for c in range(n):
            drow[c] += k * srow[c]
        for r in range(n):
            a[r][dst] += k * a[r][src]
        steps.append(EcmoStep("add", src, dst, k))

    col = 0
    while col < n:
        pivot = next((i for i in range(col, n) if a[i][i] != 0), None)
        if pivot is None:
            off = next(
                ((i, j) for i in range(col, n) for j in range(i + 1, n) if a[i][j] != 0),
                None,
            )
            if off is None:
                break
            add(off[1], off[0], Fraction(1))
            pivot = off[0]
        if pivot != col:
            swap(pivot, col)
        d = a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                add(col, r, -a[r][col] / d)
        col += 1

    diagonal = tuple(a[i][i] for i in range(n))
    pos = sum(1 for x in diagonal if x > 0)
    neg = sum(1 for x in diagonal if x < 0)
    return DiagonalizationResult(Inertia(pos, neg, n - pos - neg), diagonal, tuple(steps))
