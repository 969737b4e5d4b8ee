"""Dense square matrices over a finite field with exact arithmetic.

Entries are stored as a tuple of n rows, each a tuple of n integer element
codes.  Matrices are immutable; two are equal exactly when they share a
field and their entry codes, and equal matrices hash alike.  Every product
uses the field's scalar arithmetic and skips the zero entries of both
factors, so it costs one multiply per pair of nonzeros that meet.  The
module imports no numpy.
"""

from __future__ import annotations

import operator

from classgen.gf import FieldCtx, FieldElem, _check_subfield


def _identity_codes(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


class Mat:
    """An immutable n x n matrix over a FieldCtx."""

    __slots__ = ("ctx", "n", "_rows")

    def __init__(self, ctx: FieldCtx, codes):
        """codes: the n rows of entry codes, as nested sequences or a 2-D array of
        integers.  A non-integral entry, such as a float, raises ValueError."""
        try:
            rows = tuple(tuple(map(operator.index, row)) for row in codes)
        except TypeError as exc:
            raise ValueError(f"matrix must be rows of integer codes: {exc}") from None
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError(f"matrix must be square, got row lengths {[len(r) for r in rows]}")
        if n < 1:
            raise ValueError("matrix degree must be at least 1")
        if min(map(min, rows)) < 0 or max(map(max, rows)) >= ctx.q:
            raise ValueError("entry code out of range for the field")
        self.ctx = ctx
        self.n = n
        self._rows = rows

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows) -> "Mat":
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("rows must all have the same length as the row count")
        return cls(ctx, [[ctx.elem(entry).code for entry in row] for row in rows])

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "Mat":
        return cls(ctx, _identity_codes(n))

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int) -> FieldElem:
        """Entry at 0-based position (i, j)."""
        return FieldElem(self.ctx, self._rows[i][j])

    def rows(self) -> list[list[FieldElem]]:
        return [[FieldElem(self.ctx, c) for c in row] for row in self._rows]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.ctx == other.ctx and self._rows == other._rows

    def __hash__(self):
        return hash((self.ctx.q, self._rows))

    def __repr__(self):
        return f"Mat(GF({self.ctx.q}), {self.n}x{self.n})"

    def __str__(self):
        return "\n".join(self._text_rows())

    def _text_rows(self):
        """The rows of str(self), one at a time: entries separated by spaces,
        over GF(p^k), k > 1, each as its coefficients in parentheses."""
        ctx = self.ctx
        for row in self._rows:
            if ctx.k == 1:
                yield " ".join(map(str, row))
            else:
                yield " ".join("(" + ",".join(map(str, ctx.code_to_coeffs(c))) + ")" for c in row)

    # -- arithmetic ------------------------------------------------------------

    def _check_compatible(self, other: "Mat") -> None:
        if self.ctx != other.ctx:
            raise ValueError("mixed fields in matrix arithmetic")
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} vs {other.n}")

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        self._check_compatible(other)
        add, mul = self.ctx.add_code, self.ctx.mul_code
        # Row i of the product is the sum of a[i][l] * (row l of other) over
        # the nonzero a[i][l]; each such term touches only the nonzero
        # entries of row l.
        support = [[(j, c) for j, c in enumerate(row) if c] for row in other._rows]
        out = []
        for row in self._rows:
            acc = [0] * self.n
            for a, terms in zip(row, support):
                if a:
                    for j, c in terms:
                        acc[j] = add(acc[j], mul(a, c))
            out.append(acc)
        return Mat(self.ctx, out)

    def __pow__(self, e: int):
        e = operator.index(e)  # a float exponent is a TypeError
        if e < 0:
            return self.inverse() ** (-e)
        out = Mat.identity(self.ctx, self.n)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def transpose(self) -> "Mat":
        return Mat(self.ctx, list(zip(*self._rows)))

    def conj_transpose(self, q0: int | None = None) -> "Mat":
        """Transpose with every entry conjugated by x -> x**q0 (quadratic extensions)."""
        ctx = self.ctx
        _check_subfield(ctx, q0)
        return Mat(ctx, [[ctx.frobenius_code(c) for c in col] for col in zip(*self._rows)])

    def det(self) -> FieldElem:
        """Determinant by Gaussian elimination, pivoting on the first nonzero entry."""
        ctx, n = self.ctx, self.n
        a = [list(row) for row in self._rows]
        det = 1
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                return ctx.zero
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = ctx.neg_code(det)
            pval = a[col][col]
            det = ctx.mul_code(det, pval)
            pinv = ctx.inv_code(pval)
            for r in range(col + 1, n):
                if a[r][col]:
                    f = ctx.mul_code(a[r][col], pinv)
                    for c in range(col, n):
                        a[r][c] = ctx.sub_code(a[r][c], ctx.mul_code(f, a[col][c]))
        return FieldElem(ctx, det)

    def inverse(self) -> "Mat":
        """Inverse by Gauss-Jordan elimination; raises ZeroDivisionError if singular."""
        ctx, n = self.ctx, self.n
        a = [list(row) for row in self._rows]
        b = _identity_codes(n)
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                raise ZeroDivisionError("matrix is singular")
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                b[col], b[piv] = b[piv], b[col]
            pinv = ctx.inv_code(a[col][col])
            a[col] = [ctx.mul_code(pinv, x) for x in a[col]]
            b[col] = [ctx.mul_code(pinv, x) for x in b[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    f = a[r][col]
                    a[r] = [ctx.sub_code(x, ctx.mul_code(f, y)) for x, y in zip(a[r], a[col])]
                    b[r] = [ctx.sub_code(x, ctx.mul_code(f, y)) for x, y in zip(b[r], b[col])]
        return Mat(ctx, b)

