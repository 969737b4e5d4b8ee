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
        return "\n".join(self._format_rows(self._text_entry, {}, " "))

    def _text_entry(self, code: int) -> str:
        """An entry as str() prints it: its code over a prime field, else its
        coefficients in parentheses."""
        if self.ctx.k == 1:
            return str(code)
        return "(" + ",".join(map(str, self.ctx.code_to_coeffs(code))) + ")"

    def _format_rows(self, entry, text: dict, sep: str):
        """Each row's entries joined by sep, one row at a time.  entry(code)
        formats each code once; text (code -> its text) keeps the results, so
        matrices that share it format a code once between them."""
        for row in self._rows:
            for code in set(row).difference(text):
                text[code] = entry(code)
            yield sep.join(map(text.__getitem__, row))

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
        """Determinant, the product of the pivots of Gauss-Jordan elimination,
        negated once per row swap."""
        return FieldElem(self.ctx, self._eliminate()[0])

    def inverse(self) -> "Mat":
        """Inverse by Gauss-Jordan elimination; raises ZeroDivisionError if singular."""
        rows = self._eliminate()[1]
        if rows is None:
            raise ZeroDivisionError("matrix is singular")
        return Mat(self.ctx, rows)

    def _eliminate(self) -> tuple:
        """One Gauss-Jordan pass over [self | I], pivoting on the first nonzero
        entry: the code of det(self) and the rows of the inverse, or (0, None)
        at the first column with no pivot."""
        ctx, n = self.ctx, self.n
        mul, sub = ctx.mul_code, ctx.sub_code
        a = [list(row) + ident for row, ident in zip(self._rows, _identity_codes(n))]
        det = 1
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                return 0, None
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = ctx.neg_code(det)
            pval = a[col][col]
            det = mul(det, pval)
            pinv = ctx.inv_code(pval)
            a[col] = [mul(pinv, x) for x in a[col]]
            for r in range(n):
                f = a[r][col]
                if r != col and f:
                    a[r] = [sub(x, mul(f, y)) if y else x for x, y in zip(a[r], a[col])]
        return det, [row[n:] for row in a]
