"""Dense square matrices over a finite field: exact arithmetic, canonical bytes.

Entries are stored as an (n, n) array of integer element codes.  Matrices
are immutable.  Every product contracts the base-p digits of both factors
with the field's structure constants (FieldCtx.tables).  The canonical
encoding is a field-independent byte form of one matrix: one byte for the
degree n (so n <= 255), then the entries in row-major order, each entry as
its k base-p digits (constant term first), every digit written as
digit_width(p) little-endian bytes.  The closure enumeration does not use
it; it keys matrices on their row codes.
"""

from __future__ import annotations

import numpy as np

from classgen.gf import FieldCtx, FieldElem, digit_width


class Mat:
    """An immutable n x n matrix over a FieldCtx."""

    __slots__ = ("ctx", "n", "_codes")

    def __init__(self, ctx: FieldCtx, codes: np.ndarray):
        arr = np.ascontiguousarray(codes, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("matrix degree must be at least 1")
        if arr.min() < 0 or arr.max() >= ctx.q:
            raise ValueError("entry code out of range for the field")
        arr.flags.writeable = False
        self.ctx = ctx
        self.n = arr.shape[0]
        self._codes = arr

    @property
    def codes(self) -> np.ndarray:
        return self._codes

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows) -> "Mat":
        n = len(rows)
        arr = np.empty((n, n), dtype=np.int64)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("rows must all have the same length as the row count")
            for j, entry in enumerate(row):
                arr[i, j] = ctx.elem(entry).code
        return cls(ctx, arr)

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "Mat":
        arr = np.zeros((n, n), dtype=np.int64)
        np.fill_diagonal(arr, 1)
        return cls(ctx, arr)

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int) -> FieldElem:
        """Entry at 0-based position (i, j)."""
        return FieldElem(self.ctx, int(self._codes[i, j]))

    def rows(self) -> list[list[FieldElem]]:
        return [[FieldElem(self.ctx, int(c)) for c in row] for row in self._codes]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.ctx == other.ctx and self.n == other.n
                and np.array_equal(self._codes, other._codes))

    def __hash__(self):
        return hash((self.ctx.q, self.n, self._codes.tobytes()))

    def __repr__(self):
        return f"Mat(GF({self.ctx.q}), {self.n}x{self.n})"

    def __str__(self):
        body = []
        for row in self._codes:
            entries = []
            for c in row:
                coeffs = self.ctx.code_to_coeffs(int(c))
                if self.ctx.k == 1:
                    entries.append(str(coeffs[0]))
                else:
                    entries.append("(" + ",".join(str(d) for d in coeffs) + ")")
            body.append(" ".join(entries))
        return "\n".join(body)

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
        ctx = self.ctx
        a, b = ctx.digits(self._codes), ctx.digits(other._codes)
        # Digits are < p <= 2**20, so each of the n terms of a digit product
        # sum is < 2**40 and int64 stays exact for degree n < 2**23; the k**2
        # terms of the contraction with S stay below 2**49 for q <= 2**20.
        prod = np.einsum("ils,ljt->ijst", a, b) % ctx.p
        out = np.einsum("ijst,stu->iju", prod, ctx.tables()) % ctx.p
        return Mat(ctx, out @ ctx.p ** np.arange(ctx.k, dtype=np.int64))

    def __pow__(self, e: int):
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
        return Mat(self.ctx, self._codes.T.copy())

    def conj_transpose(self, q0: int | None = None) -> "Mat":
        """Transpose with every entry conjugated by x -> x**q0 (quadratic extensions)."""
        ctx = self.ctx
        want = ctx.subfield_order()
        if q0 is not None and q0 != want:
            raise ValueError(f"GF({ctx.q}) is not a quadratic extension of GF({q0})")
        out = np.empty((self.n, self.n), dtype=np.int64)
        for i in range(self.n):
            for j in range(self.n):
                out[j, i] = ctx.frobenius_code(int(self._codes[i, j]))
        return Mat(ctx, out)

    def det(self) -> FieldElem:
        """Determinant by Gaussian elimination, pivoting on the first nonzero entry."""
        ctx, n = self.ctx, self.n
        a = [[int(c) for c in row] for row in self._codes]
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
        a = [[int(c) for c in row] for row in self._codes]
        b = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
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
        return Mat(ctx, np.array(b, dtype=np.int64))

    # -- canonical bytes -------------------------------------------------------

    def encode_canonical(self) -> bytes:
        """Injective byte encoding of (degree, entries) for one field."""
        if self.n > 255:
            raise ValueError("canonical encoding supports degree up to 255")
        ctx = self.ctx
        w = digit_width(ctx.p)
        out = bytearray([self.n])
        for code in self._codes.flat:
            for d in ctx.code_to_coeffs(int(code)):
                out += d.to_bytes(w, "little")
        return bytes(out)

    @classmethod
    def decode_canonical(cls, ctx: FieldCtx, data: bytes) -> "Mat":
        if len(data) < 1:
            raise ValueError("empty canonical encoding")
        n = data[0]
        w = digit_width(ctx.p)
        body = data[1:]
        if n < 1 or len(body) != n * n * ctx.k * w:
            raise ValueError("canonical encoding has the wrong length")
        arr = np.empty((n, n), dtype=np.int64)
        pos = 0
        for i in range(n):
            for j in range(n):
                coeffs = []
                for _ in range(ctx.k):
                    d = int.from_bytes(body[pos:pos + w], "little")
                    if d >= ctx.p:
                        raise ValueError("canonical encoding has a digit out of range")
                    coeffs.append(d)
                    pos += w
                arr[i, j] = ctx.coeffs_to_code(coeffs)
        return cls(ctx, arr)
