"""Dense exact linear algebra over any field-like scalar type.

Scalars must support +, -, *, / exactly and be falsy exactly when zero
(FieldElement and GaussianRational both qualify).
A Matrix carries explicit zero/one scalars so empty matrices stay usable.
One Gaussian elimination, `_echelon`, and one back-substitution serve both
Matrix (on its scalars' operators) and the FiniteField index rows of
`rank_i`/`kernel_i` (on the field's index operations).
"""

from __future__ import annotations

import operator

from .errors import DomainError
from .gf import FieldElement


class Matrix:
    __slots__ = ("rows", "ncols", "zero", "one")

    def __init__(self, rows, ncols, zero, one):
        self.rows = [list(r) for r in rows]
        self.ncols = ncols
        self.zero = zero
        self.one = one
        for r in self.rows:
            if len(r) != ncols:
                raise DomainError("ragged matrix rows")

    @classmethod
    def over_field(cls, field, rows, ncols=None):
        rows = [list(r) for r in rows]
        if ncols is None:
            if not rows:
                raise DomainError("cannot infer width of an empty matrix")
            ncols = len(rows[0])
        return cls(rows, ncols, field.zero, field.one)

    @classmethod
    def from_indices(cls, field, rows, ncols):
        """The matrix over a FiniteField whose rows are lists of element indices."""
        return cls([[FieldElement(field, v) for v in r] for r in rows], ncols, field.zero, field.one)

    @property
    def nrows(self):
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Matrix({self.rows!r})"

    def transpose(self):
        rows = [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        return Matrix(rows, self.nrows, self.zero, self.one)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DomainError("matrix shape mismatch")
        out = []
        for r in self.rows:
            row = []
            for j in range(other.ncols):
                acc = self.zero
                for l, v in enumerate(r):
                    if v:
                        acc = acc + v * other.rows[l][j]
                row.append(acc)
            out.append(row)
        return Matrix(out, other.ncols, self.zero, self.one)

    def mul_vec(self, vec):
        """Matrix times a column vector (a plain sequence)."""
        if len(vec) != self.ncols:
            raise DomainError("vector length mismatch")
        return [
            sum((v * x for v, x in zip(r, vec) if v), self.zero) for r in self.rows
        ]

    def _ops(self):
        """The operations `_echelon` takes, on this matrix's scalars."""
        one = self.one
        return operator.add, operator.mul, operator.neg, lambda v: one / v

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        pivots = sorted(_echelon(self.rows, *self._ops()), key=lambda cp: cp[0])
        m = []
        for c, p in pivots:
            inv = self.one / p[c]
            p = [inv * v for v in p]
            # the rows above are the only ones not yet zero at column c
            m = [[a - r[c] * b for a, b in zip(r, p)] if r[c] else r for r in m]
            m.append(p)
        return Matrix(m, self.ncols, self.zero, self.one), [c for c, _ in pivots]

    def rank(self):
        return len(_echelon(self.rows, *self._ops()))

    def kernel(self):
        """Basis of the right kernel {v : A v = 0} as a Matrix of rows."""
        ops = self._ops()
        basis = _kernel(_echelon(self.rows, *ops), self.ncols, self.zero, self.one, *ops)
        return Matrix(basis, self.ncols, self.zero, self.one)

    def solve(self, b):
        """One solution x of A x = b (free variables zero), or None: the
        kernel vector of (A | -b) that is 1 at the last column."""
        if len(b) != self.nrows:
            raise DomainError("rhs length mismatch")
        n = self.ncols
        ops = self._ops()
        pivots = _echelon([row + [-bv] for row, bv in zip(self.rows, b)], *ops)
        if any(c == n for c, _ in pivots):
            return None
        return _back_substitute(pivots, [self.zero] * n + [self.one], *ops)[:n]

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.ncols

    def inverse(self):
        """The columns of the inverse solve A x = e_j: the kernel of (A | -I)."""
        n = self.nrows
        if n != self.ncols:
            raise DomainError("inverse of a non-square matrix")
        zero, one = self.zero, self.one
        rows = [row + [-one if i == j else zero for j in range(n)] for i, row in enumerate(self.rows)]
        ops = self._ops()
        pivots = _echelon(rows, *ops)
        if any(c >= n for c, _ in pivots):
            raise DomainError("matrix is singular")
        cols = _kernel(pivots, 2 * n, zero, one, *ops)
        return Matrix([v[:n] for v in cols], n, zero, one).transpose()

    def det(self):
        n = self.nrows
        if n != self.ncols:
            raise DomainError("determinant of a non-square matrix")
        pivots = _echelon(self.rows, *self._ops())
        if len(pivots) < n:
            return self.zero
        # the rows are taken last to first, so det = (-1)^(n(n-1)/2) sign(k -> c_k)
        # prod p_k[c_k]; that sign is the parity of the pairs j < k with c_j < c_k
        cols = [c for c, _ in pivots]
        flips = sum(a < b for j, a in enumerate(cols) for b in cols[j + 1:])
        det = -self.one if flips % 2 else self.one
        for c, p in pivots:
            det = det * p[c]
        return det

    def row_space_equals(self, other):
        """Subspace equality via RREF comparison."""
        return self.rref()[0] == other.rref()[0]


def identity(n, zero, one):
    return Matrix(
        [[one if i == j else zero for j in range(n)] for i in range(n)], n, zero, one
    )


def dot_i(field, a, b) -> int:
    """Index of sum a_j * b_j over a FiniteField, for index sequences a and b
    (zip stops at the shorter one)."""
    add, mul = field.add_i, field.mul_i
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc = add(acc, mul(x, y))
    return acc


def matmul_i(field, a, b):
    """Index rows of the product over a FiniteField of the matrices whose rows
    are the index lists a and b."""
    cols = list(zip(*b))
    return [[dot_i(field, r, c) for c in cols] for r in a]


def _echelon(rows, add, mul, neg, inv):
    """Gaussian elimination over a field with the given operations: the pivot
    rows (c, p) in the order chosen, last row first, c being the first nonzero
    column of p; column c is cleared from every row chosen after p, and zero
    rows are dropped. Scalars are falsy exactly when zero."""
    rows = [r for r in rows if any(r)]
    pivots = []
    while rows:
        p = rows.pop()
        c = 0
        while not p[c]:
            c += 1
        pivots.append((c, p))
        s = neg(inv(p[c]))
        rest = []
        for r in rows:
            if r[c]:
                f = mul(r[c], s)
                r = [add(v, mul(f, pv)) if pv else v for v, pv in zip(r, p)]
                if not any(r):
                    continue
            rest.append(r)
        rows = rest
    return pivots


def _back_substitute(pivots, v, add, mul, neg, inv):
    """Complete v, given at the free columns and zero at the pivot columns,
    in place to the vector every pivot row annihilates; returns v."""
    # a pivot row is zero at the pivot columns chosen before it
    for c, p in reversed(pivots):
        acc = v[c]  # still zero
        for x, y in zip(p, v):
            if x and y:
                acc = add(acc, mul(x, y))
        v[c] = mul(neg(acc), inv(p[c]))
    return v


def _kernel(pivots, ncols, zero, one, add, mul, neg, inv):
    """Basis of the right kernel from the pivot rows: one vector per free
    column, in increasing order, with 1 there and 0 at the other free columns."""
    bound = {c for c, _ in pivots}
    return [
        _back_substitute(pivots, [one if j == free else zero for j in range(ncols)], add, mul, neg, inv)
        for free in range(ncols)
        if free not in bound
    ]


def _index_ops(field):
    return field.add_i, field.mul_i, field.neg_i, field.inv_i


def rank_i(field, rows):
    """Rank over a FiniteField of the matrix whose rows are lists of element
    indices."""
    return len(_echelon(rows, *_index_ops(field)))


def kernel_i(field, rows, ncols):
    """Index basis of the right kernel {v : A v = 0} over a FiniteField of the
    matrix with ncols columns whose rows are lists of element indices, in the
    form `_kernel` gives."""
    ops = _index_ops(field)
    return _kernel(_echelon(rows, *ops), ncols, 0, 1, *ops)
