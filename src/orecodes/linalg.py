"""Dense exact linear algebra over any field-like scalar type.

Scalars must support +, -, *, / exactly and be falsy exactly when zero
(FieldElement and GaussianRational both qualify).
A Matrix carries explicit zero/one scalars so empty matrices stay usable.
"""

from __future__ import annotations

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

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

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

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        m = [row[:] for row in self.rows]
        pivots = []
        r = 0
        for c in range(self.ncols):
            pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            inv = self.one / m[r][c]
            m[r] = [inv * v for v in m[r]]
            for i in range(len(m)):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == len(m):
                break
        m = [row for row in m if any(row)]
        return Matrix(m, self.ncols, self.zero, self.one), pivots

    def rank(self):
        return self.rref()[0].nrows

    def kernel(self):
        """Basis of the right kernel {v : A v = 0} as a Matrix of rows."""
        red, pivots = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            v = [self.zero] * self.ncols
            v[fc] = self.one
            for r, pc in enumerate(pivots):
                v[pc] = self.zero - red.rows[r][fc]
            basis.append(v)
        return Matrix(basis, self.ncols, self.zero, self.one)

    def solve(self, b):
        """One solution x of A x = b (free variables zero), or None."""
        if len(b) != self.nrows:
            raise DomainError("rhs length mismatch")
        aug = [row + [bv] for row, bv in zip(self.rows, b)]
        red, pivots = Matrix(aug, self.ncols + 1, self.zero, self.one).rref()
        if self.ncols in pivots:
            return None
        x = [self.zero] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = red.rows[r][self.ncols]
        return x

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.ncols

    def inverse(self):
        n = self.nrows
        if n != self.ncols:
            raise DomainError("inverse of a non-square matrix")
        aug = [
            self.rows[i] + [self.one if i == j else self.zero for j in range(n)]
            for i in range(n)
        ]
        red, pivots = Matrix(aug, 2 * n, self.zero, self.one).rref()
        if pivots != list(range(n)):
            raise DomainError("matrix is singular")
        return Matrix([r[n:] for r in red.rows], n, self.zero, self.one)

    def det(self):
        n = self.nrows
        if n != self.ncols:
            raise DomainError("determinant of a non-square matrix")
        m = [row[:] for row in self.rows]
        det = self.one
        for c in range(n):
            pivot = next((i for i in range(c, n) if m[i][c]), None)
            if pivot is None:
                return self.zero
            if pivot != c:
                m[c], m[pivot] = m[pivot], m[c]
                det = self.zero - det
            det = det * m[c][c]
            inv = self.one / m[c][c]
            for i in range(c + 1, n):
                if m[i][c]:
                    f = inv * m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
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


def _echelon_i(field, rows):
    """Gaussian elimination over a FiniteField on rows of element indices: the
    pivot rows (c, p) in the order chosen, c being the first nonzero column of
    p; column c is cleared from every row chosen after p, and zero rows are
    dropped."""
    add, mul, neg, inv = field.add_i, field.mul_i, field.neg_i, field.inv_i
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


def rank_i(field, rows):
    """Rank over a FiniteField of the matrix whose rows are lists of element
    indices."""
    return len(_echelon_i(field, rows))


def kernel_i(field, rows, ncols):
    """Index basis of the right kernel {v : A v = 0} over a FiniteField of the
    matrix with ncols columns whose rows are lists of element indices: one
    vector per free column, in increasing order, with 1 there and 0 at the
    other free columns, solved back through the pivot rows."""
    mul, neg, inv = field.mul_i, field.neg_i, field.inv_i
    pivots = _echelon_i(field, rows)
    bound = {c for c, _ in pivots}
    basis = []
    for free in range(ncols):
        if free in bound:
            continue
        v = [0] * ncols
        v[free] = 1
        # a pivot row is zero at the pivot columns chosen before it
        for c, p in reversed(pivots):
            v[c] = mul(neg(dot_i(field, p, v)), inv(p[c]))
        basis.append(v)
    return basis
