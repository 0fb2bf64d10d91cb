"""Reference arithmetic that the benchmark checks the program's outputs with.

Nothing here calls the skew-polynomial, code or PBW layers.  Finite-field
arithmetic is recomputed in polynomial-basis code space from the field's
modulus (so the program's log/Zech tables are checked, not reused); skew
polynomials are plain lists of codes; the PBW rules are the closed forms that
hold for quasi-commutative presentations with trivial coefficient maps.
"""

from __future__ import annotations


class RefField:
    """GF(p^k) on integer codes sum(c_i p^i), built from the modulus alone."""

    def __init__(self, p: int, k: int, modulus):
        self.p, self.k = p, k
        self.size = p ** k
        self.t = self.size - 1
        self._mod = list(modulus)
        # exp/log over the least primitive code, found with raw polynomial products
        gen = next(c for c in range(1, self.size) if self._order(c) == self.t)
        exp = [1] * self.t
        for e in range(1, self.t):
            exp[e] = self._raw_mul(exp[e - 1], gen)
        self._exp = exp
        self._log = {c: e for e, c in enumerate(exp)}
        if len(self._log) != self.t:
            raise ValueError("modulus does not give a field")

    def _digits(self, c):
        out = []
        for _ in range(self.k):
            out.append(c % self.p)
            c //= self.p
        return out

    def _code(self, digits):
        c = 0
        for d in reversed(digits):
            c = c * self.p + d
        return c

    def _raw_mul(self, a, b):
        p, k = self.p, self.k
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce by the monic modulus m(X) = X^k + sum m_i X^i
        for top in range(2 * k - 2, k - 1, -1):
            c = prod[top]
            if c:
                prod[top] = 0
                for i in range(k):
                    prod[top - k + i] = (prod[top - k + i] - c * self._mod[i]) % p
        return self._code(prod[:k])

    def _order(self, c):
        acc, n = c, 1
        while acc != 1:
            acc = self._raw_mul(acc, c)
            n += 1
            if n > self.t:
                return 0
        return n

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        return self._code([(x + y) % self.p for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a):
        if self.p == 2:
            return a
        return self._code([(-x) % self.p for x in self._digits(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if not a or not b:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % self.t]

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[(-self._log[a]) % self.t]

    def frob(self, a, power):
        """a^(p^power)."""
        if not a:
            return 0
        return self._exp[(self._log[a] * pow(self.p, power % self.k, self.t)) % self.t]


class RefOre:
    """F[x; phi^l, delta_w] on coefficient-code lists (low degree first)."""

    def __init__(self, field: RefField, l: int, w: int = 0):
        self.F = field
        self.l = l % field.k
        self.w = w if self.l else 0

    def sigma(self, c, power=1):
        return self.F.frob(c, self.l * power)

    def delta(self, c):
        if not self.w:
            return 0
        return self.F.mul(self.w, self.F.sub(self.sigma(c), c))

    @staticmethod
    def trim(a):
        a = list(a)
        while a and not a[-1]:
            a.pop()
        return a

    def add(self, a, b):
        n = max(len(a), len(b))
        return self.trim(self.F.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0) for i in range(n))

    def sub(self, a, b):
        n = max(len(a), len(b))
        return self.trim(self.F.sub(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0) for i in range(n))

    def scale(self, c, a):
        """Left scalar multiple c*a (no twist)."""
        return self.trim(self.F.mul(c, v) for v in a)

    def x_times(self, a):
        out = [0] * (len(a) + 1)
        for j, c in enumerate(a):
            if c:
                out[j + 1] = self.F.add(out[j + 1], self.sigma(c))
                out[j] = self.F.add(out[j], self.delta(c))
        return self.trim(out)

    def mul(self, a, b):
        if not a or not b:
            return []
        acc = [0] * (len(a) + len(b) - 1)
        cur = list(b)
        for i, c in enumerate(a):
            if c:
                for j, v in enumerate(cur):
                    if v:
                        acc[j] = self.F.add(acc[j], self.F.mul(c, v))
            if i + 1 < len(a):
                cur = self.x_times(cur)
        return self.trim(acc)

    def right_divmod(self, a, d):
        """q, r with a = q*d + r and deg r < deg d."""
        if not d:
            raise ZeroDivisionError("division by zero polynomial")
        dd = len(d) - 1
        r = list(a)
        steps = max(len(r) - dd, 0)
        rows = [list(d)]
        for _ in range(1, steps):
            rows.append(self.x_times(rows[-1]))
        q = [0] * steps
        for e in range(steps - 1, -1, -1):
            c = r[e + dd]
            if c:
                qc = self.F.mul(c, self.F.inv(rows[e][-1]))
                q[e] = qc
                for j, v in enumerate(rows[e]):
                    if v:
                        r[j] = self.F.sub(r[j], self.F.mul(qc, v))
        return self.trim(q), self.trim(r[:dd])

    def monic(self, a):
        return self.scale(self.F.inv(a[-1]), a)

    def gcrd(self, a, b):
        while b:
            a, b = b, self.right_divmod(a, b)[1]
        return self.monic(a)

    def eval(self, g, z):
        """Right evaluation sum g_i N_i(z) with N_{i+1} = sigma(N_i) z + delta(N_i)."""
        acc, n = 0, 1
        for i, c in enumerate(g):
            if i:
                n = self.F.add(self.F.mul(self.sigma(n), z), self.delta(n))
            if c:
                acc = self.F.add(acc, self.F.mul(c, n))
        return acc

    def norm_rows(self, points, nrows):
        rows, cur = [], [1] * len(points)
        for i in range(nrows):
            if i:
                cur = [self.F.add(self.F.mul(self.sigma(n), z), self.delta(n)) for n, z in zip(cur, points)]
            rows.append(list(cur))
        return rows

    def sigma_rows(self, points, nrows):
        rows, cur = [], list(points)
        for i in range(nrows):
            if i:
                cur = [self.sigma(z) for z in cur]
            rows.append(list(cur))
        return rows


def rank(F: RefField, rows) -> int:
    """Rank of a matrix of codes by Gaussian elimination."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = F.inv(m[r][c])
        m[r] = [F.mul(inv, v) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(m[i], m[r])]
        r += 1
    return r


def binary_rank(codes) -> int:
    """GF(2)-rank of codes read as bit vectors (F^sigma = GF(2) for sigma = phi)."""
    basis = []
    for c in codes:
        for b in basis:
            c = min(c, c ^ b)
        if c:
            basis.append(c)
    return len(basis)


# -- quasi-commutative PBW rules ------------------------------------------------------

class QuasiCommutative:
    """x_j x_i = c_ij x_i x_j (i < j) with trivial coefficient maps."""

    def __init__(self, n, consts, zero, one):
        self.n = n
        self.c = consts  # {(i, j): c_ij}
        self.zero, self.one = zero, one

    def _c(self, i, j):
        return self.c.get((i, j), self.one)

    def _pow(self, v, e):
        out = self.one
        for _ in range(e):
            out = out * v
        return out

    def left_factor(self, i, alpha):
        """x_i x^alpha = L x^(alpha + e_i)."""
        out = self.one
        for j in range(i):
            out = out * self._pow(self._c(j, i), alpha[j])
        return out

    def right_factor(self, i, alpha):
        """x^alpha x_i = R x^(alpha + e_i)."""
        out = self.one
        for j in range(i + 1, self.n):
            out = out * self._pow(self._c(i, j), alpha[j])
        return out

    def swap_factor(self, alpha, beta):
        """x^alpha x^beta = S x^(alpha + beta) with S = prod_{i<j} c_ij^(alpha_j beta_i)."""
        out = self.one
        for (i, j), c in self.c.items():
            out = out * self._pow(c, alpha[j] * beta[i])
        return out

    def is_central(self, alpha) -> bool:
        return all(self.left_factor(i, alpha) == self.right_factor(i, alpha) for i in range(self.n))

    def movers_exist(self, support) -> bool:
        """Degree-one movers x_i f = f (mu_i x_i) exist iff L_i/R_i is constant on supp f."""
        for i in range(self.n):
            ratios = {self.left_factor(i, a) / self.right_factor(i, a) for a in support}
            if len(ratios) > 1:
                return False
        return True

    def compatible(self, Z) -> bool:
        """x_i -> z_i extends to an algebra map A -> F iff (1 - c_ij) z_i z_j = 0."""
        for (i, j), c in self.c.items():
            if (self.one - c) * Z[i] * Z[j]:
                return False
        return True

    def evaluate(self, terms, Z):
        val = self.zero
        for alpha, c in terms.items():
            t = c
            for z, e in zip(Z, alpha):
                t = t * self._pow(z, e)
            val = val + t
        return val

    def is_root(self, terms, Z) -> bool:
        """<Z> is the kernel of evaluation at Z when compatible, and A otherwise."""
        return (not self.compatible(Z)) or not self.evaluate(terms, Z)
