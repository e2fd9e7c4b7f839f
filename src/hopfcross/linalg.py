"""Sparse vectors and dense matrices over an exact field.

A sparse vector is a plain dict {index: scalar} containing only nonzero,
canonical entries.  Two canonical sparse vectors are equal iff the dicts
compare equal (int and integral Fraction values hash and compare alike).

Matrices are dense row-major lists of lists; matrix[r][c] is the
coefficient of target basis r in the image of source basis c.  The
multiplication and application kernels skip zero entries, so sparse data
costs what it should.
"""

from .errors import DimensionMismatchError, SingularMatrixError


# ---------------------------------------------------------------------------
# sparse vectors

def sv_canon(field, v):
    """Canonize scalars and drop zeros; returns a new dict."""
    out = {}
    for k, c in v.items():
        c = field.canon(c)
        if c != field.zero:
            out[k] = c
    return out


def sv_add_into(acc, v, c):
    """acc += c * v with native ring ops; call sv_canon when done."""
    for k, x in v.items():
        acc[k] = acc.get(k, 0) + c * x


def sv_from_list(field, xs):
    out = {}
    for i, c in enumerate(xs):
        c = field.canon(c)
        if c != field.zero:
            out[i] = c
    return out


def sv_to_list(v, dim):
    out = [0] * dim
    for k, c in v.items():
        out[k] = c
    return out


def sv_tensor(field, parts, dims):
    """Tensor of sparse vectors, flattened left-major: ((i1*d2+i2)*d3+i3)..."""
    acc = {(): 1} if parts else {}
    flat = {0: 1}
    for part, dim in zip(parts, dims):
        nxt = {}
        for base, c0 in flat.items():
            for k, c in part.items():
                nxt[base * dim + k] = c0 * c
        flat = nxt
        if not flat:
            break
    return sv_canon(field, flat)


def flatten_index(idxs, dims):
    out = 0
    for i, d in zip(idxs, dims):
        out = out * d + i
    return out


def unflatten_index(idx, dims):
    out = []
    for d in reversed(dims):
        out.append(idx % d)
        idx //= d
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# dense matrices / linear maps

class LinearMap:
    """A matrix between based spaces; column j is the image of source basis j."""

    def __init__(self, field, src_dim, dst_dim, rows=None):
        self.field = field
        self.src_dim = src_dim
        self.dst_dim = dst_dim
        if rows is None:
            rows = [[field.zero] * src_dim for _ in range(dst_dim)]
        if len(rows) != dst_dim or any(len(r) != src_dim for r in rows):
            raise DimensionMismatchError("matrix shape does not match declared dims")
        self.rows = rows
        self._cols = None

    @classmethod
    def identity(cls, field, n):
        m = cls(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    @classmethod
    def from_columns(cls, field, src_dim, dst_dim, col_svs):
        m = cls(field, src_dim, dst_dim)
        for j, col in enumerate(col_svs):
            for r, c in col.items():
                m.rows[r][j] = c
        return m

    def col_sv(self, j):
        self._ensure_cols()
        flat = self._cols[j]
        return {flat[t]: flat[t + 1] for t in range(0, len(flat), 2)}

    def _ensure_cols(self):
        if self._cols is None:
            zero = self.field.zero
            cols = [[] for _ in range(self.src_dim)]
            for r, row in enumerate(self.rows):
                for j, c in enumerate(row):
                    if c != zero:
                        cols[j].append(r)
                        cols[j].append(c)
            self._cols = cols

    def apply_sv(self, v):
        self._ensure_cols()
        acc = {}
        for j, x in v.items():
            flat = self._cols[j]
            for t in range(0, len(flat), 2):
                r = flat[t]
                acc[r] = acc.get(r, 0) + x * flat[t + 1]
        return sv_canon(self.field, acc)

    def apply_dense(self, xs):
        self._ensure_cols()
        acc = [0] * self.dst_dim
        zero = self.field.zero
        for j, x in enumerate(xs):
            if x == zero:
                continue
            flat = self._cols[j]
            for t in range(0, len(flat), 2):
                acc[flat[t]] += x * flat[t + 1]
        canon = self.field.canon
        return [canon(v) for v in acc]

    def compose(self, other):
        """self o other as maps, i.e. the matrix product self @ other."""
        if other.dst_dim != self.src_dim:
            raise DimensionMismatchError("composition dims do not match")
        out = LinearMap(self.field, other.src_dim, self.dst_dim)
        zero = self.field.zero
        canon = self.field.canon
        orows = other.rows
        for r, row in enumerate(self.rows):
            acc = [0] * other.src_dim
            hit = False
            for k, c in enumerate(row):
                if c == zero:
                    continue
                hit = True
                for j, b in enumerate(orows[k]):
                    if b != zero:
                        acc[j] += c * b
            if hit:
                out.rows[r] = [canon(v) for v in acc]
        return out

    def equals(self, other):
        if self.src_dim != other.src_dim or self.dst_dim != other.dst_dim:
            return False
        eq = self.field.eq
        for ra, rb in zip(self.rows, other.rows):
            for a, b in zip(ra, rb):
                if not eq(a, b):
                    return False
        return True

    def is_identity(self):
        if self.src_dim != self.dst_dim:
            return False
        one, eq = self.field.one, self.field.eq
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                if not eq(c, one if i == j else self.field.zero):
                    return False
        return True


def mat_inv(field, rows):
    """Matrix inverse by Gaussian elimination; raises SingularMatrixError."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("matrix is not square")
    a = [[field.canon(c) for c in row] + [field.one if i == j else field.zero
                                          for j in range(n)]
         for i, row in enumerate(rows)]
    zero = field.zero
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != zero), None)
        if pivot is None:
            raise SingularMatrixError(f"singular at column {col}")
        a[col], a[pivot] = a[pivot], a[col]
        inv_p = field.inv(a[col][col])
        a[col] = [field.canon(field.mul(c, inv_p)) for c in a[col]]
        for r in range(n):
            if r != col and a[r][col] != zero:
                f = a[r][col]
                a[r] = [field.canon(x - f * y) for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def kernel_basis(field, rows):
    """Basis of the null space of the matrix, by row reduction."""
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    a = [[field.canon(c) for c in row] for row in rows]
    zero = field.zero
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if a[i][col] != zero), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv_p = field.inv(a[r][col])
        a[r] = [field.canon(field.mul(c, inv_p)) for c in a[r]]
        for i in range(m):
            if i != r and a[i][col] != zero:
                f = a[i][col]
                a[i] = [field.canon(x - f * y) for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        vec = [zero] * n
        vec[free] = field.one
        for row_idx, pcol in enumerate(pivots):
            c = a[row_idx][free]
            if c != zero:
                vec[pcol] = field.canon(field.neg(c))
        basis.append(vec)
    return basis
