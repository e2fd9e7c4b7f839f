"""Sparse vectors and linear maps over an exact field.

A sparse vector is a plain dict {index: scalar} containing only nonzero,
canonical entries.  Two canonical sparse vectors are equal iff the dicts
compare equal (int and integral Fraction values hash and compare alike).

A LinearMap is its sparse columns: column c, the image of source basis
c, keeps only its nonzero entries, so applying or composing a map costs
what its nonzero terms cost.  Its dense view `rows`, with rows[r][c] the
coefficient of target basis r in the image of source basis c, is built
on demand, whole or one row at a time by `iter_rows`.  `mat_inv` and
`kernel_basis` take dense row-major lists of lists.
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


def add_tensor(acc, x, y, dim_y, c):
    """acc += c * (x (x) y) on the left-major flattened basis."""
    for s, cs in x.items():
        base = s * dim_y
        w = c * cs
        for t, ct in y.items():
            key = base + t
            acc[key] = acc.get(key, 0) + w * ct


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
# linear maps

class LinearMap:
    """A linear map between based spaces, stored as its sparse columns.

    Column j, the image of source basis j, is the flat list
    [r0, c0, r1, c1, ...] of its nonzero canonical entries in ascending
    row order.  `rows` is a dense view built on demand.
    """

    def __init__(self, field, src_dim, dst_dim, rows=None):
        """The map with dense row-major matrix `rows` (the zero map if None)."""
        self.field = field
        self.src_dim = src_dim
        self.dst_dim = dst_dim
        self._cols = [[] for _ in range(src_dim)]
        if rows is None:
            return
        if len(rows) != dst_dim or any(len(r) != src_dim for r in rows):
            raise DimensionMismatchError("matrix shape does not match declared dims")
        zero, canon = field.zero, field.canon
        for r, row in enumerate(rows):
            for j, c in enumerate(row):
                c = canon(c)
                if c != zero:
                    self._cols[j] += (r, c)

    @classmethod
    def from_columns(cls, field, src_dim, dst_dim, col_svs):
        """The map whose column j is the canonical sparse vector col_svs[j]."""
        m = cls(field, src_dim, dst_dim)
        cols = [[x for r in sorted(col) for x in (r, col[r])] for col in col_svs]
        if len(cols) != src_dim:
            raise DimensionMismatchError("column count does not match src_dim")
        m._cols = cols
        return m

    @property
    def rows(self):
        """A fresh dense row-major matrix: rows[r][j] is entry (r, j)."""
        return list(self.iter_rows())

    def iter_rows(self):
        """The dense rows in order, one fresh list at a time; only the
        nonzero entries are held between rows."""
        by_row = [[] for _ in range(self.dst_dim)]
        for j, flat in enumerate(self._cols):
            for t in range(0, len(flat), 2):
                by_row[flat[t]] += (j, flat[t + 1])
        for flat in by_row:
            row = [self.field.zero] * self.src_dim
            for t in range(0, len(flat), 2):
                row[flat[t]] = flat[t + 1]
            yield row

    def col_sv(self, j):
        flat = self._cols[j]
        return {flat[t]: flat[t + 1] for t in range(0, len(flat), 2)}

    def apply_sv(self, v):
        acc = {}
        for j, x in v.items():
            flat = self._cols[j]
            for t in range(0, len(flat), 2):
                r = flat[t]
                acc[r] = acc.get(r, 0) + x * flat[t + 1]
        return sv_canon(self.field, acc)

    def apply_dense(self, xs):
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
        return LinearMap.from_columns(
            self.field, other.src_dim, self.dst_dim,
            [self.apply_sv(other.col_sv(j)) for j in range(other.src_dim)])

    def equals(self, other):
        return (self.src_dim == other.src_dim
                and self.dst_dim == other.dst_dim
                and self._cols == other._cols)

    def is_identity(self):
        one = self.field.one
        return (self.src_dim == self.dst_dim
                and all(flat == [j, one] for j, flat in enumerate(self._cols)))


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
