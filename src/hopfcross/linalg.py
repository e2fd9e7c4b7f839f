"""Sparse vectors and linear maps over an exact field.

A sparse vector is a plain dict {index: scalar} containing only nonzero,
canonical entries.  Two canonical sparse vectors are equal iff the dicts
compare equal (int and integral Fraction values hash and compare alike).

A LinearMap is its sparse columns: column c, the image of source basis
c, keeps only its nonzero entries, so applying or composing a map costs
what its nonzero terms cost.  Its dense view `rows`, with rows[r][c] the
coefficient of target basis r in the image of source basis c, is built
on demand, whole or one row at a time by `iter_rows`.

Elimination has one routine, `reduced_echelon`, an exact reduced row
echelon form over sparse rows that touches only nonzero entries.
`null_space` reads a kernel basis off it, and the dense entry points
`kernel_basis` and `mat_inv` (which reduces [A | I]) take row-major
lists of lists.
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
        return cls.from_flat_columns(field, src_dim, dst_dim, [
            [x for r in sorted(col) for x in (r, col[r])] for col in col_svs])

    @classmethod
    def from_flat_columns(cls, field, src_dim, dst_dim, cols):
        """The map whose column j is cols[j], [r0, c0, r1, c1, ...] over its
        nonzero canonical entries in ascending row order."""
        if len(cols) != src_dim:
            raise DimensionMismatchError("column count does not match src_dim")
        m = cls(field, src_dim, dst_dim)
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
        it = iter(self._cols[j])
        return dict(zip(it, it))

    def apply_sv(self, v):
        acc = {}
        for j, x in v.items():
            it = iter(self._cols[j])
            for r, c in zip(it, it):
                acc[r] = acc.get(r, 0) + x * c
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


def reduced_echelon(field, rows):
    """The reduced row echelon form of sparse rows, as {pivot: row}.

    Row p has entry one at column p and zero at every other pivot, so
    one pass over the pivot columns of a row clears them all.  Rows enter
    one at a time: each is reduced by the current pivot rows, normalised
    by its leading coefficient and substituted back into the earlier
    pivot rows, so only nonzero entries are ever touched.  The form is
    unique, so it does not depend on the order of the rows.
    """
    pivots = {}
    for row in rows:
        acc = dict(row)
        for p, c in row.items():
            prow = pivots.get(p)
            if prow is not None:
                sv_add_into(acc, prow, -c)
        acc = sv_canon(field, acc)
        if not acc:
            continue
        lead = min(acc)
        inv = field.inv(acc[lead])
        acc = {k: field.canon(c * inv) for k, c in acc.items()}
        for p, prow in pivots.items():
            c = prow.get(lead)
            if c is not None:
                sv_add_into(prow, acc, -c)
                pivots[p] = sv_canon(field, prow)
        pivots[lead] = acc
    return pivots


def mat_inv(field, rows):
    """Matrix inverse from the reduced echelon form of [A | I]; raises
    SingularMatrixError."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("matrix is not square")
    pivots = reduced_echelon(
        field, [{**sv_from_list(field, row), n + i: field.one}
                for i, row in enumerate(rows)])
    for col in range(n):
        if col not in pivots:
            raise SingularMatrixError(f"singular at column {col}")
    zero = field.zero
    return [[pivots[i].get(n + j, zero) for j in range(n)] for i in range(n)]


def null_space(field, rows, n):
    """Basis of the null space of the sparse rows over n columns, as dense
    vectors: one per free column f in ascending order, with entry one at
    f and zero at the other free columns."""
    pivots = reduced_echelon(field, rows)
    basis = {}          # free column f -> its vector
    for f in range(n):
        if f not in pivots:
            basis[f] = vec = [field.zero] * n
            vec[f] = field.one
    for p, prow in pivots.items():
        for f, c in prow.items():
            if f != p:
                basis[f][p] = field.neg(c)
    return list(basis.values())


def kernel_basis(field, rows):
    """Basis of the null space of a dense row-major matrix (`null_space`)."""
    if not rows:
        return []
    return null_space(field, [sv_from_list(field, row) for row in rows],
                      len(rows[0]))
