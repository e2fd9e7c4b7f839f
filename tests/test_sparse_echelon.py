"""The sparse reduced echelon of `linalg`, against dense Gauss-Jordan.

`kernel_basis` and `mat_inv` both run on `reduced_echelon`.  The
reference here is the textbook dense elimination: pick the first
nonzero pivot of each column, normalise its row, clear the column in
every other row, and read one kernel vector off each free column.  The
reduced echelon form is unique, so the kernel bases must agree entry for
entry, not just span the same space.
"""

import random

import pytest

from hopfcross.errors import SingularMatrixError
from hopfcross.fields import PrimeField, QQ
from hopfcross.linalg import (LinearMap, kernel_basis, mat_inv,
                              reduced_echelon, sv_from_list)

FIELDS = (QQ, PrimeField(7))


def dense_kernel(field, rows):
    """Null space basis by dense Gauss-Jordan elimination."""
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
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [zero] * n
        vec[free] = field.one
        for row_idx, pcol in enumerate(pivots):
            c = a[row_idx][free]
            if c != zero:
                vec[pcol] = field.canon(field.neg(c))
        basis.append(vec)
    return basis


def random_matrix(field, rng, m, n, rank=None, density=0.5):
    """An m x n matrix; with `rank`, a product of m x rank and rank x n."""
    def entry():
        return field.canon(rng.randint(-5, 5)) if rng.random() < density else 0
    if rank is None:
        return [[entry() for _ in range(n)] for _ in range(m)]
    left = [[entry() for _ in range(rank)] for _ in range(m)]
    right = [[entry() for _ in range(n)] for _ in range(rank)]
    return [[field.canon(sum(left[i][k] * right[k][j] for k in range(rank)))
             for j in range(n)] for i in range(m)]


def shapes(field, rng):
    """Labelled matrices: square, wide, tall, rank-deficient, with zero
    rows and with repeated rows."""
    out = []
    for _ in range(4):
        out.append(("square", random_matrix(field, rng, 6, 6)))
        out.append(("wide", random_matrix(field, rng, 3, 8)))
        out.append(("tall", random_matrix(field, rng, 9, 4)))
        out.append(("rank 2", random_matrix(field, rng, 7, 7, rank=2)))
        out.append(("sparse rank 4", random_matrix(field, rng, 8, 10, rank=4,
                                                   density=0.3)))
        zero_rows = random_matrix(field, rng, 6, 5)
        for i in rng.sample(range(6), 3):
            zero_rows[i] = [0] * 5
        out.append(("zero rows", zero_rows))
        base = random_matrix(field, rng, 3, 6)
        out.append(("repeated rows",
                    [list(base[rng.randrange(3)]) for _ in range(7)]))
    out.append(("all zero", [[0] * 4 for _ in range(3)]))
    out.append(("one row", [[0, 2, 0, 1]]))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_kernel_basis_equals_dense_gauss_jordan(field):
    rng = random.Random(1601)
    for label, rows in shapes(field, rng):
        basis = kernel_basis(field, rows)
        assert basis == dense_kernel(field, rows), label
        for vec in basis:
            for row in rows:
                assert field.canon(sum(r * v for r, v in zip(row, vec))) == 0


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_echelon_does_not_depend_on_row_order(field):
    rng = random.Random(1602)
    for label, rows in shapes(field, rng):
        sparse = [sv_from_list(field, row) for row in rows]
        form = reduced_echelon(field, sparse)
        rng.shuffle(sparse)
        assert reduced_echelon(field, sparse) == form, label
        for p, row in form.items():
            assert min(row) == p and row[p] == field.one
            assert not any(q in row for q in form if q != p)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mat_inv_is_a_two_sided_inverse(field):
    rng = random.Random(1603)
    inverted = 0
    for n in (1, 2, 5, 8):
        for density in (0.3, 0.8):
            for _ in range(6):
                rows = random_matrix(field, rng, n, n, density=density)
                if dense_kernel(field, rows):
                    with pytest.raises(SingularMatrixError):
                        mat_inv(field, rows)
                    continue
                inv = mat_inv(field, rows)
                m = LinearMap(field, n, n, rows)
                mi = LinearMap(field, n, n, inv)
                assert mi.compose(m).is_identity()
                assert m.compose(mi).is_identity()
                inverted += 1
    assert inverted >= 20


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_singular_inputs_raise(field):
    rng = random.Random(1604)
    singular = [random_matrix(field, rng, 6, 6, rank=3),
                [[0] * 3 for _ in range(3)]]
    row = random_matrix(field, rng, 1, 5)[0]
    singular.append([list(row)] + random_matrix(field, rng, 3, 5)
                    + [list(row)])
    with_zero_col = random_matrix(field, rng, 4, 4, density=1.0)
    for r in with_zero_col:
        r[2] = 0
    singular.append(with_zero_col)
    for rows in singular:
        assert dense_kernel(field, rows)
        with pytest.raises(SingularMatrixError):
            mat_inv(field, rows)
