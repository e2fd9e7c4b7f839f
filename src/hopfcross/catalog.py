"""Built-in verified Hopf algebras: cyclic group algebras, their duals,
and the pointed Taft algebras T_n, all built from one presentation by
`_taft`.  sweedler4 is T_2 (omega = -1) over any field of characteristic
!= 2, on the basis 1, g, x, gx; over F_p it is taft:2:p with g and x
swapped.  taft:n:p is T_n over F_p on g^i x^j, g major, with omega the
least residue of order exactly n.  Delta(x) = x (x) 1 + g (x) x
throughout; the mirrored convention is out of scope.
"""

from dataclasses import dataclass
from math import gcd

from .algebra import (AlgebraData, CoalgebraData, HopfAlgebraData,
                      check_hopf_axioms, dual_hopf, tensor_product)
from .fields import PrimeField, QQ
from .linalg import sv_canon

CATALOG_NAMES = ("cyclic", "dual_cyclic", "sweedler4", "taft")

# Largest dim H of a catalog spec.  `describe --catalog dual_cyclic:49` takes
# 0.07 s in process, 0.18 s with start-up (2 CPUs, Python 3.11), mostly in
# coassociativity, which grows as dim^3: 1.4 s at dim 128.  The limit also
# refuses specs too large to build (cyclic:100000 has 10^10 products).
MAX_CATALOG_DIM = 49


@dataclass(frozen=True)
class CatalogSpec:
    name: str
    params: tuple
    field: object

    def __str__(self):
        inner = ":".join(str(p) for p in self.params)
        return f"{self.name}:{inner}" if inner else self.name


def parse_catalog_spec(text, field=None):
    """Parse "cyclic:3", "dual_cyclic:2", "sweedler4" or "taft:2:5".

    `field` defaults to Q; for taft the field is forced to F_p by the
    second parameter.  A spec with n < 1, a taft spec whose n does not
    divide p - 1, sweedler4 over F_2 (no root of unity of order 2), and
    a spec whose dim H exceeds MAX_CATALOG_DIM are rejected before
    anything is built.
    """
    parts = text.split(":")
    name, args = parts[0], parts[1:]
    if name not in CATALOG_NAMES:
        raise ValueError(f"unknown catalog entry {name!r}")
    if not all(a.isdigit() for a in args):
        raise ValueError(f"{name} parameters must be non-negative "
                         f"integers, got {args}")
    if name in ("cyclic", "dual_cyclic"):
        if len(args) != 1:
            raise ValueError(f"{name} takes one parameter, e.g. {name}:3")
        n = int(args[0])
        _check_order(name, n)
        _check_dim(text, n)
        return CatalogSpec(name, (n,), field or QQ)
    if name == "sweedler4":
        if args:
            raise ValueError("sweedler4 takes no parameters")
        if isinstance(field, PrimeField):
            _check_root(field.p, 2)
        return CatalogSpec(name, (), field or QQ)
    if len(args) != 2:
        raise ValueError("taft takes two parameters, e.g. taft:2:5")
    n, p = int(args[0]), int(args[1])
    _check_order(name, n)
    _check_dim(text, n * n)
    forced = PrimeField(p)
    _check_root(p, n)
    if field is not None and field != forced:
        raise ValueError(f"taft:{n}:{p} lives over F_{p}, not {field}")
    return CatalogSpec("taft", (n, p), forced)


def _check_order(name, n):
    if n < 1:
        raise ValueError(f"{name} needs n >= 1, got {n}")


def _check_root(p, n):
    if n < 1 or (p - 1) % n != 0:
        raise ValueError(f"F_{p} has no primitive root of unity of order "
                         f"{n} (n must divide p - 1 = {p - 1})")


def _check_dim(text, dim):
    if dim > MAX_CATALOG_DIM:
        raise ValueError(f"{text} has dim H = {dim}, above the catalog limit "
                         f"of {MAX_CATALOG_DIM}")


def _prime_factors(n):
    factors, q = [], 2
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        factors.append(n)
    return factors


def least_root_of_unity(p, n):
    """Smallest residue mod p of multiplicative order exactly n.

    Any w = r^((p-1)/n) has order dividing n, and exactly n when
    w^(n/q) != 1 for every prime q dividing n.  The residues of order n
    are then the powers w^k with gcd(k, n) = 1, and the least of them is
    returned.  Past the few trials of r this is O(sqrt(n) + n) steps.
    """
    _check_root(p, n)
    primes = _prime_factors(n)
    for r in range(1, p):
        w = pow(r, (p - 1) // n, p)
        if all(pow(w, n // q, p) != 1 for q in primes):
            break
    best, x = w, w
    for k in range(2, n + 1):
        x = x * w % p
        if x < best and gcd(k, n) == 1:
            best = x
    return best


def _cyclic(n, field):
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    labels = ["1"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    mult = {(i, j): {(i + j) % n: field.one} for i in range(n) for j in range(n)}
    unit = [field.one] + [field.zero] * (n - 1)
    alg = AlgebraData(field, n, labels, mult, unit)
    comult = {i: [(i, i, field.one)] for i in range(n)}
    counit = [field.one] * n
    coa = CoalgebraData(field, n, labels, comult, counit)
    antipode = [[field.one if r == (-c) % n else field.zero for c in range(n)]
                for r in range(n)]
    return HopfAlgebraData(alg, coa, antipode)


def _sweedler4(field):
    if field.characteristic == 2:    # there -1 = 1: a different algebra
        raise ValueError("the 4-dimensional example needs characteristic != 2")
    return _taft(2, field, -1, x_major=True)


def _sv_power(product, acc, base_sv, exponent):
    """acc times base_sv to the power exponent, under `product`."""
    for _ in range(exponent):
        acc = product(acc, base_sv)
    return acc


def _taft(n, field, omega, x_major=False):
    """The Taft algebra T_n over `field`, with xg = omega gx for omega a
    primitive n-th root of unity, on the basis g^i x^j taken g-major
    (x-major when `x_major`)."""
    dim = n * n

    def idx(i, j):
        return j * n + i % n if x_major else i % n * n + j

    basis = sorted(((i, j) for i in range(n) for j in range(n)),
                   key=lambda ij: idx(*ij))

    def label(i, j):
        gi = "" if i == 0 else ("g" if i == 1 else f"g^{i}")
        xj = "" if j == 0 else ("x" if j == 1 else f"x^{j}")
        return (gi + xj) or "1"

    labels = [label(i, j) for i, j in basis]
    # g^i x^j . g^k x^l = omega^(jk) g^(i+k) x^(j+l), and x^n = 0.
    mult = {(a, b): {idx(i + k, j + l): field.canon(omega ** (j * k))}
            for a, (i, j) in enumerate(basis)
            for b, (k, l) in enumerate(basis) if j + l < n}
    unit = [field.one if t == 0 else field.zero for t in range(dim)]
    alg = AlgebraData(field, dim, labels, mult, unit)

    # Delta(g^i x^j) = (g (x) g)^i (x (x) 1 + g (x) x)^j, computed in A (x) A.
    sq = tensor_product(field, alg.mul_basis, alg.mul_basis, dim, dim)
    sq_unit = {idx(0, 0) * dim + idx(0, 0): field.one}
    dg = {idx(1, 0) * dim + idx(1, 0): field.one}
    dx = sv_canon(field, {idx(0, 1) * dim + idx(0, 0): field.one,
                          idx(1, 0) * dim + idx(0, 1): field.one})
    comult = {}
    for t, (i, j) in enumerate(basis):
        v = _sv_power(sq, _sv_power(sq, sq_unit, dg, i), dx, j)
        comult[t] = [(u // dim, u % dim, c) for u, c in sorted(v.items())]
    counit = [field.one if j == 0 else field.zero for _, j in basis]
    coa = CoalgebraData(field, dim, labels, comult, counit)

    # S(g) = g^(n-1), S(x) = -g^(n-1) x; S(g^i x^j) = S(x)^j S(g)^i.
    mul = alg.mul_sv
    sg = {idx(n - 1, 0): field.one}
    sx = {idx(n - 1, 1): field.canon(field.neg(field.one))}
    antipode = [[field.zero] * dim for _ in range(dim)]
    for t, (i, j) in enumerate(basis):
        v = _sv_power(mul, _sv_power(mul, alg.unit_sv(), sx, j), sg, i)
        for r, c in v.items():
            antipode[r][t] = c
    return HopfAlgebraData(alg, coa, antipode)


def catalog_hopf(spec, verify=True):
    """Build a catalog entry; every output passes the full Hopf suite."""
    if spec.name == "cyclic":
        hopf = _cyclic(spec.params[0], spec.field)
    elif spec.name == "dual_cyclic":
        hopf = dual_hopf(_cyclic(spec.params[0], spec.field))
    elif spec.name == "sweedler4":
        hopf = _sweedler4(spec.field)
    elif spec.name == "taft":
        n, p = spec.params
        if not isinstance(spec.field, PrimeField) or spec.field.p != p:
            raise ValueError("taft entries live over F_p")
        hopf = _taft(n, spec.field, least_root_of_unity(p, n))
    else:
        raise ValueError(f"unknown catalog entry {spec.name!r}")
    if verify:
        report = check_hopf_axioms(hopf)
        if not report.passed:
            raise AssertionError(
                f"catalog entry {spec} failed: {report.first().describe()}")
    return hopf


def catalog_named(text, field=None, verify=True):
    return catalog_hopf(parse_catalog_spec(text, field), verify=verify)
