"""Built-in verified Hopf algebras: cyclic group algebras, their duals,
the 4-dimensional small quantum group over Q, and its root-of-unity
generalizations over prime fields.

Comultiplication convention for the x-generator families is fixed as
Delta(x) = x (x) 1 + g (x) x; the mirrored convention is out of scope.
The root of unity used by `taft` is the smallest residue mod p whose
multiplicative order is exactly n, so outputs are deterministic.
"""

from dataclasses import dataclass
from math import gcd

from .algebra import (AlgebraData, CoalgebraData, HopfAlgebraData,
                      check_hopf_axioms, dual_hopf, tensor_algebra)
from .fields import PrimeField, QQ
from .linalg import sv_canon

CATALOG_NAMES = ("cyclic", "dual_cyclic", "sweedler4", "taft")


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
    second parameter.
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
        return CatalogSpec(name, (n,), field or QQ)
    if name == "sweedler4":
        if args:
            raise ValueError("sweedler4 takes no parameters")
        return CatalogSpec(name, (), field or QQ)
    if len(args) != 2:
        raise ValueError("taft takes two parameters, e.g. taft:2:5")
    n, p = int(args[0]), int(args[1])
    forced = PrimeField(p)
    if field is not None and field != forced:
        raise ValueError(f"taft:{n}:{p} lives over F_{p}, not {field}")
    return CatalogSpec("taft", (n, p), forced)


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
    if n < 1 or (p - 1) % n != 0:
        raise ValueError(f"no primitive {n}-th root of unity in F_{p}")
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
    if field.characteristic == 2:
        raise ValueError("the 4-dimensional example needs characteristic != 2")
    one, zero = field.one, field.zero
    minus = field.canon(field.neg(one))
    labels = ["1", "g", "x", "gx"]
    # g^2 = 1, x^2 = 0, xg = -gx
    mult = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
        (1, 0): {1: one}, (1, 1): {0: one}, (1, 2): {3: one}, (1, 3): {2: one},
        (2, 0): {2: one}, (2, 1): {3: minus},
        (3, 0): {3: one}, (3, 1): {2: minus},
    }
    unit = [one, zero, zero, zero]
    alg = AlgebraData(field, 4, labels, mult, unit)
    comult = {
        0: [(0, 0, one)],
        1: [(1, 1, one)],
        2: [(2, 0, one), (1, 2, one)],            # x (x) 1 + g (x) x
        3: [(3, 1, one), (0, 3, one)],            # gx (x) g + 1 (x) gx
    }
    counit = [one, one, zero, zero]
    coa = CoalgebraData(field, 4, labels, comult, counit)
    antipode = [
        [one, zero, zero, zero],
        [zero, one, zero, zero],
        [zero, zero, zero, one],                  # S(gx) = x
        [zero, zero, minus, zero],                # S(x) = -gx
    ]
    return HopfAlgebraData(alg, coa, antipode)


def _sv_power(alg, base_sv, exponent):
    acc = alg.unit_sv()
    for _ in range(exponent):
        acc = alg.mul_sv(acc, base_sv)
    return acc


def _taft(n, p):
    field = PrimeField(p)
    omega = least_root_of_unity(p, n)
    dim = n * n

    def idx(i, j):
        return i * n + j

    def label(i, j):
        gi = "" if i == 0 else ("g" if i == 1 else f"g^{i}")
        xj = "" if j == 0 else ("x" if j == 1 else f"x^{j}")
        return (gi + xj) or "1"

    labels = [label(i, j) for i in range(n) for j in range(n)]
    mult = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j + l >= n:   # x^n = 0
                        continue
                    c = pow(omega, j * k, p)
                    mult[(idx(i, j), idx(k, l))] = {idx((i + k) % n, j + l): c}
    unit = [field.one if t == 0 else field.zero for t in range(dim)]
    alg = AlgebraData(field, dim, labels, mult, unit)

    # Delta(g^i x^j) = (g (x) g)^i (x (x) 1 + g (x) x)^j, computed in A (x) A.
    sq = tensor_algebra(alg, alg)
    dg = {idx(1, 0) * dim + idx(1, 0): field.one}
    dx = sv_canon(field, {idx(0, 1) * dim + idx(0, 0): field.one,
                          idx(1, 0) * dim + idx(0, 1): field.one})
    comult = {}
    for i in range(n):
        for j in range(n):
            v = sq.mul_sv(_sv_power(sq, dg, i), _sv_power(sq, dx, j))
            comult[idx(i, j)] = [(t // dim, t % dim, c) for t, c in sorted(v.items())]
    counit = [field.one if t % n == 0 else field.zero for t in range(dim)]
    coa = CoalgebraData(field, dim, labels, comult, counit)

    # S(g) = g^(n-1), S(x) = -g^(n-1) x; S(g^i x^j) = S(x)^j S(g)^i.
    sg = {idx((n - 1) % n, 0): field.one}
    sx = {idx((n - 1) % n, 1): field.canon(field.neg(field.one))}
    antipode = [[field.zero] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            v = alg.mul_sv(_sv_power(alg, sx, j), _sv_power(alg, sg, i))
            for r, c in v.items():
                antipode[r][idx(i, j)] = c
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
        hopf = _taft(n, p)
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
