"""Check modes and reports shared by every verification routine.

A CheckReport carries the first violation found, if any (axiom name,
witness indices, both sides of the failed identity), a count of checked
items, so callers can print e.g. "pass (256 pairs)", and the mode the
check ran in; it passed when it holds no violation.  Every checker in
the package is a stream of (count, axiom, witness, lhs, rhs) items, and
`certify` is the one place that chooses between exhaustive and random
checking, counts, compares and stops at the first violation.  Reports
are deterministic for a fixed seed because every iteration order is
fixed.
"""

from dataclasses import dataclass
import itertools
import random

from .errors import UnverifiedActionError


EXHAUSTIVE_DIM_CAP = 32      # algebras larger than this default to random mode
MORPHISM_DIM_CAP = 81        # morphism/pair checks larger than this go random
DEFAULT_TRIALS = 20
RANDOM_COORD_BOUND = 10**6   # random test vectors draw integer coords in [-bound, bound]


@dataclass(frozen=True)
class CheckMode:
    """Exhaustive basis enumeration or seeded random exact evaluation.

    The kind "auto" is a mode not yet resolved: it carries only the seed,
    and `certify` turns it into one of the other two by dimension.
    """

    kind: str  # "exhaustive" | "random" | "auto"
    trials: int = DEFAULT_TRIALS
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"a random check needs at least one trial, "
                             f"got {self.trials}")

    @staticmethod
    def exhaustive():
        return CheckMode("exhaustive")

    @staticmethod
    def random(trials=DEFAULT_TRIALS, seed=0):
        return CheckMode("random", trials=trials, seed=seed)

    @staticmethod
    def deferred(seed=0):
        """The mode `certify` picks by dimension, seeded with `seed`."""
        return CheckMode("auto", seed=seed)


@dataclass
class Violation:
    axiom: str
    witness: tuple
    lhs: object
    rhs: object

    def describe(self, fmt=str):
        return (f"{self.axiom} at {self.witness}: "
                f"lhs={_show(self.lhs, fmt)} rhs={_show(self.rhs, fmt)}")


def _show(value, fmt):
    if isinstance(value, dict):
        items = ", ".join(f"{k}: {fmt(v)}" for k, v in sorted(value.items()))
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(fmt(v) for v in value) + "]"
    return fmt(value)


@dataclass
class CheckReport:
    violation: Violation = None
    checked: int = 0
    mode: CheckMode = None

    @property
    def passed(self):
        return self.violation is None

    def fail(self, axiom, witness, lhs, rhs):
        self.violation = self.violation or Violation(axiom, tuple(witness),
                                                     lhs, rhs)

    def absorb(self, other):
        """Merge another report in; keeps the earlier violation."""
        self.checked += other.checked
        self.violation = self.violation or other.violation
        return self

    def first(self):
        return self.violation

    def require(self, message):
        """Raise UnverifiedActionError with `message` and this report if
        the check failed: the one place a builder rejects a certificate."""
        if not self.passed:
            raise UnverifiedActionError(message, self)


def certify(mode, dim, exhaustive, trial, prelude=(), cap=EXHAUSTIVE_DIM_CAP,
            trials=DEFAULT_TRIALS, seed=0):
    """Run one certificate under the mode policy; return its report.

    Without a `mode`, or with a deferred one, the check is exhaustive when
    `dim` <= `cap` (32 for algebra axioms, MORPHISM_DIM_CAP = 81 for
    morphism and module pair checks), else `trials` random trials seeded
    by the deferred mode's seed or else `seed`; a random mode has at
    least one trial.  Trial coordinates come from `field.random`: integers
    in [-10**6, 10**6] over Q, uniform residues over F_p.  So a violated
    identity of total degree d escapes one trial with probability at most
    d/(2*10**6 + 1) over Q and d/p over F_p (Schwartz-Zippel).

    `exhaustive()` and `trial(rng, t)` yield (count, axiom, witness, lhs,
    rhs); the items of `prelude` come first in either mode.  Each item
    adds `count` to `checked` and is compared before the next is computed;
    the first lhs != rhs is the violation and ends the check.  The mode
    used is kept in `report.mode`.
    """
    if mode is None or mode.kind == "auto":
        mode = (CheckMode.exhaustive() if dim <= cap else CheckMode.random(
            trials, seed if mode is None else mode.seed))
    if mode.kind == "exhaustive":
        items = exhaustive()
    else:
        rng = random.Random(mode.seed)
        items = (item for t in range(mode.trials) for item in trial(rng, t))
    report = CheckReport(mode=mode)
    checked = 0
    for count, axiom, witness, lhs, rhs in itertools.chain(prelude, items):
        checked += count
        if lhs != rhs:
            report.fail(axiom, witness, lhs, rhs)
            break
    report.checked = checked
    return report


def certify_exhaustive(items):
    """`certify` for a check that is exhaustive at every size: `items` is
    its whole stream."""
    return certify(CheckMode.exhaustive(), None, lambda: items, None)
