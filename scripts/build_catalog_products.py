#!/usr/bin/env python3
"""Build X, Y, Z for the catalog entries and time their certificates.

For each entry this constructs the three four-slot product algebras,
runs the associativity certificate (exhaustive up to dimension 81,
20 seeded random exact trials above), and over the rationals reports
the trace-form radical dimension of Z.
"""

import argparse
import time

from hopfcross.algebra import trace_form_radical
from hopfcross.catalog import catalog_named
from hopfcross.crossed import (StandardTriple, build_xyz, check_handle_axioms,
                               materialize)
from hopfcross.report import CheckMode, MORPHISM_DIM_CAP

ENTRIES = ("cyclic:2", "cyclic:3", "dual_cyclic:2", "sweedler4", "taft:2:5")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--entries", nargs="*", default=list(ENTRIES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=20)
    args = parser.parse_args()

    for name in args.entries:
        hopf = catalog_named(name)
        setup = StandardTriple(hopf)
        print(f"== {name} (dim {hopf.dim}, field {hopf.field}, "
              f"products dim {hopf.dim ** 4})")
        for which in ("X", "Y", "Z"):
            handle = build_xyz(hopf, which, setup)
            mode = CheckMode.auto(handle.dim, cap=MORPHISM_DIM_CAP,
                                  trials=args.trials, seed=args.seed)
            start = time.time()
            report = check_handle_axioms(handle, mode)
            status = "pass" if report.passed else "FAIL"
            print(f"   {which}: associativity {status} "
                  f"({mode.kind}, {report.checked} checks, "
                  f"{time.time() - start:.2f}s)")
            if which == "Z" and hopf.field.characteristic == 0 \
                    and handle.dim <= MORPHISM_DIM_CAP:
                alg = materialize(handle, cap=MORPHISM_DIM_CAP)
                radical = trace_form_radical(alg)
                print(f"   Z radical dimension over Q: {len(radical)}")


if __name__ == "__main__":
    main()
