#!/usr/bin/env python3
"""Build X, Y, Z for the catalog entries and time their certificates.

For each entry this builds the standard triple, whose construction
certifies its two module-algebra actions, and constructs the three
four-slot product algebras, compiling their product rows and then
keying them (`AlgebraHandle.keyed_row`, the view the exhaustive
certificates read); each of these is timed on a line of its own, so the
certificate times below are the certificates' own work.  It certifies
associativity exhaustively on the keyed rows (every basis triple, dim
256 included), and over the rationals reports the trace-form radical
dimension of X, Y and Z.  It then builds and times all eight maps,
certifies phi, alpha and beta as algebra maps exhaustively on the same
rows (every basis pair, dim 256 included), and certifies each of the
four forward maps and its inverse as mutually inverse.  Times are
`time.perf_counter` wall times.  The script exits 1 if a certificate
fails, or if the radical dimensions of X, Y and Z, which are
isomorphic, differ.

    PYTHONPATH=src python scripts/build_catalog_products.py [--entries ...]
"""

import argparse
import sys
import time

from hopfcross.algebra import trace_form_radical
from hopfcross.catalog import catalog_named
from hopfcross.crossed import (StandardTriple, build_xyz, check_handle_axioms,
                               materialize)
from hopfcross.isos import (ISO_KINDS, ISO_SPECS, build_iso,
                            verify_algebra_morphism, verify_mutually_inverse)
from hopfcross.report import CheckMode

ENTRIES = ("cyclic:2", "cyclic:3", "dual_cyclic:2", "dual_cyclic:3",
           "sweedler4", "taft:2:5")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--entries", nargs="*", default=list(ENTRIES))
    args = parser.parse_args()

    failed = False
    for name in args.entries:
        hopf = catalog_named(name)
        print(f"== {name} (dim {hopf.dim}, field {hopf.field}, "
              f"products dim {hopf.dim ** 4})")
        start = time.perf_counter()
        setup = StandardTriple(hopf)
        print(f"   StandardTriple: both module algebras certified "
              f"({time.perf_counter() - start:.3f}s)")
        radical_dims = set()
        handles = {}
        for which in ("X", "Y", "Z"):
            handle = handles[which] = build_xyz(hopf, which, setup)
            start = time.perf_counter()
            for i in range(handle.dim):
                handle._row(i)      # compile every row before the timing
            print(f"   {which}: {handle.dim} rows compiled "
                  f"({time.perf_counter() - start:.3f}s)")
            start = time.perf_counter()
            for i in range(handle.dim):
                handle.keyed_row(i)     # key every row before the timing
            print(f"   {which}: {handle.dim} rows keyed "
                  f"({time.perf_counter() - start:.3f}s)")
            start = time.perf_counter()
            report = check_handle_axioms(handle, CheckMode.exhaustive())
            failed |= not report.passed
            status = "pass" if report.passed else "FAIL"
            print(f"   {which}: associativity {status} "
                  f"(exhaustive, {report.checked} checks, "
                  f"{time.perf_counter() - start:.3f}s)")
            if hopf.field.characteristic == 0:
                start = time.perf_counter()
                radical = trace_form_radical(materialize(handle,
                                                         cap=handle.dim))
                radical_dims.add(len(radical))
                print(f"   {which} radical dimension over Q: {len(radical)} "
                      f"({time.perf_counter() - start:.3f}s)")
        maps = {}
        for kind in ISO_KINDS:
            start = time.perf_counter()
            maps[kind] = build_iso(kind, hopf, setup)
            print(f"   {kind}: {' -> '.join(ISO_SPECS[kind])} built "
                  f"({time.perf_counter() - start:.3f}s)")
        for kind in ("phi", "alpha", "beta"):
            src, dst = (handles[w] for w in ISO_SPECS[kind][:2])
            lm = maps[kind]
            start = time.perf_counter()
            report = verify_algebra_morphism(lm, src, dst,
                                             mode=CheckMode.exhaustive())
            failed |= not report.passed
            status = "pass" if report.passed else "FAIL"
            print(f"   {kind}: {' -> '.join(ISO_SPECS[kind][:2])} morphism "
                  f"{status} (exhaustive, {report.checked} checks, "
                  f"{time.perf_counter() - start:.3f}s)")
        for kind in ("phi", "alpha", "beta", "f"):
            start = time.perf_counter()
            report = verify_mutually_inverse(maps[kind], maps[kind + "_inv"])
            failed |= not report.passed
            status = "pass" if report.passed else "FAIL"
            print(f"   {kind}, {kind}_inv: mutually inverse {status} "
                  f"(exhaustive, {report.checked} checks, "
                  f"{time.perf_counter() - start:.3f}s)")
        if len(radical_dims) > 1:
            failed = True
            print("   FAIL: X, Y, Z are isomorphic but their radical "
                  "dimensions differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
