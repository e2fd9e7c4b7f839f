"""The benchmark workloads: set-up, warm-up, certificate jobs and a probe.

Every workload is built from the public functions of the package and
calls them through their modules (`isos.verify_algebra_morphism`, not a
name bound at import), so that `tracing.Tracer` can rebind them.

A workload object is made fresh for every set-up, so catalog objects,
pair tables and every cache living on them start cold.  Its jobs are
certificate runs whose verdict and exact `checked` count are known;
`probe()` runs one deliberately broken instance that must be caught.
"""

import contextlib
import hashlib
import io
import random
import re
from dataclasses import dataclass
from typing import Callable

from hopfcross import algebra, catalog, cli, crossed, hopf_json, isos, linalg
from hopfcross.report import CheckMode


@dataclass
class Job:
    label: str
    run: Callable        # () -> (passed, checked)
    checked: int         # the exact count a correct program reports


def fill_pairs(handle):
    """Evaluate every basis pair once, so later products run warm."""
    for i in range(handle.dim):
        for j in range(handle.dim):
            handle.basis_product(i, j)


def _perturbed(lm, rng):
    """A copy of the matrix with one seeded entry moved by one."""
    rows = [list(row) for row in lm.rows]
    r, c = rng.randrange(lm.dst_dim), rng.randrange(lm.src_dim)
    rows[r][c] = lm.field.canon(rows[r][c] + lm.field.one)
    return linalg.LinearMap(lm.field, lm.src_dim, lm.dst_dim, rows)


def _caught(report):
    return not report.passed and report.first() is not None


ROUTES = {"phi": ("X", "Y"), "alpha": ("Y", "Z"), "beta": ("X", "Z"),
          "f": ("Y", "Z")}


class Built:
    """One Hopf algebra with its standard triple, X, Y, Z and maps."""

    def __init__(self, name, kinds):
        self.hopf = catalog.catalog_named(name)
        self.triple = crossed.StandardTriple(self.hopf)
        self.handles = {w: crossed.build_xyz(self.hopf, w, self.triple)
                        for w in ("X", "Y", "Z")}
        self.maps = {k: isos.build_iso(k, self.hopf, self.triple)
                     for k in kinds}


class LibraryWorkload:
    """Library jobs on catalog inputs built once per set-up, run warm."""

    INPUTS = ()
    KINDS = ()

    def __init__(self, seed, workdir):
        self.seed = seed
        self.built = {name: Built(name, self.KINDS) for name in self.INPUTS}

    def warm_up(self):
        for b in self.built.values():
            for handle in b.handles.values():
                fill_pairs(handle)


def _certificate(module, name, *args):
    """A job calling module.name(*args), looked up when it runs."""
    def run():
        report = getattr(module, name)(*args)
        return report.passed, report.checked
    return run


# ---------------------------------------------------------------------------

class MorphismWarm(LibraryWorkload):
    """Random-mode morphism certificates on 256-dim products, warm caches."""

    STRESSES = ("crossed.product_dense", "linalg.LinearMap.apply_dense",
                "isos.verify_algebra_morphism")
    BYPASSES = ("crossed.product", "linalg.LinearMap.apply_sv", "bimodules",
                "hopf_json", "cold pair fill (done in warm-up)")

    INPUTS = ("sweedler4", "taft:2:5")
    KINDS = ("phi", "alpha", "beta")
    TRIALS = 3

    def jobs(self):
        out = []
        for n, (name, b) in enumerate(self.built.items()):
            for m, kind in enumerate(self.KINDS):
                src, dst = ROUTES[kind]
                mode = CheckMode.random(trials=self.TRIALS,
                                        seed=self.seed * 100 + n * 10 + m)
                out.append(Job(f"{name}.{kind}", _certificate(
                    isos, "verify_algebra_morphism", b.maps[kind],
                    b.handles[src], b.handles[dst], mode), self.TRIALS))
        return out

    def probe(self):
        b = self.built["sweedler4"]
        broken = _perturbed(b.maps["phi"], random.Random(self.seed))
        rep = isos.verify_algebra_morphism(
            broken, b.handles["X"], b.handles["Y"],
            CheckMode.random(trials=2, seed=self.seed))
        return _caught(rep)


# ---------------------------------------------------------------------------

class ExhaustiveSmall(LibraryWorkload):
    """Exhaustive certificates on the 81-dim products, sparse paths only."""

    STRESSES = ("crossed.product", "crossed.check_handle_axioms",
                "linalg.LinearMap.apply_sv", "isos.verify_algebra_morphism",
                "crossed.materialize", "algebra.trace_form_radical")
    BYPASSES = ("crossed.product_dense", "linalg.LinearMap.apply_dense",
                "bimodules", "hopf_json")

    INPUTS = ("cyclic:3", "dual_cyclic:3")
    AXIOMS_ON = "dual_cyclic:3"     # one input: these are the longest jobs
    KINDS = ("phi", "phi_inv", "alpha", "alpha_inv", "beta", "beta_inv",
             "f", "f_inv")
    AXIOM_CHECKS = 531_522      # 81 unit checks + 81**3 triples
    PAIRS = 6_561
    ROWS = 162
    ENTRIES = 13_122
    Z_NONZERO = 729             # nonzero basis products of Z

    def jobs(self):
        out = []
        b = self.built[self.AXIOMS_ON]
        for w in ("X", "Y", "Z"):
            out.append(Job(f"{self.AXIOMS_ON}.axioms.{w}", _certificate(
                crossed, "check_handle_axioms", b.handles[w],
                CheckMode.exhaustive()), self.AXIOM_CHECKS))
        for name, b in self.built.items():
            for kind, (src, dst) in ROUTES.items():
                out.append(Job(f"{name}.morphism.{kind}", _certificate(
                    isos, "verify_algebra_morphism", b.maps[kind],
                    b.handles[src], b.handles[dst], CheckMode.exhaustive()),
                    self.PAIRS))
                out.append(Job(f"{name}.inverse.{kind}", _certificate(
                    isos, "verify_mutually_inverse", b.maps[kind],
                    b.maps[kind + "_inv"]), self.ROWS))
            out.append(Job(f"{name}.composition", _certificate(
                isos, "composition_identity", b.hopf, b.triple), self.ENTRIES))
            out.append(Job(f"{name}.radical.Z", _radical(b), self.Z_NONZERO))
        random.Random(self.seed).shuffle(out)
        return out

    def probe(self):
        b = self.built["dual_cyclic:3"]
        broken = _perturbed(b.maps["beta"], random.Random(self.seed))
        rep = isos.verify_algebra_morphism(
            broken, b.handles["X"], b.handles["Z"], CheckMode.exhaustive())
        return _caught(rep)


def _radical(b):
    """Materialize a fresh Z (its pair table starts empty) and test it."""
    def run():
        z = crossed.build_xyz(b.hopf, "Z", b.triple)
        alg = crossed.materialize(z, cap=z.dim)
        return algebra.trace_form_radical(alg) == [], len(alg.mult)
    return run


# ---------------------------------------------------------------------------

PASS_COUNT = re.compile(r": pass \((\d+) ")


def run_cli(argv):
    """cli.main in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class CliCold:
    """hopfcross.cli jobs on JSON inputs; each parses and fills from scratch."""

    STRESSES = ("hopf_json.load_document", "algebra.check_hopf_axioms",
                "crossed.pair_fill", "bimodules", "actions.ActionData.act_sv",
                "crossed.product", "isos", "linalg.LinearMap.compose",
                "crossed.product_dense")
    BYPASSES = ("warm pair tables", "crossed.check_handle_axioms",
                "crossed.materialize")

    INPUTS = {"cyclic:3": "cyclic_3.json", "dual_cyclic:3": "dual_cyclic_3.json",
              "taft:2:5": "taft_2_5.json"}
    # (label, input, arguments, sha256 of stdout, summed pass counts);
    # the pass lines print counts only, so stdout is the same for every seed
    JOBS = (
        ("bimodule.regular.cyclic_3", "cyclic:3",
         ["bimodule", "--module", "regular"],
         "f72bdac21d24015d9d4b662c1fad14eea69933eb1703878bd767b3b8c695f206",
         104_112),
        ("iso.beta.cyclic_3", "cyclic:3", ["iso", "--kind", "beta"],
         "eb2c8fe3392a99fa845bdb23d8af38d8891db767c341c8567543ca55d2bb2a71",
         19_890),
        ("iso.beta.dual_cyclic_3", "dual_cyclic:3", ["iso", "--kind", "beta"],
         "eb2c8fe3392a99fa845bdb23d8af38d8891db767c341c8567543ca55d2bb2a71",
         19_890),
        ("iso.f.random1.taft_2_5", "taft:2:5",
         ["iso", "--kind", "f", "--mode", "random:1"],
         "b265ae7eb6ea9f44d0523e0037e1259803eccfb337507fd80e9b5dca7b113cd8",
         605),
    )

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir / "inputs"
        self.texts = {
            self.dir / filename: hopf_json.dump_json(
                hopf_json.hopf_to_json(catalog.catalog_named(name)))
            for name, filename in self.INPUTS.items()}
        # the corrupted comultiplication of acceptance criterion 9
        doc = hopf_json.hopf_to_json(catalog.catalog_named("cyclic:2"))
        doc["comult"] = [[0, 0, 0, "1"], [1, 1, 1, "1"], [1, 0, 0, "1"]]
        self.corrupted = self.dir / "corrupted.json"
        self.texts[self.corrupted] = hopf_json.dump_json(doc)

    def warm_up(self):
        """Write the input files, outside the set-up timing.

        Writing four small files took 0.5 ms to 8 ms on a shared disk,
        which a CPU reference loop cannot correct for.
        """
        self.dir.mkdir(parents=True, exist_ok=True)
        for path, text in self.texts.items():
            path.write_text(text)

    def jobs(self):
        out = []
        for label, name, args, digest, checked in self.JOBS:
            path = self.dir / self.INPUTS[name]
            argv = [args[0], "--input", str(path), *args[1:],
                    "--seed", str(self.seed)]
            out.append(Job(label, _cli_job(argv, digest), checked))
        return out

    def probe(self):
        code, text = run_cli(["check", str(self.corrupted)])
        return code == 1 and "violation:" in text and "lhs=" in text


def _cli_job(argv, digest):
    def run():
        code, text = run_cli(argv)
        ok = code == 0 and hashlib.sha256(text.encode()).hexdigest() == digest
        return ok, sum(int(n) for n in PASS_COUNT.findall(text))
    return run


WORKLOADS = {
    "morphism-warm": MorphismWarm,
    "exhaustive-small": ExhaustiveSmall,
    "cli-cold": CliCold,
}
