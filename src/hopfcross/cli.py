"""Command-line interface.

Subcommands: check, describe, build, iso, bimodule, semisimple.  Exit
codes: 0 all checks pass, 1 an axiom/isomorphism violation was found
(the first witness is printed), 2 input or parse error.  Randomized
modes are seeded (--seed, default 0), so reports are byte-identical
across runs with the same arguments.
"""

import argparse
import functools
import hashlib
import os
import sys

from .algebra import (check_algebra_axioms, check_hopf_axioms, dual_hopf,
                      trace_form_radical)
from .actions import check_coaction_axioms, check_module_axioms
from .bimodules import (c_action_from_bimodule, check_hopf_bimodule,
                        check_module_over_handle, derived_action,
                        diagonal_module_condition, example_bimodule,
                        triple_from_bimodule, triple_module_roundtrip,
                        verify_action_correspondence, verify_f_correspondence)
from .catalog import catalog_hopf, parse_catalog_spec
from .crossed import (StandardTriple, build_xyz, check_handle_axioms,
                      materialize, smash_handles)
from .errors import FormatError
from .fields import PrimeField, QQ
from .hopf_json import (algebra_to_json, field_to_json, load_document,
                        save_document, save_document_by_rows)
from .isos import (ISO_SPECS, build_iso, composition_identity,
                   verify_algebra_morphism, verify_mutually_inverse)
from .report import CheckMode

DEFAULT_CAP = 64

# Largest (dim H)^4 * (module dim), the index space of the derived X
# action, that `bimodule` accepts: at the bound, cyclic:2 free:1024 takes
# 8.2 s and sweedler4 free:16 22 s (cyclic:2 free:2048: 15 s).
MAX_MODULE_INDEX = 1 << 16

# Largest N of --mode random:N: at the bound, `build --construction X` on
# sweedler4 (product dim 256) takes 11.5 s and `iso --kind beta` 6.3 s;
# a trial's cost grows with the product dim.
MAX_TRIALS = 1000


def _parse_mode(text, seed):
    """--mode as a CheckMode; without one, the mode `certify` picks by
    dimension, seeded with --seed."""
    if text is None:
        return CheckMode.deferred(seed)
    if text == "exhaustive":
        return CheckMode.exhaustive()
    if text == "random":
        return CheckMode.random(seed=seed)
    if text.startswith("random:"):
        try:
            mode = CheckMode.random(trials=int(text.split(":", 1)[1]),
                                    seed=seed)
        except ValueError:
            pass
        else:
            if mode.trials > MAX_TRIALS:
                raise FormatError(f"bad --mode {text!r}: at most "
                                  f"{MAX_TRIALS} random trials")
            return mode
    raise FormatError(f"bad mode {text!r}, want exhaustive or random:N "
                      f"with N >= 1")


def _check_out_dir(path):
    """Refuse an --out path whose directory does not exist, before any
    certificate runs."""
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise FormatError(f"cannot write {path!r}: no such directory")


def _write(path, save, *args):
    """save(path, *args); an OS error while writing is an input error."""
    try:
        save(path, *args)
    except OSError as exc:
        raise FormatError(f"cannot write {path!r}: "
                          f"{exc.strerror or exc}") from None


def _parse_field(text):
    if text is None:
        return None          # let the catalog pick its default
    if text == "Q":
        return QQ
    try:
        return PrimeField(int(text))
    except ValueError:
        raise FormatError(
            f"bad --field {text!r}, want Q or a prime p") from None


def _parse_catalog(text, field):
    try:
        return parse_catalog_spec(text, field)
    except ValueError as exc:
        raise FormatError(f"bad --catalog {text!r}: {exc}") from None


def _materialize_cap(text):
    """--materialize-cap as an integer >= 1, rejected while parsing."""
    if not (text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"want an integer >= 1, got {text!r}")
    return int(text)


def _parse_module(text):
    """--module as (kind, v_dim): regular, or free:N with N >= 1."""
    if text == "regular":
        return "regular", 1
    kind, _, count = text.partition(":")
    if kind == "free" and count.isdigit() and int(count) >= 1:
        return "free", int(count)
    raise FormatError(f"bad --module {text!r}, want regular or free:N "
                      f"with N >= 1")


def _emit(line):
    sys.stdout.write(line + "\n")


class _Failed(Exception):
    """A certificate failed: `main` exits 1 (a ValueError exits 2)."""


def _report_line(label, report, field, unit="checks"):
    """The pass line of one certificate, or its FAIL and violation lines
    and `_Failed`: the one place a failed certificate ends a command."""
    if not report.passed:
        _emit(f"{label}: FAIL")
        _emit("violation: " + report.first().describe(field.fmt))
        raise _Failed
    _emit(f"{label}: pass ({report.checked} {unit})")


def _load_hopf(path, command):
    """The Hopf algebra of a document; any other kind is an input error."""
    hopf = load_document(path).hopf
    if hopf is None:
        raise FormatError(f"{command} needs a full Hopf algebra document")
    return hopf


def _check_input(hopf, seed):
    _report_line("input hopf axioms", check_hopf_axioms(
        hopf, CheckMode.deferred(seed)), hopf.field)


def cmd_check(args):
    mode = _parse_mode(args.mode, args.seed)
    doc = load_document(args.file)
    field = doc.field
    _emit(f"file: {args.file}")
    _emit(f"kind: {doc.kind}")
    _emit(f"field: {field}")
    _emit(f"dim: {doc.algebra.dim}")
    if doc.hopf is not None:
        _report_line("hopf axioms", check_hopf_axioms(doc.hopf, mode), field)
    else:
        _report_line("algebra axioms", check_algebra_axioms(doc.algebra, mode),
                     field)
    if doc.module_dim is not None:
        _emit(f"module dim: {doc.module_dim}")
    # the reader admits a dual block or a coaction only with a coalgebra
    dual = dual_hopf(doc.hopf) if doc.hopf is not None else None
    for act, by in doc.actions:
        actor = doc.algebra if by == "self" else dual.algebra
        _report_line(f"action[{act.side},{by}]",
                     check_module_axioms(act, actor), field)
    for co, by in doc.coactions:
        coalg = (doc.hopf if by == "self" else dual).coalgebra
        _report_line(f"coaction[{co.side},{by}]",
                     check_coaction_axioms(co, coalg), field)
    module = doc.bimodule()
    if module is not None:
        _report_line("hopf bimodule axioms",
                     check_hopf_bimodule(module, doc.hopf), field)
    return 0


def cmd_describe(args):
    spec = _parse_catalog(args.catalog, _parse_field(args.field))
    hopf = catalog_hopf(spec, verify=False)
    _emit(f"catalog: {spec}")
    _emit(f"field: {hopf.field}")
    _emit(f"dim: {hopf.dim}")
    _emit("basis: " + ", ".join(hopf.basis_labels))
    _report_line("hopf axioms", check_hopf_axioms(
        hopf, CheckMode.deferred(args.seed)), hopf.field)
    return 0


def _build_handle(construction, hopf, setup):
    if construction == "left-smash":
        return smash_handles(hopf, setup)[0]
    if construction == "right-smash":
        return smash_handles(hopf, setup)[1]
    # Y and Z are the two-sided and diagonal products of the canonical triple
    which = {"two-sided": "Y", "diagonal": "Z"}.get(construction, construction)
    return build_xyz(hopf, which, setup)


def cmd_build(args):
    hmode = _parse_mode(args.mode, args.seed)
    _check_out_dir(args.out)
    hopf = _load_hopf(args.input, "build")
    field = hopf.field
    _check_input(hopf, args.seed)
    setup = StandardTriple(hopf)
    handle = _build_handle(args.construction, hopf, setup)
    _emit(f"construction: {args.construction}")
    _emit(f"input dim: {hopf.dim}")
    _emit(f"product dim: {handle.dim}")
    rep = check_handle_axioms(handle, hmode)
    label = ("unit + associativity (exhaustive)"
             if rep.mode.kind == "exhaustive"
             else f"unit + associativity (random, {rep.mode.trials} trials)")
    _report_line(label, rep, field)
    if args.out:
        if handle.dim <= args.materialize_cap:
            alg = materialize(handle, cap=args.materialize_cap)
            _write(args.out, save_document, algebra_to_json(alg))
            _emit(f"materialized: wrote {args.out}")
        else:
            with open(args.input, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            descriptor = {
                "construction": args.construction,
                "input_sha256": digest,
                "dim": handle.dim,
                "field": field_to_json(field),
                "factor_dims": list(handle.factor_dims),
            }
            _write(args.out, save_document, descriptor)
            _emit(f"descriptor: wrote {args.out} "
                  f"(dim {handle.dim} exceeds cap {args.materialize_cap})")
    return 0


def cmd_iso(args):
    vmode = _parse_mode(args.mode, args.seed)
    _check_out_dir(args.out)
    hopf = _load_hopf(args.input, "iso")
    field = hopf.field
    _check_input(hopf, args.seed)
    setup = StandardTriple(hopf)
    src_name, dst_name = ISO_SPECS[args.kind]
    src = build_xyz(hopf, src_name, setup)
    dst = build_xyz(hopf, dst_name, setup)
    forward = build_iso(args.kind, hopf, setup)
    backward = build_iso(args.kind + "_inv", hopf, setup)
    _emit(f"kind: {args.kind} ({src_name} -> {dst_name})")
    _emit(f"input dim: {hopf.dim}")
    _emit(f"product dim: {src.dim}")
    rep = verify_algebra_morphism(forward, src, dst, mode=vmode)
    unit = "pairs" if rep.mode.kind == "exhaustive" else "trials"
    _report_line("morphism", rep, field, unit=unit)
    _report_line("inverse", verify_mutually_inverse(forward, backward), field,
                 unit="rows")
    if args.kind == "beta":
        _report_line("composition", composition_identity(hopf, setup), field,
                     unit="entries")
    if args.out:
        head = {
            "kind": args.kind,
            "src": src_name,
            "dst": dst_name,
            "src_dim": forward.src_dim,
            "dst_dim": forward.dst_dim,
        }
        _write(args.out, save_document_by_rows, head, "matrix",
               ([field.fmt(c) for c in row] for row in forward.iter_rows()))
        _emit(f"matrix: wrote {args.out}")
    return 0


def cmd_bimodule(args):
    hopf = _load_hopf(args.input, "bimodule")
    field = hopf.field
    kind, v_dim = _parse_module(args.module)
    n = hopf.dim
    m_dim = n if kind == "regular" else n * v_dim * n
    if n ** 4 * m_dim > MAX_MODULE_INDEX:
        raise FormatError(f"bad --module {args.module!r}: (dim H)^4 * module "
                          f"dim = {n ** 4 * m_dim} is above the limit of "
                          f"{MAX_MODULE_INDEX}")
    _check_input(hopf, args.seed)
    mode = CheckMode.deferred(args.seed)
    module = example_bimodule(hopf, kind, v_dim)
    label = kind if kind == "regular" else f"free:{v_dim}"
    _emit(f"module: {label} (dim {module.space_dim})")
    setup = StandardTriple(hopf)
    _report_line("hopf bimodule axioms", check_hopf_bimodule(module, hopf),
                 field)
    handles = {w: build_xyz(hopf, w, setup) for w in ("X", "Y", "Z")}
    handles["left_smash"] = handles["Y"].left
    handles["right_smash"] = smash_handles(hopf, setup)[1]
    for which in ("X", "Y", "Z", "left_smash", "right_smash"):
        act = derived_action(module, hopf, which, setup)
        rep = check_module_over_handle(handles[which], act, mode)
        _report_line(f"{which} module axiom", rep, field)
    rep = verify_action_correspondence(module, hopf, setup, mode)
    _report_line("action correspondences (phi, alpha, beta)", rep, field)
    triple = triple_from_bimodule(module, hopf, setup)
    rep = triple_module_roundtrip(
        triple, setup.dual.algebra, setup.K, setup.dual_op_alg,
        setup.act_on_dual, setup.act_on_dual_op, mode, handle=handles["Y"])
    _report_line("triple roundtrip", rep, field)
    rep = diagonal_module_condition(
        c_action_from_bimodule(module), triple.h_act, setup.C, setup.K,
        setup.act_left_C, setup.act_right_C, mode, handle=handles["Z"])
    _report_line("diagonal condition", rep, field)
    rep = verify_f_correspondence(triple, module, hopf, setup, mode)
    _report_line("f correspondence", rep, field)
    return 0


def cmd_semisimple(args):
    doc = load_document(args.file)
    alg = doc.algebra
    _emit(f"file: {args.file}")
    _emit(f"field: {alg.field}")
    _emit(f"dim: {alg.dim}")
    if alg.field.characteristic != 0:
        raise FormatError(
            "the trace-form criterion needs characteristic 0 (field Q)")
    radical = trace_form_radical(alg)
    _emit(f"radical dimension: {len(radical)}")
    if not radical:
        _emit("semisimple: yes")
        return 0
    for vec in radical:
        _emit("radical vector: [" + ", ".join(alg.field.fmt(c) for c in vec) + "]")
    _emit("semisimple: no")
    return 1


@functools.cache
def make_parser():
    """The one parser of `main`, built on the first call and shared."""
    parser = argparse.ArgumentParser(
        prog="hopfcross",
        description="Exact crossed-product algebras over finite-dimensional "
                    "Hopf algebras, with certified isomorphisms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized modes (default 0)")

    p = sub.add_parser("check", help="verify the axioms of a structure file")
    p.add_argument("file")
    p.add_argument("--mode", help="exhaustive or random:N")
    add_seed(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("describe", help="print a catalog entry")
    p.add_argument("--catalog", required=True,
                   help="cyclic:N, dual_cyclic:N, sweedler4 or taft:N:P")
    p.add_argument("--field", help="Q (default) or a prime p")
    add_seed(p)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("build", help="build a crossed product from a Hopf file")
    p.add_argument("--construction", required=True,
                   choices=["X", "Y", "Z", "left-smash", "right-smash",
                            "two-sided", "diagonal"])
    p.add_argument("--input", required=True)
    p.add_argument("--materialize-cap", type=_materialize_cap,
                   default=DEFAULT_CAP)
    p.add_argument("--out")
    p.add_argument("--mode", help="exhaustive or random:N")
    add_seed(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("iso", help="build and certify one of the isomorphisms")
    p.add_argument("--kind", required=True, choices=["phi", "alpha", "beta", "f"])
    p.add_argument("--input", required=True)
    p.add_argument("--mode", help="exhaustive or random:N")
    p.add_argument("--out", help="write the matrix as JSON")
    add_seed(p)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("bimodule", help="run the module-correspondence suite")
    p.add_argument("--input", required=True)
    p.add_argument("--module", required=True, help="regular or free:N")
    add_seed(p)
    p.set_defaults(func=cmd_bimodule)

    p = sub.add_parser("semisimple",
                       help="trace-form radical of an algebra file (Q only)")
    p.add_argument("file")
    p.set_defaults(func=cmd_semisimple)
    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:       # usage errors (2) and --help (0)
        return exc.code
    try:
        return args.func(args)
    except _Failed:
        return 1
    except (FormatError, ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
