"""Command-line interface.

Subcommands: check, describe, build, iso, bimodule, semisimple.  Exit
codes: 0 all checks pass, 1 an axiom/isomorphism violation was found
(the first witness is printed), 2 input or parse error.  Randomized
modes are seeded (--seed, default 0), so reports are byte-identical
across runs with the same arguments.
"""

import argparse
import hashlib
import sys

from .algebra import check_algebra_axioms, check_hopf_axioms, trace_form_radical
from .actions import check_coaction_axioms, check_module_axioms
from .bimodules import (check_hopf_bimodule, check_module_over_handle,
                        derived_action, diagonal_module_condition,
                        example_bimodule, triple_from_bimodule,
                        triple_module_roundtrip, verify_action_correspondence,
                        verify_f_correspondence)
from .catalog import catalog_hopf, parse_catalog_spec
from .crossed import (StandardTriple, build_xyz, check_handle_axioms,
                      diagonal_crossed, materialize, smash_handles,
                      two_sided_crossed)
from .errors import FormatError
from .fields import PrimeField, QQ
from .hopf_json import (algebra_to_json, field_to_json, load_document,
                        save_document)
from .isos import (build_iso, composition_identity, verify_algebra_morphism,
                   verify_mutually_inverse)
from .report import CheckMode

DEFAULT_CAP = 64

ISO_ROUTES = {
    "phi": ("X", "Y"), "alpha": ("Y", "Z"), "beta": ("X", "Z"), "f": ("Y", "Z"),
}


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
            return CheckMode.random(trials=int(text.split(":", 1)[1]),
                                    seed=seed)
        except ValueError:
            pass
    raise FormatError(f"bad mode {text!r}, want exhaustive or random:N "
                      f"with N >= 1")


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


def _report_line(label, report, field, unit="checks"):
    if report.passed:
        _emit(f"{label}: pass ({report.checked} {unit})")
        return True
    _emit(f"{label}: FAIL")
    _emit("violation: " + report.first().describe(field.fmt))
    return False


def cmd_check(args):
    doc = load_document(args.file)
    field = doc.field
    mode = _parse_mode(args.mode, args.seed)
    _emit(f"file: {args.file}")
    _emit(f"kind: {doc.kind}")
    _emit(f"field: {field}")
    _emit(f"dim: {doc.algebra.dim}")
    if doc.hopf is not None:
        if not _report_line("hopf axioms", check_hopf_axioms(doc.hopf, mode),
                            field):
            return 1
    else:
        if not _report_line("algebra axioms",
                            check_algebra_axioms(doc.algebra, mode), field):
            return 1
    if doc.module_dim is not None:
        _emit(f"module dim: {doc.module_dim}")
    from .algebra import dual_hopf
    dual = dual_hopf(doc.hopf) if doc.hopf is not None else None
    for act, by in doc.actions:
        actor = doc.algebra if by == "self" else (dual.algebra if dual else None)
        if actor is None:
            _emit("action check skipped: dual actions need a hopf document")
            return 2
        rep = check_module_axioms(act, actor)
        if not _report_line(f"action[{act.side},{by}]", rep, field):
            return 1
    for co, by in doc.coactions:
        coalg = (doc.hopf.coalgebra if by == "self" else
                 (dual.coalgebra if dual else None))
        if coalg is None:
            _emit("coaction check skipped: needs a hopf document")
            return 2
        rep = check_coaction_axioms(co, coalg)
        if not _report_line(f"coaction[{co.side},{by}]", rep, field):
            return 1
    module = doc.bimodule()
    if module is not None:
        rep = check_hopf_bimodule(module, doc.hopf)
        if not _report_line("hopf bimodule axioms", rep, field):
            return 1
    return 0


def cmd_describe(args):
    spec = _parse_catalog(args.catalog, _parse_field(args.field))
    hopf = catalog_hopf(spec, verify=False)
    _emit(f"catalog: {spec}")
    _emit(f"field: {hopf.field}")
    _emit(f"dim: {hopf.dim}")
    _emit("basis: " + ", ".join(hopf.basis_labels))
    if not _report_line("hopf axioms", check_hopf_axioms(
            hopf, CheckMode.deferred(args.seed)), hopf.field):
        return 1
    return 0


def _build_handle(construction, hopf, setup):
    if construction in ("X", "Y", "Z"):
        return build_xyz(hopf, construction, setup)
    if construction == "left-smash":
        return smash_handles(hopf, setup)[0]
    if construction == "right-smash":
        return smash_handles(hopf, setup)[1]
    if construction == "two-sided":
        return two_sided_crossed(setup.dual.algebra, setup.K,
                                 setup.dual_op_alg, setup.act_on_dual,
                                 setup.act_on_dual_op, verify=False)
    return diagonal_crossed(setup.C, setup.K, setup.act_left_C,
                            setup.act_right_C, verify=False)


def cmd_build(args):
    doc = load_document(args.input)
    if doc.hopf is None:
        raise FormatError("build needs a full Hopf algebra document")
    hopf = doc.hopf
    field = hopf.field
    hmode = _parse_mode(args.mode, args.seed)
    if not _report_line("input hopf axioms", check_hopf_axioms(
            hopf, CheckMode.deferred(args.seed)), field):
        return 1
    setup = StandardTriple(hopf)
    handle = _build_handle(args.construction, hopf, setup)
    _emit(f"construction: {args.construction}")
    _emit(f"input dim: {hopf.dim}")
    _emit(f"product dim: {handle.dim}")
    rep = check_handle_axioms(handle, hmode)
    label = ("unit + associativity (exhaustive)"
             if rep.mode.kind == "exhaustive"
             else f"unit + associativity (random, {rep.mode.trials} trials)")
    if not _report_line(label, rep, field):
        return 1
    if args.out:
        if handle.dim <= args.materialize_cap:
            alg = materialize(handle, cap=args.materialize_cap)
            save_document(args.out, algebra_to_json(alg))
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
            save_document(args.out, descriptor)
            _emit(f"descriptor: wrote {args.out} "
                  f"(dim {handle.dim} exceeds cap {args.materialize_cap})")
    return 0


def cmd_iso(args):
    doc = load_document(args.input)
    if doc.hopf is None:
        raise FormatError("iso needs a full Hopf algebra document")
    hopf = doc.hopf
    field = hopf.field
    vmode = _parse_mode(args.mode, args.seed)
    if not _report_line("input hopf axioms", check_hopf_axioms(
            hopf, CheckMode.deferred(args.seed)), field):
        return 1
    setup = StandardTriple(hopf)
    src_name, dst_name = ISO_ROUTES[args.kind]
    src = build_xyz(hopf, src_name, setup)
    dst = build_xyz(hopf, dst_name, setup)
    forward = build_iso(args.kind, hopf, setup)
    backward = build_iso(args.kind + "_inv", hopf, setup)
    _emit(f"kind: {args.kind} ({src_name} -> {dst_name})")
    _emit(f"input dim: {hopf.dim}")
    _emit(f"product dim: {src.dim}")
    rep = verify_algebra_morphism(forward, src, dst, mode=vmode)
    unit = "pairs" if rep.mode.kind == "exhaustive" else "trials"
    if not _report_line("morphism", rep, field, unit=unit):
        return 1
    if not _report_line("inverse", verify_mutually_inverse(forward, backward),
                        field, unit="rows"):
        return 1
    if args.kind == "beta":
        if not _report_line("composition", composition_identity(hopf, setup),
                            field, unit="entries"):
            return 1
    if args.out:
        doc_out = {
            "kind": args.kind,
            "src": src_name,
            "dst": dst_name,
            "src_dim": forward.src_dim,
            "dst_dim": forward.dst_dim,
            "matrix": [[field.fmt(c) for c in row] for row in forward.rows],
        }
        save_document(args.out, doc_out)
        _emit(f"matrix: wrote {args.out}")
    return 0


def cmd_bimodule(args):
    doc = load_document(args.input)
    if doc.hopf is None:
        raise FormatError("bimodule needs a full Hopf algebra document")
    hopf = doc.hopf
    field = hopf.field
    kind, v_dim = _parse_module(args.module)
    mode = CheckMode.deferred(args.seed)
    if not _report_line("input hopf axioms", check_hopf_axioms(hopf, mode),
                        field):
        return 1
    module = example_bimodule(hopf, kind, v_dim)
    label = kind if kind == "regular" else f"free:{v_dim}"
    _emit(f"module: {label} (dim {module.space_dim})")
    setup = StandardTriple(hopf)
    if not _report_line("hopf bimodule axioms",
                        check_hopf_bimodule(module, hopf), field):
        return 1
    handles = {w: build_xyz(hopf, w, setup) for w in ("X", "Y", "Z")}
    ls, rs = smash_handles(hopf, setup)
    handles["left_smash"] = ls
    handles["right_smash"] = rs
    for which in ("X", "Y", "Z", "left_smash", "right_smash"):
        act = derived_action(module, hopf, which, setup)
        rep = check_module_over_handle(handles[which], act, mode)
        if not _report_line(f"{which} module axiom", rep, field):
            return 1
    rep = verify_action_correspondence(module, hopf, setup, mode)
    if not _report_line("action correspondences (phi, alpha, beta)", rep,
                        field):
        return 1
    triple = triple_from_bimodule(module, hopf, setup)
    rep = triple_module_roundtrip(
        triple, setup.dual.algebra, setup.K, setup.dual_op_alg,
        setup.act_on_dual, setup.act_on_dual_op, mode, handle=handles["Y"])
    if not _report_line("triple roundtrip", rep, field):
        return 1
    from .actions import ActionData
    n = setup.n
    c_tensor = {}
    for p in range(n):
        for q in range(n):
            for j in range(module.space_dim):
                sv = module.left_act.act_sv(
                    {p: field.one}, module.right_act.act_basis(q, j))
                if sv:
                    c_tensor[(p * n + q, j)] = sv
    c_act = ActionData(field, n * n, module.space_dim, "left", c_tensor)
    rep = diagonal_module_condition(
        c_act, triple.h_act, setup.C, setup.K, setup.act_left_C,
        setup.act_right_C, mode, handle=handles["Z"])
    if not _report_line("diagonal condition", rep, field):
        return 1
    rep = verify_f_correspondence(triple, module, hopf, setup, mode)
    if not _report_line("f correspondence", rep, field):
        return 1
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


def make_parser():
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
    p.add_argument("--materialize-cap", type=int, default=DEFAULT_CAP)
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
    add_seed(p)
    p.set_defaults(func=cmd_semisimple)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
