"""Pinned structure data on sweedler4, where S^2 != id.

Every basis product of the seven product handles, the eight isomorphism
matrices and the five derived actions on the regular and free:1
bimodules are digested coefficient by coefficient through `field.fmt`.
The digests were recorded from builders that wrote each formula out by
hand, so a rewrite of how the products, maps or actions are computed
must reproduce them exactly; a mix-up of S and S^-1 shows here.
"""

import hashlib

from hopfcross.bimodules import derived_action, example_bimodule
from hopfcross.crossed import (diagonal_crossed, smash_handles,
                               two_sided_crossed)
from hopfcross.isos import ISO_KINDS, build_iso

EXPECTED = {
    "product.X":
        "7970b58517eef74ee6cbd27b4244cb5ca0dac0a7044064ad0bae342cabd49c82",
    "product.Y":
        "1c8106a54a827e8190b16df4a977a186cc7dc3e2e73bb9b7f80108574f21af6f",
    "product.Z":
        "63acd269167d623e328c8607cdc9e13a6d128eeb03dc29a4788c624197302220",
    "product.left_smash":
        "c593a374016c6394769def46c7dd217a857fdbb301ea2912020ba4aa95ed07d4",
    "product.right_smash":
        "68dcca3974a8eaad9ca8b03777375a8a0e384e70e30e74d1673d7490467f69f7",
    "product.two_sided":
        "1c8106a54a827e8190b16df4a977a186cc7dc3e2e73bb9b7f80108574f21af6f",
    "product.diagonal":
        "63acd269167d623e328c8607cdc9e13a6d128eeb03dc29a4788c624197302220",
    "map.phi":
        "ec3b2ef4d1d1197137defaa84384003ef487fc7f7cdf07734e37787ab974be61",
    "map.phi_inv":
        "4fec32c5ac4e333b1752ddef7366501aeb8a35b6f1d21a7e9e50f2e486d407c0",
    "map.alpha":
        "c6e843454698c06a4c57d08f0815e4dae16f8ee4a1ad2657233aeac4ed56c38d",
    "map.alpha_inv":
        "a7269f485220871113048bd8bf2f417fd2fb389ca6c1e608dae4a9a9fdc41913",
    "map.beta":
        "ed7496804820b41f6cef6ef7deb1b4c6295ec57d68d1603b1b8c41a46e21d65c",
    "map.beta_inv":
        "5a516ce614677a809c34ba3fc4064e25f420235214e89fb78a29e7c54dd0617a",
    "map.f":
        "c6e843454698c06a4c57d08f0815e4dae16f8ee4a1ad2657233aeac4ed56c38d",
    "map.f_inv":
        "a7269f485220871113048bd8bf2f417fd2fb389ca6c1e608dae4a9a9fdc41913",
    "action.regular.X":
        "f0e744fe5871e7d5c8b04a17e0bc947e05adc8e9a902166b65f91d566f073f80",
    "action.regular.Y":
        "09977390e9ef42b15aa7f3813ce217625774006259f3434438f562999a009a49",
    "action.regular.Z":
        "c588901b114fd64d3df150284fd08f4307c94bd45029b8e6aff451a192e647f7",
    "action.regular.left_smash":
        "7f3750a8facddff4c961f6683ce5417678b64a798497eb50e4ef3a4a84480972",
    "action.regular.right_smash":
        "d6fea25418dc138c05fddf59b9b06ea048a4d9f271534650a9d1a6fde46f8ac1",
    "action.free1.X":
        "bfa6487affadf455624091980ecf31c5996c06af0ef3c68809a29c447ece767b",
    "action.free1.Y":
        "cce978ded09cba8dadc3dafbfc7ad7c2c292874f4e0369466b7e443dcec96df6",
    "action.free1.Z":
        "0a32b60ef463eeb2149619bc89a1d7eb540cea8f7a1917a66f1068d5b875b948",
    "action.free1.left_smash":
        "66383e109ee1a617e1bf4e1e53fac935af62bcbb71b795fe3441942c0047f701",
    "action.free1.right_smash":
        "aaac59c557b154d87dd192aa0dec8b09206e0ee770b875f723559345a625bb15",
}


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _handle_lines(handle):
    fmt = handle.field.fmt
    for i in range(handle.dim):
        for j in range(handle.dim):
            for k, c in sorted(handle.basis_product(i, j).items()):
                yield f"{i} {j} {k} {fmt(c)}"


def _matrix_lines(lm):
    fmt = lm.field.fmt
    for row in lm.rows:
        yield " ".join(fmt(c) for c in row)


def _action_lines(act):
    fmt = act.field.fmt
    for (i, j), entries in sorted(act.tensor.items()):
        for k, c in sorted(entries.items()):
            yield f"{i} {j} {k} {fmt(c)}"


def test_sweedler_structure_data_is_pinned(sweedler, setup_sw, xyz_sw):
    setup = setup_sw
    handles = dict(xyz_sw)
    handles["left_smash"], handles["right_smash"] = smash_handles(sweedler,
                                                                   setup)
    handles["two_sided"] = two_sided_crossed(
        setup.dual.algebra, setup.K, setup.dual_op_alg, setup.act_on_dual,
        setup.act_on_dual_op, verify=False)
    handles["diagonal"] = diagonal_crossed(
        setup.C, setup.K, setup.act_left_C, setup.act_right_C, verify=False)
    got = {f"product.{name}": _digest(_handle_lines(h))
           for name, h in handles.items()}
    for kind in ISO_KINDS:
        got[f"map.{kind}"] = _digest(_matrix_lines(
            build_iso(kind, sweedler, setup)))
    for label, module in (("regular", example_bimodule(sweedler, "regular")),
                          ("free1", example_bimodule(sweedler, "free", 1))):
        for which in ("X", "Y", "Z", "left_smash", "right_smash"):
            got[f"action.{label}.{which}"] = _digest(_action_lines(
                derived_action(module, sweedler, which, setup)))
    assert got == EXPECTED
