"""The JSON structure-constant file format.

A Hopf algebra document looks like

    {
      "field": "Q" | {"p": 5},
      "dim": 4,
      "basis": ["1", "g", "x", "gx"],
      "mult":  [[i, j, k, "c"], ...],      # e_i e_j = sum c e_k
      "unit":  ["1", "0", "0", "0"],
      "comult": [[i, j, k, "c"], ...],     # Delta(e_i) = sum c e_j (x) e_k
      "counit": ["1", "1", "0", "0"],
      "antipode": [["..."], ...]           # column j = S(e_j)
    }

A plain algebra document carries only field/dim/basis/mult/unit.  Scalars
are always strings ("3", "-5/7", or a residue "4") so no numeric type in
transit can lose exactness.  Optional blocks "module", "actions" and
"coactions" attach a based module with action/coaction tensors in the
same sparse-triple encoding.  Unknown keys are rejected everywhere.
"""

import json

from .actions import ActionData, CoactionData
from .algebra import AlgebraData, CoalgebraData, HopfAlgebraData
from .bimodules import HopfBimoduleData
from .errors import FormatError
from .fields import PrimeField, QQ

HOPF_ONLY_KEYS = ("comult", "counit", "antipode")
TOP_KEYS = {"field", "dim", "basis", "mult", "unit",
            "comult", "counit", "antipode", "module", "actions", "coactions"}
ACTION_KEYS = {"side", "by", "tensor"}
MODULE_KEYS = {"dim", "basis"}


def parse_field(obj):
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"p"}:
        try:
            return PrimeField(obj["p"])
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
    raise FormatError(f"bad field spec {obj!r}")


def field_to_json(field):
    if field == QQ:
        return "Q"
    return {"p": field.p}


def _scalar(field, s, where):
    try:
        return field.parse(s)
    except Exception as exc:
        raise FormatError(f"bad scalar {s!r} in {where}: {exc}") from exc


def _vector(field, obj, dim, where):
    if not isinstance(obj, list) or len(obj) != dim:
        raise FormatError(f"{where} must be a list of {dim} scalar strings")
    return [_scalar(field, s, where) for s in obj]


def _int_in(v, bound, where):
    if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < bound:
        raise FormatError(f"index {v!r} out of range in {where}")
    return v


def _table(field, entries, bounds, where):
    """The nonzero entries (i, j, k, c) of an [i, j, k, scalar] table.

    The table is a list of 4-item lists whose indices are ints (not
    bools) below `bounds`; an (i, j, k) triple may appear only once.
    """
    if not isinstance(entries, list):
        raise FormatError(f"{where} must be a list of [i, j, k, scalar]")
    out = []
    seen = set()
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 4:
            raise FormatError(f"{where} entries must be [i, j, k, scalar]")
        idx = tuple(_int_in(v, b, where) for v, b in zip(entry, bounds))
        if idx in seen:
            raise FormatError(f"duplicate {where} entry {idx}")
        seen.add(idx)
        c = _scalar(field, entry[3], where)
        if c != field.zero:
            out.append((*idx, c))
    return out


def _mult_to_triples(field, mult):
    triples = []
    for (i, j), entries in mult.items():
        for k, c in entries.items():
            triples.append([i, j, k, field.fmt(c)])
    triples.sort(key=lambda t: (t[0], t[1], t[2]))
    return triples


def _check_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise FormatError(f"{where} must be a JSON object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise FormatError(f"unknown keys in {where}: {sorted(unknown)}")


class ParsedDocument:
    """A decoded file: always an algebra, a full Hopf algebra when the
    coalgebra keys are present, plus any module/action/coaction blocks."""

    def __init__(self, field, algebra, hopf=None, module_dim=None,
                 module_basis=None, actions=(), coactions=()):
        self.field = field
        self.algebra = algebra
        self.hopf = hopf
        self.module_dim = module_dim
        self.module_basis = module_basis
        self.actions = list(actions)
        self.coactions = list(coactions)

    @property
    def kind(self):
        return "hopf" if self.hopf is not None else "algebra"

    def bimodule(self):
        """Assemble a HopfBimoduleData when exactly the four dual-sided
        blocks (left/right action, left/right coaction) are present."""
        if self.hopf is None or self.module_dim is None:
            return None
        acts = {a.side: a for a, by in self.actions if by == "dual"}
        coacts = {c.side: c for c, by in self.coactions if by == "dual"}
        if set(acts) == {"left", "right"} and set(coacts) == {"left", "right"}:
            return HopfBimoduleData(self.field, self.module_dim,
                                    acts["left"], acts["right"],
                                    coacts["left"], coacts["right"])
        return None


def read_document(data):
    """Decode a JSON object (already parsed) into structure-constant types."""
    if isinstance(data, dict) and "construction" in data:
        raise FormatError("this is a descriptor file, not structure constants")
    _check_keys(data, TOP_KEYS, "document")
    for key in ("field", "dim", "basis", "mult", "unit"):
        if key not in data:
            raise FormatError(f"missing required key {key!r}")
    field = parse_field(data["field"])
    dim = data["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise FormatError("dim must be a positive integer")
    basis = data["basis"]
    if (not isinstance(basis, list) or len(basis) != dim
            or not all(isinstance(b, str) for b in basis)):
        raise FormatError("basis must be a list of dim strings")
    mult = {}
    for i, j, k, c in _table(field, data["mult"], (dim,) * 3, "mult"):
        mult.setdefault((i, j), {})[k] = c
    unit = _vector(field, data["unit"], dim, "unit")
    try:
        algebra = AlgebraData(field, dim, list(basis), mult, unit)
    except (IndexError, ValueError) as exc:
        raise FormatError(str(exc)) from exc

    present = [k for k in HOPF_ONLY_KEYS if k in data]
    hopf = None
    if present:
        if len(present) != len(HOPF_ONLY_KEYS):
            missing = set(HOPF_ONLY_KEYS) - set(present)
            raise FormatError(f"incomplete Hopf structure, missing {sorted(missing)}")
        comult = {}
        for i, j, k, c in _table(field, data["comult"], (dim,) * 3, "comult"):
            comult.setdefault(i, []).append((j, k, c))
        counit = _vector(field, data["counit"], dim, "counit")
        antipode_rows = data["antipode"]
        if (not isinstance(antipode_rows, list) or len(antipode_rows) != dim
                or any(not isinstance(r, list) or len(r) != dim
                       for r in antipode_rows)):
            raise FormatError("antipode must be a dim x dim matrix of scalars")
        antipode = [[_scalar(field, s, "antipode") for s in row]
                    for row in antipode_rows]
        coalgebra = CoalgebraData(field, dim, list(basis), comult, counit)
        hopf = HopfAlgebraData(algebra, coalgebra, antipode)

    module_dim = None
    module_basis = None
    if "module" in data:
        _check_keys(data["module"], MODULE_KEYS, "module")
        module_dim = data["module"].get("dim")
        if not isinstance(module_dim, int) or module_dim < 1:
            raise FormatError("module.dim must be a positive integer")
        module_basis = data["module"].get("basis")
        if module_basis is not None and (
                not isinstance(module_basis, list)
                or len(module_basis) != module_dim):
            raise FormatError("module.basis must list module.dim labels")

    actions = []
    for a in data.get("actions", []):
        _check_keys(a, ACTION_KEYS, "actions[]")
        side, by = a.get("side"), a.get("by", "dual")
        if side not in ("left", "right") or by not in ("self", "dual"):
            raise FormatError("action needs side left/right and by self/dual")
        if module_dim is None:
            raise FormatError("actions require a module block")
        tensor = {}
        for i, j, k, c in _table(field, a.get("tensor", []),
                                 (dim, module_dim, module_dim),
                                 "action tensor"):
            tensor.setdefault((i, j), {})[k] = c
        actions.append((ActionData(field, dim, module_dim, side, tensor), by))

    coactions = []
    for c in data.get("coactions", []):
        _check_keys(c, ACTION_KEYS, "coactions[]")
        side, by = c.get("side"), c.get("by", "dual")
        if side not in ("left", "right") or by not in ("self", "dual"):
            raise FormatError("coaction needs side left/right and by self/dual")
        if module_dim is None:
            raise FormatError("coactions require a module block")
        tensor = {}
        for leg, j, k, w in _table(field, c.get("tensor", []),
                                   (dim, module_dim, module_dim),
                                   "coaction tensor"):
            tensor.setdefault(j, []).append((leg, k, w))
        coactions.append(
            (CoactionData(field, module_dim, dim, side, tensor), by))

    return ParsedDocument(field, algebra, hopf, module_dim, module_basis,
                          actions, coactions)


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError("top level must be a JSON object")
    return read_document(data)


def algebra_to_json(alg):
    field = alg.field
    return {
        "field": field_to_json(field),
        "dim": alg.dim,
        "basis": list(alg.basis_labels),
        "mult": _mult_to_triples(field, alg.mult),
        "unit": [field.fmt(c) for c in alg.unit],
    }


def hopf_to_json(hopf):
    field = hopf.field
    doc = algebra_to_json(hopf.algebra)
    comult = []
    for i, terms in hopf.coalgebra.comult.items():
        for j, k, c in terms:
            comult.append([i, j, k, field.fmt(c)])
    comult.sort(key=lambda t: (t[0], t[1], t[2]))
    doc["comult"] = comult
    doc["counit"] = [field.fmt(c) for c in hopf.coalgebra.counit]
    doc["antipode"] = [[field.fmt(c) for c in row] for row in hopf.antipode]
    return doc


def bimodule_blocks(module):
    """Module/action/coaction blocks encoding a Hopf bimodule."""
    field = module.field

    def action_block(act):
        triples = []
        for (i, j), entries in act.tensor.items():
            for k, c in entries.items():
                triples.append([i, j, k, field.fmt(c)])
        triples.sort(key=lambda t: (t[0], t[1], t[2]))
        return {"side": act.side, "by": "dual", "tensor": triples}

    def coaction_block(co):
        quads = []
        for j, terms in co.tensor.items():
            for c, k, w in terms:
                quads.append([c, j, k, field.fmt(w)])
        quads.sort(key=lambda t: (t[0], t[1], t[2]))
        return {"side": co.side, "by": "dual", "tensor": quads}

    return {
        "module": {"dim": module.space_dim},
        "actions": [action_block(module.left_act),
                    action_block(module.right_act)],
        "coactions": [coaction_block(module.left_co),
                      coaction_block(module.right_co)],
    }


def dump_json(doc):
    return json.dumps(doc, indent=1) + "\n"


def save_document(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(doc))
