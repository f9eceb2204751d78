"""JSON encoding for templates, instances, assignments, families and systems.

Conventions shared by every schema here:

- rationals are JSON integers when integral, "p/q" strings otherwise
- domain values and cell labels are JSON scalars (int or str)
- instance variables are 1-based in JSON, 0-based in memory
- emitters return plain dict/list trees; `dumps` sorts keys so identical
  objects always serialize to identical bytes

Every parser threads a JSON-path string through the walk; malformed input
raises SchemaError carrying the offending path.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .families import (Cell, PartitionSpec, PeriodicFamily, RegionFamily,
                       RegionPeriodicFamily, SimplexFamily, ThresholdFamily,
                       ThresholdPeriodicFamily)
from .linalg import InequalitySystem
from .model import AffineSystem, Clause, Instance, PromiseTemplate, Relation
from .rings import LatticeIdeal, QuadElem


class SchemaError(ValueError):
    """Malformed JSON input; `path` points at the offending node."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


def rat_to_json(x):
    f = Fraction(x)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def rat_from_json(v, path: str) -> Fraction:
    if isinstance(v, bool):
        raise SchemaError(path, "expected a rational, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(path, f"not a rational: {v!r}") from None
    raise SchemaError(path, f"expected int or 'p/q' string, got {type(v).__name__}")


def quad_to_json(x: QuadElem) -> dict:
    return {"a": x.a, "b": x.b, "q": x.q}


def _expect(obj, typ, path: str, what: str):
    if typ is int and isinstance(obj, bool):
        raise SchemaError(path, f"expected {what}, got a boolean")
    if not isinstance(obj, typ):
        raise SchemaError(path, f"expected {what}, got {type(obj).__name__}")
    return obj


def _expect_keys(obj: dict, path: str, required: tuple, optional: tuple = ()):
    for k in required:
        if k not in obj:
            raise SchemaError(path, f"missing key {k!r}")
    for k in obj:
        if k not in required and k not in optional:
            raise SchemaError(f"{path}.{k}", "unknown key")


def _scalar(v, path: str):
    """Domain values and cell labels: int or str."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise SchemaError(path, f"expected int or str, got {type(v).__name__}")
    return v


def _distinct_scalars(obj, path: str) -> tuple:
    out: list = []
    for i, v in enumerate(_expect(obj, list, path, "a list")):
        if _scalar(v, f"{path}[{i}]") in out:
            raise SchemaError(f"{path}[{i}]", f"repeated value {v!r}")
        out.append(v)
    return tuple(out)


def _int_list(obj, path: str) -> list[int]:
    _expect(obj, list, path, "a list")
    return [_expect(v, int, f"{path}[{i}]", "an int") for i, v in enumerate(obj)]


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------


def template_to_json(t: PromiseTemplate) -> dict:
    return {
        "domains": {"D": list(t.domain), "E": list(t.codomain)},
        "phi": [[d, t.phi[d]] for d in t.domain],
        "constraints": [
            {"name": r.name, "arity": r.arity,
             "P": [list(tu) for tu in sorted(r.strong)],
             "Q": [list(tu) for tu in sorted(r.weak)]}
            for r in t.relations],
    }


def _tuple_list(obj, path: str, arity: int) -> frozenset:
    _expect(obj, list, path, "a list of tuples")
    out = []
    for i, row in enumerate(obj):
        _expect(row, list, f"{path}[{i}]", "a tuple (list)")
        if len(row) != arity:
            raise SchemaError(f"{path}[{i}]", f"expected arity {arity}, got {len(row)}")
        out.append(tuple(_scalar(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)))
    return frozenset(out)


def template_from_json(obj) -> PromiseTemplate:
    _expect(obj, dict, "$", "a template object")
    _expect_keys(obj, "$", ("domains", "phi", "constraints"))
    doms = _expect(obj["domains"], dict, "$.domains", "an object")
    _expect_keys(doms, "$.domains", ("D", "E"))
    D = _distinct_scalars(doms["D"], "$.domains.D")
    E = _distinct_scalars(doms["E"], "$.domains.E")
    phi = {}
    for i, pair in enumerate(_expect(obj["phi"], list, "$.phi", "a list of pairs")):
        _expect(pair, list, f"$.phi[{i}]", "a [d, e] pair")
        if len(pair) != 2:
            raise SchemaError(f"$.phi[{i}]", "expected a [d, e] pair")
        d = _scalar(pair[0], f"$.phi[{i}][0]")
        if d in phi:
            raise SchemaError(f"$.phi[{i}]", f"repeated domain value {d!r}")
        phi[d] = _scalar(pair[1], f"$.phi[{i}][1]")
    rels = []
    cons = _expect(obj["constraints"], list, "$.constraints", "a list")
    for i, c in enumerate(cons):
        p = f"$.constraints[{i}]"
        _expect(c, dict, p, "a constraint object")
        _expect_keys(c, p, ("name", "arity", "P", "Q"))
        name = _expect(c["name"], str, f"{p}.name", "a string")
        if any(r.name == name for r in rels):
            raise SchemaError(f"{p}.name", f"repeated relation name {name!r}")
        arity = _expect(c["arity"], int, f"{p}.arity", "an int")
        if arity < 1:
            raise SchemaError(f"{p}.arity", "arity must be positive")
        strong = _tuple_list(c["P"], f"{p}.P", arity)
        weak = _tuple_list(c["Q"], f"{p}.Q", arity)
        try:
            rels.append(Relation(name, arity, strong, weak))
        except ValueError as e:
            raise SchemaError(p, str(e)) from None
    try:
        return PromiseTemplate(D, E, phi, tuple(rels))
    except ValueError as e:
        raise SchemaError("$", str(e)) from None


# ---------------------------------------------------------------------------
# Instances and assignments
# ---------------------------------------------------------------------------


def instance_to_json(inst: Instance, template: PromiseTemplate) -> dict:
    return {
        "n": inst.n_vars,
        "clauses": [
            {"c": template.relations[cl.relation].name,
             "vars": [v + 1 for v in cl.variables]}
            for cl in inst.clauses],
    }


def instance_from_json(obj, template: PromiseTemplate) -> Instance:
    _expect(obj, dict, "$", "an instance object")
    _expect_keys(obj, "$", ("n", "clauses"))
    n = _expect(obj["n"], int, "$.n", "an int")
    if n < 1:
        raise SchemaError("$.n", "need at least one variable")
    clauses = []
    for i, c in enumerate(_expect(obj["clauses"], list, "$.clauses", "a list")):
        p = f"$.clauses[{i}]"
        _expect(c, dict, p, "a clause object")
        _expect_keys(c, p, ("c", "vars"))
        name = _expect(c["c"], str, f"{p}.c", "a constraint name")
        try:
            idx = template.relation_index(name)
        except KeyError:
            raise SchemaError(f"{p}.c", f"unknown constraint {name!r}") from None
        arity = template.relations[idx].arity
        vs = _int_list(c["vars"], f"{p}.vars")
        if len(vs) != arity:
            raise SchemaError(f"{p}.vars", f"expected {arity} variables, got {len(vs)}")
        for j, v in enumerate(vs):
            if not 1 <= v <= n:
                raise SchemaError(f"{p}.vars[{j}]", f"variable {v} outside 1..{n}")
        clauses.append(Clause(idx, tuple(v - 1 for v in vs)))
    return Instance(n, tuple(clauses))


def assignment_to_json(side: str, values) -> dict:
    if side not in ("P", "Q"):
        raise ValueError("side must be 'P' or 'Q'")
    return {"side": side, "values": list(values)}


def assignment_from_json(obj) -> tuple[str, list]:
    """Returns (side, values) with side in {'P', 'Q'}."""
    _expect(obj, dict, "$", "an assignment object")
    _expect_keys(obj, "$", ("side", "values"))
    side = _expect(obj["side"], str, "$.side", "'P' or 'Q'")
    if side not in ("P", "Q"):
        raise SchemaError("$.side", "side must be 'P' or 'Q'")
    values = [_scalar(v, f"$.values[{i}]")
              for i, v in enumerate(_expect(obj["values"], list, "$.values", "a list"))]
    return side, values


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


def _poly_to_json(poly) -> list:
    return [[rat_to_json(c), list(exps)] for c, exps in poly]


def _cells_to_json(cells) -> list:
    return [{"label": c.label,
             "ineqs": [{"poly": _poly_to_json(p), "rel": ">"} for p in c.polys]}
            for c in cells]


def _corners_to_json(corners) -> dict:
    return {",".join(str(b) for b in key): label
            for key, label in sorted(corners.items())}


def _poly_from_json(obj, path: str, dim: int) -> tuple:
    _expect(obj, list, path, "a list of [coef, exponents] terms")
    if not obj:
        raise SchemaError(path, "empty polynomial")
    terms = []
    for i, term in enumerate(obj):
        p = f"{path}[{i}]"
        _expect(term, list, p, "a [coef, exponents] pair")
        if len(term) != 2:
            raise SchemaError(p, "expected a [coef, exponents] pair")
        coef = rat_from_json(term[0], f"{p}[0]")
        exps = _int_list(term[1], f"{p}[1]")
        if len(exps) != dim:
            raise SchemaError(f"{p}[1]", f"expected {dim} exponents, got {len(exps)}")
        if any(e < 0 for e in exps):
            raise SchemaError(f"{p}[1]", "exponents must be nonnegative")
        terms.append((coef, tuple(exps)))
    return tuple(terms)


def _cells_from_json(obj, path: str, dim: int) -> tuple[Cell, ...]:
    _expect(obj, list, path, "a list of cells")
    cells = []
    for i, c in enumerate(obj):
        p = f"{path}[{i}]"
        _expect(c, dict, p, "a cell object")
        _expect_keys(c, p, ("label", "ineqs"))
        label = _scalar(c["label"], f"{p}.label")
        ineqs = _expect(c["ineqs"], list, f"{p}.ineqs", "a list")
        polys = []
        for j, iq in enumerate(ineqs):
            pp = f"{p}.ineqs[{j}]"
            _expect(iq, dict, pp, "an inequality object")
            _expect_keys(iq, pp, ("poly", "rel"))
            rel = _expect(iq["rel"], str, f"{pp}.rel", "'<' or '>'")
            poly = _poly_from_json(iq["poly"], f"{pp}.poly", dim)
            if rel == "<":
                poly = tuple((-c0, e) for c0, e in poly)
            elif rel != ">":
                raise SchemaError(f"{pp}.rel", f"unknown relation {rel!r}")
            polys.append(poly)
        cells.append(Cell(label, tuple(polys)))
    return tuple(cells)


def _corners_from_json(obj, path: str, dim: int) -> dict:
    _expect(obj, dict, path, "an object keyed by 0/1 vectors")
    corners = {}
    for key, label in obj.items():
        p = f"{path}.{key}"
        parts = key.split(",")
        if len(parts) != dim or any(b not in ("0", "1") for b in parts):
            raise SchemaError(p, f"corner key must be {dim} comma-joined bits")
        corners[tuple(int(b) for b in parts)] = _scalar(label, p)
    return corners


def _partition_from_json(obj, path: str, dim: int) -> PartitionSpec:
    cells = _cells_from_json(obj.get("cells"), f"{path}.cells", dim)
    corners = _corners_from_json(obj.get("corners", {}), f"{path}.corners", dim)
    try:
        return PartitionSpec(dim, cells, corners)
    except ValueError as e:
        raise SchemaError(path, str(e)) from None


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def _rings_to_json(radicands) -> list:
    return [{"q": int(q)} for q in radicands]


def _rings_from_json(obj, path: str, count: int | None = None) -> list[int]:
    _expect(obj, list, path, "a list of ring objects")
    if count is not None and len(obj) != count:
        raise SchemaError(path, f"expected {count} rings, got {len(obj)}")
    out = []
    for i, r in enumerate(obj):
        p = f"{path}[{i}]"
        _expect(r, dict, p, "a ring object")
        _expect_keys(r, p, ("q",))
        out.append(_expect(r["q"], int, f"{p}.q", "an int"))
    return out


def _diagonal_matrix(lat: LatticeIdeal) -> list:
    """The ideal's Hermite form diag(d_1, ..., d_b), as rows."""
    return [[d if i == k else 0 for k in range(lat.dim)]
            for i, d in enumerate(lat.diag)]


def family_to_json(f) -> dict:
    kind = f.kind          # each family class's kind is its JSON tag
    out: dict = {"kind": kind, "name": f.name}
    if kind == "thr":
        out["thresholds"] = [rat_to_json(t) for t in f.thresholds]
        out["eta"] = list(f.eta)
        out["rings"] = _rings_to_json((f.radicand,))
    elif kind == "per":
        out["modulus"] = f.modulus
        out["residue"] = f.residue
        out["eta"] = list(f.eta)
        out["domain"] = list(f.domain)
    elif kind == "thrper":
        out["thresholds"] = [rat_to_json(t) for t in f.thresholds]
        out["moduli"] = list(f.moduli)
        out["etas"] = [list(e) for e in f.etas]
        out["residue"] = f.residue
        out["rings"] = _rings_to_json((f.radicand,))
    elif kind == "reg":
        out["rings"] = _rings_to_json(f.radicands)
        out["cells"] = _cells_to_json(f.partition.cells)
        out["corners"] = _corners_to_json(f.partition.corners)
    elif kind == "regper":
        out["rings"] = _rings_to_json(f.radicands)
        out["cells"] = _cells_to_json(f.partition.cells)
        out["corners"] = _corners_to_json(f.partition.corners)
        out["quotients"] = [
            {"label": label,
             "lattice": _diagonal_matrix(lat),
             "eta": [{"coset": list(cs), "out": val}
                     for cs, val in sorted(eta.items())]}
            for label, (lat, eta) in sorted(f.cell_data.items(),
                                            key=lambda kv: str(kv[0]))]
    elif kind == "simplex":
        out["domain"] = list(f.domain)
        out["rings"] = _rings_to_json((f.radicand,))
        out["cells"] = _cells_to_json(f.partition.cells)
        out["corners"] = _corners_to_json(f.partition.corners)
    return out


def _family_ctor(ctor, path, *args, **kwargs):
    try:
        return ctor(*args, **kwargs)
    except ValueError as e:
        raise SchemaError(path, str(e)) from None


def family_from_json(obj):
    _expect(obj, dict, "$", "a family object")
    kind = obj.get("kind")
    if kind not in ("thr", "per", "thrper", "reg", "regper", "simplex"):
        raise SchemaError("$.kind", f"unknown family kind {kind!r}")
    name = obj.get("name", kind)
    _expect(name, str, "$.name", "a string")

    if kind == "thr":
        _expect_keys(obj, "$", ("kind", "thresholds", "eta", "rings"), ("name",))
        ts = [rat_from_json(t, f"$.thresholds[{i}]")
              for i, t in enumerate(_expect(obj["thresholds"], list,
                                            "$.thresholds", "a list"))]
        eta = [_scalar(v, f"$.eta[{i}]")
               for i, v in enumerate(_expect(obj["eta"], list, "$.eta", "a list"))]
        q = _rings_from_json(obj["rings"], "$.rings", 1)[0]
        return _family_ctor(ThresholdFamily, "$", tuple(ts), tuple(eta),
                            radicand=q, name=name)

    if kind == "per":
        _expect_keys(obj, "$", ("kind", "modulus", "residue", "eta", "domain"),
                     ("name",))
        m = _expect(obj["modulus"], int, "$.modulus", "an int")
        r = _expect(obj["residue"], int, "$.residue", "an int")
        eta = [_scalar(v, f"$.eta[{i}]")
               for i, v in enumerate(_expect(obj["eta"], list, "$.eta", "a list"))]
        dom = _int_list(obj["domain"], "$.domain")
        return _family_ctor(PeriodicFamily, "$", m, r, tuple(eta),
                            domain=tuple(dom), name=name)

    if kind == "thrper":
        _expect_keys(obj, "$", ("kind", "thresholds", "moduli", "etas",
                                "residue", "rings"), ("name",))
        ts = [rat_from_json(t, f"$.thresholds[{i}]")
              for i, t in enumerate(_expect(obj["thresholds"], list,
                                            "$.thresholds", "a list"))]
        moduli = _int_list(obj["moduli"], "$.moduli")
        etas = []
        for i, e in enumerate(_expect(obj["etas"], list, "$.etas", "a list")):
            etas.append(tuple(_scalar(v, f"$.etas[{i}][{j}]")
                              for j, v in enumerate(_expect(e, list,
                                                            f"$.etas[{i}]", "a list"))))
        r = _expect(obj["residue"], int, "$.residue", "an int")
        q = _rings_from_json(obj["rings"], "$.rings", 1)[0]
        return _family_ctor(ThresholdPeriodicFamily, "$", tuple(ts),
                            tuple(moduli), tuple(etas), residue=r,
                            radicand=q, name=name)

    if kind == "reg":
        _expect_keys(obj, "$", ("kind", "rings", "cells"), ("name", "corners"))
        qs = _rings_from_json(obj["rings"], "$.rings")
        spec = _partition_from_json(obj, "$", len(qs))
        return _family_ctor(RegionFamily, "$", spec, tuple(qs), name=name)

    if kind == "regper":
        _expect_keys(obj, "$", ("kind", "rings", "cells", "quotients"),
                     ("name", "corners"))
        qs = _rings_from_json(obj["rings"], "$.rings")
        spec = _partition_from_json(obj, "$", len(qs))
        cell_data = {}
        quots = _expect(obj["quotients"], list, "$.quotients", "a list")
        for i, qd in enumerate(quots):
            p = f"$.quotients[{i}]"
            _expect(qd, dict, p, "a quotient object")
            _expect_keys(qd, p, ("label", "lattice", "eta"))
            label = _scalar(qd["label"], f"{p}.label")
            if label in cell_data:
                raise SchemaError(p, f"repeated label {label!r}")
            gens = [_int_list(row, f"{p}.lattice[{j}]")
                    for j, row in enumerate(_expect(qd["lattice"], list,
                                                    f"{p}.lattice", "a list"))]
            try:
                lat = LatticeIdeal(gens)
            except ValueError as e:
                raise SchemaError(f"{p}.lattice", str(e)) from None
            eta = {}
            for j, ent in enumerate(_expect(qd["eta"], list, f"{p}.eta", "a list")):
                pp = f"{p}.eta[{j}]"
                _expect(ent, dict, pp, "a coset entry")
                _expect_keys(ent, pp, ("coset", "out"))
                cs = tuple(_int_list(ent["coset"], f"{pp}.coset"))
                if cs in eta:
                    raise SchemaError(pp, f"repeated coset {list(cs)}")
                eta[cs] = _scalar(ent["out"], f"{pp}.out")
            cell_data[label] = (lat, eta)
        return _family_ctor(RegionPeriodicFamily, "$", spec, tuple(qs),
                            cell_data, name=name)

    # simplex
    _expect_keys(obj, "$", ("kind", "domain", "rings", "cells"),
                 ("name", "corners"))
    dom = tuple(_scalar(v, f"$.domain[{i}]")
                for i, v in enumerate(_expect(obj["domain"], list,
                                              "$.domain", "a list")))
    q = _rings_from_json(obj["rings"], "$.rings", 1)[0]
    spec = _partition_from_json(obj, "$", len(dom))
    return _family_ctor(SimplexFamily, "$", dom, spec, radicand=q, name=name)


# ---------------------------------------------------------------------------
# Inequality systems
# ---------------------------------------------------------------------------


def _row_to_json(row) -> list:
    return [[j, rat_to_json(c)] for j, c in sorted(row.items())]


def _row_from_json(obj, path: str, n_vars: int) -> dict:
    _expect(obj, list, path, "a list of [column, coef] pairs")
    row = {}
    for i, pair in enumerate(obj):
        p = f"{path}[{i}]"
        _expect(pair, list, p, "a [column, coef] pair")
        if len(pair) != 2:
            raise SchemaError(p, "expected a [column, coef] pair")
        j = _expect(pair[0], int, f"{p}[0]", "a column index")
        if not 0 <= j < n_vars:
            raise SchemaError(f"{p}[0]", f"column {j} outside 0..{n_vars - 1}")
        row[j] = rat_from_json(pair[1], f"{p}[1]")
    return row


def system_to_json(system: InequalitySystem) -> dict:
    paired = system.paired_indices()
    le = [{"a": _row_to_json(system.rows[i]), "b": rat_to_json(system.rhs[i])}
          for i in range(system.n_rows) if i not in paired]
    eq = [{"a": _row_to_json(system.rows[i]), "b": rat_to_json(system.rhs[i])}
          for i, _ in system.eq_pairs]
    return {"vars": system.n_vars, "le": le, "eq": eq}


def system_from_json(obj) -> InequalitySystem:
    _expect(obj, dict, "$", "a system object")
    _expect_keys(obj, "$", ("vars",), ("le", "eq"))
    n = _expect(obj["vars"], int, "$.vars", "an int")
    if n < 1:
        raise SchemaError("$.vars", "need at least one variable")
    system = InequalitySystem(n)
    for i, r in enumerate(_expect(obj.get("le", []), list, "$.le", "a list")):
        p = f"$.le[{i}]"
        _expect(r, dict, p, "a row object")
        _expect_keys(r, p, ("a", "b"))
        system.add_le(_row_from_json(r["a"], f"{p}.a", n),
                      rat_from_json(r["b"], f"{p}.b"))
    for i, r in enumerate(_expect(obj.get("eq", []), list, "$.eq", "a list")):
        p = f"$.eq[{i}]"
        _expect(r, dict, p, "a row object")
        _expect_keys(r, p, ("a", "b"))
        system.add_eq(_row_from_json(r["a"], f"{p}.a", n),
                      rat_from_json(r["b"], f"{p}.b"))
    return system


def affine_to_json(aff: AffineSystem) -> dict:
    """One-way dump of a lattice-quotient equation system."""
    rows = []
    for row in aff.rows:
        ent = []
        for j, c in sorted(row.items()):
            ent.append([j, list(c) if isinstance(c, tuple) else c])
        rows.append(ent)
    return {
        "quotient": _diagonal_matrix(aff.layout.lattice),
        "width": aff.layout.width,
        "rows": rows,
        "rhs": [list(e.vector) for e in aff.rhs],
    }
