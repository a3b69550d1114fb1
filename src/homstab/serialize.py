"""JSON (de)serialization of modules, morphisms, and complexes.

Matrices are row-major arrays of decimal integer strings (strings carry
arbitrary precision losslessly; plain integers are accepted on input).
Rings are {"kind": "Z"} or {"kind": "ZmodN", "n": ...}.  Deserialization
re-verifies every invariant (well-definedness witnesses, d.d = 0) and
reports schema violations with a location.
"""

from __future__ import annotations

from .errors import NotAComplex, NotWellDefined, SchemaError
from .exactlin import IntMat, RingDesc, ZZ, Zmod
from .fpmod import FPModule, Morphism, make_module, make_morphism
from .uct import Complex, make_complex


def serialize_ring(ring: RingDesc) -> dict:
    if ring.modulus is None:
        return {"kind": "Z"}
    return {"kind": "ZmodN", "n": ring.modulus}


def _integer(x) -> int:
    """int(x), refusing the values int() would silently coerce: bools and
    fractional floats (integral floats and decimal strings are accepted)."""
    if isinstance(x, bool) or isinstance(x, float) and not x.is_integer():
        raise TypeError(f"not an integer: {x!r}")
    return int(x)


def parse_ring(doc, where="ring") -> RingDesc:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError(f"{where}: expected an object with a 'kind' field")
    if doc["kind"] == "Z":
        return ZZ
    if doc["kind"] == "ZmodN":
        try:
            return Zmod(_integer(doc["n"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{where}: ZmodN needs an integer n >= 2") from exc
    raise SchemaError(f"{where}: unknown ring kind {doc['kind']!r}")


def serialize_matrix(mat: IntMat) -> list:
    return [[str(x) for x in row] for row in mat.data]


def parse_matrix(doc, rows=None, cols=None, where="matrix") -> IntMat:
    if not isinstance(doc, list) or any(not isinstance(r, list) for r in doc):
        raise SchemaError(f"{where}: expected an array of arrays")
    if not doc and rows == 0:
        # a 0-row matrix loses its width in row-major form; restore it
        return IntMat.zeros(0, cols or 0)
    try:
        mat = IntMat.from_rows([[_integer(x) for x in row] for row in doc])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: entries must be integers or decimal "
                          f"strings") from exc
    except Exception as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    if rows is not None and mat.rows != rows:
        raise SchemaError(f"{where}: expected {rows} rows, got {mat.rows}")
    if cols is not None and mat.cols != cols:
        raise SchemaError(f"{where}: expected {cols} columns, got {mat.cols}")
    return mat


def serialize_module(m: FPModule) -> dict:
    return {"ring": serialize_ring(m.ring), "gens": m.gens,
            "relations": serialize_matrix(m.rel)}


def parse_module(doc, where="module") -> FPModule:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    ring = parse_ring(doc.get("ring"), f"{where}.ring")
    gens = doc.get("gens")
    if not isinstance(gens, int) or isinstance(gens, bool) or gens < 0:
        raise SchemaError(f"{where}.gens: expected a nonnegative integer")
    rel_doc = doc.get("relations", [])
    # [] is the free module: a gens x 0 matrix has no rows to write
    rel = IntMat.zeros(gens, 0) if rel_doc == [] else parse_matrix(
        rel_doc, rows=gens, where=f"{where}.relations")
    return make_module(ring, rel, gens=gens)


def serialize_morphism(f: Morphism) -> dict:
    return {"source": serialize_module(f.source),
            "target": serialize_module(f.target),
            "matrix": serialize_matrix(f.mat)}


def parse_morphism(doc, where="morphism") -> Morphism:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    source = parse_module(doc.get("source"), f"{where}.source")
    target = parse_module(doc.get("target"), f"{where}.target")
    mat = parse_matrix(doc.get("matrix"), rows=target.gens, cols=source.gens,
                       where=f"{where}.matrix")
    try:
        return make_morphism(source, target, mat)
    except NotWellDefined as exc:
        raise NotWellDefined(f"{where}: {exc}") from exc


def serialize_complex(c: Complex) -> dict:
    return {"ring": serialize_ring(c.ring),
            "support": [c.lo, c.hi],
            "terms": [serialize_module(t) for t in c.terms],
            "differentials": [serialize_matrix(d.mat) for d in c.diffs]}


def parse_complex(doc, where="complex") -> Complex:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    ring = parse_ring(doc.get("ring"), f"{where}.ring")
    support = doc.get("support", [0, None])
    if (not isinstance(support, list) or len(support) != 2
            or not isinstance(support[0], int) or isinstance(support[0], bool)):
        raise SchemaError(f"{where}.support: expected [lo, hi]")
    terms_doc = doc.get("terms")
    if not isinstance(terms_doc, list) or not terms_doc:
        raise SchemaError(f"{where}.terms: expected a nonempty array")
    hi = support[1]  # the last degree, fixed by lo and the terms
    if hi is not None and (type(hi) is not int
                           or hi != support[0] + len(terms_doc) - 1):
        raise SchemaError(f"{where}.support: expected hi = lo + "
                          f"{len(terms_doc) - 1} or null")
    terms = [parse_module(t, f"{where}.terms[{i}]")
             for i, t in enumerate(terms_doc)]
    diffs_doc = doc.get("differentials", [])
    if not isinstance(diffs_doc, list) or len(diffs_doc) != len(terms) - 1:
        raise SchemaError(f"{where}.differentials: expected an array of "
                          f"{len(terms) - 1} matrices")
    diffs = []
    for i, d in enumerate(diffs_doc):
        mat = parse_matrix(d, rows=terms[i].gens, cols=terms[i + 1].gens,
                           where=f"{where}.differentials[{i}]")
        try:
            diffs.append(make_morphism(terms[i + 1], terms[i], mat))
        except NotWellDefined as exc:
            raise NotWellDefined(
                f"{where}.differentials[{i}]: {exc}") from exc
    try:
        return make_complex(ring, terms, diffs, lo=support[0])
    except NotAComplex as exc:
        raise NotAComplex(f"{where}: {exc}") from exc

