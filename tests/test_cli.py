"""Serialization round-trips, CLI exit codes, and report determinism."""

import json
import subprocess
import sys

import pytest

from homstab.errors import NotAComplex, NotWellDefined, SchemaError
from homstab.exactlin import ZZ, Zmod
from homstab.fpmod import cyclic
from homstab.instances import InstanceSpec, random_complex, random_module, random_morphism
from homstab.serialize import (
    parse_complex, parse_input, parse_module, parse_morphism,
    serialize_complex, serialize_module, serialize_morphism,
)
from homstab.suites import run_suite
from homstab.cli import main
import random


def test_module_roundtrip_identical_presentation():
    rng = random.Random(1)
    for ring in (ZZ, Zmod(4), Zmod(12)):
        for _ in range(10):
            m = random_module(rng, ring)
            again = parse_module(serialize_module(m))
            assert again == m  # identical presentation matrices


def test_parse_module_spec_example():
    m = parse_input({"ring": {"kind": "Z"}, "gens": 1, "relations": [[2]]})
    assert m == cyclic(ZZ, 2)


def test_parse_morphism_not_well_defined():
    doc = {"source": {"ring": {"kind": "Z"}, "gens": 1, "relations": [[2]]},
           "target": {"ring": {"kind": "Z"}, "gens": 1, "relations": [[4]]},
           "matrix": [["1"]]}
    with pytest.raises(NotWellDefined):
        parse_input(doc)
    doc["matrix"] = [["2"]]
    f = parse_input(doc)
    assert f.mat.data == ((2,),)


def test_parse_complex_rejects_non_complex():
    one = {"ring": {"kind": "Z"}, "gens": 1, "relations": []}
    doc = {"ring": {"kind": "Z"}, "support": [0, 2],
           "terms": [one, one, one],
           "differentials": [[["2"]], [["3"]]]}
    with pytest.raises(NotAComplex):
        parse_input(doc)


def test_schema_errors_with_location():
    with pytest.raises(SchemaError) as err:
        parse_module({"ring": {"kind": "Q"}, "gens": 1})
    assert "ring" in str(err.value)
    with pytest.raises(SchemaError):
        parse_module({"ring": {"kind": "Z"}, "gens": "three"})


def test_morphism_complex_roundtrip():
    rng = random.Random(2)
    m = random_module(rng, Zmod(4))
    n = random_module(rng, Zmod(4))
    f = random_morphism(rng, m, n)
    g = parse_morphism(serialize_morphism(f))
    assert g.source == f.source and g.target == f.target and g.mat == f.mat
    c = random_complex(rng, ZZ, length=4)
    c2 = parse_complex(serialize_complex(c))
    assert c2.terms == c.terms
    assert all(a.mat == b.mat for a, b in zip(c2.diffs, c.diffs))


def test_suite_determinism():
    spec = InstanceSpec(seed=42, ring=Zmod(4), count=12)
    r1 = run_suite("circular-exactness", spec)
    r2 = run_suite("circular-exactness", spec)
    a, b = r1.to_json(), r2.to_json()
    a.pop("duration_ms"), b.pop("duration_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_suite_worker_independence():
    spec = InstanceSpec(seed=7, ring=ZZ, count=8)
    serial = run_suite("ext-tor-oracle", spec, workers=1).to_json()
    parallel = run_suite("ext-tor-oracle", spec, workers=2).to_json()
    serial.pop("duration_ms"), parallel.pop("duration_ms")
    assert serial == parallel


def test_suite_zero_instances_vacuous():
    rep = run_suite("circular-exactness", InstanceSpec(seed=0, ring=ZZ, count=0))
    assert rep.ok and rep.warnings


def test_cli_exit_codes(tmp_path):
    z2 = tmp_path / "z2.json"
    z2.write_text(json.dumps({"ring": {"kind": "Z"}, "gens": 1,
                              "relations": [["2"]]}))
    z4 = tmp_path / "z4.json"
    z4.write_text(json.dumps({"ring": {"kind": "Z"}, "gens": 1,
                              "relations": [["4"]]}))
    assert main(["resolve", "ext", "--A", str(z2), "--B", str(z4), "--i", "1"]) == 0
    assert main(["ext", "--A", str(z2), "--B", str(z4), "--i", "1"]) == 0
    assert main(["module", "invariants", str(z2)]) == 0
    # malformed input: exit 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"ring": {"kind": "Q"}, "gens": 1}))
    assert main(["module", "invariants", str(bad)]) == 2
    # non-projective complex through the classical UCT: exit 2
    z2doc = {"ring": {"kind": "Z"}, "gens": 1, "relations": [["2"]]}
    cplx = tmp_path / "c.json"
    cplx.write_text(json.dumps({
        "ring": {"kind": "Z"}, "support": [0, 1],
        "terms": [z2doc, z2doc], "differentials": [[["0"]]]}))
    assert main(["uct", "classical", "--C", str(cplx), "--B", str(z2),
                 "--n", "1"]) == 2



@pytest.mark.parametrize("action", ["ext", "tor"])
def test_cli_negative_degree_is_usage_error(tmp_path, capsys, action):
    z2 = tmp_path / "z2.json"
    z2.write_text(json.dumps({"ring": {"kind": "Z"}, "gens": 1,
                              "relations": [["2"]]}))
    assert main([action, "--A", str(z2), "--B", str(z2), "--i", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("doc", [
    {"ring": {"kind": "Z"}, "gens": 1, "relations": [[2.5]]},
    {"ring": {"kind": "Z"}, "gens": 1, "relations": [[True]]},
    {"ring": {"kind": "ZmodN", "n": 8.9}, "gens": 1, "relations": [[2]]},
    {"ring": {"kind": "ZmodN", "n": True}, "gens": 1, "relations": [[2]]},
    {"ring": {"kind": "Z"}, "gens": True, "relations": [[2]]},
])
def test_cli_rejects_coercible_non_integers(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["module", "invariants", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    with pytest.raises(SchemaError):
        parse_module(doc)


def test_integral_floats_and_decimal_strings_still_parse():
    doc = {"ring": {"kind": "ZmodN", "n": 8.0}, "gens": 1, "relations": [[2.0]]}
    assert parse_module(doc) == cyclic(Zmod(8), 2)
    doc = {"ring": {"kind": "ZmodN", "n": "8"}, "gens": 1, "relations": [["2"]]}
    assert parse_module(doc) == cyclic(Zmod(8), 2)

def test_cli_suite_and_reports(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--json-out", str(out), "suite", "run", "circular-exactness",
                 "--ring", "Z/4", "--count", "5"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["suite"] == "circular-exactness"
    assert payload["passes"] == 5 and payload["failures"] == []
    assert main(["suite", "run", "no-such-suite"]) == 2
    assert main(["suite", "list"]) == 0


def test_cli_worked_example_prints_invariants(tmp_path, capsys):
    z2 = tmp_path / "z2.json"
    z2.write_text(json.dumps({"ring": {"kind": "Z"}, "gens": 1,
                              "relations": [["2"]]}))
    z4 = tmp_path / "z4.json"
    z4.write_text(json.dumps({"ring": {"kind": "Z"}, "gens": 1,
                              "relations": [["4"]]}))
    main(["ext", "--A", str(z2), "--B", str(z4), "--i", "1"])
    assert capsys.readouterr().out.strip() == "[2]"


def test_cli_sequence_commands(tmp_path):
    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    zdoc = {"ring": {"kind": "Z"}, "gens": 1, "relations": []}
    f.write_text(json.dumps({"source": zdoc, "target": zdoc,
                             "matrix": [["2"]]}))
    g.write_text(json.dumps({"source": zdoc, "target": zdoc,
                             "matrix": [["2"]]}))
    assert main(["seq", "circular", "--f", str(f), "--g", str(g)]) == 0
    assert main(["check", "circular", "--f", str(f), "--g", str(g)]) == 0


def test_cli_split_verdict_failure_is_exit_one(tmp_path):
    # 0 -> Z --2--> Z -> Z/2 -> 0 does not split: a mathematical verdict
    # failure, exit code 1
    zdoc = {"ring": {"kind": "Z"}, "gens": 1, "relations": []}
    z2doc = {"ring": {"kind": "Z"}, "gens": 1, "relations": [["2"]]}
    i = tmp_path / "i.json"
    p = tmp_path / "p.json"
    i.write_text(json.dumps({"source": zdoc, "target": zdoc,
                             "matrix": [["2"]]}))
    p.write_text(json.dumps({"source": zdoc, "target": z2doc,
                             "matrix": [["1"]]}))
    assert main(["seq", "split", "--f", str(i), "--g", str(p)]) == 1


def test_cli_functor_commands(tmp_path):
    z2 = tmp_path / "z2.json"
    z2.write_text(json.dumps({"ring": {"kind": "ZmodN", "n": 4}, "gens": 1,
                              "relations": [["2"]]}))
    z4 = tmp_path / "z4.json"
    z4.write_text(json.dumps({"ring": {"kind": "ZmodN", "n": 4}, "gens": 1,
                              "relations": []}))
    assert main(["functor", "eval", "--functor", f"hom:{z2}", "--at",
                 str(z4)]) == 0
    assert main(["functor", "substab", "--functor", f"tensor:{z2}", "--at",
                 str(z2)]) == 0
    assert main(["functor", "satellite", "--functor", f"hom:{z2}", "--i", "1",
                 "--side", "left", "--at", str(z2)]) == 0
    assert main(["functor", "derived", "--functor", f"ext:{z2}:1", "--i", "2",
                 "--side", "right", "--at", str(z2)]) == 0
    assert main(["functor", "fourterm", "--A", str(z2), "--X", str(z4),
                 "--which", "hom"]) == 0
    assert main(["functor", "torsionradical", "--A", str(z2)]) == 0
    assert main(["ar", "formula", "--A", str(z2), "--B", str(z2)]) == 0
    assert main(["ar", "bidual", "--A", str(z2)]) == 0
    # satellite on the injective side over Z is a capability error: exit 2
    zz2 = tmp_path / "zz2.json"
    zz2.write_text(json.dumps({"ring": {"kind": "Z"}, "gens": 1,
                               "relations": [["2"]]}))
    assert main(["functor", "satellite", "--functor", f"hom:{zz2}",
                 "--i", "1", "--side", "right", "--at", str(zz2)]) == 2


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "homstab.cli", "suite", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "circular-exactness" in proc.stdout


@pytest.mark.parametrize("argv", [
    "seq right-cov --functor hom:{q2} --b {q2} --depth -1",
    "seq left-cov --functor hom:{q2} --b {q2} --depth -1",
    "seq contra-right --functor homcontra:{q2} --b {q2} --depth -1",
    "seq contra-left --functor homcontra:{q2} --b {q2} --depth -1",
    "seq right-cov --functor hom:{z2} --b {z2} --depth -1",
    "functor derived --functor hom:{q2} --i -1 --side right --at {q2}",
    "functor derived --functor hom:{q2} --i -1 --side left --at {q2}",
    "functor derived --functor hom:{z2} --i -1 --side left --at {z2}",
    "functor eval --functor ext:{z2}:-1 --at {z2}",
    "functor eval --functor tor:{z2}:-1 --at {z2}",
    "resolve proj {z2} --depth -1",
    "resolve inj {q2} --depth -1",
    "resolve syzygy {z2} --k -1",
    "resolve cosyzygy {q2} --k -1",
])
def test_cli_negative_depth_index_or_degree_is_usage_error(tmp_path, capsys,
                                                           argv):
    z2 = tmp_path / "z2.json"
    z2.write_text(json.dumps({"ring": {"kind": "Z"}, "gens": 1,
                              "relations": [["2"]]}))
    q2 = tmp_path / "q2.json"
    q2.write_text(json.dumps({"ring": {"kind": "ZmodN", "n": 4}, "gens": 1,
                              "relations": [["2"]]}))
    assert main(argv.format(z2=z2, q2=q2).split()) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""
