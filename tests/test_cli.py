"""Command line interface: exit codes, report payloads, error paths."""

import json
import os
import subprocess
import sys

import pytest

import powerlat
from powerlat import Edge, bases, build_multiset, graphic_matroid, weighted_graph
from powerlat.cli import main

from test_instances import MALFORMED_SPECS
from test_lattice import FIGURE_COVERS, FIGURE_ELEMENTS

M22 = {"type": "multiset", "exponents": [2, 2]}
BOOL3 = {"type": "boolean", "n": 3}
BOOL4 = {"type": "boolean", "n": 4}
U2_COMPLEX = {"lattice": M22, "facets": [[2, 0], [1, 1], [0, 2]]}
TRIANGLE_COMPLEX = {"lattice": BOOL3, "facets": [["a", "b"], ["b", "c"], ["a", "c"]]}
DISJOINT_COMPLEX = {"lattice": BOOL4, "facets": [["a", "b"], ["c", "d"]]}
NONPURE_COMPLEX = {"lattice": BOOL4, "facets": [["a", "b"], ["c"]]}
PRIVATE_ATOM_COMPLEX = {"lattice": BOOL3, "facets": [["a", "c"], ["b", "c"]]}
U2_MATROID = {
    "lattice": M22,
    "independents": [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]],
}
BROKEN_MATROID = {"lattice": M22, "independents": [[0, 0], [2, 0]]}
SPLIT_BASES_MATROID = {
    "lattice": M22,
    "independents": [[0, 0], [1, 0], [0, 1], [2, 0], [0, 2]],
}
TRIANGLE_GRAPH = {
    "vertices": ["u", "v", "w"],
    "edges": [
        {"id": "e", "u": "u", "v": "v"},
        {"id": "f", "u": "v", "v": "w"},
        {"id": "g", "u": "u", "v": "w"},
    ],
}
MALFORMED_GRAPHS = [
    {"vertices": ["u", "v"], "edges": [{"id": [1], "u": "u", "v": "v"}]},
    {"vertices": ["u", "v"], "edges": [{"u": ["u"], "v": "v"}]},
    {"vertices": ["u", "v"], "edges": 5},
    {"vertices": 5, "edges": [{"u": "u", "v": "v"}]},
    {"vertices": ["u", "v"], "edges": [{"u": "u", "v": "v", "wt": True}]},
    {"vertices": ["u", "v"], "edges": [{"u": "u", "v": "v", "wt": 2.0}]},
]
REMARK_MC = {"box": [3, 3], "facets": [[2, 2], [1, 3]]}
SINGLE_MC = {"box": [3, 3], "facets": [[2, 2]]}
U2_MC = {"box": [2, 2], "facets": [[2, 0], [1, 1], [0, 2]]}
MALFORMED_MULTICOMPLEXES = [
    {"box": 5, "facets": [[1]]},
    {"box": [2, 2], "facets": 7},
    {"box": [2, 2], "facets": [[True, 1]]},
]
IDEAL_FILE = {"vars": 2, "gens": [[2, 1], [1, 2]]}
MALFORMED_IDEALS = [
    {"vars": 2, "gens": 5},
    {"vars": True, "gens": [[1]]},
]
MALFORMED_COMPLEXES = [
    {"lattice": BOOL3, "facets": 3},
    {"lattice": BOOL3, "facets": 1.5},
]
MALFORMED_SIMPLICIAL = [
    {"vertices": ["a", "b"], "facets": [[True], [False, True]]},
    {"vertices": ["a", "b"], "facets": [["a", False]]},
    {"vertices": ["a"], "facets": 5},
    {"vertices": ["a"], "facets": None},
]
MALFORMED_MATROIDS = [
    {"lattice": M22, "independents": None},
    {"lattice": M22, "independents": 4},
]
FIGURE = {"type": "hasse", "elements": FIGURE_ELEMENTS, "covers": FIGURE_COVERS}


@pytest.fixture
def write(tmp_path):
    def _write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jrun(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestLattice:
    def test_verify_ok(self, capsys, write):
        code, rep, _ = jrun(capsys, "lattice", "verify", write("b3.json", BOOL3))
        assert code == 0 and rep["ok"] and rep["complete"]
        assert {c["name"] for c in rep["checks"]} >= {
            "lattice_laws",
            "semimodularity",
            "rank_by_total_valuation",
        }
        assert "elapsed_s" in rep

    def test_verify_failing_lattice(self, capsys, write):
        code, rep, _ = jrun(capsys, "lattice", "verify", write("fig.json", FIGURE))
        assert code == 1 and not rep["ok"]
        bad = [c for c in rep["checks"] if c["name"] == "rank_by_total_valuation"]
        assert not bad[0]["passed"]
        assert {bad[0]["witness"]["x"], bad[0]["witness"]["y"]} == {"2", "3"}

    def test_info(self, capsys, write):
        code, rep, _ = jrun(capsys, "lattice", "info", write("b3.json", BOOL3))
        assert code == 0
        assert rep["elements"] == 8 and rep["top_rank"] == 3
        assert rep["atoms"] == ["{a}", "{b}", "{c}"]

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "lattice", "verify", "/nonexistent/x.json")
        assert code == 2 and "error:" in err

    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, out, err = run(capsys, "lattice", "verify", str(p))
        assert code == 2 and "error:" in err

    def test_deeply_nested_json(self, capsys, tmp_path):
        # past the decoder's recursion limit the input is unusable, not a
        # defect: exit 2, with neither a traceback nor an exception type
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000)
        code, out, err = run(capsys, "lattice", "info", str(p))
        assert code == 2 and err.startswith("error:") and not out
        assert "Traceback" not in err and "RecursionError" not in err

    @pytest.mark.parametrize("spec", MALFORMED_SPECS, ids=json.dumps)
    def test_malformed_spec(self, capsys, write, spec):
        code, out, err = run(capsys, "lattice", "verify", write("bad.json", spec))
        assert code == 2 and err.startswith("error:") and not out

    def test_budget_keeps_verdict_open(self, capsys, write):
        code, rep, _ = jrun(
            capsys, "lattice", "verify", write("b4.json", BOOL4), "--budget", "40"
        )
        assert code == 0 and rep["ok"] and not rep["complete"]

    def test_text_mode(self, capsys, write):
        code, out, err = run(
            capsys, "lattice", "info", write("b3.json", BOOL3), "--text"
        )
        assert code == 0
        assert "elements: 8" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


class TestComplexShell:
    def test_default_order(self, capsys, write):
        code, rep, _ = jrun(
            capsys, "complex", "shell", write("u2.json", U2_COMPLEX)
        )
        assert code == 0 and rep["ok"]
        assert rep["order"] == ["x_1^2", "x_1*x_2", "x_2^2"]

    def test_explicit_bad_order(self, capsys, write):
        code, rep, _ = jrun(
            capsys,
            "complex",
            "shell",
            write("u2.json", U2_COMPLEX),
            "--order",
            "0,2,1",
        )
        assert code == 1 and not rep["ok"] and "witness" in rep

    def test_order_wrong_length(self, capsys, write):
        code, out, err = run(
            capsys,
            "complex",
            "shell",
            write("u2.json", U2_COMPLEX),
            "--order",
            "0,1",
        )
        assert code == 2

    def test_search_failure(self, capsys, write):
        code, rep, _ = jrun(
            capsys,
            "complex",
            "shell",
            write("dis.json", DISJOINT_COMPLEX),
            "--search",
        )
        assert code == 1 and rep["detail"] == "no shelling (exhaustive)"

    def test_search_success(self, capsys, write):
        code, rep, _ = jrun(
            capsys,
            "complex",
            "shell",
            write("tri.json", TRIANGLE_COMPLEX),
            "--search",
        )
        assert code == 0 and rep["found_by"] == "search" and len(rep["order"]) == 3

    def test_non_pure(self, capsys, write):
        code, rep, _ = jrun(
            capsys, "complex", "shell", write("np.json", NONPURE_COMPLEX)
        )
        assert code == 1
        assert rep["witness"]["reason"] == "not pure"

    def test_empty_facets(self, capsys, write):
        code, out, err = run(
            capsys,
            "complex",
            "shell",
            write("empty.json", {"lattice": M22, "facets": []}),
        )
        assert code == 2

    def test_lattice_by_file_reference(self, capsys, write):
        write("host.json", M22)
        ref = {"lattice": "host.json", "facets": [[2, 0], [1, 1], [0, 2]]}
        code, rep, _ = jrun(capsys, "complex", "shell", write("ref.json", ref))
        assert code == 0 and rep["ok"]

    @pytest.mark.parametrize("cx", MALFORMED_COMPLEXES, ids=json.dumps)
    def test_malformed_facets(self, capsys, write, cx):
        code, out, err = run(capsys, "complex", "shell", write("c.json", cx))
        assert code == 2 and err.startswith("error:") and not out


class TestComplexOrder:
    def test_chains(self, capsys, write):
        code, rep, _ = jrun(capsys, "complex", "order", write("u2.json", U2_COMPLEX))
        assert code == 0 and rep["count"] == 4
        assert rep["chains"][0] == ["1", "x_1", "x_1^2"]

    def test_homology_of_cone(self, capsys, write):
        code, rep, _ = jrun(
            capsys,
            "complex",
            "order",
            write("u2.json", U2_COMPLEX),
            "--homology",
        )
        assert code == 0 and rep["reduced_betti"] == [0, 0, 0]

    def test_sphere_check(self, capsys, write):
        code, rep, _ = jrun(
            capsys,
            "complex",
            "order",
            write("u2.json", U2_COMPLEX),
            "--sphere-check",
        )
        assert code == 0 and rep["shelling_check"]["ok"]

    def test_chain_order_flag(self, capsys, write):
        code, rep, _ = jrun(
            capsys,
            "complex",
            "order",
            write("u2.json", U2_COMPLEX),
            "--chain-order",
            "shelling",
        )
        assert code == 0 and rep["chain_order"] == "shelling"

    def test_lex_and_shelling_name_one_order(self, capsys, write):
        # the prescribed order fails here, so the witnesses are compared too
        path = write("private.json", PRIVATE_ATOM_COMPLEX)
        reps = {}
        for name in ("lex", "shelling"):
            code, rep, _ = jrun(
                capsys, "complex", "order", path, "--chain-order", name, "--sphere-check"
            )
            assert code == 1 and rep["chain_order"] == name
            reps[name] = rep
        assert reps["lex"]["chains"] == reps["shelling"]["chains"]
        assert reps["lex"]["shelling_check"] == reps["shelling"]["shelling_check"]
        check = reps["lex"]["shelling_check"]
        assert check["chains"] == 4 and check["witness"]["chain_j"] == ["{}", "{b}", "{b,c}"]

    def test_non_pure_complex_refused(self, capsys, write):
        code, out, err = run(
            capsys, "complex", "order", write("np.json", NONPURE_COMPLEX), "--sphere-check"
        )
        assert code == 2 and "chains must have equal length" in err

    def test_budget(self, capsys, write):
        code, out, err = run(
            capsys,
            "complex",
            "order",
            write("u2.json", U2_COMPLEX),
            "--budget",
            "3",
        )
        assert code == 2 and "error:" in err


class TestComplexHomologyAndSphere:
    @pytest.mark.parametrize("sc", MALFORMED_SIMPLICIAL, ids=json.dumps)
    def test_malformed_simplicial_file(self, capsys, write, sc):
        # JSON booleans are not vertex indexes, and the facets are a list
        code, out, err = run(capsys, "complex", "homology", write("sc.json", sc))
        assert code == 2 and err.startswith("error:") and not out

    def test_simplicial_file(self, capsys, write):
        sc = {
            "vertices": ["a", "b", "c"],
            "facets": [["a", "b"], ["b", "c"], ["a", "c"]],
        }
        code, rep, _ = jrun(capsys, "complex", "homology", write("sc.json", sc))
        assert code == 0 and rep["reduced_betti"] == [0, 1]
        # not a cone: the star of vertex a leaves the edge bc to eliminate
        assert rep["work"]["faces"] == 7 and rep["work"]["star"] == 6
        assert [b["rows"] for b in rep["work"]["boundaries"]] == [0, 1]

    def test_pcomplex_file(self, capsys, write):
        code, rep, _ = jrun(
            capsys, "complex", "homology", write("u2.json", U2_COMPLEX)
        )
        assert code == 0 and rep["reduced_betti"] == [0, 0, 0]
        # an order complex keeps the bottom, so it is a cone over it and
        # the star of its busiest vertex leaves no row to eliminate
        work = rep["work"]
        assert work["budget"] == 10_000 and work["faces"] == work["star"] > 0
        assert [b["rows"] for b in work["boundaries"]] == [0, 0, 0]

    def test_sphere_all_elements(self, capsys, write):
        code, rep, _ = jrun(capsys, "complex", "sphere", write("b3.json", BOOL3))
        assert code == 0 and rep["ok"] and rep["checked"] == 4
        assert all(row["ok"] for row in rep["results"])

    def test_sphere_single_element(self, capsys, write):
        code, rep, _ = jrun(
            capsys,
            "complex",
            "sphere",
            write("m22.json", M22),
            "--element",
            "[1,1]",
        )
        assert code == 0 and rep["checked"] == 1
        assert rep["results"][0]["element"] == "x_1*x_2"

    def test_sphere_atom_rejected(self, capsys, write):
        code, out, err = run(
            capsys,
            "complex",
            "sphere",
            write("m22.json", M22),
            "--element",
            "[1,0]",
        )
        assert code == 2

    def test_sphere_deeply_nested_element(self, capsys, write):
        code, out, err = run(
            capsys, "complex", "sphere", write("m22.json", M22), "--element", "[" * 100_000
        )
        assert code == 2 and err == "error: --element takes a JSON element encoding\n" and not out


class TestMatroid:
    def test_verify_ok(self, capsys, write):
        code, rep, _ = jrun(capsys, "matroid", "verify", write("m.json", U2_MATROID))
        assert code == 0 and rep["ok"]

    def test_verify_broken(self, capsys, write):
        code, rep, _ = jrun(
            capsys, "matroid", "verify", write("m.json", BROKEN_MATROID)
        )
        assert code == 1
        bad = [c for c in rep["checks"] if c["name"] == "I2_downward_closed"][0]
        assert bad["witness"] == {"x": "x_1^2", "missing": "x_1"}

    def test_bases(self, capsys, write):
        code, rep, _ = jrun(capsys, "matroid", "bases", write("m.json", U2_MATROID))
        assert code == 0
        assert rep["bases"] == ["x_1^2", "x_1*x_2", "x_2^2"]
        assert rep["equal_rank"] and rep["count"] == 3

    def test_shelling(self, capsys, write):
        code, rep, _ = jrun(
            capsys, "matroid", "shelling", write("m.json", U2_MATROID)
        )
        assert code == 0 and rep["ok"]
        assert rep["order"] == ["x_1^2", "x_1*x_2", "x_2^2"]

    def test_exchange(self, capsys, write):
        code, rep, _ = jrun(
            capsys,
            "matroid",
            "exchange",
            write("m.json", U2_MATROID),
            "--x",
            "[2,0]",
            "--y",
            "[0,2]",
            "--a",
            "[0,1]",
        )
        assert code == 0 and rep["u"] == "x_1" and rep["b"] == "x_1"

    @pytest.mark.parametrize("flag", ["--x", "--y", "--a"])
    def test_exchange_deeply_nested_element(self, capsys, write, flag):
        flags = {"--x": "[2,0]", "--y": "[0,2]", "--a": "[0,1]", flag: "[" * 100_000}
        argv = [t for pair in flags.items() for t in pair]
        code, out, err = run(capsys, "matroid", "exchange", write("m.json", U2_MATROID), *argv)
        assert code == 2 and err == f"error: {flag} takes a JSON element encoding\n" and not out

    def test_exchange_requires_flags(self, capsys, write):
        code, out, err = run(
            capsys, "matroid", "exchange", write("m.json", U2_MATROID)
        )
        assert code == 2

    def test_exchange_no_pair(self, capsys, write):
        code, rep, _ = jrun(
            capsys,
            "matroid",
            "exchange",
            write("m.json", SPLIT_BASES_MATROID),
            "--x",
            "[2,0]",
            "--y",
            "[0,2]",
            "--a",
            "[0,1]",
        )
        assert code == 1 and rep["detail"] == "no dual exchange pair exists"

    def test_graph_reference(self, capsys, write):
        write("tri.json", TRIANGLE_GRAPH)
        code, rep, _ = jrun(
            capsys, "matroid", "verify", write("m.json", {"graph": "tri.json"})
        )
        assert code == 0 and rep["ok"]

    def test_inline_graph(self, capsys, write):
        code, rep, _ = jrun(
            capsys,
            "matroid",
            "bases",
            write("m.json", {"graph": TRIANGLE_GRAPH}),
        )
        assert code == 0 and rep["count"] == 3

    @pytest.mark.parametrize("m", MALFORMED_MATROIDS, ids=json.dumps)
    def test_malformed_independents(self, capsys, write, m):
        code, out, err = run(capsys, "matroid", "verify", write("m.json", m))
        assert code == 2 and err.startswith("error:") and not out


class TestGraph:
    def test_matroid_emission_round_trips(self, capsys, write, tmp_path):
        code, rep, _ = jrun(
            capsys, "graph", "matroid", write("tri.json", TRIANGLE_GRAPH)
        )
        assert code == 0
        assert rep["matroid"]["lattice"]["type"] == "multiset"
        assert rep["matroid"]["lattice"]["exponents"] == [1, 1, 1]
        emitted = tmp_path / "emitted.json"
        emitted.write_text(json.dumps(rep["matroid"]))
        code2, rep2, _ = jrun(capsys, "matroid", "verify", str(emitted))
        assert code2 == 0 and rep2["ok"]

    @pytest.mark.parametrize("graph", MALFORMED_GRAPHS, ids=json.dumps)
    def test_malformed_graph(self, capsys, write, graph):
        code, out, err = run(capsys, "graph", "matroid", write("g.json", graph))
        assert code == 2 and err.startswith("error:") and not out
        assert "multiset lattice" not in err


class TestStanleyReisner:
    def test_ideal(self, capsys, write):
        code, rep, _ = jrun(capsys, "sr", "ideal", write("mc.json", U2_MC))
        assert code == 0
        assert rep["generators"] == ["x_1^2*x_2", "x_1*x_2^2"]
        assert rep["gens"] == [[2, 1], [1, 2]]

    def test_ideal_raw_format(self, capsys, write):
        code, out, err = run(
            capsys, "sr", "ideal", write("mc.json", U2_MC), "--format", "m2"
        )
        assert code == 0
        assert out.strip() == "R = QQ[x_1,x_2]\nI = monomialIdeal(x_1^2*x_2, x_1*x_2^2)"

    def test_section_check_witness(self, capsys, write):
        code, rep, _ = jrun(
            capsys, "sr", "section-check", write("mc.json", REMARK_MC)
        )
        assert code == 1 and not rep["equal"] and rep["witness"] == "x_2^4"

    def test_section_check_equal(self, capsys, write):
        code, rep, _ = jrun(
            capsys, "sr", "section-check", write("mc.json", SINGLE_MC)
        )
        assert code == 0 and rep["equal"]

    def test_section_check_counts_its_work(self, capsys, write):
        code, rep, _ = jrun(
            capsys, "sr", "section-check", write("mc.json", REMARK_MC)
        )
        assert code == 1
        assert rep["work"] == {
            "box_positions": 16,
            "meet_closure": 3,
            "peak_generators": 3,
            "generator_limit": 1000,
        }

    def test_polarize(self, capsys, write):
        code, rep, _ = jrun(capsys, "sr", "polarize", write("mc.json", REMARK_MC))
        assert code == 0
        assert len(rep["polarized_complex"]["facets"]) == 5

    def test_shell_polarized(self, capsys, write):
        code, rep, _ = jrun(
            capsys, "sr", "shell-polarized", write("mc.json", REMARK_MC)
        )
        assert code == 0 and rep["ok"] and not rep["constructed_order_ok"]
        assert rep["witness"] == {"i": 0, "j": 3}

    def test_shell_polarized_explicit_order(self, capsys, write):
        code, rep, _ = jrun(
            capsys,
            "sr",
            "shell-polarized",
            write("mc.json", REMARK_MC),
            "--order",
            "1,0",
        )
        assert code == 0
        assert rep["multicomplex_order"] == ["x_1*x_2^3", "x_1^2*x_2^2"]

    def test_shell_polarized_rejects_non_shelling_order(self, capsys, write):
        code, out, err = run(
            capsys,
            "sr",
            "shell-polarized",
            write("mc.json", U2_MC),
            "--order",
            "0,2,1",
        )
        assert code == 2

    def test_top_face_rejected(self, capsys, write):
        code, out, err = run(
            capsys,
            "sr",
            "ideal",
            write("mc.json", {"box": [2, 2], "facets": [[2, 2]]}),
        )
        assert code == 2

    @pytest.mark.parametrize("mc", MALFORMED_MULTICOMPLEXES, ids=json.dumps)
    def test_malformed_multicomplex(self, capsys, write, mc):
        code, out, err = run(capsys, "sr", "ideal", write("mc.json", mc))
        assert code == 2 and err.startswith("error:") and not out


class TestExport:
    def test_multicomplex_m2(self, capsys, write):
        code, out, err = run(
            capsys, "export", write("mc.json", U2_MC), "--format", "m2"
        )
        assert code == 0
        assert out.strip() == "R = QQ[x_1,x_2]\nI = monomialIdeal(x_1^2*x_2, x_1*x_2^2)"

    def test_ideal_json(self, capsys, write):
        code, out, err = run(
            capsys, "export", write("id.json", IDEAL_FILE), "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"vars": 2, "gens": [[2, 1], [1, 2]]}

    def test_singular(self, capsys, write):
        code, out, err = run(
            capsys, "export", write("id.json", IDEAL_FILE), "--format", "singular"
        )
        assert code == 0 and out.strip().startswith("ring R = 0, (x_1,x_2), dp;")

    def test_unknown_format(self, capsys, write):
        # argparse rejects the choice itself, with the conventional usage exit
        with pytest.raises(SystemExit) as info:
            main(["export", write("id.json", IDEAL_FILE), "--format", "maple"])
        assert info.value.code == 2

    def test_unrecognized_payload(self, capsys, write):
        code, out, err = run(
            capsys, "export", write("x.json", {"foo": 1}), "--format", "m2"
        )
        assert code == 2

    @pytest.mark.parametrize("ideal", MALFORMED_IDEALS, ids=json.dumps)
    def test_malformed_ideal(self, capsys, write, ideal):
        code, out, err = run(
            capsys, "export", write("id.json", ideal), "--format", "json"
        )
        assert code == 2 and err.startswith("error:") and not out


class TestGlobalBehaviors:
    def test_deterministic_output(self, capsys, write):
        path = write("mc.json", REMARK_MC)
        _, rep1, _ = jrun(capsys, "sr", "polarize", path)
        _, rep2, _ = jrun(capsys, "sr", "polarize", path)
        rep1.pop("elapsed_s"), rep2.pop("elapsed_s")
        assert rep1 == rep2

    def test_reports_do_not_depend_on_the_hash_seed(self, write):
        # multiset(2,2) from Hasse data: string keys, whose set order moves
        # with the hash seed; one family fails I2 at three elements, the
        # other I3 at several pairs
        L = build_multiset((2, 2))
        m22 = {
            "type": "hasse",
            "elements": [L.label(x) for x in L.elements()],
            "covers": [[L.label(x), L.label(y)] for x in L.elements() for y in L.covers(x)],
        }
        # A graphic matroid on a 384-element multiset lattice, whose
        # elements hash by identity, so that set order follows memory
        # addresses: its bases, its independence complex's chain order, and
        # the family with one basis dropped, which fails I3
        edges = [("a", "b", 1), ("b", "c", 1), ("a", "c", 1), ("c", "d", 1),
                 ("b", "d", 1), ("a", "d", 1), ("a", "b", 2), ("c", "d", 1)]
        G = graphic_matroid(weighted_graph(
            ["a", "b", "c", "d"],
            [Edge(f"e{i}", u, v, wt) for i, (u, v, wt) in enumerate(edges, 1)],
        ))
        GL = G.host
        host = {"type": "multiset", "exponents": list(GL.exponents), "labels": list(GL.labels)}
        graph_bases = bases(G)
        assert GL.element_count() > 256
        paths = [
            write("i2.json", {"lattice": m22, "independents": ["1", "x_1^2", "x_1*x_2", "x_2^2"]}),
            write("i3.json", {"lattice": m22, "independents": ["1", "x_1", "x_2", "x_1^2", "x_2^2"]}),
        ]
        requests = [("matroid", action, path) for path in paths for action in ("verify", "bases")]
        requests += [
            ("matroid", "bases", write("g.json", {
                "lattice": host, "independents": sorted(list(x.key) for x in G.independents),
            })),
            ("matroid", "verify", write("g3.json", {
                "lattice": host,
                "independents": sorted(
                    list(x.key) for x in G.independents if x is not graph_bases[5]
                ),
            })),
            ("complex", "order", write("gc.json", {
                "lattice": host, "facets": [list(b.key) for b in graph_bases],
            })),
        ]
        src = os.path.dirname(os.path.dirname(powerlat.__file__))
        reports = {}
        for seed in range(4):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            for request in requests:
                done = subprocess.run(
                    [sys.executable, "-m", "powerlat.cli", *request],
                    env=env, capture_output=True, text=True, timeout=60,
                )
                rep = json.loads(done.stdout)
                rep.pop("elapsed_s")
                reports.setdefault(request, []).append(rep)
        for request, reps in reports.items():
            assert all(rep == reps[0] for rep in reps), request
            if request[1] == "verify":
                assert not reps[0]["ok"]

    def test_atom_order_changes_listing_not_verdict(self, capsys, write):
        path = write("m.json", U2_MATROID)
        _, rep_default, _ = jrun(capsys, "matroid", "bases", path)
        code, rep_flip, _ = jrun(
            capsys, "matroid", "bases", path, "--atom-order", "1,0"
        )
        assert code == 0
        assert rep_flip["bases"] == list(reversed(rep_default["bases"]))
        assert rep_flip["equal_rank"]

    def test_atom_order_before_subcommand(self, capsys, write):
        path = write("m.json", U2_MATROID)
        code, rep, _ = jrun(capsys, "--atom-order", "1,0", "matroid", "bases", path)
        assert code == 0 and rep["bases"][0] == "x_2^2"

    def test_bad_atom_order(self, capsys, write):
        code, out, err = run(
            capsys,
            "matroid",
            "bases",
            write("m.json", U2_MATROID),
            "--atom-order",
            "0,0",
        )
        assert code == 2
