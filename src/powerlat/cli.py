"""Command line front end.

Commands::

    powerlat lattice verify|info FILE
    powerlat complex shell FILE [--order CSV | --search]
    powerlat complex order FILE [--chain-order lex|shelling] [--homology] [--sphere-check]
        (lex and shelling name one order: reverse lexicographic, tops first)
    powerlat complex homology FILE
    powerlat complex sphere FILE [--element JSON]
    powerlat matroid verify|bases|shelling|exchange FILE [--x/--y/--a JSON]
    powerlat graph matroid FILE
    powerlat sr ideal|section-check|polarize|shell-polarized FILE
    powerlat export FILE --format m2|singular|json

Reports go to stdout as JSON; --text renders the same content as indented
lines.  Exit codes: 0 the property holds or output was produced, 1 the
property fails and the report carries a witness, 2 usage or input error,
3 an internal consistency check failed (a defect, with no verdict).
File formats are the JSON encodings of the owning modules; a complex file's
"lattice" value may be an inline description or the name of a lattice file
resolved relative to the complex file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .instances import _sequence, lattice_from_obj
from .lattice import (
    BudgetError,
    LatticeInputError,
    PowerLattice,
    verify_power_lattice,
)
from .matroid import (
    Matroid,
    bases,
    check_equal_rank,
    dual_exchange_witness,
    graph_from_obj,
    graph_to_obj,
    graphic_matroid,
    matroid_shelling,
    verify_independence_axioms,
)
from .ordercomplex import (
    SimplicialComplex,
    _chain_order_report,
    _reduced_betti_work,
    order_complex,
    reduced_betti,
    sphere_order_shelling_check,
)
from .pcomplex import PComplex, find_shelling, verify_shelling
from .stanley_reisner import (
    Multicomplex,
    export_ideal,
    minimal_nonfaces,
    polarize_ideal,
    polarized_complex,
    polarized_shelling,
    section_ring_check,
)


# ---------------------------------------------------------------------------
# input loading


def _load_json(path: str):
    # input nested past the decoder's recursion limit is unusable, not a defect
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise LatticeInputError(f"{path} nests JSON too deeply to decode") from None


def _referenced(value, path: str):
    # a string names a JSON file, relative to the referencing file `path`
    if isinstance(value, str):
        return _load_json(os.path.join(os.path.dirname(path), value))
    return value


def _load_lattice(path: str) -> PowerLattice:
    obj = _load_json(path)
    if isinstance(obj, dict) and "lattice" in obj:
        return lattice_from_obj(_referenced(obj["lattice"], path))
    return lattice_from_obj(obj)


def _load_pcomplex(path: str) -> PComplex:
    obj = _load_json(path)
    if not isinstance(obj, dict) or "lattice" not in obj or "facets" not in obj:
        raise LatticeInputError("a complex file needs 'lattice' and 'facets'")
    L = lattice_from_obj(_referenced(obj["lattice"], path))
    facets = _sequence(obj["facets"], "the facets")
    return PComplex(L, [L.element_from_obj(f) for f in facets])


def _load_matroid(path: str) -> Matroid:
    obj = _load_json(path)
    if isinstance(obj, dict) and "graph" in obj:
        return graphic_matroid(graph_from_obj(_referenced(obj["graph"], path)))
    if isinstance(obj, dict) and "edges" in obj:
        return graphic_matroid(graph_from_obj(obj))
    if not isinstance(obj, dict) or "lattice" not in obj or "independents" not in obj:
        raise LatticeInputError(
            "a matroid file needs 'lattice' and 'independents', or a graph's 'vertices' and 'edges'"
        )
    L = lattice_from_obj(_referenced(obj["lattice"], path))
    independents = _sequence(obj["independents"], "the independents")
    return Matroid(L, frozenset(L.element_from_obj(x) for x in independents))


def _load_multicomplex(path: str) -> Multicomplex:
    return Multicomplex.from_obj(_load_json(path))


def _parse_atom_order(text):
    if text is None:
        return None
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise LatticeInputError("--atom-order takes comma separated integers") from None


def _parse_index_order(text: str, count: int, what: str) -> list:
    try:
        idx = [int(p) for p in text.split(",")]
    except ValueError:
        raise LatticeInputError(f"--order takes comma separated {what} indices") from None
    if sorted(idx) != list(range(count)):
        raise LatticeInputError(
            f"--order must be a permutation of the {count} {what} indices 0..{count - 1}"
        )
    return idx


def _parse_element(L: PowerLattice, text: str, flag: str):
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError):  # too deep to decode: unusable, not a defect
        raise LatticeInputError(f"{flag} takes a JSON element encoding") from None
    return L.element_from_obj(obj)


# ---------------------------------------------------------------------------
# output


def _fmt_scalar(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if v is None:
        return "none"
    return str(v)


def _walk(lines: list, key, value, indent: int):
    pad = "  " * indent
    if isinstance(value, dict):
        lines.append(f"{pad}{key}:")
        for k, v in value.items():
            _walk(lines, k, v, indent + 1)
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            lines.append(f"{pad}{key}: " + ", ".join(_fmt_scalar(v) for v in value))
        else:
            lines.append(f"{pad}{key}:")
            for v in value:
                if isinstance(v, dict):
                    lines.append(f"{pad}  -")
                    for k2, v2 in v.items():
                        _walk(lines, k2, v2, indent + 2)
                elif isinstance(v, list):
                    lines.append(f"{pad}  " + ", ".join(_fmt_scalar(x) for x in v))
                else:
                    lines.append(f"{pad}  {_fmt_scalar(v)}")
    else:
        lines.append(f"{pad}{key}: {_fmt_scalar(value)}")


def _render_text(report: dict) -> str:
    lines: list = []
    for k, v in report.items():
        _walk(lines, k, v, 0)
    return "\n".join(lines)


def _emit(report: dict, as_text: bool):
    if as_text:
        print(_render_text(report))
    else:
        print(json.dumps(report, indent=2))


# ---------------------------------------------------------------------------
# commands; each returns (exit code, report)


def _cmd_lattice(args):
    L = _load_lattice(args.file)
    if args.action == "info":
        counts = [len(L.elements_of_rank(l)) for l in range(L.top_rank + 1)]
        report = {
            "command": "lattice info",
            "input": args.file,
            "kind": L.describe(),
            "top_rank": L.top_rank,
            "elements": sum(counts),
            "rank_counts": counts,
            "atoms": [L.label(a) for a in L.atoms],
        }
        return 0, report
    rep = verify_power_lattice(L, budget=args.budget)
    report = {"command": "lattice verify", "input": args.file}
    report.update(rep.to_obj())
    return (0 if rep.ok else 1), report


def _cmd_complex(args):
    atom_order = _parse_atom_order(args.atom_order)
    report: dict = {"command": f"complex {args.action}", "input": args.file}

    if args.action == "shell":
        C = _load_pcomplex(args.file)
        if not C.is_pure():
            ranks = sorted({f.rank for f in C.facets})
            report.update(
                {
                    "ok": False,
                    "witness": {"reason": "not pure", "facet_ranks": ranks},
                    "detail": "complex is not pure",
                }
            )
            return 1, report
        if args.search:
            found = find_shelling(C, atom_order=atom_order)
            if found is None:
                report.update({"ok": False, "detail": "no shelling (exhaustive)"})
                return 1, report
            report.update(
                {
                    "ok": True,
                    "order": [C.lattice.label(f) for f in found],
                    "found_by": "search",
                }
            )
            return 0, report
        order = None
        if args.order is not None:
            idx = _parse_index_order(args.order, len(C.facets), "facet")
            order = [C.facets[i] for i in idx]
        rep = verify_shelling(C, order, atom_order)
        report.update(rep.to_obj())
        return (0 if rep.ok else 1), report

    if args.action == "order":
        C = _load_pcomplex(args.file)
        L = C.lattice
        # lex and shelling name one order; a non-pure complex raises here
        rep = _chain_order_report(C, atom_order, args.budget)
        report["chain_order"] = args.chain_order
        report["count"] = rep.chains
        report["chains"] = [list(map(L.label, chain)) for chain in rep.order]
        code = 0
        if args.homology:
            sc = order_complex(C, budget=args.budget)
            report["reduced_betti"] = list(reduced_betti(sc, budget=args.budget))
        if args.sphere_check:
            report["shelling_check"] = rep.to_obj()
            code = 0 if rep.ok else 1
        return code, report

    if args.action == "homology":
        obj = _load_json(args.file)
        if isinstance(obj, dict) and "vertices" in obj and "lattice" not in obj:
            sc = SimplicialComplex.from_obj(obj)
        else:
            C = _load_pcomplex(args.file)
            sc = order_complex(C, budget=args.budget)
        betti, work = _reduced_betti_work(sc, args.budget)
        report["reduced_betti"] = list(betti)
        report["work"] = work
        return 0, report

    # sphere: the reverse lexicographic chain order shells every sphere
    L = _load_lattice(args.file)
    if args.element is not None:
        targets = [_parse_element(L, args.element, "--element")]
        if targets[0].rank < 2:
            raise LatticeInputError("a sphere check needs an element of rank at least 2")
    else:
        targets = [
            x for l in range(2, L.top_rank + 1) for x in L.elements_of_rank(l)
        ]
    rows = []
    ok = True
    for x in targets:
        rep = sphere_order_shelling_check(L, x, atom_order, budget=args.budget)
        row = {"element": L.label(x), "rank": x.rank, "chains": rep.chains, "ok": rep.ok}
        if rep.witness is not None:
            row["witness"] = rep.witness
        if rep.detail:
            row["detail"] = rep.detail
        rows.append(row)
        ok = ok and rep.ok
    report.update({"ok": ok, "checked": len(rows), "results": rows})
    return (0 if ok else 1), report


def _cmd_matroid(args):
    atom_order = _parse_atom_order(args.atom_order)
    M = _load_matroid(args.file)
    L = M.host
    report: dict = {"command": f"matroid {args.action}", "input": args.file}

    if args.action == "verify":
        rep = verify_independence_axioms(M, budget=args.budget)
        report.update(rep.to_obj())
        return (0 if rep.ok else 1), report

    if args.action == "bases":
        B = bases(M, atom_order)
        report.update(
            {
                "count": len(B),
                "equal_rank": check_equal_rank(B),
                "bases": [L.label(b) for b in B],
            }
        )
        return 0, report

    if args.action == "shelling":
        rep = matroid_shelling(M, atom_order)
        report.update(rep.to_obj())
        return (0 if rep.ok else 1), report

    # exchange: dual basis exchange witness for (x, y, a)
    if args.x is None or args.y is None or args.a is None:
        raise LatticeInputError("matroid exchange needs --x, --y and --a")
    x = _parse_element(L, args.x, "--x")
    y = _parse_element(L, args.y, "--y")
    a = _parse_element(L, args.a, "--a")
    B = bases(M, atom_order)
    pair = dual_exchange_witness(L, B, x, y, a)
    if pair is None:
        report.update({"ok": False, "detail": "no dual exchange pair exists"})
        return 1, report
    u, b = pair
    report.update({"ok": True, "u": L.label(u), "b": L.label(b)})
    return 0, report


def _cmd_graph(args):
    G = graph_from_obj(_load_json(args.file))
    M = graphic_matroid(G)
    L = M.host
    ind = sorted(M.independents, key=L.sort_key)
    report = {
        "command": "graph matroid",
        "input": args.file,
        "graph": graph_to_obj(G),
        "matroid": {
            "lattice": {
                "type": "multiset",
                "exponents": [e.wt for e in G.edges],
                "labels": [e.id for e in G.edges],
            },
            "independents": [L.element_to_obj(x) for x in ind],
        },
    }
    return 0, report


def _cmd_sr(args):
    delta = _load_multicomplex(args.file)
    report: dict = {"command": f"sr {args.action}", "input": args.file}

    if args.action == "ideal":
        I = minimal_nonfaces(delta)
        if args.format is not None:
            return 0, {"raw": export_ideal(I, args.format)}
        report.update({"vars": I.nvars, "generators": I.labels(), "gens": [list(g) for g in I.gens]})
        return 0, report

    if args.action == "section-check":
        chk = section_ring_check(delta)
        report.update(chk.to_obj())
        return (0 if chk.equal else 1), report

    if args.action == "polarize":
        I = minimal_nonfaces(delta)
        P = polarize_ideal(I)
        sc = polarized_complex(delta)
        report.update(
            {
                "polarized_ideal": P.to_obj(),
                "polarized_complex": sc.to_obj(),
            }
        )
        return 0, report

    # shell-polarized
    order = None
    if args.order is not None:
        idx = _parse_index_order(args.order, len(delta.facets), "facet")
        order = [delta.facets[i] for i in idx]
    rep = polarized_shelling(delta, order)
    report.update(rep.to_obj())
    return (0 if rep.ok else 1), report


def _cmd_export(args):
    obj = _load_json(args.file)
    if isinstance(obj, dict) and "box" in obj:
        I = minimal_nonfaces(Multicomplex.from_obj(obj))
    elif isinstance(obj, dict) and "vars" in obj and "gens" in obj:
        from .stanley_reisner import MonomialIdeal

        I = MonomialIdeal.from_gens(obj["vars"], obj["gens"])
    else:
        raise LatticeInputError(
            "export needs a multicomplex file or an ideal file with 'vars' and 'gens'"
        )
    return 0, {"raw": export_ideal(I, args.format)}


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerlat",
        description="power lattices, complexes, matroids, and monomial ideals",
    )
    parser.set_defaults(text=False, atom_order=None)

    # global flags accepted after the subcommand too; SUPPRESS keeps a
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--text",
        action="store_true",
        default=argparse.SUPPRESS,
        help="render the report as indented text instead of JSON",
    )
    common.add_argument(
        "--atom-order",
        default=argparse.SUPPRESS,
        metavar="CSV",
        help="permutation of atom indices fixing the total orders",
    )
    parser.add_argument("--text", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--atom-order", metavar="CSV", help=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="group", required=True)

    p_lat = sub.add_parser("lattice", parents=[common], help="verify or describe a lattice file")
    p_lat.add_argument("action", choices=["verify", "info"])
    p_lat.add_argument("file")
    p_lat.add_argument("--budget", type=int, default=5_000_000)
    p_lat.set_defaults(run=_cmd_lattice)

    p_cx = sub.add_parser(
        "complex", parents=[common], help="shellings, chains, and homology of a complex"
    )
    p_cx.add_argument("action", choices=["shell", "order", "homology", "sphere"])
    p_cx.add_argument("file")
    p_cx.add_argument("--order", metavar="CSV", help="facet order to verify (shell)")
    p_cx.add_argument("--search", action="store_true", help="search facet orders (shell)")
    p_cx.add_argument(
        "--chain-order",
        choices=["lex", "shelling"],
        default="lex",
        help="chain sort order; lex and shelling name the same reverse"
        " lexicographic order (order)",
    )
    p_cx.add_argument("--homology", action="store_true", help="include Betti numbers (order)")
    p_cx.add_argument(
        "--sphere-check",
        action="store_true",
        help="check that the emitted chain order shells the order complex (order)",
    )
    p_cx.add_argument("--element", metavar="JSON", help="single element to check (sphere)")
    p_cx.add_argument("--budget", type=int, default=10_000)
    p_cx.set_defaults(run=_cmd_complex)

    p_mat = sub.add_parser(
        "matroid", parents=[common], help="matroid axioms, bases, shellings, exchange"
    )
    p_mat.add_argument("action", choices=["verify", "bases", "shelling", "exchange"])
    p_mat.add_argument("file")
    p_mat.add_argument("--budget", type=int, default=5_000_000)
    p_mat.add_argument("--x", metavar="JSON", help="basis element (exchange)")
    p_mat.add_argument("--y", metavar="JSON", help="basis element (exchange)")
    p_mat.add_argument("--a", metavar="JSON", help="atom with v_a(y) > v_a(x) (exchange)")
    p_mat.set_defaults(run=_cmd_matroid)

    p_gr = sub.add_parser(
        "graph", parents=[common], help="weighted graphic matroid of a graph file"
    )
    p_gr.add_argument("action", choices=["matroid"])
    p_gr.add_argument("file")
    p_gr.set_defaults(run=_cmd_graph)

    p_sr = sub.add_parser(
        "sr", parents=[common], help="nonface ideal, section ring check, polarization"
    )
    p_sr.add_argument(
        "action", choices=["ideal", "section-check", "polarize", "shell-polarized"]
    )
    p_sr.add_argument("file")
    p_sr.add_argument(
        "--format", choices=["m2", "singular", "json"], help="export the ideal (ideal)"
    )
    p_sr.add_argument("--order", metavar="CSV", help="facet order to lift (shell-polarized)")
    p_sr.set_defaults(run=_cmd_sr)

    p_ex = sub.add_parser("export", parents=[common], help="export a monomial ideal for a CAS")
    p_ex.add_argument("file")
    p_ex.add_argument("--format", choices=["m2", "singular", "json"], default="m2")
    p_ex.set_defaults(run=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code, report = args.run(args)
    except (LatticeInputError, BudgetError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a bare LatticeError is a failed internal consistency check, which
        # carries no witness; like any other unexpected exception it is a
        # defect, not a verdict
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if "raw" in report and set(report) == {"raw"}:
        print(report["raw"])
        return code
    report["elapsed_s"] = round(time.perf_counter() - started, 6)
    _emit(report, args.text)
    return code


if __name__ == "__main__":
    sys.exit(main())
