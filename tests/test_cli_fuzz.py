"""Every one-field mutation of valid request files through the CLI.

In each valid request file of every command, each field in turn is
replaced by a bool, a float, a string, null, a list, a dict or a huge
integer, or deleted.  Run in-process through `cli.main`, every mutation must exit 0, 1
or 2 without a traceback: 0 and 1 print a JSON report, 2 names the input
error, and 3 (an internal defect) never happens.  This pins the CLI
boundary; it fixes no known bug.  The mutated requests are handed to the
CLI's file loader as JSON text rather than written to disk one by one:
under I/O load the writes alone took half of a 40 s run.
"""

import copy
import json

import pytest

from powerlat import cli

from test_cli import BOOL3, FIGURE, IDEAL_FILE, M22, REMARK_MC, TRIANGLE_GRAPH, U2_COMPLEX, U2_MATROID

F = "FILE"
_DELETE = object()
_REPLACEMENTS = (True, 1.5, "x", None, [1, "x"], {"type": "x"}, 10**30, _DELETE)

# (valid request file, the command lines that read it as F)
_REQUESTS = (
    (BOOL3, (["lattice", "verify", F], ["lattice", "info", F], ["complex", "sphere", F])),
    ({"type": "divisor", "n": 12}, (["lattice", "verify", F],)),
    ({"type": "subspace", "q": 3, "n": 2}, (["lattice", "verify", F],)),
    (
        {"type": "product", "factors": [{"type": "boolean", "n": 1}, M22]},
        (["lattice", "verify", F],),
    ),
    (FIGURE, (["lattice", "verify", F],)),
    (
        U2_COMPLEX,
        (
            ["complex", "shell", F],
            ["complex", "shell", F, "--search"],
            ["complex", "order", F, "--homology", "--sphere-check"],
            ["complex", "homology", F],
        ),
    ),
    ({"vertices": ["a", "b", "c"], "facets": [["a", "b"], ["b", "c"]]}, (["complex", "homology", F],)),
    (U2_MATROID, (["matroid", "verify", F], ["matroid", "bases", F], ["matroid", "shelling", F])),
    ({"graph": TRIANGLE_GRAPH}, (["matroid", "verify", F],)),
    (
        {"vertices": ["u", "v", "w"], "edges": [{"u": "u", "v": "v", "wt": 2}, {"u": "v", "v": "w"}]},
        (["graph", "matroid", F],),
    ),
    (
        REMARK_MC,
        (
            ["sr", "ideal", F],
            ["sr", "section-check", F],
            ["sr", "polarize", F],
            ["sr", "shell-polarized", F],
            ["export", F, "--format", "json"],
        ),
    ),
    # the m2 and singular formats print plain text, not a JSON report
    (IDEAL_FILE, (["export", F, "--format", "json"],)),
)


def _fields(obj, path=()):
    """The path to every field below the top of a JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


def _mutated(obj, path, value):
    out = copy.deepcopy(obj)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def _mutations(requests):
    for obj, commands in requests:
        for path in _fields(obj):
            for value in _REPLACEMENTS:
                yield _mutated(obj, path, value), commands


def _run(capsys, path, command):
    code = cli.main([path if arg is F else arg for arg in command])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("requests", [_REQUESTS[:5], _REQUESTS[5:]], ids=["lattices", "complexes"])
def test_one_field_mutations_exit_cleanly(capsys, monkeypatch, tmp_path, requests):
    path = str(tmp_path / "request.json")
    request = {}
    load_file = cli._load_json
    # the request path reads the current mutation; a file it names is read
    # from disk as usual (and is missing)
    monkeypatch.setattr(
        cli, "_load_json", lambda p: json.loads(request["text"]) if p == path else load_file(p)
    )
    codes = {0: 0, 1: 0, 2: 0}
    for obj, commands in _mutations(requests):
        request["text"] = json.dumps(obj)
        for command in commands:
            code, out, err = _run(capsys, path, command)
            tag = (command, json.dumps(obj), code, err)
            assert code in codes, tag
            assert "Traceback" not in err and "Traceback" not in out, tag
            if code in (0, 1):
                json.loads(out)
            else:
                assert err.startswith("error:") and not out, tag
            codes[code] += 1
    # the mutations reach every outcome
    assert min(codes.values()) > 0, codes


def test_valid_requests_pass(capsys, tmp_path):
    path = str(tmp_path / "request.json")
    for obj, commands in _REQUESTS:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        for command in commands:
            code, out, _ = _run(capsys, path, command)
            assert code in (0, 1), command
            json.loads(out)
