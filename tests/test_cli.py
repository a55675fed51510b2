import json

import pytest

from foamlib.cli import run


NILPOTENT_BACKEND = {
    "kind": "table",
    "basis": ["one", "a", "b", "ab"],
    "mult": [
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
        [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    ],
    "trace": [0, 0, 0, 1],
    "unit": [1, 0, 0, 0],
}


@pytest.fixture
def torus_sigma_file(tmp_path):
    doc = {
        "backend": NILPOTENT_BACKEND,
        "facets": [{"id": "f", "genus": 0, "label": "A", "dots": [],
                    "boundary": ["c1", "c2"]}],
        "seams": [{
            "kind": "defect",
            "sigma": {"matrix": [[1, 0, 0, 0], [0, 3, 0, 0],
                                 [0, 0, "1/3", 0], [0, 0, 0, 1]]},
            "source": ["f", "c1"], "target": ["f", "c2"],
        }],
    }
    path = tmp_path / "torus_sigma.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_tqft_eval_torus_sigma(torus_sigma_file, capsys):
    code = run(["tqft", "eval", "--surface", torus_sigma_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "16/3" in out


def test_tqft_eval_both(tmp_path, capsys):
    doc = {
        "backend": {"kind": "finite", "p": 3, "degrees": [1, 2, 4]},
        "facets": [{"id": "f1", "genus": 1, "label": "F", "dots": ["x"],
                    "boundary": ["c1", "c2"]}],
        "seams": [{"kind": "defect", "sigma": "frob^1",
                   "source": ["f1", "c1"], "target": ["f1", "c2"]}],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code = run(["tqft", "eval", "--surface", str(path), "--both"])
    out = capsys.readouterr().out
    assert code == 0
    assert "evaluators_agree" in out


def test_tqft_eval_separate_backend_file(tmp_path, capsys):
    backend_path = tmp_path / "backend.json"
    backend_path.write_text(json.dumps(
        {"kind": "finite", "p": 3, "degrees": [1, 2, 4]}
    ))
    doc = {
        "facets": [
            {"id": "lo", "genus": 0, "label": "F", "boundary": ["c"]},
            {"id": "hi", "genus": 0, "label": "K", "boundary": ["c"]},
        ],
        "seams": [{"kind": "inclusion", "lower": ["lo", "c"],
                   "upper": ["hi", "c"]}],
    }
    surface_path = tmp_path / "sphere.json"
    surface_path.write_text(json.dumps(doc))
    code = run(["tqft", "eval", "--surface", str(surface_path),
                "--backend", str(backend_path), "--both"])
    out = capsys.readouterr().out
    assert code == 0
    assert "evaluators_agree" in out


def test_wreath_facts_n1(capsys):
    assert run(["wreath", "facts", "-n", "1"]) == 0


def test_verify_exchange(capsys):
    code = run(["verify", "exchange", "--m", "3", "--n", "3",
                "--mode", "symbolic"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 4  # d = 0..3


def test_verify_sylvester(capsys):
    code = run(["verify", "sylvester", "--m", "2", "--n", "1",
                "--p", "1", "--q", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "b1 - x" in out


def test_mf_trace(capsys):
    code = run(["mf", "trace", "--f", "x^2-2", "--p", "x^3"])
    out = capsys.readouterr().out
    assert code == 0 and "= 2" in out


def test_mf_hessian(capsys):
    code = run(["mf", "hessian", "--f", "x^3-x-1", "--trials", "10"])
    assert code == 0


def test_mf_backend_emits_json(capsys):
    code = run(["mf", "backend", "--f", "x^2-2"])
    out = capsys.readouterr().out
    assert code == 0
    doc, _ = json.JSONDecoder().raw_decode(out[out.index("{"):])
    assert doc["kind"] == "table"
    assert doc["basis"] == ["one", "x"]


def test_wreath_facts(capsys):
    code = run(["wreath", "facts", "-n", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "128" in out


def test_wreath_oor(capsys):
    code = run(["wreath", "oor", "-n", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "20 = 20" in out


def test_web_qmoy(capsys):
    code = run(["web", "qmoy", "--N", "2", "--parts", "1,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "q + q^-1" in out


def test_web_decompose(capsys):
    code = run(["web", "decompose", "--p", "2", "--f", "x^3+x+1",
                "--parts", "1,1,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "deg 3 x2" in out


def test_suite_smoke(capsys):
    code = run(["suite", "smoke"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out


def test_json_deterministic(capsys):
    run(["--json", "wreath", "d4-table"])
    first = capsys.readouterr().out
    run(["--json", "wreath", "d4-table"])
    second = capsys.readouterr().out
    assert first == second


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["tqft", "eval", "--surface", str(bad)]) == 2


def test_missing_file_exit_2():
    assert run(["tqft", "eval", "--surface", "/nonexistent.json"]) == 2


def test_failing_assertion_exit_1(tmp_path, capsys):
    # a sphere labeled with one field evaluates to [F:k] mod p; force a FAIL
    # by checking both evaluators on a table backend (unsupported coloring)
    doc = {
        "backend": NILPOTENT_BACKEND,
        "facets": [{"id": "f", "genus": 0, "label": "A", "dots": [],
                    "boundary": []}],
        "seams": [],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code = run(["tqft", "eval", "--surface", str(path), "--both"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


# ------------------------------------------- bad input exits 2, never raises

def test_mf_trace_without_p_exit_2(capsys):
    assert run(["mf", "trace", "--f", "x^2-2"]) == 2
    assert "--p" in capsys.readouterr().err


def test_web_decompose_without_f_exit_2(capsys):
    assert run(["web", "decompose", "--p", "2", "--parts", "1,1,1"]) == 2
    assert "--f" in capsys.readouterr().err


def test_surface_without_facets_exit_2(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(
        {"backend": {"kind": "finite", "p": 3, "degrees": [1, 2]}, "seams": []}))
    assert run(["tqft", "eval", "--surface", str(path)]) == 2
    assert "facets" in capsys.readouterr().err


def test_surface_with_non_integer_genus_exit_2(tmp_path, capsys):
    doc = {
        "backend": NILPOTENT_BACKEND,
        "facets": [{"id": "f", "genus": "one", "label": "A", "boundary": []}],
        "seams": [],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run(["tqft", "eval", "--surface", str(path)]) == 2
    assert "genus" in capsys.readouterr().err
    doc["facets"][0]["genus"] = True
    path.write_text(json.dumps(doc))
    assert run(["tqft", "eval", "--surface", str(path)]) == 2


def test_negative_size_exit_2(capsys):
    assert run(["verify", "sylvester", "--m", "-1"]) == 2
    assert "nonnegative" in capsys.readouterr().err
    assert run(["wreath", "facts", "-n", "-1"]) == 2


_TOWER = {"kind": "finite", "p": 3, "degrees": [1, 2]}


def _defect_torus(backend=_TOWER, sigma="frob^1", **facet):
    return {
        "backend": backend,
        "facets": [{"id": "f", "label": 1, "boundary": ["c1", "c2"], **facet}],
        "seams": [{"kind": "defect", "sigma": sigma,
                   "source": ["f", "c1"], "target": ["f", "c2"]}],
    }


_MALFORMED_SURFACES = {
    "facet without id": {"backend": _TOWER, "seams": [],
                         "facets": [{"genus": 0, "boundary": []}]},
    "facet is a list": {"backend": _TOWER, "facets": [["f"]], "seams": []},
    "seam without kind": {
        "backend": _TOWER, "facets": [{"id": "f", "boundary": ["a", "b"]}],
        "seams": [{"ends": [["f", "a"], ["f", "b"]]}]},
    "defect seam without source": {
        "backend": _TOWER, "facets": [{"id": "f", "boundary": ["a", "b"]}],
        "seams": [{"kind": "defect", "sigma": "frob^1", "target": ["f", "b"]}]},
    "root sigma on a finite tower": _defect_torus(sigma={"root": "-x"}),
    "backend is a number": {"backend": 3, "facets": [], "seams": []},
    "dot is not a string": _defect_torus(dots=[5]),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_SURFACES))
def test_malformed_surface_exit_2(name, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_MALFORMED_SURFACES[name]))
    assert run(["--json", "tqft", "eval", "--surface", str(path)]) == 2


def test_float_in_table_backend_exit_2(tmp_path, capsys):
    # 0.1 is a binary fraction in JSON; a table backend takes only exact numbers
    doc = {"backend": {**NILPOTENT_BACKEND, "trace": [0, 0, 0, 0.1]},
           "facets": [{"id": "f", "label": "A", "boundary": []}], "seams": []}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run(["tqft", "eval", "--surface", str(path)]) == 2
    assert "0.1" in capsys.readouterr().err


def test_threads_flag_is_gone():
    assert run(["--threads", "2", "suite", "smoke"]) == 2


def test_readme_commands_parse():
    import shlex
    from pathlib import Path

    from foamlib.cli import build_parser

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = [line.split("#", 1)[0].strip() for line in block.split("```", 1)[0].splitlines()]
    commands = [line for line in lines if line.startswith("foamlib ")]
    assert len(commands) >= 10
    parser = build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])


def test_zero_denominator_in_polynomial_exit_2(capsys):
    assert run(["mf", "trace", "--f", "x^2-2", "--p", "1/0"]) == 2
    assert "nonzero" in capsys.readouterr().err


def test_large_prime_tower_evaluates(tmp_path, capsys):
    # the tower embedding is a root found by splitting, not by a scan of
    # all p^2 elements of the upper field
    doc = {"backend": {"kind": "finite", "p": 10007, "degrees": [1, 2]},
           "facets": [{"id": "f", "genus": 1, "label": "F", "dots": ["x"],
                       "boundary": []}],
           "seams": []}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run(["--json", "tqft", "eval", "--surface", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]


# ------------------------------------------------ fuzzed argv and surfaces

# Small values only: a well-formed command drawn from these runs in well
# under a second, so the fuzz tests exercise input handling, not big jobs.
_ARGV_TOKENS = [
    "tqft", "eval", "verify", "sylvester", "exchange", "chenlouck", "dksv",
    "mf", "trace", "hessian", "backend", "wreath", "facts", "classes",
    "d4-table", "oor", "web", "qmoy", "decompose", "suite", "bogus",
    "--json", "--seed", "--surface", "--backend", "--both", "--m", "--n",
    "--p", "--q", "--d", "--size-x", "--size-e", "--f", "--mode", "--trials",
    "--char", "-n", "--N", "--parts", "--threads", "-h",
    "symbolic", "grid", "random", "-1", "0", "1", "2", "x", "1/2", "1/0", "",
    "x^2-2", "x^3+x+1", "x^", "s1+s2", "1,1", "1,,1", "a,b", "/nonexistent",
    "--m=-2", "--f=x^2", "\x00", "é",
]


_ARGV_PREFIXES = [
    [], ["--json"], ["verify", "sylvester"], ["verify", "exchange"],
    ["verify", "chenlouck"], ["verify", "dksv"], ["mf", "trace", "--f", "x^2-2"],
    ["mf", "hessian", "--f", "x^3-x-1"], ["mf", "backend", "--f", "x^2-2"],
    ["wreath", "facts"], ["wreath", "classes"], ["wreath", "oor"],
    ["web", "qmoy"], ["web", "decompose", "--p", "2"], ["tqft", "eval"],
]


def test_cli_fuzzed_argv_exit_codes(capsys):
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_ARGV_PREFIXES),
           st.lists(st.sampled_from(_ARGV_TOKENS), max_size=6))
    def check(prefix, tail):
        assert run(prefix + tail) in (0, 1, 2)

    check()


_VALID_SURFACES = [
    {"backend": {"kind": "finite", "p": 3, "degrees": [1, 2]},
     "facets": [{"id": "f1", "genus": 1, "label": "F", "dots": ["x"],
                 "boundary": ["c1", "c2"]}],
     "seams": [{"kind": "defect", "sigma": "frob^1",
                "source": ["f1", "c1"], "target": ["f1", "c2"]}]},
    {"backend": {"kind": "numberfield", "f": "x^2-2", "roots": ["x", "-x"]},
     "facets": [{"id": "a", "label": 1, "dots": ["x"], "boundary": ["c"]},
                {"id": "b", "label": 0, "boundary": ["c"]}],
     "seams": [{"kind": "inclusion", "lower": ["b", "c"], "upper": ["a", "c"]}]},
    {"backend": NILPOTENT_BACKEND,
     "facets": [{"id": "f", "genus": 0, "label": "A", "dots": ["a"],
                 "boundary": ["c1", "c2"]}],
     "seams": [{"kind": "plain", "ends": [["f", "c1"], ["f", "c2"]]}]},
]


def _json_values():
    from hypothesis import strategies as st

    leaves = (st.none() | st.booleans() | st.integers(-2, 5)
              | st.sampled_from([0.5, "x", "k", "F", "f1", "c1", "frob^1",
                                 "plain", "defect", "inclusion", "1/3", ""]))
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["id", "kind", "ends", "p", "x"]),
                          inner, max_size=2),
        max_leaves=6)


def _paths(doc, prefix=()):
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def test_cli_fuzzed_surface_exit_codes(tmp_path, capsys):
    import copy

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_VALID_SURFACES), st.data())
    def check(base, data):
        doc = copy.deepcopy(base)
        for _ in range(data.draw(st.integers(1, 3))):
            paths = list(_paths(doc))[1:]
            if not paths:
                break
            path = data.draw(st.sampled_from(paths))
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if data.draw(st.booleans()):
                parent[path[-1]] = data.draw(_json_values())
            else:
                del parent[path[-1]]
        surface = tmp_path / "s.json"
        surface.write_text(json.dumps(doc))
        argv = ["--json", "tqft", "eval", "--surface", str(surface)]
        assert run(argv) in (0, 1, 2)
        assert run(argv + ["--both"]) in (0, 1, 2)

    check()


def test_fraction_without_residue_exit_2(tmp_path, capsys):
    # 1/3 has no value in characteristic 3
    assert run(["mf", "trace", "--char", "3", "--f", "x^2-1/3", "--p", "x"]) == 2
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_defect_torus(dots=["1/3"])))
    assert run(["tqft", "eval", "--surface", str(path)]) == 2
    assert "no residue mod 3" in capsys.readouterr().err
