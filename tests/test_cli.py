import json
import time

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


@pytest.mark.parametrize("kind", ["plain", "defect"])
def test_tqft_eval_eight_seams_over_gf_3_8(tmp_path, capsys, kind):
    # two facets joined by 8 seams: an 8^8-term sum unless the seams fold
    seams = []
    for i in range(8):
        if kind == "plain":
            seams.append({"kind": "plain", "ends": [["f1", f"a{i}"], ["f2", f"b{i}"]]})
        else:
            seams.append({"kind": "defect", "sigma": f"frob^{i % 3 + 1}",
                          "source": ["f1", f"a{i}"], "target": ["f2", f"b{i}"]})
    doc = {
        "backend": {"kind": "finite", "p": 3, "degrees": [1, 8]},
        "facets": [
            {"id": "f1", "genus": 0, "label": "F", "dots": ["x^5+2*x+1"],
             "boundary": [f"a{i}" for i in range(8)]},
            {"id": "f2", "genus": 1, "label": "F", "dots": ["x^7+x^2"],
             "boundary": [f"b{i}" for i in range(8)]},
        ],
        "seams": seams,
    }
    path = tmp_path / "eight.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    code = run(["--json", "tqft", "eval", "--surface", str(path), "--both"])
    elapsed = time.perf_counter() - t0
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    status = {a["name"]: a["status"] for a in report["assertions"]}
    assert status["evaluators_agree"] == "PASS"
    assert elapsed < 2.0


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


@pytest.mark.parametrize("mode", ["symbolic", "grid"])
def test_verify_chenlouck(mode, capsys):
    for f in ([], ["--f", "s1^2 + s2^2 + 3"]):
        assert run(["verify", "chenlouck", "--m", "4", "--d", "2",
                    "--mode", mode] + f) == 0
        assert "PASS  chenlouck m=4 d=2" in capsys.readouterr().out
    # a dot that is not symmetric in the slots is bad input
    assert run(["verify", "chenlouck", "--m", "4", "--d", "2", "--mode", mode,
                "--f", "s1"]) == 2


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


def test_suite_full(capsys):
    assert run(["--json", "suite", "full"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [a["status"] for a in report["assertions"]] == ["PASS"] * 13


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


def test_failing_assertion_exit_1(tmp_path, capsys, monkeypatch):
    # every check holds on valid input, so the FAIL is forced: a coloring
    # evaluation that is off by one must be reported, with exit 1
    from foamlib import tqft2d

    evaluate = tqft2d.evaluate_coloring
    monkeypatch.setattr(tqft2d, "evaluate_coloring", lambda s: evaluate(s) + 1)
    doc = {
        "backend": {"kind": "numberfield", "f": "x^2-2", "roots": ["x", "-x"]},
        "facets": [{"id": "f", "genus": 0, "label": "F", "dots": ["x^2"],
                    "boundary": []}],
        "seams": [],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code = run(["tqft", "eval", "--surface", str(path), "--both"])
    out = capsys.readouterr().out
    assert code == 1
    assert "PASS  evaluate_neck  = 4" in out
    assert "PASS  evaluate_coloring  = 5" in out
    assert "FAIL  evaluators_agree" in out


def test_number_field_root_that_is_no_embedding_exit_2(tmp_path, capsys):
    # QQ[x]/(x^3 - x) is not a field: the "root" 0 satisfies f but sends
    # x^2 and x to 0 alike, so it gives no field embedding; bad input
    doc = {
        "backend": {"kind": "numberfield", "f": "x^3-x", "roots": ["x", "-x", "0"]},
        "facets": [{"id": "f", "genus": 0, "label": "F", "dots": ["x^2"],
                    "boundary": []}],
        "seams": [],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code = run(["tqft", "eval", "--surface", str(path), "--both"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "supplied root 0 is no field embedding: its power matrix is singular" \
        in captured.err
    assert "Traceback" not in captured.err


def _sphere_over(tmp_path, f, roots, dots):
    doc = {
        "backend": {"kind": "numberfield", "f": f, "roots": roots},
        "facets": [{"id": "f", "genus": 0, "label": "F", "dots": dots,
                    "boundary": []}],
        "seams": [],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_number_field_roots_not_closed_under_composition_exit_2(tmp_path, capsys):
    # QQ[x]/(x^3 - x) is QQ^3; each of the three maps x -> r is invertible,
    # but (-x) composed with r3 = 1 + x/2 - 3x^2/2 is no supplied root, so
    # the maps form no group; evaluate_coloring used to FAIL (exit 1) here
    r3 = "1 + 1/2*x - 3/2*x^2"
    path = _sphere_over(tmp_path, "x^3-x", ["x", "-x", r3], ["x"])
    code = run(["tqft", "eval", "--surface", path, "--both"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert ("supplied roots are not closed under composition: "
            "-x at x = -3/2*x^2 + 1/2*x + 1 is no supplied root") in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("dots, value", [(["x"], "0"), (["x^2"], "2")])
def test_reducible_number_field_with_a_root_group_agrees(tmp_path, capsys, dots, value):
    # QQ[x]/(x^2 - 1) is QQ^2, and {x, -x} is closed under composition
    path = _sphere_over(tmp_path, "x^2-1", ["x", "-x"], dots)
    code = run(["tqft", "eval", "--surface", path, "--both"])
    out = capsys.readouterr().out
    assert code == 0
    assert f"PASS  evaluate_neck  = {value}" in out
    assert f"PASS  evaluate_coloring  = {value}" in out
    assert "PASS  evaluators_agree" in out


def test_both_on_a_table_backend_exit_2(torus_sigma_file, capsys):
    # a table algebra has no root colorings: asking for them is bad input
    code = run(["--json", "tqft", "eval", "--surface", torus_sigma_file, "--both"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "coloring evaluation needs a separable field backend (got table)" \
        in captured.err


# ------------------------------------------- bad input exits 2, never raises

def test_mf_trace_without_p_exit_2(capsys):
    assert run(["mf", "trace", "--f", "x^2-2"]) == 2
    assert "--p" in capsys.readouterr().err


def test_mf_hessian_negative_trials_exit_2(capsys):
    assert run(["mf", "hessian", "--f", "x^3-x-1", "--trials", "-1"]) == 2
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["verify", "sylvester", "--mode", "grid"], "--mode"),
    (["verify", "sylvester", "--f", "s1"], "--f"),
    (["verify", "exchange", "--p", "1"], "--p"),
    (["verify", "exchange", "--f", "s1"], "--f"),
    (["verify", "chenlouck", "--q", "0"], "--q"),
    (["verify", "chenlouck", "--p", "0", "--q", "0"], "--p"),
    (["verify", "dksv", "--f", "s1+s2"], "--f"),
    (["verify", "dksv", "--q", "1"], "--q"),
    (["verify", "exchange", "--d", "3"], "--d"),
    (["verify", "exchange", "--size-x", "2"], "--size-x"),
    (["verify", "exchange", "--size-e", "4"], "--size-e"),
    (["verify", "sylvester", "--d", "2"], "--d"),
    (["verify", "sylvester", "--size-x", "0"], "--size-x"),
    (["verify", "chenlouck", "--n", "3"], "--n"),
    (["verify", "chenlouck", "--size-e", "2"], "--size-e"),
    (["mf", "backend", "--f", "x^2-2", "--p", "x"], "--p"),
    (["mf", "backend", "--f", "x^2-2", "--trials", "3"], "--trials"),
    (["mf", "trace", "--f", "x^2-2", "--p", "x", "--trials", "3"], "--trials"),
    (["mf", "hessian", "--f", "x^3-x-1", "--p", "x"], "--p"),
    (["web", "qmoy", "--p", "5"], "--p"),
    (["web", "qmoy", "--f", "x^2+1"], "--f"),
    (["web", "decompose", "--p", "2", "--f", "x^3+x+1", "--N", "4"], "--N"),
    (["wreath", "d4-table", "-n", "7"], "-n"),
])
def test_verify_option_its_identity_does_not_read_exit_2(argv, option, capsys):
    # every subcommand refuses a value of an option its action never reads
    assert run(argv) == 2
    assert f"does not read {option}" in capsys.readouterr().err


def test_verify_sylvester_accepts_the_default_mode(capsys):
    # symbolic is the default, so naming it changes nothing observable
    assert run(["verify", "sylvester", "--m", "1", "--n", "1", "--mode", "symbolic"]) == 0


@pytest.mark.parametrize("argv", [
    ["verify", "sylvester", "--m", "1", "--n", "1", "--d", "1", "--size-x", "1",
     "--size-e", "3"],
    ["verify", "chenlouck", "--m", "1", "--d", "1", "--n", "2"],
    ["mf", "backend", "--f", "x^2-2", "--trials", "10"],
    ["web", "qmoy", "--N", "2", "--parts", "1,1", "--p", "2"],
    ["web", "decompose", "--p", "2", "--f", "x^3+x+1", "--N", "3"],
    ["wreath", "d4-table", "-n", "2"],
], ids=lambda argv: " ".join(argv[:2]))
def test_an_unread_option_at_its_default_is_accepted(argv, capsys):
    assert run(argv) == 0


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


def test_dksv_d_beyond_m_exit_2(capsys):
    assert run(["verify", "dksv", "--m", "2", "--n", "1", "--d", "3",
                "--size-x", "0", "--size-e", "5"]) == 2
    assert capsys.readouterr().err == "error: d = 3 out of range for m = 2\n"


def test_chen_louck_error_is_independent_of_the_hash_seed():
    # the degree guard walks the dot's variables in sorted order, so every
    # interpreter names the same one
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    errors = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "foamlib.cli", "verify", "chenlouck", "--m", "4",
             "--d", "0"], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, done.stderr
        errors.add(done.stderr)
    assert errors == {"error: dot polynomial has degree 1 > d = 0 in s1\n"}


@pytest.mark.parametrize("action", ["classes", "oor"])
def test_wreath_enumeration_beyond_n4_exit_2(action, capsys):
    # G(5) has 2^31 elements; the enumeration is refused, not attempted
    assert run(["wreath", action, "-n", "5"]) == 2
    assert "n <= 4" in capsys.readouterr().err


@pytest.mark.parametrize("action", ["facts", "classes", "oor", "d4-table"])
def test_wreath_n0_no_traceback(action, capsys):
    # G(0) is trivial: a check that needs the root swap refuses n = 0 with
    # exit 2; the rest may answer, but none may raise out of run()
    code = run(["--json", "wreath", action, "-n", "0"])
    assert code in (0, 2)
    if action in ("facts", "oor"):
        assert code == 2
        assert "n >= 1" in capsys.readouterr().err


def test_huge_characteristic_exit_2(capsys):
    assert run(["mf", "trace", "--char", str(10**400), "--f", "x^2+1", "--p", "x"]) == 2
    assert "below" in capsys.readouterr().err
    # a large prime is certified at once, not by trial division
    assert run(["mf", "trace", "--char", "1000000000000000003",
                "--f", "x^2+1", "--p", "x"]) == 0


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


def test_id_sigma_below_the_top_level(tmp_path, capsys):
    # a level-1 defect over a three-level tower: "id" is the level's identity
    tower = {"kind": "finite", "p": 3, "degrees": [1, 2, 4]}
    values = []
    for sigma in ("id", "frob^0"):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(_defect_torus(backend=tower, sigma=sigma)))
        assert run(["--json", "tqft", "eval", "--surface", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        values.append([a["value"] for a in report["assertions"]
                       if a["name"] == "evaluate_neck"])
    assert values == [["2"], ["2"]]


def test_id_sigma_on_the_rational_level_exit_2(tmp_path, capsys):
    # QQ below a number field has scalar elements and no automorphism matrix
    nf = {"kind": "numberfield", "f": "x^2-2", "roots": ["x", "-x"]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_defect_torus(backend=nf, sigma="id", label=0)))
    assert run(["--json", "tqft", "eval", "--surface", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "automorphism" in err
    assert "Traceback" not in err


def test_number_field_dot_on_the_rational_level(tmp_path, capsys):
    # a dot on level k of a number field is a rational constant
    nf = {"kind": "numberfield", "f": "x^2-2", "roots": ["x", "-x"]}
    path = tmp_path / "s.json"

    def sphere(dot):
        path.write_text(json.dumps({"backend": nf, "seams": [], "facets": [
            {"id": "f", "genus": 0, "label": "k", "dots": [dot], "boundary": []}]}))
        return run(["--json", "tqft", "eval", "--surface", str(path), "--both"])

    assert sphere("1/3") == 0
    report = json.loads(capsys.readouterr().out)
    values = {a["name"]: a["value"] for a in report["assertions"]}
    assert values["evaluate_neck"] == values["evaluate_coloring"] == "1/3"
    assert sphere("x") == 2
    assert "not a constant polynomial: x" in capsys.readouterr().err


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


def test_random_mode_is_gone():
    assert run(["verify", "exchange", "--mode", "random"]) == 2


# ---------------------------------------------- one parser for every run()

def _run_alone(argv, capsys):
    """Exit code and stdout of argv on a parser that no other call used."""
    from foamlib import cli

    cli._parser.cache_clear()
    return run(argv), capsys.readouterr().out


@pytest.mark.parametrize("first, second", [
    (["verify", "sylvester", "--m", "-1"], ["--json", "verify", "sylvester"]),
    (["web", "qmoy", "--N", "x"], ["--json", "web", "qmoy"]),
    (["--json", "--seed", "3", "web", "qmoy", "--N", "4", "--parts", "1,1,2"],
     ["--json", "web", "qmoy"]),
    (["--json", "verify", "exchange", "--m", "1", "--n", "1", "--mode", "grid"],
     ["verify", "exchange", "--m", "1"]),
    (["--json", "mf", "trace", "--f", "x^2-2", "--p", "x^3", "--char", "3"],
     ["--json", "mf", "backend", "--f", "x^2-2"]),
    (["--help"], ["--json", "wreath", "facts", "-n", "1"]),
    (["verify", "--help"], ["--json", "verify", "exchange", "--m", "1", "--n", "1"]),
    (["--json", "wreath", "classes", "-n", "3"], ["--seed", "1", "bogus"]),
], ids=["error-valid", "bad-type-valid", "options-defaults", "mode-defaults",
        "trace-backend", "help-valid", "subhelp-valid", "valid-error"])
def test_parser_reuse_leaks_no_state(first, second, capsys):
    from foamlib import cli

    alone = [_run_alone(first, capsys), _run_alone(second, capsys)]
    cli._parser.cache_clear()
    together = []
    for argv in (first, second):
        together.append((run(argv), capsys.readouterr().out))
    assert together == alone


def test_build_parser_runs_once_over_many_runs(monkeypatch, capsys):
    from foamlib import cli

    build_parser = cli.build_parser
    builds = []

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for n in range(1, 4):
        assert run(["--json", "wreath", "classes", "-n", str(n)]) == 0
        assert run(["web", "qmoy", "--N", str(n), "--parts", str(n)]) == 0
        assert run(["verify", "exchange", "--d", str(n + 1)]) == 2
    assert run(["--help"]) == 0
    assert len(builds) == 1
    # build_parser itself still returns a new parser on every call
    assert build_parser() is not build_parser()


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


# SHA-256 of the --json stdout of every README command, plus the largest
# Sylvester sum; taken before MultiPoly moved onto packed keys (the symbolic
# `verify dksv` before closed sides became coset sums), and never
# regenerated, so any change to a report's bytes fails here.
_README_JSON_DIGESTS = {
    "foamlib tqft eval --surface demos/surfaces/genus2_three_defects.json --both":
        "b720b34c2761a9757e11f59460b9f751c031b5d175f51d1751b23af3a4fb9904",
    "foamlib tqft eval --surface demos/surfaces/cubic_defects.json --both":
        "0a0a3c7d3fb8771e792bfc1197e8d96a3a4fafd93a1f4078d34e2a952f7d48bb",
    "foamlib tqft eval --surface demos/surfaces/torus_sigma.json":
        "d40dd84bd06b1ff160c7d681bab98b6a8b217e18634c8fb71229655e28ed4460",
    "foamlib verify sylvester --m 2 --n 1 --p 1 --q 0":
        "38424c2de57a7fe01b8a590aa04086cd224266a02ab262dc257ffae6a53ca704",
    "foamlib verify exchange --m 3 --n 3 --mode symbolic":
        "45df758c278ac54be09078ade0f659b828123bfad1ad8883e4e0fb5643204e1e",
    "foamlib verify chenlouck --m 4 --d 2":
        "f639706221714dc1bde670e3164f6eb9cd03d8d7d734f3d915208de234f11f79",
    "foamlib verify dksv --m 2 --n 2 --d 1 --size-x 1 --size-e 3":
        "6a4c0d226f306f3d46e4707ff615fffaf0b9ad00c319829b9fc542e78b719072",
    "foamlib verify dksv --m 2 --n 2 --d 1 --size-x 1 --size-e 3 --mode grid":
        "8c3f40af4262e7353c024c26a3ea899e76b9ec5a699cfb72db8147d4dc9620d6",
    'foamlib mf trace --f "x^2-2" --p "x^3"':
        "173f9e979db4877eb8ec6a49ac4ee2e3de16a10d0e42f39b5d2175a36945f4b3",
    'foamlib mf hessian --f "x^3-x-1" --trials 10':
        "2c03fbe940f5fd8e064b5cf70918852fdbc26510706b52feee3891a83cf4d939",
    'foamlib mf backend --f "x^2-2"':
        "2cf3f6e57a014114330b3e13add7c90cdd009d74e97767813f3026a06e4a36b1",
    "foamlib wreath facts -n 3":
        "2fbb4e61ed93d355970aa036128dc6a5d8bca5a2670bb82623bba2d6bd69097a",
    "foamlib wreath d4-table":
        "bf07ba6dd41bee9f62d29a33694cd396b28c3824ae640d478dbd42282b64acc5",
    "foamlib wreath oor -n 4":
        "b25821928b19edad192b6bc56d0fa839a94a524650c102fa57035050a8734da5",
    "foamlib web qmoy --N 4 --parts 1,1,2":
        "e741e307f583db740734e8d69fd3d15b3c811197abaea88ac6dd1417d55e0701",
    'foamlib web decompose --p 2 --f "x^3+x+1" --parts 1,1,1':
        "ef4ef9cda20e608a0f803f29e32422f4bd023ff4d0e656b0c43e47836edcc901",
    "foamlib suite smoke":
        "e74499fae49f48bc9f88840a79fd1fae927413b5da0f2da3332567b37dea4d1e",
    "foamlib suite full":
        "5bb353688f6911c7790964972d8492055b06afe75f5e696333b27e20d4561299",
    "foamlib verify sylvester --m 4 --n 4 --p 4 --q 4":
        "95461b31959abbda86d58a25d3fdcb471c5713121093269104cc5a6410c2bb09",
}


def test_readme_commands_json_is_byte_identical(monkeypatch, capsys):
    import hashlib
    import shlex
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    block = (root / "README.md").read_text().split("## Command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    commands = [line for line in lines if line.startswith("foamlib ")]
    commands.append("foamlib verify sylvester --m 4 --n 4 --p 4 --q 4")
    assert sorted(commands) == sorted(_README_JSON_DIGESTS)
    # input_digest hashes the paths as given, relative to the repo root
    monkeypatch.chdir(root)
    for line in commands:
        assert run(["--json"] + shlex.split(line)[1:]) == 0, line
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == _README_JSON_DIGESTS[line], line


def _reports():
    from foamlib.cli import RunReport

    yield RunReport("suite", "0123456789abcdef", 0)  # no assertions
    failing = RunReport("verify", "fedcba9876543210", 3)
    failing.add("first", True, "1")
    failing.add("second", False)
    yield failing
    negative = RunReport("web", "", -17)
    negative.add("value at q=1", True, "-2")
    yield negative
    odd = RunReport('sub "quoted"\\', "\u00e9\n", 2**70)
    odd.add('say "hi"\\ back\nslash\ttab', True,
            "caf\u00e9 \u2203 \U0001d53d \x00\x1f \u2028 </script>")
    odd.add("\u00e9", False, '"\\\n"')
    yield odd


def test_report_json_is_json_dumps_byte_for_byte():
    for report in _reports():
        want = json.dumps(
            {"subcommand": report.subcommand, "input_digest": report.input_digest,
             "seed": report.seed, "assertions": report.assertions, "ok": report.ok},
            indent=2, sort_keys=True,
        )
        assert report.to_json() == want


# sha256 of the --json stdout of the whole-group wreath passes and of
# `suite full`, taken before the passes were rewritten; `wreath facts -n 3`,
# `wreath d4-table` and `suite smoke` are pinned with the README commands
_WREATH_JSON_DIGESTS = {
    "wreath facts -n 1": "26f359c462a7fca5f7cdf853133502274d6b031ff2f8e9fb037c10fc74b9523c",
    "wreath facts -n 2": "7a37249030ef2372832d17c2454dae463ed495e27667fe4b6956dfe525398175",
    "wreath facts -n 4": "d0efc6d02e65e0b737020ed4beb2ef5ad73d9c478ad1cad91d32e428b844084b",
    "wreath classes -n 1": "cd64f5b5fd73ac2cd07b495fa02cb124a1426f2627559a1b697515da1265f4cc",
    "wreath classes -n 2": "7c3a812a35a1763f32d234180da5e7dfb11ead66272762e9ec42135ab683a672",
    "wreath classes -n 3": "c123e658bf5f1cb6d6c488039c660dc8b54d75b83decf86492d43dee7664b1de",
    "wreath classes -n 4": "f1f5ef692dc46779205c7a13b507562d21cad4a2b3c3abd460134eb158b12ec2",
    "wreath oor -n 1": "97480fbee3f7a89fe537cb5463852605e55524cdb20cca8e1f0b121eb37bc7c6",
    "wreath oor -n 2": "ed856e5e41c5e2f0c4aeccd5b4b212c4431acaba832817f4dae8e0edafb5eed4",
    "wreath oor -n 3": "a19ddf2d89555440bf1d0236640a47632b9e462ee1c7c6eb5620ea6e135ed260",
    "wreath oor -n 4": "b25821928b19edad192b6bc56d0fa839a94a524650c102fa57035050a8734da5",
    "suite full": "5bb353688f6911c7790964972d8492055b06afe75f5e696333b27e20d4561299",
}


@pytest.mark.parametrize("command", sorted(_WREATH_JSON_DIGESTS))
def test_wreath_and_suite_json_is_pinned(command, capsys):
    import hashlib

    assert run(["--json"] + command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _WREATH_JSON_DIGESTS[command]


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
