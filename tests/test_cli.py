"""Exit codes and JSON output of every CLI subcommand."""

import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topodyn import topology
from topodyn.cli import _dumps, build_parser, main
from topodyn.formula import MAX_NESTING, parse
from topodyn.models import PDLModel, model_from_json
from topodyn.transform import build_network_space, network_space_to_json


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    """A str is written as the file's text as it is, so it may be a document
    json.dumps could not write."""
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj), encoding="utf-8")
    return str(path)


# past the decoder's recursion limit, so reading it raises RecursionError
_DEEP = 100_000


@pytest.fixture()
def pdl_file(tmp_path):
    return write_json(tmp_path, "pdl.json", {
        "type": "pdl", "points": 2, "serial": True,
        "programs": {
            "rand": {"rel": [[0, 0], [0, 1], [1, 0], [1, 1]]},
            "at": {"rel": [[0, 0], [1, 1]]},
        },
        "valuation": {"zero": [0], "one": [1]},
    })


@pytest.fixture()
def swap_file(tmp_path):
    return write_json(tmp_path, "swap.json", {
        "type": "dtl",
        "space": {"points": 2, "opens": [[], [1], [0, 1]]},
        "programs": {"a": {"map": [1, 0]}},
        "valuation": {"p": [1]},
    })


@pytest.fixture()
def ident_file(tmp_path):
    return write_json(tmp_path, "ident.json", {
        "type": "dtl",
        "space": {"points": 2, "opens": [[], [1], [0, 1]]},
        "programs": {"a": {"map": [0, 1]}},
        "valuation": {"p": [1]},
    })


@pytest.fixture()
def subset_file(tmp_path):
    return write_json(tmp_path, "subset.json", {
        "type": "subset",
        "space": {"points": 2, "opens": [[], [1], [0, 1]]},
        "programs": {"a": {"map": [1, 1]}},
        "valuation": {"p": [1]},
    })


@pytest.fixture()
def nonserial_file(tmp_path):
    return write_json(tmp_path, "nonserial.json", {
        "type": "pdl", "points": 2, "serial": False,
        "programs": {"a": {"rel": [[0, 1]]}},
        "valuation": {"p": [0]},
    })


# --- parse ------------------------------------------------------------------------


def test_parse_round_trips_through_printed_text(capsys):
    code, out, _ = run(capsys, ["parse", "-f", "O[a;b] (p -> K q)"])
    assert code == 0
    payload = json.loads(out)
    assert parse(payload["text"]) == parse("O[a;b] (p -> K q)")
    assert payload["ast"]["type"] == "next"


def test_python_m_topodyn_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "topodyn", "parse", "-f", "p"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert isinstance(json.loads(proc.stdout), dict)


def test_parse_error_reports_position(capsys):
    code, out, err = run(capsys, ["parse", "-f", "p -> ->"])
    assert code == 2
    assert out == ""
    assert "line 1, column 6" in err


@pytest.mark.parametrize("text, where", [
    ("p &\n& q", "line 2, column 1"),
    ("p\n  -> (q\n   | $)", "line 3, column 6"),
    ("(p &\nq", "line 2, column 2"),
    ("p\nq", "line 2, column 1"),
])
def test_parse_errors_name_line_and_column(capsys, text, where):
    code, out, err = run(capsys, ["parse", "-f", text])
    assert code == 2 and out == "" and _one_line_error(err)
    assert err.rstrip().endswith(f"({where})")


def test_a_long_flat_formula_is_refused_in_linear_time(capsys):
    # 640 KB on one line: a position is worked out only for the error raised
    text = " & ".join(["p"] * (640 * 1024 // 4))
    start = time.perf_counter()
    code, out, err = run(capsys, ["parse", "-f", text])
    assert time.perf_counter() - start < 10
    assert code == 2 and out == "" and _one_line_error(err)
    assert "formula nests deeper than 100 levels" in err


# --- eval -------------------------------------------------------------------------


def test_eval_relational_point(capsys, pdl_file):
    code, out, _ = run(capsys, ["eval", "-m", pdl_file, "-f", "<rand>one", "--at", "0"])
    assert code == 0 and json.loads(out) == {"truth": True, "at": 0}
    code, out, _ = run(capsys, ["eval", "-m", pdl_file, "-f", "[rand]one", "--at", "0"])
    assert code == 1 and json.loads(out) == {"truth": False, "at": 0}


def test_eval_relational_extension(capsys, pdl_file):
    code, out, _ = run(capsys, ["eval", "-m", pdl_file, "-f", "<rand>one"])
    assert code == 0 and json.loads(out) == {"extension": [0, 1]}


def test_eval_dtl_point(capsys, swap_file):
    code, out, _ = run(capsys, ["eval", "-m", swap_file, "-f", "O[a] p", "--at", "0"])
    assert code == 0 and json.loads(out)["truth"] is True


def test_eval_point_out_of_range(capsys, pdl_file):
    code, _, err = run(capsys, ["eval", "-m", pdl_file, "-f", "one", "--at", "7"])
    assert code == 2 and "out of range" in err


def test_eval_subset_scenario(capsys, subset_file):
    # scenario is "x,i" where i indexes opens sorted by size then bitmask
    code, out, _ = run(capsys, ["eval", "-m", subset_file, "-f", "K p", "--scenario", "1,1"])
    assert code == 0
    assert json.loads(out) == {"truth": True, "scenario": {"x": 1, "u": [1]}}
    code, out, _ = run(capsys, ["eval", "-m", subset_file, "-f", "K p", "--scenario", "1,2"])
    assert code == 1
    assert json.loads(out)["scenario"]["u"] == [0, 1]


def test_eval_refuses_an_option_that_does_not_apply(capsys, subset_file, swap_file, pdl_file):
    for argv, option in (
        (["-m", subset_file, "-f", "p", "--scenario", "1,1", "--at", "0"], "--at"),
        (["-m", swap_file, "-f", "q", "--scenario", "0,0"], "--scenario"),
        (["-m", pdl_file, "-f", "one", "--scenario", "0,0", "--at", "0"], "--scenario"),
    ):
        code, out, err = run(capsys, ["eval", *argv])
        assert code == 2 and out == "" and _one_line_error(err) and option in err


def test_eval_subset_needs_scenario(capsys, subset_file):
    code, _, err = run(capsys, ["eval", "-m", subset_file, "-f", "p"])
    assert code == 2 and "--scenario" in err
    code, _, err = run(capsys, ["eval", "-m", subset_file, "-f", "p", "--scenario", "1,9"])
    assert code == 2 and "out of range" in err


def test_eval_scenario_point_out_of_range(capsys, subset_file):
    for scenario in ("-1,1", "2,1"):
        code, out, err = run(capsys, ["eval", "-m", subset_file, "-f", "p", f"--scenario={scenario}"])
        point = scenario.split(",")[0]
        assert code == 2 and out == "" and err == f"error: point {point} out of range\n"


# --- frame ------------------------------------------------------------------------


def test_frame_continuity_verdicts(capsys, swap_file, ident_file):
    code, out, _ = run(capsys, ["frame", "-m", ident_file, "--prop", "continuity"])
    assert code == 0 and json.loads(out)["holds"] is True
    code, out, _ = run(capsys, ["frame", "-m", swap_file, "--prop", "continuity"])
    assert code == 1
    payload = json.loads(out)
    assert payload["programs"]["a"]["witness"] == {"open_set": [1], "point": 0}


def test_frame_openness_verdicts(capsys, swap_file, ident_file):
    assert run(capsys, ["frame", "-m", ident_file, "--prop", "openness"])[0] == 0
    code, out, _ = run(capsys, ["frame", "-m", swap_file, "--prop", "openness"])
    assert code == 1 and json.loads(out)["programs"]["a"]["witness"]["open_set"] == [1]


def test_frame_scheme_route_agrees(capsys, swap_file):
    code, out, _ = run(capsys, ["frame", "-m", swap_file, "--prop", "continuity", "--scheme"])
    assert code == 1
    entry = json.loads(out)["programs"]["a"]
    assert entry["routes_agree"] is True
    assert entry["scheme"]["holds"] is False


def test_frame_seriality(capsys, pdl_file, nonserial_file, swap_file):
    assert run(capsys, ["frame", "-m", pdl_file, "--prop", "seriality"])[0] == 0
    code, out, _ = run(capsys, ["frame", "-m", nonserial_file, "--prop", "seriality"])
    assert code == 1
    assert json.loads(out)["witness"] == {"point": 1, "program": "a"}
    code, _, err = run(capsys, ["frame", "-m", swap_file, "--prop", "seriality"])
    assert code == 2 and "relational" in err


def test_frame_continuity_needs_total_maps(capsys, tmp_path):
    partial = write_json(tmp_path, "partial.json", {
        "type": "subset",
        "space": {"points": 2, "opens": [[], [1], [0, 1]]},
        "programs": {"a": {"map": [None, 1]}},
        "valuation": {"p": [1]},
    })
    code, _, err = run(capsys, ["frame", "-m", partial, "--prop", "continuity"])
    assert code == 2 and "total" in err
    assert run(capsys, ["frame", "-m", partial, "--prop", "openness"])[0] == 0


@pytest.mark.parametrize("prop", ["continuity", "openness"])
def test_frame_refuses_a_relational_model_without_programs(capsys, tmp_path, pdl_file, prop):
    # the model type is checked before the programs are, so an empty
    # alphabet cannot pass as a vacuous "holds"
    empty = write_json(tmp_path, "empty.json", {
        "type": "pdl", "points": 2, "serial": True, "programs": {}, "valuation": {},
    })
    for path in (empty, pdl_file):
        code, out, err = run(capsys, ["frame", "-m", path, "--prop", prop])
        assert code == 2 and out == "" and _one_line_error(err)
        assert "continuity/openness apply to map-based models" in err


def test_frame_scheme_refuses_a_subset_model_without_programs(capsys, tmp_path, subset_file):
    empty = write_json(tmp_path, "empty.json", {
        "type": "subset",
        "space": {"points": 2, "opens": [[], [1], [0, 1]]},
        "programs": {},
        "valuation": {"p": [1]},
    })
    for path in (empty, subset_file):
        code, out, err = run(capsys, ["frame", "-m", path, "--prop", "openness", "--scheme"])
        assert code == 2 and out == "" and _one_line_error(err)
        assert "--scheme needs a dynamic-topological model" in err


# --- transform --------------------------------------------------------------------


def test_transform_reports_strata(capsys, pdl_file):
    code, out, _ = run(capsys, ["transform", "-m", pdl_file, "--depth", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["stratum_sizes"] == [2, 4, 16]
    assert payload["network_space"]["space"]["points"] == 22


def test_transform_check_preserves_truth(capsys, pdl_file):
    code, out, _ = run(capsys, [
        "transform", "-m", pdl_file, "--depth", "2",
        "--check", "zero; <rand>one", "--check", "[at]zero",
    ])
    assert code == 0
    report = json.loads(out)["preservation"]
    assert report == {"checked": 48, "disagreements": [], "ok": True}


def test_transform_wrong_model_kind(capsys, swap_file):
    code, _, err = run(capsys, ["transform", "-m", swap_file, "--depth", "1"])
    assert code == 2 and "relational" in err


def test_transform_requires_serial(capsys, nonserial_file):
    code, _, err = run(capsys, ["transform", "-m", nonserial_file, "--depth", "2"])
    assert code == 2 and "serial" in err


def test_transform_check_rejects_sequencing(capsys, pdl_file):
    # a ';' inside brackets belongs to the program, so the network semantics
    # itself refuses the formula
    code, _, err = run(capsys, ["transform", "-m", pdl_file, "--depth", "2",
                                "--check", "<rand;at>one"])
    assert code == 2
    assert "network semantics treats programs as atomic: <rand;at> one" in err


def test_transform_check_splits_at_top_level_semicolons(capsys, pdl_file):
    def checked(*texts):
        args = [arg for text in texts for arg in ("--check", text)]
        code, out, _ = run(capsys, ["transform", "-m", pdl_file, "--depth", "2", *args])
        assert code == 0
        return json.loads(out)["preservation"]

    formula = "<rand>zero -> [at]<rand>zero"
    both = checked(f"zero; {formula};")
    assert both == checked("zero", formula)
    assert both["checked"] == 2 * checked("zero")["checked"] > 0


# --- announce ---------------------------------------------------------------------


def test_announce_identity_agrees(capsys, subset_file):
    code, out, _ = run(capsys, [
        "announce", "-m", subset_file, "--phi", "p", "--psi", "K p", "--scenario", "1,2",
    ])
    assert code == 0
    assert json.loads(out) == {
        "identity_agrees": True,
        "precondition_holds": True,
        "updated": {"x": 1, "u": [1]},
    }


def test_announce_failed_precondition(capsys, subset_file):
    code, out, _ = run(capsys, [
        "announce", "-m", subset_file, "--phi", "~p", "--psi", "p", "--scenario", "1,2",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["precondition_holds"] is False and payload["updated"] is None


def test_announce_scenario_point_out_of_range(capsys, subset_file):
    code, out, err = run(capsys, [
        "announce", "-m", subset_file, "--phi", "p", "--psi", "K p", "--scenario=-1,2",
    ])
    assert code == 2 and out == "" and err == "error: point -1 out of range\n"


def test_announce_fragment_violation(capsys, subset_file):
    code, _, err = run(capsys, [
        "announce", "-m", subset_file, "--phi", "K p", "--psi", "p", "--scenario", "1,2",
    ])
    assert code == 2 and "box/next" in err


# --- prove ------------------------------------------------------------------------


BOX_DIST_JSON = {
    "system": "SPDL0",
    "steps": [
        {"formula": "p & q -> q", "by": {"axiom": "CPL"}},
        {"formula": "[a] (p & q -> q)", "by": {"nec": {"mod": "a", "from": 1}}},
        {"formula": "[a] (p & q -> q) -> [a] (p & q) -> [a] q", "by": {"axiom": "K"}},
        {"formula": "[a] (p & q) -> [a] q", "by": {"mp": [2, 3]}},
    ],
}


def test_prove_accepts_valid_derivation(capsys, tmp_path):
    path = write_json(tmp_path, "deriv.json", BOX_DIST_JSON)
    code, out, _ = run(capsys, ["prove", "-d", path])
    assert code == 0 and json.loads(out) == {"ok": True}


def test_prove_rejects_bad_step(capsys, tmp_path):
    bad = json.loads(json.dumps(BOX_DIST_JSON))
    bad["steps"][3]["by"]["mp"] = [3, 2]
    path = write_json(tmp_path, "bad.json", bad)
    code, out, _ = run(capsys, ["prove", "-d", path])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["step"] == 4 and payload["error"] == "BadRuleApplication"


def test_prove_input_errors(capsys, tmp_path):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{nope", encoding="utf-8")
    assert run(capsys, ["prove", "-d", str(garbled)])[0] == 2
    assert run(capsys, ["prove", "-d", str(tmp_path / "missing.json")])[0] == 2


# --- audit ------------------------------------------------------------------------


def test_audit_clean_run(capsys):
    code, out, err = run(capsys, [
        "audit", "--system", "SPDL0", "--trials", "10", "--seed", "9", "--points", "4",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["violations"] == []
    assert payload["checked"] == 90
    assert err.startswith("elapsed:")


def test_audit_repeat_runs_print_identical_reports(capsys):
    argv = ["audit", "--system", "DTEL", "--trials", "15", "--seed", "4", "--points", "4"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_audit_flags_unsound_pairing(capsys):
    code, out, _ = run(capsys, [
        "audit", "--system", "SPDL0_SEQ", "--model-class", "dtl",
        "--trials", "40", "--seed", "3", "--points", "4", "--scheme", "Seq",
    ])
    assert code == 1
    assert json.loads(out)["violations"]


@pytest.mark.parametrize("names, unknown", [(["XYZ"], "XYZ"), (["K", "Kx"], "Kx")])
def test_audit_rejects_unknown_scheme_names(capsys, names, unknown):
    argv = ["audit", "--system", "SPDL0", "--trials", "3"]
    for name in names:
        argv += ["--scheme", name]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and _one_line_error(err)
    assert f"--scheme {unknown!r} is not a scheme of SPDL0" in err


def test_audit_accepts_cpl_and_the_system_schemes(capsys):
    code, out, _ = run(capsys, [
        "audit", "--system", "SPDL0", "--trials", "3", "--scheme", "CPL", "--scheme", "K",
    ])
    assert code == 0 and json.loads(out)["checked"] > 0


# the first instance the semantics refuses names the error, so each seed pins
# the order in which an instance's nodes are judged
@pytest.mark.parametrize("system, model_class, seed, message", [
    ("DTEL", "dtl", 0, "knowledge needs subset-space semantics: Khat r"),
    ("DTEL", "dtl", 7, "knowledge needs subset-space semantics: K dia O[b] ~q"),
    ("SPDL0", "subset", 0, "relational modalities are not defined on subset-space models: [b] r"),
    ("SPDL0", "subset", 7, "relational modalities are not defined on subset-space models: [a] (top -> q)"),
    ("DTEL", "pdl_serial", 0, "no relational semantics for Khat r"),
    ("DTEL", "pdl_serial", 7, "no relational semantics for O[a] (top <-> q)"),
])
def test_audit_refuses_a_class_its_system_is_not_judged_on(capsys, system, model_class, seed,
                                                          message):
    code, out, err = run(capsys, [
        "audit", "--system", system, "--model-class", model_class, "--seed", str(seed),
    ])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _chain_model(kind, n):
    """The chain 0 <= 1 <= ... <= n-1 given as a preorder, the reversal as
    its one map, and p on the upper half."""
    return {
        "type": kind,
        "space": {"points": n, "preorder": [[x, y] for x in range(n) for y in range(x, n)]},
        "programs": {"a": {"map": list(range(n))[::-1]}},
        "valuation": {"p": list(range(n // 2, n))},
    }


def test_only_listing_commands_list_the_opens(capsys, tmp_path, monkeypatch):
    listed = []
    unions = topology._unions

    def spy(table):
        listed.append(table)
        return unions(table)

    monkeypatch.setattr(topology, "_unions", spy)
    dtl = write_json(tmp_path, "chain.json", _chain_model("dtl", 12))
    assert run(capsys, ["eval", "-m", dtl, "-f", "box p -> O[a] dia p"])[0] == 0
    code, out, _ = run(capsys, ["frame", "-m", dtl, "--prop", "continuity", "--scheme"])
    assert code == 1 and json.loads(out)["programs"]["a"]["routes_agree"] is True
    assert listed == []
    subset = _chain_model("subset", 12)
    subset["programs"]["a"]["map"] = [None] * 12
    path = write_json(tmp_path, "subset.json", subset)
    assert run(capsys, ["eval", "-m", path, "-f", "K p", "--scenario", "11,1"])[0] == 0
    assert len(listed) == 1


# --- refute -----------------------------------------------------------------------


def test_refute_finds_minimal_countermodel(capsys):
    code, out, _ = run(capsys, ["refute", "-f", "p -> box p", "--bound", "2"])
    assert code == 1
    payload = json.loads(out)
    assert payload["found"] is True and payload["point"] == 0
    assert payload["model"] == {
        "type": "dtl",
        "space": {"points": 2, "opens": [[], [1], [0, 1]]},
        "programs": {},
        "valuation": {"p": [0]},
    }


def test_refute_exhausts_bound(capsys):
    code, out, _ = run(capsys, ["refute", "-f", "box p -> p", "--bound", "3"])
    assert code == 0
    assert json.loads(out) == {"bound": 3, "found": False, "model_class": "dtl"}


def test_refute_repeat_runs_print_identical_output(capsys):
    argv = ["refute", "-f", "<a;b>p <-> <a><b>p", "--bound", "3"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second and json.loads(first)["found"] is True


# --- global limits and usage ------------------------------------------------------


def test_max_points_cap(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("TOPODYN_MAX_POINTS", "3")
    code, _, err = run(capsys, ["audit", "--system", "SPDL0", "--trials", "1", "--points", "6"])
    assert code == 2 and "TOPODYN_MAX_POINTS" in err
    code, _, err = run(capsys, ["refute", "-f", "p -> box p", "--bound", "5"])
    assert code == 2 and "TOPODYN_MAX_POINTS" in err
    big = write_json(tmp_path, "big.json", {
        "type": "dtl",
        "space": {"points": 4, "opens": [[], [0, 1, 2, 3]]},
        "programs": {},
        "valuation": {},
    })
    code, _, err = run(capsys, ["eval", "-m", big, "-f", "top"])
    assert code == 2 and "TOPODYN_MAX_POINTS" in err


@pytest.mark.parametrize("model", [
    # 30 unrelated points have 2^30 opens, so the space must never be built
    {"type": "dtl", "space": {"points": 30, "preorder": [[x, x] for x in range(30)]},
     "programs": {}, "valuation": {}},
    {"type": "pdl", "points": 10**6, "programs": {"a": {"rel": []}}, "valuation": {}},
])
def test_max_points_cap_comes_before_building(capsys, monkeypatch, tmp_path, model):
    monkeypatch.delenv("TOPODYN_MAX_POINTS", raising=False)
    path = write_json(tmp_path, "huge.json", model)
    code, _, err = run(capsys, ["eval", "-m", path, "-f", "top"])
    assert code == 2 and _one_line_error(err) and "TOPODYN_MAX_POINTS" in err


@pytest.mark.parametrize("argv, option", [
    (["refute", "-f", "p -> box p", "--bound", "-3"], "--bound"),
    (["refute", "-f", "p -> box p", "--bound", "0"], "--bound"),
    (["audit", "--system", "SPDL0", "--trials", "-5", "--instances", "2"], "--trials"),
    (["audit", "--system", "SPDL0", "--trials", "2", "--instances", "-2"], "--instances"),
    (["audit", "--system", "SPDL0", "--trials", "2", "--instances", "0"], "--instances"),
    (["audit", "--system", "SPDL0", "--trials", "2", "--points", "0"], "--points"),
])
def test_counts_below_one_are_usage_errors(capsys, argv, option):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and _one_line_error(err) and option in err


def test_max_points_must_be_numeric(capsys, monkeypatch):
    monkeypatch.setenv("TOPODYN_MAX_POINTS", "plenty")
    code, _, err = run(capsys, ["refute", "-f", "p", "--bound", "2"])
    assert code == 2 and "integer" in err


def test_invalid_model_file(capsys, tmp_path):
    claims_serial = write_json(tmp_path, "claims.json", {
        "type": "pdl", "points": 2, "serial": True,
        "programs": {"a": {"rel": [[0, 1]]}},
        "valuation": {"p": [0]},
    })
    code, _, err = run(capsys, ["eval", "-m", claims_serial, "-f", "p"])
    assert code == 2 and "SerialityFailure" in err


def test_usage_errors_and_help(capsys, pdl_file):
    # every call shares one parser, so no call may leave state for the next
    assert build_parser() is build_parser()
    for _ in range(2):
        assert run(capsys, ["frobnicate"])[0] == 2
        assert run(capsys, [])[0] == 2
        assert run(capsys, ["eval", "-f", "p"])[0] == 2  # missing -m
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "usage" in out
        code, out, _ = run(capsys, ["eval", "-m", pdl_file, "-f", "<at>zero", "--at", "0"])
        assert code == 0 and json.loads(out) == {"at": 0, "truth": True}
        code, out, _ = run(capsys, ["eval", "-m", pdl_file, "-f", "<at>zero"])
        assert code == 0 and json.loads(out) == {"extension": [0]}
        code, out, _ = run(capsys, ["parse", "-f", "p"])
        assert code == 0 and json.loads(out)["text"] == "p"


# --- robustness: every input gets an answer or a one-line error --------------------


def _one_line_error(err):
    return err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("formula", [
    "~" * 3000 + "p",
    "O[" + ";".join(["a"] * 3000) + "] p",
    "(" * 3000 + "p" + ")" * 3000,
    " -> ".join(["p"] * 3000),
], ids=["negations", "sequence", "brackets", "implications"])
def test_deep_formulas_exit_2_without_traceback(capsys, swap_file, formula):
    code, out, err = run(capsys, ["eval", "-m", swap_file, "-f", formula])
    assert code == 2 and out == "" and _one_line_error(err)
    assert "deeper than 100 levels" in err


def test_formulas_within_the_nesting_cap_evaluate(capsys, swap_file):
    code, out, _ = run(capsys, ["eval", "-m", swap_file, "-f", "~" * 98 + "p"])
    assert code == 0 and json.loads(out) == {"extension": [1]}
    code, out, _ = run(capsys, ["parse", "-f", "O[" + ";".join(["a"] * 40) + "] p"])
    assert code == 0 and json.loads(out)["text"].count("a") == 40


def test_parse_prints_a_formula_at_the_nesting_cap(capsys):
    text = "~" * (MAX_NESTING - 1) + "p"
    code, out, _ = run(capsys, ["parse", "-f", text])
    assert code == 0
    ast, depth = json.loads(out)["ast"], 1
    while "body" in ast:
        ast, depth = ast["body"], depth + 1
    assert depth == MAX_NESTING and ast == {"name": "p", "type": "atom"}
    assert run(capsys, ["parse", "-f", "~" + text])[0] == 2


_DROP = object()  # a field to leave out of the document


@pytest.mark.parametrize("change, message", [
    ({"programs": {"a": 5}}, "programs"),
    ({"valuation": {"p": "x"}}, "valuation"),
    ({"programs": {"a": {"map": [1.5, 0]}}}, "map entries"),
    ({"programs": {"a": {"map": [True, 0]}}}, "map entries"),
    ({"valuation": {"p": [True]}}, "not an integer"),
    ({"space": {"points": 2, "opens": [[], [True], [0, 1]]}}, "not an integer"),
    ({"space": {"points": 2.0, "opens": [[], [1], [0, 1]]}}, "points"),
    ({"programs": {"a": {"mpa": [1, 0]}}}, "program 'a' has no 'map' field"),
    ({"type": "subset", "programs": {"a": {}}}, "program 'a' has no 'map' field"),
    ({"space": _DROP}, "a dtl model has no 'space' field"),
    ({"type": "subset", "space": _DROP}, "a subset model has no 'space' field"),
    ({"space": {"opens": [[], [1], [0, 1]]}}, "a space has no 'points' field"),
    ("[" * _DEEP, "nested too deeply"),
    ('{"type": "dtl", "space": ' + "[" * _DEEP + "]" * _DEEP + "}", "nested too deeply"),
], ids=["program", "valuation", "float-map", "bool-map", "bool-valuation", "bool-open",
        "float-points", "no-map", "subset-no-map", "no-space", "subset-no-space",
        "no-space-points", "nested-lists", "nested-space"])
def test_malformed_models_exit_2(capsys, tmp_path, change, message):
    """A str change is the file's whole text.  Every command that reads a
    model gives the same one-line error."""
    if isinstance(change, str):
        doc = change
    else:
        doc = {
            "type": "dtl",
            "space": {"points": 2, "opens": [[], [1], [0, 1]]},
            "programs": {"a": {"map": [1, 0]}},
            "valuation": {"p": [1]},
        }
        doc.update(change)
        doc = {key: value for key, value in doc.items() if value is not _DROP}
    path = write_json(tmp_path, "bad.json", doc)
    for argv in (["eval", "-m", path, "-f", "O[a] p"],
                 ["transform", "-m", path, "--depth", "1"],
                 ["announce", "-m", path, "--phi", "p", "--psi", "p", "--scenario", "0,0"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and _one_line_error(err) and message in err


def test_malformed_relational_model_exits_2(capsys, tmp_path):
    for doc, message in (
        ({"type": "pdl", "points": 2, "programs": {"a": {"rel": [[0, True]]}}}, "rel must be"),
        ({"type": "pdl", "points": 2, "programs": {"a": {"rel": [[0, 1.0]]}}}, "rel must be"),
        ({"type": "pdl", "points": "2", "programs": {}}, "points must be"),
        ([1, 2], "JSON object"),
        ({"type": "pdl", "programs": {}}, "a pdl model has no 'points' field"),
        ({"type": "pdl", "points": 2, "programs": {"a": {}}}, "program 'a' has no 'rel' field"),
    ):
        path = write_json(tmp_path, "bad.json", doc)
        code, _, err = run(capsys, ["eval", "-m", path, "-f", "top"])
        assert code == 2 and _one_line_error(err) and message in err


def _box_dist_with(step, key, value):
    doc = json.loads(json.dumps(BOX_DIST_JSON))
    doc["steps"][step - 1][key] = value
    return doc


@pytest.mark.parametrize("doc", [
    [1],
    {"steps": 5},
    {"system": "SPDL0", "steps": 5},
    {"system": "SPDL0", "steps": [5]},
    {"system": ["x"], "steps": BOX_DIST_JSON["steps"]},
    _box_dist_with(1, "formula", 5),
    _box_dist_with(1, "by", 5),
    _box_dist_with(1, "by", {"axiom": 5}),
    _box_dist_with(4, "by", {"mp": 5}),
    _box_dist_with(4, "by", {"mp": [True, 1.5]}),
    _box_dist_with(4, "by", {"mp": [2, 3, 1]}),
    _box_dist_with(2, "by", {"nec": 5}),
    _box_dist_with(2, "by", {"nec": {"mod": "a", "from": "1"}}),
    _box_dist_with(2, "by", {"nec": {"mod": 5, "from": 1}}),
    _box_dist_with(2, "by", {"mon": {"prog": "a", "from": 1.0}}),
    '{"system": "SPDL0", "steps": ' + "[" * _DEEP + "]" * _DEEP + "}",
], ids=["list", "no-system", "steps-int", "step-int", "system-list", "formula-int", "by-int",
        "axiom-int", "mp-int", "mp-bool-float", "mp-three", "nec-int", "nec-from-str",
        "nec-mod-int", "mon-from-float", "nested-steps"])
def test_prove_malformed_derivations_exit_2(capsys, tmp_path, doc):
    """A str doc is the file's whole text."""
    path = write_json(tmp_path, "bad.json", doc)
    code, out, err = run(capsys, ["prove", "-d", path])
    assert code == 2 and out == "" and _one_line_error(err)


@pytest.mark.parametrize("depth", ["-1", "-7"])
def test_transform_rejects_negative_depth(capsys, pdl_file, depth):
    code, out, err = run(capsys, ["transform", "-m", pdl_file, "--depth", depth])
    assert code == 2 and out == "" and _one_line_error(err) and "depth" in err


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 250])
def test_transform_rejects_depth_past_the_nesting_cap(capsys, tmp_path, depth):
    # no formula the parser accepts needs more strata; the printed strata list
    # roots and do not nest with the depth, but a failed preservation check
    # prints its network as a tree, two nesting levels per stratum: from about
    # depth 490 on, printing one would overrun the interpreter's recursion limit
    doc = {"type": "pdl", "points": 2, "serial": True, "programs": {"a": {"rel": [[0, 1], [1, 0]]}}}
    path = write_json(tmp_path, "cycle.json", doc)
    code, out, err = run(capsys, ["transform", "-m", path, "--depth", str(depth)])
    assert code == 2 and out == "" and _one_line_error(err) and str(depth) in err
    # the cap itself is still built
    space = build_network_space(model_from_json(doc), MAX_NESTING)
    assert space.stratum_sizes() == [2] * (MAX_NESTING + 1)


def test_transform_prints_the_space_at_the_nesting_cap(capsys, tmp_path):
    # the strata list roots, so the document nests no deeper at the cap than at
    # depth 0, and it must still print exactly as the stdlib prints it
    doc = {"type": "pdl", "points": 2, "serial": True, "programs": {"a": {"rel": [[0, 1], [1, 0]]}}}
    path = write_json(tmp_path, "cycle.json", doc)
    code, out, err = run(capsys, ["transform", "-m", path, "--depth", str(MAX_NESTING)])
    assert code == 0 and err == ""
    # a bool, so that a failure does not make pytest diff two long texts
    same = out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert same


@pytest.mark.parametrize("programs", ["-1", "0", "6", "9"])
def test_audit_rejects_program_counts_out_of_range(capsys, programs):
    code, out, err = run(capsys, [
        "audit", "--system", "SPDL0", "--trials", "2", "--programs", programs,
    ])
    assert code == 2 and out == "" and _one_line_error(err) and "programs" in err


def test_transform_builds_the_network_space_once(capsys, pdl_file, monkeypatch):
    from topodyn import transform

    built = []
    original = transform.build_network_space

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(transform, "build_network_space", counting)
    code, out, _ = run(capsys, [
        "transform", "-m", pdl_file, "--depth", "2", "--check", "zero; <rand>one",
    ])
    assert code == 0 and json.loads(out)["preservation"]["ok"] and len(built) == 1


# --- output bytes -----------------------------------------------------------------

# SHA-256 of each command's stdout followed by its exit code, recorded while the
# CLI still printed through json.dumps(doc, indent=2, sort_keys=True); any byte
# drift in a printed document shows here
OUTPUT_GOLDEN = {
    "transform": "9da2c8ca48cbd06404702084aa9a96102c5a3d36b5fd6685ca91f4d8de319c95",
    "refute-dtl": "9a156a6aabdc0967694da9c7bc60c6304d02ac358d2d49542c2319da548c4125",
    "refute-subset": "47476c35d5ea20721124b0b5ac851d074e7a3a6d36934fbdb5139e1a6e02e06f",
    "frame-scheme": "e0e95e3004a2d7dea3359abf9e66b4e39dd1939a1e3c1444912a2d5df5f159b9",
    "audit": "4bb1736e946c73298c8b6605be7bbac94f910c9d5858e2fc41d59b389ff53d5c",
    "refute-dtl-open": "4f4788954a4daff4eef884d2d8c160cbfb9422390cd2f4d2c9e9608f08a42544",
    "refute-dtl-continuous": "0f0379bcc7c01f811dc5e4fbf47b20c258e12dfecd34fc4364be688c3c1fce9c",
    "refute-pdl-serial": "1f09b8b958f975a5b1dbd0c9943de33791d2e6933f9a0457dcddb007016d59a7",
    "refute-dtl-three-points": "9f34d49d06e89f3c5cf0603150fb1590df74f0f9dcb90219ee07ab7626381000",
    "refute-pdl-serial-three-points":
        "e940517d63cdc700382ee1f88225ae3c2dcf75ff7c6c79a809e7067c26d2842f",
}


@pytest.mark.parametrize("name", list(OUTPUT_GOLDEN))
def test_output_bytes_are_pinned(capsys, tmp_path, pdl_file, name):
    chain = write_json(tmp_path, "chain.json", {
        "type": "dtl",
        "space": {"points": 3, "opens": [[], [2], [1, 2], [0, 1, 2]]},
        "programs": {"a": {"map": [2, 0, 1]}, "b": {"map": [0, 2, 2]}},
        "valuation": {"p": [1]},
    })
    argv = {
        "transform": ["transform", "-m", pdl_file, "--depth", "2",
                      "--check", "zero; <rand>one; [at]zero -> <rand>[at]one"],
        "refute-dtl": ["refute", "-f", "O[a] box p -> box O[a] p", "--bound", "3"],
        "refute-subset": ["refute", "-f", "O[a] K p -> K O[a] p", "--bound", "3",
                          "--model-class", "subset"],
        "frame-scheme": ["frame", "-m", chain, "--prop", "openness", "--scheme"],
        "audit": ["audit", "--system", "DTEL", "--trials", "6", "--seed", "5",
                  "--points", "4"],
        "refute-dtl-open": ["refute", "-f", "O[a] box p -> box O[a] p", "--bound", "3",
                            "--model-class", "dtl_open"],
        "refute-dtl-continuous": ["refute", "-f", "box O[a] p -> O[a] box p", "--bound", "3",
                                  "--model-class", "dtl_continuous"],
        "refute-pdl-serial": ["refute", "-f", "<a;b>p -> <b;a>p", "--bound", "3",
                              "--model-class", "pdl_serial"],
        # searches whose first countermodel has 3 points
        "refute-dtl-three-points": ["refute", "-f", "dia box p -> box dia p", "--bound", "3"],
        "refute-pdl-serial-three-points": ["refute", "-f", "<a>[a]p -> [a]<a>p", "--bound", "3",
                                           "--model-class", "pdl_serial"],
    }[name]
    code, out, _ = run(capsys, argv)
    text = out + f"exit {code}\n"
    assert hashlib.sha256(text.encode()).hexdigest() == OUTPUT_GOLDEN[name]


_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64).map(lambda n: -n)
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0]) | st.text()
)


@settings(max_examples=200)
@given(st.recursive(_SCALARS, lambda kids: (
    st.lists(kids) | st.lists(kids).map(tuple) | st.lists(st.integers())
    | st.dictionaries(st.text(), kids)
), max_leaves=40))
def test_dumps_matches_the_stdlib_encoder(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_dumps_rejects_what_the_stdlib_rejects():
    for doc in ({1, 2}, {"a": [0, {"b": {1}}]}, {("a",): 1}, [object()]):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _dumps(doc)


def test_dumps_writes_non_string_keys_as_the_stdlib_does():
    doc = {"a": {3: None, 10: [1.5]}, "b": [{True: 1, False: 2}], "c": {2.5: "x", -1: 0}, "d": {None: []}}
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


_STDLIB = dict(indent=2, sort_keys=True)


@st.composite
def _documents_sharing_a_subdocument(draw):
    """One drawn container placed at several depths of one document, so the
    encoder meets the same object at different indentation levels."""
    kids = st.recursive(_SCALARS, lambda k: st.lists(k) | st.dictionaries(st.text(), k),
                        max_leaves=10)
    shared = draw(st.lists(kids, min_size=1) | st.dictionaries(st.text(), kids, min_size=1))
    places = []
    for depth in draw(st.lists(st.integers(0, 4), min_size=2, max_size=5)):
        node = shared
        for _ in range(depth):
            node = draw(st.sampled_from([
                lambda x: [x], lambda x: (0, x), lambda x: {"k": x, "j": None},
            ]))(node)
        places.append(node)
    return draw(st.sampled_from([list, lambda xs: {str(i): x for i, x in enumerate(xs)}]))(places)


@settings(max_examples=100)
@given(_documents_sharing_a_subdocument())
def test_dumps_matches_the_stdlib_on_shared_subdocuments(doc):
    assert _dumps(doc) == json.dumps(doc, **_STDLIB)


@pytest.fixture(scope="module")
def network_document():
    """The transform document of a 3-point, two-program total model at depth 2:
    2217 points, their maps, cells and roots, about 145 KB encoded."""
    total = PDLModel(3, ("a", "b"), {"a": (0b111,) * 3, "b": (0b111,) * 3}, {"p": 0b001},
                     serial_flag=True)
    return network_space_to_json(build_network_space(total, 2))


def test_dumps_matches_the_stdlib_on_a_network_document(network_document):
    # a bool, so that a failure does not make pytest diff two 145 KB texts
    same = _dumps(network_document) == json.dumps(network_document, **_STDLIB)
    assert same


def test_dumps_matches_the_stdlib_on_a_depth_3_network_document():
    # the transform document of a 3-point, two-program serial model at depth 3,
    # as the benchmark prints it: int/null maps, cells and roots of four strata
    serial = PDLModel(3, ("a", "b"), {"a": (0b010, 0b100, 0b001), "b": (0b011, 0b100, 0b101)},
                      {"p": 0b001}, serial_flag=True)
    space = build_network_space(serial, 3)
    assert space.stratum_sizes() == [3, 5, 15, 125]
    doc = {"network_space": network_space_to_json(space)}
    same = _dumps(doc) == json.dumps(doc, **_STDLIB)
    assert same


def test_dumps_keeps_no_text_between_calls():
    shared = {"x": 1, "y": [None, 2]}
    doc = {"a": shared, "b": [shared, {"c": shared}], "d": [[shared]]}
    first = _dumps(doc)
    assert first == json.dumps(doc, **_STDLIB)
    shared["x"] = {"z": [3, None]}
    second = _dumps(doc)
    assert second != first and second == json.dumps(doc, **_STDLIB)


def test_dumps_leaves_nothing_for_the_cyclic_collector():
    # the stdlib's own indenting encoder leaves a cycle, so only documents
    # this encoder writes are checked
    doc = {"a": [1, None, {"b": "c", "f": 0.5}], "d": {}, "e": [[2, 3], [True, "g"]]}
    want = json.dumps(doc, **_STDLIB)
    gc.collect()
    gc.disable()
    try:
        assert _dumps(doc) == want
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dumps_peak_memory_stays_near_twice_its_output(network_document):
    # the encoder holds one list of the document's pieces, then their joined
    # text: about twice the output at its peak
    size = len(_dumps(network_document))
    tracemalloc.start()
    try:
        _dumps(network_document)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * size, f"peak {peak} bytes for {size} bytes of output"
