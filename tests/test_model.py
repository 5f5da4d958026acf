import copy
import json

import pytest

import loghodge.model
from loghodge.cli import main
from loghodge.errors import MissingHodgeFiltration, ParseError
from loghodge.model import (
    canonical_json,
    direct_sum,
    imhs_check,
    model_from_json,
    model_to_json,
    unipotent_part,
    validate,
)

J2_WEIGHT1 = {
    "branches": 1, "base_weight": 1, "perverse_shift": 1,
    "components": [{"alpha": ["0"], "dim": 2, "N": [[["0", "1"], ["0", "0"]]]}],
    "W": [{"weight": 1, "basis": [["1", "0"], ["0", "1"]]}],
    "F": [{"p": 1, "basis": [["1*i", "1"]]}, {"p": 2, "basis": []}],
    "S": {"matrix": [["0", "1"], ["-1", "0"]], "parity": 1},
}

TRIVIAL = {
    "branches": 1, "base_weight": 0, "perverse_shift": 0,
    "components": [{"alpha": ["0"], "dim": 1, "N": [[["0"]]]}],
    "W": [{"weight": 0, "basis": [["1"]]}],
    "F": [{"p": 1, "basis": []}],
    "S": {"matrix": [["1"]], "parity": 0},
}


def test_validate_passes_on_anchor():
    rep = validate(model_from_json(J2_WEIGHT1))
    assert rep.passed


def test_validate_flags_noncommuting():
    doc = {
        "branches": 2, "base_weight": 0, "perverse_shift": 0,
        "components": [{"alpha": ["0", "0"], "dim": 2,
                        "N": [[["0", "1"], ["0", "0"]],
                              [["0", "0"], ["1", "0"]]]}],
        "W": [{"weight": 0, "basis": [["1", "0"], ["0", "1"]]}],
    }
    rep = validate(model_from_json(doc))
    assert not rep.passed
    assert any(c.name == "NonCommutingOperators" and c.status == "fail"
               for c in rep.checks)


def test_validate_flags_unpreserved_filtration():
    doc = {
        "branches": 1, "base_weight": 0, "perverse_shift": 0,
        "components": [{"alpha": ["0"], "dim": 2, "N": [[["0", "1"], ["0", "0"]]]}],
        "W": [{"weight": 0, "basis": [["0", "1"]]},
              {"weight": 1, "basis": [["1", "0"], ["0", "1"]]}],
    }
    rep = validate(model_from_json(doc))
    assert any(c.name == "FiltrationNotPreserved" and c.status == "fail"
               for c in rep.checks)


def test_unipotent_part_examples():
    doc = {
        "branches": 1, "base_weight": 0, "perverse_shift": 0,
        "components": [
            {"alpha": ["0"], "dim": 2, "N": [[["0", "1"], ["0", "0"]]]},
            {"alpha": ["1/2"], "dim": 1, "N": [[["0"]]]},
        ],
        "W": [{"weight": 0, "basis": [["1", "0", "0"], ["0", "1", "0"],
                                      ["0", "0", "1"]]}],
    }
    m = model_from_json(doc)
    u = unipotent_part(m)
    assert u.total_dim == 2 and len(u.components) == 1
    assert unipotent_part(u).total_dim == 2
    no_unip = {
        "branches": 1, "base_weight": 0, "perverse_shift": 0,
        "components": [{"alpha": ["1/2"], "dim": 1, "N": [[["0"]]]}],
        "W": [{"weight": 0, "basis": [["1"]]}],
    }
    assert unipotent_part(model_from_json(no_unip)).total_dim == 0


def test_imhs_anchor_passes():
    assert imhs_check(model_from_json(J2_WEIGHT1)).passed


def test_imhs_rejects_f_line_in_kernel():
    doc = dict(J2_WEIGHT1)
    doc["F"] = [{"p": 1, "basis": [["1", "0"]]}, {"p": 2, "basis": []}]
    rep = imhs_check(model_from_json(doc))
    assert not rep.passed


def test_imhs_needs_hodge():
    doc = {k: v for k, v in J2_WEIGHT1.items() if k != "F"}
    with pytest.raises(MissingHodgeFiltration):
        imhs_check(model_from_json(doc))


def test_imhs_trivial_passes():
    assert imhs_check(model_from_json(TRIVIAL)).passed


def test_imhs_monotone_under_direct_sum():
    good = model_from_json(J2_WEIGHT1)
    assert imhs_check(direct_sum(good, good)).passed
    bad_doc = dict(J2_WEIGHT1)
    bad_doc["F"] = [{"p": 1, "basis": [["1", "0"]]}, {"p": 2, "basis": []}]
    bad = model_from_json(bad_doc)
    assert not imhs_check(direct_sum(good, bad)).passed


def test_unipotent_part_commutes_with_direct_sum():
    doc = {
        "branches": 1, "base_weight": 0, "perverse_shift": 0,
        "components": [
            {"alpha": ["0"], "dim": 1, "N": [[["0"]]]},
            {"alpha": ["1/3"], "dim": 1, "N": [[["0"]]]},
        ],
        "W": [{"weight": 0, "basis": [["1", "0"], ["0", "1"]]}],
    }
    m = model_from_json(doc)
    s = direct_sum(m, m)
    lhs = unipotent_part(s)
    rhs = direct_sum(unipotent_part(m), unipotent_part(m))
    assert canonical_json(model_to_json(lhs)) == canonical_json(model_to_json(rhs))


def test_json_roundtrip_byte_stable():
    m = model_from_json(J2_WEIGHT1)
    once = canonical_json(model_to_json(m))
    twice = canonical_json(model_to_json(model_from_json(json.loads(once))))
    assert once == twice


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(extra=1),
    lambda d: d.pop("W"),
    lambda d: d["components"][0].update(alpha=["3/2"]),
    lambda d: d["components"][0].update(N=[[["0", "1"]]]),
    lambda d: d.update(branches=-1),
    lambda d: d["components"].append(dict(d["components"][0])),
])
def test_parse_rejections(mutate):
    doc = json.loads(json.dumps(J2_WEIGHT1))
    mutate(doc)
    with pytest.raises(ParseError):
        model_from_json(doc)


# every mutation keeps the document loadable if a boolean counted as 1
@pytest.mark.parametrize("mutate", [
    lambda d: d.update(branches=True),
    lambda d: d.update(base_weight=True),
    lambda d: d.update(perverse_shift=True),
    lambda d: d["components"][0].update(dim=True),
    lambda d: d["W"][0].update(weight=True),
    lambda d: d["F"][0].update(p=True),
    lambda d: d["S"].update(parity=True),
], ids=["branches", "base_weight", "perverse_shift", "dim", "W.weight", "F.p",
        "S.parity"])
def test_json_booleans_are_not_integers(mutate, tmp_path, capsys):
    doc = copy.deepcopy(TRIVIAL)
    mutate(doc)
    with pytest.raises(ParseError):
        model_from_json(doc)
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "error"


@pytest.mark.parametrize("name", ["monodromy_filtration",
                                  "relative_monodromy_filtration"])
def test_imhs_lets_internal_errors_propagate(monkeypatch, name):
    def broken(*args, **kwargs):
        raise RuntimeError("internal bug")

    # without S no polarization check runs, so only the guarded calls remain
    doc = {k: v for k, v in J2_WEIGHT1.items() if k != "S"}
    monkeypatch.setattr(loghodge.model, name, broken)
    with pytest.raises(RuntimeError, match="internal bug"):
        imhs_check(model_from_json(doc))
