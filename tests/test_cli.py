import hashlib
import json
import random
import shutil
from pathlib import Path

import pytest

from loghodge import cli, complexes, linalg
from loghodge.cli import main
from loghodge.errors import InvalidModel
from loghodge.generate import random_pure_model
from loghodge.model import canonical_json, model_to_json

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
J2 = CORPUS / "jordan2_weight1.json"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_validate_pass(capsys):
    code, out = run_cli(["validate", str(J2)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass" and doc["verb"] == "validate"


def test_validate_noncommuting_exits_one(tmp_path, capsys):
    doc = {
        "branches": 2, "base_weight": 0, "perverse_shift": 0,
        "components": [{"alpha": ["0", "0"], "dim": 2,
                        "N": [[["0", "1"], ["0", "0"]],
                              [["0", "0"], ["1", "0"]]]}],
        "W": [{"weight": 0, "basis": [["1", "0"], ["0", "1"]]}],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["validate", str(path)], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert any(c["name"] == "NonCommutingOperators" and c["status"] == "fail"
               for c in report["results"])


def test_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"branches": 1}')
    code, out = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert json.loads(out)["verdict"] == "error"


@pytest.mark.parametrize("bad", ["2/4", "04", "+1", " 1 ", "1\n", "\u0661"])
def test_a_non_canonical_scalar_exits_two(bad, tmp_path, capsys):
    doc = json.loads(J2.read_text())
    doc["components"][0]["N"][0][0][1] = bad
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert json.loads(out)["verdict"] == "error"


def test_a_repeated_weight_exits_two(tmp_path, capsys):
    doc = {
        "branches": 1, "base_weight": 0, "perverse_shift": 0,
        "components": [{"alpha": ["0"], "dim": 1, "N": [[["0"]]]}],
        "W": [{"weight": 0, "basis": []}, {"weight": 0, "basis": [["1"]]}],
    }
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert "duplicate filtration weight 0" in json.loads(out)["error"]


@pytest.mark.parametrize("key, step", [
    ("W", {"weight": 0, "basis": 5}),
    ("W", {"weight": 0, "basis": [["1", 1.5], ["0", "1"]]}),
    ("W", {"weight": 0, "basis": [["1", None], ["0", "1"]]}),
    ("W", {"weight": 0, "basis": [[1, 0], [0, 1]]}),
    ("F", {"p": 0, "basis": [["1", 0]]}),
])
def test_a_malformed_basis_exits_two(tmp_path, capsys, key, step):
    doc = json.loads(J2.read_text())
    doc[key] = [step] + ([{"p": 1, "basis": []}] if key == "F" else [])
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["validate", str(path)], capsys)
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "error" and "internal error" not in report["error"]


def test_purity_verb(capsys):
    code, out = run_cli(["purity", "--mode", "closed", "--z", "1", str(J2)],
                        capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["verdict"] == "pass"


def test_cohomology_zero_model(tmp_path, capsys):
    doc = {
        "branches": 1, "base_weight": 0, "perverse_shift": 0,
        "components": [{"alpha": ["0"], "dim": 0, "N": [[]]}],
        "W": [],
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["cohomology", "--complex", "omega", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["results"] == []


def test_imhs_missing_hodge_is_input_error(tmp_path, capsys):
    doc = json.loads(J2.read_text())
    doc.pop("F")
    path = tmp_path / "nof.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["imhs", str(path)], capsys)
    assert code == 2
    assert "MissingHodgeFiltration" in json.loads(out)["error"]


def test_star_and_relmono_and_filtration(capsys):
    for verb in (["filtration", str(J2)],
                 ["star", "--branch", "1", str(J2)],
                 ["relmono", "--z", "1", str(J2)]):
        code, out = run_cli(verb, capsys)
        assert code == 0
        json.loads(out)


def test_decompose_and_duality_and_link(capsys):
    for verb in (["decompose", str(J2)],
                 ["duality", str(J2)],
                 ["link", str(J2)],
                 ["intersect", "--z", "1", str(J2)]):
        code, out = run_cli(verb, capsys)
        assert code == 0, (verb, out)
        assert json.loads(out)["verdict"] == "pass"


def test_text_format(capsys):
    code, out = run_cli(["validate", "--format", "text", str(J2)], capsys)
    assert code == 0
    assert "verdict" in out and "{" not in out.splitlines()[-1]


def test_round_trip_reserialization(tmp_path, capsys):
    from loghodge.model import canonical_json, load_model, model_to_json

    doc = canonical_json(model_to_json(load_model(str(J2))))
    path = tmp_path / "copy.json"
    path.write_text(doc)
    again = canonical_json(model_to_json(load_model(str(path))))
    assert again == doc


def test_corpus_replay(capsys):
    code, out = run_cli(["corpus", str(CORPUS)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert all(r["status"] == "pass" for r in doc["results"])


def test_corpus_detects_drift(tmp_path, capsys):
    for p in CORPUS.glob("rank1_trivial*"):
        shutil.copy(p, tmp_path / p.name)
    expected = tmp_path / "rank1_trivial.expected.json"
    doc = json.loads(expected.read_text())
    doc["validate"]["verdict"] = "fail"
    expected.write_text(json.dumps(doc))
    code, out = run_cli(["corpus", str(tmp_path)], capsys)
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_corpus_deterministic_across_jobs(capsys):
    # each pool thread opens its own evaluation for the entries it runs
    outputs = []
    for jobs in ("1", "2", "3"):
        code, out = run_cli(["corpus", "--jobs", jobs, str(CORPUS)], capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_unknown_verb_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate", str(J2)])
    assert info.value.code == 2
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


def test_back_to_back_runs_share_no_memo(monkeypatch, capsys):
    """The filtration memo lives for one main call: a second identical run
    does all the work again and leaves no memo behind."""
    calls = []
    real_rref = linalg.rref

    def counting_rref(rows, width):
        calls.append(width)
        return real_rref(rows, width)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    counts = []
    for _ in range(2):
        del calls[:]
        code, _out = run_cli(["imhs", str(CORPUS / "gen_mixed_n2.json")],
                             capsys)
        assert code == 0
        counts.append(len(calls))
        assert linalg._MEMO.get() is None
    assert counts[0] == counts[1] > 0



def _record_calls(monkeypatch, module, name):
    """The arguments of every later call to module.name."""
    calls = []
    real = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


def test_decompose_builds_the_omega_complex_once(tmp_path, monkeypatch,
                                                 capsys):
    """decompose asks for omega once for its weight list and once per
    weight; inside the run's evaluation the Koszul build runs once."""
    model = random_pure_model(3, random.Random(72))
    assert model.total_dim == 4
    path = tmp_path / "pure3-72.json"
    path.write_text(canonical_json(model_to_json(model)))
    built = _record_calls(monkeypatch, complexes, "_model_complex")
    code, out = run_cli(["decompose", str(path)], capsys)
    assert code == 0 and len(json.loads(out)["results"]) > 1
    assert [args[1:] for args in built] == [("omega", frozenset())]


def test_corpus_entry_builds_each_support_complex_once(monkeypatch):
    """The closed, support and link batteries of one corpus entry share i^!
    of z (one quotient IC_log(z)/IC), and no complex is built twice."""
    quotients = _record_calls(monkeypatch, complexes, "quotient_complex")
    built = _record_calls(monkeypatch, complexes, "_model_complex")
    cli.corpus_entry(str(CORPUS / "j2xj2_weight2.json"))
    assert len(quotients) == 1
    kinds = [args[1:] for args in built]
    assert kinds.count(("ic", frozenset())) == 1
    assert ("iclog", frozenset({0, 1})) in kinds
    assert len(kinds) == len(set(kinds))
    assert linalg._MEMO.get() is None


def test_corpus_entry_dualizes_and_takes_each_cohomology_once(monkeypatch):
    """i^* is the dual of i^!: the closed and support batteries and the link
    of one corpus entry share one dualization of i^! and one cohomology
    report each of i^! and i^*, so no complex is dualized or has its
    cohomology taken twice."""
    seen = {"dualize": [], "cohomology": []}
    for name, calls in seen.items():
        real = getattr(complexes, name)

        def recording(c, *args, real=real, calls=calls, **kwargs):
            calls.append(c)
            return real(c, *args, **kwargs)
        monkeypatch.setattr(complexes, name, recording)
    cli.corpus_entry(str(CORPUS / "j2xj2_weight2.json"))
    for name, calls in seen.items():
        assert [sum(c is d for d in calls) for c in calls] == [1] * len(calls), name
    assert len(seen["dualize"]) == 2 and len(seen["cohomology"]) == 7


def _with_pairing(tmp_path, name, matrix):
    """J2 weight 1 with the pairing matrix declared at parity 1."""
    doc = json.loads(J2.read_text())
    doc["S"] = {"matrix": matrix, "parity": 1}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def _pairing_failing_validate(tmp_path):
    """S = identity: symmetric, so the parity row fails, and
    N^T S + S N = N^T + N != 0."""
    return _with_pairing(tmp_path, "bad_pairing", [["1", "0"], ["0", "1"]])


def _singular_pairing(tmp_path):
    """S = 0: antisymmetric and an infinitesimal isometry, but singular."""
    return _with_pairing(tmp_path, "singular_pairing", [["0", "0"], ["0", "0"]])


# the verbs that give a purity, link, intersection or duality verdict
VERDICT_ARGV = [
    *[["purity", "--mode", mode]
      for mode in ("open", "support", "closed", "compact", "link")],
    ["link"], ["intersect", "--z", "1"], ["duality"],
]


@pytest.mark.parametrize("argv", VERDICT_ARGV)
def test_verbs_using_the_pairing_refuse_one_failing_validate(argv, tmp_path,
                                                             capsys):
    for path, failed in (
            (_pairing_failing_validate(tmp_path),
             "PairingParity, InfinitesimalIsometry"),
            (_singular_pairing(tmp_path), "PairingNondegenerate")):
        code, out = run_cli(argv + [str(path)], capsys)
        assert code == 2, path.name
        doc = json.loads(out)
        assert doc["verdict"] == "error" and "results" not in doc
        assert doc["error"] == ("loghodge.errors.InvalidModel: instance fails "
                                f"validate: {failed}")
        code, out = run_cli(["validate", str(path)], capsys)
        assert code == 1 and json.loads(out)["verdict"] == "fail"


def _w_across_components(tmp_path):
    """Two 1-dim components (exponents 0 and 1/2) with W_0 = span(e1 + e2),
    which is not the sum of its pieces in the components."""
    doc = {"branches": 1, "base_weight": 0, "perverse_shift": 1,
           "components": [{"alpha": [a], "dim": 1, "N": [[["0"]]]}
                          for a in ("0", "1/2")],
           "W": [{"weight": 0, "basis": [["1", "1"]]},
                 {"weight": 1, "basis": [["1", "0"], ["0", "1"]]}],
           "S": {"matrix": [["1", "0"], ["0", "1"]], "parity": 0}}
    path = tmp_path / "w_across_components.json"
    path.write_text(json.dumps(doc))
    return path


def _n_moves_w(tmp_path):
    """J2 weight 1, without F, with W_0 = span(e2), which N_1 sends to e1."""
    doc = json.loads(J2.read_text())
    del doc["F"]
    doc["W"] = [{"weight": 0, "basis": [["0", "1"]]},
                {"weight": 1, "basis": [["1", "0"], ["0", "1"]]}]
    path = tmp_path / "n_moves_w.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("argv", VERDICT_ARGV)
def test_verdict_verbs_refuse_an_instance_failing_any_validate_row(
        argv, tmp_path, capsys):
    """S is fine on both instances; W is not, and no verdict verb gives a
    verdict on an instance that fails validate."""
    for path, failed in ((_w_across_components(tmp_path),
                          "WeightRestrictsToComponents"),
                         (_n_moves_w(tmp_path), "FiltrationNotPreserved")):
        code, out = run_cli(argv + [str(path)], capsys)
        assert code == 2, path.name
        doc = json.loads(out)
        assert doc["verdict"] == "error" and "results" not in doc
        assert doc["error"] == ("loghodge.errors.InvalidModel: instance fails "
                                f"validate: {failed}")
        with pytest.raises(InvalidModel, match=f"validate: {failed}$"):
            cli.corpus_entry(str(path))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_corpus_refuses_an_instance_failing_validate_and_names_it(
        jobs, tmp_path, capsys):
    for p in CORPUS.glob("jordan2_weight1*"):
        shutil.copy(p, tmp_path / p.name)
    path = _pairing_failing_validate(tmp_path)
    with pytest.raises(InvalidModel):
        cli.corpus_entry(str(path))
    code, out = run_cli(["corpus", "--jobs", jobs, str(tmp_path)], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["verdict"] == "error" and "results" not in doc
    assert doc["error"] == (
        f"loghodge.errors.InvalidModel: {path}: instance fails validate: "
        "PairingParity, InfinitesimalIsometry")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_corpus_names_the_file_of_every_error(jobs, tmp_path, capsys):
    for p in CORPUS.glob("jordan2_weight1*"):
        shutil.copy(p, tmp_path / p.name)
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1]")
    doc = json.loads(J2.read_text())
    doc["components"][0].update(dim=1, N=[[["1"]]])
    doc.update(W=[{"weight": 1, "basis": [["1"]]}], F=[{"p": 1, "basis": []}])
    del doc["S"]
    not_nilpotent = tmp_path / "not_nilpotent.json"
    not_nilpotent.write_text(json.dumps(doc))
    doc["W"] = [{"weight": 1, "basis": [["1", "0"]]}]
    wide_w = tmp_path / "wide_w.json"
    wide_w.write_text(json.dumps(doc))
    # the instances run in name order, so each error is the first one left
    for path, error in (
            (not_an_object, f"{not_an_object}: instance must be a JSON object"),
            (not_nilpotent, "loghodge.errors.InvalidModel: "
                            f"{not_nilpotent}: instance fails validate: "
                            "NilpotentOperators"),
            (wide_w, "loghodge.errors.ShapeError: "
                     f"{wide_w}: vector of wrong ambient dimension")):
        code, out = run_cli(["corpus", "--jobs", jobs, str(tmp_path)], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["verdict"] == "error" and "results" not in doc
        assert doc["error"] == error
        path.unlink()


def test_internal_error_exits_three_with_one_json_document(monkeypatch,
                                                           capsys):
    def broken(model, args):
        raise RuntimeError("internal bug")

    monkeypatch.setitem(cli.VERBS, "validate", broken)
    code = main(["validate", str(J2)])
    captured = capsys.readouterr()
    assert code == 3
    doc = json.loads(captured.out)
    assert doc == {"instance": str(J2), "verb": "validate", "verdict": "error",
                   "error": "internal error: RuntimeError: internal bug"}
    assert "Traceback" in captured.err


# stdout sha256 and exit code of the verbs the corpus verb does not replay,
# per corpus instance, run as `loghodge <verb> corpus/<instance>.json` from
# the repository root (the instance path is part of the output)
VERB_BYTES = json.loads((Path(__file__).parent / "verb_bytes.json").read_text())


@pytest.mark.parametrize("verb", sorted(VERB_BYTES))
def test_unreplayed_verbs_keep_their_bytes(verb, monkeypatch, capsys):
    monkeypatch.chdir(CORPUS.parent)
    wrong = []
    for stem, want in sorted(VERB_BYTES[verb].items()):
        code, out = run_cli(verb.split() + [f"corpus/{stem}.json"], capsys)
        got = {"exit": code,
               "sha256": hashlib.sha256(out.encode()).hexdigest()}
        if got != want:
            wrong.append((stem, got["exit"], out[:200]))
    assert not wrong


def test_intersect_builds_no_complex(monkeypatch, capsys):
    """The intersection morphism is zero, so intersect reports its empty
    image without constructing any complex."""
    built = []
    original = complexes.FilteredComplex.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(complexes.FilteredComplex, "__post_init__", counting)
    code, out = run_cli(["intersect", "--z", "1",
                         str(CORPUS / "gen_pure_n3.json")], capsys)
    assert code == 0 and json.loads(out)["verdict"] == "pass"
    assert json.loads(out)["results"] == [] and built == []
    run_cli(["link", str(CORPUS / "gen_pure_n3.json")], capsys)
    assert built
