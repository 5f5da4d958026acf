import hashlib
import json
import random
import shlex
import shutil
import sys
from pathlib import Path

import pytest

from loghodge import cli, complexes, decomposition, filtrations, linalg
from loghodge.cli import main
from loghodge.errors import InvalidModel
from loghodge.generate import (
    random_imhs_model,
    random_pure_model,
    random_spectral_model,
)
from loghodge.model import canonical_json, model_to_json

sys.path.insert(0, str(Path(__file__).resolve().parent))
from side_ops import same_complex

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


# the --format text bytes of three reports: a skip row with a detail, a
# failing row with a detail, and a purity verdict, whose row keys print in
# their order; "@PATH@" stands for the instance path
_TEXT_BYTES = {
    "validate": """\
instance                                         @PATH@
verb                                             validate
results.0.name                                   AlphaRange
results.0.status                                 pass
results.1.name                                   NilpotentOperators
results.1.status                                 pass
results.2.name                                   NonCommutingOperators
results.2.status                                 pass
results.3.name                                   WeightRestrictsToComponents
results.3.status                                 pass
results.4.name                                   FiltrationNotPreserved
results.4.status                                 pass
results.5.name                                   HodgeChecks
results.5.status                                 skip
results.5.detail                                 no Hodge filtration
results.6.name                                   PairingShape
results.6.status                                 pass
results.7.name                                   PairingNondegenerate
results.7.status                                 pass
results.8.name                                   PairingParity
results.8.status                                 pass
results.9.name                                   InfinitesimalIsometry
results.9.status                                 pass
results.10.name                                  PairingRestrictsToComponents
results.10.status                                pass
verdict                                          pass
""",
    "imhs": """\
instance                                         @PATH@
verb                                             imhs
results.0.name                                   OrbitTIndependence[w=1]
results.0.status                                 pass
results.1.name                                   OrbitHodgeStructure[w=1]
results.1.status                                 pass
results.2.name                                   RelativeMonodromy[J={1}]
results.2.status                                 pass
results.3.name                                   TotalGradedMHS
results.3.status                                 pass
results.4.name                                   WeightCompatibleWithMHS
results.4.status                                 pass
results.5.name                                   Polarization[w=1]
results.5.status                                 fail
results.5.detail                                 S(F^p, F^{2-p}) is not zero on Gr^W_1: the first Hodge-Riemann relation fails
verdict                                          fail
""",
    "purity": """\
instance                                         @PATH@
verb                                             purity
results.mode                                     closed
results.center                                   1
results.shift                                    1
results.convention                               weight = label + (degree - shift)
results.rows.0.degree                            0
results.rows.0.perverse_degree                   -1
results.rows.0.label                             0
results.rows.0.weight                            -1
results.rows.0.dim                               1
results.rows.0.bound                             0
results.rows.0.relation                          <=
results.rows.0.ok                                True
results.verdict                                  pass
verdict                                          pass
""",
}


def test_text_format_bytes(tmp_path, capsys):
    riemann = tmp_path / "riemann_c1.json"
    riemann.write_text(json.dumps(_riemann_c(1)))
    runs = {"validate": (["validate"], CORPUS / "jordan2_weight0.json", 0),
            "imhs": (["imhs"], riemann, 1),
            "purity": (["purity", "--mode", "closed"], J2, 0)}
    for name, (verb, path, want) in runs.items():
        code, out = run_cli([*verb, "--format", "text", str(path)], capsys)
        assert code == want, name
        assert out == _TEXT_BYTES[name].replace("@PATH@", str(path)), name


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


def _reversed_keys(node):
    if isinstance(node, dict):
        return {k: _reversed_keys(node[k]) for k in reversed(list(node))}
    if isinstance(node, list):
        return [_reversed_keys(v) for v in node]
    return node


@pytest.mark.parametrize("spelling", ["1.0", "true"])
def test_corpus_compares_expectations_as_canonical_bytes(spelling, tmp_path,
                                                         capsys):
    """An expectation that spells an integer 1 as 1.0 or true differs from
    the report, although Python compares the values equal; one that only
    changes whitespace or key order does not."""
    for p in CORPUS.glob("rank1_trivial*"):
        shutil.copy(p, tmp_path / p.name)
    expected = tmp_path / "rank1_trivial.expected.json"
    text = expected.read_text()
    expected.write_text(text.replace('"dim":1,', f'"dim":{spelling},', 1))
    code, out = run_cli(["corpus", str(tmp_path)], capsys)
    assert code == 1
    assert json.loads(out)["results"][0]["detail"] == \
        "report differs from committed expectation"
    expected.write_text(json.dumps(_reversed_keys(json.loads(text)), indent=2))
    code, out = run_cli(["corpus", str(tmp_path)], capsys)
    assert code == 0 and json.loads(out)["verdict"] == "pass"


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


TWO_BRANCHES = CORPUS / "gen_pure_n2.json"


@pytest.mark.parametrize("argv,error", [
    (["cohomology", "--complex", "iclog", "--z", "a"],
     "--z must be comma-separated integers: "
     "invalid literal for int() with base 10: 'a'"),
    (["cohomology", "--complex", "iclog", "--z", "3"],
     "branch index 3 out of range 1..2"),
    (["star", "--branch", "3"], "--branch 3 out of range"),
    (["intersect"], "intersect needs a nonempty --z"),
    # every entry is 0 or a decimal without a leading zero, in ASCII digits
    *[(["cohomology", "--complex", "iclog", "--z", z],
       "--z must be comma-separated integers: "
       f"invalid literal for int() with base 10: {bad!r}")
      for z, bad in (("\u0661", "\u0661"), ("1_0", "1_0"), (" 1", " 1"),
                     ("+1", "+1"), ("01", "01"), ("1,,2", ""), ("2,", ""),
                     (",", ""))],
    # --branch, --k and --jobs take the same spellings, maybe negative; they
    # are read before the instance, so corpus names no directory here
    *[([verb, option, text], f"{option} must be an integer: {text!r}")
      for verb, option, text in (("star", "--branch", "\u0661"),
                                 ("star", "--branch", " +1"),
                                 ("decompose", "--k", "1_0"),
                                 ("decompose", "--k", "-0"),
                                 ("corpus", "--jobs", "\u0662"),
                                 ("corpus", "--jobs", "2.0"))],
])
def test_bad_branch_arguments_exit_two(argv, error, capsys):
    code, out = run_cli(argv + [str(TWO_BRANCHES)], capsys)
    assert code == 2
    assert json.loads(out) == {"instance": str(TWO_BRANCHES),
                               "verb": argv[0], "verdict": "error",
                               "error": error}


def test_corpus_needs_a_directory_of_instances(tmp_path, capsys):
    code, out = run_cli(["corpus", str(TWO_BRANCHES)], capsys)
    assert code == 2
    assert json.loads(out)["error"] == \
        f"corpus path {TWO_BRANCHES} is not a directory"
    code, out = run_cli(["corpus", str(tmp_path)], capsys)
    assert code == 2
    assert json.loads(out)["error"] == f"no instances found in {tmp_path}"


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_corpus_refuses_jobs_below_one(jobs, capsys):
    code, out = run_cli(["corpus", "--jobs", jobs, str(CORPUS)], capsys)
    assert code == 2
    assert json.loads(out) == {"instance": str(CORPUS), "verb": "corpus",
                               "verdict": "error",
                               "error": f"--jobs must be at least 1: {jobs}"}


def test_corpus_fails_an_instance_without_its_expected_report(tmp_path, capsys):
    shutil.copy(CORPUS / "rank1_trivial.json", tmp_path / "rank1_trivial.json")
    code, out = run_cli(["corpus", str(tmp_path)], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    assert doc["results"] == [{"instance": str(tmp_path / "rank1_trivial.json"),
                               "status": "fail",
                               "detail": "missing expected report"}]


@pytest.mark.parametrize("stem", ["j2xj2_weight2", "gen_pure_n3", "gen_mixed_n2"])
def test_decompose_at_one_weight_is_that_row_of_the_full_run(stem, capsys):
    path = str(CORPUS / f"{stem}.json")
    code, out = run_cli(["decompose", path], capsys)
    rows = json.loads(out)["results"]
    assert code == 0 and len(rows) > 1
    for row in rows:
        code, out = run_cli(["decompose", "--k", str(row["k"]), path], capsys)
        doc = json.loads(out)
        assert doc["results"] == [row]
        assert (code, doc["verdict"]) == \
            ((0, "pass") if row["verdict"] == "pass" else (1, "fail"))


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



def _record_calls(monkeypatch, owner, name):
    """The arguments of every later call to owner.name."""
    calls = []
    real = getattr(owner, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, recording)
    return calls


def _record_builds(monkeypatch, remembered):
    """The arguments of every later build, a memo miss, of a remembered
    function: its wrapper runs __wrapped__ only on a miss."""
    return _record_calls(monkeypatch, remembered, "__wrapped__")


def test_decompose_builds_the_omega_complex_once(tmp_path, monkeypatch,
                                                 capsys):
    """decompose asks for omega once for its weight list and once per
    weight; inside the run's evaluation the Koszul build runs once."""
    model = random_pure_model(3, random.Random(72))
    assert model.total_dim == 4
    path = tmp_path / "pure3-72.json"
    path.write_text(canonical_json(model_to_json(model)))
    built = _record_builds(monkeypatch, complexes._model_complex)
    code, out = run_cli(["decompose", str(path)], capsys)
    assert code == 0 and len(json.loads(out)["results"]) > 1
    assert [args[1:] for args in built] == [("omega", frozenset())]


def test_decompose_builds_each_primitive_part_once(tmp_path, monkeypatch,
                                                   capsys):
    """The graded-cohomology step cuts each primitive part to its slot of
    omega, which is the whole component space: it asks for the part the
    term-splitting step built, and nothing is built twice."""
    path = tmp_path / "pure3-72.json"
    path.write_text(canonical_json(model_to_json(
        random_pure_model(3, random.Random(72)))))
    built = _record_builds(monkeypatch, decomposition._primitive_component)
    code, out = run_cli(["decompose", str(path)], capsys)
    assert code == 0
    assert len(built) == 48 and len(set(built)) == 48


def test_corpus_entry_builds_each_support_complex_once(monkeypatch):
    """The closed, support and link batteries of one corpus entry share i^!
    of z (one quotient IC_log(z)/IC), the open battery reads IC_log along
    every branch off omega, whose complex it is, and no complex is built
    twice."""
    quotients = _record_calls(monkeypatch, complexes, "quotient_complex")
    built = _record_builds(monkeypatch, complexes._model_complex)
    cli.corpus_entry(str(CORPUS / "j2xj2_weight2.json"))
    assert len(quotients) == 1
    kinds = [args[1:] for args in built]
    assert kinds.count(("shriek", frozenset({0, 1}))) == 1
    assert kinds.count(("ic", frozenset())) == 1
    assert ("iclog", frozenset({0, 1})) not in kinds
    assert len(kinds) == len(set(kinds))
    assert linalg._MEMO.get() is None


def test_corpus_entry_constructs_one_chain_map_of_cohomologies(monkeypatch):
    """i^! is built slot by slot from the model, and the link is the cone of
    the zero map H(i^!) -> H(i^*), so an entry with S constructs one chain
    map: from the cohomology of i^! to its dual, the cohomology of i^*, and
    not the intersection morphism of the complexes."""
    made = []
    real = complexes.ComplexMap.__init__

    def recording(self, *args, **kwargs):
        real(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(complexes.ComplexMap, "__init__", recording)
    results = {"cohomology": [], "dualize": []}
    for name, calls in results.items():
        real_fn = getattr(complexes, name)

        def recording_fn(c, *args, real_fn=real_fn, calls=calls, **kwargs):
            calls.append((c, real_fn(c, *args, **kwargs)))
            return calls[-1][1]
        monkeypatch.setattr(complexes, name, recording_fn)
    path = str(CORPUS / "j2xj2_weight2.json")
    cli.corpus_entry(path)
    (f,) = made
    assert f.maps == {} and f.source.d == f.target.d == {}
    (of,) = [c for c, h in results["cohomology"] if h is f.source]
    assert [d for c, d in results["dualize"] if c is f.source] == [f.target]
    with linalg.evaluation():
        model = cli.load_model(path)
        assert same_complex(of, complexes.build_complex(model, "shriek", {0, 1}))


def test_corpus_entry_dualizes_and_takes_each_cohomology_once(monkeypatch):
    """One corpus entry takes the cohomology of omega, IC and i^! once each
    and dualizes two cohomologies, each once and no built complex: H(i^*)
    and the compact H are the duals of H(i^!) and H(IC_log), and H(IC_log)
    along every branch is H(omega).  The closed and support batteries and
    the link share those cohomologies, and the link takes none of its own."""
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
    assert len(seen["dualize"]) == 2 and len(seen["cohomology"]) == 3
    assert all(c.d == {} for c in seen["dualize"])


def test_duality_dualizes_each_complex_twice(monkeypatch, capsys):
    """The double_dual rows of duality check Verdier duality on the built
    complexes, so they dualize omega and IC twice each instead of dualizing
    a cohomology, as the other verbs do.  At n = 1 the link row reads
    H(i^*) as the one dual of H(i^!), a complex with no differential."""
    model = cli.load_model(str(J2))
    built = [complexes.build_complex(model, kind) for kind in ("omega", "ic")]
    with linalg.evaluation():
        h_shriek = complexes.cohomology(complexes.build_complex(model, "shriek", {0}))
    dualized = []
    real = complexes.dualize

    def recording(c, **kwargs):
        dualized.append((c, real(c, **kwargs)))
        return dualized[-1][1]
    monkeypatch.setattr(complexes, "dualize", recording)
    code, out = run_cli(["duality", str(J2)], capsys)
    assert code == 0
    assert [r["check"] for r in json.loads(out)["results"]] == \
        ["double_dual[omega]", "double_dual[ic]", "link_self_duality"]
    assert model.branches == 1 and len(dualized) == 5
    for c, (once, twice) in zip(built, (dualized[:2], dualized[2:4])):
        assert same_complex(once[0], c) and twice[0] is once[1]
    link_h = dualized[4][0]
    assert link_h.d == {} and link_h.to_json() == h_shriek.to_json()


# bytes no instance or expected report may hold: not UTF-8, nesting deeper
# than the decoder recurses, and not JSON
UNREADABLE = {"not_utf8": b"\xff", "too_deep": b"[" * 100_000 + b"]" * 100_000,
              "not_json": b"{broken"}


@pytest.mark.parametrize("payload", UNREADABLE)
def test_unreadable_bytes_exit_two_naming_the_file(payload, tmp_path, capsys):
    """As an instance of validate or of corpus, or as a corpus expectation,
    unreadable bytes are bad input: exit 2 with an error naming the file,
    and no traceback."""
    instance, expected = tmp_path / "instance", tmp_path / "expected"
    instance.mkdir()
    expected.mkdir()
    (instance / "x.json").write_bytes(UNREADABLE[payload])
    shutil.copy(J2, expected / "x.json")
    (expected / "x.expected.json").write_bytes(UNREADABLE[payload])
    for argv, bad in ((["validate", str(instance / "x.json")], instance / "x.json"),
                      (["corpus", str(instance)], instance / "x.json"),
                      (["corpus", str(expected)], expected / "x.expected.json")):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2, (argv, out, err)
        doc = json.loads(out)
        assert doc["verdict"] == "error" and str(bad) in doc["error"], argv
        assert "Traceback" not in err, argv


# stdout of both link verbs on a draw with no branch, run as
# `loghodge <verb> p0.json`: z is empty, and so is H(link)
N0_LINK_PURITY = ('{"center":0,"convention":"weight = label + (degree - shift)",'
                  '"mode":"link","rows":[],"shift":0,"verdict":"pass"}')
N0_LINK = {
    "link": '{"instance":"p0.json","results":{"cohomology":[],"purity":'
            + N0_LINK_PURITY + '},"verb":"link","verdict":"pass"}\n',
    "purity --mode link": '{"instance":"p0.json","results":' + N0_LINK_PURITY
                          + ',"verb":"purity","verdict":"pass"}\n',
}


@pytest.mark.parametrize("seed", range(3))
def test_the_link_of_no_branch_is_empty(seed, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    model = random_pure_model(0, random.Random(seed))
    (tmp_path / "p0.json").write_text(canonical_json(model_to_json(model)))
    for verb, want in N0_LINK.items():
        assert run_cli(verb.split() + ["p0.json"], capsys) == (0, want), verb


@pytest.mark.parametrize("seed", range(3))
def test_a_point_stratum_purity_mode_names_the_branchless_instance(
        seed, tmp_path, monkeypatch, capsys):
    """closed and support read the stalk and costalk at the branches, and an
    instance with no branch has none: exit 2, naming the mode."""
    monkeypatch.chdir(tmp_path)
    model = random_pure_model(0, random.Random(seed))
    (tmp_path / "p0.json").write_text(canonical_json(model_to_json(model)))
    for mode in ("closed", "support"):
        assert run_cli(["purity", "--mode", mode, "p0.json"], capsys) == (2, (
            '{"error":"purity --mode ' + mode + ' needs a branch, and the '
            'instance has none","instance":"p0.json","verb":"purity",'
            '"verdict":"error"}\n'))


def _dims(rows):
    return {r["degree"]: r["dim"] for r in rows}


def test_dependent_branches_keep_the_ic_and_a_self_dual_link(tmp_path,
                                                              capsys):
    """N_1 = N_2 = J2, with jordan2_weight1's W, F and S at perverse shift
    2: branches that depend on each other, which no generator draws.  link
    exits 1 today, with dims 1, 2, 1 in degrees 0-2; a link that passes here
    must be self-dual in degree, k <-> 2n - 1 - k."""
    doc = json.loads(J2.read_text())
    doc.update(branches=2, perverse_shift=2)
    comp = doc["components"][0]
    comp.update(alpha=["0", "0"], N=comp["N"] * 2)
    path = tmp_path / "dependent.json"
    path.write_text(json.dumps(doc))
    for verb in ("validate", "imhs"):
        assert run_cli([verb, str(path)], capsys)[0] == 0, verb
    code, out = run_cli(["cohomology", "--complex", "ic", str(path)], capsys)
    assert code == 0
    assert _dims(json.loads(out)["results"]) == {0: 1, 1: 1}
    code, out = run_cli(["link", str(path)], capsys)
    assert code in (0, 1)
    if code == 0:
        dims = _dims(json.loads(out)["results"]["cohomology"])
        assert all(dims.get(k, 0) == dims.get(3 - k, 0) for k in range(4))


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


# the verbs that give a verdict, each refused by main's gate unless the
# instance passes validate (and carries S, for the first seven)
VERDICT_ARGV = [
    *[["purity", "--mode", mode]
      for mode in ("open", "support", "closed", "compact", "link")],
    ["link"], ["intersect", "--z", "1"], ["duality"], ["imhs"], ["decompose"],
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


def _alpha_third(tmp_path):
    """J2 weight 1 at exponent 1/3: S pairs the component with itself, which
    T = exp(-2 pi i/3) (unipotent) does not preserve."""
    doc = json.loads(J2.read_text())
    doc["components"][0]["alpha"] = ["1/3"]
    path = tmp_path / "alpha_third.json"
    path.write_text(json.dumps(doc))
    return path


def _alpha_third_pair(tmp_path):
    """Two lines of exponents 1/3 and 2/3, S pairing one with the other:
    a pairing T preserves, but conjugation keeps each line in place, so the
    pair carries no real structure in the instance format."""
    doc = {"branches": 1, "base_weight": 0, "perverse_shift": 1,
           "components": [{"alpha": [a], "dim": 1, "N": [[["0"]]]}
                          for a in ("1/3", "2/3")],
           "W": [{"weight": 0, "basis": [["1", "0"], ["0", "1"]]}],
           "S": {"matrix": [["0", "1"], ["1", "0"]], "parity": 0}}
    path = tmp_path / "alpha_third_pair.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("instance, detail", [
    (_alpha_third, "S pairs component 0 with itself, but 2*alpha_j is not an "
                   "integer for some branch j"),
    (_alpha_third_pair, "S pairs distinct components"),
])
def test_a_pairing_the_monodromy_cannot_preserve_is_refused(
        instance, detail, tmp_path, capsys):
    path = instance(tmp_path)
    code, out = run_cli(["validate", str(path)], capsys)
    rows = {c["name"]: c for c in json.loads(out)["results"]}
    assert code == 1
    assert rows["PairingRestrictsToComponents"] == {
        "name": "PairingRestrictsToComponents", "status": "fail",
        "detail": detail}
    for verb in ("link", "imhs"):
        code, out = run_cli([verb, str(path)], capsys)
        assert code == 2
        assert json.loads(out)["error"] == (
            "loghodge.errors.InvalidModel: instance fails validate: "
            "PairingRestrictsToComponents")


def test_purity_link_and_intersect_refuse_an_instance_without_s(tmp_path,
                                                                capsys):
    """Both instances pass validate and carry no S.  The purity and link
    theorems are about polarized input, so those verdicts are refused;
    duality, decompose, imhs and cohomology need no S and still run (imhs
    needs F, which the spectral draw lacks)."""
    seed = 0    # the n = 1 spectral draw of test_verb_contract
    while (spectral := random_spectral_model(1, random.Random(seed))
           ).total_dim > 4:
        seed += 1
    spectral_path = tmp_path / "spectral1.json"
    spectral_path.write_text(canonical_json(model_to_json(spectral)))
    for path in (CORPUS / "gen_mixed_n1.json", spectral_path):
        code, out = run_cli(["validate", str(path)], capsys)
        assert code == 0 and "S" not in json.loads(path.read_text())
        for argv in VERDICT_ARGV[:7]:
            assert cli.VERBS[argv[0]][1] == cli.POLARIZED
            code, out = run_cli(argv + [str(path)], capsys)
            doc = json.loads(out)
            assert code == 2 and "results" not in doc, (path.name, argv)
            assert doc["error"] == ("loghodge.errors.InvalidModel: instance "
                                    "carries no pairing S")
        for argv in (["duality"], ["decompose"], ["imhs"], ["cohomology"]):
            code, out = run_cli(argv + [str(path)], capsys)
            if argv == ["imhs"] and path == spectral_path:
                assert code == 2 and json.loads(out)["error"].startswith(
                    "loghodge.errors.MissingHodgeFiltration: "), out
                continue
            assert code in (0, 1), (path.name, argv, out)
            assert json.loads(out)["verdict"] in ("pass", "fail")


def test_the_gate_runs_before_a_verb_reads_z(tmp_path, capsys):
    """Four verbs ignore --z, so a bad one leaves their bytes; the other
    seven refuse it.  A verb that presumes its instance reports the refused
    instance first, even when --z is bad too."""
    z_error = ("--z must be comma-separated integers: "
               "invalid literal for int() with base 10: 'x'")
    j2xj2 = str(CORPUS / "j2xj2_weight2.json")
    for verb in ("validate", "imhs", "filtration", "star"):
        assert run_cli([verb, j2xj2, "--z", "x"], capsys) == run_cli(
            [verb, j2xj2], capsys), verb
    for verb in ("cohomology", "relmono", "decompose", "intersect", "purity",
                 "link", "duality"):
        code, out = run_cli([verb, j2xj2, "--z", "x"], capsys)
        assert (code, json.loads(out)["error"]) == (2, z_error), verb

    doc = json.loads(J2.read_text())
    doc["components"][0]["N"] = [[["1", "1"], ["0", "0"]]]
    not_nilpotent = tmp_path / "not_nilpotent.json"
    not_nilpotent.write_text(json.dumps(doc))
    refused = ("loghodge.errors.InvalidModel: instance fails validate: "
               "NilpotentOperators, InfinitesimalIsometry")
    for verb, error in (
            *[(v, refused) for v in ("imhs", "decompose", "duality", "purity",
                                     "link", "intersect")],
            ("cohomology", z_error), ("relmono", z_error)):
        code, out = run_cli([verb, str(not_nilpotent), "--z", "x"], capsys)
        assert (code, json.loads(out)["error"]) == (2, error), verb

    for verb in ("purity", "link", "intersect"):
        code, out = run_cli([verb, str(CORPUS / "gen_mixed_n1.json"),
                             "--z", "x"], capsys)
        assert (code, json.loads(out)["error"]) == (2, (
            "loghodge.errors.InvalidModel: instance carries no pairing S")), verb


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
    def broken(model, args, z):
        raise RuntimeError("internal bug")

    monkeypatch.setitem(cli.VERBS, "validate", (broken, None, None))
    code = main(["validate", str(J2)])
    captured = capsys.readouterr()
    assert code == 3
    doc = json.loads(captured.out)
    assert doc == {"instance": str(J2), "verb": "validate", "verdict": "error",
                   "error": "internal error: RuntimeError: internal bug"}
    assert "Traceback" in captured.err


def test_a_w_of_n_failing_its_axioms_exits_three(monkeypatch, capsys):
    """W(N) of a nilpotent N always exists, so a W(N), which is M(N, W) over
    a pure W, that fails the re-verification is a bug, never a property of
    the instance."""
    monkeypatch.setattr(filtrations, "axioms_in_t",
                        lambda *args: False)
    code = main(["imhs", str(J2)])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out) == {
        "instance": str(J2), "verb": "imhs", "verdict": "error",
        "error": "internal error: AssertionError: M(N, W) fails its axioms"}


@pytest.mark.parametrize("verb", ["relmono", "star"])
def test_an_m_of_n_w_failing_its_axioms_exits_three(monkeypatch, capsys, verb):
    """Over a W of two jumps too, lifted chains meet the axioms by
    construction, so a failed re-verification is a bug, never a missing
    M(N, W): only a failed lift is a property of the instance."""
    path = CORPUS / "gen_mixed_n1.json"
    monkeypatch.setattr(filtrations, "axioms_in_t",
                        lambda *args: False)
    code = main([verb, str(path)])
    assert code == 3
    assert json.loads(capsys.readouterr().out) == {
        "instance": str(path), "verb": verb, "verdict": "error",
        "error": "internal error: AssertionError: M(N, W) fails its axioms"}


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


@pytest.mark.parametrize("argv, expected", [
    (["cohomology", "--complex", "omega"], 0),
    (["purity", "--mode", "closed"], 0),
    (["link"], 1),
])
def test_zero_operators_lift_no_chain_and_eliminate_no_zero_matrix(
        argv, expected, tmp_path, monkeypatch, capsys):
    """Every residue operator of imhs3-2 is zero: its W^J stars are W, its
    Koszul differentials zero, and its kernels whole spaces."""
    model = random_imhs_model(3, random.Random(2))
    assert all(n.is_zero() for c in model.components for n in c.nilpotents)
    path = tmp_path / "imhs3-2.json"
    path.write_text(canonical_json(model_to_json(model)))
    real_kernel_basis = linalg._kernel_basis

    def kernel_basis(m):
        assert not m.is_zero(), "a zero matrix eliminated"
        return real_kernel_basis(m)
    monkeypatch.setattr(linalg, "_kernel_basis", kernel_basis)
    monkeypatch.setattr(filtrations, "_jordan_chain_tops", None)
    code, out = run_cli([argv[0], str(path)] + argv[1:], capsys)
    assert code == expected, out


def test_intersect_builds_no_complex(monkeypatch, capsys):
    """The intersection morphism is zero, so intersect reports its empty
    image without constructing any complex."""
    built = []
    original = complexes.FilteredComplex.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(complexes.FilteredComplex, "__init__", counting)
    code, out = run_cli(["intersect", "--z", "1",
                         str(CORPUS / "gen_pure_n3.json")], capsys)
    assert code == 0 and json.loads(out)["verdict"] == "pass"
    assert json.loads(out)["results"] == [] and built == []
    run_cli(["link", str(CORPUS / "gen_pure_n3.json")], capsys)
    assert built


@pytest.mark.parametrize("argv", [["validate"], ["purity", "--mode", "compact"],
                                  ["link"], ["decompose"]])
def test_zero_operators_combine_no_vanishing_rows(argv, tmp_path, monkeypatch,
                                                   capsys):
    """Every residue operator of imhs3-2 is zero, so each product, sum and
    transpose with one answers from its shape: no row combination has only
    zero coefficients or only zero rows (these verbs made 32, 62, 60 and 54
    such combinations when the arithmetic multiplied through zero)."""
    model = random_imhs_model(3, random.Random(2))
    path = tmp_path / "imhs3-2.json"
    path.write_text(canonical_json(model_to_json(model)))
    vanishing, real_lincomb = [], linalg._lincomb

    def lincomb(c, rows, n):
        if c.is_zero() or all(r.is_zero() for r in rows):
            vanishing.append(c)
        return real_lincomb(c, rows, n)
    monkeypatch.setattr(linalg, "_lincomb", lincomb)
    code, out = run_cli([argv[0], str(path)] + argv[1:], capsys)
    assert code in (0, 1) and json.loads(out)["verdict"] != "error"
    assert vanishing == []


def _riemann_c(c):
    """n = 1, N = 0, W pure of weight 1 on Q^4, S the standard symplectic
    form, F^1 = span(e1 + i f1 + c f2, e2 + i f2): at c = 1, S(v1, v2) = -1,
    though i S(x, conj x) is positive on F^1."""
    unit = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    return {"branches": 1, "base_weight": 1, "perverse_shift": 1,
            "components": [{"alpha": ["0"], "dim": 4,
                            "N": [[["0"] * 4 for _ in range(4)]]}],
            "W": [{"weight": 1, "basis": unit}],
            "F": [{"p": 1, "basis": [["1", "0", "1*i", str(c)],
                                     ["0", "1", "0", "1*i"]]},
                  {"p": 2, "basis": []}],
            "S": {"matrix": [["0", "0", "1", "0"], ["0", "0", "0", "1"],
                             ["-1", "0", "0", "0"], ["0", "-1", "0", "0"]],
                  "parity": 1}}


@pytest.mark.parametrize("c", [0, 1])
def test_imhs_fails_an_f1_that_is_not_isotropic(c, tmp_path, capsys):
    """The first Hodge-Riemann relation S(F^1, F^1) = 0 fails at c = 1 only,
    and the Polarization row names it."""
    path = tmp_path / f"riemann_c{c}.json"
    path.write_text(json.dumps(_riemann_c(c)))
    code, out = run_cli(["imhs", str(path)], capsys)
    assert code == c
    rows = {r["name"]: r for r in json.loads(out)["results"]}
    assert [name for name, r in rows.items() if r["status"] != "pass"] == \
        (["Polarization[w=1]"] if c else [])
    if c:
        assert rows["Polarization[w=1]"]["detail"] == (
            "S(F^p, F^{2-p}) is not zero on Gr^W_1: the first Hodge-Riemann "
            "relation fails")


def _j2_with(**changes):
    doc = json.loads(J2.read_text())
    doc.update(changes)
    return doc


# instances that passed validate while only alpha had to be rational
NOT_RATIONAL = [
    ({"branches": 1, "base_weight": 0, "perverse_shift": 1,
      "components": [{"alpha": ["0"], "dim": 2, "N": [[["0", "0"], ["0", "0"]]]}],
      "W": [{"weight": 0, "basis": [["1", "1*i"]]},
            {"weight": 2, "basis": [["1", "0"], ["0", "1"]]}],
      "F": [{"p": 1, "basis": [["0", "1"]]}, {"p": 2, "basis": []}]},
     "W must be rational"),
    (_j2_with(components=[{"alpha": ["0"], "dim": 2,
                           "N": [[["0", "1*i"], ["0", "0"]]]}]),
     "component 0: N must be rational"),
    (_j2_with(S={"matrix": [["0", "1*i"], ["-1*i", "0"]], "parity": 1}),
     "S must be rational"),
]


@pytest.mark.parametrize("verb", list(cli.VERBS))
def test_every_verb_refuses_a_w_n_or_s_that_is_not_rational(verb, tmp_path,
                                                            capsys):
    for k, (doc, message) in enumerate(NOT_RATIONAL):
        path = tmp_path / f"not_rational{k}.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli([verb, str(path)], capsys)
        assert (code, json.loads(out)["error"]) == (2, message), path.name


def test_every_readme_example_runs(monkeypatch, capsys):
    """Each command of README's fenced `loghodge ...` block, on the corpus
    instance j2xj2_weight2 for model.json, exits 0 or 1 with one JSON line
    (its link, of two branches, exits 1: ROADMAP item 1)."""
    root = CORPUS.parent
    blocks = (root / "README.md").read_text().split("```")[1::2]
    (block,) = [b for b in blocks if b.lstrip("\n").startswith("loghodge ")]
    commands = [shlex.split(line, comments=True)
                for line in block.splitlines() if line.strip()]
    assert len(commands) == 13
    monkeypatch.chdir(root)
    for command in commands:
        assert command[0] == "loghodge"
        argv = ["corpus/j2xj2_weight2.json" if a == "model.json" else a
                for a in command[1:]]
        code, out = run_cli(argv, capsys)
        assert code in (0, 1) and out.count("\n") == 1, (command, code)
        json.loads(out)
