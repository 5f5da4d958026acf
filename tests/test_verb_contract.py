"""Every verb, run in-process on small generated draws, ends in one JSON
document and a documented exit code: 0 pass, 1 fail, 2 error, never 3."""

import ast
import hashlib
import importlib
import itertools
import json
import random
import sys
import threading
from pathlib import Path

import pytest

import loghodge
from loghodge.cli import main
from loghodge.generate import (
    random_imhs_model,
    random_pure_model,
    random_spectral_model,
)
from loghodge.model import canonical_json, model_to_json
from loghodge.scalars import Scalar

MAX_DIM = 4
VARIANTS = [
    ["validate"], ["imhs"], ["cohomology", "--complex", "iclog", "--z", "1"],
    ["filtration"], ["star"], ["relmono"], ["decompose"],
    ["intersect", "--z", "1"], ["link"], ["duality"],
] + [["purity", "--mode", mode]
     for mode in ("closed", "support", "open", "compact", "link")]
VERDICT = {0: "pass", 1: "fail", 2: "error"}


def _draws():
    """Seed 0 of the pure and imhs generators per branch count, and the first
    seed of random_spectral_model, which takes no dimension cap, whose draw
    has at most MAX_DIM coordinates."""
    out = []
    for n in (1, 2, 3):
        out.append((f"pure{n}", random_pure_model(n, random.Random(0),
                                                  max_dim=MAX_DIM)))
        out.append((f"imhs{n}", random_imhs_model(n, random.Random(0),
                                                  max_dim=MAX_DIM)))
        seed = 0
        while (model := random_spectral_model(n, random.Random(seed))
               ).total_dim > MAX_DIM:
            seed += 1
        out.append((f"spectral{n}", model))
    return out


@pytest.fixture(scope="module")
def draw_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("draws")
    paths = []
    for name, model in _draws():
        path = root / f"{name}.json"
        path.write_text(canonical_json(model_to_json(model)))
        paths.append(path)
    return paths


@pytest.mark.parametrize("variant", VARIANTS, ids=" ".join)
def test_every_run_prints_one_document_and_a_documented_code(
        variant, draw_paths, capsys):
    for path in draw_paths:
        code = main([variant[0], str(path)] + variant[1:])
        out = capsys.readouterr().out
        assert code in VERDICT, f"{path.name}: exit {code}: {out}"
        assert out.endswith("\n") and out.count("\n") == 1, path.name
        doc = json.loads(out)
        assert doc["verb"] == variant[0] and doc["verdict"] == VERDICT[code], \
            f"{path.name}: exit {code} with verdict {doc['verdict']}"


# the dim-8 three-branch draws among seeds 0-29 whose link, purity --mode
# link and intersect runs once exited 3: every dim-8 pure draw, and the imhs
# draws of seeds 1, 3 and 26
DIM8_DRAWS = [(random_pure_model, s)
              for s in (3, 7, 8, 9, 11, 12, 13, 16, 17, 21, 24, 26, 27)] + \
    [(random_imhs_model, s) for s in (1, 3, 26)]


def test_the_dim8_link_runs_end_in_a_verdict(tmp_path, capsys):
    for make, seed in DIM8_DRAWS:
        model = make(3, random.Random(seed))
        assert model.total_dim == 8 and model.pairing is not None
        path = tmp_path / f"{make.__name__}-{seed}.json"
        path.write_text(canonical_json(model_to_json(model)))
        for variant in (["link"], ["purity", "--mode", "link"],
                        ["intersect", "--z", "1"]):
            code = main([variant[0], str(path)] + variant[1:])
            out = capsys.readouterr().out
            assert code in (0, 1), f"{path.name} {variant}: exit {code}: {out}"
            assert out.count("\n") == 1
            assert json.loads(out)["verdict"] == VERDICT[code]


def _sweep_draws():
    """The pure, imhs and spectral draws on n <= 3 branches of seeds 0-29,
    those with at most 8 coordinates."""
    for make in (random_pure_model, random_imhs_model, random_spectral_model):
        for n in range(4):
            for seed in range(30):
                model = make(n, random.Random(seed))
                if model.total_dim <= 8:
                    yield f"{make.__name__}-{n}-{seed}", model


def _sweep_variants(n):
    """Every verb; each verb that reads --z, at every nonempty subset of
    the n branches, or without it when there is none."""
    subsets = [",".join(map(str, c)) for r in range(1, n + 1)
               for c in itertools.combinations(range(1, n + 1), r)]
    reading_z = [["cohomology", "--complex", kind]
                 for kind in ("omega", "ic", "iclog")] + \
        [["relmono"], ["decompose"], ["intersect"], ["link"], ["duality"]] + \
        [["purity", "--mode", mode]
         for mode in ("closed", "support", "open", "compact", "link")]
    yield from (["validate"], ["imhs"], ["filtration"], ["star"])
    for variant in reading_z:
        if not subsets:
            yield variant
        for z in subsets:
            yield variant + ["--z", z]


# sha256 of the sweep's runs, each folded in as its draw name, argv, exit
# code and stdout; a change that moves a byte of any verb re-records it
# with its reason
_SWEEP_DIGEST = \
    "0f6a3d10870cbe70c6875c2edabc311341819bad89f70f0a944161454a49c9bd"


@pytest.mark.slow
def test_every_verb_on_every_small_draw_ends_in_a_documented_code(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)     # a relative path keeps tmp_path out of stdout
    path = Path("draw.json")
    digest = hashlib.sha256()
    for name, model in _sweep_draws():
        path.write_text(canonical_json(model_to_json(model)))
        for variant in _sweep_variants(model.branches):
            argv = [variant[0], str(path)] + variant[1:]
            code = main(argv)
            out = capsys.readouterr().out
            assert code in VERDICT, f"{name} {variant}: exit {code}: {out}"
            assert out.endswith("\n") and out.count("\n") == 1, (name, variant)
            assert json.loads(out)["verdict"] == VERDICT[code], (name, variant)
            digest.update(json.dumps([name, argv, code, out]).encode() + b"\n")
    assert digest.hexdigest() == _SWEEP_DIGEST


# the arithmetic dunders of Scalar: the tests' reference arithmetic, which no
# verb and no generator runs
SCALAR_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__neg__")
CORPUS = Path(__file__).resolve().parent.parent / "corpus"
PACKAGE = Path(loghodge.__file__).resolve().parent


def _generated():
    """Canonical JSON of a few draws of each generator, the pure and imhs
    ones with S and the imhs ones with a Gaussian F."""
    draws = [(make, n, seed) for n in (1, 2, 3)
             for make, seed in ((random_pure_model, 0), (random_imhs_model, 0),
                                (random_imhs_model, 6))]
    out = {f"{make.__name__}-{n}-{seed}.json": canonical_json(model_to_json(
        make(n, random.Random(seed), max_dim=MAX_DIM))) for make, n, seed in draws}
    for n in (1, 2, 3):
        out[f"spectral-{n}.json"] = canonical_json(model_to_json(
            random_spectral_model(n, random.Random(n))))
    return out


def _outputs(paths, capsys):
    """(argv, exit code, stdout) of every verb variant on every path, the
    omega and ic cohomology included, and of the corpus verb."""
    runs = [["corpus", str(CORPUS), "--jobs", jobs] for jobs in ("1", "2")]
    runs += [[v[0], str(path)] + v[1:] for path in paths
             for v in VARIANTS + [["cohomology", "--complex", kind]
                                  for kind in ("omega", "ic")]]
    out = []
    for argv in runs:
        code = main(argv)
        out.append((argv, code, capsys.readouterr().out))
    return out


def test_no_verb_and_no_generator_runs_scalar_arithmetic(tmp_path, capsys,
                                                         monkeypatch):
    """With every arithmetic dunder of Scalar raising, the generators draw
    the same models and every verb prints what it prints without the patch:
    each kernel runs on the Row ints, and a sign is an int."""
    generated = _generated()
    for name, text in generated.items():
        (tmp_path / name).write_text(text)
    paths = [p for p in sorted(CORPUS.glob("*.json"))
             if not p.name.endswith(".expected.json")] + \
        sorted(tmp_path.glob("*.json"))
    assert len(paths) == 8 + len(generated)
    expected = _outputs(paths, capsys)

    def forbidden(*args):
        raise AssertionError("Scalar arithmetic ran")
    for name in SCALAR_ARITHMETIC:
        monkeypatch.setattr(Scalar, name, forbidden)
    assert _generated() == generated
    assert _outputs(paths, capsys) == expected


def test_no_verb_eliminates_no_rows(tmp_path, capsys, monkeypatch):
    """With rref failing on an input of no rows, in every module that binds
    it, each verb that reads filtrations at their jumps runs on the corpus
    and on small pure and imhs draws, and none asks for that elimination."""
    empty = []
    real_rref = importlib.import_module("loghodge.linalg").rref

    def rref_of_rows(rows, width):
        if not (rows := list(rows)):
            empty.append(width)
            raise AssertionError("rref of no rows")
        return real_rref(rows, width)
    for stem in ("linalg", "model", "generate"):
        monkeypatch.setattr(importlib.import_module(f"loghodge.{stem}"),
                            "rref", rref_of_rows)
    for make, n, seed in itertools.product(
            (random_pure_model, random_imhs_model), (1, 2, 3), (0, 1, 2)):
        (tmp_path / f"{make.__name__}-{n}-{seed}.json").write_text(canonical_json(
            model_to_json(make(n, random.Random(seed), max_dim=MAX_DIM))))
    paths = [p for p in sorted(CORPUS.glob("*.json"))
             if not p.name.endswith(".expected.json")] + \
        sorted(tmp_path.glob("*.json"))
    for path in paths:
        for variant in [["validate"], ["imhs"], ["relmono"], ["star"], ["link"],
                        ["decompose"]] + [["purity", "--mode", mode] for mode in (
                            "closed", "support", "open", "compact", "link")]:
            code = main([variant[0], str(path)] + variant[1:])
            capsys.readouterr()
            assert not empty, f"{path.name} {variant}: exit {code}"


# the functions of the package that no run of the trace below enters, each
# with the reason it stays; __radd__ and __rmul__ share the code of __add__
# and __mul__
UNENTERED = {name: reason for reason, names in {
    "bound by name in perfbench/spans.py, its TARGETS or SCALAR_OPS": (
        "complexes.intersection_morphism", "complexes.link_complex",
        "linalg.Matrix.preimage", "scalars.Scalar.__add__",
        "scalars.Scalar.__sub__", "scalars.Scalar.__rsub__",
        "scalars.Scalar.__mul__", "scalars.Scalar.__truediv__",
        "scalars.Scalar.__rtruediv__"),
    "the immutability guard: no verb assigns to a model or a component": (
        "model._Frozen.__setattr__",),
    "read by perfbench's tracer, for linalg.apply.nonzero_share": (
        "scalars.Scalar.__bool__",),
    "the tests' reference arithmetic": (
        "scalars.Scalar.__neg__", "scalars.Scalar.conj",
        "scalars.Scalar.__eq__", "scalars.Scalar.__hash__"),
    "debugging output": (
        "filtrations.Filtration.__repr__", "linalg.Row.__repr__",
        "linalg.Subspace.__repr__", "linalg.Subquotient.__repr__",
        "scalars.Scalar.__repr__"),
    "run at import, to mark the remembered functions": (
        "linalg._remembered",),
}.items() for name in names}


def _package_defs():
    """The name, module.qualified name, of every function a def in a module
    file of the package defines, keyed by (file, first line): the line of
    its first decorator, as in its code object."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    out[str(path), first] = name
                walk(child, path, name)
            else:
                walk(child, path, prefix)
    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path, path.stem)
    return out


def _caches():
    """The functools.cache wrappers among the package's functions and
    methods: a warm one would answer without entering its function."""
    modules = [importlib.import_module(f"loghodge.{p.stem}")
               for p in PACKAGE.glob("*.py") if p.stem != "__init__"]
    for obj in (o for m in modules for o in vars(m).values()):
        for fn in vars(obj).values() if isinstance(obj, type) else (obj,):
            if hasattr(fn := getattr(fn, "__func__", fn), "cache_clear"):
                yield fn


@pytest.mark.slow
def test_every_package_function_runs_or_is_listed_with_its_reason(
        tmp_path, capsys):
    """Under a profile of every thread, the corpus and generated draws
    through _outputs, every variant on a dim-6 imhs draw whose chain lift
    takes a correction, and one --format text run enter every function of
    the package but those UNENTERED lists, and none of those."""
    for fn in _caches():
        fn.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        for name, text in _generated().items():
            (tmp_path / name).write_text(text)
        dim6 = tmp_path / "imhs-dim6.json"
        dim6.write_text(canonical_json(model_to_json(
            random_imhs_model(2, random.Random(0)))))
        paths = [p for p in sorted(CORPUS.glob("*.json"))
                 if not p.name.endswith(".expected.json")] + \
            sorted(tmp_path.glob("*.json"))
        _outputs(paths, capsys)
        main(["validate", str(dim6), "--format", "text"])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert capsys.readouterr().out.startswith("instance ")
    defs = _package_defs()
    ran = {defs.get((str(Path(c.co_filename).resolve()), c.co_firstlineno))
           for c in entered}
    assert sorted(set(defs.values()) - ran - set(UNENTERED)) == []
    assert sorted(set(UNENTERED) & ran) == []
    assert set(UNENTERED) <= set(defs.values())
