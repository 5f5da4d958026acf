"""Batch front door: parse instances, dispatch computations, emit reports.

Output is a single JSON document on stdout (or a plain-text table with
--format text).  Exit codes: 0 success, 1 a checker verb found a violated
property, 2 bad input, 3 an internal error (a bug, not a property of the
input).  Identical input bytes produce identical output bytes.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache
from pathlib import Path

from . import decomposition as dec
from . import complexes as cx
from .errors import InvalidModel, LogHodgeError, ParseError
from .filtrations import relative_monodromy_filtration, star
from .linalg import evaluation
from .model import canonical_json, imhs_check, load_model, read_json, validate
from .scalars import _INT_RE


def _parse_z(text, model, every):
    """The 0-based branches --z names; an empty --z names every branch or
    none, as every says."""
    if not text:
        return frozenset(range(model.branches) if every else ())
    entries = text.split(",")
    for t in entries:
        if not re.fullmatch("0|[1-9][0-9]*", t):    # int() reads more: +1, 1_0
            raise ParseError("--z must be comma-separated integers: "
                             f"invalid literal for int() with base 10: {t!r}")
    idx = list(map(int, entries))
    for j in idx:
        if not 1 <= j <= model.branches:
            raise ParseError(f"branch index {j} out of range 1..{model.branches}")
    return frozenset(j - 1 for j in idx)


def _parse_int_options(args):
    """--k, --branch and --jobs as ints in the instance format's integer
    grammar: int() reads more, as _parse_z says."""
    for name in ("k", "branch", "jobs"):
        text = getattr(args, name)
        if text is not None and not _INT_RE.fullmatch(text):
            raise ParseError(f"--{name} must be an integer: {text!r}")
        setattr(args, name, None if text is None else int(text))


def _purity_cohomology(model, mode, z):
    if mode == "link":  # from H(i^!) and H(i^*); z is empty when n = 0
        return cx.link_cohomology(*(_purity_cohomology(model, m, z)
                                    for m in ("support", "closed")))
    return cx.kind_cohomology(model, dec.MODES[mode][0], z)


def _require_valid(report):
    """Raise InvalidModel naming the failed rows, if report fails any."""
    failed = dict.fromkeys(c["name"] for c in report.checks if c["status"] == "fail")
    if failed:
        raise InvalidModel(f"instance fails validate: {', '.join(failed)}")


def _rows(report):
    return report.checks, report.passed


def run_cohomology(model, args, z):
    return cx.kind_cohomology(model, args.complex, z).to_json(), None


def run_filtration(model, args, z):
    return {"W": model.weight.to_json(),
            "graded_dims": {str(k): d
                            for k, d in model.weight.graded_dims().items()}}, None


def run_star(model, args, z):
    j = args.branch - 1
    if not 0 <= j < model.branches:
        raise ParseError(f"--branch {args.branch} out of range")
    out = star(model.nilpotent(j), model.weight)
    return {"star": out.to_json()}, None


def run_relmono(model, args, z):
    n = model.nilpotent_sum(sorted(z))
    out = relative_monodromy_filtration(n, model.weight)
    return {"branches": sorted(j + 1 for j in z),
            "relative_monodromy": out.to_json()}, None


def run_decompose(model, args, z):
    # by default every weight where a filtration of omega jumps; omega holds
    # one at exactly its nonzero terms
    weights = [args.k] if args.k is not None else sorted(
        {k for f in cx.build_complex(model, "omega").weight.values()
         for k in f.jumps()})
    reps = [(k, dec.check_graded_decomposition(model, k, args.complex, z))
            for k in weights]
    return ([{"k": k, **rep.to_json()} for k, rep in reps],
            all(rep.passed for _, rep in reps))


def run_intersect(model, args, z):
    if not z:
        raise ParseError("intersect needs a nonempty --z")
    return dec.intersection_image(model, z), True


def run_purity(model, args, z):
    if not z and args.mode in ("closed", "support"):
        raise ParseError(f"purity --mode {args.mode} needs a branch, "
                         "and the instance has none")
    verdict = dec.purity_check(_purity_cohomology(model, args.mode, z),
                               model.base_weight, model.perverse_shift, args.mode)
    return verdict.to_json(), verdict.passed


def run_link(model, args, z):
    rep = _purity_cohomology(model, "link", z)
    verdict = dec.purity_check(rep, model.base_weight, model.perverse_shift, "link")
    return {"cohomology": rep.to_json(), "purity": verdict.to_json()}, \
        verdict.passed


def run_duality(model, args, z):
    a, m = model.base_weight, model.perverse_shift
    results = []
    for kind in ("omega", "ic"):
        c = cx.build_complex(model, kind, z)
        good = cx.kind_cohomology(model, kind).profile() == cx.cohomology(
            cx.dualize(cx.dualize(c, a=a), a=a)).profile()
        results.append({"check": f"double_dual[{kind}]",
                        "status": "pass" if good else "fail"})
    status = "skip"
    if model.branches == 1:
        # the link reads no S; for n >= 2 it is still built from the
        # union-of-branches i^! and i^*, which miss the link S^{2n-1}
        prof = _purity_cohomology(model, "link", z).profile()
        good = all(p == {2 * a + 1 - w: d
                         for w, d in prof.get(2 * m - 1 - k, {}).items()}
                   for k, p in prof.items())
        status = "pass" if good else "fail"
    results.append({"check": "link_self_duality", "status": status})
    return results, all(r["status"] != "fail" for r in results)


def run_corpus(args):
    if args.jobs < 1:
        raise ParseError(f"--jobs must be at least 1: {args.jobs}")
    root = Path(args.input)
    if not root.is_dir():
        raise ParseError(f"corpus path {root} is not a directory")
    paths = sorted(p for p in root.glob("*.json")
                   if not p.name.endswith(".expected.json"))
    if not paths:
        raise ParseError(f"no instances found in {root}")

    def one(path):
        try:
            return path, corpus_entry(str(path))
        except LogHodgeError as exc:
            raise type(exc)(f"{path}: {exc}") from exc

    if args.jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            produced = dict(pool.map(one, paths))
    else:
        produced = dict(one(p) for p in paths)
    results = []
    ok = True
    for path in paths:
        entry = produced[path]
        expected_path = path.parent / (path.stem + ".expected.json")
        row = {"instance": str(path)}
        if not expected_path.exists():
            row["status"] = "fail"
            row["detail"] = "missing expected report"
            ok = False
        elif read_json(expected_path, "expected report") == entry:
            row["status"] = "pass"
        else:
            row["status"] = "fail"
            row["detail"] = "report differs from committed expectation"
            ok = False
        results.append(row)
    return results, ok


def corpus_entry(path: str) -> dict:
    """The standard battery replayed by the corpus verb, in an evaluation
    (the caller's when one is open; a pool thread sees none and opens its own)."""
    with evaluation():
        model = load_model(path)
        report = validate(model)
        _require_valid(report)
        entry = {"validate": report.to_json()}
        entry["cohomology"] = {
            kind: cx.kind_cohomology(model, kind).to_json()
            for kind in ("omega", "ic")}
        if model.hodge is not None:
            entry["imhs"] = imhs_check(model).to_json()
        if model.pairing is not None and model.branches:
            z = frozenset(range(model.branches))
            reps = {mode: _purity_cohomology(model, mode, z)
                    for mode, (kind, _) in dec.MODES.items() if kind}
            entry["purity"] = {mode: dec.purity_check(
                rep, model.base_weight, model.perverse_shift, mode).to_json()
                for mode, rep in reps.items()}
            entry["link"] = cx.link_cohomology(reps["support"],
                                               reps["closed"]).to_json()
        return entry


# each verb: (runner, what it presumes of its instance, how it reads --z).
# main enforces the presumption before the verb runs: VALID, a passing
# validate; POLARIZED, that and S.  The other verbs report on any instance,
# and main names the validate rows behind their errors.  Then main reads
# --z and passes the runner its branch set: an empty --z is no branch
# (NO_BRANCH) or every branch (EVERY_BRANCH); None, the verb ignores --z.
VALID, POLARIZED = "valid", "polarized"
NO_BRANCH, EVERY_BRANCH = False, True
VERBS = {
    "validate": (lambda model, args, z: _rows(validate(model)), None, None),
    "imhs": (lambda model, args, z: _rows(imhs_check(model)), VALID, None),
    "cohomology": (run_cohomology, None, NO_BRANCH),
    "filtration": (run_filtration, None, None),
    "star": (run_star, None, None),
    "relmono": (run_relmono, None, EVERY_BRANCH),
    "decompose": (run_decompose, VALID, NO_BRANCH),
    "intersect": (run_intersect, POLARIZED, NO_BRANCH),
    "purity": (run_purity, POLARIZED, EVERY_BRANCH),
    "link": (run_link, POLARIZED, EVERY_BRANCH),
    "duality": (run_duality, VALID, EVERY_BRANCH),
}


@cache
def build_parser():
    """Built once per process; parse_args leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="loghodge",
        description="Exact checks for local weight/purity structure near a "
                    "normal crossing point.")
    ap.add_argument("verb", choices=list(VERBS) + ["corpus"])
    ap.add_argument("input", help="instance file (directory for corpus)")
    ap.add_argument("--z", default="",
                    help="comma-separated 1-based branch indices")
    ap.add_argument("--complex", default="omega",
                    choices=["omega", "ic", "iclog"])
    ap.add_argument("--k", default=None)
    ap.add_argument("--mode", default="closed", choices=list(dec.MODES))
    ap.add_argument("--branch", default="1")
    ap.add_argument("--format", default="json", choices=["json", "text"])
    ap.add_argument("--jobs", default="1")
    return ap


def _render_text(doc, out):
    def walk(prefix, node):
        if isinstance(node, dict):
            for key in node:
                walk(f"{prefix}{key}.", node[key])
        elif isinstance(node, list):
            for i, item in enumerate(node):
                walk(f"{prefix}{i}.", item)
        else:
            out.write(f"{prefix[:-1]:<48} {node}\n")

    walk("", doc)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    doc = {"instance": args.input, "verb": args.verb}
    try:
        _parse_int_options(args)
        if args.verb == "corpus":
            results, passed = run_corpus(args)
        else:
            model = load_model(args.input)
            run, presumes, reads_z = VERBS[args.verb]
            with evaluation():
                if presumes:
                    _require_valid(validate(model))
                if presumes == POLARIZED and model.pairing is None:
                    raise InvalidModel("instance carries no pairing S")
                try:
                    z = None if reads_z is None else \
                        _parse_z(args.z, model, reads_z)
                    results, passed = run(model, args, z)
                except LogHodgeError as exc:
                    if not (presumes or isinstance(exc, ParseError)):
                        _require_valid(validate(model))     # name its rows
                    raise
        doc["results"] = results
        doc["verdict"] = "pass" if passed in (True, None) else "fail"
    except LogHodgeError as exc:
        doc["error"] = str(exc) if isinstance(exc, ParseError) else \
            f"{type(exc).__module__}.{type(exc).__name__}: {exc}"
        doc["verdict"] = "error"
        _emit(doc, args)
        return 2
    except Exception as exc:  # a bug: report it, never as a verdict
        import traceback    # only this path prints one
        traceback.print_exc(file=sys.stderr)
        doc["error"] = f"internal error: {type(exc).__name__}: {exc}"
        doc["verdict"] = "error"
        _emit(doc, args)
        return 3
    _emit(doc, args)
    # a checker verb's runner returns its verdict; every other runner, None
    return 1 if passed is False else 0


def _emit(doc, args):
    if args.format == "text":
        _render_text(doc, sys.stdout)
    else:
        sys.stdout.write(canonical_json(doc))


if __name__ == "__main__":
    sys.exit(main())
