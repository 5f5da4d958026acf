"""Batch front door: parse instances, dispatch computations, emit reports.

Output is a single JSON document on stdout (or a plain-text table with
--format text).  Exit codes: 0 success, 1 a checker verb found a violated
property, 2 bad input, 3 an internal error (a bug, not a property of the
input).  Identical input bytes produce identical output bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from functools import cache
from pathlib import Path

from . import decomposition as dec
from . import complexes as cx
from .errors import InvalidModel, LogHodgeError, ParseError
from .filtrations import relative_monodromy_filtration, star
from .linalg import evaluation
from .model import canonical_json, imhs_check, load_model, validate


def _parse_z(text, model):
    if not text:
        return frozenset()
    try:
        idx = [int(t) for t in text.split(",") if t]
    except ValueError as exc:
        raise ParseError(f"--z must be comma-separated integers: {exc}") from exc
    for j in idx:
        if not 1 <= j <= model.branches:
            raise ParseError(f"branch index {j} out of range 1..{model.branches}")
    return frozenset(j - 1 for j in idx)


def _purity_cohomology(model, mode, z):
    if mode in ("closed", "support"):
        return cx.support_cohomology(model, z, star=mode == "closed")
    if mode == "open":
        c = cx.build_ic_log(model, z)
    elif mode == "compact":
        c = cx.dualize(cx.build_ic_log(model, z), a=model.base_weight,
                       top=model.branches)
    elif mode == "link":
        c = cx.link_complex(model, z)
    else:
        raise ParseError(f"unknown purity mode {mode!r}")
    return cx.cohomology(c)


def _require_valid(report):
    """Raise InvalidModel naming the failed rows, if report fails any."""
    failed = dict.fromkeys(c.name for c in report.checks if c.status == "fail")
    if failed:
        raise InvalidModel(f"instance fails validate: {', '.join(failed)}")


def run_validate(model, args):
    rep = validate(model)
    return rep.to_json()["checks"], rep.passed


def run_imhs(model, args):
    rep = imhs_check(model, seed=args.seed)
    return rep.to_json()["checks"], rep.passed


def run_cohomology(model, args):
    z = _parse_z(args.z, model)
    return cx.cohomology(cx.build_complex(model, args.complex, z)).to_json(), None


def run_filtration(model, args):
    return {"W": model.weight.to_json(),
            "graded_dims": {str(k): d
                            for k, d in model.weight.graded_dims().items()}}, None


def run_star(model, args):
    j = args.branch - 1
    if not 0 <= j < model.branches:
        raise ParseError(f"--branch {args.branch} out of range")
    out = star(model.nilpotent(j), model.weight)
    return {"star": out.to_json()}, None


def run_relmono(model, args):
    z = _parse_z(args.z or "", model) or frozenset(range(model.branches))
    n = model.nilpotent_sum(sorted(z))
    out = relative_monodromy_filtration(n, model.weight)
    return {"branches": sorted(j + 1 for j in z),
            "relative_monodromy": out.to_json()}, None


def run_decompose(model, args):
    z = _parse_z(args.z, model)
    which = args.complex
    if args.k is not None:
        weights = [args.k]
    else:
        om = cx.build_omega(model)
        labels = set()
        for k in om.degrees():
            if om.term_dim(k):
                labels.update(om.weight_at(k).jumps())
        weights = sorted(labels)
    results = []
    ok = True
    for k in weights:
        rep = dec.check_graded_decomposition(model, k, which, z)
        results.append({"k": k, **rep.to_json()})
        ok = ok and rep.passed
    return results, ok


def run_intersect(model, args):
    z = _parse_z(args.z, model)
    if not z:
        raise ParseError("intersect needs a nonempty --z")
    _require_valid(validate(model))
    return dec.intersection_image(model, z), True


def run_purity(model, args):
    z = _parse_z(args.z, model) or frozenset(range(model.branches))
    shift = args.shift if args.shift is not None else model.perverse_shift
    _require_valid(validate(model))
    verdict = dec.purity_check(_purity_cohomology(model, args.mode, z),
                               model.base_weight, shift, args.mode)
    return verdict.to_json(), verdict.passed


def run_link(model, args):
    z = _parse_z(args.z, model) or frozenset(range(model.branches))
    shift = args.shift if args.shift is not None else model.perverse_shift
    _require_valid(validate(model))
    link = cx.link_complex(model, z)
    rep = cx.cohomology(link)
    verdict = dec.purity_check(rep, model.base_weight, shift, "link")
    return {"cohomology": rep.to_json(), "purity": verdict.to_json()}, \
        verdict.passed


def run_duality(model, args):
    z = _parse_z(args.z, model) or frozenset(range(model.branches))
    a = model.base_weight
    _require_valid(validate(model))
    results = []
    ok = True
    for kind in ("omega", "ic"):
        c = cx.build_complex(model, kind, z)
        base = cx.cohomology(c).profile()
        double = cx.cohomology(
            cx.dualize(cx.dualize(c, a=a), a=a)).profile()
        good = base == double
        ok = ok and good
        results.append({"check": f"double_dual[{kind}]",
                        "status": "pass" if good else "fail"})
    if model.pairing is not None and model.branches == 1:
        # the link S^{2n-1} is compact for every n, but for n >= 2 it is still
        # built from the union-of-branches i^! and i^*, which miss the link
        link = cx.link_complex(model, z)
        rep = cx.cohomology(link)
        m = model.perverse_shift
        good = True
        for k in rep.nonzero_degrees():
            k2 = 2 * m - 1 - k
            prof = rep.degrees[k].weight_profile()
            other = rep.degrees[k2].weight_profile() if k2 in rep.degrees else {}
            if prof != {2 * a + 1 - w: d for w, d in other.items()}:
                good = False
        ok = ok and good
        results.append({"check": "link_self_duality",
                        "status": "pass" if good else "fail"})
    elif model.pairing is not None:
        results.append({"check": "link_self_duality", "status": "skip"})
    return results, ok


def run_corpus(args):
    root = Path(args.input)
    if not root.is_dir():
        raise ParseError(f"corpus path {root} is not a directory")
    paths = sorted(p for p in root.glob("*.json")
                   if not p.name.endswith(".expected.json"))
    if not paths:
        raise ParseError(f"no instances found in {root}")

    def one(path):
        try:
            return path, corpus_entry(str(path), args.seed)
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
        else:
            want = json.loads(expected_path.read_text())
            if want == entry:
                row["status"] = "pass"
            else:
                row["status"] = "fail"
                row["detail"] = "report differs from committed expectation"
                ok = False
        results.append(row)
    return results, ok


def corpus_entry(path: str, seed: int = 0) -> dict:
    """The standard battery replayed by the corpus verb, in an evaluation
    (the caller's when one is open; a pool thread sees none and opens its own)."""
    with evaluation():
        model = load_model(path)
        report = validate(model)
        _require_valid(report)
        entry = {"validate": report.to_json()}
        entry["cohomology"] = {
            "omega": cx.cohomology(cx.build_omega(model)).to_json(),
            "ic": cx.cohomology(cx.build_ic(model)).to_json(),
        }
        if model.hodge is not None:
            entry["imhs"] = imhs_check(model, seed=seed).to_json()
        if model.pairing is not None and model.branches:
            z = frozenset(range(model.branches))
            entry["purity"] = {}
            for mode in ("closed", "support", "open", "compact"):
                entry["purity"][mode] = dec.purity_check(
                    _purity_cohomology(model, mode, z), model.base_weight,
                    model.perverse_shift, mode).to_json()
            entry["link"] = cx.cohomology(cx.link_complex(model, z)).to_json()
        return entry


VERBS = {
    "validate": run_validate,
    "imhs": run_imhs,
    "cohomology": run_cohomology,
    "filtration": run_filtration,
    "star": run_star,
    "relmono": run_relmono,
    "decompose": run_decompose,
    "intersect": run_intersect,
    "purity": run_purity,
    "link": run_link,
    "duality": run_duality,
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
    ap.add_argument("--k", type=int, default=None)
    ap.add_argument("--mode", default="closed",
                    choices=["open", "support", "closed", "compact", "link"])
    ap.add_argument("--shift", type=int, default=None)
    ap.add_argument("--branch", type=int, default=1)
    ap.add_argument("--format", default="json", choices=["json", "text"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
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
        if args.verb == "corpus":
            results, passed = run_corpus(args)
        else:
            model = load_model(args.input)
            with evaluation():
                results, passed = VERBS[args.verb](model, args)
        doc["results"] = results
        doc["verdict"] = "pass" if passed in (True, None) else "fail"
    except LogHodgeError as exc:
        doc["error"] = str(exc) if isinstance(exc, ParseError) else \
            f"{type(exc).__module__}.{type(exc).__name__}: {exc}"
        doc["verdict"] = "error"
        _emit(doc, args)
        return 2
    except Exception as exc:  # a bug: report it, never as a verdict
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
