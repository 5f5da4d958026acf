"""scripts/make_corpus.py stays in step with the committed corpus/."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location(
        "make_corpus", ROOT / "scripts" / "make_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_corpus_reproduces_every_committed_instance():
    """Each instance the script would write serialises to the committed
    corpus/<name>.json byte for byte, and it writes no other; nothing is
    written here."""
    script = _script()
    produced = {name: script.instance_json(doc)
                for name, doc in script.instances()}
    committed = {p.stem: p.read_text() for p in (ROOT / "corpus").glob("*.json")
                 if not p.name.endswith(".expected.json")}
    assert committed and produced == committed
