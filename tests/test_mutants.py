"""The mutation list of ``scripts/mutants.py`` still fits the source and the tests.

Running the mutations takes a minute and stays a script; this only checks
that every entry can be applied and names tests that exist.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutation_changes_one_place_and_names_existing_tests():
    names = [m.name for m in mutants.MUTATIONS]
    assert len(set(names)) == len(names)
    for m in mutants.MUTATIONS:
        # raises ValueError unless the old text occurs exactly once
        text = mutants.mutated_text(m)
        assert text != (ROOT / "src" / m.file).read_text(encoding="utf-8"), m.name
        compile(text, m.file, "exec")
        for node in m.tests:
            path, _, func = node.partition("::")
            assert f"\ndef {func}(" in (ROOT / path).read_text(encoding="utf-8"), node
