from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name, file, old", [m[:3] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_each_mutant_applies_once(name, file, old):
    assert (ROOT / file).read_text().count(old) == 1


def test_mutant_names_are_unique_and_name_tests():
    assert len({m[0] for m in MUTANTS}) == len(MUTANTS)
    for name, _, old, new, node_ids in MUTANTS:
        assert old != new and node_ids, name
        for node_id in node_ids:
            path, _, test = node_id.partition("::")
            assert f"def {test}(" in (ROOT / path).read_text(), node_id
