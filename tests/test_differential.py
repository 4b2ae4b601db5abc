"""A fixed slice of the differential corpus, `tests/differential/run.py`.

Every eighth chunk, 2,500 seeded calls over every public entry point, must
give the outcomes whose digests are committed in `digests.json`; CI runs all
of them.  A chunk that differs prints with `run.py --show CHUNK`.
"""

import importlib.util
from pathlib import Path

PATH = Path(__file__).with_name("differential") / "run.py"
spec = importlib.util.spec_from_file_location("differential_run", PATH)
differential = importlib.util.module_from_spec(spec)
spec.loader.exec_module(differential)


def test_a_slice_of_the_corpus_gives_its_committed_outcomes():
    assert differential.check(range(0, differential.CHUNKS, 8)) == []
