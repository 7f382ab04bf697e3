"""The outputs of a fixed set of CLI runs, by digest, against the digests
pinned in ``golden_digests.json``; ``scripts/output_digests.py`` lists the
runs and re-pins the file after a deliberate output change."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "output_digests", ROOT / "scripts" / "output_digests.py"
)
output_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digests)


def test_outputs_match_pinned_digests():
    golden = json.loads((ROOT / "tests" / "golden_digests.json").read_text())
    pinned = golden["digests"]
    digests = output_digests.compute_digests()
    moved = sorted(k for k in pinned.keys() | digests.keys() if pinned.get(k) != digests.get(k))
    assert not moved, (
        f"outputs moved: {moved}; pinned with {golden['host']}, "
        f"recomputed with {output_digests.host()}"
    )
