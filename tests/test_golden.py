"""The behaviour contract: the fixed CLI session of golden_session.py must
reproduce tests/golden/ (strings, integers and exit codes exactly, other
numbers within rel_tol 1e-12, abs_tol 1e-15)."""

import json
import os

from golden_session import differences, run_session, text_differences

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_session_matches_reference(tmp_path):
    with open(os.path.join(GOLDEN, "manifest.json")) as fh:
        reference = json.load(fh)
    run_dir = tmp_path / "session"
    manifest = run_session(str(run_dir))
    found = differences(reference, os.path.join(GOLDEN, "reference"), manifest, str(run_dir))
    assert found == [], "\n".join(found)


def test_text_comparison_rules():
    assert text_differences("t", "PASS 2.842e-14 over 200", "PASS 2.843e-14 over 200") == []
    assert text_differences("t", '{"x":0.5}', '{"x":0.50000000000000011}') == []
    assert text_differences("t", '{"x":0.5}', '{"x":0.5000001}') != []
    assert text_differences("t", '{"points":200}', '{"points":201}') != []
    assert text_differences("t", '"chirp_sign":"-P22"', '"chirp_sign":"+P22"') != []
